//! Control-message wire formats and WWI immediate-data encoding.
//!
//! Three control messages travel as small inline SENDs on the
//! connection's queue pair:
//!
//! * **ADVERT** — the receiver advertises one `exs_recv()` buffer:
//!   estimated stream sequence number, phase, virtual address, length,
//!   rkey, and the MSG_WAITALL flag (paper §II-C, §III).
//! * **ACK** — the receiver reports bytes freed from the intermediate
//!   buffer as it copies data out (paper §III).
//! * **CREDIT** — standalone credit return when no other message is
//!   flowing (paper §II-B describes periodic credit-returning ACKs; the
//!   simulator separates buffer-space ACKs from receive-credit returns).
//!
//! Every control message piggybacks `credit_return`: the number of
//! receive WQEs this side has re-posted since it last told the peer.
//!
//! Data travels as RDMA WRITE WITH IMM; the 32-bit immediate encodes the
//! transfer kind (direct vs indirect) and the chunk length, which is all
//! the receiver needs — placement already happened via DMA, and both
//! sides track ring positions deterministically because the channel is
//! FIFO.

use crate::phase::Phase;
use crate::seq::Seq;

/// Fixed size of every control message on the wire. Constant-size
/// control messages keep the credit accounting trivial and fit easily in
/// the QP inline limit.
pub(crate) const CTRL_MSG_LEN: usize = 44;

/// An advertised receive buffer, as carried by an ADVERT message and as
/// queued at the sender (`q_A` in the paper).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Advert {
    /// Estimated stream position of the first byte this buffer expects.
    pub seq: Seq,
    /// Receiver phase at emission time (always direct, Lemma 1).
    pub phase: Phase,
    /// Virtual address of the user buffer at the receiver.
    pub addr: u64,
    /// Buffer length in bytes.
    pub len: u32,
    /// Remote key authorizing RDMA WRITE into the buffer.
    pub rkey: u32,
    /// MSG_WAITALL: the sender must fill the buffer completely before
    /// the receive completes (paper §II-C).
    pub waitall: bool,
}

/// A parsed control message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Ctrl {
    /// Receive-buffer advertisement.
    Advert(Advert),
    /// Intermediate-buffer space freed by receiver copy-out.
    Ack {
        /// Bytes freed.
        freed: u64,
    },
    /// Standalone credit return (no payload beyond the piggyback field).
    Credit,
    /// Data-arrival notification for the iWARP WWI emulation: "the
    /// operation can be simulated on older iWARP hardware by following
    /// an RDMA WRITE with a small SEND" (paper §II-B). Carries the same
    /// 32-bit value the native path puts in the immediate.
    DataNotify {
        /// Encoded transfer descriptor (see [`encode_imm`]).
        imm: u32,
    },
    /// Half-close: the peer will send no byte beyond `final_seq`.
    /// Ordered after all data on the FIFO channel, so the receiver can
    /// deliver end-of-stream exactly once every byte has been consumed.
    Fin {
        /// Total bytes of the closed direction's stream.
        final_seq: u64,
    },
}

/// A control message plus the piggybacked credit return.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CtrlMsg {
    /// The message body.
    pub ctrl: Ctrl,
    /// Receive WQEs re-posted since the last report.
    pub credit_return: u32,
}

const TYPE_ADVERT: u8 = 1;
const TYPE_ACK: u8 = 2;
const TYPE_CREDIT: u8 = 3;
const TYPE_DATA_NOTIFY: u8 = 4;
const TYPE_FIN: u8 = 5;
const FLAG_WAITALL: u8 = 0b1;
/// Flag bit marking a control message as stream-tagged (shared-transport
/// multiplexing): the 4-byte stream id lives at offset 36.
const FLAG_MUX: u8 = 0b10;

/// Sentinel stream id for transport-scoped multiplexed control messages
/// (shared-ring ACKs, credit returns) that belong to the transport
/// itself rather than any one stream.
pub(crate) const STREAM_NONE: u32 = u32::MAX;

/// Largest stream id the mux immediate encoding can carry (31 bits; the
/// top bit distinguishes direct from indirect placement).
pub(crate) const MAX_MUX_STREAM: u32 = (1 << 31) - 1;

/// Errors from decoding a control message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// Buffer shorter than `CTRL_MSG_LEN`.
    TooShort(usize),
    /// Unknown message type byte.
    BadType(u8),
    /// A plain control message arrived on a multiplexed transport (the
    /// stream-tag flag is missing).
    NotMux,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::TooShort(n) => write!(f, "control message too short: {n} bytes"),
            DecodeError::BadType(t) => write!(f, "unknown control message type {t}"),
            DecodeError::NotMux => write!(f, "control message lacks the stream tag"),
        }
    }
}

impl std::error::Error for DecodeError {}

impl CtrlMsg {
    /// Serializes to the fixed wire layout (little-endian).
    ///
    /// Layout:
    /// ```text
    /// off  size  field
    ///   0     1  type (1=ADVERT, 2=ACK, 3=CREDIT)
    ///   1     1  flags (bit0 = WAITALL)
    ///   2     2  reserved
    ///   4     4  credit_return
    ///   8     4  phase            (ADVERT)
    ///  12     4  len              (ADVERT)
    ///  16     8  seq              (ADVERT)        / freed (ACK)
    ///  24     8  addr             (ADVERT)
    ///  32     4  rkey             (ADVERT)
    ///  36     8  reserved
    /// ```
    pub fn encode(&self) -> [u8; CTRL_MSG_LEN] {
        let mut buf = [0u8; CTRL_MSG_LEN];
        buf[4..8].copy_from_slice(&self.credit_return.to_le_bytes());
        match &self.ctrl {
            Ctrl::Advert(a) => {
                buf[0] = TYPE_ADVERT;
                if a.waitall {
                    buf[1] |= FLAG_WAITALL;
                }
                buf[8..12].copy_from_slice(&a.phase.0.to_le_bytes());
                buf[12..16].copy_from_slice(&a.len.to_le_bytes());
                buf[16..24].copy_from_slice(&a.seq.0.to_le_bytes());
                buf[24..32].copy_from_slice(&a.addr.to_le_bytes());
                buf[32..36].copy_from_slice(&a.rkey.to_le_bytes());
            }
            Ctrl::Ack { freed } => {
                buf[0] = TYPE_ACK;
                buf[16..24].copy_from_slice(&freed.to_le_bytes());
            }
            Ctrl::Credit => {
                buf[0] = TYPE_CREDIT;
            }
            Ctrl::DataNotify { imm } => {
                buf[0] = TYPE_DATA_NOTIFY;
                buf[8..12].copy_from_slice(&imm.to_le_bytes());
            }
            Ctrl::Fin { final_seq } => {
                buf[0] = TYPE_FIN;
                buf[16..24].copy_from_slice(&final_seq.to_le_bytes());
            }
        }
        buf
    }

    /// Encodes straight into a shareable inline payload: exactly one
    /// heap allocation. The older `encode().to_vec()` idiom copied the
    /// stack array into a `Vec` only for `Bytes::from` to copy it a
    /// second time into its refcounted storage.
    pub fn encode_bytes(&self) -> bytes::Bytes {
        bytes::Bytes::copy_from_slice(&self.encode())
    }

    /// Parses the fixed wire layout.
    pub fn decode(buf: &[u8]) -> Result<CtrlMsg, DecodeError> {
        if buf.len() < CTRL_MSG_LEN {
            return Err(DecodeError::TooShort(buf.len()));
        }
        let credit_return = u32::from_le_bytes(buf[4..8].try_into().expect("len checked"));
        let ctrl = match buf[0] {
            TYPE_ADVERT => Ctrl::Advert(Advert {
                phase: Phase(u32::from_le_bytes(buf[8..12].try_into().expect("len"))),
                len: u32::from_le_bytes(buf[12..16].try_into().expect("len")),
                seq: Seq(u64::from_le_bytes(buf[16..24].try_into().expect("len"))),
                addr: u64::from_le_bytes(buf[24..32].try_into().expect("len")),
                rkey: u32::from_le_bytes(buf[32..36].try_into().expect("len")),
                waitall: buf[1] & FLAG_WAITALL != 0,
            }),
            TYPE_ACK => Ctrl::Ack {
                freed: u64::from_le_bytes(buf[16..24].try_into().expect("len")),
            },
            TYPE_CREDIT => Ctrl::Credit,
            TYPE_DATA_NOTIFY => Ctrl::DataNotify {
                imm: u32::from_le_bytes(buf[8..12].try_into().expect("len")),
            },
            TYPE_FIN => Ctrl::Fin {
                final_seq: u64::from_le_bytes(buf[16..24].try_into().expect("len")),
            },
            t => return Err(DecodeError::BadType(t)),
        };
        Ok(CtrlMsg {
            ctrl,
            credit_return,
        })
    }
}

/// A control message carried over a shared (multiplexed) transport: the
/// plain [`CtrlMsg`] plus the stream id it belongs to.
///
/// Wire layout is [`CtrlMsg::encode`]'s with two additions: flag bit 1
/// (`FLAG_MUX`) is set and the stream id occupies the reserved bytes
/// at offset 36. `STREAM_NONE` tags transport-scoped messages.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MuxCtrlMsg {
    /// Stream this message belongs to (`STREAM_NONE` = the transport).
    pub stream: u32,
    /// The wrapped control message.
    pub msg: CtrlMsg,
}

impl MuxCtrlMsg {
    /// Serializes to the fixed wire layout.
    pub(crate) fn encode(&self) -> [u8; CTRL_MSG_LEN] {
        let mut buf = self.msg.encode();
        buf[1] |= FLAG_MUX;
        buf[36..40].copy_from_slice(&self.stream.to_le_bytes());
        buf
    }

    /// Encodes straight into a shareable inline payload (see
    /// [`CtrlMsg::encode_bytes`]).
    pub fn encode_bytes(&self) -> bytes::Bytes {
        bytes::Bytes::copy_from_slice(&self.encode())
    }

    /// Parses the fixed wire layout, requiring the stream tag.
    pub(crate) fn decode(buf: &[u8]) -> Result<MuxCtrlMsg, DecodeError> {
        let msg = CtrlMsg::decode(buf)?;
        if buf[1] & FLAG_MUX == 0 {
            return Err(DecodeError::NotMux);
        }
        let stream = u32::from_le_bytes(buf[36..40].try_into().expect("len checked"));
        Ok(MuxCtrlMsg { stream, msg })
    }
}

/// Encodes a mux data immediate: top bit = indirect, low 31 bits =
/// stream id. The chunk length travels in the completion's `byte_len`
/// instead (both backends report it), freeing the immediate for demux.
pub(crate) fn encode_mux_imm(kind: TransferKind, stream: u32) -> u32 {
    assert!(
        stream <= MAX_MUX_STREAM,
        "stream id {stream} exceeds imm encoding"
    );
    match kind {
        TransferKind::Direct => stream,
        TransferKind::Indirect => stream | IMM_INDIRECT_BIT,
    }
}

/// Decodes a mux data immediate into `(kind, stream_id)`.
pub(crate) fn decode_mux_imm(imm: u32) -> (TransferKind, u32) {
    if imm & IMM_INDIRECT_BIT != 0 {
        (TransferKind::Indirect, imm & !IMM_INDIRECT_BIT)
    } else {
        (TransferKind::Direct, imm)
    }
}

/// Kind of a data transfer, encoded in the WWI immediate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TransferKind {
    /// Zero-copy placement into an advertised user buffer.
    Direct,
    /// Placement into the hidden intermediate ring buffer.
    Indirect,
}

const IMM_INDIRECT_BIT: u32 = 1 << 31;
/// Maximum chunk length encodable in the immediate (2 GiB − 1).
pub const MAX_WWI_LEN: u32 = IMM_INDIRECT_BIT - 1;

/// Encodes a WWI immediate: top bit = indirect, low 31 bits = length.
pub fn encode_imm(kind: TransferKind, len: u32) -> u32 {
    assert!(
        len <= MAX_WWI_LEN,
        "WWI chunk of {len} bytes exceeds imm encoding"
    );
    match kind {
        TransferKind::Direct => len,
        TransferKind::Indirect => len | IMM_INDIRECT_BIT,
    }
}

/// Decodes a WWI immediate.
pub fn decode_imm(imm: u32) -> (TransferKind, u32) {
    if imm & IMM_INDIRECT_BIT != 0 {
        (TransferKind::Indirect, imm & !IMM_INDIRECT_BIT)
    } else {
        (TransferKind::Direct, imm)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn advert() -> Advert {
        Advert {
            seq: Seq(123_456_789_012),
            phase: Phase(6),
            addr: 0xDEAD_BEEF_0000,
            len: 1 << 20,
            rkey: 0xABCD,
            waitall: true,
        }
    }

    #[test]
    fn advert_roundtrip() {
        let m = CtrlMsg {
            ctrl: Ctrl::Advert(advert()),
            credit_return: 17,
        };
        let buf = m.encode();
        assert_eq!(CtrlMsg::decode(&buf).unwrap(), m);
    }

    #[test]
    fn advert_without_waitall_roundtrip() {
        let mut a = advert();
        a.waitall = false;
        let m = CtrlMsg {
            ctrl: Ctrl::Advert(a),
            credit_return: 0,
        };
        assert_eq!(CtrlMsg::decode(&m.encode()).unwrap(), m);
    }

    #[test]
    fn ack_roundtrip() {
        let m = CtrlMsg {
            ctrl: Ctrl::Ack {
                freed: u64::MAX / 3,
            },
            credit_return: 9,
        };
        assert_eq!(CtrlMsg::decode(&m.encode()).unwrap(), m);
    }

    #[test]
    fn data_notify_roundtrip() {
        let m = CtrlMsg {
            ctrl: Ctrl::DataNotify {
                imm: encode_imm(TransferKind::Indirect, 123_456),
            },
            credit_return: 2,
        };
        assert_eq!(CtrlMsg::decode(&m.encode()).unwrap(), m);
    }

    #[test]
    fn fin_roundtrip() {
        let m = CtrlMsg {
            ctrl: Ctrl::Fin {
                final_seq: u64::MAX / 7,
            },
            credit_return: 11,
        };
        assert_eq!(CtrlMsg::decode(&m.encode()).unwrap(), m);
    }

    #[test]
    fn credit_roundtrip() {
        let m = CtrlMsg {
            ctrl: Ctrl::Credit,
            credit_return: 42,
        };
        assert_eq!(CtrlMsg::decode(&m.encode()).unwrap(), m);
    }

    #[test]
    fn decode_rejects_short_and_bad_type() {
        assert_eq!(CtrlMsg::decode(&[0u8; 10]), Err(DecodeError::TooShort(10)));
        let mut buf = [0u8; CTRL_MSG_LEN];
        buf[0] = 99;
        assert_eq!(CtrlMsg::decode(&buf), Err(DecodeError::BadType(99)));
    }

    #[test]
    fn decode_tolerates_trailing_bytes() {
        let m = CtrlMsg {
            ctrl: Ctrl::Credit,
            credit_return: 1,
        };
        let mut buf = m.encode().to_vec();
        buf.extend_from_slice(&[0xFF; 8]);
        assert_eq!(CtrlMsg::decode(&buf).unwrap(), m);
    }

    #[test]
    fn imm_roundtrip() {
        for len in [0u32, 1, 4096, MAX_WWI_LEN] {
            for kind in [TransferKind::Direct, TransferKind::Indirect] {
                let (k, l) = decode_imm(encode_imm(kind, len));
                assert_eq!((k, l), (kind, len));
            }
        }
    }

    #[test]
    #[should_panic(expected = "exceeds imm encoding")]
    fn imm_overflow_panics() {
        encode_imm(TransferKind::Direct, MAX_WWI_LEN + 1);
    }

    #[test]
    fn encode_bytes_matches_encode() {
        let m = CtrlMsg {
            ctrl: Ctrl::Advert(advert()),
            credit_return: 17,
        };
        assert_eq!(&m.encode_bytes()[..], &m.encode()[..]);
        assert_eq!(m.encode_bytes().len(), CTRL_MSG_LEN);
    }

    #[test]
    fn mux_ctrl_roundtrip_and_flag_check() {
        let m = MuxCtrlMsg {
            stream: 0x00C0_FFEE,
            msg: CtrlMsg {
                ctrl: Ctrl::Advert(advert()),
                credit_return: 5,
            },
        };
        let buf = m.encode();
        assert_eq!(MuxCtrlMsg::decode(&buf).unwrap(), m);
        // The plain decoder still parses the wrapped message unchanged.
        assert_eq!(CtrlMsg::decode(&buf).unwrap(), m.msg);
        // A plain (untagged) message is rejected by the mux decoder.
        let plain = m.msg.encode();
        assert_eq!(MuxCtrlMsg::decode(&plain), Err(DecodeError::NotMux));
        // Transport-scoped sentinel survives the trip.
        let t = MuxCtrlMsg {
            stream: STREAM_NONE,
            msg: CtrlMsg {
                ctrl: Ctrl::Ack { freed: 640 },
                credit_return: 0,
            },
        };
        assert_eq!(MuxCtrlMsg::decode(&t.encode()).unwrap(), t);
    }

    #[test]
    fn mux_imm_roundtrip() {
        for stream in [0u32, 1, 99_999, MAX_MUX_STREAM] {
            for kind in [TransferKind::Direct, TransferKind::Indirect] {
                let (k, s) = decode_mux_imm(encode_mux_imm(kind, stream));
                assert_eq!((k, s), (kind, stream));
            }
        }
    }

    #[test]
    #[should_panic(expected = "exceeds imm encoding")]
    fn mux_imm_overflow_panics() {
        encode_mux_imm(TransferKind::Direct, MAX_MUX_STREAM + 1);
    }

    #[test]
    fn ctrl_len_fits_inline() {
        // Control messages must fit the default QP inline limit (256 B).
        const { assert!(CTRL_MSG_LEN <= 256) }
    }
}
