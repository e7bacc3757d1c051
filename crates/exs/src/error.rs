//! Typed errors for peer-driven failures.
//!
//! Everything a remote peer can put on the wire — control bytes,
//! sequence numbers, stream ids, freed-byte counts — must surface as an
//! [`ExsError`] that breaks the affected connection, never as a panic
//! that aborts the whole process. The local half of that contract is the
//! socket layers' `fail` paths; this module is the shared vocabulary.

use crate::messages::DecodeError;

/// A protocol violation attributable to peer input.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProtocolError {
    /// A control message failed to decode.
    CtrlDecode(DecodeError),
    /// A data completion arrived without immediate data (every EXS WWI
    /// carries one).
    MissingImm,
    /// A completion opcode this endpoint never expects on that queue.
    UnexpectedOpcode,
    /// A second FIN for a direction that already closed.
    DuplicateFin,
    /// A FIN whose final sequence number disagrees with the bytes that
    /// actually arrived (the FIFO channel makes them provably equal for
    /// a correct peer).
    FinSeqMismatch {
        /// The peer's claimed final stream length.
        claimed: u64,
        /// Bytes this side actually saw arrive.
        arrived: u64,
    },
    /// A direct transfer arrived with no advertised receive to land in.
    DirectWithoutAdvert,
    /// A direct transfer carried more bytes than the advertised buffer
    /// had left.
    DirectOverfill,
    /// An indirect transfer overflowed the intermediate ring — the peer
    /// ignored the ACK-based flow control.
    RingOverflow,
    /// An ACK freed more bytes than were in flight.
    AckUnderflow,
    /// An ADVERT that violates the protocol's phase/sequence rules
    /// (e.g. emitted from an indirect phase, or sequenced ahead of the
    /// stream).
    BadAdvert,
    /// A multiplexed arrival named a stream id this endpoint never
    /// opened (or already fully closed).
    UnknownStream(u32),
    /// A stream id outside the 31-bit space the mux immediate encoding
    /// can carry.
    StreamIdOverflow(u32),
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::CtrlDecode(e) => write!(f, "control message decode failed: {e}"),
            ProtocolError::MissingImm => write!(f, "data completion without immediate data"),
            ProtocolError::UnexpectedOpcode => write!(f, "unexpected completion opcode"),
            ProtocolError::DuplicateFin => write!(f, "duplicate FIN"),
            ProtocolError::FinSeqMismatch { claimed, arrived } => {
                write!(f, "FIN claims {claimed} stream bytes but {arrived} arrived")
            }
            ProtocolError::DirectWithoutAdvert => {
                write!(f, "direct transfer without an advertised receive")
            }
            ProtocolError::DirectOverfill => {
                write!(f, "direct transfer overfills the advertised buffer")
            }
            ProtocolError::RingOverflow => write!(f, "intermediate ring overflow"),
            ProtocolError::AckUnderflow => write!(f, "ACK freed more bytes than were in flight"),
            ProtocolError::BadAdvert => write!(f, "ADVERT violates phase/sequence rules"),
            ProtocolError::UnknownStream(id) => write!(f, "unknown or closed stream id {id}"),
            ProtocolError::StreamIdOverflow(id) => {
                write!(f, "stream id {id} exceeds the 31-bit mux immediate space")
            }
        }
    }
}

impl std::error::Error for ProtocolError {}

/// Any failure surfaced by the EXS socket layers.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExsError {
    /// The peer violated the protocol; the connection is broken but the
    /// process lives on.
    Protocol(ProtocolError),
    /// The verbs backend failed underneath the socket.
    Verbs(rdma_verbs::VerbsError),
    /// An operation referenced a reactor connection or mux endpoint id
    /// that is not (or no longer) registered — e.g. an async wakeup
    /// racing a close. The slab-index handles are reused like file
    /// descriptors, so a stale id is an application-visible condition,
    /// not a panic.
    Stale,
    /// The sending direction was poisoned by a cancellation that caught
    /// a send already committed to the wire. The in-flight message
    /// still completes on a clean message boundary (a WWI is never torn
    /// mid-frame), but whether it was delivered is ambiguous to the
    /// canceller, so later sends fail fast with this error.
    Cancelled,
    /// End of stream: the peer half-closed and fewer buffered bytes
    /// remain than the receive asked for.
    Eof,
    /// The transport failed underneath the connection without an
    /// attributable protocol or verbs error.
    Broken,
}

impl std::fmt::Display for ExsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExsError::Protocol(e) => write!(f, "protocol error: {e}"),
            ExsError::Verbs(e) => write!(f, "verbs error: {e}"),
            ExsError::Stale => write!(f, "stale connection or endpoint id"),
            ExsError::Cancelled => {
                write!(f, "send direction poisoned by an unclean cancellation")
            }
            ExsError::Eof => write!(f, "end of stream"),
            ExsError::Broken => write!(f, "connection broken"),
        }
    }
}

impl std::error::Error for ExsError {}

impl From<ProtocolError> for ExsError {
    fn from(e: ProtocolError) -> Self {
        ExsError::Protocol(e)
    }
}

impl From<rdma_verbs::VerbsError> for ExsError {
    fn from(e: rdma_verbs::VerbsError) -> Self {
        ExsError::Verbs(e)
    }
}

impl From<DecodeError> for ExsError {
    fn from(e: DecodeError) -> Self {
        ExsError::Protocol(ProtocolError::CtrlDecode(e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e: ExsError = ProtocolError::UnknownStream(42).into();
        assert!(format!("{e}").contains("42"));
        let e: ExsError = DecodeError::BadType(99).into();
        assert!(format!("{e}").contains("99"));
        let e = ExsError::Protocol(ProtocolError::FinSeqMismatch {
            claimed: 10,
            arrived: 7,
        });
        assert!(format!("{e}").contains("10") && format!("{e}").contains("7"));
    }
}
