//! The simulated host channel adapter (HCA).
//!
//! [`HcaCore`] owns one node's verbs objects — memory table, queue pairs,
//! completion queues — and implements the *time-passive* half of the HCA:
//! validating work requests, matching posted receives, performing DMA
//! placement and generating completions. All timing (WQE processing
//! latency, link serialization, propagation) is applied by the driver
//! (`sim::SimNet` for virtual time, `threaded::ThreadNet` for real time),
//! which is what lets both backends share this logic. The driver also
//! decides when a send's source buffer is read: [`HcaCore::prepare_send`]
//! only validates and describes it ([`Payload::Source`]), and
//! [`HcaCore::handle_wire`] places whatever source the driver resolved
//! that description to: bytes, or a view of the source node's region,
//! whose whole pages the placement takes by reference.
//!
//! Wire-facing behaviour follows RC semantics: operations are processed
//! in arrival order, SEND and WRITE-WITH-IMM consume posted receives
//! (receiver-not-ready is fatal — the EXS credit protocol must prevent it),
//! RDMA WRITE validates rkey, bounds and access flags against the
//! registration table. Every message on the wire is a work request some
//! application posted: the HCA originates no traffic of its own.

use bytes::Bytes;
use simnet::SimDuration;

use crate::cq::CompletionQueue;
use crate::mr::{DmaSource, MemoryTable, MrInfo};
use crate::qp::{QpCaps, QueuePair};
use crate::types::{
    Access, CqId, Cqe, MrKey, NodeId, QpNum, RecvWr, Result, SendOpcode, SendWr, VerbsError,
    WcOpcode, WcStatus,
};
use crate::wire::{Payload, WireMessage, WireOp};

/// Static HCA parameters.
#[derive(Clone, Debug)]
pub struct HcaConfig {
    /// Per-WQE processing latency (doorbell to wire handoff).
    pub(crate) wqe_process: SimDuration,
}

impl Default for HcaConfig {
    fn default() -> Self {
        HcaConfig {
            wqe_process: SimDuration::from_nanos(250),
        }
    }
}

/// Side effects produced by HCA processing, applied by the driver.
#[derive(Debug)]
pub enum Effect {
    /// A completion was queued. The driver wakes what waits on the node
    /// (on `SimNet`, one app wake per burst of completions), and the
    /// woken code polls its CQs to find it.
    Completion,
    /// Unrecoverable protocol violation (receiver-not-ready, remote
    /// access error). A real HCA would move the QP to the error state
    /// after retries; the simulator surfaces it to the driver: `SimNet`
    /// panics, treating it as a protocol bug, and `ThreadNet` fails the
    /// QP. A message lost on the way is not one: `SimNet` counts it by
    /// cause (`SimNet::losses`) and fails the sender's QP.
    Fatal {
        /// The violated QP.
        qpn: QpNum,
        /// Classification.
        status: WcStatus,
        /// Human-readable detail for diagnostics.
        detail: String,
    },
}

/// A send work request validated and translated into wire form, plus the
/// completion to deliver when the send finishes.
#[derive(Debug)]
pub struct PreparedSend {
    /// The message to carry to the peer.
    pub(crate) msg: WireMessage,
    /// For a signaled send, the completion for the driver to hand to
    /// [`HcaCore::tx_finished`] once the source buffer is no longer
    /// needed: `SimNet` does so when the peer's acknowledgment returns
    /// (after the message was delivered), `ThreadNet` right after it
    /// delivered the message. `None` for an unsignaled send: the driver
    /// does nothing when it finishes, and its SQ slot is retired by the
    /// completion of the next signaled send on the QP
    /// ([`SendDone::slots`]).
    pub(crate) completion: Option<SendDone>,
}

/// A signaled send's completion and the send-queue slots it retires.
#[derive(Clone, Copy, Debug)]
pub(crate) struct SendDone {
    /// The CQE for the send CQ.
    pub(crate) cqe: Cqe,
    /// The send's own slot plus one per unsignaled send posted on the
    /// QP since the previous signaled one. RC acknowledges a QP's sends
    /// in order on both drivers, so by the time this one finishes every
    /// send before it has.
    pub(crate) slots: u32,
}

/// Table index of a QP number or CQ id: both count from 1. Id 0 wraps
/// to an index no table reaches, so it reads as unknown.
#[inline]
fn index_of(id: u32) -> usize {
    id.wrapping_sub(1) as usize
}

/// One node's verbs state.
///
/// Every id is an index. QP numbers and CQ ids are handed out from 1
/// and never retired, so QP `n` is `qps[n - 1]` and CQ `n` is
/// `cqs[n - 1]`; memory keys are slot + generation (see `mr`).
/// Anything that walks these tables does so in id order.
pub struct HcaCore {
    node: NodeId,
    cfg: HcaConfig,
    mem: MemoryTable,
    qps: Vec<QueuePair>,
    cqs: Vec<CompletionQueue>,
    polls_executed: u64,
}

impl HcaCore {
    /// Creates an empty HCA for `node`.
    pub(crate) fn new(node: NodeId, cfg: HcaConfig) -> Self {
        HcaCore {
            node,
            cfg,
            mem: MemoryTable::new(),
            qps: Vec::new(),
            cqs: Vec::new(),
            polls_executed: 0,
        }
    }

    /// Static configuration.
    pub(crate) fn config(&self) -> &HcaConfig {
        &self.cfg
    }

    /// The registration table (application-side memory access).
    pub fn mem(&self) -> &MemoryTable {
        &self.mem
    }

    /// Mutable registration table.
    pub fn mem_mut(&mut self) -> &mut MemoryTable {
        &mut self.mem
    }

    /// Registers a memory region.
    pub fn register_mr(&mut self, len: usize, access: Access) -> MrInfo {
        self.mem.register(len, access)
    }

    /// Deregisters a memory region.
    pub fn deregister_mr(&mut self, key: MrKey) -> Result<()> {
        self.mem.deregister(key)
    }

    /// Payload bytes this HCA's memory table has moved
    /// ([`MemoryTable::bytes_copied`]).
    pub fn bytes_copied(&self) -> u64 {
        self.mem.bytes_copied()
    }

    /// `poll_cq` calls this HCA has executed. A poll only charged
    /// (`NodeApi::charge_empty_polls`) is not one: this counts the
    /// host's work, the virtual clock counts the model's.
    pub fn polls_executed(&self) -> u64 {
        self.polls_executed
    }

    /// Creates a completion queue of `depth` entries.
    ///
    /// # Panics
    /// Panics if `depth` is 0. A CQ is sized by the work its QPs can
    /// have outstanding: `ExsConfig::cq_depth` for a stream endpoint.
    pub fn create_cq(&mut self, depth: usize) -> CqId {
        assert!(
            depth > 0,
            "create_cq: depth must be positive; size it with ExsConfig::cq_depth"
        );
        self.cqs.push(CompletionQueue::new(depth));
        CqId(self.cqs.len() as u32)
    }

    /// Creates a queue pair in the RESET state.
    pub fn create_qp(&mut self, send_cq: CqId, recv_cq: CqId, caps: QpCaps) -> Result<QpNum> {
        self.cq(send_cq)?;
        self.cq(recv_cq)?;
        let qpn = QpNum(self.qps.len() as u32 + 1);
        self.qps.push(QueuePair::new(send_cq, recv_cq, caps));
        Ok(qpn)
    }

    /// Walks a QP through INIT → RTR → RTS against the given peer.
    pub fn connect_qp(&mut self, qpn: QpNum, remote: (NodeId, QpNum)) -> Result<()> {
        let qp = self.qp_mut(qpn)?;
        qp.modify_to_init()?;
        qp.modify_to_rtr(remote)?;
        qp.modify_to_rts()?;
        Ok(())
    }

    /// Immutable QP access.
    #[inline]
    pub fn qp(&self, qpn: QpNum) -> Result<&QueuePair> {
        self.qps
            .get(index_of(qpn.0))
            .ok_or(VerbsError::UnknownQp(qpn))
    }

    /// Mutable QP access.
    #[inline]
    pub(crate) fn qp_mut(&mut self, qpn: QpNum) -> Result<&mut QueuePair> {
        self.qps
            .get_mut(index_of(qpn.0))
            .ok_or(VerbsError::UnknownQp(qpn))
    }

    /// Immutable CQ access.
    #[inline]
    pub fn cq(&self, cq: CqId) -> Result<&CompletionQueue> {
        self.cqs
            .get(index_of(cq.0))
            .ok_or(VerbsError::UnknownCq(cq))
    }

    /// Mutable CQ access.
    #[inline]
    pub(crate) fn cq_mut(&mut self, cq: CqId) -> Result<&mut CompletionQueue> {
        self.cqs
            .get_mut(index_of(cq.0))
            .ok_or(VerbsError::UnknownCq(cq))
    }

    /// Polls up to `max` completions from `cq`.
    pub(crate) fn poll_cq(&mut self, cq: CqId, max: usize, out: &mut Vec<Cqe>) -> Result<usize> {
        self.polls_executed += 1;
        let q = self.cq_mut(cq)?;
        assert!(
            !q.overflowed(),
            "completion queue {cq:?} overflowed: the ULP posted more work than CQ depth"
        );
        Ok(q.poll(max, out))
    }

    /// Forces a QP into the error state (fault injection: cable pull,
    /// retry exhaustion, peer death). Every posted receive is flushed
    /// with a `WrFlushError` completion, as real RC hardware does, so
    /// the ULP can learn which buffers were never filled. One
    /// [`Effect::Completion`] per flushed receive is appended to
    /// `effects`.
    pub(crate) fn fail_qp(&mut self, qpn: QpNum, effects: &mut Vec<Effect>) -> Result<()> {
        let qp = self.qp_mut(qpn)?;
        let recv_cq = qp.recv_cq();
        for wr in qp.modify_to_error() {
            self.push_cqe(
                recv_cq,
                Cqe {
                    wr_id: wr.wr_id,
                    status: WcStatus::WrFlushError,
                    opcode: WcOpcode::Recv,
                    byte_len: 0,
                    imm: None,
                    qpn,
                },
                effects,
            );
        }
        Ok(())
    }

    /// Posts a receive WQE.
    pub(crate) fn post_recv(&mut self, qpn: QpNum, wr: RecvWr) -> Result<()> {
        // Validate the SGE eagerly so misuse fails at post time, like a
        // real HCA's address translation check.
        if let Some(sge) = wr.sge {
            self.mem
                .check(sge.lkey, sge.addr, sge.len as u64, Access::NONE)?;
        }
        self.qp_mut(qpn)?.post_recv(wr)
    }

    /// Validates a send work request and translates it to wire form.
    /// Timing, delivery and the moment the source buffer is read are the
    /// driver's job: a payload in registered memory leaves here as a
    /// checked [`Payload::Source`] description, not as bytes.
    pub(crate) fn prepare_send(&mut self, qpn: QpNum, wr: SendWr) -> Result<PreparedSend> {
        let max_inline = self.qp(qpn)?.caps().max_inline;
        if let Some(inline) = &wr.inline {
            if inline.len() > max_inline {
                return Err(VerbsError::InlineTooLarge {
                    len: inline.len(),
                    max: max_inline,
                });
            }
        }
        if wr.inline.is_some() && wr.sge.is_some() {
            return Err(VerbsError::MalformedWr("both inline and sge present"));
        }

        // The zero-copy contract says the app must not touch the buffer
        // until completion, so its content is the same whenever the
        // driver reads it; check the range now so misuse fails at post
        // time.
        let payload = if let Some(inline) = &wr.inline {
            Payload::Owned(inline.clone())
        } else if let Some(sge) = wr.sge {
            self.mem
                .check(sge.lkey, sge.addr, sge.len as u64, Access::NONE)?;
            Payload::Source(sge)
        } else {
            Payload::Owned(Bytes::new())
        };

        let op = match wr.opcode {
            SendOpcode::Send => WireOp::Send { imm: wr.imm },
            SendOpcode::RdmaWrite => {
                let r = wr
                    .remote
                    .ok_or(VerbsError::MalformedWr("RDMA WRITE without remote"))?;
                WireOp::Write {
                    raddr: r.addr,
                    rkey: r.rkey,
                }
            }
            SendOpcode::RdmaWriteImm => {
                let r = wr
                    .remote
                    .ok_or(VerbsError::MalformedWr("RDMA WRITE IMM without remote"))?;
                WireOp::WriteImm {
                    raddr: r.addr,
                    rkey: r.rkey,
                    imm: wr.imm.ok_or(VerbsError::MalformedWr("WWI without imm"))?,
                }
            }
        };

        let qp = self.qp_mut(qpn)?;
        let remote_qp = qp.remote().ok_or(VerbsError::NotConnected)?;
        let completion = qp.reserve_sq_slot(wr.signaled)?.map(|slots| SendDone {
            cqe: Cqe {
                wr_id: wr.wr_id,
                status: WcStatus::Success,
                opcode: match wr.opcode {
                    SendOpcode::Send => WcOpcode::Send,
                    _ => WcOpcode::RdmaWrite,
                },
                byte_len: payload.len() as u32,
                imm: None,
                qpn,
            },
            slots,
        });

        Ok(PreparedSend {
            msg: WireMessage {
                src: (self.node, qpn),
                dst: remote_qp,
                op,
                payload,
            },
            completion,
        })
    }

    /// The payload as bytes the caller owns: a copy of the range a
    /// [`Payload::Source`] names (one allocation, one copy), or another
    /// handle on bytes that are already owned. For a driver that cannot
    /// leave the payload in the source buffer until delivery.
    pub(crate) fn capture_payload(&mut self, payload: &Payload) -> Result<Bytes> {
        match payload {
            Payload::Owned(bytes) => Ok(bytes.clone()),
            Payload::Source(sge) => {
                self.mem
                    .capture(sge.lkey, sge.addr, sge.len as u64, Access::NONE)
            }
        }
    }

    /// Called by the driver when a signaled send finishes (see
    /// [`PreparedSend::completion`] for when that is): retires its SQ
    /// slot and those of the unsignaled run before it in one batch, and
    /// queues its CQE. An unsignaled send has no call: the ULP can only
    /// learn slots are free from a CQE, and the FIFO channel makes one
    /// CQE vouch for everything posted before it.
    pub(crate) fn tx_finished(&mut self, done: SendDone, effects: &mut Vec<Effect>) {
        let Ok(qp) = self.qp_mut(done.cqe.qpn) else {
            return;
        };
        qp.release_sq_slots(done.slots);
        let cq = qp.send_cq();
        self.push_cqe(cq, done.cqe, effects);
    }

    fn push_cqe(&mut self, cq: CqId, cqe: Cqe, effects: &mut Vec<Effect>) {
        self.cqs[index_of(cq.0)].push(cqe);
        effects.push(Effect::Completion);
    }

    /// Processes an arriving wire message, appending the completions
    /// and/or fatal errors it produces to `effects` (the driver's scratch
    /// list, so a delivery allocates nothing of its own). `data` is the message's payload as the
    /// driver resolved it — the message's own bytes, or a view of the
    /// source region — and is placed exactly once, into the destination
    /// region ([`MemoryTable::dma_write`]).
    pub(crate) fn handle_wire(
        &mut self,
        msg: &WireMessage,
        data: DmaSource<'_>,
        effects: &mut Vec<Effect>,
    ) {
        let len = data.len() as u32;
        debug_assert_eq!(data.len(), msg.payload.len());
        let qpn = msg.dst.1;
        match msg.op {
            WireOp::Send { imm } => {
                self.receive_into_posted(qpn, data, imm, WcOpcode::Recv, effects);
            }
            WireOp::Write { raddr, rkey } => {
                if let Err(e) = self.mem.dma_write(rkey, raddr, data, Access::REMOTE_WRITE) {
                    effects.push(Effect::Fatal {
                        qpn,
                        status: WcStatus::RemoteAccessError,
                        detail: format!("RDMA WRITE rejected: {e}"),
                    });
                }
            }
            WireOp::WriteImm { raddr, rkey, imm } => {
                if let Err(e) = self.mem.dma_write(rkey, raddr, data, Access::REMOTE_WRITE) {
                    effects.push(Effect::Fatal {
                        qpn,
                        status: WcStatus::RemoteAccessError,
                        detail: format!("RDMA WRITE WITH IMM rejected: {e}"),
                    });
                    return;
                }
                // The notification consumes a receive WQE, but the data
                // was placed by the WRITE part: the RECV's own buffer is
                // untouched.
                match self.consume_recv(qpn) {
                    Some((recv, cq)) => {
                        self.push_cqe(
                            cq,
                            Cqe {
                                wr_id: recv.wr_id,
                                status: WcStatus::Success,
                                opcode: WcOpcode::RecvRdmaWithImm,
                                byte_len: len,
                                imm: Some(imm),
                                qpn,
                            },
                            effects,
                        );
                    }
                    None => effects.push(Effect::Fatal {
                        qpn,
                        status: WcStatus::RnrRetryExceeded,
                        detail: "WRITE WITH IMM arrived with no posted RECV".to_string(),
                    }),
                }
            }
        }
    }

    /// Takes the receive WQE at the head of `qpn`'s RQ, with the CQ its
    /// completion goes to. `None` means receiver-not-ready.
    fn consume_recv(&mut self, qpn: QpNum) -> Option<(RecvWr, CqId)> {
        let qp = self.qp_mut(qpn).ok()?;
        Some((qp.consume_recv()?, qp.recv_cq()))
    }

    fn receive_into_posted(
        &mut self,
        qpn: QpNum,
        payload: DmaSource<'_>,
        imm: Option<u32>,
        opcode: WcOpcode,
        effects: &mut Vec<Effect>,
    ) {
        let len = payload.len();
        let (recv, cq) = match self.consume_recv(qpn) {
            Some(r) => r,
            None => {
                effects.push(Effect::Fatal {
                    qpn,
                    status: WcStatus::RnrRetryExceeded,
                    detail: format!("SEND of {len} bytes arrived with no posted RECV"),
                });
                return;
            }
        };
        // Place the payload into the receive buffer.
        if len > 0 {
            let Some(sge) = recv.sge else {
                effects.push(Effect::Fatal {
                    qpn,
                    status: WcStatus::LocalProtectionError,
                    detail: "SEND payload arrived into zero-length RECV".to_string(),
                });
                return;
            };
            if len as u64 > sge.len as u64 {
                effects.push(Effect::Fatal {
                    qpn,
                    status: WcStatus::LocalProtectionError,
                    detail: format!(
                        "SEND of {len} bytes exceeds RECV buffer of {} bytes",
                        sge.len
                    ),
                });
                return;
            }
            if let Err(e) = self
                .mem
                .dma_write(sge.lkey, sge.addr, payload, Access::LOCAL_WRITE)
            {
                effects.push(Effect::Fatal {
                    qpn,
                    status: WcStatus::LocalProtectionError,
                    detail: format!("RECV placement failed: {e}"),
                });
                return;
            }
        }
        self.push_cqe(
            cq,
            Cqe {
                wr_id: recv.wr_id,
                status: WcStatus::Success,
                opcode,
                byte_len: len as u32,
                imm,
                qpn,
            },
            effects,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{RemoteAddr, Sge};

    /// Builds two connected HCAs and returns them with their QPNs and the
    /// CQ ids (send, recv) on each side.
    fn pair() -> (HcaCore, HcaCore, QpNum, QpNum, (CqId, CqId), (CqId, CqId)) {
        let mut a = HcaCore::new(NodeId(0), HcaConfig::default());
        let mut b = HcaCore::new(NodeId(1), HcaConfig::default());
        let a_scq = a.create_cq(64);
        let a_rcq = a.create_cq(64);
        let b_scq = b.create_cq(64);
        let b_rcq = b.create_cq(64);
        let qa = a.create_qp(a_scq, a_rcq, QpCaps::default()).unwrap();
        let qb = b.create_qp(b_scq, b_rcq, QpCaps::default()).unwrap();
        a.connect_qp(qa, (NodeId(1), qb)).unwrap();
        b.connect_qp(qb, (NodeId(0), qa)).unwrap();
        (a, b, qa, qb, (a_scq, a_rcq), (b_scq, b_rcq))
    }

    /// Delivers `msg` from `from` to `to` the way `SimNet` does: the
    /// payload is read where it lies and placed once.
    fn deliver(from: &mut HcaCore, to: &mut HcaCore, msg: &WireMessage) -> Vec<Effect> {
        let mut effects = Vec::new();
        let data = msg.payload.resolve(from.mem_mut()).unwrap();
        to.handle_wire(msg, data, &mut effects);
        effects
    }

    fn drain(hca: &mut HcaCore, cq: CqId) -> Vec<Cqe> {
        let mut out = Vec::new();
        hca.poll_cq(cq, usize::MAX, &mut out).unwrap();
        out
    }

    #[test]
    fn send_recv_roundtrip() {
        let (mut a, mut b, qa, qb, (a_scq, _), (_, b_rcq)) = pair();
        let src = a.register_mr(64, Access::NONE);
        let dst = b.register_mr(64, Access::LOCAL_WRITE);
        a.mem_mut().app_write(src.key, src.addr, b"ping").unwrap();
        b.post_recv(qb, RecvWr::new(77, dst.full_sge())).unwrap();

        let prep = a.prepare_send(qa, SendWr::send(11, src.sge(0, 4))).unwrap();
        // Simulate transmission finishing, then delivery.
        let mut fx = Vec::new();
        a.tx_finished(prep.completion.unwrap(), &mut fx);
        assert!(matches!(fx[0], Effect::Completion));
        let send_cqes = drain(&mut a, a_scq);
        assert_eq!(send_cqes.len(), 1);
        assert_eq!(send_cqes[0].wr_id, 11);

        let fx = deliver(&mut a, &mut b, &prep.msg);
        assert_eq!(fx.len(), 1);
        let recv_cqes = drain(&mut b, b_rcq);
        assert_eq!(recv_cqes.len(), 1);
        assert_eq!(recv_cqes[0].wr_id, 77);
        assert_eq!(recv_cqes[0].byte_len, 4);
        assert_eq!(recv_cqes[0].opcode, WcOpcode::Recv);
        let mut buf = [0u8; 4];
        b.mem().app_read(dst.key, dst.addr, &mut buf).unwrap();
        assert_eq!(&buf, b"ping");
    }

    #[test]
    fn send_without_recv_is_rnr_fatal() {
        let (mut a, mut b, qa, _, _, _) = pair();
        let src = a.register_mr(8, Access::NONE);
        let prep = a.prepare_send(qa, SendWr::send(1, src.sge(0, 8))).unwrap();
        let fx = deliver(&mut a, &mut b, &prep.msg);
        assert!(matches!(
            fx[0],
            Effect::Fatal {
                status: WcStatus::RnrRetryExceeded,
                ..
            }
        ));
    }

    #[test]
    fn rdma_write_places_silently() {
        let (mut a, mut b, qa, _, _, (_, b_rcq)) = pair();
        let src = a.register_mr(16, Access::NONE);
        let dst = b.register_mr(16, Access::local_remote_write());
        a.mem_mut()
            .app_write(src.key, src.addr, b"zero-copy!")
            .unwrap();

        let wr = SendWr::write(
            5,
            src.sge(0, 10),
            RemoteAddr {
                addr: dst.addr + 2,
                rkey: dst.key,
            },
        );
        let prep = a.prepare_send(qa, wr).unwrap();
        let fx = deliver(&mut a, &mut b, &prep.msg);
        assert!(fx.is_empty(), "pure WRITE generates no receiver effects");
        assert!(drain(&mut b, b_rcq).is_empty());
        let mut buf = [0u8; 10];
        b.mem().app_read(dst.key, dst.addr + 2, &mut buf).unwrap();
        assert_eq!(&buf, b"zero-copy!");
    }

    #[test]
    fn write_imm_places_and_notifies() {
        let (mut a, mut b, qa, qb, _, (_, b_rcq)) = pair();
        let src = a.register_mr(16, Access::NONE);
        let dst = b.register_mr(16, Access::local_remote_write());
        a.mem_mut()
            .app_write(src.key, src.addr, b"wwi-data")
            .unwrap();
        b.post_recv(qb, RecvWr::empty(42)).unwrap();

        let wr = SendWr::write_imm(
            6,
            src.sge(0, 8),
            RemoteAddr {
                addr: dst.addr,
                rkey: dst.key,
            },
            0xDEAD,
        );
        let prep = a.prepare_send(qa, wr).unwrap();
        deliver(&mut a, &mut b, &prep.msg);
        let cqes = drain(&mut b, b_rcq);
        assert_eq!(cqes.len(), 1);
        assert_eq!(cqes[0].wr_id, 42);
        assert_eq!(cqes[0].imm, Some(0xDEAD));
        assert_eq!(cqes[0].byte_len, 8);
        assert_eq!(cqes[0].opcode, WcOpcode::RecvRdmaWithImm);
        let mut buf = [0u8; 8];
        b.mem().app_read(dst.key, dst.addr, &mut buf).unwrap();
        assert_eq!(&buf, b"wwi-data");
    }

    #[test]
    fn write_imm_without_recv_is_rnr() {
        let (mut a, mut b, qa, _, _, _) = pair();
        let src = a.register_mr(8, Access::NONE);
        let dst = b.register_mr(8, Access::local_remote_write());
        let wr = SendWr::write_imm(
            1,
            src.sge(0, 8),
            RemoteAddr {
                addr: dst.addr,
                rkey: dst.key,
            },
            1,
        );
        let prep = a.prepare_send(qa, wr).unwrap();
        let fx = deliver(&mut a, &mut b, &prep.msg);
        assert!(matches!(
            fx[0],
            Effect::Fatal {
                status: WcStatus::RnrRetryExceeded,
                ..
            }
        ));
    }

    #[test]
    fn write_to_unauthorized_region_is_remote_access_error() {
        let (mut a, mut b, qa, _, _, _) = pair();
        let src = a.register_mr(8, Access::NONE);
        // No REMOTE_WRITE grant.
        let dst = b.register_mr(8, Access::LOCAL_WRITE);
        let wr = SendWr::write(
            1,
            src.sge(0, 8),
            RemoteAddr {
                addr: dst.addr,
                rkey: dst.key,
            },
        );
        let prep = a.prepare_send(qa, wr).unwrap();
        let fx = deliver(&mut a, &mut b, &prep.msg);
        assert!(matches!(
            fx[0],
            Effect::Fatal {
                status: WcStatus::RemoteAccessError,
                ..
            }
        ));
    }

    #[test]
    fn write_out_of_bounds_is_rejected() {
        let (mut a, mut b, qa, _, _, _) = pair();
        let src = a.register_mr(64, Access::NONE);
        let dst = b.register_mr(8, Access::local_remote_write());
        let wr = SendWr::write(
            1,
            src.sge(0, 64),
            RemoteAddr {
                addr: dst.addr,
                rkey: dst.key,
            },
        );
        let prep = a.prepare_send(qa, wr).unwrap();
        let fx = deliver(&mut a, &mut b, &prep.msg);
        assert!(matches!(fx[0], Effect::Fatal { .. }));
    }

    #[test]
    fn inline_send_respects_limit() {
        let (mut a, _, qa, _, _, _) = pair();
        let big = vec![0u8; 4096];
        let err = a.prepare_send(qa, SendWr::send_inline(1, big)).unwrap_err();
        assert!(matches!(err, VerbsError::InlineTooLarge { .. }));
        let ok = a
            .prepare_send(qa, SendWr::send_inline(2, vec![0u8; 64]))
            .unwrap();
        assert_eq!(ok.msg.payload_len(), 64);
    }

    #[test]
    fn unsignaled_send_has_no_completion() {
        let (mut a, _, qa, _, (a_scq, _), _) = pair();
        let src = a.register_mr(8, Access::NONE);
        let prep = a
            .prepare_send(qa, SendWr::send(1, src.sge(0, 8)).unsignaled())
            .unwrap();
        assert!(prep.completion.is_none());
        assert!(drain(&mut a, a_scq).is_empty());
        // The unsignaled WQE's SQ slot stays held until a signaled
        // completion retires it.
        assert_eq!(a.qp(qa).unwrap().sq_outstanding(), 1);
    }

    #[test]
    fn signaled_cqe_retires_prior_unsignaled_slots_in_one_batch() {
        let (mut a, _, qa, _, (a_scq, _), _) = pair();
        let src = a.register_mr(8, Access::NONE);
        // Three unsignaled sends: their slots stay held.
        for wr_id in 1..=3 {
            let prep = a
                .prepare_send(qa, SendWr::send(wr_id, src.sge(0, 8)).unsignaled())
                .unwrap();
            assert!(prep.completion.is_none());
        }
        assert_eq!(a.qp(qa).unwrap().sq_outstanding(), 3);
        // The fourth, signaled send carries the run and retires all four
        // slots at once.
        let prep = a.prepare_send(qa, SendWr::send(4, src.sge(0, 8))).unwrap();
        assert_eq!(a.qp(qa).unwrap().sq_outstanding(), 4);
        let done = prep.completion.unwrap();
        assert_eq!(done.slots, 4);
        let mut fx = Vec::new();
        a.tx_finished(done, &mut fx);
        assert_eq!(a.qp(qa).unwrap().sq_outstanding(), 0);
        let cqes = drain(&mut a, a_scq);
        assert_eq!(cqes.len(), 1, "only the signaled WQE produced a CQE");
        assert_eq!(cqes[0].wr_id, 4);
    }

    #[test]
    fn send_payload_larger_than_recv_buffer_is_fatal() {
        // Message-oriented semantics: data that does not fit is an error,
        // not a partial delivery (paper §I contrasts this with streams).
        let (mut a, mut b, qa, qb, _, _) = pair();
        let src = a.register_mr(64, Access::NONE);
        let dst = b.register_mr(16, Access::LOCAL_WRITE);
        b.post_recv(qb, RecvWr::new(1, dst.full_sge())).unwrap();
        let prep = a.prepare_send(qa, SendWr::send(1, src.sge(0, 64))).unwrap();
        let fx = deliver(&mut a, &mut b, &prep.msg);
        assert!(matches!(
            fx[0],
            Effect::Fatal {
                status: WcStatus::LocalProtectionError,
                ..
            }
        ));
    }

    #[test]
    fn create_qp_requires_existing_cqs() {
        let mut h = HcaCore::new(NodeId(0), HcaConfig::default());
        let err = h.create_qp(CqId(99), CqId(98), QpCaps::default());
        assert!(matches!(err, Err(VerbsError::UnknownCq(_))));
    }

    #[test]
    fn post_recv_validates_sge() {
        let (_, mut b, _, qb, _, _) = pair();
        let dst = b.register_mr(8, Access::LOCAL_WRITE);
        let bad = Sge::new(dst.addr, 64, dst.key);
        assert!(matches!(
            b.post_recv(qb, RecvWr::new(1, bad)),
            Err(VerbsError::OutOfBounds { .. })
        ));
        assert!(matches!(
            b.post_recv(qb, RecvWr::new(1, Sge::new(0, 1, MrKey(999)))),
            Err(VerbsError::UnknownKey(_))
        ));
    }
}
