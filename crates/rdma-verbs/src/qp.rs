//! Queue pairs.
//!
//! A [`QueuePair`] models a reliable-connected (RC) QP: it must be
//! connected to exactly one remote QP, delivers in order, and consumes
//! posted receive WQEs for incoming SENDs and RDMA-WRITE-WITH-IMM
//! notifications. The state machine is the usual
//! RESET → INIT → RTR → RTS progression collapsed to the transitions the
//! simulator needs; operations posted in the wrong state fail exactly as
//! with real verbs.

use std::collections::VecDeque;

use simnet::SimTime;

use crate::types::{CqId, NodeId, QpNum, RecvWr, Result, VerbsError};

/// QP lifecycle states.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QpState {
    /// Fresh; nothing may be posted.
    Reset,
    /// Initialized; receives may be posted (real apps pre-post RECVs
    /// here, and the EXS credit scheme depends on that — paper §II-B).
    Init,
    /// Ready to receive.
    ReadyToReceive,
    /// Ready to send (fully connected).
    ReadyToSend,
    /// Broken; all further work is flushed.
    Error,
}

/// Static capabilities chosen at QP creation.
#[derive(Clone, Copy, Debug)]
pub struct QpCaps {
    /// Maximum outstanding send WQEs.
    pub max_send_wr: usize,
    /// Maximum outstanding receive WQEs.
    pub max_recv_wr: usize,
    /// Maximum inline payload accepted by `post_send`.
    pub max_inline: usize,
}

impl Default for QpCaps {
    fn default() -> Self {
        QpCaps {
            max_send_wr: 512,
            max_recv_wr: 512,
            max_inline: 256,
        }
    }
}

/// A simulated RC queue pair.
pub struct QueuePair {
    state: QpState,
    caps: QpCaps,
    send_cq: CqId,
    recv_cq: CqId,
    remote: Option<(NodeId, QpNum)>,
    /// Posted, not-yet-consumed receive WQEs.
    rq: VecDeque<RecvWr>,
    /// Number of send WQEs posted whose wire transmission has not yet
    /// finished (bounds the SQ).
    sq_outstanding: usize,
    /// Send WQEs whose transmission finished *unsignaled*: their SQ
    /// slots stay occupied until the next signaled completion retires
    /// the whole run in one batch, as a real HCA only lets the ULP
    /// reclaim SQ entries when a CQE is generated (selective
    /// signaling).
    sq_deferred: usize,
    /// When the HCA's per-QP WQE processing pipeline frees up (the DES
    /// driver uses this to serialize WQE launches).
    pub(crate) hca_free_at: SimTime,
}

impl QueuePair {
    /// Creates a QP in the RESET state.
    pub(crate) fn new(send_cq: CqId, recv_cq: CqId, caps: QpCaps) -> Self {
        QueuePair {
            state: QpState::Reset,
            caps,
            send_cq,
            recv_cq,
            remote: None,
            rq: VecDeque::with_capacity(caps.max_recv_wr.min(1024)),
            sq_outstanding: 0,
            sq_deferred: 0,
            hca_free_at: SimTime::ZERO,
        }
    }

    /// Capabilities.
    pub(crate) fn caps(&self) -> &QpCaps {
        &self.caps
    }

    /// CQ receiving send-side completions.
    pub(crate) fn send_cq(&self) -> CqId {
        self.send_cq
    }

    /// CQ receiving receive-side completions.
    pub(crate) fn recv_cq(&self) -> CqId {
        self.recv_cq
    }

    /// The connected peer, if any.
    pub(crate) fn remote(&self) -> Option<(NodeId, QpNum)> {
        self.remote
    }

    /// RESET → INIT.
    pub(crate) fn modify_to_init(&mut self) -> Result<()> {
        if self.state != QpState::Reset {
            return Err(VerbsError::InvalidQpState);
        }
        self.state = QpState::Init;
        Ok(())
    }

    /// INIT → RTR, binding the remote QP.
    pub(crate) fn modify_to_rtr(&mut self, remote: (NodeId, QpNum)) -> Result<()> {
        if self.state != QpState::Init {
            return Err(VerbsError::InvalidQpState);
        }
        self.remote = Some(remote);
        self.state = QpState::ReadyToReceive;
        Ok(())
    }

    /// RTR → RTS.
    pub(crate) fn modify_to_rts(&mut self) -> Result<()> {
        if self.state != QpState::ReadyToReceive {
            return Err(VerbsError::InvalidQpState);
        }
        self.state = QpState::ReadyToSend;
        Ok(())
    }

    /// Any state → ERROR. Pending receives are drained and returned so
    /// the HCA can flush them with `WrFlushError` completions.
    pub(crate) fn modify_to_error(&mut self) -> Vec<RecvWr> {
        self.state = QpState::Error;
        self.rq.drain(..).collect()
    }

    /// True when sends may be posted.
    pub(crate) fn can_send(&self) -> bool {
        self.state == QpState::ReadyToSend
    }

    /// True when receives may be posted.
    pub(crate) fn can_post_recv(&self) -> bool {
        matches!(
            self.state,
            QpState::Init | QpState::ReadyToReceive | QpState::ReadyToSend
        )
    }

    /// Posts a receive WQE.
    pub(crate) fn post_recv(&mut self, wr: RecvWr) -> Result<()> {
        if !self.can_post_recv() {
            return Err(VerbsError::InvalidQpState);
        }
        if self.rq.len() >= self.caps.max_recv_wr {
            return Err(VerbsError::RqFull);
        }
        self.rq.push_back(wr);
        Ok(())
    }

    /// Consumes the receive WQE at the head of the RQ (an incoming SEND
    /// or WWI notification arrived). `None` means receiver-not-ready.
    pub(crate) fn consume_recv(&mut self) -> Option<RecvWr> {
        self.rq.pop_front()
    }

    /// Number of posted, unconsumed receive WQEs.
    pub(crate) fn rq_len(&self) -> usize {
        self.rq.len()
    }

    /// Reserves a send-queue slot. Fails with `SqFull` at capacity.
    pub(crate) fn reserve_sq_slot(&mut self) -> Result<()> {
        if !self.can_send() {
            return Err(if self.state == QpState::Error {
                VerbsError::InvalidQpState
            } else if self.remote.is_none() {
                VerbsError::NotConnected
            } else {
                VerbsError::InvalidQpState
            });
        }
        if self.sq_outstanding >= self.caps.max_send_wr {
            return Err(VerbsError::SqFull);
        }
        self.sq_outstanding += 1;
        Ok(())
    }

    /// Marks an unsignaled WQE's transmission as finished *without*
    /// freeing its SQ slot: the slot is retired later, in one batch,
    /// by the next signaled completion on this QP
    /// ([`QueuePair::release_sq_batch`]).
    pub(crate) fn defer_sq_release(&mut self) {
        debug_assert!(
            self.sq_deferred < self.sq_outstanding,
            "deferring more SQ slots than are outstanding"
        );
        self.sq_deferred = (self.sq_deferred + 1).min(self.sq_outstanding);
    }

    /// Retires the signaled WQE's slot plus every previously deferred
    /// unsignaled slot in one batch, returning how many slots were
    /// freed. Sound because the RC channel is FIFO: a signaled CQE
    /// proves all WQEs posted before it have completed.
    pub(crate) fn release_sq_batch(&mut self) -> usize {
        let n = self.sq_deferred + 1;
        debug_assert!(self.sq_outstanding >= n, "SQ batch underflow");
        self.sq_outstanding = self.sq_outstanding.saturating_sub(n);
        self.sq_deferred = 0;
        n
    }

    /// Outstanding send WQEs.
    pub fn sq_outstanding(&self) -> usize {
        self.sq_outstanding
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::MrKey;
    use crate::types::Sge;

    impl QueuePair {
        /// Current state.
        pub(crate) fn state(&self) -> QpState {
            self.state
        }

        /// Send WQEs off the wire but still holding their SQ slot while
        /// they await a signaled CQE.
        pub(crate) fn sq_deferred(&self) -> usize {
            self.sq_deferred
        }
    }

    fn qp() -> QueuePair {
        QueuePair::new(CqId(1), CqId(2), QpCaps::default())
    }

    fn connected_qp() -> QueuePair {
        let mut q = qp();
        q.modify_to_init().unwrap();
        q.modify_to_rtr((NodeId(1), QpNum(9))).unwrap();
        q.modify_to_rts().unwrap();
        q
    }

    #[test]
    fn lifecycle_happy_path() {
        let mut q = qp();
        assert_eq!(q.state(), QpState::Reset);
        q.modify_to_init().unwrap();
        assert!(q.can_post_recv());
        assert!(!q.can_send());
        q.modify_to_rtr((NodeId(1), QpNum(9))).unwrap();
        q.modify_to_rts().unwrap();
        assert!(q.can_send());
        assert_eq!(q.remote(), Some((NodeId(1), QpNum(9))));
    }

    #[test]
    fn invalid_transitions_rejected() {
        let mut q = qp();
        assert_eq!(
            q.modify_to_rtr((NodeId(0), QpNum(0))),
            Err(VerbsError::InvalidQpState)
        );
        assert_eq!(q.modify_to_rts(), Err(VerbsError::InvalidQpState));
        q.modify_to_init().unwrap();
        assert_eq!(q.modify_to_init(), Err(VerbsError::InvalidQpState));
    }

    #[test]
    fn recv_before_rts_is_allowed() {
        // Pre-posting receives before connecting is the whole point of
        // the credit scheme (paper §II-B).
        let mut q = qp();
        q.modify_to_init().unwrap();
        q.post_recv(RecvWr::empty(1)).unwrap();
        assert_eq!(q.rq_len(), 1);
    }

    #[test]
    fn recv_in_reset_rejected() {
        let mut q = qp();
        assert_eq!(
            q.post_recv(RecvWr::empty(1)),
            Err(VerbsError::InvalidQpState)
        );
    }

    #[test]
    fn rq_capacity_enforced() {
        let mut q = QueuePair::new(
            CqId(1),
            CqId(2),
            QpCaps {
                max_recv_wr: 2,
                ..QpCaps::default()
            },
        );
        q.modify_to_init().unwrap();
        q.post_recv(RecvWr::empty(1)).unwrap();
        q.post_recv(RecvWr::empty(2)).unwrap();
        assert_eq!(q.post_recv(RecvWr::empty(3)), Err(VerbsError::RqFull));
    }

    #[test]
    fn recv_consumed_fifo() {
        let mut q = connected_qp();
        let sge = Sge::new(0x1000, 8, MrKey(1));
        q.post_recv(RecvWr::new(10, sge)).unwrap();
        q.post_recv(RecvWr::new(11, sge)).unwrap();
        assert_eq!(q.consume_recv().unwrap().wr_id, 10);
        assert_eq!(q.consume_recv().unwrap().wr_id, 11);
        assert!(q.consume_recv().is_none());
    }

    #[test]
    fn sq_slots_bound_outstanding() {
        let mut q = QueuePair::new(
            CqId(1),
            CqId(2),
            QpCaps {
                max_send_wr: 1,
                ..QpCaps::default()
            },
        );
        q.modify_to_init().unwrap();
        q.modify_to_rtr((NodeId(1), QpNum(2))).unwrap();
        q.modify_to_rts().unwrap();
        q.reserve_sq_slot().unwrap();
        assert_eq!(q.reserve_sq_slot(), Err(VerbsError::SqFull));
        q.release_sq_batch();
        q.reserve_sq_slot().unwrap();
        assert_eq!(q.sq_outstanding(), 1);
    }

    #[test]
    fn signaled_release_retires_deferred_batch() {
        let mut q = connected_qp();
        for _ in 0..5 {
            q.reserve_sq_slot().unwrap();
        }
        // Four unsignaled transmissions finish: their slots stay held.
        for _ in 0..4 {
            q.defer_sq_release();
        }
        assert_eq!(q.sq_outstanding(), 5);
        assert_eq!(q.sq_deferred(), 4);
        // The signaled completion retires all five in one batch.
        assert_eq!(q.release_sq_batch(), 5);
        assert_eq!(q.sq_outstanding(), 0);
        assert_eq!(q.sq_deferred(), 0);
    }

    #[test]
    fn send_before_connect_rejected() {
        let mut q = qp();
        q.modify_to_init().unwrap();
        assert!(q.reserve_sq_slot().is_err());
    }

    #[test]
    fn error_state_flushes_rq() {
        let mut q = connected_qp();
        q.post_recv(RecvWr::empty(1)).unwrap();
        q.post_recv(RecvWr::empty(2)).unwrap();
        let flushed = q.modify_to_error();
        assert_eq!(flushed.len(), 2);
        assert_eq!(q.state(), QpState::Error);
        assert!(q.reserve_sq_slot().is_err());
        assert!(q.post_recv(RecvWr::empty(3)).is_err());
    }
}
