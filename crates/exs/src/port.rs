//! Backend abstraction for the socket layer.
//!
//! The protocol state machines are sans-IO; the socket layer around
//! them needs a handful of verbs operations plus host-cost accounting.
//! [`VerbsPort`] names exactly that surface, so the same
//! `StreamSocket`/`SeqPacketSocket` code runs over:
//!
//! * the deterministic simulator (`rdma_verbs::NodeApi` — virtual time,
//!   CPU cost model; used by every benchmark), and
//! * the real-thread fabric (`crate::threaded::ThreadPort` — genuine
//!   concurrency; used to demonstrate the paper's thread-safety claim).

use rdma_verbs::{Access, CqId, Cqe, MrInfo, MrKey, NodeApi, QpNum, RecvWr, Result, SendWr};

/// The verbs surface the EXS socket layer needs from a backend.
pub trait VerbsPort {
    /// Posts a send work request.
    fn post_send(&mut self, qpn: QpNum, wr: SendWr) -> Result<()>;
    /// Posts a chain of send work requests as one postlist, paying a
    /// single doorbell cost where the backend models one. The default
    /// falls back to one doorbell per WR so a backend only overrides
    /// this when it can genuinely batch.
    fn post_send_list(&mut self, qpn: QpNum, wrs: Vec<SendWr>) -> Result<()> {
        for wr in wrs {
            self.post_send(qpn, wr)?;
        }
        Ok(())
    }
    /// Posts a receive work request.
    fn post_recv(&mut self, qpn: QpNum, wr: RecvWr) -> Result<()>;
    /// Polls up to `max` completions from `cq` into `out`.
    fn poll_cq(&mut self, cq: CqId, max: usize, out: &mut Vec<Cqe>) -> Result<usize>;
    /// Reads registered memory (control-message slots).
    fn read_mr(&self, key: MrKey, addr: u64, buf: &mut [u8]) -> Result<()>;
    /// Copies between registered regions, charging the host memcpy cost
    /// where the backend models one (the intermediate-buffer copy-out).
    fn copy_mr(
        &mut self,
        src_key: MrKey,
        src_addr: u64,
        dst_key: MrKey,
        dst_addr: u64,
        len: u64,
    ) -> Result<u64>;
    /// Charges the protocol-layer cost of handling one completion
    /// (no-op on backends without a CPU model).
    fn charge_cqe_cost(&mut self);
    /// Outstanding send WQEs on the QP (send-queue backpressure).
    fn sq_outstanding(&self, qpn: QpNum) -> usize;
    /// Registers a memory region (BCopy staging buffers).
    fn register_mr(&mut self, len: usize, access: Access) -> MrInfo;
    /// Deregisters a memory region.
    fn deregister_mr(&mut self, key: MrKey) -> Result<()>;
    /// Registers a memory region, charging the host's pin-down cost
    /// where the backend models one. The mempool acquire path uses
    /// this so registration churn is visible in virtual time; backends
    /// without a CPU model fall back to plain registration.
    fn register_mr_charged(&mut self, len: usize, access: Access) -> MrInfo {
        self.register_mr(len, access)
    }
    /// Deregisters a memory region, charging the host's unpin cost
    /// where the backend models one.
    fn deregister_mr_charged(&mut self, key: MrKey) -> Result<()> {
        self.deregister_mr(key)
    }
    /// Writes application data into registered memory (lease fills;
    /// uncharged — the fill is part of producing the data, not of the
    /// transport).
    fn write_mr(&mut self, key: MrKey, addr: u64, data: &[u8]) -> Result<()>;
    /// CQ pressure gauges: `(overflowed, max_batch, nonempty_polls)`
    /// for one completion queue, copied into [`crate::ConnStats`] so a
    /// test or the benchmark can tell when a CQ was sized too small. Backends without
    /// introspection return the neutral reading.
    fn cq_pressure(&self, cq: CqId) -> CqPressure {
        let _ = cq;
        CqPressure::default()
    }
}

/// A point-in-time reading of one completion queue's pressure gauges.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CqPressure {
    /// The CQ dropped a completion because it was full (fatal in real
    /// verbs; latched sticky here).
    pub overflowed: bool,
    /// Largest number of CQEs returned by a single poll.
    pub max_batch: u64,
    /// Polls that returned at least one CQE.
    pub nonempty_polls: u64,
}

impl VerbsPort for NodeApi<'_> {
    fn post_send(&mut self, qpn: QpNum, wr: SendWr) -> Result<()> {
        NodeApi::post_send(self, qpn, wr)
    }

    fn post_send_list(&mut self, qpn: QpNum, wrs: Vec<SendWr>) -> Result<()> {
        NodeApi::post_send_list(self, qpn, wrs)
    }

    fn post_recv(&mut self, qpn: QpNum, wr: RecvWr) -> Result<()> {
        NodeApi::post_recv(self, qpn, wr)
    }

    fn poll_cq(&mut self, cq: CqId, max: usize, out: &mut Vec<Cqe>) -> Result<usize> {
        NodeApi::poll_cq(self, cq, max, out)
    }

    fn read_mr(&self, key: MrKey, addr: u64, buf: &mut [u8]) -> Result<()> {
        NodeApi::read_mr(self, key, addr, buf)
    }

    fn copy_mr(
        &mut self,
        src_key: MrKey,
        src_addr: u64,
        dst_key: MrKey,
        dst_addr: u64,
        len: u64,
    ) -> Result<u64> {
        NodeApi::copy_mr(self, src_key, src_addr, dst_key, dst_addr, len)
    }

    fn charge_cqe_cost(&mut self) {
        let cost = self.host().cqe_process;
        self.charge(cost);
    }

    fn sq_outstanding(&self, qpn: QpNum) -> usize {
        self.hca()
            .qp(qpn)
            .map(|q| q.sq_outstanding())
            .unwrap_or(usize::MAX)
    }

    fn register_mr(&mut self, len: usize, access: Access) -> MrInfo {
        NodeApi::register_mr(self, len, access)
    }

    fn deregister_mr(&mut self, key: MrKey) -> Result<()> {
        self.hca_deregister(key)
    }

    fn register_mr_charged(&mut self, len: usize, access: Access) -> MrInfo {
        NodeApi::register_mr_charged(self, len, access)
    }

    fn deregister_mr_charged(&mut self, key: MrKey) -> Result<()> {
        NodeApi::deregister_mr_charged(self, key)
    }

    fn write_mr(&mut self, key: MrKey, addr: u64, data: &[u8]) -> Result<()> {
        NodeApi::write_mr(self, key, addr, data)
    }

    fn cq_pressure(&self, cq: CqId) -> CqPressure {
        self.hca()
            .cq(cq)
            .map(|q| CqPressure {
                overflowed: q.overflowed(),
                max_batch: q.max_batch(),
                nonempty_polls: q.nonempty_polls(),
            })
            .unwrap_or_default()
    }
}
