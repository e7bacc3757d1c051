//! Shared transmit pipeline: postlist staging, selective signaling,
//! and doorbell accounting.
//!
//! Every [`crate::chan::Channel`] (one per QP, under a stream socket
//! or a pooled mux transport) collects every WQE plannable in one
//! progress pass — data WWIs and the control traffic they trigger —
//! into a [`TxPipe`], then flushes it as postlists of at
//! most `tx_batch_limit` linked WQEs, each postlist paying a single
//! doorbell (`HostModel::post_overhead`). Staged WQEs are unsignaled by default;
//! every `signal_interval`-th is signaled, and the next signaled CQE
//! batch-retires all unsignaled SQ slots before it (both here, via the
//! channel's owner queue, and in the verbs layer's deferred slot
//! release). Two forced signals keep the pipeline live at any interval:
//!
//! * **SQ near full** — posting into the last two SQ slots always
//!   signals, so a retiring CQE is guaranteed before the queue can
//!   wedge even when `signal_interval > sq_depth`;
//! * **flush carrying data** — a flush whose batch contains a data WQE
//!   ends signaled, so the owners' completions surface even if the
//!   connection then goes idle.

use rdma_verbs::{QpNum, SendWr};

use crate::config::ExsConfig;
use crate::port::VerbsPort;
use crate::stats::ConnStats;

/// Staging state for one connection's transmit path.
pub(crate) struct TxPipe {
    /// WQEs staged for the next flush, in posting order.
    queue: Vec<SendWr>,
    /// The staged queue contains a data WQE whose completion someone
    /// waits for; its flush must end signaled.
    has_data: bool,
    /// Consecutive WQEs posted (or staged) unsignaled.
    unsignaled_run: usize,
    /// Signaled WQEs posted whose CQE has not yet been observed. While
    /// non-zero a future wake is guaranteed, so a socket may hold small
    /// sends for coalescing without risking a stall.
    signaled_outstanding: u32,
}

impl TxPipe {
    pub(crate) fn new() -> TxPipe {
        TxPipe {
            queue: Vec::new(),
            has_data: false,
            unsignaled_run: 0,
            signaled_outstanding: 0,
        }
    }

    /// WQEs staged and not yet flushed. They will occupy SQ slots the
    /// moment the queue flushes, so resource gates must count them as
    /// part of the SQ occupancy.
    pub(crate) fn staged(&self) -> usize {
        self.queue.len()
    }

    /// Signaled WQEs awaiting their CQE.
    pub(crate) fn signaled_outstanding(&self) -> u32 {
        self.signaled_outstanding
    }

    /// Records one observed signaled send completion.
    pub(crate) fn on_signaled_cqe(&mut self) {
        self.signaled_outstanding = self.signaled_outstanding.saturating_sub(1);
    }

    /// Stages one WQE, deciding its signaling: unsignaled by default,
    /// signaled every `signal_interval`-th WQE, force-signaled when the
    /// SQ nears full. `occupancy` is the caller's current SQ view
    /// (`sq_outstanding + staged`); `is_data` marks WQEs whose
    /// completion the application waits for.
    pub(crate) fn stage(
        &mut self,
        occupancy: usize,
        cfg: &ExsConfig,
        wr: SendWr,
        is_data: bool,
        stats: &mut ConnStats,
    ) {
        let signaled = self.unsignaled_run + 1 >= cfg.effective_signal_interval()
            || occupancy + 2 >= cfg.sq_depth;
        if signaled {
            self.unsignaled_run = 0;
            self.signaled_outstanding += 1;
            stats.signaled_wqes += 1;
            self.queue.push(wr); // constructors default to signaled
        } else {
            self.unsignaled_run += 1;
            stats.unsignaled_wqes += 1;
            self.queue.push(wr.unsignaled());
        }
        self.has_data |= is_data;
    }

    /// Posts the staged queue as postlists of at most `tx_batch_limit`
    /// WQEs, one doorbell each. A flush carrying data WQEs ends
    /// signaled so the CQE that retires their owners (and
    /// batch-releases the unsignaled SQ slots before it) is guaranteed
    /// even if the connection then goes quiet.
    pub(crate) fn flush(
        &mut self,
        api: &mut impl VerbsPort,
        qpn: QpNum,
        cfg: &ExsConfig,
        stats: &mut ConnStats,
    ) {
        if self.queue.is_empty() {
            return;
        }
        if self.has_data {
            let last = self.queue.last_mut().expect("queue is non-empty");
            if !last.signaled {
                last.signaled = true;
                stats.unsignaled_wqes -= 1;
                stats.signaled_wqes += 1;
                self.signaled_outstanding += 1;
                self.unsignaled_run = 0;
            }
        }
        self.has_data = false;
        let limit = cfg.effective_tx_batch_limit().max(1);
        let mut post = |chunk: Vec<SendWr>| {
            let n = chunk.len() as u64;
            stats.doorbells += 1;
            stats.wqes_posted += n;
            stats.max_wqes_per_doorbell = stats.max_wqes_per_doorbell.max(n);
            api.post_send_list(qpn, chunk)
                .expect("posting transmit batch");
        };
        // The backend takes a postlist by value. A queue that fits one
        // postlist (the common case) is handed over as it is; a longer
        // one is copied out chunk by chunk and keeps its capacity.
        if self.queue.len() <= limit {
            post(std::mem::take(&mut self.queue));
        } else {
            while !self.queue.is_empty() {
                let take = self.queue.len().min(limit);
                post(self.queue.drain(..take).collect());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interval_and_near_full_signaling() {
        let cfg = ExsConfig {
            sq_depth: 64,
            signal_interval: 4,
            ..ExsConfig::default()
        };
        let mut tx = TxPipe::new();
        let mut stats = ConnStats::default();
        for i in 0..8u64 {
            tx.stage(
                i as usize,
                &cfg,
                SendWr::send_inline(i, vec![0u8; 4]),
                false,
                &mut stats,
            );
        }
        // Every 4th WQE signaled: positions 3 and 7.
        let flags: Vec<bool> = tx.queue.iter().map(|w| w.signaled).collect();
        assert_eq!(
            flags,
            [false, false, false, true, false, false, false, true]
        );
        assert_eq!(stats.signaled_wqes, 2);
        assert_eq!(stats.unsignaled_wqes, 6);

        // Near-full occupancy forces a signal regardless of the run.
        tx.stage(
            62,
            &cfg,
            SendWr::send_inline(8, vec![0u8; 4]),
            false,
            &mut stats,
        );
        assert!(tx.queue.last().expect("staged").signaled);
    }

    #[test]
    fn data_flush_ends_signaled() {
        struct NoopPort {
            posted: Vec<(usize, Vec<bool>)>,
        }
        impl VerbsPort for NoopPort {
            fn post_send(&mut self, _q: QpNum, wr: SendWr) -> rdma_verbs::Result<()> {
                self.posted.push((1, vec![wr.signaled]));
                Ok(())
            }
            fn post_send_list(&mut self, _q: QpNum, wrs: Vec<SendWr>) -> rdma_verbs::Result<()> {
                self.posted
                    .push((wrs.len(), wrs.iter().map(|w| w.signaled).collect()));
                Ok(())
            }
            fn post_recv(&mut self, _q: QpNum, _wr: rdma_verbs::RecvWr) -> rdma_verbs::Result<()> {
                Ok(())
            }
            fn poll_cq(
                &mut self,
                _cq: rdma_verbs::CqId,
                _max: usize,
                _out: &mut Vec<rdma_verbs::Cqe>,
            ) -> rdma_verbs::Result<usize> {
                Ok(0)
            }
            fn read_mr(
                &self,
                _k: rdma_verbs::MrKey,
                _a: u64,
                _b: &mut [u8],
            ) -> rdma_verbs::Result<()> {
                Ok(())
            }
            fn copy_mr(
                &mut self,
                _sk: rdma_verbs::MrKey,
                _sa: u64,
                _dk: rdma_verbs::MrKey,
                _da: u64,
                len: u64,
            ) -> rdma_verbs::Result<u64> {
                Ok(len)
            }
            fn charge_cqe_cost(&mut self) {}
            fn sq_outstanding(&self, _q: QpNum) -> usize {
                0
            }
            fn register_mr(&mut self, len: usize, _a: rdma_verbs::Access) -> rdma_verbs::MrInfo {
                rdma_verbs::MrInfo {
                    key: rdma_verbs::MrKey(0),
                    addr: 0,
                    len,
                }
            }
            fn deregister_mr(&mut self, _k: rdma_verbs::MrKey) -> rdma_verbs::Result<()> {
                Ok(())
            }
            fn write_mr(
                &mut self,
                _k: rdma_verbs::MrKey,
                _a: u64,
                _d: &[u8],
            ) -> rdma_verbs::Result<()> {
                Ok(())
            }
        }

        let cfg = ExsConfig {
            sq_depth: 64,
            signal_interval: 1 << 30,
            tx_batch_limit: 3,
            ..ExsConfig::default()
        };
        let mut tx = TxPipe::new();
        let mut stats = ConnStats::default();
        let mut port = NoopPort { posted: Vec::new() };
        for i in 0..7u64 {
            tx.stage(
                i as usize,
                &cfg,
                SendWr::send_inline(i, vec![0u8; 4]),
                i == 2, // one data WQE in the middle
                &mut stats,
            );
        }
        tx.flush(&mut port, QpNum(1), &cfg, &mut stats);
        // Chunked at the batch limit: 3 + 3 + 1 WQEs, three doorbells.
        assert_eq!(
            port.posted.iter().map(|(n, _)| *n).collect::<Vec<_>>(),
            [3, 3, 1]
        );
        assert_eq!(stats.doorbells, 3);
        assert_eq!(stats.wqes_posted, 7);
        assert_eq!(stats.max_wqes_per_doorbell, 3);
        // The astronomically large interval left everything unsignaled,
        // but the data WQE forces the flush to end signaled.
        let all: Vec<bool> = port.posted.iter().flat_map(|(_, f)| f.clone()).collect();
        assert_eq!(all.iter().filter(|s| **s).count(), 1);
        assert!(all.last().expect("posted"), "flush must end signaled");
        assert_eq!(tx.signaled_outstanding(), 1);

        // A pure-control flush stays fully unsignaled.
        tx.stage(
            0,
            &cfg,
            SendWr::send_inline(9, vec![0u8; 4]),
            false,
            &mut stats,
        );
        port.posted.clear();
        tx.flush(&mut port, QpNum(1), &cfg, &mut stats);
        assert_eq!(port.posted, [(1, vec![false])]);
    }
}
