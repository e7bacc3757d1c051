//! Host CPU cost model and per-node CPU accounting.
//!
//! The paper's central trade-off is CPU time: indirect transfers save the
//! ADVERT round trip but cost the receiver a full memcpy per byte, driving
//! its CPU toward 100% (paper Fig. 10) and capping throughput below the
//! wire rate (Fig. 9). [`HostModel`] holds the calibrated per-operation
//! costs; [`CpuMeter`] serializes a node's protocol work on one simulated
//! core and integrates busy time so runs can report CPU usage exactly as
//! the paper's blast tool does.

use simnet::{SimDuration, SimTime};

/// Calibrated host-side costs. All values are model inputs; profiles in
/// [`crate::profiles`] provide era-appropriate defaults and every
/// experiment records the profile it used.
#[derive(Clone, Debug)]
pub struct HostModel {
    /// Sustained large-copy memory bandwidth (bytes/second) for
    /// cache-missing copies between the intermediate buffer and user
    /// memory.
    pub(crate) memcpy_bytes_per_sec: u64,
    /// Fixed per-memcpy-call overhead.
    pub(crate) memcpy_base: SimDuration,
    /// Cost of one `post_send`/`post_recv` verbs call (doorbell write,
    /// WQE build).
    pub(crate) post_overhead: SimDuration,
    /// Cost of one `poll_cq` call (amortized over a batch).
    pub(crate) poll_overhead: SimDuration,
    /// Protocol-layer cost of handling one completion event.
    pub cqe_process: SimDuration,
    /// CPU cost of processing a completion-channel event (the paper uses
    /// event notification, not busy polling, for large messages —
    /// §IV-B).
    pub(crate) event_wakeup: SimDuration,
    /// Sleep-to-run latency when a blocked process is woken by the
    /// completion channel: elapsed but *not* busy time (the process was
    /// in epoll_wait-style sleep). Applied only when the core was idle
    /// when the completion arrived.
    pub(crate) wakeup_latency: SimDuration,
    /// Probability that a wakeup suffers an additional scheduling stall
    /// (timer tick, interrupt, preemption) — the heavy tail of OS noise.
    pub(crate) stall_prob: f64,
    /// Maximum stall length (uniformly drawn in `[0, stall_max]`).
    pub(crate) stall_max: SimDuration,
    /// Busy-poll the completion queues instead of blocking on the
    /// completion channel: no wakeup latency and no scheduling stalls,
    /// but the core is pinned at 100% by definition (the paper's blast
    /// study uses event notification because "most messages ... are
    /// large enough that there is little advantage to busy polling",
    /// §IV-B; the latency ablation quantifies the advantage that *does*
    /// exist for small messages).
    pub(crate) busy_poll: bool,
    /// Relative uniform jitter applied to every charged CPU cost,
    /// modelling OS scheduling noise: each cost is scaled by a factor
    /// drawn uniformly from `[1 − jitter_frac, 1 + jitter_frac]`.
    /// Deterministic per simulation seed. The paper's mid-size dynamic
    /// runs show large run-to-run variance in the direct-transfer ratio
    /// (Fig. 11b); that variance comes from exactly this noise tipping
    /// the ADVERT race one way or the other.
    pub(crate) jitter_frac: f64,
    /// Fixed cost of one `ibv_reg_mr` call: the kernel transition, page
    /// pinning setup and HCA translation-table update. Pin-down-cache
    /// papers (Taranov et al.; MPICH2-over-IB) measure this in the tens
    /// of microseconds — the cost the mempool subsystem exists to avoid.
    pub(crate) mr_register_base: SimDuration,
    /// Incremental registration cost per 4 KiB page (get_user_pages +
    /// translation entry per page).
    pub(crate) mr_register_per_page: SimDuration,
    /// Fixed cost of one `ibv_dereg_mr` call (unpin + invalidate).
    pub(crate) mr_deregister_base: SimDuration,
    /// Incremental deregistration cost per 4 KiB page.
    pub(crate) mr_deregister_per_page: SimDuration,
}

impl HostModel {
    /// A model where everything is free — useful for unit tests that
    /// check protocol logic rather than timing.
    pub fn free() -> Self {
        HostModel {
            memcpy_bytes_per_sec: 0,
            memcpy_base: SimDuration::ZERO,
            post_overhead: SimDuration::ZERO,
            poll_overhead: SimDuration::ZERO,
            cqe_process: SimDuration::ZERO,
            event_wakeup: SimDuration::ZERO,
            wakeup_latency: SimDuration::ZERO,
            stall_prob: 0.0,
            stall_max: SimDuration::ZERO,
            busy_poll: false,
            jitter_frac: 0.0,
            mr_register_base: SimDuration::ZERO,
            mr_register_per_page: SimDuration::ZERO,
            mr_deregister_base: SimDuration::ZERO,
            mr_deregister_per_page: SimDuration::ZERO,
        }
    }

    /// Time to copy `bytes` through the CPU (zero-bandwidth models copy
    /// as free).
    pub(crate) fn memcpy_time(&self, bytes: u64) -> SimDuration {
        if bytes == 0 {
            return SimDuration::ZERO;
        }
        if self.memcpy_bytes_per_sec == 0 {
            return self.memcpy_base;
        }
        let ns = ((bytes as u128) * 1_000_000_000).div_ceil(self.memcpy_bytes_per_sec as u128);
        self.memcpy_base + SimDuration::from_nanos(ns.min(u64::MAX as u128) as u64)
    }

    /// Time to register a memory region of `bytes` bytes: the fixed
    /// syscall/pin setup plus a per-page pinning cost (regions are
    /// page-granular, so even a one-byte region pins one page).
    pub(crate) fn mr_register_time(&self, bytes: u64) -> SimDuration {
        let pages = bytes.div_ceil(4096).max(1);
        self.mr_register_base + self.mr_register_per_page.mul_u64(pages)
    }

    /// Time to deregister a memory region of `bytes` bytes.
    pub(crate) fn mr_deregister_time(&self, bytes: u64) -> SimDuration {
        let pages = bytes.div_ceil(4096).max(1);
        self.mr_deregister_base + self.mr_deregister_per_page.mul_u64(pages)
    }
}

/// One simulated core's schedule: work items are serialized, and busy
/// time is integrated for CPU-usage reporting.
#[derive(Clone, Debug)]
pub struct CpuMeter {
    /// The core is busy until this instant.
    free_at: SimTime,
    /// Total busy time ever charged.
    busy_total: SimDuration,
}

impl Default for CpuMeter {
    fn default() -> Self {
        Self::new()
    }
}

impl CpuMeter {
    /// A fresh, idle core.
    pub(crate) fn new() -> Self {
        CpuMeter {
            free_at: SimTime::ZERO,
            busy_total: SimDuration::ZERO,
        }
    }

    /// The instant the core becomes idle.
    pub(crate) fn free_at(&self) -> SimTime {
        self.free_at
    }

    /// Charges `work` starting no earlier than `now`, returning the
    /// completion instant. Work requested while the core is busy queues
    /// behind it (single-core model).
    pub(crate) fn charge(&mut self, now: SimTime, work: SimDuration) -> SimTime {
        let start = now.max(self.free_at);
        let end = start + work;
        self.free_at = end;
        self.busy_total += work;
        end
    }

    /// Total busy time ever charged.
    pub(crate) fn busy_total(&self) -> SimDuration {
        self.busy_total
    }

    /// CPU usage over the run so far, from time zero to `now`, as a
    /// fraction in `[0, 1]`: 0 at time zero.
    pub(crate) fn usage(&self, now: SimTime) -> f64 {
        if now == SimTime::ZERO {
            return 0.0;
        }
        (self.busy_total.as_secs_f64() / now.as_secs_f64()).min(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memcpy_time_scales() {
        let mut m = HostModel::free();
        m.memcpy_bytes_per_sec = 1_000_000_000; // 1 GB/s
        m.memcpy_base = SimDuration::from_nanos(100);
        assert_eq!(m.memcpy_time(1_000_000).as_nanos(), 1_000_100);
        assert!(m.memcpy_time(0).is_zero());
    }

    #[test]
    fn registration_time_is_page_granular() {
        let mut m = HostModel::free();
        m.mr_register_base = SimDuration::from_micros(30);
        m.mr_register_per_page = SimDuration::from_nanos(250);
        m.mr_deregister_base = SimDuration::from_micros(15);
        m.mr_deregister_per_page = SimDuration::from_nanos(100);
        // One byte still pins one page.
        assert_eq!(m.mr_register_time(1).as_nanos(), 30_000 + 250);
        // 64 KiB = 16 pages.
        assert_eq!(m.mr_register_time(64 << 10).as_nanos(), 30_000 + 16 * 250);
        assert_eq!(m.mr_deregister_time(64 << 10).as_nanos(), 15_000 + 16 * 100);
        // The free model charges nothing.
        assert!(HostModel::free().mr_register_time(1 << 20).is_zero());
    }

    #[test]
    fn memcpy_free_model() {
        let m = HostModel::free();
        assert!(m.memcpy_time(1 << 30).is_zero());
    }

    #[test]
    fn charge_serializes_work() {
        let mut cpu = CpuMeter::new();
        let t0 = SimTime::from_nanos(100);
        let end1 = cpu.charge(t0, SimDuration::from_nanos(50));
        assert_eq!(end1.as_nanos(), 150);
        // Requested "in the past" relative to core availability: queues.
        let end2 = cpu.charge(SimTime::from_nanos(120), SimDuration::from_nanos(30));
        assert_eq!(end2.as_nanos(), 180);
        // Requested after the core idles: starts immediately.
        let end3 = cpu.charge(SimTime::from_nanos(500), SimDuration::from_nanos(10));
        assert_eq!(end3.as_nanos(), 510);
        assert_eq!(cpu.busy_total().as_nanos(), 90);
    }

    #[test]
    fn usage_window() {
        let mut cpu = CpuMeter::new();
        cpu.charge(SimTime::ZERO, SimDuration::from_nanos(300));
        // 300 busy out of 1000 elapsed.
        let u = cpu.usage(SimTime::from_nanos(1000));
        assert!((u - 0.3).abs() < 1e-9);
    }

    #[test]
    fn usage_clamps_to_one() {
        let mut cpu = CpuMeter::new();
        // Charge more work than wall time elapsed (backlogged core).
        cpu.charge(SimTime::ZERO, SimDuration::from_nanos(5_000));
        assert_eq!(cpu.usage(SimTime::from_nanos(1_000)), 1.0);
    }

    #[test]
    fn usage_empty_window_is_zero() {
        let cpu = CpuMeter::new();
        assert_eq!(cpu.usage(SimTime::ZERO), 0.0);
    }
}
