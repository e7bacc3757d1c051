//! Per-connection statistics.
//!
//! UNH EXS "keeps statistics on the number of indirect vs. direct
//! transfers" (paper §IV-B); Table III additionally reports the number
//! of times the dynamic protocol switched modes. [`ConnStats`] collects
//! those counters plus enough bookkeeping to debug the control plane.
//!
//! Every struct here is one [`simnet::stats!`] table, in which a counter
//! appears once: its doc, its merge rule (`sum`, `max`, sticky `or`, or
//! `val` for a row that never merges), its name and type. The struct,
//! `merge`, the ratio accessors and the schema
//! ([`simnet::stats::Stats::FIELDS`]) are derived from the table, so
//! adding a counter is one line — `sum polls_skipped: u64,` under its
//! doc comment — and the merge-law test below covers it unedited. A
//! ratio over a zero denominator reads `0.0`.

simnet::stats! {
    /// Counters for one connection endpoint.
    #[derive(Clone, Debug, Default)]
    pub struct ConnStats: Merge {
        /// WWI transfers sent into advertised user memory.
        sum direct_transfers: u64,
        /// WWI transfers sent into the intermediate buffer.
        sum indirect_transfers: u64,
        /// Bytes moved by direct transfers.
        sum direct_bytes: u64,
        /// Bytes moved by indirect transfers.
        sum indirect_bytes: u64,
        /// Sender phase parity changes (direct ↔ indirect), Table III's
        /// "Mode Switch Count".
        sum mode_switches: u64,
        /// ADVERTs emitted by this side's receiver half.
        sum adverts_sent: u64,
        /// ADVERTs received by this side's sender half.
        sum adverts_received: u64,
        /// Stale ADVERTs discarded by the sender matching algorithm.
        sum adverts_discarded: u64,
        /// Times the adaptive re-entry policy paused a ready send to wait
        /// for a resync ADVERT instead of going indirect
        /// ([`crate::config::DirectPolicy`]).
        sum resyncs_attempted: u64,
        /// Resync pauses that ended with a usable ADVERT accepted — the
        /// sender re-entered a direct phase instead of paying the memcpy.
        /// `resyncs_attempted - resyncs_completed` waits were abandoned
        /// (ring drained with no ADVERT) and fell back to indirect.
        sum resyncs_completed: u64,
        /// Largest number of advertised-and-unconsumed receives outstanding
        /// at this side's receiver half, sampled after every ADVERT burst —
        /// the depth of the pre-posted advert queue that keeps the Fig. 3
        /// gate open.
        max advert_queue_peak: u64,
        /// Sum of the advert-queue depth samples (see `advert_queue_peak`);
        /// divide by `advert_queue_samples` for the mean depth.
        sum advert_queue_sum: u64,
        /// Number of advert-queue depth samples taken.
        sum advert_queue_samples: u64,
        /// Mean advert-queue depth across samples.
        ratio advert_queue_mean = advert_queue_sum / advert_queue_samples,
        /// ACK messages emitted.
        sum acks_sent: u64,
        /// ACK messages received.
        sum acks_received: u64,
        /// Standalone CREDIT messages emitted.
        sum credits_sent: u64,
        /// Bytes copied out of the intermediate buffer to user memory.
        sum bytes_copied_out: u64,
        /// User `exs_send` operations completed.
        sum sends_completed: u64,
        /// User `exs_recv` operations completed.
        sum recvs_completed: u64,
        /// User payload bytes fully sent (all WWIs completed).
        sum bytes_sent: u64,
        /// User payload bytes delivered to completed receives.
        sum bytes_received: u64,
        /// Doorbells rung: `post_send`/`post_send_list` calls issued by the
        /// transmit pipeline.
        sum doorbells: u64,
        /// Send WQEs posted across all doorbells.
        sum wqes_posted: u64,
        /// Largest postlist flushed with a single doorbell.
        max max_wqes_per_doorbell: u64,
        /// Data WQEs posted signaled (every `signal_interval`-th, plus
        /// forced signals at SQ-near-full and flush boundaries).
        sum signaled_wqes: u64,
        /// WQEs posted unsignaled; their SQ slots are reclaimed in a batch
        /// by the next signaled completion.
        sum unsignaled_wqes: u64,
        /// User messages coalesced into a shared staged WWI (counts every
        /// message in a coalesced run of two or more).
        sum coalesced_msgs: u64,
        /// User payload bytes carried by coalesced runs.
        sum coalesced_bytes: u64,
        /// A CQ serving this endpoint dropped a completion (sticky; fatal
        /// in real verbs).
        or cq_overflowed: bool,
        /// Largest CQE batch a single poll returned on this endpoint's CQs.
        max cq_max_batch: u64,
        /// Polls of this endpoint's CQs that returned at least one CQE.
        sum cq_nonempty_polls: u64,
        /// Times this connection's fabric flow re-sped (fair-share model:
        /// another flow on a shared link arrived or left mid-transfer).
        /// Annotated post-run from the fabric's per-flow telemetry; 0 on
        /// the FIFO model and on the thread backend. Merging sums — each
        /// connection is annotated from its own flow's telemetry, so the
        /// aggregate is the total re-speed count across flows. (Earlier
        /// versions max-merged and under-reported fan-in totals.)
        sum fabric_respeeds: u64,
        /// Sum of per-flow achieved payload rates (Mbit/s) recorded via
        /// [`ConnStats::record_fabric_flow`]; divide by
        /// `fabric_flow_samples` for the mean flow rate.
        sum fabric_flow_mbps_sum: f64,
        /// Mean fabric-flow achieved rate across samples.
        ratio fabric_flow_mbps_mean = fabric_flow_mbps_sum / fabric_flow_samples,
        /// Fastest single fabric flow observed (Mbit/s) — the old
        /// max-merge semantics, kept as an explicit gauge.
        max fabric_flow_mbps_max: f64,
        /// Number of fabric-flow rate samples recorded.
        sum fabric_flow_samples: u64,
        /// Largest number of multiplexed streams concurrently live on this
        /// endpoint's shared transports (0 for plain QP-per-stream
        /// sockets). Merging takes the max.
        max mux_streams_peak: u64,
        /// Arrivals carrying an unknown or already-closed stream id on a
        /// shared transport — the typed-error demux path. Merging sums.
        sum mux_demux_errors: u64,
        /// Protocol violations driven by peer input (malformed control
        /// messages, sequence regressions, overfilled rings) that broke the
        /// connection instead of aborting the process. Merging sums.
        sum protocol_errors: u64,
        /// Mean WQEs per doorbell — the postlist amortization factor (1.0
        /// means every WQE paid its own doorbell).
        ratio mean_wqes_per_doorbell = wqes_posted / doorbells,
        /// Fraction of posted WQEs that completed unsignaled (CQEs saved).
        ratio unsignaled_ratio = unsignaled_wqes / signaled_wqes + unsignaled_wqes,
        /// Ratio of direct transfers to total transfers (Table III, Fig. 11b,
        /// Fig. 12b).
        ratio direct_ratio = direct_transfers / direct_transfers + indirect_transfers,
        /// Ratio of direct bytes to total bytes.
        ratio direct_byte_ratio = direct_bytes / direct_bytes + indirect_bytes,
    }
}

impl ConnStats {
    /// Total data transfers (direct + indirect).
    pub fn total_transfers(&self) -> u64 {
        self.direct_transfers + self.indirect_transfers
    }

    /// Records one advert-queue depth observation (receiver side, after
    /// an ADVERT burst).
    pub(crate) fn sample_advert_queue(&mut self, depth: u64) {
        self.advert_queue_peak = self.advert_queue_peak.max(depth);
        self.advert_queue_sum += depth;
        self.advert_queue_samples += 1;
    }

    /// Records one fabric-flow achieved-rate observation (annotated
    /// post-run from the fabric's per-flow telemetry).
    pub fn record_fabric_flow(&mut self, mbps: f64) {
        self.fabric_flow_mbps_sum += mbps;
        self.fabric_flow_samples += 1;
        if mbps > self.fabric_flow_mbps_max {
            self.fabric_flow_mbps_max = mbps;
        }
    }
}

simnet::stats! {
    /// Aggregate counters for one [`crate::reactor::Reactor`], layered on
    /// top of the per-connection [`ConnStats`]: where `ConnStats` describes
    /// one stream's protocol behaviour, `ReactorStats` describes how the
    /// event loop multiplexed all of them — batch sizes, fairness
    /// deferrals, readiness reports.
    #[derive(Clone, Debug, Default)]
    pub struct ReactorStats: Merge {
        /// Connections ever added (accepted) to the reactor.
        sum conns_added: u64,
        /// Connections removed.
        sum conns_removed: u64,
        /// Calls to `Reactor::poll`.
        sum polls: u64,
        /// CQ drain batches that returned at least one completion.
        sum cq_batches: u64,
        /// Completions dispatched to owning connections, total.
        sum cqes_dispatched: u64,
        /// Largest single CQ drain batch.
        max max_cq_batch: u64,
        /// Times a connection hit its per-poll budget with completions
        /// still queued (fairness deferral; the leftovers are serviced in a
        /// later round).
        sum deferrals: u64,
        /// Completions that arrived for a QP no longer in the reactor
        /// (connection removed with completions in flight); dropped.
        sum orphan_cqes: u64,
        /// `(conn, readiness)` entries reported to the caller, total.
        sum readiness_reports: u64,
        /// Hosted slots whose state `Reactor::poll_into`,
        /// `Reactor::has_backlog` or `Reactor::has_unsent` looked at, total
        /// (a predicate's share is added by the poll that follows it). Per
        /// poll this follows the endpoints that had work or were ready,
        /// not the number hosted.
        sum slots_visited: u64,
        /// Mean completions per non-empty CQ drain batch.
        ratio mean_batch = cqes_dispatched / cq_batches,
    }
}

simnet::stats! {
    /// Telemetry for one shard of a sharded server: a row of
    /// [`crate::shard::Placement`] beside its reactor's counters, on
    /// either backend. A fan-in report keeps one row per shard, so
    /// [`crate::shard::ShardBalance`] (the shard table in
    /// `blast::figures`, the benchmark's imbalance) reads imbalance from
    /// the rows instead of an average.
    #[derive(Clone, Debug, Default)]
    pub struct ShardStats {
        /// Which shard this is (0-based, stable for the server's lifetime).
        val shard_id: u32,
        /// Connections hosted on the shard when the row was taken.
        val conns: u64,
        /// Connections the rotation ever routed here.
        val assigned: u64,
        /// `Reactor::poll` calls executed by this shard.
        val polls: u64,
        /// Completions this shard's reactor dispatched.
        val cqes_dispatched: u64,
    }
}

impl ReactorStats {
    /// Endpoints hosted right now.
    pub fn live_conns(&self) -> u64 {
        self.conns_added - self.conns_removed
    }
}

impl ShardStats {
    /// A shard's row from its reactor's counters and its placement
    /// count.
    pub(crate) fn new(shard_id: u32, reactor: &ReactorStats, assigned: u64) -> ShardStats {
        ShardStats {
            shard_id,
            conns: reactor.live_conns(),
            assigned,
            polls: reactor.polls,
            cqes_dispatched: reactor.cqes_dispatched,
        }
    }
}

simnet::stats! {
    /// Counters for one [`crate::mempool::MemPool`]: the pin-down cache's
    /// effectiveness (hit rate), its churn (registrations, evictions) and
    /// its current footprint (pinned/leased/free bytes).
    #[derive(Clone, Debug, Default)]
    pub struct PoolStats: Merge {
        /// Acquires satisfied from the free lists (no verbs call).
        sum hits: u64,
        /// Acquires that had to register a fresh region.
        sum misses: u64,
        /// Idle regions deregistered to get back under the pinned budget.
        sum evictions: u64,
        /// Total `register_mr` calls the pool issued.
        sum registrations: u64,
        /// Total `deregister_mr` calls the pool issued (evictions + trims).
        sum deregistrations: u64,
        /// Bytes currently registered through the pool (leased + free).
        sum pinned_bytes: u64,
        /// High-water mark of `pinned_bytes`.
        sum pinned_peak: u64,
        /// Bytes currently handed out in live leases.
        sum leased_bytes: u64,
        /// Bytes sitting idle in the free lists.
        sum free_bytes: u64,
        /// Fraction of acquires served from the cache.
        ratio hit_rate = hits / hits + misses,
    }
}

simnet::stats! {
    /// Counters for one [`crate::aio::Executor`]: task lifecycle, wake-up
    /// efficiency (polls per wake, spurious-wake ratio) and cancellation
    /// outcomes. A fan-in report carries them beside
    /// [`ConnStats`] / [`ReactorStats`]; the async-task table in
    /// `blast::figures` and the benchmark read the wake-up figures.
    #[derive(Clone, Debug, Default, PartialEq, Eq)]
    pub struct AioStats: Merge {
        /// Tasks handed to `spawn`.
        sum tasks_spawned: u64,
        /// Tasks polled to completion.
        sum tasks_completed: u64,
        /// `Waker::wake` calls observed (readiness dispatch, buffered-byte
        /// arrivals, wakers fired on other threads).
        sum wakeups: u64,
        /// Task polls executed by the executor.
        sum polls: u64,
        /// Leaf-future polls that found their condition still unmet after
        /// a wake — the re-poll was wasted work.
        sum spurious_polls: u64,
        /// Cancellations that unwound cleanly: the operation had not
        /// committed any bytes to the wire.
        sum cancels_clean: u64,
        /// Cancellations that caught a send mid-flight and poisoned the
        /// stream's sending direction.
        sum cancels_poisoned: u64,
        /// Executor turns (reactor pump + task batch cycles).
        sum turns: u64,
        /// Mean task polls per wake-up.
        ratio polls_per_wake = polls / wakeups,
        /// Fraction of task polls that were spurious.
        ratio spurious_wake_ratio = spurious_polls / polls,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::stats::{check, Stats};

    // The populated values end in `..default()` although they name every
    // field today: a counter declared tomorrow must not need an edit here.

    #[allow(clippy::needless_update)]
    fn conn() -> ConnStats {
        ConnStats {
            direct_transfers: 3,
            indirect_transfers: 1,
            direct_bytes: 3000,
            indirect_bytes: 1000,
            mode_switches: 2,
            adverts_sent: 5,
            adverts_received: 6,
            adverts_discarded: 7,
            resyncs_attempted: 4,
            resyncs_completed: 3,
            advert_queue_peak: 5,
            advert_queue_sum: 8,
            advert_queue_samples: 3,
            acks_sent: 9,
            acks_received: 10,
            credits_sent: 11,
            bytes_copied_out: 1000,
            sends_completed: 12,
            recvs_completed: 13,
            bytes_sent: 4000,
            bytes_received: 4001,
            doorbells: 4,
            wqes_posted: 12,
            max_wqes_per_doorbell: 6,
            signaled_wqes: 3,
            unsignaled_wqes: 9,
            coalesced_msgs: 5,
            coalesced_bytes: 640,
            cq_overflowed: true,
            cq_max_batch: 7,
            cq_nonempty_polls: 11,
            fabric_respeeds: 3,
            fabric_flow_mbps_sum: 5100.5,
            fabric_flow_mbps_max: 5000.5,
            fabric_flow_samples: 2,
            mux_streams_peak: 100,
            mux_demux_errors: 2,
            protocol_errors: 1,
            ..ConnStats::default()
        }
    }

    #[allow(clippy::needless_update)]
    fn reactor() -> ReactorStats {
        ReactorStats {
            conns_added: 4,
            conns_removed: 1,
            polls: 100,
            cq_batches: 10,
            cqes_dispatched: 55,
            max_cq_batch: 12,
            deferrals: 1,
            orphan_cqes: 2,
            readiness_reports: 40,
            slots_visited: 77,
            ..ReactorStats::default()
        }
    }

    #[allow(clippy::needless_update)]
    fn pool() -> PoolStats {
        PoolStats {
            hits: 3,
            misses: 1,
            evictions: 2,
            registrations: 5,
            deregistrations: 4,
            pinned_bytes: 4096,
            pinned_peak: 8192,
            leased_bytes: 1024,
            free_bytes: 3072,
            ..PoolStats::default()
        }
    }

    #[allow(clippy::needless_update)]
    fn aio() -> AioStats {
        AioStats {
            tasks_spawned: 4,
            tasks_completed: 3,
            wakeups: 10,
            polls: 15,
            spurious_polls: 3,
            cancels_clean: 1,
            cancels_poisoned: 6,
            turns: 20,
            ..AioStats::default()
        }
    }

    /// `merge` is what the declaration says, for every field there
    /// is or will be: sums add, peaks take the max, flags stick, the
    /// order of merging does not matter and `default()` changes nothing.
    #[test]
    fn merge_follows_each_declaration() {
        for seed in 0..16 {
            check::merge_follows_declaration::<ConnStats>(seed);
            check::merge_follows_declaration::<ReactorStats>(seed);
            check::merge_follows_declaration::<PoolStats>(seed);
            check::merge_follows_declaration::<AioStats>(seed);
        }
        // The rules that are not `sum`, by name.
        let rule = |name| {
            let field = ConnStats::FIELDS.iter().find(|f| f.name == name);
            field.expect("declared").rule
        };
        use simnet::stats::Rule::{Max, Or, Sum};
        for peak in [
            "advert_queue_peak",
            "max_wqes_per_doorbell",
            "cq_max_batch",
            "fabric_flow_mbps_max",
            "mux_streams_peak",
        ] {
            assert_eq!(rule(peak), Max, "{peak}");
        }
        assert_eq!(rule("cq_overflowed"), Or);
        assert_eq!(rule("fabric_respeeds"), Sum, "re-speed totals must sum");
        assert!(ReactorStats::FIELDS
            .iter()
            .all(|f| (f.rule == Max) == (f.name == "max_cq_batch")));
    }

    /// Callers (the benchmark among them) read ratios as plain numbers:
    /// an undefined one reads 0 — on an empty value, and on a receiving
    /// endpoint that never posted a send (no transfer split, no
    /// doorbell amortisation, no signalling ratio, no advert sample).
    #[test]
    fn ratio_accessors_read_zero_when_undefined() {
        let rx = ConnStats {
            adverts_sent: 8,
            recvs_completed: 8,
            bytes_received: 1 << 20,
            ..ConnStats::default()
        };
        for c in [ConnStats::default(), rx] {
            assert_eq!(c.direct_ratio(), 0.0);
            assert_eq!(c.direct_byte_ratio(), 0.0);
            assert_eq!(c.mean_wqes_per_doorbell(), 0.0);
            assert_eq!(c.unsignaled_ratio(), 0.0);
            assert_eq!(c.advert_queue_mean(), 0.0);
            assert_eq!(c.fabric_flow_mbps_mean(), 0.0);
        }
        assert_eq!(ReactorStats::default().mean_batch(), 0.0);
        assert_eq!(PoolStats::default().hit_rate(), 0.0);
        assert_eq!(AioStats::default().polls_per_wake(), 0.0);
        assert_eq!(AioStats::default().spurious_wake_ratio(), 0.0);

        let c = conn();
        assert_eq!(c.total_transfers(), 4);
        assert!((c.direct_ratio() - 0.75).abs() < 1e-12);
        assert!((c.direct_byte_ratio() - 0.75).abs() < 1e-12);
        assert!((c.mean_wqes_per_doorbell() - 3.0).abs() < 1e-12);
        assert!((c.unsignaled_ratio() - 0.75).abs() < 1e-12);
        assert!((c.advert_queue_mean() - 8.0 / 3.0).abs() < 1e-12);
        assert!((c.fabric_flow_mbps_mean() - 2550.25).abs() < 1e-9);
        assert!((reactor().mean_batch() - 5.5).abs() < 1e-12);
        assert!((pool().hit_rate() - 0.75).abs() < 1e-12);
        assert!((aio().polls_per_wake() - 1.5).abs() < 1e-12);
        assert!((aio().spurious_wake_ratio() - 0.2).abs() < 1e-12);
    }

    /// The mean advert-queue depth reads 0 until a depth is sampled.
    #[test]
    fn advert_queue_samples_feed_peak_and_mean() {
        let mut s = ConnStats::default();
        assert_eq!((s.advert_queue_peak, s.advert_queue_mean()), (0, 0.0));
        s.sample_advert_queue(3);
        s.sample_advert_queue(5);
        assert_eq!(s.advert_queue_peak, 5);
        assert_eq!(s.advert_queue_samples, 2);
        assert!((s.advert_queue_mean() - 4.0).abs() < 1e-12);
    }

    /// Fabric-flow rates exist only once a flow was recorded (the
    /// fair-share model, post-run): without a sample the mean and the
    /// max gauge read 0, whatever the re-speed count.
    #[test]
    fn fabric_flow_rates_read_zero_until_sampled() {
        let mut s = ConnStats {
            fabric_respeeds: 3,
            ..ConnStats::default()
        };
        assert_eq!(
            (s.fabric_flow_mbps_mean(), s.fabric_flow_mbps_max),
            (0.0, 0.0)
        );

        s.record_fabric_flow(5000.5);
        s.record_fabric_flow(100.0);
        assert_eq!(s.fabric_flow_samples, 2);
        assert!((s.fabric_flow_mbps_mean() - 2550.25).abs() < 1e-9);
        assert_eq!(s.fabric_flow_mbps_max, 5000.5);
    }

    /// A shard's row is its reactor's counters beside its placement
    /// count.
    #[test]
    fn a_shard_row_is_its_reactors_counters_beside_its_placement() {
        let row = ShardStats::new(2, &reactor(), 4);
        assert_eq!((row.shard_id, row.conns, row.assigned), (2, 3, 4));
        assert_eq!((row.polls, row.cqes_dispatched), (100, 55));
    }
}
