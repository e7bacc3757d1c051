//! Per-connection statistics.
//!
//! UNH EXS "keeps statistics on the number of indirect vs. direct
//! transfers" (paper §IV-B); Table III additionally reports the number
//! of times the dynamic protocol switched modes. [`ConnStats`] collects
//! those counters plus enough bookkeeping to debug the control plane.

/// Counters for one connection endpoint.
#[derive(Clone, Debug, Default)]
pub struct ConnStats {
    /// WWI transfers sent into advertised user memory.
    pub direct_transfers: u64,
    /// WWI transfers sent into the intermediate buffer.
    pub indirect_transfers: u64,
    /// Bytes moved by direct transfers.
    pub direct_bytes: u64,
    /// Bytes moved by indirect transfers.
    pub indirect_bytes: u64,
    /// Sender phase parity changes (direct ↔ indirect), Table III's
    /// "Mode Switch Count".
    pub mode_switches: u64,
    /// ADVERTs emitted by this side's receiver half.
    pub adverts_sent: u64,
    /// ADVERTs received by this side's sender half.
    pub adverts_received: u64,
    /// Stale ADVERTs discarded by the sender matching algorithm.
    pub adverts_discarded: u64,
    /// Times the adaptive re-entry policy paused a ready send to wait
    /// for a resync ADVERT instead of going indirect
    /// ([`crate::config::DirectPolicy`]).
    pub resyncs_attempted: u64,
    /// Resync pauses that ended with a usable ADVERT accepted — the
    /// sender re-entered a direct phase instead of paying the memcpy.
    /// `resyncs_attempted - resyncs_completed` waits were abandoned
    /// (ring drained with no ADVERT) and fell back to indirect.
    pub resyncs_completed: u64,
    /// Largest number of advertised-and-unconsumed receives outstanding
    /// at this side's receiver half, sampled after every ADVERT burst —
    /// the depth of the pre-posted advert queue that keeps the Fig. 3
    /// gate open.
    pub advert_queue_peak: u64,
    /// Sum of the advert-queue depth samples (see `advert_queue_peak`);
    /// divide by `advert_queue_samples` for the mean depth.
    pub advert_queue_sum: u64,
    /// Number of advert-queue depth samples taken.
    pub advert_queue_samples: u64,
    /// ACK messages emitted.
    pub acks_sent: u64,
    /// ACK messages received.
    pub acks_received: u64,
    /// Standalone CREDIT messages emitted.
    pub credits_sent: u64,
    /// Bytes copied out of the intermediate buffer to user memory.
    pub bytes_copied_out: u64,
    /// User `exs_send` operations completed.
    pub sends_completed: u64,
    /// User `exs_recv` operations completed.
    pub recvs_completed: u64,
    /// User payload bytes fully sent (all WWIs completed).
    pub bytes_sent: u64,
    /// User payload bytes delivered to completed receives.
    pub bytes_received: u64,
    /// Doorbells rung: `post_send`/`post_send_list` calls issued by the
    /// transmit pipeline.
    pub doorbells: u64,
    /// Send WQEs posted across all doorbells.
    pub wqes_posted: u64,
    /// Largest postlist flushed with a single doorbell.
    pub max_wqes_per_doorbell: u64,
    /// Data WQEs posted signaled (every `signal_interval`-th, plus
    /// forced signals at SQ-near-full and flush boundaries).
    pub signaled_wqes: u64,
    /// WQEs posted unsignaled; their SQ slots are reclaimed in a batch
    /// by the next signaled completion.
    pub unsignaled_wqes: u64,
    /// User messages coalesced into a shared staged WWI (counts every
    /// message in a coalesced run of two or more).
    pub coalesced_msgs: u64,
    /// User payload bytes carried by coalesced runs.
    pub coalesced_bytes: u64,
    /// A CQ serving this endpoint dropped a completion (sticky; fatal
    /// in real verbs).
    pub cq_overflowed: bool,
    /// Largest CQE batch a single poll returned on this endpoint's CQs.
    pub cq_max_batch: u64,
    /// Polls of this endpoint's CQs that returned at least one CQE.
    pub cq_nonempty_polls: u64,
    /// Times this connection's fabric flow re-sped (fair-share model:
    /// another flow on a shared link arrived or left mid-transfer).
    /// Annotated post-run from the fabric's per-flow telemetry; 0 on
    /// the FIFO model and on the thread backend. Merging sums — each
    /// connection is annotated from its own flow's telemetry, so the
    /// aggregate is the total re-speed count across flows. (Earlier
    /// versions max-merged and under-reported fan-in totals.)
    pub fabric_respeeds: u64,
    /// Sum of per-flow achieved payload rates (Mbit/s) recorded via
    /// [`ConnStats::record_fabric_flow`]; divide by
    /// `fabric_flow_samples` for the mean flow rate.
    pub fabric_flow_mbps_sum: f64,
    /// Number of fabric-flow rate samples recorded.
    pub fabric_flow_samples: u64,
    /// Fastest single fabric flow observed (Mbit/s) — the old
    /// max-merge semantics, kept as an explicit gauge.
    pub fabric_flow_mbps_max: f64,
    /// Largest number of multiplexed streams concurrently live on this
    /// endpoint's shared transports (0 for plain QP-per-stream
    /// sockets). Merging takes the max.
    pub mux_streams_peak: u64,
    /// Arrivals carrying an unknown or already-closed stream id on a
    /// shared transport — the typed-error demux path. Merging sums.
    pub mux_demux_errors: u64,
    /// Protocol violations driven by peer input (malformed control
    /// messages, sequence regressions, overfilled rings) that broke the
    /// connection instead of aborting the process. Merging sums.
    pub protocol_errors: u64,
}

impl ConnStats {
    /// Total data transfers (direct + indirect).
    pub fn total_transfers(&self) -> u64 {
        self.direct_transfers + self.indirect_transfers
    }

    /// Ratio of direct transfers to total transfers (Table III, Fig. 11b,
    /// Fig. 12b). Returns 0 when nothing was transferred.
    pub fn direct_ratio(&self) -> f64 {
        let total = self.total_transfers();
        if total == 0 {
            0.0
        } else {
            self.direct_transfers as f64 / total as f64
        }
    }

    /// Ratio of direct bytes to total bytes.
    pub fn direct_byte_ratio(&self) -> f64 {
        let total = self.direct_bytes + self.indirect_bytes;
        if total == 0 {
            0.0
        } else {
            self.direct_bytes as f64 / total as f64
        }
    }

    /// Mean WQEs per doorbell — the postlist amortization factor (1.0
    /// means every WQE paid its own doorbell).
    pub fn mean_wqes_per_doorbell(&self) -> f64 {
        if self.doorbells == 0 {
            0.0
        } else {
            self.wqes_posted as f64 / self.doorbells as f64
        }
    }

    /// Mean advert-queue depth across samples (0 when never sampled).
    pub fn advert_queue_mean(&self) -> f64 {
        if self.advert_queue_samples == 0 {
            0.0
        } else {
            self.advert_queue_sum as f64 / self.advert_queue_samples as f64
        }
    }

    /// Records one advert-queue depth observation (receiver side, after
    /// an ADVERT burst).
    pub fn sample_advert_queue(&mut self, depth: u64) {
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

    /// Mean fabric-flow achieved rate across samples (0 when never
    /// sampled).
    pub fn fabric_flow_mbps_mean(&self) -> f64 {
        if self.fabric_flow_samples == 0 {
            0.0
        } else {
            self.fabric_flow_mbps_sum / self.fabric_flow_samples as f64
        }
    }

    /// Fraction of posted WQEs that completed unsignaled (CQEs saved).
    pub fn unsignaled_ratio(&self) -> f64 {
        let total = self.signaled_wqes + self.unsignaled_wqes;
        if total == 0 {
            0.0
        } else {
            self.unsignaled_wqes as f64 / total as f64
        }
    }

    /// Adds another endpoint's counters into this one (fan-in
    /// aggregation across a reactor's connections).
    pub fn merge(&mut self, other: &ConnStats) {
        self.direct_transfers += other.direct_transfers;
        self.indirect_transfers += other.indirect_transfers;
        self.direct_bytes += other.direct_bytes;
        self.indirect_bytes += other.indirect_bytes;
        self.mode_switches += other.mode_switches;
        self.adverts_sent += other.adverts_sent;
        self.adverts_received += other.adverts_received;
        self.adverts_discarded += other.adverts_discarded;
        self.resyncs_attempted += other.resyncs_attempted;
        self.resyncs_completed += other.resyncs_completed;
        self.advert_queue_peak = self.advert_queue_peak.max(other.advert_queue_peak);
        self.advert_queue_sum += other.advert_queue_sum;
        self.advert_queue_samples += other.advert_queue_samples;
        self.acks_sent += other.acks_sent;
        self.acks_received += other.acks_received;
        self.credits_sent += other.credits_sent;
        self.bytes_copied_out += other.bytes_copied_out;
        self.sends_completed += other.sends_completed;
        self.recvs_completed += other.recvs_completed;
        self.bytes_sent += other.bytes_sent;
        self.bytes_received += other.bytes_received;
        self.doorbells += other.doorbells;
        self.wqes_posted += other.wqes_posted;
        self.max_wqes_per_doorbell = self.max_wqes_per_doorbell.max(other.max_wqes_per_doorbell);
        self.signaled_wqes += other.signaled_wqes;
        self.unsignaled_wqes += other.unsignaled_wqes;
        self.coalesced_msgs += other.coalesced_msgs;
        self.coalesced_bytes += other.coalesced_bytes;
        self.cq_overflowed |= other.cq_overflowed;
        self.cq_max_batch = self.cq_max_batch.max(other.cq_max_batch);
        self.cq_nonempty_polls += other.cq_nonempty_polls;
        self.fabric_respeeds += other.fabric_respeeds;
        self.fabric_flow_mbps_sum += other.fabric_flow_mbps_sum;
        self.fabric_flow_samples += other.fabric_flow_samples;
        self.fabric_flow_mbps_max = self.fabric_flow_mbps_max.max(other.fabric_flow_mbps_max);
        self.mux_streams_peak = self.mux_streams_peak.max(other.mux_streams_peak);
        self.mux_demux_errors += other.mux_demux_errors;
        self.protocol_errors += other.protocol_errors;
    }

    /// Serializes the counters (plus derived ratios) as a JSON object.
    /// Hand-rolled on purpose: the counter snapshots written into
    /// `bench-results/` must not pull a serialization dependency into
    /// the protocol crate.
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"direct_transfers\":{},\"indirect_transfers\":{},",
                "\"direct_bytes\":{},\"indirect_bytes\":{},",
                "\"mode_switches\":{},\"adverts_sent\":{},",
                "\"adverts_received\":{},\"adverts_discarded\":{},",
                "\"resyncs_attempted\":{},\"resyncs_completed\":{},",
                "\"advert_queue_peak\":{},\"advert_queue_mean\":{:.6},",
                "\"acks_sent\":{},\"acks_received\":{},\"credits_sent\":{},",
                "\"bytes_copied_out\":{},\"sends_completed\":{},",
                "\"recvs_completed\":{},\"bytes_sent\":{},",
                "\"bytes_received\":{},\"doorbells\":{},",
                "\"wqes_posted\":{},\"max_wqes_per_doorbell\":{},",
                "\"signaled_wqes\":{},\"unsignaled_wqes\":{},",
                "\"coalesced_msgs\":{},\"coalesced_bytes\":{},",
                "\"cq_overflowed\":{},\"cq_max_batch\":{},",
                "\"cq_nonempty_polls\":{},",
                "\"fabric_respeeds\":{},\"fabric_flow_mbps_mean\":{:.3},",
                "\"fabric_flow_mbps_max\":{:.3},",
                "\"fabric_flow_samples\":{},",
                "\"mux_streams_peak\":{},\"mux_demux_errors\":{},",
                "\"protocol_errors\":{},",
                "\"mean_wqes_per_doorbell\":{:.6},",
                "\"unsignaled_ratio\":{:.6},\"direct_ratio\":{:.6},",
                "\"direct_byte_ratio\":{:.6}}}"
            ),
            self.direct_transfers,
            self.indirect_transfers,
            self.direct_bytes,
            self.indirect_bytes,
            self.mode_switches,
            self.adverts_sent,
            self.adverts_received,
            self.adverts_discarded,
            self.resyncs_attempted,
            self.resyncs_completed,
            self.advert_queue_peak,
            self.advert_queue_mean(),
            self.acks_sent,
            self.acks_received,
            self.credits_sent,
            self.bytes_copied_out,
            self.sends_completed,
            self.recvs_completed,
            self.bytes_sent,
            self.bytes_received,
            self.doorbells,
            self.wqes_posted,
            self.max_wqes_per_doorbell,
            self.signaled_wqes,
            self.unsignaled_wqes,
            self.coalesced_msgs,
            self.coalesced_bytes,
            self.cq_overflowed,
            self.cq_max_batch,
            self.cq_nonempty_polls,
            self.fabric_respeeds,
            self.fabric_flow_mbps_mean(),
            self.fabric_flow_mbps_max,
            self.fabric_flow_samples,
            self.mux_streams_peak,
            self.mux_demux_errors,
            self.protocol_errors,
            self.mean_wqes_per_doorbell(),
            self.unsignaled_ratio(),
            self.direct_ratio(),
            self.direct_byte_ratio(),
        )
    }
}

/// Aggregate counters for one [`crate::reactor::Reactor`], layered on
/// top of the per-connection [`ConnStats`]: where `ConnStats` describes
/// one stream's protocol behaviour, `ReactorStats` describes how the
/// event loop multiplexed all of them — batch sizes, fairness
/// deferrals, readiness reports.
#[derive(Clone, Debug, Default)]
pub struct ReactorStats {
    /// Connections ever added (accepted) to the reactor.
    pub conns_added: u64,
    /// Connections removed.
    pub conns_removed: u64,
    /// Calls to `Reactor::poll`.
    pub polls: u64,
    /// CQ drain batches that returned at least one completion.
    pub cq_batches: u64,
    /// Completions dispatched to owning connections, total.
    pub cqes_dispatched: u64,
    /// Largest single CQ drain batch.
    pub max_cq_batch: u64,
    /// Times a connection hit its per-poll budget with completions
    /// still queued (fairness deferral; the leftovers are serviced in a
    /// later round).
    pub deferrals: u64,
    /// Completions that arrived for a QP no longer in the reactor
    /// (connection removed with completions in flight); dropped.
    pub orphan_cqes: u64,
    /// `(conn, readiness)` entries reported to the caller, total.
    pub readiness_reports: u64,
    /// Hosted slots whose state `Reactor::poll_into`,
    /// `Reactor::has_backlog` or `Reactor::has_unsent` looked at, total
    /// (a predicate's share is added by the poll that follows it). Per
    /// poll this follows the endpoints that had work or were ready,
    /// not the number hosted.
    pub slots_visited: u64,
}

impl ReactorStats {
    /// Mean completions per non-empty CQ drain batch.
    pub fn mean_batch(&self) -> f64 {
        if self.cq_batches == 0 {
            0.0
        } else {
            self.cqes_dispatched as f64 / self.cq_batches as f64
        }
    }

    /// Adds another reactor's counters into this one (per-shard
    /// reactors aggregated for a pool-wide view). Counters sum;
    /// `max_cq_batch` — a peak, not a count — takes the max, the same
    /// sum-vs-max discipline `ConnStats::merge` settled on after the
    /// fabric-stats under-count.
    pub fn merge(&mut self, other: &ReactorStats) {
        self.conns_added += other.conns_added;
        self.conns_removed += other.conns_removed;
        self.polls += other.polls;
        self.cq_batches += other.cq_batches;
        self.cqes_dispatched += other.cqes_dispatched;
        self.max_cq_batch = self.max_cq_batch.max(other.max_cq_batch);
        self.deferrals += other.deferrals;
        self.orphan_cqes += other.orphan_cqes;
        self.readiness_reports += other.readiness_reports;
        self.slots_visited += other.slots_visited;
    }

    /// Serializes the counters as a JSON object (dependency-free, like
    /// [`ConnStats::to_json`]).
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"conns_added\":{},\"conns_removed\":{},\"polls\":{},",
                "\"cq_batches\":{},\"cqes_dispatched\":{},",
                "\"max_cq_batch\":{},\"deferrals\":{},\"orphan_cqes\":{},",
                "\"readiness_reports\":{},\"slots_visited\":{},",
                "\"mean_batch\":{:.6}}}"
            ),
            self.conns_added,
            self.conns_removed,
            self.polls,
            self.cq_batches,
            self.cqes_dispatched,
            self.max_cq_batch,
            self.deferrals,
            self.orphan_cqes,
            self.readiness_reports,
            self.slots_visited,
            self.mean_batch(),
        )
    }
}

/// Telemetry for one shard of a sharded reactor
/// ([`crate::shard::ReactorPool`] /
/// [`crate::threaded::ThreadReactorPool`]): how many connections the
/// assignment policy routed here and how hard its service loop is
/// working (busy ratio). One of these per shard rides in every snapshot
/// so imbalance is visible, not averaged away.
#[derive(Clone, Debug, Default)]
pub struct ShardStats {
    /// Which shard this is (0-based, stable for the pool's lifetime).
    pub shard_id: u32,
    /// Connections currently hosted on the shard.
    pub conns: u64,
    /// Connections the assignment policy ever routed here.
    pub assigned: u64,
    /// Assignments where `LeastLoaded` deviated from the round-robin
    /// successor — a measure of how often load-awareness actually
    /// changed placement.
    pub steals: u64,
    /// `Reactor::poll` calls executed by this shard.
    pub polls: u64,
    /// Completions this shard's reactor dispatched.
    pub cqes_dispatched: u64,
    /// Nanoseconds the service loop spent doing work (holding the
    /// reactor, harvesting events) — the numerator of the busy ratio.
    pub busy_ns: u64,
    /// Nanoseconds the service loop existed (work + parked waiting) —
    /// the denominator of the busy ratio. Zero on the sim backend,
    /// where there is no wall clock to sample.
    pub wall_ns: u64,
}

impl ShardStats {
    /// Fraction of the shard's lifetime spent servicing rather than
    /// parked (0 when no wall time was sampled — e.g. the sim backend).
    pub fn busy_ratio(&self) -> f64 {
        if self.wall_ns == 0 {
            0.0
        } else {
            (self.busy_ns as f64 / self.wall_ns as f64).min(1.0)
        }
    }

    /// Serializes the counters as a JSON object (dependency-free, like
    /// [`ConnStats::to_json`]).
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"shard_id\":{},\"conns\":{},\"assigned\":{},",
                "\"steals\":{},\"polls\":{},",
                "\"cqes_dispatched\":{},\"busy_ns\":{},\"wall_ns\":{},",
                "\"busy_ratio\":{:.6}}}"
            ),
            self.shard_id,
            self.conns,
            self.assigned,
            self.steals,
            self.polls,
            self.cqes_dispatched,
            self.busy_ns,
            self.wall_ns,
            self.busy_ratio(),
        )
    }
}

/// Counters for one [`crate::mempool::MemPool`]: the pin-down cache's
/// effectiveness (hit rate), its churn (registrations, evictions) and
/// its current footprint (pinned/leased/free bytes).
#[derive(Clone, Debug, Default)]
pub struct PoolStats {
    /// Acquires satisfied from the free lists (no verbs call).
    pub hits: u64,
    /// Acquires that had to register a fresh region.
    pub misses: u64,
    /// Idle regions deregistered to get back under the pinned budget.
    pub evictions: u64,
    /// Total `register_mr` calls the pool issued.
    pub registrations: u64,
    /// Total `deregister_mr` calls the pool issued (evictions + trims).
    pub deregistrations: u64,
    /// Bytes currently registered through the pool (leased + free).
    pub pinned_bytes: u64,
    /// High-water mark of `pinned_bytes`.
    pub pinned_peak: u64,
    /// Bytes currently handed out in live leases.
    pub leased_bytes: u64,
    /// Bytes sitting idle in the free lists.
    pub free_bytes: u64,
}

impl PoolStats {
    /// Fraction of acquires served from the cache.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Adds another pool's counters into this one (per-node pools
    /// aggregated for a whole run). Footprint gauges sum; the peak is
    /// the sum of peaks (an upper bound, exact when pools peak
    /// together).
    pub fn merge(&mut self, other: &PoolStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.evictions += other.evictions;
        self.registrations += other.registrations;
        self.deregistrations += other.deregistrations;
        self.pinned_bytes += other.pinned_bytes;
        self.pinned_peak += other.pinned_peak;
        self.leased_bytes += other.leased_bytes;
        self.free_bytes += other.free_bytes;
    }

    /// Serializes the counters as a JSON object (dependency-free, like
    /// [`ConnStats::to_json`]).
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"hits\":{},\"misses\":{},\"evictions\":{},",
                "\"registrations\":{},\"deregistrations\":{},",
                "\"pinned_bytes\":{},\"pinned_peak\":{},",
                "\"leased_bytes\":{},\"free_bytes\":{},",
                "\"hit_rate\":{:.6}}}"
            ),
            self.hits,
            self.misses,
            self.evictions,
            self.registrations,
            self.deregistrations,
            self.pinned_bytes,
            self.pinned_peak,
            self.leased_bytes,
            self.free_bytes,
            self.hit_rate(),
        )
    }
}

/// Counters for one [`crate::aio::Executor`]: task lifecycle, wake-up
/// efficiency (polls per wake, spurious-wake ratio), timer activity and
/// cancellation outcomes. Snapshots ride along with [`ConnStats`] /
/// [`ReactorStats`] in the bench-results JSON.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AioStats {
    /// Tasks handed to `spawn`.
    pub tasks_spawned: u64,
    /// Tasks polled to completion.
    pub tasks_completed: u64,
    /// `Waker::wake` calls observed (readiness dispatch, timer fires,
    /// buffered-byte arrivals).
    pub wakeups: u64,
    /// Task polls executed by the executor.
    pub polls: u64,
    /// Leaf-future polls that found their condition still unmet after
    /// a wake — the re-poll was wasted work.
    pub spurious_polls: u64,
    /// Timers armed.
    pub timers_set: u64,
    /// Timers that reached their deadline and fired.
    pub timer_fires: u64,
    /// Timers dropped before firing (e.g. a `timeout` whose inner
    /// future won).
    pub timer_cancels: u64,
    /// Cancellations that unwound cleanly: the operation had not
    /// committed any bytes to the wire.
    pub cancels_clean: u64,
    /// Cancellations that caught a send mid-flight and poisoned the
    /// stream's sending direction.
    pub cancels_poisoned: u64,
    /// Executor turns (reactor pump + task batch cycles).
    pub turns: u64,
}

impl AioStats {
    /// Mean task polls per wake-up.
    pub fn polls_per_wake(&self) -> f64 {
        if self.wakeups == 0 {
            0.0
        } else {
            self.polls as f64 / self.wakeups as f64
        }
    }

    /// Fraction of task polls that were spurious.
    pub fn spurious_wake_ratio(&self) -> f64 {
        if self.polls == 0 {
            0.0
        } else {
            self.spurious_polls as f64 / self.polls as f64
        }
    }

    /// Adds another executor's counters into this one (multi-node
    /// runs aggregated for a report).
    pub fn merge(&mut self, other: &AioStats) {
        self.tasks_spawned += other.tasks_spawned;
        self.tasks_completed += other.tasks_completed;
        self.wakeups += other.wakeups;
        self.polls += other.polls;
        self.spurious_polls += other.spurious_polls;
        self.timers_set += other.timers_set;
        self.timer_fires += other.timer_fires;
        self.timer_cancels += other.timer_cancels;
        self.cancels_clean += other.cancels_clean;
        self.cancels_poisoned += other.cancels_poisoned;
        self.turns += other.turns;
    }

    /// Serializes the counters as a JSON object (dependency-free, like
    /// [`ConnStats::to_json`]).
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"tasks_spawned\":{},\"tasks_completed\":{},",
                "\"wakeups\":{},\"polls\":{},\"spurious_polls\":{},",
                "\"timers_set\":{},\"timer_fires\":{},\"timer_cancels\":{},",
                "\"cancels_clean\":{},\"cancels_poisoned\":{},\"turns\":{},",
                "\"polls_per_wake\":{:.6},\"spurious_wake_ratio\":{:.6}}}"
            ),
            self.tasks_spawned,
            self.tasks_completed,
            self.wakeups,
            self.polls,
            self.spurious_polls,
            self.timers_set,
            self.timer_fires,
            self.timer_cancels,
            self.cancels_clean,
            self.cancels_poisoned,
            self.turns,
            self.polls_per_wake(),
            self.spurious_wake_ratio(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_stats_json_and_hit_rate() {
        let mut s = PoolStats {
            hits: 3,
            misses: 1,
            pinned_bytes: 4096,
            ..PoolStats::default()
        };
        assert!((s.hit_rate() - 0.75).abs() < 1e-12);
        let j = s.to_json();
        assert!(j.contains("\"hits\":3"));
        assert!(j.contains("\"hit_rate\":0.750000"));
        let other = PoolStats {
            hits: 1,
            evictions: 2,
            ..PoolStats::default()
        };
        s.merge(&other);
        assert_eq!(s.hits, 4);
        assert_eq!(s.evictions, 2);
        assert_eq!(PoolStats::default().hit_rate(), 0.0);
    }

    #[test]
    fn json_snapshots_are_parseable_shape() {
        let s = ConnStats {
            direct_transfers: 3,
            indirect_transfers: 1,
            ..ConnStats::default()
        };
        let j = s.to_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"direct_transfers\":3"));
        assert!(j.contains("\"direct_ratio\":0.750000"));

        let r = ReactorStats {
            cq_batches: 2,
            cqes_dispatched: 7,
            ..ReactorStats::default()
        };
        let j = r.to_json();
        assert!(j.contains("\"cqes_dispatched\":7"));
        assert!(j.contains("\"mean_batch\":3.500000"));
    }

    #[test]
    fn tx_batching_counters_json_and_merge() {
        let mut s = ConnStats {
            doorbells: 4,
            wqes_posted: 12,
            max_wqes_per_doorbell: 6,
            signaled_wqes: 3,
            unsignaled_wqes: 9,
            coalesced_msgs: 5,
            coalesced_bytes: 640,
            cq_max_batch: 7,
            cq_nonempty_polls: 11,
            ..ConnStats::default()
        };
        assert!((s.mean_wqes_per_doorbell() - 3.0).abs() < 1e-12);
        assert!((s.unsignaled_ratio() - 0.75).abs() < 1e-12);
        let j = s.to_json();
        assert!(j.contains("\"doorbells\":4"));
        assert!(j.contains("\"mean_wqes_per_doorbell\":3.000000"));
        assert!(j.contains("\"unsignaled_ratio\":0.750000"));
        assert!(j.contains("\"coalesced_bytes\":640"));
        assert!(j.contains("\"cq_overflowed\":false"));
        assert!(j.contains("\"cq_max_batch\":7"));

        let other = ConnStats {
            doorbells: 1,
            wqes_posted: 1,
            max_wqes_per_doorbell: 9,
            cq_overflowed: true,
            cq_max_batch: 2,
            ..ConnStats::default()
        };
        s.merge(&other);
        assert_eq!(s.doorbells, 5);
        assert_eq!(s.max_wqes_per_doorbell, 9, "merge takes the max");
        assert_eq!(s.cq_max_batch, 7, "merge takes the max");
        assert!(s.cq_overflowed, "overflow is sticky across merges");
        assert_eq!(ConnStats::default().mean_wqes_per_doorbell(), 0.0);
        assert_eq!(ConnStats::default().unsignaled_ratio(), 0.0);
    }

    #[test]
    fn resync_and_advert_queue_telemetry() {
        let mut s = ConnStats::default();
        assert_eq!(s.advert_queue_mean(), 0.0);
        s.sample_advert_queue(3);
        s.sample_advert_queue(5);
        s.resyncs_attempted = 4;
        s.resyncs_completed = 3;
        assert_eq!(s.advert_queue_peak, 5);
        assert!((s.advert_queue_mean() - 4.0).abs() < 1e-12);

        let j = s.to_json();
        assert!(j.contains("\"resyncs_attempted\":4"));
        assert!(j.contains("\"resyncs_completed\":3"));
        assert!(j.contains("\"advert_queue_peak\":5"));
        assert!(j.contains("\"advert_queue_mean\":4.000000"));

        let other = ConnStats {
            resyncs_attempted: 1,
            advert_queue_peak: 9,
            advert_queue_sum: 9,
            advert_queue_samples: 1,
            ..ConnStats::default()
        };
        s.merge(&other);
        assert_eq!(s.resyncs_attempted, 5);
        assert_eq!(s.advert_queue_peak, 9, "merge takes the max depth");
        assert_eq!(s.advert_queue_samples, 3);
    }

    #[test]
    fn fabric_telemetry_json_and_merge_sum() {
        let mut s = ConnStats {
            fabric_respeeds: 3,
            ..ConnStats::default()
        };
        s.record_fabric_flow(5000.5);
        let j = s.to_json();
        assert!(j.contains("\"fabric_respeeds\":3"));
        assert!(j.contains("\"fabric_flow_mbps_mean\":5000.500"));
        assert!(j.contains("\"fabric_flow_mbps_max\":5000.500"));
        assert!(j.contains("\"fabric_flow_samples\":1"));

        let mut other = ConnStats {
            fabric_respeeds: 7,
            ..ConnStats::default()
        };
        other.record_fabric_flow(100.0);
        s.merge(&other);
        assert_eq!(s.fabric_respeeds, 10, "re-speed totals must sum");
        assert_eq!(s.fabric_flow_samples, 2);
        assert!((s.fabric_flow_mbps_mean() - 2550.25).abs() < 1e-9);
        assert_eq!(
            s.fabric_flow_mbps_max, 5000.5,
            "the max gauge keeps the old semantics"
        );
    }

    #[test]
    fn mux_and_protocol_error_telemetry_merge() {
        let mut s = ConnStats {
            mux_streams_peak: 100,
            mux_demux_errors: 2,
            protocol_errors: 1,
            ..ConnStats::default()
        };
        let other = ConnStats {
            mux_streams_peak: 64,
            mux_demux_errors: 3,
            protocol_errors: 4,
            ..ConnStats::default()
        };
        s.merge(&other);
        assert_eq!(s.mux_streams_peak, 100, "peak takes the max");
        assert_eq!(s.mux_demux_errors, 5, "demux errors sum");
        assert_eq!(s.protocol_errors, 5, "protocol errors sum");
        let j = s.to_json();
        assert!(j.contains("\"mux_streams_peak\":100"));
        assert!(j.contains("\"mux_demux_errors\":5"));
        assert!(j.contains("\"protocol_errors\":5"));
    }

    #[test]
    fn merge_sums_counters() {
        let mut a = ConnStats {
            bytes_sent: 10,
            direct_transfers: 2,
            ..ConnStats::default()
        };
        let b = ConnStats {
            bytes_sent: 5,
            indirect_transfers: 3,
            ..ConnStats::default()
        };
        a.merge(&b);
        assert_eq!(a.bytes_sent, 15);
        assert_eq!(a.total_transfers(), 5);
    }

    #[test]
    fn ratios() {
        let mut s = ConnStats::default();
        assert_eq!(s.direct_ratio(), 0.0);
        s.direct_transfers = 3;
        s.indirect_transfers = 1;
        assert!((s.direct_ratio() - 0.75).abs() < 1e-12);
        s.direct_bytes = 10;
        s.indirect_bytes = 30;
        assert!((s.direct_byte_ratio() - 0.25).abs() < 1e-12);
        assert_eq!(s.total_transfers(), 4);
    }

    #[test]
    fn reactor_stats_merge_sums_counters_and_maxes_peak() {
        let mut a = ReactorStats {
            conns_added: 4,
            polls: 100,
            cq_batches: 10,
            cqes_dispatched: 50,
            max_cq_batch: 12,
            deferrals: 1,
            readiness_reports: 40,
            ..ReactorStats::default()
        };
        let b = ReactorStats {
            conns_added: 2,
            conns_removed: 1,
            polls: 30,
            cq_batches: 5,
            cqes_dispatched: 25,
            max_cq_batch: 20,
            orphan_cqes: 0,
            readiness_reports: 10,
            ..ReactorStats::default()
        };
        a.merge(&b);
        assert_eq!(a.conns_added, 6, "counters sum across shards");
        assert_eq!(a.conns_removed, 1);
        assert_eq!(a.polls, 130);
        assert_eq!(a.cq_batches, 15);
        assert_eq!(a.cqes_dispatched, 75);
        assert_eq!(a.max_cq_batch, 20, "the peak takes the max, not the sum");
        assert_eq!(a.deferrals, 1);
        assert_eq!(a.readiness_reports, 50);
        assert!((a.mean_batch() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn shard_stats_busy_ratio_and_json() {
        let s = ShardStats {
            shard_id: 3,
            conns: 7,
            assigned: 9,
            steals: 2,
            polls: 100,
            cqes_dispatched: 250,
            busy_ns: 250,
            wall_ns: 1000,
        };
        assert!((s.busy_ratio() - 0.25).abs() < 1e-12);
        let j = s.to_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"shard_id\":3"));
        assert!(j.contains("\"assigned\":9"));
        assert!(j.contains("\"steals\":2"));
        assert!(j.contains("\"busy_ratio\":0.250000"));

        // Sim shards sample no wall clock; the ratio stays defined.
        assert_eq!(ShardStats::default().busy_ratio(), 0.0);
        // Timer jitter can push busy past wall; the ratio stays <= 1.
        let hot = ShardStats {
            busy_ns: 1200,
            wall_ns: 1000,
            ..ShardStats::default()
        };
        assert_eq!(hot.busy_ratio(), 1.0);
    }

    #[test]
    fn aio_stats_json_merge_and_ratios() {
        let mut a = AioStats {
            tasks_spawned: 4,
            tasks_completed: 4,
            wakeups: 10,
            polls: 15,
            spurious_polls: 3,
            timers_set: 5,
            timer_fires: 2,
            timer_cancels: 3,
            cancels_clean: 1,
            turns: 20,
            ..AioStats::default()
        };
        assert!((a.polls_per_wake() - 1.5).abs() < 1e-12);
        assert!((a.spurious_wake_ratio() - 0.2).abs() < 1e-12);
        let j = a.to_json();
        assert!(j.contains("\"tasks_completed\":4"));
        assert!(j.contains("\"polls_per_wake\":1.500000"));
        assert!(j.contains("\"spurious_wake_ratio\":0.200000"));
        assert!(j.contains("\"cancels_poisoned\":0"));

        let b = AioStats {
            tasks_spawned: 1,
            wakeups: 2,
            polls: 5,
            cancels_poisoned: 1,
            ..AioStats::default()
        };
        a.merge(&b);
        assert_eq!(a.tasks_spawned, 5);
        assert_eq!(a.wakeups, 12);
        assert_eq!(a.polls, 20);
        assert_eq!(a.cancels_poisoned, 1);
        // Degenerate denominators stay defined.
        assert_eq!(AioStats::default().polls_per_wake(), 0.0);
        assert_eq!(AioStats::default().spurious_wake_ratio(), 0.0);
    }
}
