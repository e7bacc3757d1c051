//! Sharding: N independent [`Reactor`](crate::Reactor)s behind one
//! assignment policy, so event-loop throughput scales with cores instead
//! of saturating a single service loop.
//!
//! The paper's stream semantics are per-connection-independent — no
//! protocol state is shared between two EXS streams — which makes
//! horizontal scaling structurally simple: give each shard its own CQ
//! pair and its own reactor, route every accepted connection to exactly
//! one shard, and never look across the boundary again. A sharded server
//! therefore *is* a `Vec<Reactor>` and a [`Placement`]; there is no pool
//! type on the simulator (the fan-in harness and `proptest_shard.rs`
//! hold the two directly), and the invariants are:
//!
//! * **Assignment happens once, at accept time.** [`Placement::pick`]
//!   applies the configured [`ShardPolicy`] *before* the endpoint is
//!   created, because the choice binds it to the shard's CQ pair; its
//!   socket state and event queues live on that shard until close.
//! * **No cross-shard locks.** A shard's poll loop touches only its
//!   own reactor; posting on or closing a connection takes only its
//!   owning shard's lock. The only cross-shard step is placement at
//!   accept — see [`crate::threaded::ThreadReactorPool`] for the
//!   thread backend.
//! * **Stats merge sums.** `simnet::stats::merged` over the shards'
//!   [`ReactorStats`] sums counters (peaks take the max); per-shard
//!   [`ShardStats`] rows ([`Placement::row`]) ride along so imbalance
//!   stays visible.
//!
//! On the simulator one deterministic caller polls every shard in shard
//! order and then handles what is ready in that order; on the thread
//! backend each shard is owned by a thread of its own (a pool's service
//! thread, or an executor's). That is the only difference between the
//! drivers: both produce byte-identical streams for the same workload —
//! enforced by the `shard_identity` tests, which run each spec on both.

use crate::config::ShardPolicy;
use crate::stats::{ReactorStats, ShardStats};

/// Where a pool's accepted connections go: the [`ShardPolicy`], its
/// rotation cursor and the per-shard placement counts. The simulator's
/// servers and the thread backend's `ThreadReactorPool` each hold one,
/// so both backends place identically for the same inputs — the
/// property the cross-backend identity tests lean on.
pub struct Placement {
    policy: ShardPolicy,
    /// Next round-robin target; also the tie-breaker for LeastLoaded.
    rr_next: usize,
    /// Per shard: connections ever routed here.
    assigned: Vec<u64>,
    /// Per shard: LeastLoaded placements that deviated from the
    /// round-robin successor.
    steals: Vec<u64>,
}

impl Placement {
    /// A fresh placement over `shards` shards.
    pub fn new(policy: ShardPolicy, shards: usize) -> Placement {
        Placement {
            policy,
            rr_next: 0,
            assigned: vec![0; shards],
            steals: vec![0; shards],
        }
    }

    /// Chooses the shard for the next connection and charges the
    /// assignment to it. `load` probes a shard's live connection count
    /// (consulted only by `LeastLoaded`); `affinity` feeds
    /// [`ShardPolicy::Affinity`], which degrades to the rotation
    /// without a key.
    pub fn pick(&mut self, affinity: Option<u64>, load: impl Fn(usize) -> u64) -> u32 {
        let shards = self.assigned.len();
        let rr = self.rr_next;
        let chosen = match (self.policy, affinity) {
            (ShardPolicy::LeastLoaded, _) => {
                // Min live conns; ties break toward the round-robin
                // successor so a fresh pool still spreads evenly.
                (0..shards)
                    .map(|step| (rr + step) % shards)
                    .min_by_key(|&s| load(s))
                    .expect("a pool has at least one shard")
            }
            (ShardPolicy::Affinity, Some(key)) => ShardPolicy::affinity_shard(key, shards),
            (ShardPolicy::RoundRobin | ShardPolicy::Affinity, _) => rr,
        };
        if self.policy == ShardPolicy::LeastLoaded && chosen != rr {
            self.steals[chosen] += 1;
        }
        // The rotation advances on every pick regardless of policy, so
        // tie-breaking and affinity fallback stay spread out.
        self.rr_next = (rr + 1) % shards;
        self.assigned[chosen] += 1;
        chosen as u32
    }

    /// One shard's telemetry row: its placement counts beside its
    /// reactor's counters.
    pub fn row(&self, shard: usize, rs: &ReactorStats) -> ShardStats {
        ShardStats::new(shard as u32, rs, self.assigned[shard], self.steals[shard])
    }
}

/// Summary of a pool's placement balance, for reports: max and mean
/// connections per shard. `imbalance()` = max/mean — 1.0 is perfect.
#[derive(Clone, Copy, Debug, Default)]
pub struct ShardBalance {
    /// Connections on the fullest shard.
    pub max_conns: u64,
    /// Mean connections per shard.
    pub mean_conns: f64,
}

impl ShardBalance {
    /// Computes the balance over per-shard telemetry (uses `assigned`
    /// so the summary stays meaningful after connections close).
    pub fn of(shards: &[ShardStats]) -> ShardBalance {
        if shards.is_empty() {
            return ShardBalance::default();
        }
        let max_conns = shards.iter().map(|s| s.assigned).max().unwrap_or(0);
        let total: u64 = shards.iter().map(|s| s.assigned).sum();
        ShardBalance {
            max_conns,
            mean_conns: total as f64 / shards.len() as f64,
        }
    }

    /// Max-over-mean placement skew (1.0 = perfectly even).
    pub fn imbalance(&self) -> f64 {
        if self.mean_conns == 0.0 {
            0.0
        } else {
            self.max_conns as f64 / self.mean_conns
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ExsConfig, MuxEndpoint, Reactor, ReactorConfig};
    use rdma_verbs::{CqId, NodeId};
    use simnet::stats::merged;

    /// A placement over `shards` shards and the live-connection counts
    /// a server would report for them: a pick lands where it was
    /// placed, as `Reactor::accept` would make it.
    fn picks(
        policy: ShardPolicy,
        preloaded: &[u64],
        keys: &[Option<u64>],
    ) -> (Vec<u32>, Placement) {
        let mut live = preloaded.to_vec();
        let mut placement = Placement::new(policy, live.len());
        let picks = (keys.iter())
            .map(|&key| {
                let shard = placement.pick(key, |s| live[s]);
                live[shard as usize] += 1;
                shard
            })
            .collect();
        (picks, placement)
    }

    fn rows(placement: &Placement, shards: usize) -> Vec<ShardStats> {
        (0..shards)
            .map(|s| placement.row(s, &ReactorStats::default()))
            .collect()
    }

    #[test]
    fn round_robin_spreads_evenly() {
        let (picks, placement) = picks(ShardPolicy::RoundRobin, &[0; 4], &[None; 12]);
        assert_eq!(picks, vec![0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3]);
        let stats = rows(&placement, 4);
        assert!(stats.iter().all(|s| s.assigned == 3));
        assert!(stats.iter().all(|s| s.steals == 0));
        let bal = ShardBalance::of(&stats);
        assert_eq!(bal.max_conns, 3);
        assert!((bal.imbalance() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn affinity_is_sticky_and_in_range() {
        let keys: Vec<Option<u64>> = (0..64).flat_map(|key| [Some(key), Some(key)]).collect();
        let (picks, mut placement) = picks(ShardPolicy::Affinity, &[0; 4], &keys);
        for (pair, key) in picks.chunks(2).zip(0..64u64) {
            assert_eq!(pair[0], pair[1], "same key must land on the same shard");
            assert_eq!(pair[0] as usize, ShardPolicy::affinity_shard(key, 4));
        }
        // No key: degrades to the rotation, still in range.
        assert!((placement.pick(None, |_| 0) as usize) < 4);
    }

    #[test]
    fn least_loaded_prefers_the_emptier_shard_and_counts_steals() {
        // Shard 0 already hosts two endpoints: the pick must go to
        // shard 1 even though the rotation points at 0 — that deviation
        // is a steal.
        let (picked, placement) = picks(ShardPolicy::LeastLoaded, &[2, 0], &[None]);
        assert_eq!(picked, vec![1]);
        let stats = rows(&placement, 2);
        assert_eq!((stats[0].steals, stats[1].steals), (0, 1));
        assert_eq!((stats[0].assigned, stats[1].assigned), (0, 1));

        // From empty, ties break toward the rotation's successor, so a
        // fresh server still spreads evenly and steals nothing.
        let (picked, placement) = picks(ShardPolicy::LeastLoaded, &[0, 0], &[None; 4]);
        assert_eq!(picked, vec![0, 1, 0, 1]);
        assert!(rows(&placement, 2).iter().all(|s| s.steals == 0));
    }

    #[test]
    fn a_hosted_pooled_endpoint_is_load_like_any_socket() {
        // A server's load probe is its reactors' live-endpoint count.
        let cfg = ExsConfig::default();
        let mut shards: Vec<Reactor> = (0..2)
            .map(|s| Reactor::new(CqId(2 * s + 1), CqId(2 * s + 2), ReactorConfig::default()))
            .collect();
        let host_on = |shards: &mut [Reactor], shard: usize| {
            let mut ep = MuxEndpoint::new(NodeId(0), &cfg);
            ep.set_cqs(shards[shard].send_cq(), shards[shard].recv_cq());
            shards[shard].accept(ep);
        };
        // One endpoint placed directly on shard 0; the rotation still
        // points there, and least-loaded must look past it.
        host_on(&mut shards, 0);
        let mut placement = Placement::new(ShardPolicy::LeastLoaded, 2);
        let shard = placement.pick(None, |s| shards[s].stats().live_conns());
        assert_eq!(shard, 1, "two endpoints, two shards");
        host_on(&mut shards, 1);
        let rows: Vec<ShardStats> = (shards.iter().enumerate())
            .map(|(s, r)| placement.row(s, r.stats()))
            .collect();
        assert_eq!((rows[0].conns, rows[1].conns), (1, 1));
        assert_eq!(rows[1].steals, 1);
        let total: ReactorStats = merged(shards.iter().map(Reactor::stats));
        assert_eq!(total.conns_added, 2, "merged stats sum across shards");
    }
}
