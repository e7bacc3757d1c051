//! Sharding: N independent [`Reactor`](crate::Reactor)s behind one
//! round-robin placement, so event-loop throughput scales with cores
//! instead of saturating a single service loop.
//!
//! The paper's stream semantics are per-connection-independent — no
//! protocol state is shared between two EXS streams — which makes
//! horizontal scaling structurally simple: give each shard its own CQ
//! pair and its own reactor, route every accepted connection to exactly
//! one shard, and never look across the boundary again. A sharded server
//! therefore *is* a `Vec<Reactor>` and a [`Placement`] on either
//! backend; there is no pool type (the fan-in harness and
//! `proptest_shard.rs` hold the two directly), and the invariants are:
//!
//! * **Assignment happens once, at accept time.** [`Placement::pick`]
//!   takes the next shard in the rotation *before* the endpoint is
//!   created, because the choice binds it to the shard's CQ pair; its
//!   socket state and event queues live on that shard until close.
//! * **No cross-shard state.** A shard's poll loop touches only its
//!   own reactor, and on the thread backend one executor thread owns
//!   it. The only cross-shard step is placement at accept.
//! * **Stats merge sums.** `simnet::stats::merged` over the shards'
//!   [`ReactorStats`] sums counters (peaks take the max); per-shard
//!   [`ShardStats`] rows ([`Placement::row`]) ride along so imbalance
//!   stays visible.
//!
//! On the simulator one deterministic caller polls every shard in shard
//! order and then handles what is ready in that order; on the thread
//! backend each shard is owned by an executor on a thread of its own
//! ([`crate::Executor::run_threaded`]). That is the only difference
//! between the drivers: both produce byte-identical streams for the same workload —
//! enforced by the `shard_identity` tests, which run each spec on both.

use crate::stats::{ReactorStats, ShardStats};

/// Where a sharded server's accepted connections go: the next shard in
/// a strict rotation, and the per-shard placement counts. The fan-in
/// harness holds one on either backend, so both place identically for
/// the same inputs — the property the cross-backend identity tests lean
/// on.
pub struct Placement {
    /// Next round-robin target.
    rr_next: usize,
    /// Per shard: connections ever routed here.
    assigned: Vec<u64>,
}

impl Placement {
    /// A fresh placement over `shards` shards.
    pub fn new(shards: usize) -> Placement {
        Placement {
            rr_next: 0,
            assigned: vec![0; shards],
        }
    }

    /// Chooses the shard for the next connection and charges the
    /// assignment to it.
    pub fn pick(&mut self) -> u32 {
        let chosen = self.rr_next;
        self.rr_next = (chosen + 1) % self.assigned.len();
        self.assigned[chosen] += 1;
        chosen as u32
    }

    /// One shard's telemetry row: its placement count beside its
    /// reactor's counters.
    pub fn row(&self, shard: usize, rs: &ReactorStats) -> ShardStats {
        ShardStats::new(shard as u32, rs, self.assigned[shard])
    }
}

/// Summary of a pool's placement balance, for reports: max and mean
/// connections per shard. `imbalance()` = max/mean — 1.0 is perfect.
#[derive(Clone, Copy, Debug, Default)]
pub struct ShardBalance {
    /// Connections on the fullest shard.
    pub(crate) max_conns: u64,
    /// Mean connections per shard.
    pub(crate) mean_conns: f64,
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

    fn rows(placement: &Placement, shards: usize) -> Vec<ShardStats> {
        (0..shards)
            .map(|s| placement.row(s, &ReactorStats::default()))
            .collect()
    }

    #[test]
    fn round_robin_spreads_evenly() {
        let mut placement = Placement::new(4);
        let picks: Vec<u32> = (0..12).map(|_| placement.pick()).collect();
        assert_eq!(picks, vec![0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3]);
        let stats = rows(&placement, 4);
        assert!(stats.iter().all(|s| s.assigned == 3));
        let bal = ShardBalance::of(&stats);
        assert_eq!(bal.max_conns, 3);
        assert!((bal.imbalance() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn a_hosted_pooled_endpoint_is_load_like_any_socket() {
        // A shard's load is its reactor's live-endpoint count, whatever
        // kind of endpoint it hosts.
        let cfg = ExsConfig::default();
        let mut shards: Vec<Reactor> = (0..2)
            .map(|s| Reactor::new(CqId(2 * s + 1), CqId(2 * s + 2), ReactorConfig::default()))
            .collect();
        let mut placement = Placement::new(2);
        for _ in 0..2 {
            let shard = placement.pick() as usize;
            let mut ep = MuxEndpoint::new(NodeId(0), &cfg);
            ep.set_cqs(shards[shard].send_cq(), shards[shard].recv_cq());
            shards[shard].accept(ep);
        }
        let rows: Vec<ShardStats> = (shards.iter().enumerate())
            .map(|(s, r)| placement.row(s, r.stats()))
            .collect();
        assert_eq!((rows[0].conns, rows[1].conns), (1, 1));
        assert_eq!((rows[0].assigned, rows[1].assigned), (1, 1));
        let total: ReactorStats = merged(shards.iter().map(Reactor::stats));
        assert_eq!(total.conns_added, 2, "merged stats sum across shards");
        assert_eq!(total.live_conns(), 2, "a pooled endpoint counts as one");
    }
}
