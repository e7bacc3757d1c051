//! Sharded reactor: N independent [`Reactor`]s behind one assignment
//! policy, so event-loop throughput scales with cores instead of
//! saturating a single service loop.
//!
//! The paper's stream semantics are per-connection-independent — no
//! protocol state is shared between two EXS streams — which makes
//! horizontal scaling structurally simple: give each shard its own CQ
//! pair and its own reactor, route every accepted connection to exactly
//! one shard, and never look across the boundary again. The invariants
//! the design holds:
//!
//! * **Assignment happens once, at accept time.** [`ReactorPool::pick_shard`]
//!   applies the configured [`ShardPolicy`] and the connection's CQs,
//!   socket state and event queues live on that shard until close.
//! * **No cross-shard locks.** A shard's poll loop touches only its
//!   own reactor; posting on or closing a connection takes only its
//!   owning shard's lock. The only cross-shard step is placement at
//!   accept — see [`crate::threaded::ThreadReactorPool`] for the
//!   thread backend.
//! * **Stats merge sums.** [`ReactorPool::reactor_stats`] and
//!   [`ReactorPool::aggregate_conn_stats`] sum counters across shards
//!   (peaks take the max), mirroring the `ConnStats::merge` fix that
//!   the fabric telemetry forced; per-shard [`ShardStats`] ride along
//!   so imbalance stays visible.
//!
//! On the simulator the pool is driven by one deterministic caller
//! ([`ReactorPool::poll_all_into`] interleaves the shards in shard
//! order); on the thread backend each shard gets its own service
//! thread. Both produce byte-identical streams for the same workload —
//! enforced by the `shard_identity` tests.

use crate::config::{ShardConfig, ShardPolicy};
use crate::endpoint::Endpoint;
use crate::port::VerbsPort;
use crate::reactor::{ConnId, Reactor, Readiness};
use crate::stats::{ConnStats, ReactorStats, ShardStats};
use rdma_verbs::CqId;
use simnet::stats::merged;

/// An endpoint hosted by a [`ReactorPool`]: which shard it lives on
/// and its [`ConnId`] within that shard's reactor. The pair is the
/// pool-wide identity; bare `ConnId`s are only meaningful shard-locally.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ShardHandle {
    /// Owning shard (0-based).
    pub shard: u32,
    /// Slot within the shard's reactor.
    pub conn: ConnId,
}

/// N reactors behind one assignment policy. Backend-agnostic: the
/// caller creates each shard's reactor over its own CQ pair (CQ
/// creation is a backend operation), the pool owns placement and
/// aggregation. See the module docs for the invariants.
pub struct ReactorPool {
    shards: Vec<Reactor>,
    cfg: ShardConfig,
    placement: Placement,
    /// Reusable per-shard readiness buffer for `poll_all_into`.
    ready_buf: Vec<(ConnId, Readiness)>,
}

impl ReactorPool {
    /// Builds a pool over pre-constructed shard reactors (one per CQ
    /// pair). Panics if `shards` is empty or disagrees with
    /// `cfg.effective_shards()` — a mismatch means the caller sized the
    /// CQs for a different pool than it configured.
    pub fn new(shards: Vec<Reactor>, cfg: ShardConfig) -> ReactorPool {
        assert!(!shards.is_empty(), "a pool needs at least one shard");
        assert_eq!(
            shards.len(),
            cfg.effective_shards(),
            "shard count must match the config"
        );
        ReactorPool {
            placement: Placement::new(cfg.policy, shards.len()),
            shards,
            cfg,
            ready_buf: Vec::new(),
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// The pool's shard configuration.
    pub fn config(&self) -> &ShardConfig {
        &self.cfg
    }

    /// One shard's reactor.
    pub fn shard(&self, shard: u32) -> &Reactor {
        &self.shards[shard as usize]
    }

    /// One shard's reactor, mutably (accept sockets, take events).
    pub fn shard_mut(&mut self, shard: u32) -> &mut Reactor {
        &mut self.shards[shard as usize]
    }

    /// The CQ pair `(send, recv)` a socket must be created on to land
    /// on the given shard.
    pub fn shard_cqs(&self, shard: u32) -> (CqId, CqId) {
        let r = &self.shards[shard as usize];
        (r.send_cq(), r.recv_cq())
    }

    /// Live endpoints currently hosted on one shard.
    pub fn shard_conns(&self, shard: u32) -> u64 {
        self.shards[shard as usize].stats().live_conns()
    }

    /// Chooses the shard for the next accepted connection and charges
    /// the assignment to it. Call this *before* creating the socket —
    /// the socket's CQs must be the chosen shard's
    /// ([`ReactorPool::shard_cqs`]). `affinity` feeds
    /// [`ShardPolicy::Affinity`]; the other policies ignore it, and
    /// `Affinity` without a key degrades to round-robin.
    pub fn pick_shard(&mut self, affinity: Option<u64>) -> u32 {
        let shards = &self.shards;
        self.placement
            .pick(affinity, |s| shards[s].stats().live_conns())
    }

    /// Registers an endpoint on the given shard (normally the one
    /// [`ReactorPool::pick_shard`] just chose). The shard's reactor
    /// asserts the endpoint was created on its CQ pair.
    pub fn accept_on(&mut self, shard: u32, ep: impl Into<Endpoint>) -> ShardHandle {
        let conn = self.shards[shard as usize].accept(ep);
        ShardHandle { shard, conn }
    }

    /// Dissolves the pool into its shard reactors, in shard order, each
    /// still hosting what was accepted on it — for a driver that owns
    /// one reactor per shard (an [`crate::Executor`] each) once the
    /// pool has placed the connections. Take
    /// [`ReactorPool::shard_stats`] first if the placement counts are
    /// wanted.
    pub fn into_shards(self) -> Vec<Reactor> {
        self.shards
    }

    /// Deregisters and returns an endpoint.
    pub fn remove(&mut self, handle: ShardHandle) -> Endpoint {
        self.shards[handle.shard as usize].remove(handle.conn)
    }

    /// Polls every shard once, in shard order (the deterministic sim
    /// driver), appending each ready connection as `(handle,
    /// readiness)` to `out`. `out` is cleared first and the internal
    /// per-shard buffer is reused, so the steady state allocates
    /// nothing.
    pub fn poll_all_into(
        &mut self,
        api: &mut impl VerbsPort,
        out: &mut Vec<(ShardHandle, Readiness)>,
    ) {
        out.clear();
        let mut ready = std::mem::take(&mut self.ready_buf);
        for (s, reactor) in self.shards.iter_mut().enumerate() {
            reactor.poll_into(api, &mut ready);
            out.extend(ready.iter().map(|&(conn, r)| {
                (
                    ShardHandle {
                        shard: s as u32,
                        conn,
                    },
                    r,
                )
            }));
        }
        self.ready_buf = ready;
    }

    /// True when any shard's last poll left work behind (see
    /// [`Reactor::has_backlog`]).
    pub fn has_backlog(&self) -> bool {
        self.shards.iter().any(|r| r.has_backlog())
    }

    /// True while any shard still owes traffic to the wire (see
    /// [`Reactor::has_unsent`]). The pool-wide teardown condition: a
    /// driver that stops polling while this holds can strand a FIN.
    pub fn has_unsent(&self) -> bool {
        self.shards.iter().any(|r| r.has_unsent())
    }

    /// Event-loop counters merged across shards: counters sum, peaks
    /// take the max (see [`ReactorStats::merge`]).
    pub fn reactor_stats(&self) -> ReactorStats {
        merged(self.shards.iter().map(Reactor::stats))
    }

    /// Protocol counters of every endpoint on every shard, merged.
    pub fn aggregate_conn_stats(&self) -> ConnStats {
        merged(self.shards.iter().map(Reactor::aggregate_conn_stats))
    }

    /// Per-shard telemetry (placement, steals, poll/dispatch volume).
    /// No `busy_ns`/`wall_ns` here — only the thread backend's service
    /// loops sample a wall clock (see
    /// `ThreadReactorPool::shard_stats`).
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        (self.shards.iter().enumerate())
            .map(|(s, r)| self.placement.row(s, r.stats()))
            .collect()
    }
}

/// Where a pool's accepted connections go: the [`ShardPolicy`], its
/// rotation cursor and the per-shard placement counts. [`ReactorPool`]
/// and the thread backend's `ThreadReactorPool` each hold one, so both
/// backends place identically for the same inputs — the property the
/// cross-backend identity tests lean on.
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
    use crate::config::ShardPolicy;
    use crate::reactor::ReactorConfig;
    use crate::ExsConfig;
    use rdma_verbs::{HcaConfig, HostModel, NodeId, SimNet};
    use simnet::{LinkConfig, SimDuration};

    fn pool_on(net: &mut SimNet, node: NodeId, shards: usize) -> ReactorPool {
        let cfg = ShardConfig {
            shards,
            ..ShardConfig::default()
        };
        let reactors = (0..shards)
            .map(|_| {
                let (scq, rcq) = net.with_api(node, |api| (api.create_cq(256), api.create_cq(256)));
                Reactor::new(scq, rcq, ReactorConfig::default())
            })
            .collect();
        ReactorPool::new(reactors, cfg)
    }

    fn two_nodes() -> (SimNet, NodeId, NodeId) {
        let mut net = SimNet::new();
        let a = net.add_node(HostModel::free(), HcaConfig::default());
        let b = net.add_node(HostModel::free(), HcaConfig::default());
        net.connect_nodes(
            a,
            b,
            LinkConfig::simple(100_000_000_000, SimDuration::from_micros(1)),
            0,
        );
        (net, a, b)
    }

    #[test]
    fn round_robin_spreads_evenly() {
        let mut net = SimNet::new();
        let node = net.add_node(HostModel::free(), HcaConfig::default());
        let mut pool = pool_on(&mut net, node, 4);
        let picks: Vec<u32> = (0..12).map(|_| pool.pick_shard(None)).collect();
        assert_eq!(picks, vec![0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3]);
        let stats = pool.shard_stats();
        assert!(stats.iter().all(|s| s.assigned == 3));
        assert!(stats.iter().all(|s| s.steals == 0));
        let bal = ShardBalance::of(&stats);
        assert_eq!(bal.max_conns, 3);
        assert!((bal.imbalance() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn affinity_is_sticky_and_in_range() {
        let mut net = SimNet::new();
        let node = net.add_node(HostModel::free(), HcaConfig::default());
        let cfg = ShardConfig {
            shards: 4,
            policy: ShardPolicy::Affinity,
        };
        let reactors = (0..4)
            .map(|_| {
                let (scq, rcq) = net.with_api(node, |api| (api.create_cq(64), api.create_cq(64)));
                Reactor::new(scq, rcq, ReactorConfig::default())
            })
            .collect();
        let mut pool = ReactorPool::new(reactors, cfg);
        for key in 0..64u64 {
            let a = pool.pick_shard(Some(key));
            let b = pool.pick_shard(Some(key));
            assert_eq!(a, b, "same key must land on the same shard");
            assert!((a as usize) < 4);
            assert_eq!(a as usize, ShardPolicy::affinity_shard(key, 4));
        }
        // No key: degrades to the rotation, still in range.
        assert!((pool.pick_shard(None) as usize) < 4);
    }

    #[test]
    fn accept_places_conn_on_chosen_shard_and_stats_merge() {
        let (mut net, a, b) = two_nodes();
        let cfg = ExsConfig {
            ring_capacity: 4096,
            credits: 8,
            sq_depth: 16,
            ..ExsConfig::default()
        };
        let mut pool = pool_on(&mut net, b, 2);
        let mut handles = Vec::new();
        for _ in 0..4 {
            let shard = pool.pick_shard(None);
            let (send_cq, recv_cq) = pool.shard_cqs(shard);
            let (_c, s) =
                crate::stream::StreamSocket::pair_shared(&mut net, a, b, send_cq, recv_cq, &cfg);
            handles.push(pool.accept_on(shard, s));
        }
        assert_eq!(pool.shard_conns(0), 2);
        assert_eq!(pool.shard_conns(1), 2);
        assert_eq!(handles[0].shard, 0);
        assert_eq!(handles[1].shard, 1);
        let merged = pool.reactor_stats();
        assert_eq!(merged.conns_added, 4, "merged stats sum across shards");
        let removed = pool.remove(handles[2]);
        drop(removed);
        assert_eq!(pool.shard_conns(0), 1);
        assert_eq!(pool.reactor_stats().conns_removed, 1);
    }

    #[test]
    fn least_loaded_prefers_empty_shard_and_counts_steals() {
        let (mut net, a, b) = two_nodes();
        let cfg = ExsConfig {
            ring_capacity: 4096,
            credits: 8,
            sq_depth: 16,
            ..ExsConfig::default()
        };
        let least_loaded = |net: &mut SimNet| {
            let shard_cfg = ShardConfig {
                shards: 2,
                policy: ShardPolicy::LeastLoaded,
            };
            let reactors = (0..2)
                .map(|_| {
                    let (scq, rcq) =
                        net.with_api(b, |api| (api.create_cq(256), api.create_cq(256)));
                    Reactor::new(scq, rcq, ReactorConfig::default())
                })
                .collect();
            ReactorPool::new(reactors, shard_cfg)
        };

        // Preload shard 0 with two conns placed directly, skewing load.
        let mut pool = least_loaded(&mut net);
        for _ in 0..2 {
            let (send_cq, recv_cq) = pool.shard_cqs(0);
            let (_c, s) =
                crate::stream::StreamSocket::pair_shared(&mut net, a, b, send_cq, recv_cq, &cfg);
            pool.accept_on(0, s);
        }
        // Least-loaded must route to shard 1 even when the rotation
        // points at 0 — that deviation is a steal.
        let shard = pool.pick_shard(None);
        assert_eq!(shard, 1);
        let stats = pool.shard_stats();
        assert_eq!(stats[1].steals, 1);

        // A hosted pool endpoint is load like any socket: with one
        // placed directly on shard 0, the second goes to shard 1.
        let mut pool = least_loaded(&mut net);
        let host_on = |pool: &mut ReactorPool, shard: u32| {
            let mut ep = crate::MuxEndpoint::new(b, &cfg);
            let (send_cq, recv_cq) = pool.shard_cqs(shard);
            ep.set_cqs(send_cq, recv_cq);
            pool.accept_on(shard, ep)
        };
        host_on(&mut pool, 0);
        assert!(!pool.shard(0).is_empty(), "an endpoint is hosted there");
        let shard = pool.pick_shard(None);
        assert_eq!(shard, 1, "two endpoints, two shards");
        host_on(&mut pool, shard);
        assert_eq!((pool.shard_conns(0), pool.shard_conns(1)), (1, 1));
        assert_eq!(pool.shard_stats()[1].conns, 1);
        assert_eq!(pool.reactor_stats().conns_added, 2);
    }
}
