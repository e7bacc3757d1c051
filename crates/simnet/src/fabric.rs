//! Flow-level fair-sharing bandwidth model.
//!
//! The point-to-point [`crate::link::Link`] serializes messages on each
//! directed pair independently: 512 senders blasting one receiver each
//! see a private, uncontended pipe, and the receiver's reported ingress
//! can exceed its NIC's line rate — physically dishonest at exactly the
//! connection counts where scalability claims live. This module replaces
//! the per-message link charge with a **flow-level max-min fair-share
//! model**: concurrent transfers split capacity, and every active flow
//! re-speeds when a flow arrives or completes (event-driven, no
//! per-byte ticks).
//!
//! Topology: two hops. Each node owns one NIC **uplink** (egress) and
//! one **downlink** (ingress) whose capacities come from the registered
//! [`crate::link::LinkConfig`]s, and all traffic additionally crosses a
//! shared **core** (the switch fabric) whose capacity is the sum of the
//! finite host uplinks divided by a configurable oversubscription
//! factor. Oversubscription 1.0 makes the core transparent; 4.0 models
//! a 4:1 oversubscribed top-of-rack layer where victim flows and incast
//! collapse become expressible.
//!
//! A *flow* is a directed `(src, dst)` node pair. Transfers within a
//! flow stay strictly FIFO (an RC channel never reorders), so layering
//! this model under a byte-stream protocol changes **timing only** —
//! delivered bytes and their order are identical to the FIFO link model.

use std::collections::{BTreeMap, VecDeque};

use crate::rng::Xoshiro256;
use crate::time::{SimDuration, SimTime};

/// Which bandwidth model a fabric runs.
#[derive(Clone, Debug, Default, PartialEq)]
pub enum FabricModel {
    /// Legacy per-pair FIFO links: every directed node pair owns a
    /// private serializing transmitter ([`crate::link::Link::transit`]).
    /// Concurrent senders do not contend.
    #[default]
    Fifo,
    /// Flow-level max-min fair sharing over a two-hop topology
    /// (host NIC links into an oversubscribed core).
    FairShare(FairShareConfig),
}

/// Configuration for [`FabricModel::FairShare`].
///
/// The RNG seed is **explicit** here (rather than implied by link
/// seeds): contention runs must be reproducible across backends from
/// one number, and the fabric's jitter stream is global to the switch,
/// not per-pair.
#[derive(Clone, Debug, PartialEq)]
pub struct FairShareConfig {
    /// Core (switch) oversubscription factor: core capacity = sum of
    /// finite host uplink capacities / this. 1.0 = non-blocking fabric;
    /// 4.0 = classic 4:1 ToR oversubscription. Must be ≥ 1.0.
    pub oversubscription: f64,
    /// Seed for the fabric's arrival-jitter RNG (applied using each
    /// link's configured jitter bound).
    pub seed: u64,
}

impl FairShareConfig {
    /// A non-blocking (oversubscription 1.0) fabric with the given
    /// jitter seed.
    pub fn new(seed: u64) -> Self {
        FairShareConfig {
            oversubscription: 1.0,
            seed,
        }
    }

    /// Sets the core oversubscription factor (builder style).
    pub fn with_oversubscription(mut self, factor: f64) -> Self {
        self.oversubscription = factor;
        self
    }
}

impl Default for FairShareConfig {
    fn default() -> Self {
        FairShareConfig::new(0xFA1B)
    }
}

/// One message occupying a flow: opaque token for the driver, wire
/// bytes for the allocator, payload bytes for reporting.
#[derive(Clone, Copy, Debug)]
pub struct Transfer {
    /// Driver-side handle resolving back to the queued message.
    pub token: u64,
    /// Bytes serialized on the wire (payload + per-packet framing).
    pub wire_bytes: u64,
    /// Application payload bytes (utilisation accounting).
    pub payload_bytes: u64,
}

/// A directed flow identity: `(source node, destination node)`.
pub type FlowKey = (u32, u32);

/// A shared resource in the two-hop topology. The allocator considers
/// them in declaration order, node ids ascending within a kind; the
/// first of several equal shares is the bottleneck.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Rid {
    /// A node's NIC egress.
    Up(u32),
    /// A node's NIC ingress.
    Down(u32),
    /// The switch fabric between all uplinks and downlinks.
    Core,
}

struct Flow {
    key: FlowKey,
    queue: VecDeque<Transfer>,
    /// Current allocated rate for the head transfer (bps; may be
    /// `f64::INFINITY` when no finite resource constrains the flow).
    rate_bps: f64,
    /// True once the head transfer has been assigned a rate (so a
    /// subsequent different assignment counts as a re-speed).
    has_rate: bool,
    /// Wire bits the head transfer still has to move.
    rem_bits: f64,
    /// FIFO clamp: later transfers never arrive before earlier ones.
    last_arrival: SimTime,
    /// Completed payload bytes.
    bytes: u64,
    /// Completed transfers.
    transfers: u64,
    /// Times an in-progress transfer's rate was changed by another
    /// flow arriving or leaving.
    respeeds: u64,
    /// Nanoseconds this flow had a transfer in progress.
    active_ns: u64,
}

impl Flow {
    fn new(key: FlowKey) -> Flow {
        Flow {
            key,
            queue: VecDeque::new(),
            rate_bps: 0.0,
            has_rate: false,
            rem_bits: 0.0,
            last_arrival: SimTime::ZERO,
            bytes: 0,
            transfers: 0,
            respeeds: 0,
            active_ns: 0,
        }
    }

    /// Head-completion time at the current rate, seen from `now`.
    fn finish_time(&self, now: SimTime) -> SimTime {
        if self.rate_bps.is_infinite() || self.rem_bits <= 0.0 {
            return now;
        }
        // Ceil so the scheduled event never fires before the last bit
        // lands (rem_bits may be epsilon-positive at the event
        // otherwise).
        let ns = (self.rem_bits * 1e9 / self.rate_bps).ceil() as u64;
        now + SimDuration::from_nanos(ns)
    }
}

/// The allocator's working state, kept between runs so that a run
/// allocates nothing. The per-node vectors are indexed by node id (node
/// ids are dense).
#[derive(Default)]
struct Filling {
    /// Capacity not yet handed out on each node's uplink / downlink;
    /// set by a run for the nodes it lists in `ups` and `downs`,
    /// garbage elsewhere.
    rem_up: Vec<f64>,
    rem_down: Vec<f64>,
    /// Unfrozen flows crossing each node's uplink / downlink. All zero
    /// between runs: a flow counts itself in when a run starts and out
    /// when it is frozen, and every run freezes every flow that
    /// counted.
    users_up: Vec<u32>,
    users_down: Vec<u32>,
    /// Nodes whose finite uplink (downlink) an active flow crosses,
    /// ascending.
    ups: Vec<u32>,
    downs: Vec<u32>,
    /// The rate each active flow was frozen at, in the order of
    /// `FairShareFabric::active`; `None` while unfrozen.
    rates: Vec<Option<f64>>,
}

/// Event-driven max-min bandwidth allocator over the two-hop topology.
///
/// The driver owns the event loop; this type answers two questions —
/// "a transfer was handed to the fabric at `now`" ([`submit`]) and "a
/// head transfer's completion event fired at `now`" ([`complete`]) —
/// and returns, for every flow whose head-completion time changed, the
/// new completion time so the driver can reschedule its event.
///
/// Rates are a pure function of which flows are active and of the
/// registered capacities: nothing else enters the allocation. Every
/// change to either runs the allocator, so between two runs each active
/// flow already holds the rate a fresh run would give it — which is why
/// a head completing with another transfer queued behind it (same
/// flows active) only reschedules that one flow.
///
/// [`submit`]: FairShareFabric::submit
/// [`complete`]: FairShareFabric::complete
pub struct FairShareFabric {
    cfg: FairShareConfig,
    /// NIC egress capacity by node id (bps; 0 = unlimited, as is a node
    /// past the end).
    up: Vec<u64>,
    /// NIC ingress capacity by node id.
    down: Vec<u64>,
    /// Sum of `up`: the core's capacity before oversubscription.
    up_total: u64,
    /// Every flow that ever carried a transfer, in first-use order.
    flows: Vec<Flow>,
    /// Index in `flows` by key.
    by_key: BTreeMap<FlowKey, usize>,
    /// Flows with a transfer in progress (indices in `flows`), ordered
    /// by key.
    active: Vec<usize>,
    /// The allocator's clock: the `now` of the last submit/complete.
    now: SimTime,
    rng: Xoshiro256,
    /// Global re-speed count (sum over flows).
    respeeds: u64,
    /// Times the progressive filling ran.
    allocator_runs: u64,
    /// A capacity was registered since the allocator last ran, so the
    /// rates in force are not what a run would give now.
    rates_stale: bool,
    fill: Filling,
    /// The reschedule list the last `submit`/`complete` returned.
    changes: Vec<(FlowKey, SimTime)>,
}

/// Relative tolerance when deciding whether a recomputed rate actually
/// changed (fp noise from repeated subtraction must not count as a
/// re-speed or force an event reschedule).
const RATE_EPS: f64 = 1e-9;

/// A node's finite capacity in `caps`, if it has one.
fn finite(caps: &[u64], node: u32) -> Option<f64> {
    let cap = *caps.get(node as usize)?;
    (cap > 0).then_some(cap as f64)
}

impl FairShareFabric {
    /// An empty fabric with no links registered.
    pub fn new(cfg: FairShareConfig) -> Self {
        assert!(
            cfg.oversubscription >= 1.0,
            "oversubscription factor must be >= 1.0, got {}",
            cfg.oversubscription
        );
        let seed = cfg.seed;
        FairShareFabric {
            cfg,
            up: Vec::new(),
            down: Vec::new(),
            up_total: 0,
            flows: Vec::new(),
            by_key: BTreeMap::new(),
            active: Vec::new(),
            now: SimTime::ZERO,
            rng: Xoshiro256::new(seed),
            respeeds: 0,
            allocator_runs: 0,
            rates_stale: false,
            fill: Filling::default(),
            changes: Vec::new(),
        }
    }

    /// The fabric's configuration.
    pub fn config(&self) -> &FairShareConfig {
        &self.cfg
    }

    /// Registers one directed link's capacity: `src`'s NIC uplink and
    /// `dst`'s NIC downlink are each at least `bandwidth_bps`.
    /// Bandwidth 0 means unlimited (the ideal-hardware profile).
    /// Registering the same node twice keeps the larger capacity.
    pub fn register_link(&mut self, src: u32, dst: u32, bandwidth_bps: u64) {
        let nodes = self.up.len().max(src.max(dst) as usize + 1);
        self.up.resize(nodes, 0);
        self.down.resize(nodes, 0);
        let up = &mut self.up[src as usize];
        self.up_total += bandwidth_bps.saturating_sub(*up);
        *up = (*up).max(bandwidth_bps);
        let down = &mut self.down[dst as usize];
        *down = (*down).max(bandwidth_bps);
        self.rates_stale = true;
    }

    /// Core capacity in bps: sum of the finite registered uplinks,
    /// divided by the oversubscription factor. `None` when every uplink
    /// is unlimited (the core cannot be the bottleneck of an ideal
    /// fabric).
    fn core_capacity(&self) -> Option<f64> {
        (self.up_total > 0).then(|| self.up_total as f64 / self.cfg.oversubscription)
    }

    /// Drains elapsed wall-clock into every in-progress transfer at the
    /// current rates. `now` must be monotone (the DES driver's clock).
    fn advance(&mut self, now: SimTime) {
        debug_assert!(now >= self.now, "fabric clock went backwards");
        let dt_ns = now.as_nanos().saturating_sub(self.now.as_nanos());
        if dt_ns > 0 {
            for &i in &self.active {
                let flow = &mut self.flows[i];
                if flow.rate_bps.is_infinite() {
                    flow.rem_bits = 0.0;
                } else {
                    flow.rem_bits = (flow.rem_bits - flow.rate_bps * dt_ns as f64 / 1e9).max(0.0);
                }
                flow.active_ns += dt_ns;
            }
        }
        self.now = now;
    }

    /// True if flow `key` crosses resource `rid`.
    fn crosses(key: FlowKey, rid: Rid) -> bool {
        match rid {
            Rid::Up(n) => key.0 == n,
            Rid::Down(n) => key.1 == n,
            Rid::Core => true,
        }
    }

    /// Progressive-filling max-min allocation over the active flows.
    ///
    /// Repeatedly finds the bottleneck resource (smallest equal share
    /// `remaining capacity / unfrozen users`), freezes its users at that
    /// share, subtracts their allocation from every resource they cross,
    /// and repeats. Flows crossing no finite resource run infinitely
    /// fast (ideal profile).
    ///
    /// Leaves in `self.changes` `(flow, new head-completion time)` for
    /// every flow whose rate materially changed — plus `touched`, whose
    /// completion event must be (re)scheduled even at an unchanged rate
    /// (it just started a new head transfer).
    fn allocate(&mut self, touched: Option<FlowKey>) {
        self.allocator_runs += 1;
        self.rates_stale = false;
        let core = self.core_capacity();
        let FairShareFabric {
            up,
            down,
            flows,
            active,
            fill,
            ..
        } = self;
        let Filling {
            rem_up,
            rem_down,
            users_up,
            users_down,
            ups,
            downs,
            rates,
        } = fill;

        // The finite resources in play, each kind in ascending node
        // order, and who uses them: `active` is ordered by source
        // first, so its sources arrive sorted; destinations are sorted
        // below. A user count of zero marks a node not yet seen.
        ups.clear();
        downs.clear();
        rates.clear();
        rem_up.resize(up.len(), 0.0);
        users_up.resize(up.len(), 0);
        rem_down.resize(down.len(), 0.0);
        users_down.resize(down.len(), 0);
        for &i in active.iter() {
            let (s, d) = flows[i].key;
            rates.push(None);
            if let Some(cap) = finite(up, s) {
                if users_up[s as usize] == 0 {
                    ups.push(s);
                    rem_up[s as usize] = cap;
                }
                users_up[s as usize] += 1;
            }
            if let Some(cap) = finite(down, d) {
                if users_down[d as usize] == 0 {
                    downs.push(d);
                    rem_down[d as usize] = cap;
                }
                users_down[d as usize] += 1;
            }
        }
        downs.sort_unstable();
        let mut rem_core = if active.is_empty() { None } else { core };

        let mut unfrozen = active.len();
        while unfrozen > 0 {
            let mut best: Option<(Rid, f64)> = None;
            let mut consider = |rid: Rid, cap: f64, users: usize| {
                if users > 0 {
                    let share = cap / users as f64;
                    if best.is_none_or(|(_, s)| share < s) {
                        best = Some((rid, share));
                    }
                }
            };
            for &n in ups.iter() {
                consider(
                    Rid::Up(n),
                    rem_up[n as usize],
                    users_up[n as usize] as usize,
                );
            }
            for &n in downs.iter() {
                consider(
                    Rid::Down(n),
                    rem_down[n as usize],
                    users_down[n as usize] as usize,
                );
            }
            if let Some(cap) = rem_core {
                consider(Rid::Core, cap, unfrozen);
            }
            let Some((bottleneck, share)) = best else {
                // No finite resource constrains the remaining flows.
                for rate in rates.iter_mut() {
                    rate.get_or_insert(f64::INFINITY);
                }
                break;
            };
            let share = share.max(0.0);
            for (rate, &i) in rates.iter_mut().zip(active.iter()) {
                let key = flows[i].key;
                if rate.is_some() || !Self::crosses(key, bottleneck) {
                    continue;
                }
                *rate = Some(share);
                unfrozen -= 1;
                if finite(up, key.0).is_some() {
                    let cap = &mut rem_up[key.0 as usize];
                    *cap = (*cap - share).max(0.0);
                    users_up[key.0 as usize] -= 1;
                }
                if finite(down, key.1).is_some() {
                    let cap = &mut rem_down[key.1 as usize];
                    *cap = (*cap - share).max(0.0);
                    users_down[key.1 as usize] -= 1;
                }
                if let Some(cap) = &mut rem_core {
                    *cap = (*cap - share).max(0.0);
                }
            }
        }

        debug_assert!(ups.iter().all(|&n| users_up[n as usize] == 0));
        debug_assert!(downs.iter().all(|&n| users_down[n as usize] == 0));

        self.changes.clear();
        for (rate, &i) in rates.iter().zip(active.iter()) {
            let rate = rate.expect("every active flow was frozen");
            let flow = &mut flows[i];
            let old = flow.rate_bps;
            let same = if flow.has_rate {
                if old.is_infinite() && rate.is_infinite() {
                    true
                } else {
                    (rate - old).abs() <= old.abs() * RATE_EPS
                }
            } else {
                false
            };
            if flow.has_rate && !same {
                flow.respeeds += 1;
                self.respeeds += 1;
            }
            flow.rate_bps = rate;
            flow.has_rate = true;
            if !same || touched == Some(flow.key) {
                self.changes.push((flow.key, flow.finish_time(self.now)));
            }
        }
    }

    /// Hands a transfer to the fabric at `now`. If the flow is idle the
    /// transfer starts immediately and every affected flow re-speeds;
    /// if the flow is already busy the transfer queues FIFO behind the
    /// current head and nothing changes yet.
    ///
    /// Returns `(flow, head-completion time)` for every flow whose
    /// pending head-completion event must be rescheduled.
    pub fn submit(
        &mut self,
        now: SimTime,
        src: u32,
        dst: u32,
        transfer: Transfer,
    ) -> &[(FlowKey, SimTime)] {
        self.advance(now);
        let key = (src, dst);
        let flows = &mut self.flows;
        let i = *self.by_key.entry(key).or_insert_with(|| {
            flows.push(Flow::new(key));
            flows.len() - 1
        });
        let flow = &mut self.flows[i];
        flow.queue.push_back(transfer);
        // A flow is active exactly while its queue is non-empty.
        if flow.queue.len() > 1 {
            return &[];
        }
        flow.rem_bits = (transfer.wire_bytes * 8) as f64;
        flow.has_rate = false;
        flow.rate_bps = 0.0;
        let at = self.active_position(key);
        self.active.insert(at, i);
        self.allocate(Some(key));
        &self.changes
    }

    /// Where `key` is, or belongs, in `active`.
    fn active_position(&self, key: FlowKey) -> usize {
        self.active.partition_point(|&i| self.flows[i].key < key)
    }

    /// Completes the head transfer of `(src, dst)` at `now` (the driver
    /// calls this from the head-completion event scheduled at the time
    /// returned by [`FairShareFabric::submit`] or by an earlier
    /// `complete`).
    ///
    /// Returns the finished transfer, its receiver-side arrival time
    /// (`now` + propagation + jittered extra, FIFO-clamped within the
    /// flow), and the rescheduling changes from the allocator.
    pub fn complete(
        &mut self,
        now: SimTime,
        src: u32,
        dst: u32,
        propagation: SimDuration,
        jitter: SimDuration,
    ) -> (Transfer, SimTime, &[(FlowKey, SimTime)]) {
        self.advance(now);
        let key = (src, dst);
        let i = *self.by_key.get(&key).expect("complete on unknown flow");
        let flow = &mut self.flows[i];
        debug_assert!(
            flow.rem_bits < 8.0 || flow.rate_bps.is_infinite(),
            "head completion fired with {} bits left on {key:?}",
            flow.rem_bits
        );
        let transfer = flow.queue.pop_front().expect("complete on empty flow");
        flow.bytes += transfer.payload_bytes;
        flow.transfers += 1;

        let mut arrival = now + propagation;
        if !jitter.is_zero() {
            let extra = self.rng.next_below(jitter.as_nanos() + 1);
            arrival += SimDuration::from_nanos(extra);
        }
        // FIFO clamp: reliable connected transport never reorders.
        arrival = arrival.max(flow.last_arrival);
        flow.last_arrival = arrival;

        if let Some(next) = flow.queue.front() {
            flow.rem_bits = (next.wire_bytes * 8) as f64;
            if self.rates_stale {
                self.allocate(Some(key));
            } else {
                // The same flows are active under the same capacities,
                // so every rate stands; only this flow has a new head
                // to schedule.
                self.changes.clear();
                self.changes.push((key, flow.finish_time(now)));
            }
        } else {
            flow.rate_bps = 0.0;
            flow.has_rate = false;
            flow.rem_bits = 0.0;
            let at = self.active_position(key);
            self.active.remove(at);
            self.allocate(None);
        }
        (transfer, arrival, &self.changes)
    }

    /// Number of flows with a transfer currently in progress.
    pub fn active_flows(&self) -> usize {
        self.active.len()
    }

    /// The rate (bps) the in-progress transfer of `(src, dst)` moves at,
    /// `None` while the flow is idle.
    pub fn head_rate_bps(&self, src: u32, dst: u32) -> Option<f64> {
        let flow = &self.flows[*self.by_key.get(&(src, dst))?];
        flow.has_rate.then_some(flow.rate_bps)
    }

    /// Telemetry snapshot: per-flow achieved rates, re-speed counts and
    /// the Jain fairness index.
    ///
    /// The headline index measures fairness where flows actually
    /// compete: flows are grouped by destination NIC (the incast
    /// bottleneck), Jain is computed inside each group of two or more
    /// byte-moving flows, and the worst group is reported. Comparing
    /// achieved rates *across* sinks would conflate demand with
    /// allocation — a tiny control flow back to a client is not
    /// "unfair" relative to 512 bulk flows into the server.
    pub fn stats(&self) -> FabricStats {
        let flows: Vec<FlowStats> = self
            .by_key
            .iter()
            .map(|(&(src, dst), &i)| {
                let f = &self.flows[i];
                let achieved_bps = if f.active_ns == 0 {
                    0.0
                } else {
                    f.bytes as f64 * 8.0 * 1e9 / f.active_ns as f64
                };
                FlowStats {
                    src,
                    dst,
                    bytes: f.bytes,
                    transfers: f.transfers,
                    respeeds: f.respeeds,
                    active_ns: f.active_ns,
                    achieved_bps,
                }
            })
            .collect();
        let mut by_dst: BTreeMap<u32, Vec<f64>> = BTreeMap::new();
        for f in flows.iter().filter(|f| f.bytes > 0) {
            by_dst.entry(f.dst).or_default().push(f.achieved_bps);
        }
        let worst_group_jain = by_dst
            .values()
            .filter(|rates| rates.len() >= 2)
            .map(|rates| jain_index(rates))
            .fold(1.0_f64, f64::min);
        FabricStats {
            respeeds: self.respeeds,
            allocator_runs: self.allocator_runs,
            jain_index: worst_group_jain,
            flows,
        }
    }
}

/// Jain's fairness index `(Σx)² / (n·Σx²)` over per-flow rates: 1.0 is
/// perfectly fair, 1/n is maximally unfair. 1.0 for an empty slice.
pub fn jain_index(rates: &[f64]) -> f64 {
    if rates.is_empty() {
        return 1.0;
    }
    let sum: f64 = rates.iter().sum();
    let sq: f64 = rates.iter().map(|r| r * r).sum();
    if sq == 0.0 {
        return 1.0;
    }
    sum * sum / (rates.len() as f64 * sq)
}

crate::stats! {
    /// One flow's telemetry.
    #[derive(Clone, Debug)]
    pub struct FlowStats {
        /// Source node.
        val src: u32,
        /// Destination node.
        val dst: u32,
        /// Completed payload bytes.
        val bytes: u64,
        /// Completed transfers.
        val transfers: u64,
        /// Times an in-progress transfer re-sped because another flow
        /// arrived or left.
        val respeeds: u64,
        /// Nanoseconds the flow had a transfer in progress.
        val active_ns: u64,
        /// Payload throughput while active, bits per second.
        val achieved_bps: f64,
        /// Achieved payload rate in Mbit/s.
        ratio achieved_mbps = achieved_bps / 1e6,
    }
}

crate::stats! {
    /// Whole-fabric telemetry snapshot.
    #[derive(Clone, Debug)]
    pub struct FabricStats {
        /// Global re-speed count.
        val respeeds: u64,
        /// Times the max-min allocation was computed: once per change of
        /// the set of active flows, not once per transfer.
        val allocator_runs: u64,
        /// Jain fairness index over per-flow achieved rates (flows that
        /// moved at least one byte).
        val jain_index: f64,
        /// Per-flow telemetry, ordered by `(src, dst)`.
        val flows: Vec<FlowStats>,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GBIT: u64 = 1_000_000_000;

    fn t(token: u64, bytes: u64) -> Transfer {
        Transfer {
            token,
            wire_bytes: bytes,
            payload_bytes: bytes,
        }
    }

    /// Star topology: `n` clients (nodes 1..=n) into server node 0,
    /// every link `bw` bps.
    fn star(n: u32, bw: u64, cfg: FairShareConfig) -> FairShareFabric {
        let mut f = FairShareFabric::new(cfg);
        for c in 1..=n {
            f.register_link(c, 0, bw);
            f.register_link(0, c, bw);
        }
        f
    }

    #[test]
    fn single_flow_gets_full_link() {
        let mut f = star(2, 10 * GBIT, FairShareConfig::new(1));
        let changes = f.submit(SimTime::ZERO, 1, 0, t(0, 1250)); // 10_000 bits
        assert_eq!(changes.len(), 1);
        let (key, finish) = changes[0];
        assert_eq!(key, (1, 0));
        // 10_000 bits at 10 Gbit/s = 1000 ns.
        assert_eq!(finish.as_nanos(), 1_000);
    }

    #[test]
    fn two_flows_share_the_downlink() {
        let mut f = star(2, 10 * GBIT, FairShareConfig::new(1));
        let c1 = f.submit(SimTime::ZERO, 1, 0, t(0, 1250));
        assert_eq!(c1[0].1.as_nanos(), 1_000);
        // Second flow arrives halfway: flow 1 has 5_000 bits left, now
        // runs at 5 Gbit/s → finishes 1000 ns later (t=1500).
        let c2 = f.submit(SimTime::from_nanos(500), 2, 0, t(1, 1250));
        let m: BTreeMap<_, _> = c2.iter().copied().collect();
        assert_eq!(m[&(1, 0)].as_nanos(), 1_500);
        // Flow 2 moves 10_000 bits at 5 Gbit/s → 2000 ns from t=500.
        assert_eq!(m[&(2, 0)].as_nanos(), 2_500);
    }

    #[test]
    fn completion_respeeds_the_survivor() {
        let mut f = star(2, 10 * GBIT, FairShareConfig::new(1));
        f.submit(SimTime::ZERO, 1, 0, t(0, 1250));
        f.submit(SimTime::ZERO, 2, 0, t(1, 2500)); // both at 5G
                                                   // Flow 1 finishes its 10_000 bits at t=2000.
        let (done, arrival, changes) = f.complete(
            SimTime::from_nanos(2_000),
            1,
            0,
            SimDuration::ZERO,
            SimDuration::ZERO,
        );
        assert_eq!(done.token, 0);
        assert_eq!(arrival.as_nanos(), 2_000);
        // Flow 2 re-speeds to the full 10G: 10_000 of its 20_000 bits
        // remain → finishes 1000 ns later.
        let m: BTreeMap<_, _> = changes.iter().copied().collect();
        assert_eq!(m[&(2, 0)].as_nanos(), 3_000);
        let s = f.stats();
        let f1 = s.flows.iter().find(|fl| fl.src == 1).unwrap();
        let f2 = s.flows.iter().find(|fl| fl.src == 2).unwrap();
        assert_eq!(f1.respeeds, 1, "sped down when flow 2 arrived");
        assert_eq!(f2.respeeds, 1, "sped up when flow 1 departed");
        assert_eq!(s.respeeds, 2);
    }

    #[test]
    fn max_min_water_filling_assigns_unequal_shares() {
        // Flows: A: 1→0, B: 2→0, C: 2→3. Links 10G everywhere.
        // Downlink 0 carries A+B; uplink 2 carries B+C.
        // Equal-split everywhere gives 5G each and no resource is left
        // over — the classic symmetric water-filling fixpoint.
        let mut f = FairShareFabric::new(FairShareConfig::new(1));
        for &(a, b) in &[(1u32, 0u32), (2, 0), (2, 3)] {
            f.register_link(a, b, 10 * GBIT);
            f.register_link(b, a, 10 * GBIT);
        }
        f.submit(SimTime::ZERO, 1, 0, t(0, 125_000));
        f.submit(SimTime::ZERO, 2, 0, t(1, 125_000));
        let changes = f.submit(SimTime::ZERO, 2, 3, t(2, 125_000));
        // 1_000_000 bits at 5 Gbit/s = 200_000 ns for every flow.
        let m: BTreeMap<_, _> = changes.iter().copied().collect();
        for fin in m.values() {
            assert_eq!(fin.as_nanos(), 200_000);
        }
        // Now complete A (1→0) at t=200_000: B is still limited by
        // uplink 2 shared with C (5G each — no change), so only C, er,
        // actually B's downlink constraint relaxes but uplink 2 still
        // binds both B and C at 5G: no re-speed happens.
        let (_, _, changes) = f.complete(
            SimTime::from_nanos(200_000),
            1,
            0,
            SimDuration::ZERO,
            SimDuration::ZERO,
        );
        assert!(
            changes.is_empty(),
            "B and C stay bottlenecked on uplink 2: {changes:?}"
        );
    }

    #[test]
    fn oversubscribed_core_binds_aggregate() {
        // 4 clients → 4 distinct servers, 10G links, core 4:1
        // oversubscribed: core capacity = 40G/4 = 10G, so each of the 4
        // disjoint flows gets 2.5G even though its NIC path is 10G.
        let mut f = FairShareFabric::new(FairShareConfig::new(1).with_oversubscription(4.0));
        for c in 0..4u32 {
            f.register_link(c, c + 4, 10 * GBIT);
        }
        let mut last = Vec::new();
        for c in 0..4u32 {
            last = f
                .submit(SimTime::ZERO, c, c + 4, t(c as u64, 125_000))
                .to_vec();
        }
        // 1_000_000 bits at 2.5 Gbit/s = 400_000 ns.
        let m: BTreeMap<_, _> = last.into_iter().collect();
        assert_eq!(m[&(3, 7)].as_nanos(), 400_000);
    }

    #[test]
    fn unlimited_links_run_infinitely_fast() {
        let mut f = star(2, 0, FairShareConfig::new(1));
        let changes = f.submit(SimTime::from_nanos(7), 1, 0, t(0, 1 << 20));
        assert_eq!(changes.len(), 1);
        assert_eq!(changes[0].1.as_nanos(), 7, "no finite resource binds");
        let (_, arrival, _) = f.complete(
            SimTime::from_nanos(7),
            1,
            0,
            SimDuration::from_nanos(300),
            SimDuration::ZERO,
        );
        assert_eq!(arrival.as_nanos(), 307);
    }

    #[test]
    fn queued_transfers_stay_fifo_and_do_not_respeed() {
        let mut f = star(2, 10 * GBIT, FairShareConfig::new(1));
        let c = f.submit(SimTime::ZERO, 1, 0, t(0, 1250));
        assert_eq!(c.len(), 1);
        // Queue two more behind the head: no allocation change.
        assert!(f.submit(SimTime::ZERO, 1, 0, t(1, 1250)).is_empty());
        assert!(f.submit(SimTime::ZERO, 1, 0, t(2, 1250)).is_empty());
        let mut now = SimTime::from_nanos(1_000);
        for expect in 0..3u64 {
            let (done, arrival, changes) =
                f.complete(now, 1, 0, SimDuration::from_nanos(100), SimDuration::ZERO);
            assert_eq!(done.token, expect, "strict FIFO within the flow");
            assert_eq!(arrival, now + SimDuration::from_nanos(100));
            if expect < 2 {
                // The next head starts: exactly one change, same flow.
                assert_eq!(changes.len(), 1);
                assert_eq!(changes[0].0, (1, 0));
                now = changes[0].1;
            } else {
                assert!(changes.is_empty());
            }
        }
        let s = f.stats();
        assert_eq!(s.respeeds, 0, "a lone flow never re-speeds");
        assert_eq!(s.flows[0].transfers, 3);
        assert_eq!(
            s.allocator_runs, 2,
            "the flow starting and the flow going idle; not the heads in between"
        );
    }

    #[test]
    fn transfers_queued_on_a_busy_flow_keep_every_rate_without_allocating() {
        let mut f = star(3, 10 * GBIT, FairShareConfig::new(1));
        f.submit(SimTime::ZERO, 1, 0, t(0, 1250));
        f.submit(SimTime::ZERO, 2, 0, t(1, 125_000));
        let k = 5;
        for token in 0..k {
            f.submit(SimTime::ZERO, 1, 0, t(2 + token, 1250));
        }
        let runs = f.stats().allocator_runs;
        assert_eq!(runs, 2, "one run per flow that became active");
        let rates = [f.head_rate_bps(1, 0), f.head_rate_bps(2, 0)];
        assert_eq!(rates, [Some(5e9), Some(5e9)]);
        // Flow 1's heads complete one after another, 2000 ns each at
        // 5 Gbit/s, while flow 2 stays busy: the active set never
        // changes, so no head costs an allocation.
        let mut now = SimTime::from_nanos(2_000);
        for _ in 0..k {
            let (_, _, changes) = f.complete(now, 1, 0, SimDuration::ZERO, SimDuration::ZERO);
            assert_eq!(changes, [((1, 0), now + SimDuration::from_nanos(2_000))]);
            now = changes[0].1;
        }
        assert_eq!(f.stats().allocator_runs, runs);
        assert_eq!([f.head_rate_bps(1, 0), f.head_rate_bps(2, 0)], rates);
        // The last head leaves the flow idle: that changes the set.
        let (_, _, changes) = f.complete(now, 1, 0, SimDuration::ZERO, SimDuration::ZERO);
        assert_eq!(changes.len(), 1, "flow 2 re-speeds to the full link");
        assert_eq!(f.stats().allocator_runs, runs + 1);
        assert_eq!(f.head_rate_bps(1, 0), None);
        assert_eq!(f.head_rate_bps(2, 0), Some(10e9));
    }

    #[test]
    fn a_capacity_registered_mid_run_is_applied_at_the_next_head() {
        let mut f = star(2, 10 * GBIT, FairShareConfig::new(1));
        f.submit(SimTime::ZERO, 1, 0, t(0, 1250));
        f.submit(SimTime::ZERO, 1, 0, t(1, 1250));
        f.register_link(1, 0, 20 * GBIT);
        f.register_link(0, 1, 20 * GBIT);
        let (_, _, changes) = f.complete(
            SimTime::from_nanos(1_000),
            1,
            0,
            SimDuration::ZERO,
            SimDuration::ZERO,
        );
        // 10_000 bits at the new 20 Gbit/s.
        assert_eq!(changes, [((1, 0), SimTime::from_nanos(1_500))]);
        assert_eq!(f.head_rate_bps(1, 0), Some(20e9));
    }

    #[test]
    fn arrival_jitter_is_deterministic_per_seed_and_fifo() {
        let run = |seed| {
            let mut f = star(2, 10 * GBIT, FairShareConfig::new(seed));
            let mut arrivals = Vec::new();
            let mut now = SimTime::ZERO;
            for i in 0..50u64 {
                now = f.submit(now, 1, 0, t(i, 1250))[0].1;
                let (_, arrival, _) = f.complete(
                    now,
                    1,
                    0,
                    SimDuration::from_nanos(300),
                    SimDuration::from_nanos(500),
                );
                arrivals.push(arrival);
            }
            arrivals
        };
        let a = run(42);
        let b = run(42);
        let c = run(43);
        assert_eq!(a, b, "same seed, same arrivals");
        assert_ne!(a, c, "different seed, different jitter");
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "FIFO under jitter");
    }

    #[test]
    fn jain_index_bounds() {
        assert_eq!(jain_index(&[]), 1.0);
        assert_eq!(jain_index(&[5.0, 5.0, 5.0]), 1.0);
        let skewed = jain_index(&[10.0, 0.0, 0.0, 0.0]);
        assert!((skewed - 0.25).abs() < 1e-12, "1/n for one hog: {skewed}");
        let near = jain_index(&[9.0, 10.0, 11.0]);
        assert!(near > 0.99, "mild spread stays near 1: {near}");
    }

    #[test]
    fn stats_report_each_flows_achieved_rate() {
        // 1250 bytes in 1000 ns of active time = 10 Gbit/s.
        let mut f = star(2, 10 * GBIT, FairShareConfig::new(9));
        f.submit(SimTime::ZERO, 1, 0, t(0, 1250));
        f.complete(
            SimTime::from_nanos(1_000),
            1,
            0,
            SimDuration::ZERO,
            SimDuration::ZERO,
        );
        let live = f.stats();
        let flow = &live.flows[0];
        assert_eq!(
            (flow.src, flow.dst, flow.bytes, flow.transfers),
            (1, 0, 1250, 1)
        );
        assert_eq!(flow.active_ns, 1_000);
        assert_eq!(flow.achieved_mbps(), 10_000.0);
        assert_eq!(live.jain_index, 1.0, "one byte-moving flow");
        let idle = FlowStats {
            achieved_bps: 0.0,
            ..flow.clone()
        };
        assert_eq!(idle.achieved_mbps(), 0.0);
    }

    #[test]
    fn aggregate_into_one_node_is_capped() {
        // 8 senders into node 0 at 10G: aggregate wire rate must equal
        // the 10G downlink, not 80G. Walk events to completion.
        let n = 8u32;
        let mut f = star(n, 10 * GBIT, FairShareConfig::new(5));
        let bytes_each = 125_000u64; // 1_000_000 bits
        let mut pending: BTreeMap<FlowKey, SimTime> = BTreeMap::new();
        for c in 1..=n {
            for &(k, fin) in f.submit(SimTime::ZERO, c, 0, t(c as u64, bytes_each)) {
                pending.insert(k, fin);
            }
        }
        let mut done = 0;
        let mut end = SimTime::ZERO;
        while done < n {
            let (&key, &fin) = pending.iter().min_by_key(|&(_, &fin)| fin).unwrap();
            pending.remove(&key);
            let (_, _, changes) =
                f.complete(fin, key.0, key.1, SimDuration::ZERO, SimDuration::ZERO);
            for &(k, nf) in changes {
                pending.insert(k, nf);
            }
            done += 1;
            end = end.max(fin);
        }
        // 8 × 1_000_000 bits through a 10 Gbit/s bottleneck = 800 µs.
        assert_eq!(end.as_nanos(), 800_000);
        let s = f.stats();
        assert!(
            s.jain_index > 0.99,
            "symmetric incast is fair: {}",
            s.jain_index
        );
        assert_eq!(
            s.flows.iter().map(|fl| fl.bytes).sum::<u64>(),
            8 * bytes_each
        );
    }
}
