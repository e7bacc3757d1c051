//! Property tests for the fair-share fabric allocator: whatever the
//! submission schedule, re-speeding changes *when* transfers finish,
//! never *what* arrives or in which order — and the allocator gives,
//! bit for bit, the rates, re-speed counts and reschedule lists of the
//! straightforward implementation it replaced.

use std::collections::BTreeMap;

use proptest::prelude::*;
use simnet::{FairShareConfig, FairShareFabric, SimDuration, SimTime, Transfer};

const NODES: u32 = 4;
const LINK_BPS: u64 = 10_000_000_000;
const PROP: SimDuration = SimDuration::from_nanos(500);

/// The flows a generated op can target: three senders into node 0 (the
/// incast pattern) plus one cross flow so the allocator sees disjoint
/// bottlenecks.
const FLOWS: [(u32, u32); 4] = [(1, 0), (2, 0), (3, 0), (1, 2)];

/// Drains every head-completion event scheduled at or before `until`,
/// in event-time order, applying the reschedules each completion
/// triggers (exactly what the simulation driver does).
fn drain(
    fab: &mut FairShareFabric,
    heads: &mut BTreeMap<(u32, u32), SimTime>,
    until: SimTime,
    jitter: SimDuration,
    completed: &mut BTreeMap<(u32, u32), Vec<(u64, SimTime)>>,
) {
    loop {
        let next = heads
            .iter()
            .min_by_key(|&(key, at)| (*at, *key))
            .map(|(key, at)| (*key, *at));
        let Some((key, at)) = next else { break };
        if at > until {
            break;
        }
        heads.remove(&key);
        let (transfer, arrival, changes) = fab.complete(at, key.0, key.1, PROP, jitter);
        completed
            .entry(key)
            .or_default()
            .push((transfer.token, arrival));
        for &(k, t) in changes {
            heads.insert(k, t);
        }
    }
}

/// The allocator as it was before it ran over dense scratch and kept
/// rates between runs: `BTreeMap`s built per call, and a full
/// progressive filling on every `submit` that starts a flow and every
/// `complete`. Kept word for word, less the telemetry that takes no
/// part in allocation, as the oracle the differential test below
/// compares [`FairShareFabric`] against.
mod reference {
    use std::collections::{BTreeMap, BTreeSet, VecDeque};

    use simnet::{FairShareConfig, SimDuration, SimTime, Transfer, Xoshiro256};

    pub type FlowKey = (u32, u32);

    /// A shared resource in the two-hop topology.
    #[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
    enum Rid {
        /// A node's NIC egress.
        Up(u32),
        /// A node's NIC ingress.
        Down(u32),
        /// The switch fabric between all uplinks and downlinks.
        Core,
    }

    #[derive(Default)]
    struct Flow {
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
        /// Times an in-progress transfer's rate was changed by another
        /// flow arriving or leaving.
        respeeds: u64,
    }

    pub struct RefFabric {
        cfg: FairShareConfig,
        /// NIC egress capacity per node (bps; absent or 0 = unlimited).
        up: BTreeMap<u32, u64>,
        /// NIC ingress capacity per node.
        down: BTreeMap<u32, u64>,
        flows: BTreeMap<FlowKey, Flow>,
        /// Flows with a transfer in progress.
        active: BTreeSet<FlowKey>,
        /// The allocator's clock: the `now` of the last submit/complete.
        now: SimTime,
        rng: Xoshiro256,
        /// Global re-speed count (sum over flows).
        respeeds: u64,
    }

    /// Relative tolerance when deciding whether a recomputed rate actually
    /// changed (fp noise from repeated subtraction must not count as a
    /// re-speed or force an event reschedule).
    const RATE_EPS: f64 = 1e-9;

    impl RefFabric {
        /// An empty fabric with no links registered.
        pub fn new(cfg: FairShareConfig) -> Self {
            assert!(
                cfg.oversubscription >= 1.0,
                "oversubscription factor must be >= 1.0, got {}",
                cfg.oversubscription
            );
            let seed = cfg.seed;
            RefFabric {
                cfg,
                up: BTreeMap::new(),
                down: BTreeMap::new(),
                flows: BTreeMap::new(),
                active: BTreeSet::new(),
                now: SimTime::ZERO,
                rng: Xoshiro256::new(seed),
                respeeds: 0,
            }
        }

        /// Registers one directed link's capacity: `src`'s NIC uplink and
        /// `dst`'s NIC downlink are each at least `bandwidth_bps`.
        /// Bandwidth 0 means unlimited (the ideal-hardware profile).
        /// Registering the same node twice keeps the larger capacity.
        pub fn register_link(&mut self, src: u32, dst: u32, bandwidth_bps: u64) {
            let up = self.up.entry(src).or_insert(0);
            *up = (*up).max(bandwidth_bps);
            let down = self.down.entry(dst).or_insert(0);
            *down = (*down).max(bandwidth_bps);
        }

        /// Core capacity in bps: sum of the finite registered uplinks,
        /// divided by the oversubscription factor. `None` when every uplink
        /// is unlimited (the core cannot be the bottleneck of an ideal
        /// fabric).
        fn core_capacity(&self) -> Option<f64> {
            let total: u64 = self.up.values().copied().filter(|&c| c > 0).sum();
            if total == 0 {
                None
            } else {
                Some(total as f64 / self.cfg.oversubscription)
            }
        }

        /// Drains elapsed wall-clock into every in-progress transfer at the
        /// current rates. `now` must be monotone (the DES driver's clock).
        fn advance(&mut self, now: SimTime) {
            debug_assert!(now >= self.now, "fabric clock went backwards");
            let dt_ns = now.as_nanos().saturating_sub(self.now.as_nanos());
            if dt_ns > 0 {
                for key in &self.active {
                    let flow = self.flows.get_mut(key).expect("active flow missing");
                    if flow.rate_bps.is_infinite() {
                        flow.rem_bits = 0.0;
                    } else {
                        flow.rem_bits =
                            (flow.rem_bits - flow.rate_bps * dt_ns as f64 / 1e9).max(0.0);
                    }
                }
            }
            self.now = now;
        }

        /// The resources flow `key` crosses, restricted to those with
        /// finite capacity.
        fn crosses(key: FlowKey, rid: Rid) -> bool {
            match rid {
                Rid::Up(n) => key.0 == n,
                Rid::Down(n) => key.1 == n,
                Rid::Core => true,
            }
        }

        /// Head-completion time for `key` at its current rate.
        fn finish_time(&self, key: FlowKey) -> SimTime {
            let flow = &self.flows[&key];
            if flow.rate_bps.is_infinite() || flow.rem_bits <= 0.0 {
                return self.now;
            }
            // Ceil so the scheduled event never fires before the last bit
            // lands (rem_bits may be epsilon-positive at the event
            // otherwise).
            let ns = (flow.rem_bits * 1e9 / flow.rate_bps).ceil() as u64;
            self.now + SimDuration::from_nanos(ns)
        }

        /// Progressive-filling max-min allocation over the active flows.
        ///
        /// Repeatedly finds the bottleneck resource (smallest equal share
        /// `remaining capacity / unfrozen users`), freezes its users at that
        /// share, subtracts their allocation from every resource they cross,
        /// and repeats. Flows crossing no finite resource run infinitely
        /// fast (ideal profile).
        ///
        /// Returns `(flow, new head-completion time)` for every flow whose
        /// rate materially changed — plus `touched`, whose completion event
        /// must be (re)scheduled even at an unchanged rate (it just started
        /// a new head transfer).
        fn recompute(&mut self, touched: Option<FlowKey>) -> Vec<(FlowKey, SimTime)> {
            let mut rem: BTreeMap<Rid, f64> = BTreeMap::new();
            for &(s, d) in &self.active {
                if let Some(&cap) = self.up.get(&s) {
                    if cap > 0 {
                        rem.insert(Rid::Up(s), cap as f64);
                    }
                }
                if let Some(&cap) = self.down.get(&d) {
                    if cap > 0 {
                        rem.insert(Rid::Down(d), cap as f64);
                    }
                }
            }
            if !self.active.is_empty() {
                if let Some(core) = self.core_capacity() {
                    rem.insert(Rid::Core, core);
                }
            }

            let mut unfrozen: BTreeSet<FlowKey> = self.active.iter().copied().collect();
            let mut new_rates: BTreeMap<FlowKey, f64> = BTreeMap::new();
            while !unfrozen.is_empty() {
                let mut best: Option<(Rid, f64)> = None;
                for (&rid, &cap) in &rem {
                    let users = unfrozen.iter().filter(|&&k| Self::crosses(k, rid)).count();
                    if users == 0 {
                        continue;
                    }
                    let share = cap / users as f64;
                    if best.is_none_or(|(_, s)| share < s) {
                        best = Some((rid, share));
                    }
                }
                let Some((bottleneck, share)) = best else {
                    // No finite resource constrains the remaining flows.
                    for k in unfrozen {
                        new_rates.insert(k, f64::INFINITY);
                    }
                    break;
                };
                let share = share.max(0.0);
                let frozen: Vec<FlowKey> = unfrozen
                    .iter()
                    .filter(|&&k| Self::crosses(k, bottleneck))
                    .copied()
                    .collect();
                for k in frozen {
                    new_rates.insert(k, share);
                    unfrozen.remove(&k);
                    for rid in [Rid::Up(k.0), Rid::Down(k.1), Rid::Core] {
                        if let Some(cap) = rem.get_mut(&rid) {
                            *cap = (*cap - share).max(0.0);
                        }
                    }
                }
            }

            let mut changes = Vec::new();
            for (key, rate) in new_rates {
                let flow = self.flows.get_mut(&key).expect("allocated unknown flow");
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
                if !same || touched == Some(key) {
                    changes.push((key, self.finish_time(key)));
                }
            }
            changes
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
        ) -> Vec<(FlowKey, SimTime)> {
            self.advance(now);
            let key = (src, dst);
            let flow = self.flows.entry(key).or_default();
            flow.queue.push_back(transfer);
            if self.active.contains(&key) {
                return Vec::new();
            }
            let head_bits = (flow.queue.front().expect("just pushed").wire_bytes * 8) as f64;
            flow.rem_bits = head_bits;
            flow.has_rate = false;
            flow.rate_bps = 0.0;
            self.active.insert(key);
            self.recompute(Some(key))
        }

        /// Completes the head transfer of `(src, dst)` at `now` (the driver
        /// calls this from the head-completion event scheduled at the time
        /// returned by `submit` /
        /// `recompute` changes).
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
        ) -> (Transfer, SimTime, Vec<(FlowKey, SimTime)>) {
            self.advance(now);
            let key = (src, dst);
            let flow = self.flows.get_mut(&key).expect("complete on unknown flow");
            debug_assert!(
                flow.rem_bits < 8.0 || flow.rate_bps.is_infinite(),
                "head completion fired with {} bits left on {key:?}",
                flow.rem_bits
            );
            let transfer = flow.queue.pop_front().expect("complete on empty flow");

            let mut arrival = now + propagation;
            if !jitter.is_zero() {
                let extra = self.rng.next_below(jitter.as_nanos() + 1);
                arrival += SimDuration::from_nanos(extra);
            }
            // FIFO clamp: reliable connected transport never reorders.
            arrival = arrival.max(flow.last_arrival);
            flow.last_arrival = arrival;

            let changes = if let Some(next) = flow.queue.front() {
                let bits = (next.wire_bytes * 8) as f64;
                let flow = self.flows.get_mut(&key).expect("flow vanished");
                flow.rem_bits = bits;
                self.recompute(Some(key))
            } else {
                let flow = self.flows.get_mut(&key).expect("flow vanished");
                flow.rate_bps = 0.0;
                flow.has_rate = false;
                flow.rem_bits = 0.0;
                self.active.remove(&key);
                self.recompute(None)
            };
            (transfer, arrival, changes)
        }

        /// The head transfer's rate, `None` while the flow is idle.
        pub fn head_rate_bps(&self, src: u32, dst: u32) -> Option<f64> {
            let flow = self.flows.get(&(src, dst))?;
            flow.has_rate.then_some(flow.rate_bps)
        }

        /// `(global, per-flow in key order)` re-speed counts.
        pub fn respeeds(&self) -> (u64, Vec<u64>) {
            let per_flow = self.flows.values().map(|f| f.respeeds).collect();
            (self.respeeds, per_flow)
        }
    }
}

/// Every flow's head rate, bit for bit, and the re-speed counts.
fn assert_same_state(fab: &FairShareFabric, oracle: &reference::RefFabric) {
    for a in 0..NODES {
        for b in 0..NODES {
            assert_eq!(
                fab.head_rate_bps(a, b).map(f64::to_bits),
                oracle.head_rate_bps(a, b).map(f64::to_bits),
                "rate of flow ({a}, {b})"
            );
        }
    }
    let stats = fab.stats();
    let per_flow: Vec<u64> = stats.flows.iter().map(|f| f.respeeds).collect();
    assert_eq!((stats.respeeds, per_flow), oracle.respeeds());
}

proptest! {
    /// The allocator against its oracle, op by op: equal reschedule
    /// lists (same flows, same order, same instants), equal arrivals,
    /// `to_bits`-equal rates and equal re-speed counts — over mixed
    /// finite and unlimited NICs, which makes the core finite in some
    /// cases and absent in others, and over oversubscription factors
    /// that make it bind.
    #[test]
    fn allocation_is_bit_identical_to_the_reference(
        ops in proptest::collection::vec((0usize..6, 0u64..40_000, 1u64..64), 1..120),
        caps in proptest::collection::vec(0usize..3, NODES as usize),
        oversubscription in 0usize..3,
        jitter_ns in 0u64..2_000,
        seed in any::<u64>(),
    ) {
        const FLOWS: [(u32, u32); 6] = [(1, 0), (2, 0), (3, 0), (1, 2), (0, 3), (2, 1)];
        let cfg = FairShareConfig::new(seed)
            .with_oversubscription([1.0, 2.5, 4.0][oversubscription]);
        let mut fab = FairShareFabric::new(cfg.clone());
        let mut oracle = reference::RefFabric::new(cfg);
        for a in 0..NODES {
            for b in 0..NODES {
                if a != b {
                    // A link is as fast as the slower of its two NICs;
                    // 0 is the unlimited ideal NIC.
                    let nic = |n: u32| [0, LINK_BPS, 4 * LINK_BPS][caps[n as usize]];
                    let bps = nic(a).min(nic(b));
                    fab.register_link(a, b, bps);
                    oracle.register_link(a, b, bps);
                }
            }
        }
        let jitter = SimDuration::from_nanos(jitter_ns);

        // Pending head-completion events, as the driver holds them.
        let mut heads: BTreeMap<(u32, u32), SimTime> = BTreeMap::new();
        let mut now = SimTime::ZERO;
        let submissions = ops.iter().map(Some).chain([None]);
        for (token, op) in submissions.enumerate() {
            // Complete every head due before the next submission — all
            // of them once the submissions are over — in event order,
            // on both.
            let until = op.map_or(SimTime::from_nanos(u64::MAX), |&(_, gap_ns, _)| {
                now + SimDuration::from_nanos(gap_ns)
            });
            while let Some((&key, &due)) = heads.iter().min_by_key(|&(key, due)| (*due, *key)) {
                if due > until {
                    break;
                }
                heads.remove(&key);
                let (t1, a1, c1) = fab.complete(due, key.0, key.1, PROP, jitter);
                let (t2, a2, c2) = oracle.complete(due, key.0, key.1, PROP, jitter);
                prop_assert_eq!((t1.token, a1), (t2.token, a2));
                prop_assert_eq!(c1, c2.as_slice(), "reschedules after completing {:?}", key);
                heads.extend(c2);
                assert_same_state(&fab, &oracle);
            }
            let Some(&(flow, _, size_kb)) = op else { break };
            now = until;
            let (src, dst) = FLOWS[flow];
            let bytes = size_kb << 10;
            let transfer = Transfer { token: token as u64, wire_bytes: bytes, payload_bytes: bytes };
            let c1 = fab.submit(now, src, dst, transfer);
            let c2 = oracle.submit(now, src, dst, transfer);
            prop_assert_eq!(c1, c2.as_slice(), "reschedules after submitting on {:?}", (src, dst));
            heads.extend(c2);
            assert_same_state(&fab, &oracle);
        }
        prop_assert_eq!(fab.active_flows(), 0, "transfers left in flight");
    }

    /// For any interleaving of submissions across contending flows, and
    /// any jitter bound, every transfer completes exactly once, per-flow
    /// completion order equals submission order, per-flow arrival times
    /// are monotone (no reordering on the wire), and the allocator's
    /// byte accounting matches what was offered.
    #[test]
    fn respeeding_never_reorders_or_drops(
        ops in proptest::collection::vec((0usize..4, 0u64..40_000, 1u64..64), 1..120),
        jitter_ns in 0u64..2_000,
        seed in any::<u64>(),
    ) {
        let mut fab = FairShareFabric::new(FairShareConfig::new(seed));
        for a in 0..NODES {
            for b in 0..NODES {
                if a != b {
                    fab.register_link(a, b, LINK_BPS);
                }
            }
        }
        let jitter = SimDuration::from_nanos(jitter_ns);

        let mut heads: BTreeMap<(u32, u32), SimTime> = BTreeMap::new();
        let mut submitted: BTreeMap<(u32, u32), Vec<u64>> = BTreeMap::new();
        let mut offered: BTreeMap<(u32, u32), u64> = BTreeMap::new();
        let mut completed: BTreeMap<(u32, u32), Vec<(u64, SimTime)>> = BTreeMap::new();

        let mut now = SimTime::ZERO;
        for (token, &(flow, gap_ns, size_kb)) in ops.iter().enumerate() {
            let (src, dst) = FLOWS[flow];
            let at = now + SimDuration::from_nanos(gap_ns);
            drain(&mut fab, &mut heads, at, jitter, &mut completed);
            now = at;
            let bytes = size_kb << 10;
            let changes = fab.submit(
                now,
                src,
                dst,
                Transfer { token: token as u64, wire_bytes: bytes, payload_bytes: bytes },
            );
            submitted.entry((src, dst)).or_default().push(token as u64);
            *offered.entry((src, dst)).or_default() += bytes;
            for &(k, t) in changes {
                heads.insert(k, t);
            }
        }
        drain(&mut fab, &mut heads, SimTime::from_nanos(u64::MAX), jitter, &mut completed);

        prop_assert_eq!(fab.active_flows(), 0, "transfers left in flight");
        let total_done: usize = completed.values().map(Vec::len).sum();
        prop_assert_eq!(total_done, ops.len(), "dropped or duplicated transfers");
        for (key, tokens) in &submitted {
            let done = completed.get(key).expect("flow never completed");
            let done_tokens: Vec<u64> = done.iter().map(|&(t, _)| t).collect();
            prop_assert_eq!(&done_tokens, tokens, "flow {:?} completion order", key);
            for pair in done.windows(2) {
                prop_assert!(
                    pair[1].1 >= pair[0].1,
                    "flow {:?} arrivals reordered: {:?} then {:?}",
                    key, pair[0], pair[1]
                );
            }
        }
        let stats = fab.stats();
        for fs in &stats.flows {
            prop_assert_eq!(
                fs.bytes,
                offered.get(&(fs.src, fs.dst)).copied().unwrap_or(0),
                "allocator byte accounting for flow ({}, {})", fs.src, fs.dst
            );
        }
        prop_assert!(stats.jain_index >= 0.0 && stats.jain_index <= 1.0 + 1e-9);
    }
}
