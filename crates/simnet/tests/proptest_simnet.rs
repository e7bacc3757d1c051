//! Property tests for the simulation engine: the determinism and
//! ordering guarantees every higher layer depends on.

use proptest::prelude::*;
use simnet::{Link, LinkConfig, Scheduler, SimDuration, SimTime, Xoshiro256};

proptest! {
    /// Events pop in time order, and events with equal timestamps pop in
    /// scheduling order (stable FIFO tie-break).
    #[test]
    fn scheduler_is_stable_and_ordered(times in proptest::collection::vec(0u64..1_000, 1..200)) {
        let mut s = Scheduler::new();
        for (i, &t) in times.iter().enumerate() {
            s.schedule_at(SimTime::from_nanos(t), (t, i));
        }
        let mut last: Option<(u64, usize)> = None;
        while let Some((at, (t, i))) = s.pop() {
            prop_assert_eq!(at.as_nanos(), t);
            if let Some((lt, li)) = last {
                prop_assert!(t > lt || (t == lt && i > li), "ordering violated");
            }
            last = Some((t, i));
        }
        prop_assert_eq!(s.delivered(), times.len() as u64);
    }

    /// Cancelling an arbitrary subset removes exactly those events.
    #[test]
    fn scheduler_cancellation_is_exact(
        times in proptest::collection::vec(0u64..1_000, 1..100),
        cancel_mask in proptest::collection::vec(any::<bool>(), 1..100),
    ) {
        let mut s = Scheduler::new();
        let ids: Vec<_> = times
            .iter()
            .enumerate()
            .map(|(i, &t)| (i, s.schedule_at(SimTime::from_nanos(t), i)))
            .collect();
        let mut kept = Vec::new();
        for (i, id) in &ids {
            if cancel_mask.get(*i).copied().unwrap_or(false) {
                s.cancel(*id);
            } else {
                kept.push(*i);
            }
        }
        let mut popped: Vec<usize> = Vec::new();
        while let Some((_, i)) = s.pop() {
            popped.push(i);
        }
        popped.sort_unstable();
        kept.sort_unstable();
        prop_assert_eq!(popped, kept);
    }

    /// The scheduler against a sorted-`Vec` reference model under any
    /// interleaving of schedule, cancel (of a pending, fired, already
    /// cancelled or repeated id), pop and `peek_time`: same delivery
    /// order, same `cancel` answers, same `len()` and `delivered()`
    /// after every step.
    #[test]
    fn scheduler_matches_reference_model(
        ops in proptest::collection::vec((0u8..8, 0u64..40, any::<u16>()), 1..400),
    ) {
        let mut s = Scheduler::new();
        // Reference: pending events as (at, payload), kept sorted by
        // (at, payload); payloads are issued in scheduling order, so
        // that is the (time, FIFO) order. `ids[payload]` is its handle.
        let mut pending: Vec<(u64, usize)> = Vec::new();
        let mut ids = Vec::new();
        let mut now = 0u64;
        let mut delivered = 0u64;
        for (op, delta, pick) in ops {
            match op {
                // Schedule, weighted to keep the queue populated.
                0..=3 => {
                    let at = now + delta;
                    let payload = ids.len();
                    ids.push(s.schedule_at(SimTime::from_nanos(at), payload));
                    let pos = pending.partition_point(|&e| e <= (at, payload));
                    pending.insert(pos, (at, payload));
                }
                // Cancel any id ever issued, whatever became of it.
                4 | 5 if !ids.is_empty() => {
                    let victim = pick as usize % ids.len();
                    let pos = pending.iter().position(|&(_, p)| p == victim);
                    if let Some(pos) = pos {
                        pending.remove(pos);
                    }
                    prop_assert_eq!(s.cancel(ids[victim]), pos.is_some());
                }
                6 => {
                    let expect = if pending.is_empty() { None } else { Some(pending.remove(0)) };
                    let got = s.pop().map(|(at, payload)| (at.as_nanos(), payload));
                    prop_assert_eq!(got, expect);
                    if let Some((at, _)) = expect {
                        now = at;
                        delivered += 1;
                    }
                    prop_assert_eq!(s.now().as_nanos(), now);
                }
                _ => {
                    let expect = pending.first().map(|&(at, _)| at);
                    prop_assert_eq!(s.peek_time().map(|t| t.as_nanos()), expect);
                }
            }
            prop_assert_eq!(s.len(), pending.len());
            prop_assert_eq!(s.is_empty(), pending.is_empty());
            prop_assert_eq!(s.delivered(), delivered);
        }
        // Drain: what is left comes out in reference order.
        for expect in pending {
            let got = s.pop().map(|(at, payload)| (at.as_nanos(), payload));
            prop_assert_eq!(got, Some(expect));
        }
        prop_assert!(s.pop().is_none());
        prop_assert_eq!(s.len(), 0);
    }

    /// Link delivery is FIFO for any jitter bound and submission pattern,
    /// and never earlier than physically possible.
    #[test]
    fn link_fifo_under_jitter(
        sizes in proptest::collection::vec(1u64..100_000, 1..100),
        gaps in proptest::collection::vec(0u64..10_000, 1..100),
        jitter_us in 0u64..100,
        seed in any::<u64>(),
    ) {
        let mut cfg = LinkConfig::simple(10_000_000_000, SimDuration::from_micros(5));
        cfg.jitter = SimDuration::from_micros(jitter_us);
        let mut link = Link::new(cfg.clone(), seed);
        let mut now = SimTime::ZERO;
        let mut prev_arrival = SimTime::ZERO;
        for (i, &size) in sizes.iter().enumerate() {
            now += SimDuration::from_nanos(*gaps.get(i).unwrap_or(&0));
            let arrival = link.transit(now, size);
            prop_assert!(arrival >= prev_arrival, "FIFO violated");
            // Physical lower bound: serialization + propagation.
            let min = now + cfg.tx_time(size) + cfg.propagation;
            prop_assert!(arrival >= min, "arrived before physically possible");
            prev_arrival = arrival;
        }
    }

    /// The transmission-time helper is monotone in payload size and
    /// inversely monotone in bandwidth.
    #[test]
    fn transmission_monotonicity(bytes in 1u64..1_000_000, bw in 1u64..100_000_000_000) {
        let t1 = SimDuration::transmission(bytes, bw);
        let t2 = SimDuration::transmission(bytes + 1, bw);
        prop_assert!(t2 >= t1);
        let t3 = SimDuration::transmission(bytes, bw * 2);
        prop_assert!(t3 <= t1);
        prop_assert!(t1.as_nanos() > 0);
    }

    /// RNG ranges stay in bounds for arbitrary parameters.
    #[test]
    fn rng_ranges_in_bounds(seed in any::<u64>(), lo in 0u64..1000, span in 0u64..1000) {
        let mut rng = Xoshiro256::new(seed);
        for _ in 0..100 {
            let x = rng.next_range(lo, lo + span);
            prop_assert!((lo..=lo + span).contains(&x));
        }
    }

    /// Identical seeds give identical streams, including through splits.
    #[test]
    fn rng_determinism(seed in any::<u64>()) {
        let mut a = Xoshiro256::new(seed);
        let mut b = Xoshiro256::new(seed);
        for _ in 0..50 {
            prop_assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut child_a = a.split();
        let mut child_b = b.split();
        for _ in 0..20 {
            prop_assert_eq!(child_a.next_u64(), child_b.next_u64());
            prop_assert_eq!(a.next_u64(), b.next_u64());
        }
    }
}
