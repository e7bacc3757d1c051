//! Jittered host costs: one float formula, and exact tables of it for
//! the host model's fixed per-operation costs.
//!
//! A jittered cost of `ns` nanoseconds is [`jittered_ns`] of one 53-bit
//! draw `k`. For `jitter_frac ≥ 0` that value never decreases as `k`
//! grows: `u = k / 2^53` is exact, and each later step (`2u − 1`, the
//! product with the fraction, `1 +`, the product with `ns`,
//! [`round_ns`]) is a correctly rounded operation with a non-negative
//! or additive constant, so it keeps order. An integer-valued,
//! non-decreasing function of `k` is its value at 0 plus the number of
//! *thresholds* — the first draw reaching each later value — at or
//! below `k`. A [`DrawTable`] finds the thresholds by bisection on the
//! formula itself, so it equals the formula by construction, and looks
//! a draw up in a bucket index with at most one threshold per bucket:
//! one shift, one load, one compare.
//!
//! Tables are built once per process per `(cost, jitter_frac)`, when a
//! node first charges that cost (never when it is added: a repetition
//! builds a fresh `SimNet`), and kept in a list, not a hash map. Costs
//! that vary per call (copies, registrations, `NodeApi::charge` of
//! anything else) draw through the formula.

use std::cell::OnceCell;
use std::sync::{Arc, Mutex};

use simnet::{SimDuration, Xoshiro256};

use crate::host::HostModel;

/// `x.round().max(0.0) as u64`, exactly, without the libm call `round`
/// becomes on a target without SSE4.1. Halves round away from zero;
/// NaN and everything at or below zero give 0; from 2^52 up every
/// double is an integer, and the cast saturates as the original does.
#[inline]
fn round_ns(x: f64) -> u64 {
    const EXACT: f64 = (1u64 << 52) as f64;
    if x.is_nan() || x <= 0.0 {
        0
    } else if x >= EXACT {
        x as u64
    } else {
        // `x - t` is the exact fractional part below 2^52.
        let t = x as i64;
        (t + (x - t as f64 >= 0.5) as i64) as u64
    }
}

/// One jittered draw of a cost of `ns` nanoseconds: `ns` scaled by a
/// factor uniform in `[1 − frac, 1 + frac]`, from the 53-bit draw `k`.
#[inline]
fn jittered_ns(ns: u64, frac: f64, k: u64) -> u64 {
    let u = Xoshiro256::unit_f64(k);
    round_ns(ns as f64 * (1.0 + frac * (2.0 * u - 1.0)))
}

/// The largest 53-bit draw.
const TOP: u64 = (1 << 53) - 1;

/// A table is built for at most this many thresholds (`2·ns·frac`,
/// about), and indexed by at most this many buckets; beyond either the
/// cost draws through the formula.
const MAX_THRESHOLDS: u64 = 1 << 16;
const MAX_BUCKETS: u64 = 1 << 18;

/// [`jittered_ns`] of one cost at one jitter fraction, for every draw.
#[derive(Debug)]
struct DrawTable {
    /// A draw's bucket is `k >> shift`.
    shift: u32,
    /// Per bucket: the value of its first draw, and the threshold
    /// inside it (`u64::MAX` if none).
    buckets: Box<[(u64, u64)]>,
}

impl DrawTable {
    /// The table of `jittered_ns(ns, frac, ·)`, or `None` if it would be
    /// too large or `frac` is not a finite non-negative number.
    fn build(ns: u64, frac: f64) -> Option<Self> {
        if !(frac.is_finite() && frac >= 0.0) {
            return None;
        }
        let value = |k| jittered_ns(ns, frac, k);
        let first = value(0);
        let steps = value(TOP).checked_sub(first)?;
        if steps > MAX_THRESHOLDS {
            return None;
        }
        // The first draw reaching each value above `first`, by
        // bisection between the draw before the last threshold (below
        // the value sought) and the top (at or above it).
        let mut thresholds = Vec::with_capacity(steps as usize);
        let mut below = 0;
        for v in first + 1..=first + steps {
            let mut reaches = TOP;
            while reaches - below > 1 {
                let mid = below + (reaches - below) / 2;
                if value(mid) >= v {
                    reaches = mid;
                } else {
                    below = mid;
                }
            }
            thresholds.push(reaches);
            below = reaches - 1;
        }
        // Buckets no wider than the closest two thresholds hold one
        // each. Two equal thresholds (a value skipped) have no such
        // width.
        let closest = thresholds.windows(2).map(|w| w[1] - w[0]).min();
        let shift = match closest {
            None => 53,
            Some(0) => return None,
            Some(gap) => gap.ilog2(),
        };
        let count = (TOP >> shift) + 1;
        if count > MAX_BUCKETS {
            return None;
        }
        let mut buckets = vec![(first, u64::MAX); count as usize];
        let mut passed = 0;
        for (b, bucket) in buckets.iter_mut().enumerate() {
            bucket.0 = first + passed;
            if let Some(&t) = thresholds.get(passed as usize) {
                if t >> shift == b as u64 {
                    bucket.1 = t;
                    passed += 1;
                }
            }
        }
        Some(DrawTable {
            shift,
            buckets: buckets.into_boxed_slice(),
        })
    }

    /// [`jittered_ns`] of the table's cost for the 53-bit draw `k`.
    #[inline]
    fn value(&self, k: u64) -> u64 {
        let (base, threshold) = self.buckets[(k >> self.shift) as usize];
        base + (k >= threshold) as u64
    }
}

/// Every table built so far, by `(ns, jitter_frac bits)`: a handful,
/// searched in order.
type Tables = Vec<(u64, u64, Option<Arc<DrawTable>>)>;
static TABLES: Mutex<Tables> = Mutex::new(Vec::new());

/// The process's table of `(ns, frac)`, built on first request.
fn table(ns: u64, frac: f64) -> Option<Arc<DrawTable>> {
    // A poisoned list is still whole: its one update is a push after
    // the build.
    let mut tables = TABLES.lock().unwrap_or_else(|e| e.into_inner());
    let key = (ns, frac.to_bits());
    if let Some((.., t)) = tables.iter().find(|(n, f, _)| (*n, *f) == key) {
        return t.clone();
    }
    let t = DrawTable::build(ns, frac).map(Arc::new);
    tables.push((key.0, key.1, t.clone()));
    t
}

/// One node's jitter: its stream of draws, and the tables of its host
/// model's fixed per-operation costs, each looked up on first use.
pub(super) struct Jitter {
    frac: f64,
    rng: Xoshiro256,
    /// Post, poll, CQE processing, event wake-up and wake-up latency.
    fixed: [(u64, OnceCell<Option<Arc<DrawTable>>>); 5],
}

impl Jitter {
    pub(super) fn new(host: &HostModel, rng: Xoshiro256) -> Self {
        let fixed = [
            host.post_overhead,
            host.poll_overhead,
            host.cqe_process,
            host.event_wakeup,
            host.wakeup_latency,
        ]
        .map(|cost| (cost.as_nanos(), OnceCell::new()));
        Jitter {
            frac: host.jitter_frac,
            rng,
            fixed,
        }
    }

    /// The node's draw stream, for draws other than costs.
    pub(super) fn rng(&mut self) -> &mut Xoshiro256 {
        &mut self.rng
    }

    /// The sum of `n` successive jittered draws of `work`, in order; with
    /// no jitter, or nothing to jitter, `n × work` and no draw at all.
    #[inline]
    pub(super) fn draw_n(&mut self, work: SimDuration, n: u64) -> SimDuration {
        let frac = self.frac;
        if frac.is_nan() || frac <= 0.0 || work.is_zero() {
            return work.mul_u64(n);
        }
        let ns = work.as_nanos();
        let rng = &mut self.rng;
        let table = self
            .fixed
            .iter()
            .find(|(cost, _)| *cost == ns)
            .and_then(|(_, t)| t.get_or_init(|| table(ns, frac)).as_deref());
        let total = match table {
            Some(table) => (0..n).map(|_| table.value(rng.next_u53())).sum(),
            None => (0..n).map(|_| jittered_ns(ns, frac, rng.next_u53())).sum(),
        };
        SimDuration::from_nanos(total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles;

    #[test]
    fn round_ns_equals_round_max_cast() {
        let check = |x: f64| {
            let want = x.round().max(0.0) as u64;
            assert_eq!(round_ns(x), want, "{x:e} (bits {:#x})", x.to_bits());
        };
        let two = |e: i32| 2f64.powi(e);
        let edges = [
            0.0,
            -0.0,
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 4.0,
            -f64::MIN_POSITIVE / 4.0,
            f64::from_bits(1),
            -f64::from_bits(1),
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            -0.4,
            -0.5,
            -0.6,
            -1.5,
            -1e300,
            f64::MIN,
            f64::MAX,
            two(52) - 1.0,
            two(52) - 0.5,
            two(52),
            two(52) + 1.0,
            two(53),
            two(63),
            two(64),
        ];
        edges.into_iter().for_each(check);
        for k in 0..1u64 << 20 {
            let half = k as f64 + 0.5;
            for x in [half.next_down(), half, half.next_up()] {
                check(x);
            }
        }
        let mut rng = Xoshiro256::new(7);
        for _ in 0..1_000_000 {
            check(rng.next_f64() * two(53));
        }
    }

    /// Every fixed cost of every profile, at the profile's jitter and at
    /// 0 and 1.5 (which clamps a third of the draws at zero): the table
    /// equals the formula at both ends, on each side of every threshold
    /// and for a million seeded draws.
    #[test]
    fn tables_equal_the_formula() {
        let hosts = [
            profiles::fdr_infiniband(),
            profiles::qdr_infiniband(),
            profiles::roce_10g(SimDuration::from_micros(1)),
            profiles::fdr_infiniband_busy_poll(),
            profiles::iwarp_10g(),
            profiles::roce_10g_wan(),
            profiles::ideal(),
        ]
        .map(|p| p.host);
        let mut checked = Vec::new();
        for host in &hosts {
            let costs = Jitter::new(host, Xoshiro256::new(0))
                .fixed
                .map(|(ns, _)| ns);
            for frac in [host.jitter_frac, 0.0, 1.5] {
                for ns in costs {
                    if checked.contains(&(ns, frac.to_bits())) {
                        continue;
                    }
                    checked.push((ns, frac.to_bits()));
                    let t = DrawTable::build(ns, frac).expect("a table");
                    let same = |k: u64| {
                        assert_eq!(
                            t.value(k),
                            jittered_ns(ns, frac, k),
                            "{ns} ns, {frac}, k {k}"
                        );
                    };
                    same(0);
                    same(TOP);
                    for &(_, threshold) in t.buckets.iter().filter(|b| b.1 != u64::MAX) {
                        (threshold - 1..=(threshold + 1).min(TOP)).for_each(same);
                    }
                    let mut rng = Xoshiro256::new(ns ^ frac.to_bits());
                    (0..1_000_000).for_each(|_| same(rng.next_u53()));
                }
            }
        }
        assert!(checked.len() >= 20, "{checked:?}");
    }

    /// A node's draws are the formula's, through a table for a fixed
    /// cost and without one for any other, and one of `n` equals `n` of
    /// one.
    #[test]
    fn a_node_draws_what_the_formula_gives() {
        let host = profiles::roce_10g(SimDuration::from_micros(1)).host;
        let frac = host.jitter_frac;
        let mut jitter = Jitter::new(&host, Xoshiro256::new(5));
        let mut rng = Xoshiro256::new(5);
        for ns in [
            host.poll_overhead.as_nanos(),
            777,
            host.wakeup_latency.as_nanos(),
        ] {
            for n in [1, 3] {
                let got = jitter.draw_n(SimDuration::from_nanos(ns), n);
                let want: u64 = (0..n).map(|_| jittered_ns(ns, frac, rng.next_u53())).sum();
                assert_eq!(got.as_nanos(), want, "{ns} ns, n {n}");
            }
        }
        assert!(jitter.fixed[1].1.get().is_some_and(Option::is_some));
        assert!(
            jitter.fixed[0].1.get().is_none(),
            "built before its first use"
        );
    }

    #[test]
    fn no_table_where_one_would_be_huge_or_the_fraction_is_not_finite() {
        assert!(DrawTable::build(1 << 40, 0.3).is_none());
        assert!(DrawTable::build(500, f64::INFINITY).is_none());
        assert!(DrawTable::build(500, f64::NAN).is_none());
        let flat = DrawTable::build(500, 0.0).expect("a constant");
        assert_eq!(
            (flat.value(0), flat.value(TOP), flat.buckets.len()),
            (500, 500, 1)
        );
    }
}
