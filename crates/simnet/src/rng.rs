//! Small deterministic PRNGs.
//!
//! The simulation must be reproducible from a single `u64` seed, without
//! global state and without pulling the heavyweight `rand` machinery into
//! the hot path of the event loop. [`SplitMix64`] is used for seeding and
//! cheap per-entity streams; [`Xoshiro256`] (xoshiro256**) is the
//! general-purpose generator used for jitter and workload draws.
//!
//! The `blast` crate additionally uses the `rand` crate's distributions
//! for workload generation, seeded from these generators, keeping one
//! seed-to-everything chain.

/// SplitMix64: tiny, fast, passes BigCrush; ideal as a seeder.
#[derive(Clone, Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed. All seeds are valid.
    pub(crate) fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next 64 uniformly distributed bits.
    #[inline]
    pub(crate) fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// xoshiro256**: the workhorse generator.
#[derive(Clone, Debug)]
pub struct Xoshiro256 {
    s: [u64; 4],
}

impl Xoshiro256 {
    /// Creates a generator, expanding the seed through SplitMix64 as the
    /// xoshiro authors recommend.
    pub fn new(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let mut s = [0u64; 4];
        for slot in &mut s {
            *slot = sm.next_u64();
        }
        // The all-zero state is invalid; SplitMix64 cannot emit four zeros
        // for any seed, but guard anyway.
        if s == [0, 0, 0, 0] {
            s[0] = 0x1;
        }
        Xoshiro256 { s }
    }

    /// Next 64 uniformly distributed bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform draw in `[0, 1)` with 53 bits of precision: the draw of
    /// [`Xoshiro256::next_u53`], scaled by [`Xoshiro256::unit_f64`].
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        Self::unit_f64(self.next_u53())
    }

    /// Uniform draw in `[0, 2^53)`: the bits behind one
    /// [`Xoshiro256::next_f64`].
    #[inline]
    pub fn next_u53(&mut self) -> u64 {
        self.next_u64() >> 11
    }

    /// The [`Xoshiro256::next_f64`] value of the draw `k` of
    /// [`Xoshiro256::next_u53`]: `k / 2^53`, exact.
    #[inline]
    pub fn unit_f64(k: u64) -> f64 {
        k as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform draw in `[0, n)`. Uses Lemire's multiply-shift rejection
    /// method to avoid modulo bias.
    #[inline]
    pub fn next_below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "next_below(0)");
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (n as u128);
            let lo = m as u64;
            if lo >= n || lo >= (u64::MAX - n + 1) % n {
                // Accept unless in the biased low region.
                return (m >> 64) as u64;
            }
        }
    }

    /// Uniform draw in the inclusive range `[lo, hi]`.
    #[inline]
    pub fn next_range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "next_range: lo > hi");
        if lo == hi {
            return lo;
        }
        lo + self.next_below(hi - lo + 1)
    }

    /// Exponentially distributed draw with the given mean, via inverse
    /// transform sampling. Used for the paper's message-size law and for
    /// link jitter.
    #[inline]
    pub fn next_exponential(&mut self, mean: f64) -> f64 {
        assert!(mean > 0.0, "next_exponential: non-positive mean");
        // Avoid ln(0): next_f64 is in [0,1); 1-u is in (0,1].
        let u = 1.0 - self.next_f64();
        -mean * u.ln()
    }

    /// Derives an independent child generator (stream splitting).
    pub fn split(&mut self) -> Xoshiro256 {
        Xoshiro256::new(self.next_u64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn splitmix_differs_by_seed() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn xoshiro_is_deterministic() {
        let mut a = Xoshiro256::new(7);
        let mut b = Xoshiro256::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = Xoshiro256::new(3);
        for _ in 0..10_000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn below_is_in_range_and_covers() {
        let mut r = Xoshiro256::new(11);
        let mut seen = [false; 8];
        for _ in 0..10_000 {
            let x = r.next_below(8);
            assert!(x < 8);
            seen[x as usize] = true;
        }
        assert!(seen.iter().all(|&b| b), "all residues should appear");
    }

    #[test]
    fn range_inclusive() {
        let mut r = Xoshiro256::new(13);
        let mut saw_lo = false;
        let mut saw_hi = false;
        for _ in 0..50_000 {
            let x = r.next_range(5, 9);
            assert!((5..=9).contains(&x));
            saw_lo |= x == 5;
            saw_hi |= x == 9;
        }
        assert!(saw_lo && saw_hi);
        assert_eq!(r.next_range(4, 4), 4);
    }

    #[test]
    fn exponential_mean_is_close() {
        let mut r = Xoshiro256::new(17);
        let n = 200_000;
        let mean = 1000.0;
        let sum: f64 = (0..n).map(|_| r.next_exponential(mean)).sum();
        let observed = sum / n as f64;
        assert!(
            (observed - mean).abs() < mean * 0.02,
            "observed mean {observed} too far from {mean}"
        );
    }

    #[test]
    fn split_streams_are_independent_and_deterministic() {
        let mut parent1 = Xoshiro256::new(23);
        let mut parent2 = Xoshiro256::new(23);
        let mut c1 = parent1.split();
        let mut c2 = parent2.split();
        for _ in 0..50 {
            assert_eq!(c1.next_u64(), c2.next_u64());
        }
        // Child differs from parent continuation.
        assert_ne!(c1.next_u64(), parent1.next_u64());
    }

    #[test]
    #[should_panic(expected = "next_below(0)")]
    fn below_zero_panics() {
        Xoshiro256::new(1).next_below(0);
    }
}
