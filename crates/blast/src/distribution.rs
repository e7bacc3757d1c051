//! Message-size distributions.
//!
//! The paper's headline experiments draw message sizes "at random from an
//! exponential distribution with λ = 1 and a maximum message size of
//! 4 MiB" (Fig. 9, 10, 13); the message-size sweeps (Fig. 11, 12) use
//! fixed sizes. The future-work section motivates bursty and
//! time-varying size patterns, which the ablation benchmarks exercise
//! via [`SizeDist::Bursty`].

use simnet::Xoshiro256;

/// A message-size law.
///
/// ```
/// use blast::SizeDist;
///
/// // The paper's workload: exponential, mean 1 MiB, truncated at 4 MiB.
/// let sizes = SizeDist::paper_default().sample_many(7, 1000);
/// assert!(sizes.iter().all(|&s| (1..=4 << 20).contains(&s)));
/// // Deterministic per seed.
/// assert_eq!(sizes, SizeDist::paper_default().sample_many(7, 1000));
/// ```
#[derive(Clone, Debug, PartialEq)]
pub enum SizeDist {
    /// Every message has the same size.
    Fixed(u64),
    /// Exponentially distributed with the given mean, truncated to
    /// `[1, max]` — the paper's blast workload (mean 1 MiB, max 4 MiB).
    Exponential {
        /// Mean size in bytes (before truncation).
        mean: u64,
        /// Upper truncation bound.
        max: u64,
    },
    /// Uniform in `[lo, hi]`.
    Uniform {
        /// Smallest size.
        lo: u64,
        /// Largest size.
        hi: u64,
    },
    /// Alternating bursts: `burst_len` messages of `large` bytes, then
    /// `burst_len` messages of `small` bytes (future-work ablation:
    /// "dynamically changing send and receive message sizes and
    /// burstiness during a connection").
    Bursty {
        /// Size during the large burst.
        large: u64,
        /// Size during the small burst.
        small: u64,
        /// Messages per burst.
        burst_len: u32,
    },
}

impl SizeDist {
    /// The paper's default blast workload: exponential, mean 1 MiB,
    /// max 4 MiB.
    pub fn paper_default() -> SizeDist {
        SizeDist::Exponential {
            mean: 1 << 20,
            max: 4 << 20,
        }
    }

    /// Largest size this law can produce (used to size receive buffers).
    pub fn max_size(&self) -> u64 {
        match *self {
            SizeDist::Fixed(n) => n,
            SizeDist::Exponential { max, .. } => max,
            SizeDist::Uniform { hi, .. } => hi,
            SizeDist::Bursty { large, small, .. } => large.max(small),
        }
    }

    /// Draws one message size.
    pub fn sample(&self, rng: &mut Xoshiro256, index: u64) -> u64 {
        match *self {
            SizeDist::Fixed(n) => n.max(1),
            SizeDist::Exponential { mean, max } => {
                let x = rng.next_exponential(mean as f64);
                (x as u64).clamp(1, max)
            }
            SizeDist::Uniform { lo, hi } => rng.next_range(lo.max(1), hi.max(1)),
            SizeDist::Bursty {
                large,
                small,
                burst_len,
            } => {
                let burst = (index / burst_len.max(1) as u64) % 2;
                if burst == 0 {
                    large.max(1)
                } else {
                    small.max(1)
                }
            }
        }
    }

    /// Draws a whole workload of `count` messages.
    pub fn sample_many(&self, seed: u64, count: usize) -> Vec<u64> {
        // A fixed law draws nothing from the RNG: one fill instead of a
        // per-message loop, whose speed followed its code alignment.
        if let SizeDist::Fixed(n) = *self {
            return vec![n.max(1); count];
        }
        let mut rng = Xoshiro256::new(seed);
        (0..count)
            .map(|i| self.sample(&mut rng, i as u64))
            .collect()
    }

    /// Draws messages until at least `budget` total bytes.
    pub fn sample_budget(&self, seed: u64, budget: u64) -> Vec<u64> {
        let mut rng = Xoshiro256::new(seed);
        let mut out = Vec::new();
        let mut total = 0u64;
        let mut i = 0u64;
        while total < budget {
            let n = self.sample(&mut rng, i);
            total += n;
            out.push(n);
            i += 1;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_is_constant() {
        let sizes = SizeDist::Fixed(4096).sample_many(1, 100);
        assert!(sizes.iter().all(|&s| s == 4096));
        assert_eq!(SizeDist::Fixed(7).max_size(), 7);
    }

    #[test]
    fn exponential_respects_bounds_and_mean() {
        let d = SizeDist::paper_default();
        let sizes = d.sample_many(7, 50_000);
        assert!(sizes.iter().all(|&s| (1..=4 << 20).contains(&s)));
        let mean = sizes.iter().sum::<u64>() as f64 / sizes.len() as f64;
        // Truncation at 4 MiB pulls the mean below 1 MiB a little.
        assert!(
            (0.75e6..=1.1e6).contains(&mean),
            "observed mean {mean} out of band"
        );
        assert_eq!(d.max_size(), 4 << 20);
    }

    #[test]
    fn uniform_covers_range() {
        let d = SizeDist::Uniform { lo: 10, hi: 20 };
        let sizes = d.sample_many(3, 10_000);
        assert!(sizes.iter().all(|&s| (10..=20).contains(&s)));
        assert!(sizes.contains(&10));
        assert!(sizes.contains(&20));
    }

    #[test]
    fn bursty_alternates() {
        let d = SizeDist::Bursty {
            large: 1000,
            small: 10,
            burst_len: 3,
        };
        let sizes = d.sample_many(5, 12);
        assert_eq!(
            sizes,
            vec![1000, 1000, 1000, 10, 10, 10, 1000, 1000, 1000, 10, 10, 10]
        );
    }

    #[test]
    fn budget_sampling_reaches_budget() {
        let d = SizeDist::Fixed(1000);
        let sizes = d.sample_budget(1, 9_500);
        assert_eq!(sizes.len(), 10);
        assert!(sizes.iter().sum::<u64>() >= 9_500);
    }

    #[test]
    fn deterministic_per_seed() {
        let d = SizeDist::paper_default();
        assert_eq!(d.sample_many(9, 100), d.sample_many(9, 100));
        assert_ne!(d.sample_many(9, 100), d.sample_many(10, 100));
    }
}
