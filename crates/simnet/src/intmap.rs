//! Hash maps keyed by integer ids the program chose itself.
//!
//! `std`'s default hasher (SipHash, randomly keyed) defends a map
//! against keys an adversary picked to collide. Work-request ids,
//! sequence numbers and slot numbers are not such keys, and on the
//! per-message path SipHash costs more than the lookup it serves.
//! [`IntMap`] is `HashMap` with one multiply and one fold per key
//! instead. Do not use it for keys that arrive from outside the
//! program. Iteration order is a function of the keys and the insertion
//! history alone, so it repeats from run to run.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` hashed by `IntHasher`.
pub type IntMap<K, V> = HashMap<K, V, BuildHasherDefault<IntHasher>>;

/// Multiplicative hashing for integer keys (64-bit golden-ratio
/// constant), folded before and after the multiply so that both the
/// low bits, which pick the bucket, and the high bits, which tag it,
/// depend on every bit of the key — ids that differ only in their high
/// half included.
#[derive(Clone, Copy, Default)]
pub struct IntHasher(u64);

impl IntHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        let x = self.0.rotate_left(5) ^ word;
        self.0 = (x ^ (x >> 32)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

impl Hasher for IntHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 29)
    }

    /// Keys that are not plain integers (tuples and newtypes of them
    /// arrive through the typed methods below) are folded eight bytes at
    /// a time.
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.mix(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.mix(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.mix(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.mix(n as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    #[test]
    fn behaves_as_a_map() {
        let mut m: IntMap<u64, &str> = IntMap::default();
        m.insert(7, "seven");
        m.insert(u64::MAX, "max");
        assert_eq!(m.get(&7), Some(&"seven"));
        assert_eq!(m.remove(&u64::MAX), Some("max"));
        assert_eq!(m.get(&8), None);
        assert_eq!(m.len(), 1);
    }

    /// Sequential ids and ids that differ only in high bits (strided,
    /// shifted) must both spread over the low bits that pick a bucket
    /// and the top seven that tag it.
    #[test]
    fn dense_and_strided_keys_spread_over_bucket_and_tag_bits() {
        let build = BuildHasherDefault::<IntHasher>::default();
        for stride in [1u64, 64, 4096, 1 << 32, 1 << 48] {
            let mut buckets = std::collections::BTreeSet::new();
            let mut tags = std::collections::BTreeSet::new();
            for i in 0..1024u64 {
                let h = build.hash_one(i * stride);
                buckets.insert(h & 1023);
                tags.insert(h >> 57);
            }
            assert!(
                buckets.len() > 512,
                "stride {stride}: {} buckets",
                buckets.len()
            );
            assert!(tags.len() > 120, "stride {stride}: {} tags", tags.len());
        }
    }
}
