//! Minimal offline stand-in for `proptest`.
//!
//! This build environment has no registry access, so the workspace
//! vendors the subset of proptest it uses: the [`Strategy`] trait with
//! uniform integer/bool/tuple/vec/map/union strategies, the
//! [`proptest!`], [`prop_oneof!`], [`prop_assert!`], [`prop_assert_eq!`]
//! and [`prop_assert_ne!`] macros, and [`ProptestConfig::with_cases`]. Inputs are generated from a
//! deterministic per-test, per-case RNG so failures reproduce across
//! runs. Differences from the real crate: no shrinking (a failing case
//! reports its inputs via the panic message Debug formatting where the
//! test includes them), and no regression-file persistence (the
//! `*.proptest-regressions` files in the tree are inert).

#![warn(missing_docs)]

use std::ops::{Range, RangeInclusive};

/// Test-runner plumbing: the deterministic RNG behind every strategy.
pub mod test_runner {
    /// SplitMix64-based deterministic RNG, seeded per test and case.
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// RNG for one test case: seed derived from the test name and
        /// case index so every run explores the same inputs.
        pub fn for_case(test_name: &str, case: u32) -> Self {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in test_name.bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
            TestRng {
                state: h ^ ((case as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            }
        }

        /// Next raw 64-bit value (SplitMix64).
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform value below `bound` (`bound` 0 yields 0).
        pub fn below(&mut self, bound: u64) -> u64 {
            if bound == 0 {
                0
            } else {
                // Modulo bias is irrelevant for test-input generation.
                self.next_u64() % bound
            }
        }
    }
}

use test_runner::TestRng;

/// A source of random values of one type.
///
/// Object-safe core (`sample`); combinators live on `Sized` adapters.
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Draws one value.
    fn sample(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<U, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }

    /// Type-erases the strategy (used by [`prop_oneof!`]).
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        Box::new(self)
    }
}

/// A type-erased strategy.
pub type BoxedStrategy<T> = Box<dyn Strategy<Value = T>>;

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;
    fn sample(&self, rng: &mut TestRng) -> T {
        (**self).sample(rng)
    }
}

/// Strategy returned by [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
    type Value = U;
    fn sample(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.sample(rng))
    }
}

/// Strategy that always yields a clone of one value.
#[derive(Clone, Debug)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn sample(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

macro_rules! int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as u64).wrapping_sub(self.start as u64);
                (self.start as u64).wrapping_add(rng.below(span)) as $t
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start() as u64, *self.end() as u64);
                assert!(lo <= hi, "empty range strategy");
                let span = hi - lo;
                if span == u64::MAX {
                    rng.next_u64() as $t
                } else {
                    lo.wrapping_add(rng.below(span + 1)) as $t
                }
            }
        }
    )*};
}

int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! tuple_strategy {
    ($(($($s:ident / $idx:tt),+);)*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn sample(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.sample(rng),)+)
            }
        }
    )*};
}

tuple_strategy! {
    (A / 0);
    (A / 0, B / 1);
    (A / 0, B / 1, C / 2);
    (A / 0, B / 1, C / 2, D / 3);
    (A / 0, B / 1, C / 2, D / 3, E / 4);
}

/// Types with a canonical full-domain strategy ([`any`]).
pub trait Arbitrary: Sized {
    /// Draws an unconstrained value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

macro_rules! int_arbitrary {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}

int_arbitrary!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Full-domain strategy for `T` (`any::<u64>()` etc.).
pub struct Any<T> {
    _marker: std::marker::PhantomData<fn() -> T>,
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn sample(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// Builds the full-domain strategy for `T`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any {
        _marker: std::marker::PhantomData,
    }
}

/// Weighted union of same-valued strategies (backs [`prop_oneof!`]).
pub struct Union<T> {
    arms: Vec<(u32, BoxedStrategy<T>)>,
    total: u64,
}

impl<T> Union<T> {
    /// Builds a union; weights must sum to a positive value.
    pub fn new(arms: Vec<(u32, BoxedStrategy<T>)>) -> Self {
        let total: u64 = arms.iter().map(|(w, _)| *w as u64).sum();
        assert!(total > 0, "prop_oneof! needs a positive total weight");
        Union { arms, total }
    }
}

impl<T> Strategy for Union<T> {
    type Value = T;
    fn sample(&self, rng: &mut TestRng) -> T {
        let mut pick = rng.below(self.total);
        for (w, s) in &self.arms {
            if pick < *w as u64 {
                return s.sample(rng);
            }
            pick -= *w as u64;
        }
        unreachable!("weights exhausted")
    }
}

/// Collection strategies (`proptest::collection::vec`).
pub mod collection {
    use super::{SizeRange, Strategy, TestRng};

    /// Strategy for vectors with lengths drawn from a [`SizeRange`].
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.max - self.size.min) as u64;
            let len = self.size.min + rng.below(span + 1) as usize;
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }

    /// Vector strategy: each element from `element`, length in `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }
}

/// Inclusive length bounds for collection strategies.
#[derive(Clone, Copy, Debug)]
pub struct SizeRange {
    /// Smallest admissible length.
    pub min: usize,
    /// Largest admissible length.
    pub max: usize,
}

impl From<Range<usize>> for SizeRange {
    fn from(r: Range<usize>) -> Self {
        assert!(r.start < r.end, "empty size range");
        SizeRange {
            min: r.start,
            max: r.end - 1,
        }
    }
}

impl From<RangeInclusive<usize>> for SizeRange {
    fn from(r: RangeInclusive<usize>) -> Self {
        SizeRange {
            min: *r.start(),
            max: *r.end(),
        }
    }
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> Self {
        SizeRange { min: n, max: n }
    }
}

/// Per-`proptest!`-block configuration.
#[derive(Clone, Copy, Debug)]
pub struct ProptestConfig {
    /// Number of random cases each test runs.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

impl ProptestConfig {
    /// A config running `cases` cases per test.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

/// Defines `#[test]` functions whose arguments are drawn from
/// strategies: `fn name(x in strategy, ...) { body }`.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest! { @cfg($cfg) $($rest)* }
    };
    (@cfg($cfg:expr) $(#[$meta:meta])* fn $name:ident($($arg:pat in $strat:expr),* $(,)?) $body:block $($rest:tt)*) => {
        $(#[$meta])*
        #[test]
        fn $name() {
            let cfg: $crate::ProptestConfig = $cfg;
            for case in 0..cfg.cases {
                let mut __proptest_rng = $crate::test_runner::TestRng::for_case(
                    concat!(module_path!(), "::", stringify!($name)),
                    case,
                );
                $(let $arg = $crate::Strategy::sample(&($strat), &mut __proptest_rng);)*
                $body
            }
        }
        $crate::proptest! { @cfg($cfg) $($rest)* }
    };
    (@cfg($cfg:expr)) => {};
    ($($rest:tt)*) => {
        $crate::proptest! { @cfg($crate::ProptestConfig::default()) $($rest)* }
    };
}

/// `assert!` under a proptest-compatible name.
#[macro_export]
macro_rules! prop_assert {
    ($($t:tt)*) => { assert!($($t)*) };
}

/// `assert_eq!` under a proptest-compatible name.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($t:tt)*) => { assert_eq!($($t)*) };
}

/// `assert_ne!` under a proptest-compatible name.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($t:tt)*) => { assert_ne!($($t)*) };
}

/// Weighted choice between strategies yielding the same type:
/// `prop_oneof![2 => a, 3 => b]` (weights optional).
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:expr => $strat:expr),+ $(,)?) => {
        $crate::Union::new(vec![
            $(($weight as u32, $crate::Strategy::boxed($strat))),+
        ])
    };
    ($($strat:expr),+ $(,)?) => {
        $crate::prop_oneof![$(1 => $strat),+]
    };
}

/// The glob-importable surface (`use proptest::prelude::*`).
pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest, Arbitrary,
        BoxedStrategy, Just, ProptestConfig, Strategy,
    };

    /// Alias matching `proptest::prelude::prop`.
    pub mod prop {
        pub use crate::collection;
    }
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn determinism() {
        let mut a = crate::test_runner::TestRng::for_case("t", 3);
        let mut b = crate::test_runner::TestRng::for_case("t", 3);
        assert_eq!(a.next_u64(), b.next_u64());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        fn ranges_stay_in_bounds(x in 5u32..10, y in 0u8..=255, flag in any::<bool>()) {
            prop_assert!((5..10).contains(&x));
            let _ = (y, flag);
        }

        fn vec_lengths_respected(v in crate::collection::vec(1u64..100, 2..6)) {
            prop_assert!((2..6).contains(&v.len()));
            prop_assert!(v.iter().all(|&x| (1..100).contains(&x)));
        }

        fn oneof_and_map(v in prop_oneof![2 => (1u16..5).prop_map(|x| x as u32), 1 => Just(99u32)]) {
            prop_assert!(v == 99 || (1..5).contains(&v));
        }
    }
}
