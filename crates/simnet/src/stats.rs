//! One declaration per counter: [`stats!`](crate::stats!) turns a table
//! of fields into the struct, its `merge`, its ratio accessors and its
//! schema, so a counter is written once.
//!
//! ```
//! simnet::stats! {
//!     /// Cache counters.
//!     #[derive(Clone, Debug, Default)]
//!     pub struct Cache: Merge {
//!         /// Lookups served from the cache.
//!         sum hits: u64,
//!         /// Lookups that went to the backing store.
//!         sum misses: u64,
//!         /// Most entries ever resident.
//!         max peak: u64,
//!         /// Fraction of lookups served from the cache.
//!         ratio hit_rate = hits / hits + misses,
//!     }
//! }
//! let mut a = Cache { hits: 3, misses: 1, peak: 4 };
//! a.merge(&Cache { hits: 1, misses: 3, peak: 2 });
//! assert_eq!((a.hits, a.misses, a.peak), (4, 4, 4));
//! assert_eq!(a.hit_rate(), 0.5);
//! assert_eq!(Cache::default().hit_rate(), 0.0);
//! ```
//!
//! An entry is a **field** — `RULE name: type,` where `RULE` is how two
//! values merge (`sum`, `max`, sticky `or`, or `val` for a plain value
//! that never merges) — or a **ratio** — `ratio name = num / den + den..,`
//! (or `/ constant`), optionally `cap 1.0` before the comma. A ratio
//! becomes an accessor `name() -> f64` that returns `0.0` over a zero
//! denominator. `: Merge` after the struct name derives [`Merge`].

use std::borrow::Borrow;

/// How a declared entry combines across two values of its struct.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Rule {
    /// Counts add.
    Sum,
    /// Peaks keep the larger.
    Max,
    /// Sticky flags stay set.
    Or,
    /// A plain value; its struct does not merge.
    None,
    /// Derived from other fields at read time, never stored.
    Ratio,
}

/// One declared entry of a [`stats!`](crate::stats!) struct.
#[derive(Clone, Copy, Debug)]
pub struct Field {
    /// Field or ratio name.
    pub name: &'static str,
    /// Its merge rule.
    pub rule: Rule,
}

/// A struct declared through [`stats!`](crate::stats!): its schema.
pub trait Stats {
    /// Every declared entry, in declaration order.
    const FIELDS: &'static [Field];
}

/// A [`Stats`] struct whose values combine field by field, each by its
/// declared [`Rule`]; `Default` is the identity.
pub trait Merge: Stats + Default {
    /// Folds `other` into `self`.
    fn merge(&mut self, other: &Self);
    /// A value with every stored field drawn from `next` (for
    /// [`check`]).
    #[doc(hidden)]
    fn sample(next: &mut dyn FnMut() -> u64) -> Self;
    /// Every stored field as a number, in declaration order (for
    /// [`check`]).
    #[doc(hidden)]
    fn values(&self) -> Vec<f64>;
}

/// Merges any number of parts into one total.
pub fn merged<T: Merge, B: Borrow<T>>(parts: impl IntoIterator<Item = B>) -> T {
    let mut total = T::default();
    for part in parts {
        total.merge(part.borrow());
    }
    total
}

/// `num / den`, or `None` when the denominator is zero.
pub fn ratio(num: f64, den: f64) -> Option<f64> {
    (den != 0.0).then(|| num / den)
}

/// A numeric field type: readable as `f64` (ratios), and drawable from
/// raw bits (the merge-law check).
#[doc(hidden)]
pub trait Counter: Copy {
    fn as_f64(self) -> f64;
    /// Small enough that sums of a few samples stay exact in `f64`.
    fn sample(raw: u64) -> Self;
}

impl Counter for u64 {
    fn as_f64(self) -> f64 {
        self as f64
    }
    fn sample(raw: u64) -> u64 {
        raw % (1 << 20)
    }
}

impl Counter for f64 {
    fn as_f64(self) -> f64 {
        self
    }
    fn sample(raw: u64) -> f64 {
        (raw % (1 << 20)) as f64 / 8.0
    }
}

impl Counter for bool {
    fn as_f64(self) -> f64 {
        u8::from(self).into()
    }
    fn sample(raw: u64) -> bool {
        raw & 1 == 1
    }
}

/// Declares a counter struct from one table; see the [module
/// docs](mod@crate::stats) for the entry grammar and an example.
#[macro_export]
macro_rules! stats {
    // ---- one entry per step, normalised into [fields] and [entries] ----
    (@munch $hdr:tt [$($fields:tt)*] [$($entries:tt)*]
        $(#[$m:meta])* ratio $r:ident = $num:ident / $den0:ident $(+ $den:ident)*
            $(cap $cap:literal)? , $($rest:tt)*) => {
        $crate::stats!(@munch $hdr [$($fields)*]
            [$($entries)* {ratio [$(#[$m])*] $r $num [$den0 $($den)*] [$($cap)?]}] $($rest)*);
    };
    (@munch $hdr:tt [$($fields:tt)*] [$($entries:tt)*]
        $(#[$m:meta])* ratio $r:ident = $num:ident / $k:literal , $($rest:tt)*) => {
        $crate::stats!(@munch $hdr [$($fields)*]
            [$($entries)* {ratio [$(#[$m])*] $r $num [$k] []}] $($rest)*);
    };
    (@munch $hdr:tt [$($fields:tt)*] [$($entries:tt)*]
        $(#[$m:meta])* $rule:ident $f:ident : $ty:ty , $($rest:tt)*) => {
        $crate::stats!(@munch $hdr [$($fields)* {$(#[$m])* $rule $f $ty}]
            [$($entries)* {field $rule $f}] $($rest)*);
    };
    // ---- table consumed: emit everything ----
    (@munch [$(#[$m:meta])* $name:ident $kind:ident]
        [$({$(#[$fm:meta])* $rule:ident $f:ident $ty:ty})*] [$($entries:tt)*]) => {
        $(#[$m])*
        pub struct $name {
            $($(#[$fm])* pub $f: $ty,)*
        }

        impl $crate::stats::Stats for $name {
            const FIELDS: &'static [$crate::stats::Field] = &[$($crate::stats!(@decl $entries)),*];
        }

        impl $name {
            $($crate::stats!(@accessor $entries);)*
        }

        $crate::stats!(@merge_impl $kind $name [$($rule $f)*]);
    };

    // ---- a ratio's accessor ----
    (@ratio $s:tt $num:ident [$($den:ident)+] [$($cap:literal)?]) => {
        $crate::stats::ratio(
            $crate::stats::Counter::as_f64($s.$num),
            $crate::stats::Counter::as_f64(0 $(+ $s.$den)+),
        )$(.map(|v| v.min($cap)))?
    };
    (@ratio $s:tt $num:ident [$k:literal] []) => {
        $crate::stats::ratio($crate::stats::Counter::as_f64($s.$num), $k)
    };
    (@accessor {ratio [$(#[$m:meta])*] $r:ident $num:ident $den:tt $cap:tt}) => {
        $(#[$m])*
        pub fn $r(&self) -> f64 {
            $crate::stats!(@ratio self $num $den $cap).unwrap_or(0.0)
        }
    };
    (@accessor {field $($rest:tt)*}) => {};

    // ---- the schema, one entry ----
    (@decl {field $rule:ident $f:ident}) => {
        $crate::stats::Field { name: stringify!($f), rule: $crate::stats!(@rule $rule) }
    };
    (@decl {ratio $docs:tt $r:ident $($rest:tt)*}) => {
        $crate::stats::Field { name: stringify!($r), rule: $crate::stats::Rule::Ratio }
    };
    (@rule sum) => { $crate::stats::Rule::Sum };
    (@rule max) => { $crate::stats::Rule::Max };
    (@rule or) => { $crate::stats::Rule::Or };
    (@rule val) => { $crate::stats::Rule::None };

    // ---- merge, one field ----
    (@merge sum $a:expr, $b:expr) => { $a += $b };
    (@merge max $a:expr, $b:expr) => { $a = $a.max($b) };
    (@merge or $a:expr, $b:expr) => { $a |= $b };
    (@merge val $a:expr, $b:expr) => {};
    (@merge_impl plain $name:ident $fields:tt) => {};
    (@merge_impl merge $name:ident [$($rule:ident $f:ident)*]) => {
        impl $crate::stats::Merge for $name {
            fn merge(&mut self, other: &Self) {
                $($crate::stats!(@merge $rule self.$f, other.$f);)*
            }
            fn sample(next: &mut dyn FnMut() -> u64) -> Self {
                Self { $($f: $crate::stats::Counter::sample(next()),)* }
            }
            fn values(&self) -> Vec<f64> {
                vec![$($crate::stats::Counter::as_f64(self.$f)),*]
            }
        }

        impl $name {
            /// Folds `other` into `self`, each field by its declared
            /// rule (counts sum, peaks take the max, flags stick).
            pub fn merge(&mut self, other: &Self) {
                <Self as $crate::stats::Merge>::merge(self, other)
            }
        }
    };

    // ---- entry points ----
    ($(#[$m:meta])* pub struct $name:ident : Merge { $($body:tt)* }) => {
        $crate::stats!(@munch [$(#[$m])* $name merge] [] [] $($body)*);
    };
    ($(#[$m:meta])* pub struct $name:ident { $($body:tt)* }) => {
        $crate::stats!(@munch [$(#[$m])* $name plain] [] [] $($body)*);
    };
}

/// Properties every [`stats!`](crate::stats!) struct must have, stated
/// over its declaration so a new counter is covered the moment it is
/// declared. Called from each crate's tests, one line per struct.
pub mod check {
    use super::{Merge, Rule};

    /// `merge` applies each field's declared rule, is associative, and
    /// has `T::default()` as its identity — on values drawn from
    /// `seed`.
    pub fn merge_follows_declaration<T: Merge + Clone>(seed: u64) {
        let mut rng = crate::rng::SplitMix64::new(seed);
        let mut draw = || T::sample(&mut || rng.next_u64());
        let (a, b, c) = (draw(), draw(), draw());
        let join = |x: &T, y: &T| {
            let mut out = x.clone();
            out.merge(y);
            out
        };

        let ab = join(&a, &b);
        // `values()` lists the stored fields in `FIELDS` order.
        let stored = T::FIELDS.iter().filter(|f| f.rule != Rule::Ratio);
        let operands = a.values().into_iter().zip(b.values()).zip(ab.values());
        for (field, ((x, y), got)) in stored.zip(operands) {
            let want = match field.rule {
                Rule::Sum => x + y,
                Rule::Max | Rule::Or => x.max(y),
                Rule::None | Rule::Ratio => x,
            };
            assert_eq!(got, want, "{} merges by {:?}", field.name, field.rule);
        }

        assert_eq!(
            join(&ab, &c).values(),
            join(&a, &join(&b, &c)).values(),
            "merge is associative"
        );
        assert_eq!(
            join(&a, &T::default()).values(),
            a.values(),
            "right identity"
        );
        assert_eq!(
            join(&T::default(), &a).values(),
            a.values(),
            "left identity"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::{check, Rule, Stats};

    crate::stats! {
        /// Every entry form the grammar has.
        #[derive(Clone, Debug, Default)]
        pub struct Sample: Merge {
            /// A count.
            sum hits: u64,
            /// Another.
            sum misses: u64,
            /// A peak.
            max peak: u64,
            /// A flag.
            or tripped: bool,
            /// Kept for the mean.
            sum rate_sum: f64,
            /// A peak rate.
            max rate_max: f64,
            /// Share of hits.
            ratio hit_rate = hits / hits + misses,
            /// Mean rate per hit.
            ratio rate_mean = rate_sum / hits cap 10.0,
        }
    }

    crate::stats! {
        /// A struct that does not merge.
        #[derive(Clone, Debug, Default)]
        pub struct Row {
            /// Bits per second.
            val bps: f64,
            /// Scaled by a constant.
            ratio mbps = bps / 1e6,
        }
    }

    #[test]
    fn one_declaration_gives_struct_merge_ratios_and_schema() {
        let mut a = Sample {
            hits: 3,
            misses: 1,
            peak: 4,
            tripped: false,
            rate_sum: 6.0,
            rate_max: 2.5,
        };
        a.merge(&Sample {
            hits: 1,
            misses: 3,
            peak: 2,
            tripped: true,
            rate_sum: 94.0,
            rate_max: 1.0,
        });
        assert_eq!((a.hits, a.misses, a.peak, a.tripped), (4, 4, 4, true));
        assert_eq!((a.rate_sum, a.rate_max), (100.0, 2.5));
        assert_eq!(a.hit_rate(), 0.5);
        assert_eq!(a.rate_mean(), 10.0, "100 / 4 capped at 10");
        let schema: Vec<_> = Sample::FIELDS.iter().map(|f| (f.name, f.rule)).collect();
        assert_eq!(
            schema,
            [
                ("hits", Rule::Sum),
                ("misses", Rule::Sum),
                ("peak", Rule::Max),
                ("tripped", Rule::Or),
                ("rate_sum", Rule::Sum),
                ("rate_max", Rule::Max),
                ("hit_rate", Rule::Ratio),
                ("rate_mean", Rule::Ratio),
            ]
        );
    }

    #[test]
    fn undefined_ratios_read_zero_and_constant_ones_scale() {
        let empty = Sample::default();
        assert_eq!((empty.hit_rate(), empty.rate_mean()), (0.0, 0.0));

        assert_eq!(Row { bps: 2.5e9 }.mbps(), 2500.0);
        assert_eq!(Row::default().mbps(), 0.0);
        let schema: Vec<_> = Row::FIELDS.iter().map(|f| (f.name, f.rule)).collect();
        assert_eq!(schema, [("bps", Rule::None), ("mbps", Rule::Ratio)]);
    }

    #[test]
    fn merge_laws_hold_for_every_rule() {
        for seed in 0..32 {
            check::merge_follows_declaration::<Sample>(seed);
        }
        let total: Sample = super::merged([Sample::default(), Sample::default()]);
        assert_eq!(total.hits, 0);
    }
}
