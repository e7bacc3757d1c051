//! One declaration per counter: [`stats!`](crate::stats!) turns a table
//! of fields into the struct, its `merge`, its JSON walk and its
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
//!         ratio hit_rate = hits / hits + misses [6],
//!     }
//! }
//! let mut a = Cache { hits: 3, misses: 1, peak: 4 };
//! a.merge(&Cache { hits: 1, misses: 3, peak: 2 });
//! assert_eq!(a.hit_rate(), 0.5);
//! assert_eq!(a.to_json(), r#"{"hits":4,"misses":4,"peak":4,"hit_rate":0.500000}"#);
//! assert_eq!(Cache::default().to_json(), r#"{"hits":0,"misses":0,"peak":0}"#);
//! ```
//!
//! An entry is a **field** — `RULE name: type [show],` where `RULE` is
//! how two values merge (`sum`, `max`, sticky `or`, or `val` for a
//! plain value that never merges) — or a **ratio** —
//! `ratio name = num / den + den.. [precision],` optionally `cap 1.0`.
//! `[show]` is absent (printed), `[hidden]` (stored, never printed),
//! `[3]` (a float's decimals) or `[if other]` / `[3 if other]`
//! (printed only when field `other` is non-zero). Entries print in
//! declaration order. A ratio becomes an accessor `name() -> f64` that
//! returns `0.0` over a zero denominator, and a JSON key that is
//! **absent** over a zero denominator — an undefined value is not a
//! measurement. `: Merge` after the struct name derives [`Merge`].

use std::borrow::Borrow;

use crate::json::{Object, Visit};

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
    /// Field or ratio name — also its JSON key.
    pub name: &'static str,
    /// Its merge rule.
    pub rule: Rule,
    /// Stored but never printed.
    pub hidden: bool,
}

/// A struct declared through [`stats!`](crate::stats!): its schema.
pub trait Stats: Visit {
    /// Every declared entry, in declaration (= JSON) order.
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

/// A field type the JSON walk can print without further instruction.
pub trait Value {
    /// Appends `key: self` to `o`.
    fn emit(&self, key: &str, o: &mut Object<'_>);
}

macro_rules! uint_value {
    ($($t:ty),*) => {$(
        impl Value for $t {
            fn emit(&self, key: &str, o: &mut Object<'_>) {
                o.uint(key, *self as u64);
            }
        }
    )*};
}
uint_value!(u32, u64);

impl Value for bool {
    fn emit(&self, key: &str, o: &mut Object<'_>) {
        o.boolean(key, *self);
    }
}

impl Value for &str {
    fn emit(&self, key: &str, o: &mut Object<'_>) {
        o.string(key, self);
    }
}

impl<T: Visit> Value for Vec<T> {
    fn emit(&self, key: &str, o: &mut Object<'_>) {
        o.objects(key, self);
    }
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
/// docs](crate::stats) for the entry grammar and an example.
#[macro_export]
macro_rules! stats {
    // ---- one entry per step, normalised into [fields] and [walk] ----
    (@munch $hdr:tt [$($fields:tt)*] [$($walk:tt)*]
        $(#[$m:meta])* ratio $r:ident = $num:ident / $den0:ident $(+ $den:ident)*
            [$p:literal] $(cap $cap:literal)? , $($rest:tt)*) => {
        $crate::stats!(@munch $hdr [$($fields)*]
            [$($walk)* {ratio [$(#[$m])*] $r $num [$den0 $($den)*] $p [$($cap)?]}] $($rest)*);
    };
    (@munch $hdr:tt [$($fields:tt)*] [$($walk:tt)*]
        $(#[$m:meta])* ratio $r:ident = $num:ident / $k:literal [$p:literal] , $($rest:tt)*) => {
        $crate::stats!(@munch $hdr [$($fields)*]
            [$($walk)* {ratio [$(#[$m])*] $r $num [$k] $p []}] $($rest)*);
    };
    (@munch $hdr:tt [$($fields:tt)*] [$($walk:tt)*]
        $(#[$m:meta])* $rule:ident $f:ident : $ty:ty $([$($show:tt)*])? , $($rest:tt)*) => {
        $crate::stats!(@munch $hdr [$($fields)* {$(#[$m])* $rule $f $ty}]
            [$($walk)* {field $rule $f [$($($show)*)?]}] $($rest)*);
    };
    // ---- table consumed: emit everything ----
    (@munch [$(#[$m:meta])* $name:ident $kind:ident]
        [$({$(#[$fm:meta])* $rule:ident $f:ident $ty:ty})*] [$($walk:tt)*]) => {
        $(#[$m])*
        pub struct $name {
            $($(#[$fm])* pub $f: $ty,)*
        }

        impl $crate::json::Visit for $name {
            fn visit(&self, o: &mut $crate::json::Object<'_>) {
                $($crate::stats!(@visit self o $walk);)*
            }
        }

        impl $crate::stats::Stats for $name {
            const FIELDS: &'static [$crate::stats::Field] = &[$($crate::stats!(@decl $walk)),*];
        }

        impl $name {
            /// The printed fields and the defined ratios, in
            /// declaration order, as one JSON object.
            pub fn to_json(&self) -> String {
                $crate::json::to_string(self)
            }

            $($crate::stats!(@accessor $walk);)*
        }

        $crate::stats!(@merge_impl $kind $name [$($rule $f)*]);
    };

    // ---- the JSON walk, one entry ----
    (@visit $s:tt $o:ident {field $rule:ident $f:ident []}) => {
        $crate::stats::Value::emit(&$s.$f, stringify!($f), $o)
    };
    (@visit $s:tt $o:ident {field $rule:ident $f:ident [hidden]}) => {};
    (@visit $s:tt $o:ident {field $rule:ident $f:ident [if $c:ident]}) => {
        if $s.$c != 0 {
            $crate::stats::Value::emit(&$s.$f, stringify!($f), $o)
        }
    };
    (@visit $s:tt $o:ident {field $rule:ident $f:ident [$p:literal]}) => {
        $o.float(stringify!($f), $s.$f, $p)
    };
    (@visit $s:tt $o:ident {field $rule:ident $f:ident [$p:literal if $c:ident]}) => {
        if $s.$c != 0 {
            $o.float(stringify!($f), $s.$f, $p)
        }
    };
    (@visit $s:tt $o:ident {ratio $docs:tt $r:ident $num:ident $den:tt $p:literal $cap:tt}) => {
        if let Some(v) = $crate::stats!(@ratio $s $num $den $cap) {
            $o.float(stringify!($r), v, $p)
        }
    };

    // ---- a ratio's one definition: accessor and walk both use it ----
    (@ratio $s:tt $num:ident [$($den:ident)+] [$($cap:literal)?]) => {
        $crate::stats::ratio(
            $crate::stats::Counter::as_f64($s.$num),
            $crate::stats::Counter::as_f64(0 $(+ $s.$den)+),
        )$(.map(|v| v.min($cap)))?
    };
    (@ratio $s:tt $num:ident [$k:literal] []) => {
        $crate::stats::ratio($crate::stats::Counter::as_f64($s.$num), $k)
    };
    (@accessor {ratio [$(#[$m:meta])*] $r:ident $num:ident $den:tt $p:literal $cap:tt}) => {
        $(#[$m])*
        pub fn $r(&self) -> f64 {
            $crate::stats!(@ratio self $num $den $cap).unwrap_or(0.0)
        }
    };
    (@accessor {field $($rest:tt)*}) => {};

    // ---- the schema, one entry ----
    (@decl {field $rule:ident $f:ident [hidden]}) => {
        $crate::stats::Field { name: stringify!($f), rule: $crate::stats!(@rule $rule), hidden: true }
    };
    (@decl {field $rule:ident $f:ident $show:tt}) => {
        $crate::stats::Field { name: stringify!($f), rule: $crate::stats!(@rule $rule), hidden: false }
    };
    (@decl {ratio $docs:tt $r:ident $($rest:tt)*}) => {
        $crate::stats::Field { name: stringify!($r), rule: $crate::stats::Rule::Ratio, hidden: false }
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
    use super::{Merge, Rule, Stats};

    /// The top-level keys of a JSON object, in order. Panics unless
    /// braces, brackets and quotes balance.
    pub fn keys(json: &str) -> Vec<String> {
        let (mut keys, mut stack, mut last) = (Vec::new(), Vec::new(), String::new());
        let mut chars = json.chars();
        while let Some(c) = chars.next() {
            match c {
                '"' => {
                    last.clear();
                    loop {
                        match chars.next().expect("unterminated string") {
                            '\\' => {
                                chars.next();
                            }
                            '"' => break,
                            c => last.push(c),
                        }
                    }
                }
                ':' if stack == ['{'] => keys.push(last.clone()),
                '{' | '[' => stack.push(c),
                '}' => assert_eq!(stack.pop(), Some('{'), "unbalanced in {json}"),
                ']' => assert_eq!(stack.pop(), Some('['), "unbalanced in {json}"),
                _ => {}
            }
        }
        assert!(stack.is_empty(), "unclosed nesting in {json}");
        keys
    }

    /// `json` prints declared keys only (hidden ones never), each at
    /// most once, in declaration order; with `complete`, every one of
    /// them.
    pub fn json_follows_declaration<T: Stats>(json: &str, complete: bool) {
        let shown = T::FIELDS.iter().filter(|f| !f.hidden);
        let declared: Vec<&str> = shown.map(|f| f.name).collect();
        let printed = keys(json);
        let mut rest = declared.iter();
        for key in &printed {
            assert!(
                rest.any(|d| d == key),
                "{key} undeclared, repeated or out of order: {printed:?} vs {declared:?}"
            );
        }
        if complete {
            assert_eq!(printed, declared, "a declared key is missing");
        }
    }

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
    use super::check;

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
            /// Kept for the mean, not printed.
            sum rate_sum: f64 [hidden],
            /// Printed only once sampled.
            max rate_max: f64 [3 if hits],
            /// Share of hits.
            ratio hit_rate = hits / hits + misses [6],
            /// Mean rate per hit.
            ratio rate_mean = rate_sum / hits [3] cap 10.0,
        }
    }

    crate::stats! {
        /// A struct that does not merge.
        #[derive(Clone, Debug, Default)]
        pub struct Row {
            /// Which row.
            val id: u32,
            /// Its label.
            val label: &'static str,
            /// Bits per second, printed in Mbit/s below.
            val bps: f64 [hidden],
            /// Only with a clock.
            val wall_ns: u64 [if wall_ns],
            /// Scaled by a constant.
            ratio mbps = bps / 1e6 [3],
        }
    }

    #[test]
    fn one_declaration_gives_struct_merge_json_and_schema() {
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
        assert_eq!(a.hit_rate(), 0.5);
        assert_eq!(a.rate_mean(), 10.0, "100 / 4 capped at 10");
        let json = a.to_json();
        assert_eq!(
            json,
            "{\"hits\":4,\"misses\":4,\"peak\":4,\"tripped\":true,\"rate_max\":2.500,\
             \"hit_rate\":0.500000,\"rate_mean\":10.000}"
        );
        check::json_follows_declaration::<Sample>(&json, true);
    }

    #[test]
    fn undefined_values_are_absent_from_json_and_zero_from_accessors() {
        let empty = Sample::default();
        assert_eq!(empty.hit_rate(), 0.0);
        let json = empty.to_json();
        assert_eq!(
            json,
            "{\"hits\":0,\"misses\":0,\"peak\":0,\"tripped\":false}"
        );
        check::json_follows_declaration::<Sample>(&json, false);

        let row = Row {
            id: 2,
            label: "x",
            bps: 2.5e9,
            wall_ns: 0,
        };
        assert_eq!(row.mbps(), 2500.0);
        assert_eq!(
            row.to_json(),
            "{\"id\":2,\"label\":\"x\",\"mbps\":2500.000}"
        );
        check::json_follows_declaration::<Row>(&row.to_json(), false);
    }

    #[test]
    fn merge_laws_hold_for_every_rule() {
        for seed in 0..32 {
            check::merge_follows_declaration::<Sample>(seed);
        }
        let total: Sample = super::merged([Sample::default(), Sample::default()]);
        assert_eq!(total.hits, 0);
    }

    #[test]
    #[should_panic(expected = "undeclared, repeated or out of order")]
    fn a_key_out_of_declaration_order_is_caught() {
        check::json_follows_declaration::<Sample>("{\"misses\":1,\"hits\":2}", false);
    }

    #[test]
    #[should_panic(expected = "unbalanced")]
    fn unbalanced_nesting_is_caught() {
        check::keys("{\"a\":[}");
    }
}
