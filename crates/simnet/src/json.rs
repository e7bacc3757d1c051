//! The one JSON writer: every `to_json` in the workspace is a [`Visit`]
//! walk rendered here.
//!
//! Dependency-free on purpose — the protocol crates must not pull in a
//! serialization framework to print counters. The writer owns the
//! syntax (keys, commas, nesting, arrays, float precision, string
//! escapes); callers only name keys and hand over values, so no other
//! module contains a quote-colon. Schema rules, applied here and in
//! [`crate::stats!`]:
//!
//! * a **document** (what [`document`] renders) starts with
//!   `"schema_version":`[`SCHEMA_VERSION`]; nested objects carry no
//!   version of their own;
//! * a key whose value is undefined for the run (a ratio over a zero
//!   denominator, a wall-clock field where no wall clock was sampled)
//!   is **absent**, never printed as `0`;
//! * a non-finite float prints as `null`, so every document parses.

use std::fmt::Write as _;

/// Version of the snapshot schema; bump when a key changes meaning.
/// 1: versioned documents, undefined values omitted.
pub const SCHEMA_VERSION: u64 = 1;

/// Something that can list its keys and values into a JSON object.
/// Closures `Fn(&mut Object)` are `Visit`, for one-off documents.
pub trait Visit {
    /// Writes this value's members, in order, into `o`.
    fn visit(&self, o: &mut Object<'_>);
}

impl<F: Fn(&mut Object<'_>)> Visit for F {
    fn visit(&self, o: &mut Object<'_>) {
        self(o)
    }
}

/// An open JSON object being written: each call appends one member.
pub struct Object<'a> {
    out: &'a mut String,
    empty: bool,
}

impl Object<'_> {
    fn key(&mut self, key: &str) {
        if !self.empty {
            self.out.push(',');
        }
        self.empty = false;
        let _ = write!(self.out, "\"{key}\":");
    }

    /// An unsigned integer member.
    pub fn uint(&mut self, key: &str, v: u64) {
        self.key(key);
        let _ = write!(self.out, "{v}");
    }

    /// A `true`/`false` member.
    pub fn boolean(&mut self, key: &str, v: bool) {
        self.key(key);
        let _ = write!(self.out, "{v}");
    }

    /// A float member printed with `precision` decimals (`null` when
    /// not finite).
    pub fn float(&mut self, key: &str, v: f64, precision: usize) {
        self.key(key);
        if v.is_finite() {
            let _ = write!(self.out, "{v:.precision$}");
        } else {
            self.out.push_str("null");
        }
    }

    /// A string member.
    pub fn string(&mut self, key: &str, v: &str) {
        self.key(key);
        push_string(self.out, v);
    }

    /// A nested object member.
    pub fn object(&mut self, key: &str, v: &impl Visit) {
        self.key(key);
        render(v, self.out);
    }

    /// An array-of-objects member, one element per item.
    pub fn objects<'v, T: Visit + 'v>(
        &mut self,
        key: &str,
        items: impl IntoIterator<Item = &'v T>,
    ) {
        self.key(key);
        self.out.push('[');
        for (i, v) in items.into_iter().enumerate() {
            if i > 0 {
                self.out.push(',');
            }
            render(v, self.out);
        }
        self.out.push(']');
    }

    /// An array-of-strings member.
    pub fn strings(&mut self, key: &str, items: impl IntoIterator<Item = impl AsRef<str>>) {
        self.key(key);
        self.out.push('[');
        for (i, s) in items.into_iter().enumerate() {
            if i > 0 {
                self.out.push(',');
            }
            push_string(self.out, s.as_ref());
        }
        self.out.push(']');
    }
}

fn push_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn render(v: &impl Visit, out: &mut String) {
    out.push('{');
    v.visit(&mut Object { out, empty: true });
    out.push('}');
}

/// Renders `v` as one bare JSON object (no schema version) — what a
/// stats struct's `to_json` returns and what nests inside a document.
pub fn to_string(v: &impl Visit) -> String {
    let mut out = String::new();
    render(v, &mut out);
    out
}

/// Renders `v` as a versioned document: its members after a leading
/// `schema_version`.
pub fn document(v: &impl Visit) -> String {
    to_string(&|o: &mut Object<'_>| {
        o.uint("schema_version", SCHEMA_VERSION);
        v.visit(o);
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn members_nest_and_separate() {
        let inner = |o: &mut Object<'_>| o.uint("n", 7);
        let doc = to_string(&|o: &mut Object<'_>| {
            o.uint("a", 1);
            o.boolean("b", true);
            o.float("c", 2.0 / 3.0, 3);
            o.float("nan", f64::NAN, 3);
            o.string("s", "q\"\\\n");
            o.object("inner", &inner);
            o.object("none", &|_: &mut Object<'_>| {});
            o.objects("rows", [&inner, &inner]);
            o.objects("no_rows", std::iter::empty::<&fn(&mut Object<'_>)>());
            o.strings("tags", ["x", "y"]);
        });
        assert_eq!(
            doc,
            "{\"a\":1,\"b\":true,\"c\":0.667,\"nan\":null,\"s\":\"q\\\"\\\\\\u000a\",\
             \"inner\":{\"n\":7},\"none\":{},\"rows\":[{\"n\":7},{\"n\":7}],\
             \"no_rows\":[],\"tags\":[\"x\",\"y\"]}"
        );
    }

    #[test]
    fn document_leads_with_the_schema_version() {
        let doc = document(&|o: &mut Object<'_>| o.uint("x", 3));
        assert_eq!(doc, "{\"schema_version\":1,\"x\":3}");
        assert_eq!(document(&|_: &mut Object<'_>| {}), "{\"schema_version\":1}");
    }
}
