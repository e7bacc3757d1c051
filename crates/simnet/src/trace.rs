//! Bounded event tracing.
//!
//! A [`TraceRing`] keeps the last `N` trace records so that a failing test
//! or a misbehaving protocol run can dump the recent simulation history
//! without unbounded memory growth. Tracing is structural (time + tag +
//! free-form detail), cheap when disabled, and entirely optional: the hot
//! paths only format the detail string when a ring is attached and
//! enabled.

use std::collections::VecDeque;
use std::fmt;

use crate::time::SimTime;

/// One trace record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceRecord {
    /// Virtual time of the event.
    pub at: SimTime,
    /// Short static category, e.g. `"wwi"`, `"advert"`, `"copy"`.
    pub tag: &'static str,
    /// Free-form details.
    pub detail: String,
}

impl fmt::Display for TraceRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {:10} {}", self.at, self.tag, self.detail)
    }
}

/// Fixed-capacity ring of recent trace records.
pub struct TraceRing {
    records: VecDeque<TraceRecord>,
    capacity: usize,
    enabled: bool,
    total: u64,
}

impl TraceRing {
    /// Creates an enabled ring holding at most `capacity` records.
    pub fn new(capacity: usize) -> Self {
        TraceRing {
            records: VecDeque::with_capacity(capacity.min(4096)),
            capacity: capacity.max(1),
            enabled: true,
            total: 0,
        }
    }

    /// Creates a disabled ring (records are counted but not stored).
    pub fn disabled() -> Self {
        let mut r = TraceRing::new(1);
        r.enabled = false;
        r
    }

    /// Whether records are currently being stored.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Appends a record, evicting the oldest if at capacity.
    pub fn push(&mut self, at: SimTime, tag: &'static str, detail: impl Into<String>) {
        self.total += 1;
        if !self.enabled {
            return;
        }
        if self.records.len() == self.capacity {
            self.records.pop_front();
        }
        self.records.push_back(TraceRecord {
            at,
            tag,
            detail: detail.into(),
        });
    }

    /// Records currently retained, oldest first.
    pub fn records(&self) -> impl Iterator<Item = &TraceRecord> {
        self.records.iter()
    }

    /// Number of records retained.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True if nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Total number of records ever pushed (including dropped/disabled).
    pub fn total_pushed(&self) -> u64 {
        self.total
    }

    /// Renders the retained records, one per line — used in panic messages
    /// from invariant checks.
    pub fn dump(&self) -> String {
        let mut out = String::new();
        for r in &self.records {
            out.push_str(&r.to_string());
            out.push('\n');
        }
        out
    }

    /// Drops all retained records.
    pub fn clear(&mut self) {
        self.records.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_only_last_n() {
        let mut ring = TraceRing::new(3);
        for i in 0..5 {
            ring.push(SimTime::from_nanos(i), "t", format!("e{i}"));
        }
        let details: Vec<_> = ring.records().map(|r| r.detail.as_str()).collect();
        assert_eq!(details, vec!["e2", "e3", "e4"]);
        assert_eq!(ring.total_pushed(), 5);
        assert_eq!(ring.len(), 3);
    }

    #[test]
    fn disabled_counts_but_does_not_store() {
        let mut ring = TraceRing::disabled();
        ring.push(SimTime::ZERO, "t", "x");
        assert!(ring.is_empty());
        assert_eq!(ring.total_pushed(), 1);
        assert!(!ring.is_enabled());
    }

    #[test]
    fn dump_and_clear() {
        let mut ring = TraceRing::new(2);
        ring.push(SimTime::from_micros(1), "wwi", "len=5");
        let d = ring.dump();
        assert!(d.contains("wwi"));
        assert!(d.contains("len=5"));
        ring.clear();
        assert!(ring.is_empty());
    }
}
