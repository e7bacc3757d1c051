//! Deterministic event scheduler.
//!
//! A [`Scheduler`] is a priority queue of `(SimTime, payload)` pairs with
//! three properties the rest of the stack depends on:
//!
//! 1. **Monotonic clock.** Popping an event advances the virtual clock;
//!    scheduling in the past is a logic error and panics.
//! 2. **Stable ordering.** Events scheduled for the same instant are
//!    delivered in the order they were scheduled (FIFO tie-break via a
//!    monotonically increasing sequence number). This is what makes whole
//!    simulation runs reproducible.
//! 3. **Cancellation.** Every scheduled event gets an [`EventId`];
//!    cancelling drops the payload at once and the event is never
//!    delivered. This implements timers cheaply without rebuilding the
//!    heap.
//!
//! The heap orders entries by one `u128` key, `at << 64 | seq` — the
//! `(at, seq)` order in a single compare, since `seq` is unique — and
//! carries the payload's slot beside it; each payload
//! waits in a [`Slab`] slot, stamped with its sequence number, and is
//! moved twice in its life — in at `schedule_at`, out at `pop` — however
//! deep the heap is. Cancelling empties the slot and leaves the key
//! behind; `pop` and `peek_time` discard keys whose slot is empty, and
//! only then is the slot reused, so a key never names another event's
//! payload. An [`EventId`] is the slot plus the stamp: an id whose event
//! fired or was cancelled finds the slot vacant, empty or restamped, and
//! [`Scheduler::cancel`] answers `false` without keeping any record of
//! it.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::slab::Slab;
use crate::time::SimTime;

/// Handle for a scheduled event, usable to cancel it before it fires.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct EventId {
    seq: u64,
    slot: u32,
}

/// A heap entry: the `(at, seq)` key as one number, and the slot of the
/// payload. Ordered on the key alone, reversed, so that `BinaryHeap`
/// (a max-heap) pops the earliest; `seq` is unique, so two entries
/// never tie and the slot never decides an ordering.
#[derive(Clone, Copy, PartialEq, Eq)]
struct Entry {
    key: u128,
    slot: u32,
}

impl Entry {
    fn new(at: SimTime, seq: u64, slot: u32) -> Self {
        Entry {
            key: (at.as_nanos() as u128) << 64 | seq as u128,
            slot,
        }
    }

    fn at(&self) -> SimTime {
        SimTime::from_nanos((self.key >> 64) as u64)
    }
}

impl Ord for Entry {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        other.key.cmp(&self.key)
    }
}

impl PartialOrd for Entry {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A deterministic discrete-event queue with a virtual clock.
///
/// ```
/// use simnet::{Scheduler, SimTime};
///
/// let mut sched = Scheduler::new();
/// sched.schedule_at(SimTime::from_micros(3), "later");
/// sched.schedule_at(SimTime::from_micros(1), "sooner");
///
/// let (at, what) = sched.pop().unwrap();
/// assert_eq!((at, what), (SimTime::from_micros(1), "sooner"));
/// assert_eq!(sched.now(), SimTime::from_micros(1));
/// ```
pub struct Scheduler<E> {
    /// Min-heap on `(at, seq)`, one key per entry.
    heap: BinaryHeap<Entry>,
    /// One slot per key in the heap: the event's sequence number and
    /// its payload, `None` once cancelled.
    payloads: Slab<(u64, Option<E>)>,
    now: SimTime,
    next_seq: u64,
    live: usize,
    popped: u64,
}

impl<E> Default for Scheduler<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Scheduler<E> {
    /// Creates an empty scheduler with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        Scheduler {
            heap: BinaryHeap::new(),
            payloads: Slab::new(),
            now: SimTime::ZERO,
            next_seq: 0,
            live: 0,
            popped: 0,
        }
    }

    /// The current virtual time: the timestamp of the most recently popped
    /// event (or zero before any pop).
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of live (not cancelled) events still queued.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True if no live events remain.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Total number of events delivered so far.
    pub fn delivered(&self) -> u64 {
        self.popped
    }

    /// Schedules `payload` to fire at absolute time `at`.
    ///
    /// # Panics
    /// Panics if `at` is earlier than the current clock.
    pub fn schedule_at(&mut self, at: SimTime, payload: E) -> EventId {
        assert!(
            at >= self.now,
            "scheduling into the past: at={at:?} now={:?}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        let slot = self.payloads.insert((seq, Some(payload)));
        self.heap.push(Entry::new(at, seq, slot));
        self.live += 1;
        EventId { seq, slot }
    }

    /// Schedules `payload` to fire `delay` after the current clock.
    pub fn schedule_after(&mut self, delay: crate::time::SimDuration, payload: E) -> EventId {
        self.schedule_at(self.now + delay, payload)
    }

    /// Cancels a pending event, dropping its payload. Returns `true` if
    /// the event was still pending (it will now never be delivered),
    /// `false` if it already fired or was already cancelled.
    pub fn cancel(&mut self, id: EventId) -> bool {
        match self.payloads.get_mut(id.slot) {
            Some((seq, payload)) if *seq == id.seq && payload.is_some() => {
                *payload = None;
                self.live -= 1;
                true
            }
            _ => false,
        }
    }

    /// Pops the next live event, advancing the clock to its timestamp.
    /// Returns `None` when the queue is exhausted.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_until(SimTime::MAX)
    }

    /// [`Scheduler::pop`], refusing an event later than `limit`: that
    /// event stays queued in its place (same sequence number, so events
    /// of one instant keep their order), the clock does not move and
    /// nothing is counted as delivered. `None` therefore means "nothing
    /// left at or before `limit`"; [`Scheduler::is_empty`] tells a
    /// drained queue from a horizon.
    pub fn pop_until(&mut self, limit: SimTime) -> Option<(SimTime, E)> {
        // The top key is the earliest of all, live or cancelled: once it
        // is past `limit`, so is every live event.
        while let Some(&top) = self.heap.peek() {
            let (at, slot) = (top.at(), top.slot);
            if at > limit {
                return None;
            }
            self.heap.pop();
            let (_, payload) = self.payloads.remove(slot).expect("heap key without a slot");
            let Some(payload) = payload else {
                continue; // cancelled
            };
            debug_assert!(at >= self.now, "event queue went backwards");
            self.now = at;
            self.live -= 1;
            self.popped += 1;
            return Some((at, payload));
        }
        None
    }

    /// The timestamp of the next live event without popping it.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        // Drop cancelled keys from the top so peek is accurate.
        while let Some(&top) = self.heap.peek() {
            if matches!(self.payloads.get(top.slot), Some((_, Some(_)))) {
                return Some(top.at());
            }
            self.heap.pop();
            self.payloads.remove(top.slot);
        }
        None
    }

    /// Advances the clock to `to` without delivering events. Used by
    /// drivers that interleave external work with the event queue.
    ///
    /// # Panics
    /// Panics if `to` is in the past or earlier than a pending event.
    pub fn advance_to(&mut self, to: SimTime) {
        assert!(to >= self.now, "advance_to into the past");
        if let Some(next) = self.peek_time() {
            assert!(
                to <= next,
                "advance_to would skip a pending event at {next:?}"
            );
        }
        self.now = to;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn delivers_in_time_order() {
        let mut s = Scheduler::new();
        s.schedule_at(SimTime::from_nanos(30), "c");
        s.schedule_at(SimTime::from_nanos(10), "a");
        s.schedule_at(SimTime::from_nanos(20), "b");
        let order: Vec<_> = std::iter::from_fn(|| s.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
        assert_eq!(s.now(), SimTime::from_nanos(30));
        assert_eq!(s.delivered(), 3);
    }

    #[test]
    fn simultaneous_events_are_fifo() {
        let mut s = Scheduler::new();
        let t = SimTime::from_nanos(5);
        for i in 0..100 {
            s.schedule_at(t, i);
        }
        let order: Vec<_> = std::iter::from_fn(|| s.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    /// The one-key heap pops in `(at, seq)` order: at `SimTime`'s
    /// extremes, with the sequence numbers near their top (the low half
    /// of the key must never carry into the time), and against a
    /// sorted model through interleaved pushes and pops with many ties.
    #[test]
    fn the_one_key_keeps_time_then_scheduling_order() {
        let times = [
            SimTime::MAX,
            SimTime::ZERO,
            SimTime::from_nanos(1),
            SimTime::from_nanos(u64::MAX - 1),
            SimTime::MAX,
            SimTime::from_nanos(1 << 63),
            SimTime::ZERO,
            SimTime::from_nanos((1 << 63) - 1),
            SimTime::from_nanos(1),
        ];
        for first_seq in [0, u64::MAX - times.len() as u64] {
            let mut s = Scheduler::new();
            s.next_seq = first_seq;
            for (i, &t) in times.iter().enumerate() {
                s.schedule_at(t, i);
            }
            let mut want: Vec<_> = times.iter().enumerate().map(|(i, &t)| (t, i)).collect();
            want.sort();
            let got: Vec<_> = std::iter::from_fn(|| s.pop()).collect();
            assert_eq!(got, want, "first seq {first_seq}");
        }

        let mut rng = crate::Xoshiro256::new(3);
        let mut s = Scheduler::new();
        let mut model = std::collections::BTreeSet::new();
        for seq in 0..20_000u64 {
            if rng.next_below(3) == 0 {
                let (at, got) = s.pop().unwrap();
                assert_eq!((at, got), model.pop_first().unwrap());
            }
            let at = s.now() + SimDuration::from_nanos(rng.next_below(4));
            s.schedule_at(at, seq);
            model.insert((at, seq));
        }
        let rest: Vec<_> = std::iter::from_fn(|| s.pop()).collect();
        assert_eq!(rest, model.into_iter().collect::<Vec<_>>());
    }

    #[test]
    fn schedule_after_uses_clock() {
        let mut s = Scheduler::new();
        s.schedule_at(SimTime::from_nanos(10), "a");
        s.pop().unwrap();
        s.schedule_after(SimDuration::from_nanos(5), "b");
        let (t, e) = s.pop().unwrap();
        assert_eq!(e, "b");
        assert_eq!(t, SimTime::from_nanos(15));
    }

    #[test]
    #[should_panic(expected = "scheduling into the past")]
    fn scheduling_in_past_panics() {
        let mut s = Scheduler::new();
        s.schedule_at(SimTime::from_nanos(10), ());
        s.pop();
        s.schedule_at(SimTime::from_nanos(5), ());
    }

    #[test]
    fn cancel_prevents_delivery() {
        let mut s = Scheduler::new();
        let a = s.schedule_at(SimTime::from_nanos(1), "a");
        s.schedule_at(SimTime::from_nanos(2), "b");
        assert!(s.cancel(a));
        assert_eq!(s.len(), 1);
        let (_, e) = s.pop().unwrap();
        assert_eq!(e, "b");
        assert!(s.pop().is_none());
    }

    #[test]
    fn cancel_unknown_or_fired_is_false() {
        let mut s = Scheduler::new();
        let a = s.schedule_at(SimTime::from_nanos(1), ());
        s.pop().unwrap();
        assert!(!s.cancel(a), "already fired");
        assert_eq!(s.len(), 0);
        assert!(!s.cancel(EventId {
            seq: 999,
            slot: 999
        }));
        // The fired event's slot is reused; its id must not reach the
        // new occupant.
        let b = s.schedule_at(SimTime::from_nanos(2), ());
        assert!(!s.cancel(a));
        assert_eq!(s.len(), 1);
        assert!(s.cancel(b));
        assert!(!s.cancel(b), "already cancelled");
        assert_eq!(s.len(), 0);
        assert!(s.pop().is_none());
        assert_eq!(s.delivered(), 1);
    }

    #[test]
    fn cancel_drops_the_payload_at_once() {
        let payload = std::rc::Rc::new(());
        let mut s = Scheduler::new();
        let id = s.schedule_at(SimTime::from_nanos(1), payload.clone());
        assert_eq!(std::rc::Rc::strong_count(&payload), 2);
        assert!(s.cancel(id));
        assert_eq!(std::rc::Rc::strong_count(&payload), 1);
    }

    #[test]
    fn slots_are_bounded_by_pending_events_not_by_events_scheduled() {
        let mut s = Scheduler::new();
        for i in 0..10_000u64 {
            let keep = s.schedule_at(SimTime::from_nanos(i), i);
            let drop = s.schedule_at(SimTime::from_nanos(i), u64::MAX);
            assert!(s.cancel(drop));
            assert_eq!(s.pop(), Some((SimTime::from_nanos(i), i)));
            assert!(!s.cancel(keep));
        }
        // Each round's cancelled key surfaces during the next round's
        // pop at the latest, so a handful of slots serve 20 000 events.
        assert!(s.payloads.slots() <= 3, "slots: {}", s.payloads.slots());
        assert_eq!((s.len(), s.delivered()), (0, 10_000));
    }

    #[test]
    fn pop_until_leaves_a_later_event_exactly_where_it_was() {
        let mut s = Scheduler::new();
        let t = SimTime::from_nanos(10);
        s.schedule_at(SimTime::from_nanos(1), "early");
        let gone = s.schedule_at(SimTime::from_nanos(2), "cancelled");
        s.schedule_at(t, "first");
        s.schedule_at(t, "second");
        s.cancel(gone);
        let horizon = SimTime::from_nanos(5);
        assert_eq!(
            s.pop_until(horizon),
            Some((SimTime::from_nanos(1), "early"))
        );
        assert_eq!(s.pop_until(horizon), None);
        assert_eq!(
            (s.now(), s.delivered(), s.len()),
            (SimTime::from_nanos(1), 1, 2)
        );
        // Still in scheduling order, also against a later arrival at
        // the same instant.
        s.schedule_at(t, "third");
        let order: Vec<_> = std::iter::from_fn(|| s.pop_until(t)).collect();
        assert_eq!(order, vec![(t, "first"), (t, "second"), (t, "third")]);
        assert_eq!(s.delivered(), 4);
    }

    #[test]
    fn peek_time_skips_cancelled() {
        let mut s = Scheduler::new();
        let a = s.schedule_at(SimTime::from_nanos(1), "a");
        s.schedule_at(SimTime::from_nanos(2), "b");
        s.cancel(a);
        assert_eq!(s.peek_time(), Some(SimTime::from_nanos(2)));
    }

    #[test]
    fn advance_to_moves_clock() {
        let mut s: Scheduler<()> = Scheduler::new();
        s.advance_to(SimTime::from_nanos(100));
        assert_eq!(s.now(), SimTime::from_nanos(100));
    }

    #[test]
    #[should_panic(expected = "would skip a pending event")]
    fn advance_past_pending_event_panics() {
        let mut s = Scheduler::new();
        s.schedule_at(SimTime::from_nanos(10), ());
        s.advance_to(SimTime::from_nanos(11));
    }

    #[test]
    fn empty_reporting() {
        let mut s: Scheduler<u32> = Scheduler::new();
        assert!(s.is_empty());
        let id = s.schedule_at(SimTime::from_nanos(1), 7);
        assert!(!s.is_empty());
        assert_eq!(s.len(), 1);
        s.cancel(id);
        assert!(s.is_empty());
        assert_eq!(s.pop(), None);
    }
}
