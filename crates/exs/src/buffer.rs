//! Intermediate circular buffer bookkeeping.
//!
//! The hidden receive-side buffer is a circular byte buffer living in a
//! registered memory region at the receiver. The *contents* are moved by
//! RDMA (sender WWIs in, receiver copies out); this module provides the
//! index arithmetic both ends share:
//!
//! * the **sender** keeps a write cursor and a free-space count `b_s`,
//!   decremented as it issues indirect transfers and replenished by ACKs
//!   (paper §III);
//! * the **receiver** keeps a read cursor and a fill count `b_r`,
//!   incremented by arriving indirect transfers and decremented as it
//!   copies data to user buffers (paper Fig. 5).
//!
//! Because the channel is FIFO and both sides apply the same arithmetic
//! in the same order, the cursors never need to be exchanged — only byte
//! *counts* travel (in WWI immediates and ACKs).

/// Sender-side view: free space and the next write position.
#[derive(Clone, Debug)]
pub struct SenderRing {
    capacity: u64,
    write_pos: u64,
    free: u64,
}

impl SenderRing {
    /// A ring of `capacity` bytes, initially empty (all free).
    pub fn new(capacity: u64) -> Self {
        assert!(capacity > 0, "ring capacity must be positive");
        SenderRing {
            capacity,
            write_pos: 0,
            free: capacity,
        }
    }

    /// Total capacity in bytes.
    pub(crate) fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Bytes the peer still holds (in flight or unconsumed).
    pub fn in_use(&self) -> u64 {
        self.capacity - self.free
    }

    /// The largest chunk that can be written *contiguously* right now:
    /// bounded by free space and by the distance to the wrap point.
    /// Returns `(ring_offset, len)` with `len == 0` when full.
    pub fn contiguous_reservation(&self, want: u64) -> (u64, u64) {
        let to_wrap = self.capacity - self.write_pos;
        let len = want.min(self.free).min(to_wrap);
        (self.write_pos, len)
    }

    /// Commits a reservation previously computed by
    /// [`SenderRing::contiguous_reservation`].
    pub fn commit(&mut self, len: u64) {
        assert!(len <= self.free, "ring over-commit");
        assert!(
            len <= self.capacity - self.write_pos,
            "commit crosses the wrap point"
        );
        self.free -= len;
        self.write_pos = (self.write_pos + len) % self.capacity;
    }

    /// Applies an ACK: the receiver freed `n` bytes.
    ///
    /// Panics on over-release; `n` must come from locally maintained
    /// state. ACK counts taken off the wire go through
    /// `SenderRing::checked_release` instead.
    pub fn release(&mut self, n: u64) {
        self.checked_release(n)
            .expect("ACK released more bytes than were in use");
    }

    /// Applies an ACK, rejecting peer-supplied counts that would free
    /// more bytes than are in use (flow-control violation).
    pub(crate) fn checked_release(&mut self, n: u64) -> Option<()> {
        let free = self.free.checked_add(n).filter(|&f| f <= self.capacity)?;
        self.free = free;
        Some(())
    }
}

/// Receiver-side view: fill count and the next read position.
#[derive(Clone, Debug)]
pub struct ReceiverRing {
    capacity: u64,
    read_pos: u64,
    count: u64,
}

impl ReceiverRing {
    /// A ring of `capacity` bytes, initially empty.
    pub fn new(capacity: u64) -> Self {
        assert!(capacity > 0, "ring capacity must be positive");
        ReceiverRing {
            capacity,
            read_pos: 0,
            count: 0,
        }
    }

    /// Filled bytes awaiting copy-out (`b_r`).
    pub fn count(&self) -> u64 {
        self.count
    }

    /// True when no data awaits copy-out.
    pub(crate) fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Records the arrival of an indirect transfer of `n` bytes.
    ///
    /// Panics on overfill; arrival counts taken off the wire go through
    /// `ReceiverRing::checked_arrived` instead.
    pub fn arrived(&mut self, n: u64) {
        self.checked_arrived(n)
            .expect("indirect transfer overfilled the intermediate buffer");
    }

    /// Records an arrival, rejecting peer-supplied lengths that would
    /// overfill the ring (flow-control violation).
    pub(crate) fn checked_arrived(&mut self, n: u64) -> Option<()> {
        let count = self.count.checked_add(n).filter(|&c| c <= self.capacity)?;
        self.count = count;
        Some(())
    }

    /// The largest chunk readable *contiguously* right now:
    /// `(ring_offset, len)` bounded by the fill count and the wrap point.
    pub fn contiguous_read(&self, want: u64) -> (u64, u64) {
        let to_wrap = self.capacity - self.read_pos;
        let len = want.min(self.count).min(to_wrap);
        (self.read_pos, len)
    }

    /// Consumes `len` bytes previously returned by
    /// [`ReceiverRing::contiguous_read`].
    pub fn consume(&mut self, len: u64) {
        assert!(len <= self.count, "ring under-flow on consume");
        assert!(
            len <= self.capacity - self.read_pos,
            "consume crosses the wrap point"
        );
        self.count -= len;
        self.read_pos = (self.read_pos + len) % self.capacity;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sender_reserve_commit_release_cycle() {
        let mut r = SenderRing::new(100);
        assert_eq!(r.free, 100);
        let (off, len) = r.contiguous_reservation(40);
        assert_eq!((off, len), (0, 40));
        r.commit(40);
        assert_eq!(r.free, 60);
        assert_eq!(r.in_use(), 40);
        r.release(40);
        assert_eq!(r.free, 100);
    }

    #[test]
    fn sender_wrap_splits_reservation() {
        let mut r = SenderRing::new(100);
        r.commit(r.contiguous_reservation(90).1); // write_pos = 90
        r.release(90); // all free again, cursor at 90
        let (off, len) = r.contiguous_reservation(50);
        assert_eq!((off, len), (90, 10), "bounded by the wrap point");
        r.commit(10);
        let (off, len) = r.contiguous_reservation(40);
        assert_eq!((off, len), (0, 40), "continues at the start");
    }

    #[test]
    fn sender_full_yields_zero() {
        let mut r = SenderRing::new(10);
        r.commit(10);
        assert_eq!(r.contiguous_reservation(1).1, 0);
    }

    #[test]
    fn sender_split_free_space_clamps_to_wrap_not_free() {
        // Free space exists on both sides of the wrap point (20 bytes
        // in front of the cursor, 30 reclaimed at the start). A want
        // larger than the tail segment must clamp to the wrap distance
        // — handing out min(want, free) would cross the wrap and
        // corrupt the bytes at offset 0.
        let mut r = SenderRing::new(100);
        r.commit(80); // cursor at 80
        r.release(30); // 30 freed at the start; 20 never used at the tail
        assert_eq!(r.free, 50);
        let (off, len) = r.contiguous_reservation(50);
        assert_eq!((off, len), (80, 20), "clamped to to_wrap, not free");
        r.commit(len);
        // After wrapping, the remaining 30 free bytes are contiguous at
        // the start.
        let (off, len) = r.contiguous_reservation(50);
        assert_eq!((off, len), (0, 30));
    }

    #[test]
    fn sender_full_ring_at_nonzero_cursor_yields_cursor_and_zero() {
        // Fill in two steps so the cursor wraps to a non-zero position,
        // then drain-and-refill to make the ring exactly full with the
        // cursor mid-ring: the reservation must be (cursor, 0), not
        // (0, 0) — callers use the offset even for len == 0 probes.
        let mut r = SenderRing::new(100);
        r.commit(60);
        r.release(60);
        r.commit(40); // cursor wrapped to 0
        r.commit(60); // cursor at 60, ring exactly full
        assert_eq!(r.free, 0);
        assert_eq!(r.contiguous_reservation(1), (60, 0));
        // A zero want on a full ring is the same degenerate case.
        assert_eq!(r.contiguous_reservation(0), (60, 0));
        // Releasing even one byte re-opens exactly that byte at the
        // cursor (free = 1, to_wrap = 40).
        r.release(1);
        assert_eq!(r.contiguous_reservation(8), (60, 1));
    }

    #[test]
    #[should_panic(expected = "over-commit")]
    fn sender_over_commit_panics() {
        let mut r = SenderRing::new(10);
        r.commit(11);
    }

    #[test]
    #[should_panic(expected = "more bytes than were in use")]
    fn sender_over_release_panics() {
        let mut r = SenderRing::new(10);
        r.release(1);
    }

    #[test]
    fn receiver_arrive_read_consume_cycle() {
        let mut r = ReceiverRing::new(100);
        assert!(r.is_empty());
        r.arrived(30);
        assert_eq!(r.count(), 30);
        let (off, len) = r.contiguous_read(100);
        assert_eq!((off, len), (0, 30));
        r.consume(20);
        assert_eq!(r.count(), 10);
        let (off, len) = r.contiguous_read(100);
        assert_eq!((off, len), (20, 10));
    }

    #[test]
    fn receiver_wrap_splits_read() {
        let mut r = ReceiverRing::new(100);
        r.arrived(90);
        r.consume(90); // read_pos = 90
        r.arrived(50);
        let (off, len) = r.contiguous_read(50);
        assert_eq!((off, len), (90, 10));
        r.consume(10);
        let (off, len) = r.contiguous_read(50);
        assert_eq!((off, len), (0, 40));
    }

    #[test]
    #[should_panic(expected = "overfilled")]
    fn receiver_overfill_panics() {
        let mut r = ReceiverRing::new(10);
        r.arrived(11);
    }

    #[test]
    fn sender_and_receiver_cursors_stay_aligned() {
        // Simulate the distributed protocol: every sender commit becomes
        // a receiver arrival (FIFO); every receiver consume becomes a
        // sender release. Offsets must always agree.
        let mut s = SenderRing::new(64);
        let mut r = ReceiverRing::new(64);
        let mut rng = 2654435761u64;
        let mut next = move || {
            rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1);
            (rng >> 33) % 20 + 1
        };
        let mut expected_write = 0u64;
        for _ in 0..10_000 {
            let want = next();
            let (off, len) = s.contiguous_reservation(want);
            if len > 0 {
                assert_eq!(off, expected_write);
                s.commit(len);
                r.arrived(len);
                expected_write = (expected_write + len) % 64;
            }
            // Receiver drains some.
            let drain = next();
            let (_, rlen) = r.contiguous_read(drain);
            if rlen > 0 {
                r.consume(rlen);
                s.release(rlen);
            }
            assert_eq!(s.in_use(), r.count(), "counts agree in lockstep");
        }
    }
}
