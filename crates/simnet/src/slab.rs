//! A slot allocator: values live in one `Vec`, a handle is the index of
//! its slot, and a freed slot is the next one handed out.
//!
//! This is the table behind every id the simulator resolves once per
//! event — a scheduled event's payload, a transfer parked in the fabric
//! allocator — so a lookup is an
//! index and a bounds check, and the table is as large as the most
//! values that were ever live at once, however many passed through.
//!
//! A handle is only a slot number: after [`Slab::remove`] it names
//! whatever is inserted there next. An owner whose handles can outlive
//! their values stores a stamp of its own in the value and compares it
//! (the scheduler's sequence number, the memory table's key generation).

/// Index-addressed storage with slot reuse.
///
/// ```
/// use simnet::Slab;
///
/// let mut slab = Slab::new();
/// let a = slab.insert("a");
/// let b = slab.insert("b");
/// assert_eq!(slab.remove(a), Some("a"));
/// assert_eq!(slab.get(a), None);
/// assert_eq!(slab.insert("c"), a, "the freed slot is reused first");
/// assert_eq!(slab.get(b), Some(&"b"));
/// ```
pub struct Slab<T> {
    slots: Vec<Slot<T>>,
    /// Head of the free list threaded through the vacant slots.
    free_head: Option<u32>,
}

enum Slot<T> {
    Full(T),
    Vacant { next_free: Option<u32> },
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Slab<T> {
    /// An empty slab; allocates nothing until the first insert.
    pub const fn new() -> Self {
        Slab {
            slots: Vec::new(),
            free_head: None,
        }
    }

    /// Stores `value` and returns the slot it went to: the most
    /// recently freed one, or a new one past the end.
    ///
    /// # Panics
    /// Panics if more than `u32::MAX` values are live at once.
    pub fn insert(&mut self, value: T) -> u32 {
        match self.free_head {
            Some(slot) => {
                let Slot::Vacant { next_free } = self.slots[slot as usize] else {
                    unreachable!("free list points at a full slot")
                };
                self.free_head = next_free;
                self.slots[slot as usize] = Slot::Full(value);
                slot
            }
            None => {
                let slot = u32::try_from(self.slots.len()).expect("slab outgrew u32 handles");
                self.slots.push(Slot::Full(value));
                slot
            }
        }
    }

    /// Takes the value out of `slot` and frees it; `None` if the slot is
    /// vacant or was never allocated.
    pub fn remove(&mut self, slot: u32) -> Option<T> {
        let entry = self.slots.get_mut(slot as usize)?;
        if matches!(entry, Slot::Vacant { .. }) {
            return None;
        }
        let vacant = Slot::Vacant {
            next_free: self.free_head,
        };
        let Slot::Full(value) = std::mem::replace(entry, vacant) else {
            unreachable!("checked full above")
        };
        self.free_head = Some(slot);
        Some(value)
    }

    /// The value in `slot`, if it holds one.
    #[inline]
    pub fn get(&self, slot: u32) -> Option<&T> {
        match self.slots.get(slot as usize)? {
            Slot::Full(value) => Some(value),
            Slot::Vacant { .. } => None,
        }
    }

    /// Mutable access to the value in `slot`, if it holds one.
    #[inline]
    pub(crate) fn get_mut(&mut self, slot: u32) -> Option<&mut T> {
        match self.slots.get_mut(slot as usize)? {
            Slot::Full(value) => Some(value),
            Slot::Vacant { .. } => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl<T> Slab<T> {
        /// Number of values stored.
        fn len(&self) -> usize {
            self.slots
                .iter()
                .filter(|slot| matches!(slot, Slot::Full(_)))
                .count()
        }

        /// Number of slots ever allocated, full or vacant: the
        /// high-water mark of `len`.
        pub(crate) fn slots(&self) -> usize {
            self.slots.len()
        }
    }

    #[test]
    fn handles_are_stable_and_freed_slots_are_reused_lifo() {
        let mut s = Slab::new();
        let ids: Vec<u32> = (0..4).map(|i| s.insert(i * 10)).collect();
        assert_eq!(ids, vec![0, 1, 2, 3]);
        assert_eq!(s.remove(1), Some(10));
        assert_eq!(s.remove(3), Some(30));
        assert_eq!(s.len(), 2);
        assert_eq!(s.get(0), Some(&0));
        assert_eq!(s.get(1), None);
        assert_eq!(s.insert(31), 3);
        assert_eq!(s.insert(11), 1);
        assert_eq!(s.insert(40), 4);
        let all: Vec<_> = (0..5).map(|slot| s.get(slot).copied()).collect();
        assert_eq!(all, [Some(0), Some(11), Some(20), Some(31), Some(40)]);
    }

    #[test]
    fn vacant_and_unknown_slots_read_as_absent() {
        let mut s = Slab::new();
        assert_eq!(s.remove(0), None::<u8>);
        let a = s.insert(7u8);
        assert_eq!(s.remove(a), Some(7));
        assert_eq!(s.remove(a), None, "a second remove finds the slot vacant");
        assert_eq!(s.get_mut(a), None);
        assert_eq!(s.get(99), None);
        assert_eq!(s.len(), 0);
    }

    #[test]
    fn churn_keeps_the_table_at_the_live_high_water_mark() {
        let mut s = Slab::new();
        let keep = s.insert(0u64);
        for i in 1..=100_000u64 {
            let slot = s.insert(i);
            *s.get_mut(slot).unwrap() += 1;
            assert_eq!(s.remove(slot), Some(i + 1));
        }
        assert_eq!((s.len(), s.slots()), (1, 2));
        assert_eq!(s.get(keep), Some(&0));
    }
}
