//! Size-classed free lists for registered regions.
//!
//! Regions are pooled in power-of-two size classes starting at a
//! configurable minimum (one 4 KiB page by default). A request is
//! rounded up to its class, so a region released by one user is
//! reusable by any later request in the same class — the classic slab
//! trade: bounded internal fragmentation (< 2×) bought for O(1) reuse
//! and a small, fixed number of distinct region sizes to keep pinned.
//!
//! Reuse pops the **most recently used** region of a class (warm pages,
//! and the LRU tail stays stable for eviction); the pin-down cache in
//! [`super`] evicts the **globally least recently used** free region
//! when the pinned-bytes budget is exceeded.

use rdma_verbs::{Access, MrInfo};

/// One idle registered region parked in the cache.
#[derive(Clone, Copy, Debug)]
pub(crate) struct FreeRegion {
    /// The registration (key, base address, class-rounded length).
    pub(crate) mr: MrInfo,
    /// Access flags the region was registered with. Reuse requires an
    /// exact match: handing a send-only region to a receive path would
    /// trip the HCA's protection checks.
    pub(crate) access: Access,
    /// Monotonic last-use stamp (larger = more recent).
    pub(crate) stamp: u64,
}

/// The per-pool collection of size-classed free lists.
#[derive(Debug, Default)]
pub(crate) struct Slabs {
    /// `classes[i]` holds idle regions of `min_class << i` bytes.
    classes: Vec<Vec<FreeRegion>>,
    min_class: u64,
}

impl Slabs {
    /// Empty slab set with the given minimum class size (rounded up to
    /// a power of two, at least 64 bytes).
    pub(crate) fn new(min_class: usize) -> Slabs {
        Slabs {
            classes: Vec::new(),
            min_class: (min_class.max(64) as u64).next_power_of_two(),
        }
    }

    /// The class a request of `len` bytes is served from: `len` rounded
    /// up to the next power of two, at least the minimum class.
    pub(crate) fn class_len(&self, len: usize) -> u64 {
        (len as u64).next_power_of_two().max(self.min_class)
    }

    fn idx(&self, class_len: u64) -> usize {
        debug_assert!(class_len.is_power_of_two() && class_len >= self.min_class);
        (class_len.trailing_zeros() - self.min_class.trailing_zeros()) as usize
    }

    /// Takes the most-recently-used idle region of `class_len` bytes
    /// registered with exactly `access`, if one exists.
    pub(crate) fn take(&mut self, class_len: u64, access: Access) -> Option<FreeRegion> {
        let idx = self.idx(class_len);
        let list = self.classes.get_mut(idx)?;
        let best = list
            .iter()
            .enumerate()
            .filter(|(_, r)| r.access == access)
            .max_by_key(|(_, r)| r.stamp)
            .map(|(i, _)| i)?;
        Some(list.swap_remove(best))
    }

    /// Parks an idle region back in its class.
    pub(crate) fn put(&mut self, region: FreeRegion) {
        let idx = self.idx(region.mr.len as u64);
        if self.classes.len() <= idx {
            self.classes.resize_with(idx + 1, Vec::new);
        }
        self.classes[idx].push(region);
    }

    /// Removes and returns the globally least-recently-used idle
    /// region (the eviction victim), if any region is idle.
    pub(crate) fn evict_lru(&mut self) -> Option<FreeRegion> {
        let (ci, ri) = self
            .classes
            .iter()
            .enumerate()
            .flat_map(|(ci, list)| {
                list.iter()
                    .enumerate()
                    .map(move |(ri, r)| (ci, ri, r.stamp))
            })
            .min_by_key(|&(_, _, stamp)| stamp)
            .map(|(ci, ri, _)| (ci, ri))?;
        Some(self.classes[ci].swap_remove(ri))
    }

    /// Total idle bytes across all classes.
    pub(crate) fn free_bytes(&self) -> u64 {
        self.classes
            .iter()
            .flat_map(|l| l.iter())
            .map(|r| r.mr.len as u64)
            .sum()
    }

    /// Removes every idle region (pool trim / close).
    pub(crate) fn drain(&mut self) -> Vec<FreeRegion> {
        let mut out = Vec::new();
        for list in &mut self.classes {
            out.append(list);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdma_verbs::MrKey;

    fn region(len: usize, stamp: u64, access: Access) -> FreeRegion {
        FreeRegion {
            mr: MrInfo {
                key: MrKey(stamp as u32),
                addr: 0x1000 * stamp,
                len,
            },
            access,
            stamp,
        }
    }

    #[test]
    fn class_rounding() {
        let s = Slabs::new(4096);
        assert_eq!(s.class_len(1), 4096);
        assert_eq!(s.class_len(4096), 4096);
        assert_eq!(s.class_len(4097), 8192);
        assert_eq!(s.class_len(64 << 10), 64 << 10);
        assert_eq!(s.class_len((64 << 10) + 1), 128 << 10);
    }

    #[test]
    fn take_prefers_mru_and_matches_access() {
        let mut s = Slabs::new(4096);
        s.put(region(4096, 1, Access::NONE));
        s.put(region(4096, 2, Access::LOCAL_WRITE));
        s.put(region(4096, 3, Access::NONE));
        // MRU of the matching access, not the global MRU.
        let got = s.take(4096, Access::NONE).unwrap();
        assert_eq!(got.stamp, 3);
        let got = s.take(4096, Access::NONE).unwrap();
        assert_eq!(got.stamp, 1);
        assert!(s.take(4096, Access::NONE).is_none());
        assert!(s.take(4096, Access::LOCAL_WRITE).is_some());
    }

    #[test]
    fn evict_takes_global_lru_across_classes() {
        let mut s = Slabs::new(4096);
        s.put(region(8192, 5, Access::NONE));
        s.put(region(4096, 2, Access::NONE));
        s.put(region(16384, 9, Access::NONE));
        assert_eq!(s.evict_lru().unwrap().stamp, 2);
        assert_eq!(s.evict_lru().unwrap().stamp, 5);
        assert_eq!(s.evict_lru().unwrap().stamp, 9);
        assert!(s.evict_lru().is_none());
        assert_eq!(s.free_bytes(), 0);
    }

    #[test]
    fn drain_empties_everything() {
        let mut s = Slabs::new(4096);
        s.put(region(4096, 1, Access::NONE));
        s.put(region(8192, 2, Access::NONE));
        assert_eq!(s.free_bytes(), 4096 + 8192);
        assert_eq!(s.drain().len(), 2);
        assert_eq!(s.free_bytes(), 0);
    }
}
