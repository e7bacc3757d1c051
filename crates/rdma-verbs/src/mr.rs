//! Registered memory regions and the per-node memory table.
//!
//! Each node has a flat virtual address space. Registering a region
//! allocates a page-aligned address range and returns a key usable as
//! both lkey and rkey; the byte buffer behind the range comes with the
//! first byte something touches. All DMA performed
//! by the simulated HCA goes through [`MemoryTable::dma_slice`] (a
//! borrowed view of the source, no copy), [`MemoryTable::dma_write`]
//! (placement) and [`MemoryTable::capture`] (an owned copy of the
//! source), which validate key, bounds and access flags exactly as a
//! real HCA's translation and protection table would. Every byte the
//! table itself moves is counted in [`MemoryTable::bytes_copied`].
//!
//! A region is *backed on first touch*. Registration allocates nothing;
//! the first touch gives the region its buffer, the whole length in one
//! allocation so that bytes never move, and the region then keeps only
//! the prefix that something has touched: a byte beyond that prefix
//! reads as the zero it would have been. A 16 MiB ring of which a run
//! uses 1 MiB costs the host 1 MiB and no zero-fill at set-up, one that
//! is never used costs nothing, and a sequential placement is written
//! once, not zeroed and then written. A dropped region's buffer, if it
//! is large, goes to the next region of the same length rather than
//! back to the allocator (see `SPARE`), so that the pages a process has
//! touched for a ring are the pages its next such ring uses.
//! The rule that follows: whatever hands out a view of region bytes
//! ([`MemoryTable::dma_slice`], [`MemoryTable::capture`], the source of
//! [`MemoryTable::local_copy`]) takes `&mut self` and backs the range
//! first; [`MemoryTable::app_read`], which only fills the caller's
//! buffer, and [`MemoryTable::check`] stay `&self` and touch nothing.
//!
//! A key is an index, not a name to look up: its low 20 bits (`SLOT_BITS`)
//! are the region's slot in the table and the bits above them the
//! slot's *generation*, the way a real HCA's key is a table index plus
//! a key byte. Deregistering bumps the slot's generation and frees it
//! for the next registration, so the table stays as large as the live
//! set under registration churn, while a stale key — same slot, older
//! generation — fails `UnknownKey` like a key that never existed. A
//! slot whose generations are used up is retired rather than wrapped,
//! so that holds for every key ever issued.

use std::sync::{Mutex, MutexGuard, PoisonError};

use bytes::Bytes;

use crate::types::{Access, MrKey, Result, Sge, VerbsError};

/// Alignment of region base addresses.
const PAGE: u64 = 4096;
/// Base of the simulated virtual address space (an arbitrary non-zero
/// offset so that address 0 is always invalid).
const VA_BASE: u64 = 0x1000_0000;

/// Smallest buffer [`SPARE`] keeps; a smaller one is the allocator's
/// business.
const SPARE_MIN: usize = 1 << 20;
/// Most capacity [`SPARE`] holds on to; beyond it the oldest buffers go
/// back to the allocator.
const SPARE_MAX: usize = 128 << 20;

/// Buffers of dropped regions, oldest first, each waiting for a region
/// of its length to touch its first byte.
///
/// What a region costs the host is the pages it has touched, and a
/// general-purpose allocator does not keep them with the region's next
/// incarnation: it hands a freed 16 MiB ring to whichever same-sized
/// request comes first, or splits it for small ones. A ring that is
/// never written then sits on the resident pages while the ring that is
/// written takes fresh ones, and the process's resident set depends on
/// allocation order (a 512 B blast that re-creates its two sockets per
/// run held 22 MiB or 38 MiB, by seed). Large buffers therefore go from
/// region to region here, the way a verbs library's registration cache
/// keeps pinned pages across deregistration.
static SPARE: Mutex<Vec<Vec<u8>>> = Mutex::new(Vec::new());

fn spare() -> MutexGuard<'static, Vec<Vec<u8>>> {
    SPARE.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A registered memory region.
pub struct MemoryRegion {
    key: MrKey,
    base: u64,
    len: usize,
    /// The touched prefix of the region: empty and unallocated until
    /// the first touch, of capacity `len` from then on, so growing it
    /// never reallocates or moves bytes.
    data: Vec<u8>,
    access: Access,
}

impl Drop for MemoryRegion {
    fn drop(&mut self) {
        if self.data.capacity() < SPARE_MIN {
            return;
        }
        let mut buf = std::mem::take(&mut self.data);
        buf.clear();
        let mut spare = spare();
        spare.push(buf);
        let mut held: usize = spare.iter().map(Vec::capacity).sum();
        while held > SPARE_MAX {
            held -= spare.remove(0).capacity();
        }
    }
}

impl MemoryRegion {
    /// The region's key (lkey == rkey in this simulator).
    pub fn key(&self) -> MrKey {
        self.key
    }

    /// First virtual address of the region.
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True for a zero-length registration.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Granted access flags.
    pub fn access(&self) -> Access {
        self.access
    }

    fn check_range(&self, addr: u64, len: u64) -> Result<usize> {
        let end = addr
            .checked_add(len)
            .ok_or(VerbsError::OutOfBounds { addr, len })?;
        if addr < self.base || end > self.base + self.len as u64 {
            return Err(VerbsError::OutOfBounds { addr, len });
        }
        Ok((addr - self.base) as usize)
    }

    /// Gives the region its buffer, all `len` bytes of capacity, if
    /// nothing has touched it before: the spare one a region of this
    /// length dropped last, else the region's one allocation.
    fn reserve(&mut self) {
        if self.data.capacity() != 0 {
            return;
        }
        if self.len >= SPARE_MIN {
            let mut spare = spare();
            if let Some(i) = spare.iter().rposition(|buf| buf.capacity() == self.len) {
                self.data = spare.remove(i);
                return;
            }
        }
        self.data.reserve_exact(self.len);
    }

    /// Extends the touched prefix to `end` with the zeros those bytes
    /// always read as. `end` is within the region. Callers skip empty
    /// ranges: one at a high offset would back everything below it.
    #[inline]
    fn back(&mut self, end: usize) {
        if self.data.len() < end {
            self.reserve();
            self.data.resize(end, 0);
        }
    }

    /// Writes `src` at `off`. `off + src.len()` is within the region.
    #[inline]
    fn write(&mut self, off: usize, src: &[u8]) {
        // The steady state of a ring or a reused buffer: all of the
        // range has been touched before.
        match self.data.get_mut(off..off + src.len()) {
            Some(backed) => backed.copy_from_slice(src),
            None => self.write_past_prefix(off, src),
        }
    }

    /// [`MemoryRegion::write`] of a range that reaches past the touched
    /// prefix: over the prefix where they overlap, appended where they
    /// do not, so bytes that extend the prefix are written once.
    #[cold]
    fn write_past_prefix(&mut self, off: usize, src: &[u8]) {
        if src.is_empty() {
            return;
        }
        self.reserve();
        // A gap between the prefix and `off` is zero-filled.
        self.back(off);
        let over = self.data.len() - off;
        self.data[off..].copy_from_slice(&src[..over]);
        self.data.extend_from_slice(&src[over..]);
    }

    /// Fills `buf` from `off`: touched bytes as they are, the rest zero.
    #[inline]
    fn read(&self, off: usize, buf: &mut [u8]) {
        match self.data.get(off..off + buf.len()) {
            Some(backed) => buf.copy_from_slice(backed),
            None => {
                let backed = self.data.get(off..).unwrap_or(&[]);
                let (head, tail) = buf.split_at_mut(backed.len().min(buf.len()));
                head.copy_from_slice(&backed[..head.len()]);
                tail.fill(0);
            }
        }
    }
}

/// Descriptor handed back to the application on registration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MrInfo {
    /// Region key (lkey and rkey).
    pub key: MrKey,
    /// Base virtual address.
    pub addr: u64,
    /// Region length in bytes.
    pub len: usize,
}

impl MrInfo {
    /// An SGE covering `[offset, offset+len)` of this region.
    pub fn sge(&self, offset: u64, len: u32) -> Sge {
        debug_assert!(offset as usize + len as usize <= self.len);
        Sge {
            addr: self.addr + offset,
            len,
            lkey: self.key,
        }
    }

    /// An SGE covering the whole region.
    pub fn full_sge(&self) -> Sge {
        self.sge(0, self.len as u32)
    }
}

/// Low bits of a key that hold the slot index: up to 2^20 regions live
/// at once per node.
const SLOT_BITS: u32 = 20;
const SLOT_MASK: u32 = (1 << SLOT_BITS) - 1;
/// Last generation of a slot: 4096 registrations, then it is retired.
const MAX_GENERATION: u32 = (1 << (32 - SLOT_BITS)) - 1;

/// Table index a key names (whatever its generation).
#[inline]
fn slot_of(key: MrKey) -> usize {
    (key.0 & SLOT_MASK) as usize
}

/// One entry of the table: the generation its next (or current) key
/// carries, and the region while one is registered here.
struct Slot {
    generation: u32,
    region: Option<MemoryRegion>,
}

/// The per-node registration table.
pub struct MemoryTable {
    /// Indexed by a key's slot bits. Slot 0 is never allocated, so no
    /// key is 0 and a table that never deregisters hands out 1, 2, 3, ….
    slots: Vec<Slot>,
    /// Vacant slots with generations left, most recently freed last.
    free: Vec<u32>,
    live: usize,
    cursor: u64,
    bytes_copied: u64,
}

impl Default for MemoryTable {
    fn default() -> Self {
        Self::new()
    }
}

impl MemoryTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        MemoryTable {
            slots: vec![Slot {
                generation: 0,
                region: None,
            }],
            free: Vec::new(),
            live: 0,
            cursor: VA_BASE,
            bytes_copied: 0,
        }
    }

    /// Registers a region of `len` bytes, every one of which reads 0
    /// until written. No host memory is allocated for them until then
    /// (see the module docs).
    ///
    /// # Panics
    /// Panics if 2^20 - 1 regions are already live on this node.
    pub fn register(&mut self, len: usize, access: Access) -> MrInfo {
        let slot = self.free.pop().unwrap_or_else(|| {
            let slot = self.slots.len() as u32;
            assert!(slot <= SLOT_MASK, "memory table full: {slot} regions");
            self.slots.push(Slot {
                generation: 0,
                region: None,
            });
            slot
        });
        let entry = &mut self.slots[slot as usize];
        let key = MrKey(entry.generation << SLOT_BITS | slot);
        let base = self.cursor;
        let span = (len as u64).div_ceil(PAGE).max(1) * PAGE;
        self.cursor += span;
        entry.region = Some(MemoryRegion {
            key,
            base,
            len,
            data: Vec::new(),
            access,
        });
        self.live += 1;
        MrInfo {
            key,
            addr: base,
            len,
        }
    }

    /// Deregisters a region. Returns an error for unknown keys. The
    /// region's slot is reused by a later registration under a new
    /// generation, so `key` stays unknown from here on.
    pub fn deregister(&mut self, key: MrKey) -> Result<()> {
        self.region(key)?;
        let entry = &mut self.slots[slot_of(key)];
        entry.region = None;
        self.live -= 1;
        if entry.generation < MAX_GENERATION {
            entry.generation += 1;
            self.free.push(slot_of(key) as u32);
        }
        Ok(())
    }

    /// Number of live registrations.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when no regions are registered.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Number of table slots allocated so far, vacant ones included:
    /// the most regions that were ever live at once, plus the reserved
    /// slot 0 and one retired slot per 4096 registrations that cycled
    /// through the same slot.
    pub fn slots(&self) -> usize {
        self.slots.len()
    }

    /// Length in bytes of a live registration, if `key` is known.
    pub fn len_of(&self, key: MrKey) -> Option<usize> {
        self.region(key).ok().map(|r| r.len)
    }

    /// Bytes of live registrations that something has touched so far,
    /// which is what they cost the host; the rest of each region is
    /// address space at most.
    pub fn backed_bytes(&self) -> usize {
        self.slots
            .iter()
            .filter_map(|slot| slot.region.as_ref())
            .map(|region| region.data.len())
            .sum()
    }

    /// Bytes this table has moved since creation: DMA placement
    /// ([`MemoryTable::dma_write`]), payload capture
    /// ([`MemoryTable::capture`]) and [`MemoryTable::local_copy`]. The
    /// application's own `app_read`/`app_write` are not HCA work and are
    /// not counted. The copy-budget tests hold this against the payload
    /// size, so a staging copy that creeps back in fails exactly.
    pub fn bytes_copied(&self) -> u64 {
        self.bytes_copied
    }

    /// The region `key` names: the one in its slot, if that region was
    /// registered under this very key (slot and generation).
    #[inline]
    fn region(&self, key: MrKey) -> Result<&MemoryRegion> {
        self.slots
            .get(slot_of(key))
            .and_then(|slot| slot.region.as_ref())
            .filter(|region| region.key == key)
            .ok_or(VerbsError::UnknownKey(key))
    }

    #[inline]
    fn region_mut(&mut self, key: MrKey) -> Result<&mut MemoryRegion> {
        self.slots
            .get_mut(slot_of(key))
            .and_then(|slot| slot.region.as_mut())
            .filter(|region| region.key == key)
            .ok_or(VerbsError::UnknownKey(key))
    }

    /// HCA-side DMA write (placing incoming data). Requires
    /// `required_access` (e.g. [`Access::REMOTE_WRITE`] for RDMA,
    /// [`Access::LOCAL_WRITE`] for RECV placement).
    pub fn dma_write(
        &mut self,
        key: MrKey,
        addr: u64,
        data: &[u8],
        required_access: Access,
    ) -> Result<()> {
        let region = self.region_mut(key)?;
        if !region.access.contains(required_access) {
            return Err(VerbsError::AccessViolation);
        }
        let off = region.check_range(addr, data.len() as u64)?;
        region.write(off, data);
        self.bytes_copied += data.len() as u64;
        Ok(())
    }

    /// The key, bounds and access check of a DMA over `[addr, addr+len)`
    /// and nothing else: how a work request's SGE is validated at post
    /// time.
    pub fn check(&self, key: MrKey, addr: u64, len: u64, required_access: Access) -> Result<()> {
        let region = self.region(key)?;
        if !region.access.contains(required_access) {
            return Err(VerbsError::AccessViolation);
        }
        region.check_range(addr, len).map(drop)
    }

    /// HCA-side DMA read as a borrowed view of `[addr, addr+len)`: the
    /// key, bounds and access check of a gather, without the copy. The
    /// view is of real bytes, so the range is backed first.
    pub fn dma_slice(
        &mut self,
        key: MrKey,
        addr: u64,
        len: u64,
        required_access: Access,
    ) -> Result<&[u8]> {
        let region = self.region_mut(key)?;
        if !region.access.contains(required_access) {
            return Err(VerbsError::AccessViolation);
        }
        let off = region.check_range(addr, len)?;
        if len == 0 {
            return Ok(&[]);
        }
        let end = off + len as usize;
        region.back(end);
        Ok(&region.data[off..end])
    }

    /// HCA-side DMA read into bytes the caller owns: one allocation and
    /// one copy. For payloads that leave the lock their source is read
    /// under — an RDMA READ response, and every send on the thread
    /// backend, which delivers under the destination's lock alone.
    pub fn capture(
        &mut self,
        key: MrKey,
        addr: u64,
        len: u64,
        required_access: Access,
    ) -> Result<Bytes> {
        let bytes = Bytes::copy_from_slice(self.dma_slice(key, addr, len, required_access)?);
        self.bytes_copied += len;
        Ok(bytes)
    }

    /// Application-side write into its own registered memory (bounds
    /// checked, no access flags needed: the app owns the region).
    pub fn app_write(&mut self, key: MrKey, addr: u64, data: &[u8]) -> Result<()> {
        let region = self.region_mut(key)?;
        let off = region.check_range(addr, data.len() as u64)?;
        region.write(off, data);
        Ok(())
    }

    /// Application-side read of its own registered memory.
    pub fn app_read(&self, key: MrKey, addr: u64, buf: &mut [u8]) -> Result<()> {
        let region = self.region(key)?;
        let off = region.check_range(addr, buf.len() as u64)?;
        region.read(off, buf);
        Ok(())
    }

    /// Copies between two registered regions on the same node (the EXS
    /// receiver's intermediate-buffer → user-buffer copy). Returns the
    /// number of bytes copied. Ranges within one region may overlap
    /// (memmove semantics). Nothing is written unless both ranges are
    /// valid.
    pub fn local_copy(
        &mut self,
        src_key: MrKey,
        src_addr: u64,
        dst_key: MrKey,
        dst_addr: u64,
        len: u64,
    ) -> Result<u64> {
        let n = len as usize;
        if src_key == dst_key {
            let region = self.region_mut(src_key)?;
            let from = region.check_range(src_addr, len)?;
            let to = region.check_range(dst_addr, len)?;
            if n > 0 {
                region.back(from.max(to) + n);
                region.data.copy_within(from..from + n, to);
            }
        } else {
            self.region(src_key)?;
            self.region(dst_key)?;
            // Both keys are live and differ, so their slots differ too.
            let [src, dst] = self
                .slots
                .get_disjoint_mut([slot_of(src_key), slot_of(dst_key)])
                .expect("two live keys share a slot");
            let src = src.region.as_mut().expect("checked live above");
            let dst = dst.region.as_mut().expect("checked live above");
            let from = src.check_range(src_addr, len)?;
            let to = dst.check_range(dst_addr, len)?;
            if n > 0 {
                src.back(from + n);
                dst.write(to, &src.data[from..from + n]);
            }
        }
        self.bytes_copied += len;
        Ok(len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_allocates_disjoint_aligned_ranges() {
        let mut t = MemoryTable::new();
        let a = t.register(100, Access::all());
        let b = t.register(5000, Access::all());
        let c = t.register(0, Access::all());
        assert_eq!(a.addr % PAGE, 0);
        assert_eq!(b.addr % PAGE, 0);
        assert!(b.addr >= a.addr + 100);
        assert!(c.addr >= b.addr + 5000);
        assert_ne!(a.key, b.key);
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn app_write_read_roundtrip() {
        let mut t = MemoryTable::new();
        let mr = t.register(64, Access::NONE);
        t.app_write(mr.key, mr.addr + 8, b"hello").unwrap();
        let mut buf = [0u8; 5];
        t.app_read(mr.key, mr.addr + 8, &mut buf).unwrap();
        assert_eq!(&buf, b"hello");
    }

    #[test]
    fn bounds_are_enforced() {
        let mut t = MemoryTable::new();
        let mr = t.register(16, Access::all());
        assert!(matches!(
            t.app_write(mr.key, mr.addr + 10, &[0; 7]),
            Err(VerbsError::OutOfBounds { .. })
        ));
        assert!(matches!(
            t.app_write(mr.key, mr.addr - 1, &[0; 1]),
            Err(VerbsError::OutOfBounds { .. })
        ));
        // Exactly at the end is fine.
        t.app_write(mr.key, mr.addr + 15, &[9]).unwrap();
        // Overflow-safe end computation.
        assert!(matches!(
            t.dma_slice(mr.key, u64::MAX, 2, Access::NONE),
            Err(VerbsError::OutOfBounds { .. })
        ));
    }

    #[test]
    fn unknown_key_is_rejected() {
        let mut t = MemoryTable::new();
        assert_eq!(
            t.app_write(MrKey(42), 0, &[0]),
            Err(VerbsError::UnknownKey(MrKey(42)))
        );
        assert_eq!(
            t.deregister(MrKey(42)),
            Err(VerbsError::UnknownKey(MrKey(42)))
        );
    }

    #[test]
    fn access_flags_gate_dma() {
        let mut t = MemoryTable::new();
        let ro = t.register(32, Access::REMOTE_READ);
        // Remote write against a read-only region fails.
        assert_eq!(
            t.dma_write(ro.key, ro.addr, &[1, 2], Access::REMOTE_WRITE),
            Err(VerbsError::AccessViolation)
        );
        // Remote read is allowed.
        assert!(t.dma_slice(ro.key, ro.addr, 2, Access::REMOTE_READ).is_ok());
        let wo = t.register(32, Access::local_remote_write());
        assert!(t
            .dma_write(wo.key, wo.addr, &[1, 2], Access::REMOTE_WRITE)
            .is_ok());
        // Remote read without permission fails.
        assert_eq!(
            t.dma_slice(wo.key, wo.addr, 2, Access::REMOTE_READ).err(),
            Some(VerbsError::AccessViolation)
        );
        assert_eq!(
            t.capture(wo.key, wo.addr, 2, Access::REMOTE_READ).err(),
            Some(VerbsError::AccessViolation)
        );
    }

    #[test]
    fn deregister_invalidates_key() {
        let mut t = MemoryTable::new();
        let mr = t.register(8, Access::all());
        t.deregister(mr.key).unwrap();
        assert_eq!(
            t.app_read(mr.key, mr.addr, &mut [0u8; 1]),
            Err(VerbsError::UnknownKey(mr.key))
        );
        assert!(t.is_empty());
    }

    /// Every accessor, handed `key`, must refuse it as unknown.
    fn assert_unknown_everywhere(t: &mut MemoryTable, key: MrKey, addr: u64, live: MrInfo) {
        let unknown = Some(VerbsError::UnknownKey(key));
        let results = [
            t.dma_slice(key, addr, 1, Access::NONE).map(drop),
            t.dma_write(key, addr, &[1], Access::NONE),
            t.capture(key, addr, 1, Access::NONE).map(drop),
            t.app_read(key, addr, &mut [0u8; 1]),
            t.app_write(key, addr, &[1]),
            t.local_copy(key, addr, live.key, live.addr, 1).map(drop),
            t.local_copy(live.key, live.addr, key, addr, 1).map(drop),
            t.local_copy(key, addr, key, addr, 1).map(drop),
            t.deregister(key),
        ];
        for (i, result) in results.into_iter().enumerate() {
            assert_eq!(result.err(), unknown, "accessor #{i}");
        }
        assert_eq!(t.len_of(key), None);
    }

    #[test]
    fn stale_key_stays_unknown_after_its_slot_is_reused() {
        let mut t = MemoryTable::new();
        let other = t.register(8, Access::all());
        let old = t.register(8, Access::all());
        t.deregister(old.key).unwrap();
        assert_unknown_everywhere(&mut t, old.key, old.addr, other);

        // The next registration takes the freed slot under a new key.
        let new = t.register(8, Access::all());
        assert_eq!(slot_of(new.key), slot_of(old.key), "slot reused");
        assert_ne!(new.key, old.key);
        assert_eq!(t.slots(), 3, "reserved slot 0 + two regions");
        // Neither the old key at its old address nor at the new region's
        // address reaches the slot's new occupant.
        assert_unknown_everywhere(&mut t, old.key, old.addr, other);
        assert_unknown_everywhere(&mut t, old.key, new.addr, other);
        t.app_write(new.key, new.addr, b"intact").unwrap();
        let mut buf = [0u8; 6];
        t.app_read(new.key, new.addr, &mut buf).unwrap();
        assert_eq!(&buf, b"intact");
        assert_eq!((t.len(), t.bytes_copied()), (2, 0));
    }

    #[test]
    fn keys_of_a_table_that_never_deregisters_count_from_one() {
        let mut t = MemoryTable::new();
        let keys: Vec<u32> = (0..5).map(|_| t.register(1, Access::NONE).key.0).collect();
        assert_eq!(keys, [1, 2, 3, 4, 5]);
        assert_eq!(
            t.app_read(MrKey(0), VA_BASE, &mut [0u8; 1]),
            Err(VerbsError::UnknownKey(MrKey(0)))
        );
    }

    #[test]
    fn registration_churn_is_bounded_by_the_live_set_and_never_repeats_a_key() {
        const CYCLES: usize = 100_000;
        let mut t = MemoryTable::new();
        let pinned: Vec<MrInfo> = (0..3).map(|_| t.register(16, Access::all())).collect();
        let mut seen = std::collections::BTreeSet::new();
        let mut first = None;
        for _ in 0..CYCLES {
            let a = t.register(16, Access::all());
            let b = t.register(16, Access::all());
            assert!(seen.insert(a.key) && seen.insert(b.key), "key issued twice");
            first.get_or_insert(a.key);
            t.deregister(a.key).unwrap();
            t.deregister(b.key).unwrap();
        }
        assert_eq!(t.len(), pinned.len());
        // Five regions live at the peak, the reserved slot, and one
        // retired slot per MAX_GENERATION + 1 uses of a slot.
        let retired = 2 * CYCLES / (MAX_GENERATION as usize + 1);
        assert!(
            t.slots() <= 1 + 5 + retired + 2,
            "{} slots after {CYCLES} cycles",
            t.slots()
        );
        assert_unknown_everywhere(&mut t, first.unwrap(), VA_BASE, pinned[0]);
        for mr in pinned {
            t.app_write(mr.key, mr.addr, &[7]).unwrap();
        }
    }

    #[test]
    fn local_copy_moves_bytes() {
        let mut t = MemoryTable::new();
        let src = t.register(32, Access::all());
        let dst = t.register(32, Access::all());
        t.app_write(src.key, src.addr, b"stream-bytes").unwrap();
        let n = t
            .local_copy(src.key, src.addr, dst.key, dst.addr + 4, 12)
            .unwrap();
        assert_eq!(n, 12);
        let mut buf = [0u8; 12];
        t.app_read(dst.key, dst.addr + 4, &mut buf).unwrap();
        assert_eq!(&buf, b"stream-bytes");
        assert_eq!(t.bytes_copied(), 12);
    }

    #[test]
    fn local_copy_within_one_region_has_memmove_semantics() {
        let mut t = MemoryTable::new();
        let mr = t.register(16, Access::all());
        let fill = |t: &mut MemoryTable| t.app_write(mr.key, mr.addr, b"0123456789abcdef").unwrap();
        let read = |t: &MemoryTable| {
            let mut buf = [0u8; 16];
            t.app_read(mr.key, mr.addr, &mut buf).unwrap();
            buf
        };
        // Forward overlap: destination starts inside the source range.
        fill(&mut t);
        t.local_copy(mr.key, mr.addr, mr.key, mr.addr + 4, 10)
            .unwrap();
        assert_eq!(&read(&t), b"01230123456789ef");
        // Backward overlap: source starts inside the destination range.
        fill(&mut t);
        t.local_copy(mr.key, mr.addr + 4, mr.key, mr.addr, 10)
            .unwrap();
        assert_eq!(&read(&t), b"456789abcdabcdef");
        // Disjoint ranges of one region.
        fill(&mut t);
        t.local_copy(mr.key, mr.addr, mr.key, mr.addr + 8, 8)
            .unwrap();
        assert_eq!(&read(&t), b"0123456701234567");
        assert_eq!(t.bytes_copied(), 28);
    }

    #[test]
    fn local_copy_rejects_bad_ranges_without_writing() {
        let mut t = MemoryTable::new();
        let src = t.register(8, Access::all());
        let dst = t.register(8, Access::all());
        t.app_write(dst.key, dst.addr, b"untouchd").unwrap();
        assert!(matches!(
            t.local_copy(src.key, src.addr, dst.key, dst.addr + 4, 8),
            Err(VerbsError::OutOfBounds { .. })
        ));
        assert!(matches!(
            t.local_copy(src.key, src.addr + 4, dst.key, dst.addr, 8),
            Err(VerbsError::OutOfBounds { .. })
        ));
        assert_eq!(
            t.local_copy(MrKey(99), src.addr, dst.key, dst.addr, 8),
            Err(VerbsError::UnknownKey(MrKey(99)))
        );
        assert_eq!(
            t.local_copy(src.key, src.addr, MrKey(98), dst.addr, 8),
            Err(VerbsError::UnknownKey(MrKey(98)))
        );
        assert!(matches!(
            t.local_copy(dst.key, dst.addr, dst.key, dst.addr + 1, 8),
            Err(VerbsError::OutOfBounds { .. })
        ));
        let mut buf = [0u8; 8];
        t.app_read(dst.key, dst.addr, &mut buf).unwrap();
        assert_eq!(&buf, b"untouchd");
        assert_eq!(t.bytes_copied(), 0);
    }

    #[test]
    fn capture_and_placement_count_their_bytes_and_views_do_not() {
        let mut t = MemoryTable::new();
        let mr = t.register(32, Access::all());
        t.app_write(mr.key, mr.addr, b"payload").unwrap();
        assert_eq!(t.bytes_copied(), 0, "the app's own writes are not HCA work");
        assert_eq!(
            t.dma_slice(mr.key, mr.addr, 7, Access::NONE).unwrap(),
            b"payload"
        );
        assert_eq!(t.bytes_copied(), 0, "a borrowed view moves nothing");
        let owned = t.capture(mr.key, mr.addr, 7, Access::NONE).unwrap();
        assert_eq!(&owned[..], b"payload");
        assert_eq!(t.bytes_copied(), 7);
        t.dma_write(mr.key, mr.addr + 16, &owned, Access::LOCAL_WRITE)
            .unwrap();
        assert_eq!(t.bytes_copied(), 14);
    }

    #[test]
    fn a_region_has_no_buffer_until_its_first_touch() {
        let mut t = MemoryTable::new();
        let mr = t.register(SPARE_MIN - 1, Access::all());
        let capacity = |t: &MemoryTable| t.region(mr.key).unwrap().data.capacity();
        let mut buf = [1u8; 8];
        t.app_read(mr.key, mr.addr + 100, &mut buf).unwrap();
        t.check(mr.key, mr.addr, mr.len as u64, Access::REMOTE_WRITE)
            .unwrap();
        assert_eq!((buf, capacity(&t)), ([0; 8], 0));
        t.app_write(mr.key, mr.addr + 100, &[7]).unwrap();
        assert_eq!((capacity(&t), t.backed_bytes()), (mr.len, 101));
    }

    /// One test, because the spare list is the process's: a second test
    /// pushing large buffers meanwhile could evict this one's.
    #[test]
    fn a_large_buffer_passes_to_the_next_region_of_its_length_reading_zero() {
        const LEN: usize = SPARE_MIN + 3 * PAGE as usize + 5;
        let spare_of_len = || spare().iter().filter(|b| b.capacity() == LEN).count();
        let ptr = |t: &MemoryTable, key| t.region(key).unwrap().data.as_ptr();

        let mut t = MemoryTable::new();
        let old = t.register(LEN, Access::all());
        t.app_write(old.key, old.addr, &vec![0xAB; LEN]).unwrap();
        let buffer = ptr(&t, old.key);
        // A region nobody touched leaves nothing behind.
        let idle = t.register(LEN, Access::all());
        t.deregister(idle.key).unwrap();
        assert_eq!(spare_of_len(), 0);
        t.deregister(old.key).unwrap();
        assert_eq!(spare_of_len(), 1);

        // Registering takes nothing; the first touch takes the buffer,
        // and none of what the last region wrote shows through it.
        let new = t.register(LEN, Access::all());
        let mut reference = vec![0u8; LEN];
        let mut read = vec![1u8; LEN];
        t.app_read(new.key, new.addr, &mut read).unwrap();
        assert_eq!((spare_of_len(), &read), (1, &reference));
        let high = LEN - 9;
        t.app_write(new.key, new.addr + high as u64, b"tail")
            .unwrap();
        reference[high..high + 4].copy_from_slice(b"tail");
        assert_eq!((spare_of_len(), ptr(&t, new.key)), (0, buffer));
        t.app_read(new.key, new.addr, &mut read).unwrap();
        assert!(read == reference, "the gap below a high write reads zero");
        let view = t.dma_slice(new.key, new.addr, LEN as u64, Access::NONE);
        assert!(view.unwrap() == reference, "so does a view to the end");
        // A second region of the length finds the list empty and
        // allocates its own.
        let other = t.register(LEN, Access::all());
        t.app_write(other.key, other.addr, &[1]).unwrap();
        assert_ne!(ptr(&t, other.key), buffer);
        drop(t);
        assert_eq!(spare_of_len(), 2);

        // The list is bounded: the oldest buffers leave first.
        let mut t = MemoryTable::new();
        for _ in 0..SPARE_MAX / (16 << 20) {
            let mr = t.register(16 << 20, Access::all());
            t.app_write(mr.key, mr.addr, &[1]).unwrap();
        }
        drop(t);
        let held: usize = spare().iter().map(Vec::capacity).sum();
        assert!(held <= SPARE_MAX, "{held} bytes spare");
        assert_eq!(spare_of_len(), 0);
        spare().clear();
    }

    #[test]
    fn sge_helpers() {
        let mut t = MemoryTable::new();
        let mr = t.register(128, Access::all());
        let s = mr.sge(16, 32);
        assert_eq!(s.addr, mr.addr + 16);
        assert_eq!(s.len, 32);
        assert_eq!(s.lkey, mr.key);
        let f = mr.full_sge();
        assert_eq!(f.addr, mr.addr);
        assert_eq!(f.len, 128);
    }
}
