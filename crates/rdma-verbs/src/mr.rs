//! Registered memory regions and the per-node memory table.
//!
//! Each node has a flat virtual address space. Registering a region
//! allocates a page-aligned address range and returns a key usable as
//! both lkey and rkey. All DMA performed by the simulated HCA goes
//! through [`MemoryTable::dma_view`] (a view of a source range, no
//! copy), [`MemoryTable::dma_write`] (placement, from bytes or from a
//! view of another table's region) and [`MemoryTable::capture`] (an
//! owned copy of the source), which validate key, bounds and access
//! flags exactly as a real HCA's translation and protection table
//! would. Every byte the table places or captures is counted in
//! [`MemoryTable::bytes_copied`], the model's DMA budget, however little
//! of it the host had to copy.
//!
//! A region holds its bytes in 4 KiB pages, the registration alignment;
//! its last page is only as long as the region. Registration allocates
//! nothing: the page table comes with the first write, one slot per
//! page, and each slot is in one of three states —
//!
//! * *empty*: the page reads as zeros and costs nothing;
//! * *owned*: a buffer only this region holds, written in place;
//! * *shared*: a buffer other regions may hold too, copied on write.
//!
//! A placement whose source is a region ([`DmaSource::Region`]: a send
//! on the simulator, a [`MemoryTable::local_copy`] between two regions)
//! hands every page it covers whole — whole in both regions, at the same
//! offset in a page on both sides — to the destination by reference: the
//! source page becomes shared and the destination's old page is dropped.
//! Only partial head and tail pages are copied. The run of whole pages
//! between them is one step over the two page tables: nothing at all
//! when neither region was ever written, so the host's cost of a
//! placement is per page only for pages that hold bytes;
//! [`MemoryTable::pages_shared`] counts the pages handed over. Copy on
//! write keeps the semantics of a copy: a later write to either side
//! leaves the other's bytes as they were placed. A write that covers a
//! whole page replaces it rather than copying the bytes it overwrites,
//! and a partial copy of an empty source page into an empty destination
//! page writes nothing. Reading touches nothing: a view, a capture or an
//! [`MemoryTable::app_read`] of an empty page reads zeros from no buffer.
//! What a run costs the host is therefore the pages it has written
//! ([`MemoryTable::backed_bytes`]), not what it has registered, and a
//! dropped region's pages go back to the allocator one by one, at a size
//! every region reuses.
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

use std::sync::Arc;

use bytes::Bytes;

use crate::types::{Access, MrKey, Result, Sge, VerbsError};

/// Alignment of region base addresses, and the unit in which a region
/// holds, shares and copies on write its bytes.
const PAGE: u64 = 4096;
const PAGE_LEN: usize = PAGE as usize;
/// Base of the simulated virtual address space (an arbitrary non-zero
/// offset so that address 0 is always invalid).
const VA_BASE: u64 = 0x1000_0000;

/// What an empty page reads as.
static ZEROS: [u8; PAGE_LEN] = [0; PAGE_LEN];

/// One page of a region (see the module docs).
#[derive(Default)]
enum Page {
    #[default]
    Empty,
    Owned(Box<[u8]>),
    /// A `Box` behind the `Arc`, so that an owned page becomes shared,
    /// and a shared one that no other region holds any more becomes
    /// owned again, without copying its bytes.
    Shared(Arc<Box<[u8]>>),
}

impl Page {
    /// The page's bytes, or `None` for an empty page.
    #[inline]
    fn bytes(&self) -> Option<&[u8]> {
        match self {
            Page::Empty => None,
            Page::Owned(bytes) => Some(bytes),
            Page::Shared(shared) => Some(shared),
        }
    }

    /// The page's bytes to write in place, `len` of them: zeros for an
    /// empty page, this region's own copy of a page another region
    /// still holds.
    fn owned(&mut self, len: usize) -> &mut [u8] {
        if !matches!(self, Page::Owned(_)) {
            let bytes = match std::mem::take(self) {
                Page::Shared(shared) => Arc::try_unwrap(shared).unwrap_or_else(|s| (*s).clone()),
                _ => vec![0; len].into_boxed_slice(),
            };
            *self = Page::Owned(bytes);
        }
        let Page::Owned(bytes) = self else {
            unreachable!("made owned above")
        };
        bytes
    }

    /// Writes `src` at `off` of this page, which is `len` bytes long.
    #[inline]
    fn write(&mut self, off: usize, src: &[u8], len: usize) {
        match self {
            Page::Owned(bytes) => bytes[off..off + src.len()].copy_from_slice(src),
            // Every old byte is overwritten: a buffer another region
            // still holds is left to it rather than copied first, and
            // one nobody else holds is reused (`owned`) rather than
            // freed and allocated again.
            Page::Shared(shared) if src.len() == len && Arc::strong_count(shared) > 1 => {
                *self = Page::Owned(src.into())
            }
            Page::Empty if src.len() == len => *self = Page::Owned(src.into()),
            _ => self.owned(len)[off..off + src.len()].copy_from_slice(src),
        }
    }

    /// Writes `n` zeros at `off`: nothing to do on an empty page.
    fn zero(&mut self, off: usize, n: usize, len: usize) {
        if !matches!(self, Page::Empty) {
            self.owned(len)[off..off + n].fill(0);
        }
    }

    /// Another handle on this page, for a second region to hold by
    /// reference: an owned page becomes shared.
    fn share(&mut self) -> Page {
        match self {
            Page::Empty => Page::Empty,
            Page::Shared(shared) => Page::Shared(Arc::clone(shared)),
            Page::Owned(bytes) => {
                let shared = Arc::new(std::mem::take(bytes));
                *self = Page::Shared(Arc::clone(&shared));
                Page::Shared(shared)
            }
        }
    }
}

/// The pages `[off, off + len)` of a region spans, as `(page, offset in
/// the page, length)` pieces, lowest first.
fn spans(off: usize, len: usize) -> impl Iterator<Item = (usize, usize, usize)> {
    let (mut at, end) = (off, off + len);
    std::iter::from_fn(move || {
        (at < end).then(|| {
            let (page, offset) = (at / PAGE_LEN, at % PAGE_LEN);
            let n = (PAGE_LEN - offset).min(end - at);
            at += n;
            (page, offset, n)
        })
    })
}

/// A registered memory region.
pub struct MemoryRegion {
    key: MrKey,
    base: u64,
    len: usize,
    /// One slot per page from the first write on; empty, and every byte
    /// zero, until then.
    pages: Vec<Page>,
    access: Access,
}

impl MemoryRegion {
    fn check_range(&self, addr: u64, len: u64) -> Result<usize> {
        let end = addr
            .checked_add(len)
            .ok_or(VerbsError::OutOfBounds { addr, len })?;
        if addr < self.base || end > self.base + self.len as u64 {
            return Err(VerbsError::OutOfBounds { addr, len });
        }
        Ok((addr - self.base) as usize)
    }

    /// Length of page `page`: the last one is only as long as the region.
    #[inline]
    fn page_len(&self, page: usize) -> usize {
        PAGE_LEN.min(self.len - page * PAGE_LEN)
    }

    /// The page table to write, created at the first write.
    #[inline]
    fn table(&mut self) -> &mut [Page] {
        if self.pages.is_empty() {
            self.pages
                .resize_with(self.len.div_ceil(PAGE_LEN), Page::default);
        }
        &mut self.pages
    }

    /// The bytes of page `page`, zeros for an empty one.
    #[inline]
    fn page_bytes(&self, page: usize) -> &[u8] {
        self.pages
            .get(page)
            .and_then(Page::bytes)
            .unwrap_or(&ZEROS[..self.page_len(page)])
    }

    /// Writes `src` at `off`. `off + src.len()` is within the region.
    fn write(&mut self, off: usize, mut src: &[u8]) {
        for (page, at, n) in spans(off, src.len()) {
            let (piece, rest) = src.split_at(n);
            let len = self.page_len(page);
            self.table()[page].write(at, piece, len);
            src = rest;
        }
    }

    /// Fills `buf` from `off`: written bytes as they are, the rest zero.
    fn read(&self, off: usize, mut buf: &mut [u8]) {
        for (page, at, n) in spans(off, buf.len()) {
            let (piece, rest) = std::mem::take(&mut buf).split_at_mut(n);
            piece.copy_from_slice(&self.page_bytes(page)[at..at + n]);
            buf = rest;
        }
    }

    /// Places `len` bytes from `src_off` of `src` at `off`: a partial
    /// head and tail piece by copy and, between them, the span of pages
    /// whole in both regions at the same offset by reference, in one
    /// step over the two page tables. Both ranges are within their
    /// regions. Returns the number of pages handed over.
    fn place(&mut self, off: usize, src: &mut MemoryRegion, src_off: usize, len: usize) -> u64 {
        // Page boundaries coincide only at one offset in a page on both
        // sides; otherwise the head is all of it.
        let head = if off % PAGE_LEN == src_off % PAGE_LEN {
            (off.next_multiple_of(PAGE_LEN) - off).min(len)
        } else {
            len
        };
        self.copy(off, src, src_off, head);
        if head == len {
            return 0;
        }
        // A short last page is whole in both regions when the range ends
        // both of them.
        let body = len - head;
        let tail = if off + len == self.len && src_off + len == src.len {
            0
        } else {
            body % PAGE_LEN
        };
        let whole = body - tail;
        let pages = whole.div_ceil(PAGE_LEN);
        let (at, from) = (off + head, src_off + head);
        let (page, src_page) = (at / PAGE_LEN, from / PAGE_LEN);
        if src.pages.is_empty() {
            // Empty pages handed over: nothing to do if this region was
            // never written either.
            if let Some(span) = self.pages.get_mut(page..page + pages) {
                span.fill_with(Page::default);
            }
        } else if pages > 0 {
            let span = &mut self.table()[page..page + pages];
            for (dst, src) in span.iter_mut().zip(&mut src.pages[src_page..]) {
                *dst = src.share();
            }
        }
        self.copy(at + whole, src, from + whole, tail);
        pages as u64
    }

    /// Copies `len` bytes from `src_off` of `src` to `off`, a piece per
    /// page on either side. A piece of a page the source never wrote
    /// zeroes the destination's page, if it has one.
    fn copy(&mut self, off: usize, src: &MemoryRegion, src_off: usize, len: usize) {
        let (mut at, mut from, end) = (off, src_off, off + len);
        while at < end {
            let (page, offset) = (at / PAGE_LEN, at % PAGE_LEN);
            let (src_page, src_offset) = (from / PAGE_LEN, from % PAGE_LEN);
            let n = (PAGE_LEN - offset.max(src_offset)).min(end - at);
            let page_len = self.page_len(page);
            match src.pages.get(src_page).and_then(Page::bytes) {
                Some(bytes) => {
                    let piece = &bytes[src_offset..src_offset + n];
                    self.table()[page].write(offset, piece, page_len);
                }
                None => {
                    if let Some(dst) = self.pages.get_mut(page) {
                        dst.zero(offset, n, page_len);
                    }
                }
            }
            at += n;
            from += n;
        }
    }

    /// Bytes held in pages: each page that is not empty, whole.
    fn backed_bytes(&self) -> usize {
        self.pages
            .iter()
            .filter_map(Page::bytes)
            .map(<[u8]>::len)
            .sum()
    }
}

/// A checked range of one region that a DMA reads
/// ([`MemoryTable::dma_view`]): a view, no copy. It holds the region
/// mutably because placing it elsewhere turns the pages it hands over
/// into shared ones.
pub struct RegionView<'a> {
    region: &'a mut MemoryRegion,
    off: usize,
    len: usize,
}

impl RegionView<'_> {
    /// Length of the range in bytes.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The range's bytes, copied.
    pub fn to_vec(&self) -> Vec<u8> {
        let mut out = vec![0; self.len];
        self.region.read(self.off, &mut out);
        out
    }

    /// The range's bytes as an owned buffer: one allocation, zeroed and
    /// then written with one copy of the range.
    fn to_bytes(&self) -> Bytes {
        let mut bytes: Arc<[u8]> = std::iter::repeat_n(0, self.len).collect();
        let buf = Arc::get_mut(&mut bytes).expect("nothing else holds a new buffer");
        self.region.read(self.off, buf);
        Bytes::from(bytes)
    }
}

/// Where the bytes a placement writes come from.
pub enum DmaSource<'a> {
    /// Bytes the caller holds: inline data or a captured payload.
    Slice(&'a [u8]),
    /// A range of a region in another table, placed by page reference
    /// wherever the pages line up (see the module docs).
    Region(RegionView<'a>),
}

impl DmaSource<'_> {
    /// Length in bytes.
    pub(crate) fn len(&self) -> usize {
        match self {
            DmaSource::Slice(bytes) => bytes.len(),
            DmaSource::Region(view) => view.len(),
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
    pages_shared: u64,
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
            pages_shared: 0,
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
            pages: Vec::new(),
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

    /// Length in bytes of a live registration, if `key` is known.
    pub fn len_of(&self, key: MrKey) -> Option<usize> {
        self.region(key).ok().map(|r| r.len)
    }

    /// Bytes of live registrations held in pages, which is what they
    /// cost the host: every page that is not empty counts whole (a
    /// region's last page only as long as the region), in each region
    /// that holds it. A page is held once something has written it or a
    /// placement has handed it a page that was; the rest of each region
    /// is address space at most.
    pub fn backed_bytes(&self) -> usize {
        self.slots
            .iter()
            .filter_map(|slot| slot.region.as_ref())
            .map(MemoryRegion::backed_bytes)
            .sum()
    }

    /// Bytes this table has placed or captured since creation: DMA
    /// placement ([`MemoryTable::dma_write`]), payload capture
    /// ([`MemoryTable::capture`]) and [`MemoryTable::local_copy`] — the
    /// model's DMA budget, counted whether the host copied a byte or
    /// handed over the page it lies in. The application's own
    /// `app_read`/`app_write` are not HCA work and are not counted. The
    /// copy-budget tests hold this against the payload size, so a
    /// staging copy that creeps back in fails exactly.
    pub fn bytes_copied(&self) -> u64 {
        self.bytes_copied
    }

    /// Pages this table's placements have taken by reference rather than
    /// by copy (see the module docs): the host's work that
    /// [`MemoryTable::bytes_copied`] does not show, counted exactly.
    pub fn pages_shared(&self) -> u64 {
        self.pages_shared
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
    /// [`Access::LOCAL_WRITE`] for RECV placement). A
    /// [`DmaSource::Region`] is placed by page reference wherever the
    /// pages line up.
    pub fn dma_write(
        &mut self,
        key: MrKey,
        addr: u64,
        data: DmaSource<'_>,
        required_access: Access,
    ) -> Result<()> {
        let len = data.len();
        let region = self.region_mut(key)?;
        if !region.access.contains(required_access) {
            return Err(VerbsError::AccessViolation);
        }
        let off = region.check_range(addr, len as u64)?;
        let shared = match data {
            DmaSource::Slice(bytes) => {
                region.write(off, bytes);
                0
            }
            DmaSource::Region(view) => region.place(off, view.region, view.off, len),
        };
        self.bytes_copied += len as u64;
        self.pages_shared += shared;
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

    /// HCA-side DMA read as a view of `[addr, addr+len)`: the key,
    /// bounds and access check of a gather, without the copy. The table
    /// is lent mutably so that a placement of the view can share its
    /// pages (see the module docs).
    pub fn dma_view(
        &mut self,
        key: MrKey,
        addr: u64,
        len: u64,
        required_access: Access,
    ) -> Result<RegionView<'_>> {
        let region = self.region_mut(key)?;
        if !region.access.contains(required_access) {
            return Err(VerbsError::AccessViolation);
        }
        let off = region.check_range(addr, len)?;
        Ok(RegionView {
            region,
            off,
            len: len as usize,
        })
    }

    /// HCA-side DMA read into bytes the caller owns: one allocation and
    /// one copy. For payloads that leave the lock their source is read
    /// under: every send on the thread backend, which delivers under the
    /// destination's lock alone.
    pub fn capture(
        &mut self,
        key: MrKey,
        addr: u64,
        len: u64,
        required_access: Access,
    ) -> Result<Bytes> {
        let bytes = self.dma_view(key, addr, len, required_access)?.to_bytes();
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
    /// number of bytes copied. Between two regions, pages that line up
    /// are placed by reference, as [`MemoryTable::dma_write`] places a
    /// [`DmaSource::Region`]. Ranges within one region may overlap
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
                // Read out first: the ranges may overlap.
                let mut moved = vec![0; n];
                region.read(from, &mut moved);
                region.write(to, &moved);
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
            self.pages_shared += dst.place(to, src, from, n);
        }
        self.bytes_copied += len;
        Ok(len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use DmaSource::Slice;

    #[test]
    fn register_allocates_disjoint_aligned_ranges() {
        let mut t = MemoryTable::new();
        let a = t.register(100, Access::local_remote_write());
        let b = t.register(5000, Access::local_remote_write());
        let c = t.register(0, Access::local_remote_write());
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
        let mr = t.register(16, Access::local_remote_write());
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
            t.dma_view(mr.key, u64::MAX, 2, Access::NONE),
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
        let local = t.register(32, Access::LOCAL_WRITE);
        // Remote write against a region without the grant fails.
        assert_eq!(
            t.dma_write(local.key, local.addr, Slice(&[1, 2]), Access::REMOTE_WRITE),
            Err(VerbsError::AccessViolation)
        );
        // Local write is allowed.
        assert!(t
            .dma_write(local.key, local.addr, Slice(&[1, 2]), Access::LOCAL_WRITE)
            .is_ok());
        let remote = t.register(32, Access::REMOTE_WRITE);
        assert!(t
            .dma_write(
                remote.key,
                remote.addr,
                Slice(&[1, 2]),
                Access::REMOTE_WRITE
            )
            .is_ok());
        // Every checked access asks for the flag.
        assert_eq!(
            t.dma_view(remote.key, remote.addr, 2, Access::LOCAL_WRITE)
                .err(),
            Some(VerbsError::AccessViolation)
        );
        assert_eq!(
            t.capture(remote.key, remote.addr, 2, Access::LOCAL_WRITE)
                .err(),
            Some(VerbsError::AccessViolation)
        );
    }

    #[test]
    fn deregister_invalidates_key() {
        let mut t = MemoryTable::new();
        let mr = t.register(8, Access::local_remote_write());
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
            t.dma_view(key, addr, 1, Access::NONE).map(drop),
            t.dma_write(key, addr, Slice(&[1]), Access::NONE),
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
        let other = t.register(8, Access::local_remote_write());
        let old = t.register(8, Access::local_remote_write());
        t.deregister(old.key).unwrap();
        assert_unknown_everywhere(&mut t, old.key, old.addr, other);

        // The next registration takes the freed slot under a new key.
        let new = t.register(8, Access::local_remote_write());
        assert_eq!(slot_of(new.key), slot_of(old.key), "slot reused");
        assert_ne!(new.key, old.key);
        assert_eq!(t.slots.len(), 3, "reserved slot 0 + two regions");
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
        let pinned: Vec<MrInfo> = (0..3)
            .map(|_| t.register(16, Access::local_remote_write()))
            .collect();
        let mut seen = std::collections::BTreeSet::new();
        let mut first = None;
        for _ in 0..CYCLES {
            let a = t.register(16, Access::local_remote_write());
            let b = t.register(16, Access::local_remote_write());
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
            t.slots.len() <= 1 + 5 + retired + 2,
            "{} slots after {CYCLES} cycles",
            t.slots.len()
        );
        assert_unknown_everywhere(&mut t, first.unwrap(), VA_BASE, pinned[0]);
        for mr in pinned {
            t.app_write(mr.key, mr.addr, &[7]).unwrap();
        }
    }

    #[test]
    fn local_copy_moves_bytes() {
        let mut t = MemoryTable::new();
        let src = t.register(32, Access::local_remote_write());
        let dst = t.register(32, Access::local_remote_write());
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
        let mr = t.register(16, Access::local_remote_write());
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
        let src = t.register(8, Access::local_remote_write());
        let dst = t.register(8, Access::local_remote_write());
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
        let mr = t.register(32, Access::local_remote_write());
        t.app_write(mr.key, mr.addr, b"payload").unwrap();
        assert_eq!(t.bytes_copied(), 0, "the app's own writes are not HCA work");
        assert_eq!(
            t.dma_view(mr.key, mr.addr, 7, Access::NONE)
                .unwrap()
                .to_vec(),
            b"payload"
        );
        assert_eq!(t.bytes_copied(), 0, "a view moves nothing");
        let owned = t.capture(mr.key, mr.addr, 7, Access::NONE).unwrap();
        assert_eq!(&owned[..], b"payload");
        assert_eq!(t.bytes_copied(), 7);
        t.dma_write(mr.key, mr.addr + 16, Slice(&owned), Access::LOCAL_WRITE)
            .unwrap();
        assert_eq!(t.bytes_copied(), 14);
    }

    #[test]
    fn a_region_has_no_page_table_until_its_first_write() {
        let mut t = MemoryTable::new();
        let mr = t.register(3 * PAGE_LEN + 5, Access::local_remote_write());
        let pages = |t: &MemoryTable| t.region(mr.key).unwrap().pages.len();
        let mut buf = [1u8; 8];
        t.app_read(mr.key, mr.addr + 100, &mut buf).unwrap();
        t.check(mr.key, mr.addr, mr.len as u64, Access::REMOTE_WRITE)
            .unwrap();
        let view = t.dma_view(mr.key, mr.addr, mr.len as u64, Access::NONE);
        assert!(view.unwrap().to_vec().iter().all(|&b| b == 0));
        t.capture(mr.key, mr.addr + 4090, 10, Access::NONE).unwrap();
        assert_eq!((buf, pages(&t), t.backed_bytes()), ([0; 8], 0, 0));
        t.app_write(mr.key, mr.addr + PAGE + 100, &[7]).unwrap();
        assert_eq!((pages(&t), t.backed_bytes()), (4, PAGE_LEN));
        // The last page is only as long as the region.
        t.app_write(mr.key, mr.addr + 3 * PAGE, &[7]).unwrap();
        assert_eq!(t.backed_bytes(), PAGE_LEN + 5);
    }

    /// The address of the buffer of page `page` of `mr`, if it has one:
    /// two regions showing one address hold one page between them.
    fn page_ptr(t: &MemoryTable, mr: MrInfo, page: usize) -> Option<*const u8> {
        let region = t.region(mr.key).unwrap();
        region
            .pages
            .get(page)
            .and_then(Page::bytes)
            .map(<[u8]>::as_ptr)
    }

    #[test]
    fn a_placement_hands_over_the_pages_it_covers_whole_and_copies_the_rest() {
        const LEN: usize = 3 * PAGE_LEN + 100;
        let (mut a, mut b) = (MemoryTable::new(), MemoryTable::new());
        let src = a.register(LEN, Access::local_remote_write());
        let dst = b.register(LEN, Access::local_remote_write());
        let pattern: Vec<u8> = (0..LEN).map(|i| (i % 251) as u8).collect();
        a.app_write(src.key, src.addr, &pattern).unwrap();
        let place = |a: &mut MemoryTable, b: &mut MemoryTable, from: u64, to: u64, len: u64| {
            let view = a.dma_view(src.key, src.addr + from, len, Access::NONE);
            let view = DmaSource::Region(view.unwrap());
            b.dma_write(dst.key, dst.addr + to, view, Access::NONE)
                .unwrap();
        };

        // Aligned: every page, the short last one too, by reference.
        place(&mut a, &mut b, 0, 0, LEN as u64);
        assert_eq!((b.pages_shared(), b.bytes_copied()), (4, LEN as u64));
        for page in 0..4 {
            assert_eq!(page_ptr(&a, src, page), page_ptr(&b, dst, page));
        }
        // One byte in on both sides: the head page is copied.
        place(&mut a, &mut b, 1, 1, LEN as u64 - 1);
        assert_eq!(b.pages_shared(), 4 + 3);
        // Offsets that differ within a page: nothing lines up.
        place(&mut a, &mut b, 0, 1, LEN as u64 - 1);
        assert_eq!(b.pages_shared(), 7);
        assert_eq!(a.pages_shared(), 0, "the destination counts");
        let mut read = vec![0u8; LEN];
        b.app_read(dst.key, dst.addr, &mut read).unwrap();
        assert_eq!(read[0], pattern[0]);
        assert_eq!(read[1..], pattern[..LEN - 1]);
    }

    #[test]
    fn a_span_of_whole_pages_is_one_step_whichever_page_tables_exist() {
        const LEN: usize = 6 * PAGE_LEN + 100;
        let (mut a, mut b) = (MemoryTable::new(), MemoryTable::new());
        let src = a.register(LEN, Access::local_remote_write());
        let dst = b.register(LEN, Access::local_remote_write());
        // `len` bytes from `at` of `src` to `at` of `dst`.
        let place = |a: &mut MemoryTable, b: &mut MemoryTable, dst: MrInfo, at: u64, len: u64| {
            let view = a.dma_view(src.key, src.addr + at, len, Access::NONE);
            let view = DmaSource::Region(view.unwrap());
            b.dma_write(dst.key, dst.addr + at, view, Access::NONE)
                .unwrap();
        };
        let pages = |t: &MemoryTable, mr: MrInfo| t.region(mr.key).unwrap().pages.len();
        let read = |t: &MemoryTable, mr: MrInfo| {
            let mut all = vec![0xEE; LEN];
            t.app_read(mr.key, mr.addr, &mut all).unwrap();
            all
        };

        // Neither region written: the pages, the short last one too, are
        // counted as handed over, and nothing else happens.
        place(&mut a, &mut b, dst, 0, LEN as u64);
        assert_eq!((b.pages_shared(), b.bytes_copied()), (7, LEN as u64));
        assert_eq!(
            (pages(&a, src), pages(&b, dst), b.backed_bytes()),
            (0, 0, 0)
        );

        // A never-written source over a written destination: the span's
        // pages are dropped, the head and tail pieces zeroed in place.
        b.app_write(dst.key, dst.addr, &[9; LEN]).unwrap();
        place(&mut a, &mut b, dst, 1, 5 * PAGE - 1 + 10);
        assert_eq!(b.pages_shared(), 7 + 4);
        assert_eq!(
            b.backed_bytes(),
            LEN - 4 * PAGE_LEN,
            "the span backs nothing"
        );
        let mut expect = vec![9; LEN];
        expect[1..5 * PAGE_LEN + 10].fill(0);
        assert_eq!(read(&b, dst), expect);

        // A written source over a never-written destination: the span
        // hands its pages over; a range that stops one byte short of the
        // short last page copies it.
        let pattern: Vec<u8> = (0..LEN).map(|i| (i % 251) as u8).collect();
        a.app_write(src.key, src.addr, &pattern).unwrap();
        let fresh = b.register(LEN, Access::local_remote_write());
        place(&mut a, &mut b, fresh, 0, LEN as u64 - 1);
        assert_eq!(b.pages_shared(), 11 + 6);
        for page in 0..6 {
            assert_eq!(page_ptr(&a, src, page), page_ptr(&b, fresh, page));
        }
        assert_ne!(page_ptr(&a, src, 6), page_ptr(&b, fresh, 6));
        expect.copy_from_slice(&pattern);
        expect[LEN - 1] = 0;
        assert_eq!(read(&b, fresh), expect);

        // Both written: page for page, the short last page too when the
        // range ends both regions.
        place(&mut a, &mut b, dst, 0, LEN as u64);
        assert_eq!(b.pages_shared(), 17 + 7);
        for page in 0..7 {
            assert_eq!(page_ptr(&a, src, page), page_ptr(&b, dst, page));
        }
        assert_eq!(read(&b, dst), pattern);
    }

    #[test]
    fn copy_on_write_a_shared_page_on_either_side() {
        let (mut a, mut b) = (MemoryTable::new(), MemoryTable::new());
        let src = a.register(2 * PAGE_LEN, Access::local_remote_write());
        let dst = b.register(2 * PAGE_LEN, Access::local_remote_write());
        a.app_write(src.key, src.addr, &[1; 2 * PAGE_LEN]).unwrap();
        let view = a.dma_view(src.key, src.addr, 2 * PAGE, Access::NONE);
        b.dma_write(
            dst.key,
            dst.addr,
            DmaSource::Region(view.unwrap()),
            Access::NONE,
        )
        .unwrap();
        let shared = page_ptr(&a, src, 0);
        assert_eq!(page_ptr(&b, dst, 0), shared);

        // A partial write copies the page first; a whole one replaces it.
        a.app_write(src.key, src.addr + 10, &[2]).unwrap();
        b.app_write(dst.key, dst.addr + PAGE, &[3; PAGE_LEN])
            .unwrap();
        assert_ne!(page_ptr(&a, src, 0), shared);
        assert_eq!(page_ptr(&b, dst, 0), shared, "b still holds the old page");
        let read = |t: &MemoryTable, mr: MrInfo, at: u64| {
            let mut byte = [0u8];
            t.app_read(mr.key, mr.addr + at, &mut byte).unwrap();
            byte[0]
        };
        assert_eq!((read(&a, src, 10), read(&b, dst, 10)), (2, 1));
        assert_eq!((read(&a, src, PAGE), read(&b, dst, PAGE)), (1, 3));
        // The last holder of a once-shared page writes it in place.
        b.app_write(dst.key, dst.addr + 10, &[4]).unwrap();
        assert_eq!(page_ptr(&b, dst, 0), shared);
    }

    #[test]
    fn sge_helpers() {
        let mut t = MemoryTable::new();
        let mr = t.register(128, Access::local_remote_write());
        let s = mr.sge(16, 32);
        assert_eq!(s.addr, mr.addr + 16);
        assert_eq!(s.len, 32);
        assert_eq!(s.lkey, mr.key);
        let f = mr.full_sge();
        assert_eq!(f.addr, mr.addr);
        assert_eq!(f.len, 128);
    }
}
