//! Registered memory regions and the per-node memory table.
//!
//! Each node has a flat virtual address space. Registering a region
//! allocates a page-aligned address range, pins a byte buffer behind it,
//! and returns a key usable as both lkey and rkey. All DMA performed by
//! the simulated HCA goes through [`MemoryTable::dma_slice`] (a borrowed
//! view of the source, no copy), [`MemoryTable::dma_write`] (placement)
//! and [`MemoryTable::capture`] (an owned copy of the source), which
//! validate key, bounds and access flags exactly as a real HCA's
//! translation and protection table would. Every byte the table itself
//! moves is counted in [`MemoryTable::bytes_copied`].

use std::collections::HashMap;

use bytes::Bytes;

use crate::types::{Access, MrKey, Result, Sge, VerbsError};

/// Alignment of region base addresses.
const PAGE: u64 = 4096;
/// Base of the simulated virtual address space (an arbitrary non-zero
/// offset so that address 0 is always invalid).
const VA_BASE: u64 = 0x1000_0000;

/// A registered memory region.
pub struct MemoryRegion {
    key: MrKey,
    base: u64,
    data: Vec<u8>,
    access: Access,
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
        self.data.len()
    }

    /// True for a zero-length registration.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Granted access flags.
    pub fn access(&self) -> Access {
        self.access
    }

    fn check_range(&self, addr: u64, len: u64) -> Result<usize> {
        let end = addr
            .checked_add(len)
            .ok_or(VerbsError::OutOfBounds { addr, len })?;
        if addr < self.base || end > self.base + self.data.len() as u64 {
            return Err(VerbsError::OutOfBounds { addr, len });
        }
        Ok((addr - self.base) as usize)
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

/// The per-node registration table.
#[derive(Default)]
pub struct MemoryTable {
    regions: HashMap<u32, MemoryRegion>,
    next_key: u32,
    cursor: u64,
    bytes_copied: u64,
}

impl MemoryTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        MemoryTable {
            regions: HashMap::new(),
            next_key: 1,
            cursor: VA_BASE,
            bytes_copied: 0,
        }
    }

    /// Registers a zero-initialized region of `len` bytes.
    pub fn register(&mut self, len: usize, access: Access) -> MrInfo {
        let key = MrKey(self.next_key);
        self.next_key += 1;
        let base = self.cursor;
        let span = (len as u64).div_ceil(PAGE).max(1) * PAGE;
        self.cursor += span;
        self.regions.insert(
            key.0,
            MemoryRegion {
                key,
                base,
                data: vec![0; len],
                access,
            },
        );
        MrInfo {
            key,
            addr: base,
            len,
        }
    }

    /// Deregisters a region. Returns an error for unknown keys.
    pub fn deregister(&mut self, key: MrKey) -> Result<()> {
        self.regions
            .remove(&key.0)
            .map(|_| ())
            .ok_or(VerbsError::UnknownKey(key))
    }

    /// Number of live registrations.
    pub fn len(&self) -> usize {
        self.regions.len()
    }

    /// True when no regions are registered.
    pub fn is_empty(&self) -> bool {
        self.regions.is_empty()
    }

    /// Length in bytes of a live registration, if `key` is known.
    pub fn len_of(&self, key: MrKey) -> Option<usize> {
        self.regions.get(&key.0).map(|r| r.data.len())
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

    fn region(&self, key: MrKey) -> Result<&MemoryRegion> {
        self.regions.get(&key.0).ok_or(VerbsError::UnknownKey(key))
    }

    fn region_mut(&mut self, key: MrKey) -> Result<&mut MemoryRegion> {
        self.regions
            .get_mut(&key.0)
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
        region.data[off..off + data.len()].copy_from_slice(data);
        self.bytes_copied += data.len() as u64;
        Ok(())
    }

    /// HCA-side DMA read as a borrowed view of `[addr, addr+len)`: the
    /// key, bounds and access check of a gather, without the copy. Also
    /// how a work request's SGE is validated at post time.
    pub fn dma_slice(
        &self,
        key: MrKey,
        addr: u64,
        len: u64,
        required_access: Access,
    ) -> Result<&[u8]> {
        let region = self.region(key)?;
        if !region.access.contains(required_access) {
            return Err(VerbsError::AccessViolation);
        }
        let off = region.check_range(addr, len)?;
        Ok(&region.data[off..off + len as usize])
    }

    /// HCA-side DMA read into bytes the caller owns: one allocation and
    /// one copy. For payloads that must outlive the source's validity —
    /// an RDMA READ response, and every send on the thread backend,
    /// which completes sends at post time.
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
        region.data[off..off + data.len()].copy_from_slice(data);
        Ok(())
    }

    /// Application-side read of its own registered memory.
    pub fn app_read(&self, key: MrKey, addr: u64, buf: &mut [u8]) -> Result<()> {
        let region = self.region(key)?;
        let off = region.check_range(addr, buf.len() as u64)?;
        buf.copy_from_slice(&region.data[off..off + buf.len()]);
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
            region.data.copy_within(from..from + n, to);
        } else {
            let [src, dst] = self.regions.get_disjoint_mut([&src_key.0, &dst_key.0]);
            let src = src.ok_or(VerbsError::UnknownKey(src_key))?;
            let dst = dst.ok_or(VerbsError::UnknownKey(dst_key))?;
            let from = src.check_range(src_addr, len)?;
            let to = dst.check_range(dst_addr, len)?;
            dst.data[to..to + n].copy_from_slice(&src.data[from..from + n]);
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
