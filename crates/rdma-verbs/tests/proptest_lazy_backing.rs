//! Backed-on-first-touch memory against a reference that is not.
//!
//! `MemoryTable` allocates a region's buffer at its first touch and backs
//! only the prefix something has touched (`mr.rs` module docs; its unit
//! tests cover a large buffer passing from a dropped region to the
//! next). Nothing about that may show: random interleavings of every
//! accessor — writes that start at the highest offset, reads of ranges
//! never written, copies that overlap within a region, ranges and keys
//! that must be refused, a slot deregistered and registered again —
//! leave the same bytes and return the same results as a plain
//! `vec![0; len]` per region. What
//! does show is the cost, and that is pinned too: `backed_bytes` is the
//! highest byte a write or a view has reached in each region, so a
//! check or an `app_read` that starts touching memory fails here.

use proptest::prelude::*;
use rdma_verbs::{Access, MemoryTable, MrInfo, MrKey, VerbsError};

/// Lengths of the two regions: small, so offsets collide and ranges
/// often cross the end.
const LENS: [usize; 2] = [192, 160];
/// Offsets and lengths are drawn up to this far past a region's end.
const SLACK: u64 = 16;

#[derive(Clone, Copy, Debug)]
enum Op {
    AppWrite(Range, u8),
    AppRead(Range),
    DmaWrite(Range, u8, usize),
    DmaSlice(Range, usize),
    Capture(Range, usize),
    Check(Range, usize),
    /// `len` bytes from `src` to `dst_off` of region `dst` (the same
    /// region, overlapping or not, or the other one).
    LocalCopy(Range, usize, u64),
    /// Deregister the region and register its slot again.
    Reregister(usize),
}

/// `[off, off + len)` of region `region`, possibly out of bounds, named
/// by the region's current key or by the one it had before its last
/// re-registration.
#[derive(Clone, Copy, Debug)]
struct Range {
    region: usize,
    off: u64,
    len: u64,
    stale_key: bool,
}

/// Access sets for registrations and requirements, by index.
const ACCESS: [Access; 4] = [
    Access::NONE,
    Access::LOCAL_WRITE,
    Access::REMOTE_READ,
    Access::REMOTE_WRITE,
];

fn range() -> impl Strategy<Value = Range> {
    (0usize..2, any::<u64>(), any::<u64>(), 0u32..8).prop_map(|(region, off, len, stale)| {
        let span = LENS[region] as u64 + SLACK;
        Range {
            region,
            off: off % span,
            // Mostly short ranges, so that many fit; sometimes any.
            len: if len % 4 == 0 { len % span } else { len % 24 },
            stale_key: stale == 0,
        }
    })
}

fn op() -> impl Strategy<Value = Op> {
    let access = 0usize..ACCESS.len();
    prop_oneof![
        4 => (range(), any::<u8>()).prop_map(|(r, seed)| Op::AppWrite(r, seed)),
        4 => range().prop_map(Op::AppRead),
        4 => (range(), any::<u8>(), access.clone()).prop_map(|(r, seed, a)| Op::DmaWrite(r, seed, a)),
        3 => (range(), access.clone()).prop_map(|(r, a)| Op::DmaSlice(r, a)),
        3 => (range(), access.clone()).prop_map(|(r, a)| Op::Capture(r, a)),
        2 => (range(), access).prop_map(|(r, a)| Op::Check(r, a)),
        4 => (range(), 0usize..2, any::<u64>()).prop_map(|(r, dst, off)| {
            Op::LocalCopy(r, dst, off % (LENS[dst] as u64 + SLACK))
        }),
        1 => (0usize..2).prop_map(Op::Reregister),
    ]
}

fn fill(seed: u8, len: u64) -> Vec<u8> {
    (0..len).map(|i| (i as u8).wrapping_mul(7) ^ seed).collect()
}

/// One region of the reference: every byte there from the start.
struct Plain {
    info: MrInfo,
    stale: MrKey,
    access: Access,
    bytes: Vec<u8>,
    /// End of the highest range a write or a view has covered.
    touched: usize,
}

struct Reference {
    regions: Vec<Plain>,
    copied: u64,
}

impl Reference {
    /// The table's order of refusal: key, then access, then bounds.
    fn locate(&self, r: Range, required: Access) -> Result<(usize, usize), VerbsError> {
        let region = &self.regions[r.region];
        if r.stale_key {
            return Err(VerbsError::UnknownKey(region.stale));
        }
        if !region.access.contains(required) {
            return Err(VerbsError::AccessViolation);
        }
        let addr = region.info.addr + r.off;
        if r.off + r.len > region.bytes.len() as u64 {
            return Err(VerbsError::OutOfBounds { addr, len: r.len });
        }
        Ok((r.off as usize, (r.off + r.len) as usize))
    }

    fn touch(&mut self, region: usize, from: usize, to: usize) {
        if to > from {
            let touched = &mut self.regions[region].touched;
            *touched = (*touched).max(to);
        }
    }
}

fn key_and_addr(reference: &Reference, r: Range) -> (MrKey, u64) {
    let region = &reference.regions[r.region];
    let key = if r.stale_key {
        region.stale
    } else {
        region.info.key
    };
    (key, region.info.addr + r.off)
}

fn register(table: &mut MemoryTable, region: usize, access: Access, stale: MrKey) -> Plain {
    Plain {
        info: table.register(LENS[region], access),
        stale,
        access,
        bytes: vec![0; LENS[region]],
        touched: 0,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn lazily_backed_regions_read_and_refuse_like_plain_vectors(
        ops in proptest::collection::vec(op(), 1..60),
        access in (0usize..12, 0usize..12),
    ) {
        // Most runs grant everything, so that most operations succeed.
        let grant = |i: usize| ACCESS.get(i).copied().unwrap_or(Access::all());
        let mut table = MemoryTable::new();
        // A key that was never issued stands in for "stale" until the
        // first re-registration.
        let never = MrKey(0xFFF0_0000);
        let mut reference = Reference {
            regions: vec![
                register(&mut table, 0, grant(access.0), never),
                register(&mut table, 1, grant(access.1), never),
            ],
            copied: 0,
        };

        for (step, op) in ops.iter().copied().enumerate() {
            match op {
                Op::AppWrite(r, seed) => {
                    let data = fill(seed, r.len);
                    let (key, addr) = key_and_addr(&reference, r);
                    let expect = reference.locate(r, Access::NONE).map(|(from, to)| {
                        reference.regions[r.region].bytes[from..to].copy_from_slice(&data);
                        reference.touch(r.region, from, to);
                    });
                    prop_assert_eq!(table.app_write(key, addr, &data), expect, "step {}", step);
                }
                Op::AppRead(r) => {
                    let mut buf = vec![0xEE; r.len as usize];
                    let (key, addr) = key_and_addr(&reference, r);
                    let expect = reference
                        .locate(r, Access::NONE)
                        .map(|(from, to)| reference.regions[r.region].bytes[from..to].to_vec());
                    let got = table.app_read(key, addr, &mut buf).map(|()| buf);
                    prop_assert_eq!(got, expect, "step {}", step);
                }
                Op::DmaWrite(r, seed, required) => {
                    let data = fill(seed, r.len);
                    let (key, addr) = key_and_addr(&reference, r);
                    let expect = reference.locate(r, ACCESS[required]).map(|(from, to)| {
                        reference.regions[r.region].bytes[from..to].copy_from_slice(&data);
                        reference.touch(r.region, from, to);
                        reference.copied += r.len;
                    });
                    let got = table.dma_write(key, addr, &data, ACCESS[required]);
                    prop_assert_eq!(got, expect, "step {}", step);
                }
                Op::DmaSlice(r, required) | Op::Capture(r, required) => {
                    let (key, addr) = key_and_addr(&reference, r);
                    let expect = reference.locate(r, ACCESS[required]).map(|(from, to)| {
                        reference.touch(r.region, from, to);
                        reference.regions[r.region].bytes[from..to].to_vec()
                    });
                    let got = if matches!(op, Op::Capture(..)) {
                        if expect.is_ok() {
                            reference.copied += r.len;
                        }
                        table.capture(key, addr, r.len, ACCESS[required]).map(|b| b.to_vec())
                    } else {
                        table.dma_slice(key, addr, r.len, ACCESS[required]).map(<[u8]>::to_vec)
                    };
                    prop_assert_eq!(got, expect, "step {}", step);
                }
                Op::Check(r, required) => {
                    let (key, addr) = key_and_addr(&reference, r);
                    let expect = reference.locate(r, ACCESS[required]).map(drop);
                    prop_assert_eq!(table.check(key, addr, r.len, ACCESS[required]), expect);
                }
                Op::LocalCopy(src, dst_region, dst_off) => {
                    let dst = Range { region: dst_region, off: dst_off, ..src };
                    let (src_key, src_addr) = key_and_addr(&reference, src);
                    let (dst_key, dst_addr) = key_and_addr(&reference, dst);
                    // Both keys are looked up before either range.
                    let expect = reference
                        .locate(Range { off: 0, len: 0, ..src }, Access::NONE)
                        .and(reference.locate(Range { off: 0, len: 0, ..dst }, Access::NONE))
                        .and_then(|_| {
                            let from = reference.locate(src, Access::NONE)?;
                            let to = reference.locate(dst, Access::NONE)?;
                            Ok((from, to))
                        })
                        .map(|((from, from_end), (to, to_end))| {
                            let moved = reference.regions[src.region].bytes[from..from_end].to_vec();
                            reference.regions[dst.region].bytes[to..to_end].copy_from_slice(&moved);
                            reference.touch(src.region, from, from_end);
                            reference.touch(dst.region, to, to_end);
                            reference.copied += src.len;
                            src.len
                        });
                    let got = table.local_copy(src_key, src_addr, dst_key, dst_addr, src.len);
                    prop_assert_eq!(got, expect, "step {}", step);
                }
                Op::Reregister(region) => {
                    let old = &reference.regions[region];
                    let (stale, access) = (old.info.key, old.access);
                    prop_assert_eq!(table.deregister(stale), Ok(()));
                    reference.regions[region] = register(&mut table, region, access, stale);
                    prop_assert_ne!(reference.regions[region].info.key, stale);
                }
            }

            // Every byte of both regions, what has been counted as
            // moved, and what has been backed.
            for region in &reference.regions {
                let mut all = vec![0xEE; region.bytes.len()];
                table.app_read(region.info.key, region.info.addr, &mut all).unwrap();
                prop_assert_eq!(&all, &region.bytes, "step {}: {:?}", step, op);
            }
            prop_assert_eq!(table.bytes_copied(), reference.copied, "step {}", step);
            let touched: usize = reference.regions.iter().map(|r| r.touched).sum();
            prop_assert_eq!(table.backed_bytes(), touched, "step {}: {:?}", step, op);
        }
    }
}

/// The order the random script reaches only by luck: the last byte
/// first, then downwards, then a read across all of it and beyond what
/// was written.
#[test]
fn highest_offset_first_writes_then_reads_of_the_gaps() {
    let mut table = MemoryTable::new();
    let mr = table.register(4096, Access::all());
    assert_eq!(table.backed_bytes(), 0, "registration touches nothing");
    let mut all = vec![0xEE; 4096];
    table.app_read(mr.key, mr.addr, &mut all).unwrap();
    assert!(all.iter().all(|&b| b == 0), "an untouched byte reads 0");
    assert_eq!(table.backed_bytes(), 0, "app_read touches nothing");

    table.app_write(mr.key, mr.addr + 4095, &[9]).unwrap();
    table
        .dma_write(mr.key, mr.addr + 2048, &[7; 16], Access::REMOTE_WRITE)
        .unwrap();
    table.app_write(mr.key, mr.addr, &[1, 2, 3]).unwrap();
    assert_eq!(table.backed_bytes(), 4096);

    let mut expect = vec![0u8; 4096];
    expect[4095] = 9;
    expect[2048..2064].fill(7);
    expect[..3].copy_from_slice(&[1, 2, 3]);
    table.app_read(mr.key, mr.addr, &mut all).unwrap();
    assert_eq!(all, expect);

    // The slot's next occupant starts from nothing again.
    table.deregister(mr.key).unwrap();
    let again = table.register(4096, Access::all());
    assert_eq!(table.backed_bytes(), 0);
    let view = table
        .dma_slice(again.key, again.addr + 100, 28, Access::NONE)
        .unwrap();
    assert_eq!(view, [0u8; 28]);
    assert_eq!(table.backed_bytes(), 128, "a view is of backed bytes");
}
