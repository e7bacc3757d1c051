//! Paged, copy-on-write memory against a reference that is neither.
//!
//! `MemoryTable` holds a region's bytes in 4 KiB pages that come with
//! the first write, and a placement from another region hands over the
//! pages it covers whole by reference, copying a shared page only when
//! one side writes it (`mr.rs` module docs). Nothing about that may
//! show: random interleavings of every accessor on two tables — writes
//! at page boundaries and beside them, whole and partial pages, reads
//! of ranges never written, copies that overlap within a region,
//! placements between the tables that do and do not line up, spans of
//! up to ten whole pages from regions written or never written, a
//! region's short last page, ranges and keys that must be refused, a slot
//! deregistered (its pages possibly shared) and registered again —
//! leave the same bytes and return the same results as a plain
//! `vec![0; len]` per region.
//!
//! What does show is the cost, and that is pinned too, at page
//! granularity: `backed_bytes` counts each page that is not empty whole
//! (a region's last page only as long as the region). A write backs the
//! pages it touches; a page a placement hands over is backed exactly
//! when its source page is; a partial placement backs a page when a
//! source page it reads from is backed; reads, views, captures and
//! checks back nothing. `pages_shared` counts, per destination table,
//! the pages placed by reference, and `bytes_copied` every placed or
//! captured byte, shared or not.

use proptest::prelude::*;
use rdma_verbs::{Access, DmaSource, MemoryTable, MrInfo, MrKey, VerbsError};

const PAGE: usize = 4096;
/// Region lengths: regions 0, 1 and 4 live in table 0, regions 2, 3 and
/// 5 in table 1 (`REGIONS`). Regions 0, 2, 4 and 5 end in short last
/// pages of one length, so those pages can be shared; region 3's is a
/// different length. Regions 4 and 5 are long enough that a placement
/// between them has a span of up to ten whole pages, the short last
/// one included.
const LENS: [usize; 6] = [
    2 * PAGE + 100,
    3 * PAGE,
    2 * PAGE + 100,
    3 * PAGE + 7,
    9 * PAGE + 100,
    10 * PAGE + 100,
];
const REGIONS: [[usize; 3]; 2] = [[0, 1, 4], [2, 3, 5]];

fn table_of(region: usize) -> usize {
    usize::from(!REGIONS[0].contains(&region))
}

/// Page `page` of region `region`, wrapped to the pages it has and the
/// one past its end, then moved by `jitter` as [`near_page`] does.
fn at_page(region: usize, page: u64, jitter: u8) -> u64 {
    near_page(page % (LENS[region].div_ceil(PAGE) as u64 + 1), jitter)
}

#[derive(Clone, Copy, Debug)]
enum Op {
    AppWrite(Range, u8),
    AppRead(Range),
    DmaWrite(Range, u8, usize),
    DmaView(Range, usize),
    Capture(Range, usize),
    Check(Range, usize),
    /// `len` bytes from `src` to `dst_off` of region `dst` of the same
    /// table (the same region, overlapping or not, or the other one).
    LocalCopy(Range, usize, u64),
    /// A placement of `src` at `dst_off` of region `dst` of the other
    /// table, requiring the access at the index.
    Place(Range, usize, u64, usize),
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
    Access::REMOTE_WRITE,
    Access::local_remote_write(),
];

/// `pages` whole pages, then mostly nothing, else a step beside the
/// boundary, a short last page's length or a few bytes.
fn near_page(pages: u64, jitter: u8) -> u64 {
    let base = pages * PAGE as u64;
    match jitter % 6 {
        0 | 1 => base,
        2 => base + 1,
        3 => base.saturating_sub(1),
        4 => base + 100,
        _ => base + u64::from(jitter) % 24,
    }
}

fn range() -> impl Strategy<Value = Range> {
    (
        0usize..LENS.len(),
        (0u64..12, any::<u8>()),
        (0u64..12, any::<u8>()),
        0u32..8,
        0u32..16,
    )
        .prop_map(
            |(region, (page, jitter), (pages, len_jitter), shape, stale)| {
                let off = at_page(region, page, jitter);
                let len = match shape {
                    0..=2 => at_page(region, pages, len_jitter),
                    // To the region's end, where its last page is.
                    3 | 4 => (LENS[region] as u64).saturating_sub(off),
                    _ => u64::from(len_jitter) % 24,
                };
                Range {
                    region,
                    off,
                    len,
                    stale_key: stale == 0,
                }
            },
        )
}

/// Page and jitter of a destination offset, for [`at_page`].
fn dst_off() -> impl Strategy<Value = (u64, u8)> {
    (0u64..12, any::<u8>())
}

fn op() -> impl Strategy<Value = Op> {
    let access = 0usize..ACCESS.len();
    prop_oneof![
        4 => (range(), any::<u8>()).prop_map(|(r, seed)| Op::AppWrite(r, seed)),
        3 => range().prop_map(Op::AppRead),
        4 => (range(), any::<u8>(), access.clone()).prop_map(|(r, seed, a)| Op::DmaWrite(r, seed, a)),
        2 => (range(), access.clone()).prop_map(|(r, a)| Op::DmaView(r, a)),
        2 => (range(), access.clone()).prop_map(|(r, a)| Op::Capture(r, a)),
        2 => (range(), access.clone()).prop_map(|(r, a)| Op::Check(r, a)),
        3 => (range(), 0usize..3, dst_off()).prop_map(|(r, other, (page, jitter))| {
            let dst = REGIONS[table_of(r.region)][other];
            Op::LocalCopy(r, dst, at_page(dst, page, jitter))
        }),
        6 => (range(), 0usize..3, dst_off(), access).prop_map(|(r, other, (page, jitter), a)| {
            let dst = REGIONS[1 - table_of(r.region)][other];
            Op::Place(r, dst, at_page(dst, page, jitter), a)
        }),
        1 => (0usize..LENS.len()).prop_map(Op::Reregister),
    ]
}

fn fill(seed: u8, len: u64) -> Vec<u8> {
    (0..len).map(|i| (i as u8).wrapping_mul(7) ^ seed).collect()
}

/// Length of page `page` of a region of `len` bytes.
fn page_len(len: usize, page: usize) -> usize {
    PAGE.min(len - page * PAGE)
}

/// One region of the reference: every byte there from the start, and
/// which of its pages the table should be holding.
struct Plain {
    info: MrInfo,
    stale: MrKey,
    access: Access,
    bytes: Vec<u8>,
    backed: Vec<bool>,
}

struct Reference {
    regions: Vec<Plain>,
    /// Per table.
    copied: [u64; 2],
    shared: [u64; 2],
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

    /// Writes `data` at `from` of `region`, backing every page it
    /// touches.
    fn write(&mut self, region: usize, from: usize, data: &[u8]) {
        let plain = &mut self.regions[region];
        plain.bytes[from..from + data.len()].copy_from_slice(data);
        if !data.is_empty() {
            let pages = from / PAGE..(from + data.len()).div_ceil(PAGE);
            plain.backed[pages].fill(true);
        }
    }

    /// Places `n` bytes from `from` of region `src` at `to` of region
    /// `dst` (another region) by the table's page rules; returns the
    /// pages handed over.
    fn place(&mut self, src: usize, from: usize, dst: usize, to: usize, n: usize) -> u64 {
        let moved = self.regions[src].bytes[from..from + n].to_vec();
        let src_backed = self.regions[src].backed.clone();
        let src_len = self.regions[src].bytes.len();
        let plain = &mut self.regions[dst];
        plain.bytes[to..to + n].copy_from_slice(&moved);
        let dst_len = plain.bytes.len();
        let mut shared = 0;
        let pages = if n == 0 {
            0..0
        } else {
            to / PAGE..(to + n).div_ceil(PAGE)
        };
        for page in pages {
            let (start, end) = (page * PAGE, page * PAGE + page_len(dst_len, page));
            let (lo, hi) = (start.max(to), end.min(to + n));
            let (src_lo, src_hi) = (lo - to + from, hi - to + from);
            let whole = lo == start
                && hi == end
                && src_lo % PAGE == 0
                && page_len(src_len, src_lo / PAGE) == hi - lo;
            if whole {
                plain.backed[page] = src_backed[src_lo / PAGE];
                shared += 1;
            } else {
                let read = src_lo / PAGE..src_hi.div_ceil(PAGE);
                plain.backed[page] |= src_backed[read].contains(&true);
            }
        }
        shared
    }

    fn backed_bytes(&self, table: usize) -> usize {
        let regions = self.regions.iter().enumerate();
        regions
            .filter(|(i, _)| table_of(*i) == table)
            .flat_map(|(_, r)| {
                let len = r.bytes.len();
                r.backed
                    .iter()
                    .enumerate()
                    .filter(|(_, &b)| b)
                    .map(move |(page, _)| page_len(len, page))
            })
            .sum()
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

fn register(tables: &mut [MemoryTable; 2], region: usize, access: Access, stale: MrKey) -> Plain {
    Plain {
        info: tables[table_of(region)].register(LENS[region], access),
        stale,
        access,
        bytes: vec![0; LENS[region]],
        backed: vec![false; LENS[region].div_ceil(PAGE)],
    }
}

/// Both tables with every region registered, region `i` granted
/// `grant(i)`, and their reference.
fn setup(grant: impl Fn(usize) -> Access) -> ([MemoryTable; 2], Reference) {
    let mut tables = [MemoryTable::new(), MemoryTable::new()];
    // A key that was never issued stands in for "stale" until the first
    // re-registration.
    let never = MrKey(0xFFF0_0000);
    let regions = (0..LENS.len())
        .map(|region| register(&mut tables, region, grant(region), never))
        .collect();
    let reference = Reference {
        regions,
        copied: [0; 2],
        shared: [0; 2],
    };
    (tables, reference)
}

/// Applies `op` to the tables and to the reference, and holds every
/// region's bytes and each table's counts against the reference.
fn apply(tables: &mut [MemoryTable; 2], reference: &mut Reference, step: usize, op: Op) {
    match op {
        Op::AppWrite(r, seed) => {
            let data = fill(seed, r.len);
            let (key, addr) = key_and_addr(reference, r);
            let expect = reference
                .locate(r, Access::NONE)
                .map(|(from, _)| reference.write(r.region, from, &data));
            let got = tables[table_of(r.region)].app_write(key, addr, &data);
            prop_assert_eq!(got, expect, "step {}", step);
        }
        Op::AppRead(r) => {
            let mut buf = vec![0xEE; r.len as usize];
            let (key, addr) = key_and_addr(reference, r);
            let expect = reference
                .locate(r, Access::NONE)
                .map(|(from, to)| reference.regions[r.region].bytes[from..to].to_vec());
            let got = tables[table_of(r.region)]
                .app_read(key, addr, &mut buf)
                .map(|()| buf);
            prop_assert_eq!(got, expect, "step {}", step);
        }
        Op::DmaWrite(r, seed, required) => {
            let data = fill(seed, r.len);
            let (key, addr) = key_and_addr(reference, r);
            let t = table_of(r.region);
            let expect = reference.locate(r, ACCESS[required]).map(|(from, _)| {
                reference.write(r.region, from, &data);
                reference.copied[t] += r.len;
            });
            let got = tables[t].dma_write(key, addr, DmaSource::Slice(&data), ACCESS[required]);
            prop_assert_eq!(got, expect, "step {}", step);
        }
        Op::DmaView(r, required) | Op::Capture(r, required) => {
            let (key, addr) = key_and_addr(reference, r);
            let t = table_of(r.region);
            let expect = reference
                .locate(r, ACCESS[required])
                .map(|(from, to)| reference.regions[r.region].bytes[from..to].to_vec());
            let got = if matches!(op, Op::Capture(..)) {
                if expect.is_ok() {
                    reference.copied[t] += r.len;
                }
                tables[t]
                    .capture(key, addr, r.len, ACCESS[required])
                    .map(|b| b.to_vec())
            } else {
                tables[t]
                    .dma_view(key, addr, r.len, ACCESS[required])
                    .map(|v| v.to_vec())
            };
            prop_assert_eq!(got, expect, "step {}", step);
        }
        Op::Check(r, required) => {
            let (key, addr) = key_and_addr(reference, r);
            let expect = reference.locate(r, ACCESS[required]).map(drop);
            let got = tables[table_of(r.region)].check(key, addr, r.len, ACCESS[required]);
            prop_assert_eq!(got, expect);
        }
        Op::LocalCopy(src, dst_region, dst_off) => {
            let dst = Range {
                region: dst_region,
                off: dst_off,
                ..src
            };
            let (src_key, src_addr) = key_and_addr(reference, src);
            let (dst_key, dst_addr) = key_and_addr(reference, dst);
            let t = table_of(src.region);
            // Both keys are looked up before either range.
            let expect = reference
                .locate(
                    Range {
                        off: 0,
                        len: 0,
                        ..src
                    },
                    Access::NONE,
                )
                .and(reference.locate(
                    Range {
                        off: 0,
                        len: 0,
                        ..dst
                    },
                    Access::NONE,
                ))
                .and_then(|_| {
                    let from = reference.locate(src, Access::NONE)?;
                    let to = reference.locate(dst, Access::NONE)?;
                    Ok((from, to))
                })
                .map(|((from, from_end), (to, _))| {
                    if src.region == dst.region {
                        let moved = reference.regions[src.region].bytes[from..from_end].to_vec();
                        reference.write(dst.region, to, &moved);
                    } else {
                        let n = src.len as usize;
                        reference.shared[t] += reference.place(src.region, from, dst.region, to, n);
                    }
                    reference.copied[t] += src.len;
                    src.len
                });
            let got = tables[t].local_copy(src_key, src_addr, dst_key, dst_addr, src.len);
            prop_assert_eq!(got, expect, "step {}", step);
        }
        Op::Place(src, dst_region, dst_off, required) => {
            let dst = Range {
                region: dst_region,
                off: dst_off,
                ..src
            };
            let (src_key, src_addr) = key_and_addr(reference, src);
            let (dst_key, dst_addr) = key_and_addr(reference, dst);
            let t = table_of(dst.region);
            // The source is viewed before the destination is
            // looked up.
            let expect = reference.locate(src, Access::NONE).and_then(|(from, _)| {
                let (to, _) = reference.locate(dst, ACCESS[required])?;
                let n = src.len as usize;
                reference.shared[t] += reference.place(src.region, from, dst.region, to, n);
                reference.copied[t] += src.len;
                Ok(())
            });
            let [a, b] = &mut *tables;
            let (from_table, to_table) = if t == 1 { (a, b) } else { (b, a) };
            let got = from_table
                .dma_view(src_key, src_addr, src.len, Access::NONE)
                .and_then(|view| {
                    let view = DmaSource::Region(view);
                    to_table.dma_write(dst_key, dst_addr, view, ACCESS[required])
                });
            prop_assert_eq!(got, expect, "step {}", step);
        }
        Op::Reregister(region) => {
            let old = &reference.regions[region];
            let (stale, access) = (old.info.key, old.access);
            prop_assert_eq!(tables[table_of(region)].deregister(stale), Ok(()));
            reference.regions[region] = register(tables, region, access, stale);
            prop_assert_ne!(reference.regions[region].info.key, stale);
        }
    }

    // Every byte of every region, and per table what has been
    // counted as moved and shared, and what is backed.
    for (i, region) in reference.regions.iter().enumerate() {
        let mut all = vec![0xEE; region.bytes.len()];
        tables[table_of(i)]
            .app_read(region.info.key, region.info.addr, &mut all)
            .unwrap();
        prop_assert_eq!(&all, &region.bytes, "step {}: {:?}", step, op);
    }
    for (t, table) in tables.iter().enumerate() {
        prop_assert_eq!(table.bytes_copied(), reference.copied[t], "step {}", step);
        prop_assert_eq!(
            table.pages_shared(),
            reference.shared[t],
            "step {}: {:?}",
            step,
            op
        );
        let backed = reference.backed_bytes(t);
        prop_assert_eq!(table.backed_bytes(), backed, "step {}: {:?}", step, op);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn paged_regions_read_and_refuse_like_plain_vectors(
        ops in proptest::collection::vec(op(), 1..60),
        access in proptest::collection::vec(0usize..12, LENS.len()),
    ) {
        // Most runs grant everything, so that most operations succeed.
        let grant = |i: usize| ACCESS.get(access[i]).copied().unwrap_or(Access::local_remote_write());
        let (mut tables, mut reference) = setup(grant);
        for (step, op) in ops.iter().copied().enumerate() {
            apply(&mut tables, &mut reference, step, op);
        }
    }

    /// Placements between the two long regions, 4 and 5, in every
    /// combination of: which is the source, the source never written or
    /// written, the destination never written or written, and each side
    /// on a page boundary or one byte past it. Each combination runs on
    /// new tables; the range runs to the end of both regions, stops one
    /// byte short of it, or stops where the jitter says.
    #[test]
    fn long_spans_place_like_plain_vectors(
        seeds in (any::<u8>(), any::<u8>()),
        dst_page in 0u64..3,
        shape in 0u32..3,
        jitter in any::<u16>(),
    ) {
        for combination in 0..32 {
            let bit = |i: u32| combination >> i & 1 == 1;
            let (src, dst) = if bit(0) { (5, 4) } else { (4, 5) };
            let from = u64::from(bit(1));
            let to = dst_page * PAGE as u64 + u64::from(bit(2));
            let (mut tables, mut reference) = setup(|_| Access::local_remote_write());
            let mut ops = Vec::new();
            for (region, written, seed) in [(src, bit(3), seeds.0), (dst, bit(4), seeds.1)] {
                let whole = Range { region, off: 0, len: LENS[region] as u64, stale_key: false };
                if written {
                    ops.push(Op::AppWrite(whole, seed));
                }
            }
            let room = (LENS[src] as u64 - from).min(LENS[dst] as u64 - to);
            let len = match shape {
                0 => room,
                1 => room - 1,
                _ => room - u64::from(jitter) % room,
            };
            let range = Range { region: src, off: from, len, stale_key: false };
            ops.push(Op::Place(range, dst, to, 0));
            for (step, op) in ops.into_iter().enumerate() {
                apply(&mut tables, &mut reference, step, op);
            }
        }
    }
}

/// The order the random script reaches only by luck: the last byte
/// first, then downwards, then a read across all of it and beyond what
/// was written. Each write backs the one page it lands in.
#[test]
fn highest_offset_first_writes_then_reads_of_the_gaps() {
    let mut table = MemoryTable::new();
    let mr = table.register(3 * PAGE, Access::local_remote_write());
    assert_eq!(table.backed_bytes(), 0, "registration touches nothing");
    let mut all = vec![0xEE; 3 * PAGE];
    table.app_read(mr.key, mr.addr, &mut all).unwrap();
    assert!(all.iter().all(|&b| b == 0), "an untouched byte reads 0");
    assert_eq!(table.backed_bytes(), 0, "app_read touches nothing");

    table
        .app_write(mr.key, mr.addr + 3 * PAGE as u64 - 1, &[9])
        .unwrap();
    assert_eq!(table.backed_bytes(), PAGE);
    let at = mr.addr + PAGE as u64 + 2048;
    let data = DmaSource::Slice(&[7; 16]);
    table
        .dma_write(mr.key, at, data, Access::REMOTE_WRITE)
        .unwrap();
    table.app_write(mr.key, mr.addr, &[1, 2, 3]).unwrap();
    assert_eq!(table.backed_bytes(), 3 * PAGE);

    let mut expect = vec![0u8; 3 * PAGE];
    expect[3 * PAGE - 1] = 9;
    expect[PAGE + 2048..PAGE + 2064].fill(7);
    expect[..3].copy_from_slice(&[1, 2, 3]);
    table.app_read(mr.key, mr.addr, &mut all).unwrap();
    assert_eq!(all, expect);

    // The slot's next occupant starts from nothing again.
    table.deregister(mr.key).unwrap();
    let again = table.register(3 * PAGE, Access::local_remote_write());
    assert_eq!(table.backed_bytes(), 0);
    let view = table
        .dma_view(again.key, again.addr + 100, 28, Access::NONE)
        .unwrap();
    assert_eq!(view.to_vec(), [0u8; 28]);
    assert_eq!(table.backed_bytes(), 0, "a view touches nothing");
}

/// A placement's pages outlive their source: deregistering the region
/// that was placed from leaves the destination its bytes, and the
/// destination writes them in place from then on.
#[test]
fn a_source_deregistered_after_a_share_leaves_the_destination_its_bytes() {
    let (mut a, mut b) = (MemoryTable::new(), MemoryTable::new());
    let src = a.register(2 * PAGE, Access::local_remote_write());
    let dst = b.register(2 * PAGE, Access::local_remote_write());
    let payload = fill(3, 2 * PAGE as u64);
    a.app_write(src.key, src.addr, &payload).unwrap();
    let view = a.dma_view(src.key, src.addr, 2 * PAGE as u64, Access::NONE);
    let view = DmaSource::Region(view.unwrap());
    b.dma_write(dst.key, dst.addr, view, Access::NONE).unwrap();
    assert_eq!(b.pages_shared(), 2);

    a.deregister(src.key).unwrap();
    let mut read = vec![0u8; 2 * PAGE];
    b.app_read(dst.key, dst.addr, &mut read).unwrap();
    assert_eq!(read, payload);
    b.app_write(dst.key, dst.addr + 5, &[0xAA]).unwrap();
    b.app_read(dst.key, dst.addr, &mut read).unwrap();
    assert_eq!((read[5], &read[6..]), (0xAA, &payload[6..]));
    assert_eq!((a.backed_bytes(), b.backed_bytes()), (0, 2 * PAGE));
}
