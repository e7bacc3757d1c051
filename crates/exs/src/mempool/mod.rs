//! Registered-memory pool: pin-down cache, slab MR pools, and RAII
//! buffer leases.
//!
//! Memory registration is the hidden cost of every zero-copy RDMA
//! path: `ibv_reg_mr` pins pages and updates the HCA's translation
//! table at a price of tens of microseconds plus a per-page term —
//! orders of magnitude more than posting a send. The paper's direct
//! path therefore only wins when user buffers are *already*
//! registered; a workload that registers per transfer is dominated by
//! registration (the observation behind pin-down caching in the
//! MPICH2-over-InfiniBand line of work and Taranov et al.'s RDMA
//! protocol studies).
//!
//! [`MemPool`] keeps registered regions alive across uses:
//!
//! * **Size-classed slabs** — requests round up to
//!   power-of-two classes, so released regions are reusable by any
//!   later request of the same class and access flags.
//! * **Pin-down cache with lazy LRU deregistration** — released
//!   regions stay registered (and pinned) until the pool's
//!   `pinned_budget` is exceeded, at which point the least recently
//!   used *idle* regions are deregistered. Regions held by live leases
//!   are never evicted.
//! * **RAII leases** — [`MemPool::acquire`] hands out an [`MrLease`]
//!   whose [`MrInfo`] plugs directly into `exs_send`/`exs_recv`
//!   (zero-copy send/recv slices). Dropping the lease returns the
//!   region to the cache without any verbs call; the deregistration
//!   debt is settled lazily at the next over-budget acquire or an
//!   explicit [`MemPool::trim`].
//!
//! The pool is a cheaply clonable handle (`Arc` inside), shared across
//! connections of a node — the simulator's `NodeApi` and the threaded
//! backend's `ThreadPort` both drive it through [`VerbsPort`], so the
//! same pool code backs deterministic benches and real-thread runs.

mod slab;

use std::sync::Arc;

use parking_lot::Mutex;
use rdma_verbs::{Access, MrInfo, Result, Sge};

use crate::port::VerbsPort;
use crate::stats::PoolStats;
use slab::{FreeRegion, Slabs};

/// Tunables for one [`MemPool`].
#[derive(Clone, Debug)]
pub struct MemPoolConfig {
    /// Ceiling on bytes kept registered (pinned) by the pool, idle and
    /// leased together. Exceeding it triggers lazy LRU deregistration
    /// of idle regions; live leases are never evicted, so a burst of
    /// leases can overshoot the budget until they drop.
    pub pinned_budget: u64,
    /// Smallest slab class in bytes (requests round up to a power of
    /// two at least this large). One 4 KiB page by default —
    /// registration is page-granular anyway.
    pub min_class: usize,
}

impl Default for MemPoolConfig {
    fn default() -> Self {
        MemPoolConfig {
            pinned_budget: 64 << 20,
            min_class: 4096,
        }
    }
}

struct PoolInner {
    slabs: Slabs,
    budget: u64,
    /// Monotonic stamp source for LRU ordering.
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    registrations: u64,
    deregistrations: u64,
    pinned_bytes: u64,
    pinned_peak: u64,
    leased_bytes: u64,
}

impl PoolInner {
    fn stats(&self) -> PoolStats {
        PoolStats {
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
            registrations: self.registrations,
            deregistrations: self.deregistrations,
            pinned_bytes: self.pinned_bytes,
            pinned_peak: self.pinned_peak,
            leased_bytes: self.leased_bytes,
            free_bytes: self.slabs.free_bytes(),
        }
    }
}

/// A shared pool of registered memory regions for one node. Clone the
/// handle freely; all clones see the same cache.
#[derive(Clone)]
pub struct MemPool {
    inner: Arc<Mutex<PoolInner>>,
}

impl MemPool {
    /// Creates an empty pool.
    pub fn new(cfg: MemPoolConfig) -> MemPool {
        MemPool {
            inner: Arc::new(Mutex::new(PoolInner {
                slabs: Slabs::new(cfg.min_class),
                budget: cfg.pinned_budget,
                tick: 0,
                hits: 0,
                misses: 0,
                evictions: 0,
                registrations: 0,
                deregistrations: 0,
                pinned_bytes: 0,
                pinned_peak: 0,
                leased_bytes: 0,
            })),
        }
    }

    /// Leases a registered region of at least `len` bytes with exactly
    /// `access`. Served from the cache when a region of the same class
    /// and access is idle (no verbs call); otherwise registers a fresh
    /// class-sized region through `api` — charged at the host's
    /// pin-down cost on backends that model one — and then evicts idle
    /// LRU regions until the pool is back under its pinned budget.
    pub fn acquire(&self, api: &mut impl VerbsPort, len: usize, access: Access) -> MrLease {
        let mut inner = self.inner.lock();
        let class_len = inner.slabs.class_len(len);
        let mr = match inner.slabs.take(class_len, access) {
            Some(region) => {
                inner.hits += 1;
                region.mr
            }
            None => {
                inner.misses += 1;
                inner.registrations += 1;
                let mr = api.register_mr_charged(class_len as usize, access);
                inner.pinned_bytes += class_len;
                inner.pinned_peak = inner.pinned_peak.max(inner.pinned_bytes);
                // Lazy deregistration: settle the pin debt by evicting
                // idle LRU regions. Leased regions cannot be evicted,
                // so a fully-leased pool legitimately overshoots.
                while inner.pinned_bytes > inner.budget {
                    let Some(victim) = inner.slabs.evict_lru() else {
                        break;
                    };
                    api.deregister_mr_charged(victim.mr.key)
                        .expect("deregistering evicted pool region");
                    inner.pinned_bytes -= victim.mr.len as u64;
                    inner.evictions += 1;
                    inner.deregistrations += 1;
                }
                mr
            }
        };
        inner.leased_bytes += class_len;
        drop(inner);
        MrLease {
            pool: self.inner.clone(),
            mr,
            requested: len,
            access,
        }
    }

    /// Pre-registers `count` idle regions of `len` bytes with `access`
    /// through the *uncharged* registration path — setup-time cache
    /// warming, for an application that pins its working set before
    /// the measured window (the simulator's charged path exists to
    /// price registration churn *inside* that window, see
    /// [`VerbsPort::register_mr_charged`]). Subsequent [`Self::acquire`]
    /// calls of the same class and access are pure cache hits. Counted
    /// as registrations but not as misses; the pinned budget is not
    /// enforced here — warming past it just means the first evictions
    /// come earlier.
    pub fn prewarm(&self, api: &mut impl VerbsPort, count: usize, len: usize, access: Access) {
        let mut inner = self.inner.lock();
        let class_len = inner.slabs.class_len(len);
        for _ in 0..count {
            let mr = api.register_mr(class_len as usize, access);
            inner.registrations += 1;
            inner.pinned_bytes += class_len;
            inner.pinned_peak = inner.pinned_peak.max(inner.pinned_bytes);
            inner.tick += 1;
            let stamp = inner.tick;
            inner.slabs.put(FreeRegion { mr, access, stamp });
        }
    }

    /// Deregisters every idle region now (pool close / memory
    /// pressure), returning the bytes released. Live leases keep their
    /// regions; drop them and call `trim` again for a full release.
    pub fn trim(&self, api: &mut impl VerbsPort) -> u64 {
        let mut inner = self.inner.lock();
        let mut released = 0;
        for region in inner.slabs.drain() {
            api.deregister_mr_charged(region.mr.key)
                .expect("deregistering trimmed pool region");
            released += region.mr.len as u64;
            inner.deregistrations += 1;
        }
        inner.pinned_bytes -= released;
        released
    }

    /// Counter snapshot.
    pub fn stats(&self) -> PoolStats {
        self.inner.lock().stats()
    }

    /// Bytes currently registered through the pool.
    pub fn pinned_bytes(&self) -> u64 {
        self.inner.lock().pinned_bytes
    }
}

/// A leased registered region. The lease owns the region for its
/// lifetime: the [`MrInfo`] it exposes is safe to hand to
/// `exs_send`/`exs_recv` as a zero-copy buffer. Dropping the lease
/// returns the region to the pool's cache — no verbs call, so drops
/// are safe anywhere, including after every pool handle is gone (the
/// cache itself is kept alive by the lease).
pub struct MrLease {
    pool: Arc<Mutex<PoolInner>>,
    mr: MrInfo,
    requested: usize,
    access: Access,
}

impl MrLease {
    /// The underlying registration. Its `len` is the class-rounded
    /// capacity, which may exceed the requested length.
    pub fn info(&self) -> &MrInfo {
        &self.mr
    }

    /// The length originally requested.
    pub fn len(&self) -> usize {
        self.requested
    }

    /// True for a zero-length request.
    pub fn is_empty(&self) -> bool {
        self.requested == 0
    }

    /// Class-rounded capacity of the leased region.
    pub fn capacity(&self) -> usize {
        self.mr.len
    }

    /// The access flags the region was registered with.
    pub fn access(&self) -> Access {
        self.access
    }

    /// An SGE covering `[offset, offset+len)` of the leased region.
    pub fn sge(&self, offset: u64, len: u32) -> Sge {
        self.mr.sge(offset, len)
    }

    /// Fills the leased region from `data` at `offset`.
    pub fn write(&self, api: &mut impl VerbsPort, offset: u64, data: &[u8]) -> Result<()> {
        api.write_mr(self.mr.key, self.mr.addr + offset, data)
    }

    /// Reads the leased region into `buf` from `offset`.
    pub fn read(&self, api: &impl VerbsPort, offset: u64, buf: &mut [u8]) -> Result<()> {
        api.read_mr(self.mr.key, self.mr.addr + offset, buf)
    }
}

impl Drop for MrLease {
    fn drop(&mut self) {
        let mut inner = self.pool.lock();
        inner.leased_bytes -= self.mr.len as u64;
        inner.tick += 1;
        let stamp = inner.tick;
        inner.slabs.put(FreeRegion {
            mr: self.mr,
            access: self.access,
            stamp,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdma_verbs::{Cqe, MemoryTable, MrKey, QpNum, RecvWr, SendWr};

    /// A [`VerbsPort`] over a bare [`MemoryTable`]: enough backend for
    /// the pool (register/deregister/read/write), everything else
    /// unreachable.
    struct TablePort {
        mem: MemoryTable,
    }

    impl TablePort {
        fn new() -> Self {
            TablePort {
                mem: MemoryTable::new(),
            }
        }
    }

    impl VerbsPort for TablePort {
        fn post_send(&mut self, _: QpNum, _: SendWr) -> Result<()> {
            unreachable!("pool tests never post")
        }
        fn post_recv(&mut self, _: QpNum, _: RecvWr) -> Result<()> {
            unreachable!("pool tests never post")
        }
        fn poll_cq(&mut self, _: rdma_verbs::CqId, _: usize, _: &mut Vec<Cqe>) -> Result<usize> {
            unreachable!("pool tests never poll")
        }
        fn read_mr(&self, key: MrKey, addr: u64, buf: &mut [u8]) -> Result<()> {
            self.mem.app_read(key, addr, buf)
        }
        fn copy_mr(&mut self, _: MrKey, _: u64, _: MrKey, _: u64, _: u64) -> Result<u64> {
            unreachable!("pool tests never copy")
        }
        fn charge_cqe_cost(&mut self) {}
        fn sq_outstanding(&self, _: QpNum) -> usize {
            0
        }
        fn register_mr(&mut self, len: usize, access: Access) -> MrInfo {
            self.mem.register(len, access)
        }
        fn deregister_mr(&mut self, key: MrKey) -> Result<()> {
            self.mem.deregister(key)
        }
        fn write_mr(&mut self, key: MrKey, addr: u64, data: &[u8]) -> Result<()> {
            self.mem.app_write(key, addr, data)
        }
    }

    #[test]
    fn acquire_reuses_released_regions() {
        let mut port = TablePort::new();
        let pool = MemPool::new(MemPoolConfig::default());
        let a = pool.acquire(&mut port, 1000, Access::NONE);
        assert_eq!(a.capacity(), 4096, "rounded to the min class");
        assert_eq!(a.len(), 1000);
        let key = a.info().key;
        drop(a);
        // Same class + access: served from cache, same registration.
        let b = pool.acquire(&mut port, 4096, Access::NONE);
        assert_eq!(b.info().key, key);
        let s = pool.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        assert_eq!(s.registrations, 1);
        assert_eq!(port.mem.len(), 1, "one region ever registered");
        // Different access: a fresh registration.
        let c = pool.acquire(&mut port, 4096, Access::LOCAL_WRITE);
        assert_ne!(c.info().key, key);
        assert_eq!(pool.stats().misses, 2);

        // A working set of 64 buffers of 64 KiB, 20 passes, on a node
        // that charges registration: a pool whose budget is the working
        // set misses on the first pass only, evicts nothing, and costs
        // under a fifth of registering every buffer on every pass.
        const BUFS: usize = 64;
        const LEN: usize = 64 << 10;
        let profile = rdma_verbs::profiles::fdr_infiniband();
        let mut net = rdma_verbs::SimNet::new();
        let node = net.add_node(profile.host, profile.hca);
        let pool = MemPool::new(MemPoolConfig {
            pinned_budget: (BUFS * LEN) as u64,
            ..MemPoolConfig::default()
        });
        let (pooled, unpooled) = net.with_api(node, |api| {
            let start = api.now();
            for _ in 0..20 {
                let leases: Vec<_> = (0..BUFS)
                    .map(|_| pool.acquire(api, LEN, Access::NONE))
                    .collect();
                drop(leases);
            }
            let mid = api.now();
            for _ in 0..20 {
                let mrs: Vec<_> = (0..BUFS)
                    .map(|_| api.register_mr_charged(LEN, Access::NONE))
                    .collect();
                for mr in mrs {
                    api.deregister_mr_charged(mr.key).unwrap();
                }
            }
            ((mid - start).as_nanos(), (api.now() - mid).as_nanos())
        });
        let s = pool.stats();
        assert_eq!((s.misses, s.evictions), (BUFS as u64, 0));
        assert!(
            5 * pooled <= unpooled,
            "pooled {pooled} ns, unpooled {unpooled} ns"
        );
    }

    #[test]
    fn lru_eviction_order_under_budget_pressure() {
        let mut port = TablePort::new();
        let pool = MemPool::new(MemPoolConfig {
            pinned_budget: 16 << 10,
            min_class: 4096,
        });
        let a = pool.acquire(&mut port, 4096, Access::NONE);
        let b = pool.acquire(&mut port, 4096, Access::NONE);
        let c = pool.acquire(&mut port, 4096, Access::NONE);
        let (ka, kb, kc) = (a.info().key, b.info().key, c.info().key);
        // Release order defines LRU order: a is the oldest idle region.
        drop(a);
        drop(b);
        // 12 KiB pinned + 8 KiB miss = 20 KiB > 16 KiB budget: exactly
        // one idle eviction (a) brings it back to 16 KiB.
        let d = pool.acquire(&mut port, 8192, Access::NONE);
        let s = pool.stats();
        assert_eq!(s.evictions, 1);
        assert_eq!(s.pinned_bytes, 16 << 10);
        assert!(port.mem.len_of(ka).is_none(), "LRU region evicted");
        assert!(port.mem.len_of(kb).is_some(), "MRU idle region kept");
        assert!(port.mem.len_of(kc).is_some(), "leased region never evicted");
        drop(c);
        drop(d);
        // Next miss over budget evicts in stamp order again.
        let _e = pool.acquire(&mut port, 16 << 10, Access::NONE);
        assert!(port.mem.len_of(kb).is_none(), "b was the next LRU victim");
    }

    #[test]
    fn leases_never_evicted_even_fully_over_budget() {
        let mut port = TablePort::new();
        let pool = MemPool::new(MemPoolConfig {
            pinned_budget: 4096,
            min_class: 4096,
        });
        let leases: Vec<MrLease> = (0..4)
            .map(|_| pool.acquire(&mut port, 4096, Access::NONE))
            .collect();
        // All pinned bytes are leased; nothing can be evicted.
        assert_eq!(pool.stats().evictions, 0);
        assert_eq!(pool.pinned_bytes(), 4 * 4096);
        drop(leases);
        // Trim settles the debt.
        assert_eq!(pool.trim(&mut port), 4 * 4096);
        assert!(port.mem.is_empty());
    }

    #[test]
    fn prewarm_turns_first_acquires_into_hits() {
        let mut port = TablePort::new();
        let pool = MemPool::new(MemPoolConfig {
            pinned_budget: 64 << 10,
            min_class: 4096,
        });
        pool.prewarm(&mut port, 3, 3000, Access::NONE);
        let s = pool.stats();
        assert_eq!(s.registrations, 3);
        assert_eq!(s.misses, 0, "warming is not a miss");
        assert_eq!(s.pinned_bytes, 3 * 4096, "regions are class-sized");
        let a = pool.acquire(&mut port, 4096, Access::NONE);
        let b = pool.acquire(&mut port, 4096, Access::NONE);
        let c = pool.acquire(&mut port, 4096, Access::NONE);
        let s = pool.stats();
        assert_eq!(s.hits, 3, "warmed regions serve the first acquires");
        assert_eq!(s.misses, 0);
        assert_eq!(s.registrations, 3, "no further verbs registration");
        // A different access class still misses past the warm set.
        let d = pool.acquire(&mut port, 4096, Access::local_remote_write());
        assert_eq!(pool.stats().misses, 1);
        drop((a, b, c, d));
        // Drops return regions to the cache; nothing deregisters until
        // eviction or trim.
        assert_eq!(pool.stats().deregistrations, 0);
        assert_eq!(pool.trim(&mut port), 4 * 4096);
    }

    #[test]
    fn lease_outlives_pool_handle() {
        let mut port = TablePort::new();
        let pool = MemPool::new(MemPoolConfig::default());
        let lease = pool.acquire(&mut port, 4096, Access::NONE);
        drop(pool); // every handle gone; the lease keeps the cache alive
        lease.write(&mut port, 0, b"still usable").unwrap();
        let mut buf = [0u8; 12];
        lease.read(&port, 0, &mut buf).unwrap();
        assert_eq!(&buf, b"still usable");
        drop(lease); // returns into the orphaned cache, then frees it
    }

    #[test]
    fn stats_track_footprint() {
        let mut port = TablePort::new();
        let pool = MemPool::new(MemPoolConfig::default());
        let a = pool.acquire(&mut port, 8192, Access::NONE);
        let s = pool.stats();
        assert_eq!(s.leased_bytes, 8192);
        assert_eq!(s.free_bytes, 0);
        assert_eq!(s.pinned_peak, 8192);
        drop(a);
        let s = pool.stats();
        assert_eq!(s.leased_bytes, 0);
        assert_eq!(s.free_bytes, 8192);
        assert_eq!(s.pinned_bytes, 8192, "still pinned after release");
        pool.trim(&mut port);
        assert_eq!(pool.stats().pinned_bytes, 0);
    }
}
