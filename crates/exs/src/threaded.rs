//! Blocking, thread-safe stream sockets over the real-thread fabric.
//!
//! The paper's stated problem is "to design a **thread-safe** algorithm
//! that combines the zero-copy benefit of RDMA with the fast send
//! response benefit of TCP-style buffering" (§I). The deterministic
//! simulator regenerates the figures; this module runs the *same*
//! protocol state machines under genuine OS concurrency:
//!
//! * a [`ThreadStream`] endpoint wraps a [`StreamSocket`] in a mutex
//!   and has no thread of its own: **the blocked caller is the progress
//!   engine**. A thread waiting in `wait_send`/`wait_recv` (hence
//!   `send_bytes`/`recv_exact`) polls the endpoint's CQs and drives
//!   `handle_wake` itself, spins briefly on the node's completion
//!   generation, then parks on it;
//! * any number of application threads issue sends and receives
//!   concurrently and block on their completions;
//! * a server hosts its accepted connections in a
//!   [`ThreadReactorPool`] instead — one service thread per reactor
//!   shard (one shard by default), however many connections: a server
//!   owes its peers progress nobody called for.
//!
//! The contract that follows: **an endpoint progresses inside its
//! calls.** Nothing works for a [`ThreadStream`] after a call returns,
//! so the calls that end the caller's interest in it —
//! [`ThreadStream::shutdown`], [`ThreadStream::flush`],
//! [`ThreadStream::close`] — drive the socket until it owes the wire
//! nothing ([`StreamSocket::has_unsent`]).
//!
//! Concurrent `send` calls are each atomic in the byte stream (the
//! socket lock orders them); the interleaving *between* threads is
//! unspecified, exactly like concurrent `write(2)` on a pipe.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};
use rdma_verbs::threaded::{ThreadNet, ThreadNode};
use rdma_verbs::{Access, CqId, Cqe, MrInfo, MrKey, QpNum, RecvWr, Result, SendWr};
use simnet::IntMap;

use crate::config::ExsConfig;
use crate::mempool::{MemPool, MrLease};
use crate::mux::MuxEndpoint;
use crate::port::VerbsPort;
use crate::reactor::{ConnId, Reactor, ReactorConfig, Readiness};
use crate::shard::{Placement, ShardHandle};
use crate::stats::{ConnStats, PoolStats, ReactorStats, ShardStats};
use crate::stream::{ExsEvent, StreamSocket};
use simnet::stats::merged;

/// [`VerbsPort`] implementation over a [`ThreadNet`] node.
pub struct ThreadPort<'a> {
    /// `None` on the port connection set-up uses, which only registers
    /// memory and posts receives (the connect helpers take no fabric).
    net: Option<&'a ThreadNet>,
    node: &'a Arc<ThreadNode>,
}

impl<'a> ThreadPort<'a> {
    /// Builds a port for one node.
    pub fn new(net: &'a ThreadNet, node: &'a Arc<ThreadNode>) -> Self {
        ThreadPort {
            net: Some(net),
            node,
        }
    }

    fn net(&self) -> &'a ThreadNet {
        self.net.expect("a set-up port posts no sends")
    }
}

impl VerbsPort for ThreadPort<'_> {
    fn post_send(&mut self, qpn: QpNum, wr: SendWr) -> Result<()> {
        self.net().post_send(self.node, qpn, wr)
    }

    fn post_send_list(&mut self, qpn: QpNum, wrs: Vec<SendWr>) -> Result<()> {
        self.net().post_send_list(self.node, qpn, wrs)
    }

    fn post_recv(&mut self, qpn: QpNum, wr: RecvWr) -> Result<()> {
        self.node.post_recv(qpn, wr)
    }

    fn poll_cq(&mut self, cq: CqId, max: usize, out: &mut Vec<Cqe>) -> Result<usize> {
        self.node.poll_cq(cq, max, out)
    }

    fn read_mr(&self, key: MrKey, addr: u64, buf: &mut [u8]) -> Result<()> {
        self.node.with_hca(|h| h.mem().app_read(key, addr, buf))
    }

    fn copy_mr(
        &mut self,
        src_key: MrKey,
        src_addr: u64,
        dst_key: MrKey,
        dst_addr: u64,
        len: u64,
    ) -> Result<u64> {
        self.node.with_hca(|h| {
            h.mem_mut()
                .local_copy(src_key, src_addr, dst_key, dst_addr, len)
        })
    }

    fn charge_cqe_cost(&mut self) {
        // Real threads spend real time; no modelled CPU.
    }

    fn sq_outstanding(&self, qpn: QpNum) -> usize {
        self.node
            .with_hca(|h| h.qp(qpn).map(|q| q.sq_outstanding()).unwrap_or(usize::MAX))
    }

    fn register_mr(&mut self, len: usize, access: Access) -> MrInfo {
        self.node.with_hca(|h| h.register_mr(len, access))
    }

    fn deregister_mr(&mut self, key: MrKey) -> Result<()> {
        self.node.with_hca(|h| h.deregister_mr(key))
    }

    fn write_mr(&mut self, key: MrKey, addr: u64, data: &[u8]) -> Result<()> {
        self.node
            .with_hca(|h| h.mem_mut().app_write(key, addr, data))
    }

    fn cq_pressure(&self, cq: CqId) -> crate::port::CqPressure {
        self.node.with_hca(|h| {
            h.cq(cq)
                .map(|q| crate::port::CqPressure {
                    overflowed: q.overflowed(),
                    max_batch: q.max_batch(),
                    nonempty_polls: q.nonempty_polls(),
                })
                .unwrap_or_default()
        })
    }
}

/// One end of a QP: `(qpn, send_cq, recv_cq)`.
type QpEnd = (QpNum, CqId, CqId);

/// Creates and connects one QP between `a` and `b`, each end
/// completing onto the given shared CQs or a fresh private pair.
fn connect_qps(
    cfg: &ExsConfig,
    (a, a_cqs): (&Arc<ThreadNode>, Option<(CqId, CqId)>),
    (b, b_cqs): (&Arc<ThreadNode>, Option<(CqId, CqId)>),
) -> (QpEnd, QpEnd) {
    let create = |node: &Arc<ThreadNode>, shared_cqs: Option<(CqId, CqId)>| {
        node.with_hca(|h| {
            let depth = cfg.cq_depth(1);
            let (scq, rcq) = shared_cqs.unwrap_or_else(|| (h.create_cq(depth), h.create_cq(depth)));
            let qpn = h.create_qp(scq, rcq, cfg.qp_caps()).expect("create qp");
            (qpn, scq, rcq)
        })
    };
    let (a_end, b_end) = (create(a, a_cqs), create(b, b_cqs));
    a.with_hca(|h| h.connect_qp(a_end.0, (b.id(), b_end.0)).expect("connect a"));
    b.with_hca(|h| h.connect_qp(b_end.0, (a.id(), a_end.0)).expect("connect b"));
    (a_end, b_end)
}

/// Connects a fresh [`StreamSocket`] pair between two nodes of an
/// existing thread fabric. With `b_cqs`, `b`'s QP completes onto those
/// shared CQs (the [`ThreadReactorPool`] accept path) instead of
/// private ones.
pub fn connect_sockets_over(
    a: &Arc<ThreadNode>,
    b: &Arc<ThreadNode>,
    cfg: &ExsConfig,
    b_cqs: Option<(CqId, CqId)>,
) -> (StreamSocket, StreamSocket) {
    connect_sockets_shared(a, b, cfg, None, b_cqs)
}

/// [`connect_sockets_over`] with shared CQs available on *either*
/// side: a client-side reactor/executor that multiplexes several
/// outbound connections needs `a`'s QPs to complete onto one CQ pair
/// just like the server accept path does.
pub fn connect_sockets_shared(
    a: &Arc<ThreadNode>,
    b: &Arc<ThreadNode>,
    cfg: &ExsConfig,
    a_cqs: Option<(CqId, CqId)>,
    b_cqs: Option<(CqId, CqId)>,
) -> (StreamSocket, StreamSocket) {
    let (a_end, b_end) = connect_qps(cfg, (a, a_cqs), (b, b_cqs));
    let prepare = |node: &Arc<ThreadNode>, (qpn, send_cq, recv_cq): QpEnd| {
        let mut port = ThreadPort { net: None, node };
        StreamSocket::prepare(&mut port, node.id(), qpn, send_cq, recv_cq, cfg)
    };
    let ((pa, ia), (pb, ib)) = (prepare(a, a_end), prepare(b, b_end));
    (pa.complete(ib), pb.complete(ia))
}

/// Establishes every pending transport-pool slot between two
/// [`MuxEndpoint`]s over the real-thread fabric — the threaded
/// analogue of [`crate::mux::connect_mux_pair`]. Each endpoint gets
/// (or keeps) one shared CQ pair; one QP per pending slot is created
/// against it on both sides, connected, and the out-of-band parameter
/// exchange runs through [`MuxEndpoint::prepare_transport`] /
/// [`MuxEndpoint::connect_transport`].
pub fn connect_mux_over(
    net: &ThreadNet,
    a: (&Arc<ThreadNode>, &mut MuxEndpoint),
    b: (&Arc<ThreadNode>, &mut MuxEndpoint),
) {
    let (an, a_ep) = a;
    let (bn, b_ep) = b;
    let cq_depth = MuxEndpoint::shared_cq_depth(a_ep.config());
    for slot in MuxEndpoint::slots_to_establish(a_ep, b_ep) {
        for (node, ep) in [(an, &mut *a_ep), (bn, &mut *b_ep)] {
            if ep.cqs().is_none() {
                let (s, r) = node.with_hca(|h| (h.create_cq(cq_depth), h.create_cq(cq_depth)));
                ep.set_cqs(s, r);
            }
        }
        let ((a_qp, a_scq, a_rcq), (b_qp, b_scq, b_rcq)) =
            connect_qps(a_ep.config(), (an, a_ep.cqs()), (bn, b_ep.cqs()));
        let ia = a_ep.prepare_transport(&mut ThreadPort::new(net, an), slot, a_qp, a_scq, a_rcq);
        let ib = b_ep.prepare_transport(&mut ThreadPort::new(net, bn), slot, b_qp, b_scq, b_rcq);
        a_ep.connect_transport(slot, ib);
        b_ep.connect_transport(slot, ia);
    }
}

#[derive(Default)]
struct EventBuf {
    sends_done: IntMap<u64, u64>,
    recvs_done: IntMap<u64, u32>,
    peer_closed: bool,
    broken: bool,
}

impl EventBuf {
    fn absorb(&mut self, events: Vec<ExsEvent>) {
        for ev in events {
            match ev {
                ExsEvent::SendComplete { id, len } => {
                    self.sends_done.insert(id, len);
                }
                ExsEvent::RecvComplete { id, len } => {
                    self.recvs_done.insert(id, len);
                }
                ExsEvent::PeerClosed => self.peer_closed = true,
                ExsEvent::ConnectionError => self.broken = true,
            }
        }
    }
}

/// The blocking wait of a [`ThreadReactorPool`] handle, whose shard's
/// service thread does the polling: parks on `cv` until `take` finds
/// its completion in the guarded state, or `timeout` passes.
/// `take` answers `None` when the handle it looks under has no
/// [`EventBuf`] — closed or never accepted; the wait then returns
/// `None` at once instead of sleeping out the timeout.
fn wait_event<G, T>(
    state: &Mutex<G>,
    cv: &Condvar,
    timeout: Duration,
    take: impl Fn(&mut G) -> Option<Option<T>>,
) -> Option<T> {
    let deadline = std::time::Instant::now() + timeout;
    let mut guard = state.lock();
    loop {
        let done = take(&mut guard)?;
        if done.is_some() {
            return done;
        }
        let now = std::time::Instant::now();
        if now >= deadline {
            return None;
        }
        cv.wait_for(&mut guard, deadline.saturating_duration_since(now));
    }
}

/// A socket's protocol counters with the CQ-pressure gauges folded in.
fn synced_stats(sock: &mut StreamSocket, port: &ThreadPort<'_>) -> ConnStats {
    sock.sync_cq_stats(port);
    sock.stats().clone()
}

/// How long a blocked caller spins on the node's completion generation
/// before it parks. A zero-delay round trip takes ~10 µs, a park and its
/// wake-up several times that, so a caller whose completion is already
/// on its way should not go to sleep for it.
const SPIN: Duration = Duration::from_micros(50);

/// Callers spinning right now, process-wide. At most one per core may:
/// more would only take the cores from the threads they wait for.
static SPINNERS: AtomicUsize = AtomicUsize::new(0);

fn spin_limit() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Waits for `node`'s generation to leave `seen` or for `deadline`:
/// spinning for up to [`SPIN`] if a spin slot is free, then parked.
fn spin_then_park(node: &ThreadNode, seen: u64, deadline: Instant) {
    if SPINNERS.fetch_add(1, Ordering::Relaxed) < spin_limit() {
        let spin_until = deadline.min(Instant::now() + SPIN);
        while node.generation() == seen && Instant::now() < spin_until {
            std::hint::spin_loop();
        }
    }
    SPINNERS.fetch_sub(1, Ordering::Relaxed);
    node.wait_any(seen, deadline.saturating_duration_since(Instant::now()));
}

/// Lock order is `sock`, then `events`: whoever takes events off the
/// socket absorbs them into the buffer before it releases the socket
/// lock. A second caller, which polls after the first, then finds in the
/// buffer whatever the first took off the CQs — otherwise it could poll
/// an empty CQ, miss an event taken but not yet published, and park on a
/// generation that has already moved.
struct Shared {
    sock: Mutex<StreamSocket>,
    events: Mutex<EventBuf>,
    /// Callers between announcing a wait and leaving it. Events one
    /// caller publishes wake the node only when this is non-zero, so
    /// the node's generation keeps meaning "completions landed". Same
    /// store-then-load handshake as [`ThreadNode::notify`]: a waiter
    /// counts itself in and then looks in `events`, a publisher fills
    /// `events` and then reads the count.
    waiters: AtomicUsize,
}

/// A blocking, thread-safe stream endpoint.
///
/// Cloning the handle (via `Arc`) lets many threads share one
/// connection; each operation blocks its calling thread until the
/// protocol reports completion. The endpoint has no thread of its own:
/// it progresses inside these calls (see the module docs).
///
/// ```
/// use exs::{ExsConfig, ThreadStream};
/// use std::time::Duration;
///
/// let (a, b) = ThreadStream::pair(&ExsConfig::default(), Duration::ZERO);
/// let writer = std::thread::spawn(move || {
///     a.send_bytes(b"hello").unwrap();
/// });
/// let mut buf = [0u8; 5];
/// b.recv_exact(&mut buf).unwrap();
/// assert_eq!(&buf, b"hello");
/// writer.join().unwrap();
/// ```
pub struct ThreadStream {
    net: Arc<ThreadNet>,
    node: Arc<ThreadNode>,
    shared: Shared,
    /// Staging-buffer pool, shared with every other endpoint on the
    /// same node (the reactor pool's accept path hands all clients of
    /// one node the same pool).
    pool: MemPool,
    next_id: AtomicU64,
}

impl ThreadStream {
    /// Creates a connected pair of blocking stream endpoints over a
    /// fresh two-node thread fabric with the given real link delay.
    /// With no delay this starts no thread at all.
    pub fn pair(cfg: &ExsConfig, delay: Duration) -> (ThreadStream, ThreadStream) {
        let mut net = ThreadNet::new();
        let a = net.add_node(rdma_verbs::HcaConfig::default());
        let b = net.add_node(rdma_verbs::HcaConfig::default());
        net.connect_nodes(&a, &b, delay);
        let net = Arc::new(net);
        let (sock_a, sock_b) = connect_sockets_over(&a, &b, cfg, None);
        (
            ThreadStream::new(net.clone(), a, sock_a, MemPool::new(cfg.pool.clone())),
            ThreadStream::new(net, b, sock_b, MemPool::new(cfg.pool.clone())),
        )
    }

    fn new(
        net: Arc<ThreadNet>,
        node: Arc<ThreadNode>,
        sock: StreamSocket,
        pool: MemPool,
    ) -> ThreadStream {
        ThreadStream {
            net,
            node,
            shared: Shared {
                sock: Mutex::new(sock),
                events: Mutex::new(EventBuf::default()),
                waiters: AtomicUsize::new(0),
            },
            pool,
            next_id: AtomicU64::new(1),
        }
    }

    /// The endpoint's node (for memory registration and inspection).
    pub fn node(&self) -> &Arc<ThreadNode> {
        &self.node
    }

    /// Registers I/O memory on this endpoint's node. The caller owns
    /// the registration; prefer [`ThreadStream::acquire`] for
    /// pool-cached buffers that release themselves.
    pub fn register(&self, len: usize, access: Access) -> MrInfo {
        self.node.with_hca(|h| h.register_mr(len, access))
    }

    /// Leases a registered buffer from this node's pin-down cache.
    pub fn acquire(&self, len: usize, access: Access) -> MrLease {
        let mut port = ThreadPort::new(&self.net, &self.node);
        self.pool.acquire(&mut port, len, access)
    }

    /// This node's staging-pool handle.
    pub fn pool(&self) -> &MemPool {
        &self.pool
    }

    /// Runs `op` on the locked socket and publishes the events it
    /// produced: into the buffer before the socket lock is released
    /// (see [`Shared`]), then a wake-up if another caller of this
    /// stream is waiting for one.
    fn with_sock<R>(&self, op: impl FnOnce(&mut StreamSocket, &mut ThreadPort<'_>) -> R) -> R {
        let mut sock = self.shared.sock.lock();
        let mut port = ThreadPort::new(&self.net, &self.node);
        let result = op(&mut sock, &mut port);
        let events = sock.take_events();
        if events.is_empty() {
            return result;
        }
        self.shared.events.lock().absorb(events);
        drop(sock);
        if self.shared.waiters.load(Ordering::SeqCst) != 0 {
            self.node.notify();
        }
        result
    }

    /// One progress step on the calling thread: drains both CQs and
    /// advances the protocol.
    fn progress(&self) {
        self.with_sock(|sock, port| sock.handle_wake(port));
    }

    /// Starts an asynchronous send from registered memory; returns the
    /// operation id. The buffer must stay untouched until
    /// [`ThreadStream::wait_send`] returns it.
    pub fn send(&self, mr: &MrInfo, offset: u64, len: u64) -> u64 {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.with_sock(|sock, port| sock.exs_send(port, mr, offset, len, id));
        id
    }

    /// Starts an asynchronous receive into registered memory.
    pub fn recv(&self, mr: &MrInfo, offset: u64, len: u32, waitall: bool) -> u64 {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.with_sock(|sock, port| sock.exs_recv(port, mr, offset, len, waitall, id));
        id
    }

    /// The blocking wait of this type, with the calling thread as the
    /// progress engine: take a progress step, look for the completion
    /// `take` wants, and if it is not there wait for the node's
    /// generation to move ([`spin_then_park`]) — until `timeout`.
    fn wait<T>(&self, timeout: Duration, take: impl Fn(&mut EventBuf) -> Option<T>) -> Option<T> {
        let deadline = Instant::now() + timeout;
        loop {
            // Read before polling: whatever lands after this moves the
            // generation, and the wait below returns at once.
            let seen = self.node.generation();
            self.progress();
            self.shared.waiters.fetch_add(1, Ordering::SeqCst);
            let done = take(&mut self.shared.events.lock());
            let over = done.is_some() || Instant::now() >= deadline;
            if !over {
                spin_then_park(&self.node, seen, deadline);
            }
            self.shared.waiters.fetch_sub(1, Ordering::SeqCst);
            if over {
                return done;
            }
        }
    }

    /// Blocks until send `id` completes; returns the bytes sent, or
    /// `None` on timeout.
    pub fn wait_send(&self, id: u64, timeout: Duration) -> Option<u64> {
        self.wait(timeout, |buf| buf.sends_done.remove(&id))
    }

    /// Blocks until receive `id` completes; returns the bytes received,
    /// or `None` on timeout.
    pub fn wait_recv(&self, id: u64, timeout: Duration) -> Option<u32> {
        self.wait(timeout, |buf| buf.recvs_done.remove(&id))
    }

    /// Convenience: sends `data` through a pool-leased staging buffer
    /// and blocks until the stream has consumed it. Atomic in the
    /// stream with respect to other concurrent `send_bytes` calls. The
    /// lease returns to the node's pin-down cache on completion, so
    /// repeated calls reuse one registration instead of registering
    /// (and leaking) a region per call.
    pub fn send_bytes(&self, data: &[u8]) -> std::result::Result<(), &'static str> {
        let lease = self.acquire(data.len().max(1), Access::NONE);
        {
            let mut port = ThreadPort::new(&self.net, &self.node);
            lease
                .write(&mut port, 0, data)
                .map_err(|_| "staging write failed")?;
        }
        let id = self.send(lease.info(), 0, data.len() as u64);
        self.wait_send(id, Duration::from_secs(30))
            .map(|_| ())
            .ok_or("send timed out")
    }

    /// Convenience: blocks until exactly `buf.len()` bytes arrive
    /// (MSG_WAITALL through a pool-leased staging buffer).
    pub fn recv_exact(&self, buf: &mut [u8]) -> std::result::Result<(), &'static str> {
        let lease = self.acquire(buf.len().max(1), Access::local_remote_write());
        let id = self.recv(lease.info(), 0, buf.len() as u32, true);
        self.wait_recv(id, Duration::from_secs(30))
            .ok_or("receive timed out")?;
        let port = ThreadPort::new(&self.net, &self.node);
        lease.read(&port, 0, buf).map_err(|_| "staging read failed")
    }

    /// Drives the socket on the calling thread until it owes the wire
    /// nothing ([`StreamSocket::has_unsent`]) — bounded, so a peer that
    /// never grants the credits cannot hold the caller for ever. What
    /// `shutdown`, `flush` and `close` end with: after they return the
    /// caller may never call again, and nothing else would send a FIN or
    /// a held-back message queued behind flow control.
    fn drain_unsent(&self) {
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let seen = self.node.generation();
            let unsent = self.with_sock(|sock, port| {
                sock.handle_wake(port);
                sock.has_unsent()
            });
            if !unsent || Instant::now() >= deadline {
                return;
            }
            spin_then_park(&self.node, seen, deadline);
        }
    }

    /// Pushes any coalesced-and-held small sends and staged WQEs to the
    /// HCA immediately (the latency opt-out from transmit batching), and
    /// stays until everything queued has reached the wire: without it a
    /// held send goes out inside the caller's next blocking call.
    pub fn flush(&self) {
        self.with_sock(|sock, port| sock.tx_flush(port));
        self.drain_unsent();
    }

    /// Half-closes the sending direction. Queued data drains and the
    /// FIN follows it before this returns (or after five seconds of a
    /// peer granting nothing).
    pub fn shutdown(&self) {
        self.with_sock(|sock, port| sock.exs_shutdown(port));
        self.drain_unsent();
    }

    /// True once the peer has closed and its stream fully drained.
    pub fn peer_closed(&self) -> bool {
        self.progress();
        self.shared.events.lock().peer_closed
    }

    /// True once the transport failed underneath the socket.
    pub fn is_broken(&self) -> bool {
        self.progress();
        self.shared.events.lock().broken
    }

    /// Protocol statistics snapshot, CQ-pressure gauges included.
    pub fn stats(&self) -> ConnStats {
        let port = ThreadPort::new(&self.net, &self.node);
        synced_stats(&mut self.shared.sock.lock(), &port)
    }

    /// Closes the endpoint: sends what it still owes, releases every
    /// registration the socket owns, and trims this handle's share of
    /// the staging pool. Idle registrations held for other endpoints on
    /// the same node stay cached; live leases elsewhere are untouched.
    pub fn close(&mut self) {
        self.drain_unsent();
        // Late control traffic from the peer (final ACKs, credit
        // returns) may still be in flight on a delayed link; let it
        // land while our control slots are still registered.
        self.net.quiesce();
        let mut sock = self.shared.sock.lock();
        let mut port = ThreadPort::new(&self.net, &self.node);
        sock.close(&mut port);
        self.pool.trim(&mut port);
    }
}

/// One shard of a [`ThreadReactorPool`]: a reactor over its own CQ
/// pair, the completion buffers of the connections it hosts, and its
/// service thread's telemetry.
///
/// Lock order is `reactor`, then `events`. A connection's buffer is
/// inserted, filled and removed only while `reactor` is held, so the
/// buffer exists exactly as long as the reactor hosts the connection
/// and a recycled [`ConnId`] never inherits its predecessor's
/// completions.
struct Shard {
    cqs: (CqId, CqId),
    reactor: Mutex<Reactor>,
    /// Per-connection completion buffers, keyed by `ConnId.0`.
    events: Mutex<HashMap<u32, EventBuf>>,
    cv: Condvar,
    stop: AtomicBool,
    busy_ns: AtomicU64,
    wall_ns: AtomicU64,
}

impl Shard {
    /// Publishes `events` to `conn`'s waiters. The caller holds this
    /// shard's reactor lock (see the lock order above).
    fn publish(&self, conn: ConnId, events: Vec<ExsEvent>) {
        if events.is_empty() {
            return;
        }
        if let Some(buf) = self.events.lock().get_mut(&conn.0) {
            buf.absorb(events);
        }
        self.cv.notify_all();
    }
}

/// The socket behind `conn`: sockets are all this pool accepts.
fn hosted_sock(reactor: &mut Reactor, conn: ConnId) -> &mut StreamSocket {
    reactor
        .conn_mut(conn)
        .as_socket_mut()
        .expect("the pool hosts sockets only")
}

/// One shard's service loop: parks on the node's completion signal,
/// performs one bounded poll, and publishes what it harvested — reusing
/// its readiness buffer so the steady state allocates nothing per wake.
fn spawn_shard_service(
    net: Arc<ThreadNet>,
    node: Arc<ThreadNode>,
    shard: Arc<Shard>,
) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
        let epoch = std::time::Instant::now();
        let mut seen = node.generation();
        let mut backlog = false;
        let mut ready: Vec<(ConnId, Readiness)> = Vec::new();
        while !shard.stop.load(Ordering::Acquire) {
            if !backlog {
                // Park on the completion signal only when the last
                // poll fully drained: bounded polls are edge-free, so
                // leftover work must be serviced without waiting for a
                // new completion.
                seen = node.wait_any(seen, Duration::from_millis(50));
            }
            let work_start = std::time::Instant::now();
            {
                let mut reactor = shard.reactor.lock();
                let mut port = ThreadPort::new(&net, &node);
                reactor.poll_into(&mut port, &mut ready);
                backlog = reactor.has_backlog();
                if !ready.is_empty() {
                    let mut bufs = shard.events.lock();
                    for &(conn, _) in &ready {
                        let Some(buf) = bufs.get_mut(&conn.0) else {
                            continue;
                        };
                        let sock = hosted_sock(&mut reactor, conn);
                        buf.absorb(sock.take_events());
                        // Closed/error are level-triggered states with
                        // no event after the first take; mirror them
                        // into the buffer directly.
                        buf.peer_closed |= sock.peer_closed();
                        buf.broken |= sock.is_broken();
                    }
                    drop(bufs);
                    shard.cv.notify_all();
                }
            }
            shard
                .busy_ns
                .fetch_add(work_start.elapsed().as_nanos() as u64, Ordering::Relaxed);
            shard
                .wall_ns
                .store(epoch.elapsed().as_nanos() as u64, Ordering::Relaxed);
        }
    })
}

/// Actively polls a shard's reactor until nothing it hosts still owes
/// traffic to the wire ([`Reactor::has_unsent`]) or `deadline` passes —
/// the thread-backend extension of the aio `drained()` teardown
/// condition. Called before stopping a service thread: a loop that
/// stops at "no events pending" can strand a FIN queued behind flow
/// control, leaving the peer waiting for an end-of-stream that never
/// comes.
fn drain_reactor_unsent(
    net: &ThreadNet,
    node: &Arc<ThreadNode>,
    shard: &Shard,
    deadline: std::time::Instant,
) {
    let mut scratch: Vec<(ConnId, Readiness)> = Vec::new();
    loop {
        {
            let mut reactor = shard.reactor.lock();
            if !reactor.has_unsent() {
                break;
            }
            let mut port = ThreadPort::new(net, node);
            reactor.poll_into(&mut port, &mut scratch);
        }
        if std::time::Instant::now() >= deadline {
            break;
        }
        std::thread::yield_now();
    }
}

/// [`Reactor`]s hosted on one node of the real-thread fabric — the
/// thread backend's one serving front-end.
///
/// Where a [`ThreadStream`] endpoint progresses only inside its
/// owner's calls, the pool runs **one service thread per shard** for
/// every connection it accepted: the thread parks on the node's completion signal
/// ([`ThreadNode::wait_any`] — the completion-channel analogue), and
/// each wake performs one bounded [`Reactor::poll`] over the shard's
/// shared CQs. Application threads post sends/receives on any accepted
/// connection and block on per-connection completions. With
/// `shard.shards = 1` (the [`ExsConfig`] default) this is the classic
/// single reactor; more shards spread CQE dispatch and readiness
/// harvesting across cores instead of serialising on one reactor lock.
///
/// Sharding invariants (those of [`crate::shard`]):
///
/// * A connection is assigned to a shard **once**, at accept, by the
///   configured [`crate::config::ShardPolicy`]; it never migrates.
/// * Post, wait, poll and close touch only the owning shard's state —
///   no cross-shard locks. [`ThreadReactorPool::close_conn`] detaches
///   the socket under the shard's reactor lock, the same lock every
///   post takes, so it needs no message to the service thread.
/// * Statistics aggregate by **summing** counters across shards
///   (peaks take a max); per-shard telemetry is preserved in
///   [`ThreadReactorPool::shard_stats`].
pub struct ThreadReactorPool {
    net: Arc<ThreadNet>,
    node: Arc<ThreadNode>,
    shards: Vec<Arc<Shard>>,
    services: Vec<std::thread::JoinHandle<()>>,
    /// Shared by all accept callers; touched only on the accept path,
    /// never while moving bytes.
    placement: Mutex<Placement>,
    /// Pin-down cache for server-side buffers on the pool's node.
    pool: MemPool,
    /// One staging pool per client node, shared by every endpoint
    /// [`ThreadReactorPool::accept`] creates on that node.
    client_pools: Mutex<HashMap<u32, MemPool>>,
    next_id: AtomicU64,
}

impl ThreadReactorPool {
    /// Creates `exs_cfg.shard.effective_shards()` shards on `node`,
    /// each with CQs sized for `max_conns` connections (full size per
    /// shard: policies may skew placement, and CQ overflow is fatal).
    pub fn new(
        net: Arc<ThreadNet>,
        node: Arc<ThreadNode>,
        cfg: ReactorConfig,
        exs_cfg: &ExsConfig,
        max_conns: usize,
    ) -> ThreadReactorPool {
        let nshards = exs_cfg.shard.effective_shards();
        let cq_depth = exs_cfg.cq_depth(max_conns.max(1));
        let mut shards = Vec::with_capacity(nshards);
        let mut services = Vec::with_capacity(nshards);
        for _ in 0..nshards {
            let cqs = node.with_hca(|h| (h.create_cq(cq_depth), h.create_cq(cq_depth)));
            let shard = Arc::new(Shard {
                cqs,
                reactor: Mutex::new(Reactor::new(cqs.0, cqs.1, cfg)),
                events: Mutex::new(HashMap::new()),
                cv: Condvar::new(),
                stop: AtomicBool::new(false),
                busy_ns: AtomicU64::new(0),
                wall_ns: AtomicU64::new(0),
            });
            services.push(spawn_shard_service(
                net.clone(),
                node.clone(),
                shard.clone(),
            ));
            shards.push(shard);
        }
        ThreadReactorPool {
            net,
            node,
            shards,
            services,
            placement: Mutex::new(Placement::new(exs_cfg.shard.policy, nshards)),
            pool: MemPool::new(exs_cfg.pool.clone()),
            client_pools: Mutex::new(HashMap::new()),
            next_id: AtomicU64::new(1),
        }
    }

    /// The pool's node.
    pub fn node(&self) -> &Arc<ThreadNode> {
        &self.node
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    fn pick_shard(&self, affinity: Option<u64>) -> u32 {
        let load = |s: usize| self.shards[s].reactor.lock().stats().live_conns();
        self.placement.lock().pick(affinity, load)
    }

    /// Accepts a new connection from `peer`, placing it by the pool's
    /// policy: builds a QP pair whose server side completes onto the
    /// chosen shard's CQs, registers the server socket with that
    /// shard's reactor, and returns the shard-qualified handle plus the
    /// blocking client endpoint (which, as every [`ThreadStream`] does,
    /// progresses inside its owner's calls).
    pub fn accept(&self, peer: &Arc<ThreadNode>, cfg: &ExsConfig) -> (ShardHandle, ThreadStream) {
        self.accept_with_affinity(peer, cfg, None)
    }

    /// [`ThreadReactorPool::accept`] with an explicit affinity key —
    /// connections sharing a key land on the same shard under
    /// [`crate::config::ShardPolicy::Affinity`].
    pub fn accept_with_affinity(
        &self,
        peer: &Arc<ThreadNode>,
        cfg: &ExsConfig,
        affinity: Option<u64>,
    ) -> (ShardHandle, ThreadStream) {
        let shard = self.pick_shard(affinity);
        let rt = &self.shards[shard as usize];
        let (client_sock, server_sock) = connect_sockets_over(peer, &self.node, cfg, Some(rt.cqs));
        let conn = {
            let mut reactor = rt.reactor.lock();
            let conn = reactor.accept(server_sock);
            rt.events.lock().insert(conn.0, EventBuf::default());
            conn
        };
        let pool = self
            .client_pools
            .lock()
            .entry(peer.id().0)
            .or_insert_with(|| MemPool::new(cfg.pool.clone()))
            .clone();
        let client = ThreadStream::new(self.net.clone(), peer.clone(), client_sock, pool);
        (ShardHandle { shard, conn }, client)
    }

    /// Registers I/O memory on the pool's node. The caller owns the
    /// registration; prefer [`ThreadReactorPool::acquire`] for
    /// pool-cached buffers that release themselves.
    pub fn register(&self, len: usize, access: Access) -> MrInfo {
        self.node.with_hca(|h| h.register_mr(len, access))
    }

    /// Leases a registered buffer from the pool node's pin-down cache.
    pub fn acquire(&self, len: usize, access: Access) -> MrLease {
        let mut port = ThreadPort::new(&self.net, &self.node);
        self.pool.acquire(&mut port, len, access)
    }

    /// The pool node's buffer-pool handle.
    pub fn pool(&self) -> &MemPool {
        &self.pool
    }

    /// Closes an accepted connection: detaches it from its shard's
    /// reactor (waiters on it return `None`) and releases every
    /// registration the server-side socket owns.
    pub fn close_conn(&self, handle: ShardHandle) {
        let rt = &self.shards[handle.shard as usize];
        let mut sock = {
            let mut reactor = rt.reactor.lock();
            rt.events.lock().remove(&handle.conn.0);
            reactor.remove(handle.conn)
        };
        rt.cv.notify_all();
        // Drain in-flight control traffic aimed at this connection's
        // slots before deregistering them.
        self.net.quiesce();
        let mut port = ThreadPort::new(&self.net, &self.node);
        sock.close(&mut port);
    }

    /// Runs one posting call on an accepted connection under its
    /// shard's reactor lock and publishes the events it completed
    /// inline; returns the new operation id.
    fn post(
        &self,
        handle: ShardHandle,
        op: impl FnOnce(&mut StreamSocket, &mut ThreadPort<'_>, u64),
    ) -> u64 {
        let rt = &self.shards[handle.shard as usize];
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let mut reactor = rt.reactor.lock();
        let mut port = ThreadPort::new(&self.net, &self.node);
        let sock = hosted_sock(&mut reactor, handle.conn);
        op(sock, &mut port, id);
        rt.publish(handle.conn, sock.take_events());
        id
    }

    /// Posts an asynchronous receive on an accepted connection.
    pub fn post_recv(
        &self,
        handle: ShardHandle,
        mr: &MrInfo,
        offset: u64,
        len: u32,
        waitall: bool,
    ) -> u64 {
        self.post(handle, |sock, port, id| {
            sock.exs_recv(port, mr, offset, len, waitall, id)
        })
    }

    /// Posts an asynchronous send on an accepted connection.
    pub fn post_send(&self, handle: ShardHandle, mr: &MrInfo, offset: u64, len: u64) -> u64 {
        self.post(handle, |sock, port, id| {
            sock.exs_send(port, mr, offset, len, id)
        })
    }

    /// Blocks until receive `id` on `handle` completes; `None` on
    /// timeout, or at once if the connection is closed.
    pub fn wait_recv(&self, handle: ShardHandle, id: u64, timeout: Duration) -> Option<u32> {
        let rt = &self.shards[handle.shard as usize];
        wait_event(&rt.events, &rt.cv, timeout, |bufs| {
            Some(bufs.get_mut(&handle.conn.0)?.recvs_done.remove(&id))
        })
    }

    /// Blocks until send `id` on `handle` completes; `None` on timeout,
    /// or at once if the connection is closed.
    pub fn wait_send(&self, handle: ShardHandle, id: u64, timeout: Duration) -> Option<u64> {
        let rt = &self.shards[handle.shard as usize];
        wait_event(&rt.events, &rt.cv, timeout, |bufs| {
            Some(bufs.get_mut(&handle.conn.0)?.sends_done.remove(&id))
        })
    }

    /// True once `handle`'s peer closed and its stream fully drained.
    pub fn peer_closed(&self, handle: ShardHandle) -> bool {
        let mut reactor = self.shards[handle.shard as usize].reactor.lock();
        hosted_sock(&mut reactor, handle.conn).peer_closed()
    }

    /// Sum of all accepted connections' protocol counters, across every
    /// shard.
    pub fn aggregate_stats(&self) -> ConnStats {
        merged((self.shards.iter()).map(|rt| rt.reactor.lock().aggregate_conn_stats()))
    }

    /// Event-loop statistics merged across shards: counters sum, peaks
    /// take the max.
    pub fn reactor_stats(&self) -> ReactorStats {
        merged((self.shards.iter()).map(|rt| rt.reactor.lock().stats().clone()))
    }

    /// Aggregated pool counters: the pool node's buffer pool merged
    /// with every per-client-node pool created by accepts.
    pub fn pool_stats(&self) -> PoolStats {
        let clients = self.client_pools.lock();
        merged(
            std::iter::once(&self.pool)
                .chain(clients.values())
                .map(MemPool::stats),
        )
    }

    /// Per-shard telemetry snapshot: live connections, poll/dispatch
    /// counters, placement decisions, and the service thread's busy
    /// ratio.
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        let placement = self.placement.lock();
        self.shards
            .iter()
            .enumerate()
            .map(|(i, rt)| ShardStats {
                busy_ns: rt.busy_ns.load(Ordering::Relaxed),
                wall_ns: rt.wall_ns.load(Ordering::Relaxed),
                ..placement.row(i, rt.reactor.lock().stats())
            })
            .collect()
    }
}

impl Drop for ThreadReactorPool {
    fn drop(&mut self) {
        // Every shard flushes its hosted streams' unsent traffic before
        // any shard stops: a FIN queued behind flow control at teardown
        // must still reach the wire or the peer hangs waiting for
        // end-of-stream.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        for rt in &self.shards {
            drain_reactor_unsent(&self.net, &self.node, rt, deadline);
        }
        // Signal every shard, wake all parked service threads at once,
        // then join.
        for rt in &self.shards {
            rt.stop.store(true, Ordering::Release);
            rt.cv.notify_all();
        }
        self.node.notify();
        for h in self.services.drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocking_roundtrip() {
        let (a, b) = ThreadStream::pair(&ExsConfig::default(), Duration::ZERO);
        let writer = std::thread::spawn(move || {
            a.send_bytes(b"hello from a real thread").unwrap();
            a
        });
        let mut buf = [0u8; 24];
        b.recv_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"hello from a real thread");
        let a = writer.join().unwrap();
        let st = a.stats();
        assert_eq!(st.bytes_sent, 24);
    }

    #[test]
    fn bidirectional_exchange() {
        let (a, b) = ThreadStream::pair(&ExsConfig::default(), Duration::from_micros(200));
        let t = std::thread::spawn(move || {
            let mut buf = [0u8; 4];
            b.recv_exact(&mut buf).unwrap();
            assert_eq!(&buf, b"ping");
            b.send_bytes(b"pong").unwrap();
        });
        a.send_bytes(b"ping").unwrap();
        let mut buf = [0u8; 4];
        a.recv_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"pong");
        t.join().unwrap();
    }

    /// Many writer threads share one stream; a framing layer proves that
    /// each send was atomic in the byte stream and nothing was lost,
    /// duplicated or reordered within a thread — the thread-safety
    /// property the paper's algorithm claims.
    #[test]
    fn concurrent_writers_frames_stay_atomic() {
        const WRITERS: usize = 4;
        const FRAMES: usize = 40;

        let (a, b) = ThreadStream::pair(&ExsConfig::default(), Duration::ZERO);
        let a = Arc::new(a);

        let mut total = 0usize;
        let mut frame_lens = vec![Vec::new(); WRITERS];
        let mut rng = 0x12345u64;
        for (t, lens) in frame_lens.iter_mut().enumerate() {
            for _ in 0..FRAMES {
                rng = rng
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(t as u64 + 1);
                let len = 16 + (rng >> 33) as usize % 2000;
                lens.push(len);
                total += len + 8; // 8-byte header
            }
        }

        let reader = std::thread::spawn(move || {
            // Parse frames off the stream: [thread u32][len u32][payload]
            let mut seen = vec![0u32; WRITERS];
            let mut remaining = total;
            while remaining > 0 {
                let mut header = [0u8; 8];
                b.recv_exact(&mut header).unwrap();
                let thread = u32::from_le_bytes(header[0..4].try_into().unwrap()) as usize;
                let len = u32::from_le_bytes(header[4..8].try_into().unwrap()) as usize;
                assert!(thread < WRITERS, "corrupted frame header");
                let mut payload = vec![0u8; len];
                b.recv_exact(&mut payload).unwrap();
                // Payload bytes encode (thread, per-thread frame number).
                let frame_no = seen[thread];
                for (i, &byte) in payload.iter().enumerate() {
                    let expect = (thread as u8)
                        .wrapping_mul(31)
                        .wrapping_add(frame_no as u8)
                        .wrapping_add(i as u8);
                    assert_eq!(byte, expect, "frame payload torn");
                }
                seen[thread] += 1;
                remaining -= len + 8;
            }
            seen
        });

        std::thread::scope(|s| {
            for (t, lens) in frame_lens.iter().enumerate() {
                let a = a.clone();
                s.spawn(move || {
                    for (frame_no, &len) in lens.iter().enumerate() {
                        let mut frame = Vec::with_capacity(len + 8);
                        frame.extend_from_slice(&(t as u32).to_le_bytes());
                        frame.extend_from_slice(&(len as u32).to_le_bytes());
                        frame.extend((0..len).map(|i| {
                            (t as u8)
                                .wrapping_mul(31)
                                .wrapping_add(frame_no as u8)
                                .wrapping_add(i as u8)
                        }));
                        a.send_bytes(&frame).unwrap();
                    }
                });
            }
        });

        let seen = reader.join().unwrap();
        assert_eq!(seen, vec![FRAMES as u32; WRITERS]);
    }

    /// Runs `body` on a thread of its own and fails if it is not done
    /// within `limit` — far below the 30 s a blocking call sleeps when a
    /// wake-up is lost.
    fn within(limit: Duration, body: impl FnOnce() + Send + 'static) {
        let (done, finished) = std::sync::mpsc::channel();
        let thread = std::thread::spawn(move || {
            body();
            let _ = done.send(());
        });
        if let Err(std::sync::mpsc::RecvTimeoutError::Timeout) = finished.recv_timeout(limit) {
            panic!("not done within {limit:?}: a wake-up was lost");
        }
        thread.join().expect("body panicked");
    }

    /// Both sides wait a millisecond before every send, so both leave
    /// the spin and park on every trip: each message has to wake a
    /// parked caller, and nothing else would.
    #[test]
    fn pingpong_between_parked_callers_loses_no_wakeup() {
        const TRIPS: u32 = 500;
        let pause = Duration::from_millis(1);
        within(Duration::from_secs(15), move || {
            let (a, b) = ThreadStream::pair(&ExsConfig::default(), Duration::ZERO);
            let echo = std::thread::spawn(move || {
                let mut buf = [0u8; 4];
                for _ in 0..TRIPS {
                    b.recv_exact(&mut buf).unwrap();
                    std::thread::sleep(pause);
                    b.send_bytes(&buf).unwrap();
                }
            });
            let mut buf = [0u8; 4];
            for trip in 0..TRIPS {
                std::thread::sleep(pause);
                a.send_bytes(&trip.to_le_bytes()).unwrap();
                a.recv_exact(&mut buf).unwrap();
                assert_eq!(u32::from_le_bytes(buf), trip);
            }
            echo.join().unwrap();
        });
    }

    /// Four writers share one stream and pause between frames, so the
    /// reader parks, and each writer's progress step keeps taking the
    /// others' completions off the CQ: those reach their owners through
    /// the buffer, and a waiting owner is woken for them.
    #[test]
    fn four_writers_share_a_stream_while_the_reader_parks() {
        const WRITERS: u32 = 4;
        const FRAMES: u32 = 100;
        within(Duration::from_secs(15), || {
            let (a, b) = ThreadStream::pair(&ExsConfig::default(), Duration::ZERO);
            std::thread::scope(|s| {
                for writer in 0..WRITERS {
                    let a = &a;
                    s.spawn(move || {
                        for frame in 0..FRAMES {
                            std::thread::sleep(Duration::from_micros(300));
                            let mut bytes = [0u8; 8];
                            bytes[..4].copy_from_slice(&writer.to_le_bytes());
                            bytes[4..].copy_from_slice(&frame.to_le_bytes());
                            a.send_bytes(&bytes).unwrap();
                        }
                    });
                }
                let mut next = [0u32; WRITERS as usize];
                let mut bytes = [0u8; 8];
                for _ in 0..WRITERS * FRAMES {
                    b.recv_exact(&mut bytes).unwrap();
                    let writer = u32::from_le_bytes(bytes[..4].try_into().unwrap()) as usize;
                    let frame = u32::from_le_bytes(bytes[4..].try_into().unwrap());
                    assert_eq!(frame, next[writer], "writer {writer} out of order");
                    next[writer] += 1;
                }
                assert_eq!(next, [FRAMES; WRITERS as usize]);
            });
        });
    }

    /// `shutdown` is the closing side's last call. With the credits
    /// spent the FIN cannot even be queued when it is made, and nothing
    /// would send it later: the call itself has to stay until the peer
    /// has read enough for it to go.
    #[test]
    fn shutdown_behind_exhausted_credits_still_delivers_end_of_stream() {
        const MSGS: u64 = 64;
        const LEN: u64 = 32;
        within(Duration::from_secs(15), || {
            let cfg = ExsConfig {
                credits: 4,
                coalesce_threshold: 0,
                ..ExsConfig::default()
            };
            let (a, b) = ThreadStream::pair(&cfg, Duration::ZERO);
            let src = a.register((MSGS * LEN) as usize, Access::NONE);
            let pattern: Vec<u8> = (0..MSGS * LEN).map(|i| i as u8).collect();
            a.node()
                .with_hca(|h| h.mem_mut().app_write(src.key, src.addr, &pattern))
                .unwrap();
            // The peer has made no call yet, so it has returned no
            // credit: most of these stay queued.
            for msg in 0..MSGS {
                a.send(&src, msg * LEN, LEN);
            }
            assert!(a.shared.sock.lock().has_unsent(), "credits never ran out");

            std::thread::scope(|s| {
                s.spawn(|| a.shutdown());
                let dst = b.register((MSGS * LEN) as usize, Access::local_remote_write());
                let long = Duration::from_secs(10);
                let mut got = 0u64;
                while got < MSGS * LEN {
                    let id = b.recv(&dst, got, (MSGS * LEN - got) as u32, false);
                    got += u64::from(b.wait_recv(id, long).expect("data stalled"));
                }
                let id = b.recv(&dst, 0, 1, false);
                assert_eq!(b.wait_recv(id, long), Some(0), "end of stream");
                assert!(b.peer_closed());
                let mut read = vec![0u8; pattern.len()];
                b.node()
                    .with_hca(|h| h.mem().app_read(dst.key, dst.addr, &mut read))
                    .unwrap();
                assert_eq!(read, pattern);
            });
            assert!(!a.shared.sock.lock().has_unsent());
        });
    }

    #[test]
    fn wait_times_out() {
        let (a, _b) = ThreadStream::pair(&ExsConfig::default(), Duration::ZERO);
        assert_eq!(a.wait_send(9999, Duration::from_millis(50)), None);
        assert_eq!(a.wait_recv(9999, Duration::from_millis(50)), None);
    }

    /// A wait on a handle `close_conn` already removed used to re-insert
    /// an `EventBuf` nobody would free and then sleep out its timeout.
    #[test]
    fn wait_on_a_closed_handle_returns_at_once_and_inserts_nothing() {
        let cfg = ExsConfig::default();
        let mut net = ThreadNet::new();
        let server = net.add_node(rdma_verbs::HcaConfig::default());
        let peer = net.add_node(rdma_verbs::HcaConfig::default());
        net.connect_nodes(&peer, &server, Duration::ZERO);
        let pool = ThreadReactorPool::new(Arc::new(net), server, ReactorConfig::default(), &cfg, 2);
        let (closed, _c1) = pool.accept(&peer, &cfg);
        let (live, _c2) = pool.accept(&peer, &cfg);
        pool.close_conn(closed);

        let start = std::time::Instant::now();
        let long = Duration::from_secs(30);
        assert_eq!(pool.wait_recv(closed, 1, long), None);
        assert_eq!(pool.wait_send(closed, 1, long), None);
        assert!(start.elapsed() < Duration::from_secs(5));
        let bufs = pool.shards[0].events.lock();
        assert_eq!(bufs.keys().collect::<Vec<_>>(), [&live.conn.0]);
    }
}
