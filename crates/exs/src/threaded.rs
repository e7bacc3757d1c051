//! Blocking, thread-safe stream sockets over the real-thread fabric.
//!
//! The paper's stated problem is "to design a **thread-safe** algorithm
//! that combines the zero-copy benefit of RDMA with the fast send
//! response benefit of TCP-style buffering" (§I). The deterministic
//! simulator regenerates the figures; this module runs the *same*
//! protocol state machines under genuine OS concurrency.
//!
//! There is one blocking connection, [`ThreadStream`], and one thing
//! behind every handle: a **host** — a [`Reactor`] over one CQ pair, the
//! completion mailboxes of the handles it hosts, and a count of the
//! callers waiting on them. A handle is `(host, ConnId)`, and whichever
//! end it is, it waits, takes progress steps, drains and closes through
//! its host's one implementation of each:
//!
//! * each end of [`ThreadStream::pair`], and the client end of a
//!   [`ThreadReactorPool`] accept, is the only handle of a host of its
//!   own, and nothing runs for it: **the blocked caller is the progress
//!   engine**. A thread waiting in `wait_send`/`wait_recv` (hence
//!   `send_bytes`/`recv_exact`) polls the host itself, spins briefly on
//!   the node's completion generation, then parks on it;
//! * the server ends of a [`ThreadReactorPool`] share their shard's
//!   host, which one service thread polls however many connections it
//!   hosts — a server owes its peers progress nobody called for. The
//!   service thread and their callers wait the same way, in the host's
//!   one wait; the service thread's progress steps wake the callers.
//!
//! The contract that follows: **an endpoint progresses inside its
//! calls** unless a service thread polls its host. Nothing else works
//! for it after a call returns, so the calls that end the caller's
//! interest in it — [`ThreadStream::shutdown`], [`ThreadStream::flush`],
//! [`ThreadStream::close`] — drive it until it owes the wire nothing
//! ([`StreamSocket::has_unsent`]).
//!
//! Concurrent `send` calls are each atomic in the byte stream (the
//! host's lock orders them); the interleaving *between* threads is
//! unspecified, exactly like concurrent `write(2)` on a pipe.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use rdma_verbs::threaded::{deadline_after, passed, ThreadNet, ThreadNode};
use rdma_verbs::{Access, CqId, Cqe, MrInfo, MrKey, QpNum, RecvWr, Result, SendWr};
use simnet::stats::merged;
use simnet::IntMap;

use crate::config::ExsConfig;
use crate::endpoint::Endpoint;
use crate::mempool::{MemPool, MrLease};
use crate::mux::{MuxEndpoint, MuxEvent};
use crate::port::VerbsPort;
use crate::reactor::{ConnId, Reactor, ReactorConfig, Readiness};
use crate::shard::Placement;
use crate::stats::{ConnStats, PoolStats, ReactorStats, ShardStats};
use crate::stream::StreamSocket;

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
/// existing thread fabric. Each side's QP completes onto the shared CQs
/// given for it — a reactor's pair, as every [`ThreadStream`] host and
/// every client-side reactor or executor multiplexing several outbound
/// connections has — or onto a private pair for `None`.
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

/// The completions of one hosted handle, waiting for its callers to
/// take them by operation id. End of stream and transport failure are
/// not kept here: they are states of the endpoint ([`Readiness`]).
#[derive(Default)]
struct Mailbox {
    sends_done: IntMap<u64, u64>,
    recvs_done: IntMap<u64, u32>,
}

impl Mailbox {
    /// Moves what `ep` completed into the mailbox, through `scratch`
    /// (which keeps its storage); true if anything moved.
    fn absorb(&mut self, ep: &mut Endpoint, scratch: &mut Vec<MuxEvent>) -> bool {
        ep.take_events_into(scratch);
        let moved = !scratch.is_empty();
        for ev in scratch.drain(..) {
            match ev {
                MuxEvent::SendComplete { id, len, .. } => {
                    self.sends_done.insert(id, len);
                }
                MuxEvent::RecvComplete { id, len, .. } => {
                    self.recvs_done.insert(id, len);
                }
                MuxEvent::StreamClosed { .. } | MuxEvent::TransportError { .. } => {}
            }
        }
        moved
    }
}

/// The longest `shutdown`, `flush`, `close` and a pool's teardown stay
/// for traffic a peer that grants no credits keeps from the wire.
const DRAIN_BOUND: Duration = Duration::from_secs(5);

/// What a host's lock guards: its reactor, and the buffers a progress
/// step reuses so that it allocates nothing.
struct Engine {
    reactor: Reactor,
    ready: Vec<(ConnId, Readiness)>,
    events: Vec<MuxEvent>,
}

/// The one thing behind every [`ThreadStream`]: a reactor over one CQ
/// pair on one node, and the mailboxes of the handles it hosts.
///
/// Lock order is `engine`, then `mailboxes`. A mailbox is created,
/// filled and dropped only while `engine` is held, so it exists exactly
/// as long as the reactor hosts its handle. Whoever takes completions
/// off the reactor puts them in the mailboxes before it releases
/// `engine`: a second caller, which polls after the first, then finds
/// there whatever the first took off the CQs — otherwise it could poll
/// an empty CQ, miss an event taken but not yet published, and park on a
/// generation that has already moved.
struct Host {
    net: Arc<ThreadNet>,
    node: Arc<ThreadNode>,
    /// The reactor's `(send, recv)` CQ pair.
    cqs: (CqId, CqId),
    engine: Mutex<Engine>,
    /// Indexed by [`ConnId`]; `None` at a free slot.
    mailboxes: Mutex<Vec<Option<Mailbox>>>,
    /// Callers between announcing a wait and leaving it; a thread that
    /// polls the host whatever happens (the service thread, a drain) is
    /// not one. A progress step that published completions wakes the
    /// node only when this is non-zero, so the node's generation keeps
    /// meaning "completions landed". Same store-then-load handshake as
    /// [`ThreadNode::notify`]: a waiter counts itself in and then looks
    /// in its mailbox, a publisher fills mailboxes and then reads the
    /// count.
    waiters: AtomicUsize,
    /// True while a service thread polls this host; otherwise its blocked
    /// callers do.
    serviced: AtomicBool,
    /// Time inside the progress steps of the threads that poll the host
    /// whatever happens — its service thread, a drain — and the service
    /// thread's age.
    busy_ns: AtomicU64,
    wall_ns: AtomicU64,
}

/// The entry at `idx`, growing `table` to hold it.
fn slot<T>(table: &mut Vec<Option<T>>, idx: usize) -> &mut Option<T> {
    if table.len() <= idx {
        table.resize_with(idx + 1, || None);
    }
    &mut table[idx]
}

/// `conn`'s mailbox, which exists while `conn` is hosted.
fn mailbox(boxes: &mut [Option<Mailbox>], conn: ConnId) -> &mut Mailbox {
    boxes[conn.0 as usize]
        .as_mut()
        .expect("a hosted handle has a mailbox")
}

impl Host {
    /// A host on `node` over a fresh CQ pair of `cq_depth`; a service
    /// thread polls it if `serviced`.
    fn new(
        net: &Arc<ThreadNet>,
        node: &Arc<ThreadNode>,
        cq_depth: usize,
        cfg: ReactorConfig,
        serviced: bool,
    ) -> Arc<Host> {
        let (send_cq, recv_cq) = node.with_hca(|h| (h.create_cq(cq_depth), h.create_cq(cq_depth)));
        Arc::new(Host {
            net: net.clone(),
            node: node.clone(),
            cqs: (send_cq, recv_cq),
            engine: Mutex::new(Engine {
                reactor: Reactor::new(send_cq, recv_cq, cfg),
                ready: Vec::new(),
                events: Vec::new(),
            }),
            mailboxes: Mutex::new(Vec::new()),
            waiters: AtomicUsize::new(0),
            serviced: AtomicBool::new(serviced),
            busy_ns: AtomicU64::new(0),
            wall_ns: AtomicU64::new(0),
        })
    }

    /// A host of one endpoint, over a private CQ pair, that its blocked
    /// callers poll.
    fn own(net: &Arc<ThreadNet>, node: &Arc<ThreadNode>, cfg: &ExsConfig) -> Arc<Host> {
        Host::new(net, node, cfg.cq_depth(1), ReactorConfig::default(), false)
    }

    fn port(&self) -> ThreadPort<'_> {
        ThreadPort::new(&self.net, &self.node)
    }

    fn serviced(&self) -> bool {
        self.serviced.load(Ordering::SeqCst)
    }

    /// Wakes the node's parked callers after completions were published,
    /// if anyone waits (see `waiters`).
    fn wake(&self, published: bool) {
        if published && self.waiters.load(Ordering::SeqCst) != 0 {
            self.node.notify();
        }
    }

    /// The one progress step, taken by the service thread or by a
    /// blocked caller: one bounded poll, then every ready handle's
    /// completions into its mailbox, under the reactor lock; then the
    /// wake-up. True if the poll left work behind
    /// ([`Reactor::has_backlog`]), which moves no generation: step again
    /// before parking.
    fn poll(&self) -> bool {
        let mut engine = self.engine.lock();
        let Engine {
            reactor,
            ready,
            events,
        } = &mut *engine;
        reactor.poll_into(&mut self.port(), ready);
        let mut published = false;
        if !ready.is_empty() {
            let mut boxes = self.mailboxes.lock();
            for &(conn, _) in ready.iter() {
                published |= mailbox(&mut boxes, conn).absorb(reactor.conn_mut(conn), events);
            }
        }
        let backlog = reactor.has_backlog();
        drop(engine);
        self.wake(published);
        backlog
    }

    /// Runs `op` on `conn`'s endpoint under the reactor lock, and
    /// publishes what it completed inside the call the same way.
    fn with_endpoint<R>(
        &self,
        conn: ConnId,
        op: impl FnOnce(&mut Endpoint, &mut ThreadPort<'_>) -> R,
    ) -> R {
        let mut engine = self.engine.lock();
        let Engine {
            reactor, events, ..
        } = &mut *engine;
        let ep = reactor.conn_mut(conn);
        let result = op(ep, &mut self.port());
        let published =
            ep.events_pending() > 0 && mailbox(&mut self.mailboxes.lock(), conn).absorb(ep, events);
        drop(engine);
        self.wake(published);
        result
    }

    /// The one blocking wait on a host — every handle's, a drain's, and
    /// the service thread's: until `done` finds what it looks for, or
    /// `deadline` passes (`None`: never). Each round reads the node's
    /// generation, takes a progress step unless a service thread takes
    /// them (`poll_always`: even then), asks `done`, and if the answer is
    /// not there waits for the generation to move
    /// ([`ThreadNode::wait_any`]). A `poll_always` thread is not counted
    /// in `waiters`: what it waits for follows completions, which move
    /// the generation on their own.
    fn wait<T>(
        &self,
        deadline: Option<Instant>,
        poll_always: bool,
        mut done: impl FnMut() -> Option<T>,
    ) -> Option<T> {
        loop {
            // Read before polling: whatever lands after this moves the
            // generation, and the wait below returns at once.
            let seen = self.node.generation();
            let backlog = if poll_always {
                let start = Instant::now();
                let backlog = self.poll();
                let busy = start.elapsed().as_nanos() as u64;
                self.busy_ns.fetch_add(busy, Ordering::Relaxed);
                backlog
            } else {
                !self.serviced() && self.poll()
            };
            if !poll_always {
                self.waiters.fetch_add(1, Ordering::SeqCst);
            }
            let found = done();
            let over = found.is_some() || passed(deadline);
            if !over && !backlog {
                self.node.wait_any(seen, deadline);
            }
            if !poll_always {
                self.waiters.fetch_sub(1, Ordering::SeqCst);
            }
            if over {
                return found;
            }
        }
    }

    /// The one drain: progress steps until `owes` clears or `deadline`
    /// passes. What `shutdown`, `flush`, `close` and a pool's teardown
    /// end with — after them nothing would send a FIN or a held-back
    /// message queued behind flow control. It polls even a serviced host,
    /// since a step that only sends publishes nothing to wake it.
    fn drain(&self, deadline: Option<Instant>, owes: impl Fn(&Reactor) -> bool) {
        self.wait(deadline, true, || {
            (!owes(&self.engine.lock().reactor)).then_some(())
        });
    }
}

/// A blocking, thread-safe stream endpoint: either end of a
/// [`ThreadStream::pair`], or either end of a connection a
/// [`ThreadReactorPool`] accepted.
///
/// Sharing the handle (via `Arc`) lets many threads use one connection;
/// each operation blocks its calling thread until the protocol reports
/// completion. Unless a pool's service thread polls its host, the
/// endpoint progresses inside these calls (see the module docs).
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
    host: Arc<Host>,
    /// This handle's slot in its host's reactor; `None` once closed, so
    /// the handle cannot reach whoever is hosted there next.
    conn: Option<ConnId>,
    /// Staging-buffer pool, shared with every other endpoint on the
    /// same node that came from the same pair or pool.
    pool: MemPool,
    next_id: AtomicU64,
}

impl ThreadStream {
    /// Creates a connected pair of blocking stream endpoints over a
    /// fresh two-node thread fabric with the given real link delay,
    /// each the one handle of a host of its own. With no delay this
    /// starts no thread at all.
    pub fn pair(cfg: &ExsConfig, delay: Duration) -> (ThreadStream, ThreadStream) {
        let mut net = ThreadNet::new();
        let a = net.add_node(rdma_verbs::HcaConfig::default());
        let b = net.add_node(rdma_verbs::HcaConfig::default());
        net.connect_nodes(&a, &b, delay);
        let net = Arc::new(net);
        let own = |node| (Host::own(&net, node, cfg), MemPool::new(cfg.pool.clone()));
        ThreadStream::connect(cfg, own(&a), own(&b))
    }

    /// Connects a socket pair between two hosts' nodes, each side
    /// completing onto its host's CQs, and hosts each end there with the
    /// staging pool given for it.
    fn connect(
        cfg: &ExsConfig,
        (host_a, pool_a): (Arc<Host>, MemPool),
        (host_b, pool_b): (Arc<Host>, MemPool),
    ) -> (ThreadStream, ThreadStream) {
        let (sock_a, sock_b) = connect_sockets_shared(
            &host_a.node,
            &host_b.node,
            cfg,
            Some(host_a.cqs),
            Some(host_b.cqs),
        );
        (
            ThreadStream::hosted(host_a, sock_a, pool_a),
            ThreadStream::hosted(host_b, sock_b, pool_b),
        )
    }

    /// Hosts `sock` on `host` and gives it its mailbox.
    fn hosted(host: Arc<Host>, sock: StreamSocket, pool: MemPool) -> ThreadStream {
        let conn = {
            let mut engine = host.engine.lock();
            let conn = engine.reactor.accept(sock);
            *slot(&mut host.mailboxes.lock(), conn.0 as usize) = Some(Mailbox::default());
            conn
        };
        ThreadStream {
            host,
            conn: Some(conn),
            pool,
            next_id: AtomicU64::new(1),
        }
    }

    /// The endpoint's node (for memory registration and inspection).
    pub fn node(&self) -> &Arc<ThreadNode> {
        &self.host.node
    }

    /// Registers I/O memory on this endpoint's node. The caller owns
    /// the registration; prefer [`ThreadStream::acquire`] for
    /// pool-cached buffers that release themselves.
    pub fn register(&self, len: usize, access: Access) -> MrInfo {
        self.host.node.with_hca(|h| h.register_mr(len, access))
    }

    /// Leases a registered buffer from this node's pin-down cache.
    pub fn acquire(&self, len: usize, access: Access) -> MrLease {
        self.pool.acquire(&mut self.host.port(), len, access)
    }

    /// This node's staging-pool handle.
    pub fn pool(&self) -> &MemPool {
        &self.pool
    }

    /// Runs `op` on this handle's endpoint; `None` once closed.
    fn with_endpoint<R>(
        &self,
        op: impl FnOnce(&mut Endpoint, &mut ThreadPort<'_>) -> R,
    ) -> Option<R> {
        Some(self.host.with_endpoint(self.conn?, op))
    }

    /// Starts an asynchronous send from registered memory; returns the
    /// operation id. The buffer must stay untouched until
    /// [`ThreadStream::wait_send`] returns it. A send the stream refuses
    /// — it is broken, shut down or closed — never completes.
    pub fn send(&self, mr: &MrInfo, offset: u64, len: u64) -> u64 {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.with_endpoint(|ep, port| ep.send(port, 0, mr, offset, len, id));
        id
    }

    /// Starts an asynchronous receive into registered memory.
    pub fn recv(&self, mr: &MrInfo, offset: u64, len: u32, waitall: bool) -> u64 {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.with_endpoint(|ep, port| ep.recv(port, 0, mr, offset, len, waitall, id));
        id
    }

    /// Waits for the completion `take` finds in this handle's mailbox;
    /// `None` at `timeout`, or at once on a closed handle.
    fn wait<T>(&self, timeout: Duration, take: impl Fn(&mut Mailbox) -> Option<T>) -> Option<T> {
        let conn = self.conn?;
        let host = &self.host;
        host.wait(deadline_after(timeout), false, || {
            take(mailbox(&mut host.mailboxes.lock(), conn))
        })
    }

    /// Blocks until send `id` completes; returns the bytes sent, or
    /// `None` on timeout (`Duration::MAX` waits for ever) or once the
    /// handle is closed.
    pub fn wait_send(&self, id: u64, timeout: Duration) -> Option<u64> {
        self.wait(timeout, |mailbox| mailbox.sends_done.remove(&id))
    }

    /// Blocks until receive `id` completes; returns the bytes received,
    /// or `None` on timeout (`Duration::MAX` waits for ever) or once the
    /// handle is closed.
    pub fn wait_recv(&self, id: u64, timeout: Duration) -> Option<u32> {
        self.wait(timeout, |mailbox| mailbox.recvs_done.remove(&id))
    }

    /// Convenience: sends `data` through a pool-leased staging buffer
    /// and blocks until the stream has consumed it. Atomic in the
    /// stream with respect to other concurrent `send_bytes` calls. The
    /// lease returns to the node's pin-down cache on completion, so
    /// repeated calls reuse one registration instead of registering
    /// (and leaking) a region per call.
    pub fn send_bytes(&self, data: &[u8]) -> std::result::Result<(), &'static str> {
        let lease = self.acquire(data.len().max(1), Access::NONE);
        lease
            .write(&mut self.host.port(), 0, data)
            .map_err(|_| "staging write failed")?;
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
        lease
            .read(&self.host.port(), 0, buf)
            .map_err(|_| "staging read failed")
    }

    /// Stays until this handle owes the wire nothing, for at most
    /// [`DRAIN_BOUND`] — a peer that never grants the credits cannot
    /// hold the caller for ever.
    fn drain(&self) {
        if let Some(conn) = self.conn {
            self.host.drain(deadline_after(DRAIN_BOUND), |reactor| {
                reactor.conn(conn).has_unsent()
            });
        }
    }

    /// Pushes any coalesced-and-held small sends and staged WQEs to the
    /// HCA immediately (the latency opt-out from transmit batching), and
    /// stays until everything queued has reached the wire: without it a
    /// held send goes out inside the caller's next blocking call.
    pub fn flush(&self) {
        self.with_endpoint(|ep, port| ep.flush(port));
        self.drain();
    }

    /// Half-closes the sending direction. Queued data drains and the
    /// FIN follows it before this returns (or after five seconds of a
    /// peer granting nothing).
    pub fn shutdown(&self) {
        self.with_endpoint(|ep, port| ep.shutdown(port, 0));
        self.drain();
    }

    /// One progress step (unless a service thread takes them), then the
    /// endpoint's level-triggered state. A closed handle reads as ended.
    fn state(&self) -> Readiness {
        let Some(conn) = self.conn else {
            return Readiness {
                closed: true,
                ..Readiness::NONE
            };
        };
        if !self.host.serviced() {
            self.host.poll();
        }
        self.host.engine.lock().reactor.conn(conn).readiness()
    }

    /// True once the peer has closed and its stream fully drained, and
    /// on a closed handle.
    pub fn peer_closed(&self) -> bool {
        self.state().closed
    }

    /// True once the transport failed underneath the socket.
    pub fn is_broken(&self) -> bool {
        self.state().error
    }

    /// Protocol statistics snapshot, CQ-pressure gauges included; all
    /// zero on a closed handle.
    pub fn stats(&self) -> ConnStats {
        self.with_endpoint(|ep, port| {
            ep.sync_cq_stats(port);
            ep.stats().clone()
        })
        .unwrap_or_default()
    }

    /// Closes the endpoint: sends what it still owes, detaches it from
    /// its host together with its mailbox, releases every registration
    /// the socket owns, and trims this handle's share of the staging
    /// pool. Idle registrations held for other endpoints on the same
    /// node stay cached; live leases elsewhere are untouched. Every later
    /// call on the handle answers "closed".
    pub fn close(&mut self) {
        let Some(conn) = self.conn else {
            return;
        };
        self.drain();
        self.conn = None;
        let host = &self.host;
        let mut ep = {
            let mut engine = host.engine.lock();
            host.mailboxes.lock()[conn.0 as usize] = None;
            engine.reactor.remove(conn)
        };
        // Late control traffic from the peer (final ACKs, credit
        // returns) may still be in flight on a delayed link; let it
        // land while our control slots are still registered.
        host.net.quiesce();
        let mut port = host.port();
        ep.close(&mut port);
        self.pool.trim(&mut port);
    }
}

/// One shard's service thread: its host's one wait, polling always,
/// until the host is no longer serviced. Each step wakes the shard's
/// waiting callers for what it published.
fn spawn_service(host: Arc<Host>) -> JoinHandle<()> {
    std::thread::spawn(move || {
        let epoch = Instant::now();
        host.wait(None, true, || {
            let age = epoch.elapsed().as_nanos() as u64;
            host.wall_ns.store(age, Ordering::Relaxed);
            (!host.serviced()).then_some(())
        });
    })
}

/// [`Reactor`]s hosted on one node of the real-thread fabric — the
/// thread backend's one serving front-end: one host per shard, one
/// service thread per host, and a [`Placement`].
///
/// Where a caller-polled [`ThreadStream`] progresses only inside its
/// owner's calls, the pool's **service thread per shard** polls for
/// every server end it accepted: the thread is the shard host's one
/// wait with no deadline, taking one bounded [`Reactor::poll`] over the
/// shard's shared CQs per round and waiting on the node's completion
/// generation ([`ThreadNode::wait_any`] — the completion-channel
/// analogue) in between. A server end is a whole [`ThreadStream`]; its
/// callers wait on the same generation and the service thread wakes
/// them. With `shard.shards = 1` (the [`ExsConfig`] default) this is the
/// classic single reactor; more shards spread CQE dispatch and readiness
/// harvesting across cores instead of serialising on one reactor lock.
///
/// Sharding invariants (those of [`crate::shard`]):
///
/// * A connection is assigned to a shard **once**, at accept, by the
///   rotation; it never migrates.
/// * Post, wait, poll and close touch only the owning shard's state —
///   no cross-shard locks. [`ThreadStream::close`] detaches the socket
///   under the shard's reactor lock, the same lock every post takes, so
///   it needs no message to the service thread.
/// * Statistics aggregate by **summing** counters across shards
///   (peaks take a max); per-shard telemetry is preserved in
///   [`ThreadReactorPool::shard_stats`].
pub struct ThreadReactorPool {
    /// One per shard, all on the pool's node.
    hosts: Vec<Arc<Host>>,
    services: Vec<JoinHandle<()>>,
    /// Shared by all accept callers; touched only on the accept path,
    /// never while moving bytes.
    placement: Mutex<Placement>,
    /// Staging pool of the server ends, on the pool's node.
    pool: MemPool,
    /// One staging pool per client node, indexed by node id, shared by
    /// every client end accepted from that node.
    client_pools: Mutex<Vec<Option<MemPool>>>,
}

impl ThreadReactorPool {
    /// Creates `exs_cfg.shard.effective_shards()` shards on `node`,
    /// each with CQs sized for `max_conns` connections. The rotation
    /// puts at most ⌈max_conns / shards⌉ on one shard, but CQ overflow
    /// is fatal, so the depth does not lean on the placement rule.
    pub fn new(
        net: Arc<ThreadNet>,
        node: Arc<ThreadNode>,
        cfg: ReactorConfig,
        exs_cfg: &ExsConfig,
        max_conns: usize,
    ) -> ThreadReactorPool {
        let shards = exs_cfg.shard.effective_shards();
        let cq_depth = exs_cfg.cq_depth(max_conns.max(1));
        let hosts: Vec<Arc<Host>> = (0..shards)
            .map(|_| Host::new(&net, &node, cq_depth, cfg, true))
            .collect();
        ThreadReactorPool {
            services: hosts.iter().cloned().map(spawn_service).collect(),
            hosts,
            placement: Mutex::new(Placement::new(shards)),
            pool: MemPool::new(exs_cfg.pool.clone()),
            client_pools: Mutex::new(Vec::new()),
        }
    }

    /// The pool's node.
    pub fn node(&self) -> &Arc<ThreadNode> {
        &self.hosts[0].node
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.hosts.len()
    }

    /// Accepts a new connection from `peer` on the next shard in the
    /// rotation: builds a QP pair whose server side completes onto the
    /// chosen shard's CQs and is hosted there, and returns the server
    /// end and the client end — the latter the one handle of a host of
    /// its own, which progresses inside its owner's calls.
    pub fn accept(&self, peer: &Arc<ThreadNode>, cfg: &ExsConfig) -> (ThreadStream, ThreadStream) {
        let shard = self.placement.lock().pick();
        let server = &self.hosts[shard as usize];
        let client_pool = {
            let mut pools = self.client_pools.lock();
            let pool = slot(&mut pools, peer.id().0 as usize);
            (pool.get_or_insert_with(|| MemPool::new(cfg.pool.clone()))).clone()
        };
        let client = (Host::own(&server.net, peer, cfg), client_pool);
        let (client, server) =
            ThreadStream::connect(cfg, client, (server.clone(), self.pool.clone()));
        (server, client)
    }

    /// Sum of all accepted connections' protocol counters, across every
    /// shard.
    pub fn aggregate_stats(&self) -> ConnStats {
        merged((self.hosts.iter()).map(|host| host.engine.lock().reactor.aggregate_conn_stats()))
    }

    /// Event-loop statistics merged across shards: counters sum, peaks
    /// take the max.
    pub fn reactor_stats(&self) -> ReactorStats {
        merged((self.hosts.iter()).map(|host| host.engine.lock().reactor.stats().clone()))
    }

    /// Aggregated pool counters: the server ends' staging pool merged
    /// with every per-client-node pool created by accepts.
    pub fn pool_stats(&self) -> PoolStats {
        let clients = self.client_pools.lock();
        merged(
            std::iter::once(&self.pool)
                .chain(clients.iter().flatten())
                .map(MemPool::stats),
        )
    }

    /// Per-shard telemetry snapshot: live connections, poll/dispatch
    /// counters, placement decisions, and the service thread's busy
    /// ratio.
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        let placement = self.placement.lock();
        (self.hosts.iter().enumerate())
            .map(|(i, host)| ShardStats {
                busy_ns: host.busy_ns.load(Ordering::Relaxed),
                wall_ns: host.wall_ns.load(Ordering::Relaxed),
                ..placement.row(i, host.engine.lock().reactor.stats())
            })
            .collect()
    }
}

impl Drop for ThreadReactorPool {
    fn drop(&mut self) {
        // Every shard drains before any stops (one shared deadline): a
        // FIN queued behind flow control at teardown must still reach
        // the wire or the peer hangs waiting for end-of-stream.
        let deadline = deadline_after(DRAIN_BOUND);
        for host in &self.hosts {
            host.drain(deadline, Reactor::has_unsent);
        }
        // Then stop every service thread, wake them all at once, and
        // join. A server end still open is its callers' to poll from
        // here on.
        for host in &self.hosts {
            host.serviced.store(false, Ordering::SeqCst);
        }
        self.node().notify();
        for service in self.services.drain(..) {
            let _ = service.join();
        }
    }
}

#[cfg(test)]
mod wake_check;

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

    /// True while `stream` still owes traffic to the wire.
    fn owes(stream: &ThreadStream) -> bool {
        let engine = stream.host.engine.lock();
        engine.reactor.conn(stream.conn.unwrap()).has_unsent()
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
            assert!(owes(&a), "credits never ran out");

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
            assert!(!owes(&a));
        });
    }

    #[test]
    fn wait_times_out() {
        let (a, _b) = ThreadStream::pair(&ExsConfig::default(), Duration::ZERO);
        assert_eq!(a.wait_send(9999, Duration::from_millis(20)), None);
        assert_eq!(a.wait_recv(9999, Duration::from_millis(20)), None);
    }

    /// A wait for ever is `Duration::MAX`, which no `Instant` can be
    /// moved by: it must wait without a deadline, not overflow.
    #[test]
    fn a_wait_for_ever_returns_once_the_peer_sends() {
        within(Duration::from_secs(15), || {
            let (a, b) = ThreadStream::pair(&ExsConfig::default(), Duration::ZERO);
            let dst = b.register(4, Access::local_remote_write());
            let id = b.recv(&dst, 0, 4, true);
            std::thread::scope(|s| {
                s.spawn(|| {
                    std::thread::sleep(Duration::from_millis(10));
                    a.send_bytes(b"late").unwrap();
                });
                assert_eq!(b.wait_recv(id, Duration::MAX), Some(4));
            });
        });
    }

    /// A one-shard pool over a server node and one peer node.
    fn pool_of(cfg: &ExsConfig, max_conns: usize) -> (ThreadReactorPool, Arc<ThreadNode>) {
        let mut net = ThreadNet::new();
        let server = net.add_node(rdma_verbs::HcaConfig::default());
        let peer = net.add_node(rdma_verbs::HcaConfig::default());
        net.connect_nodes(&peer, &server, Duration::ZERO);
        let pool = ThreadReactorPool::new(
            Arc::new(net),
            server,
            ReactorConfig::default(),
            cfg,
            max_conns,
        );
        (pool, peer)
    }

    /// With nothing arriving, a pool's service thread stays parked after
    /// its first step: its wait has no deadline to re-poll on.
    #[test]
    fn an_idle_pool_takes_no_progress_steps() {
        let cfg = ExsConfig::default();
        let (pool, _peer) = pool_of(&cfg, 1);
        let start = Instant::now();
        while pool.reactor_stats().polls == 0 {
            assert!(start.elapsed() < Duration::from_secs(10), "never polled");
            std::thread::yield_now();
        }
        let polls = pool.reactor_stats().polls;
        std::thread::sleep(Duration::from_millis(200));
        assert_eq!(pool.reactor_stats().polls, polls);
    }

    /// An executor over an empty reactor on a node of its own.
    fn lone_executor() -> (ThreadNet, Arc<ThreadNode>, crate::Executor) {
        let mut net = ThreadNet::new();
        let node = net.add_node(rdma_verbs::HcaConfig::default());
        let (send_cq, recv_cq) = node.with_hca(|h| (h.create_cq(16), h.create_cq(16)));
        let reactor = Reactor::new(send_cq, recv_cq, ReactorConfig::default());
        (net, node, crate::Executor::new(reactor))
    }

    /// A waker fired on another thread is the only thing that can end
    /// this executor's wait: nothing arrives.
    #[test]
    fn a_waker_fired_on_another_thread_ends_the_executors_wait() {
        within(Duration::from_secs(15), || {
            let (net, node, mut ex) = lone_executor();
            let fired = Arc::new(AtomicBool::new(false));
            let (give, take) = std::sync::mpsc::channel::<std::task::Waker>();
            let waker_thread = {
                let fired = fired.clone();
                std::thread::spawn(move || {
                    let waker = take.recv().expect("the task registers its waker");
                    std::thread::sleep(Duration::from_millis(10));
                    fired.store(true, Ordering::SeqCst);
                    waker.wake();
                })
            };
            let mut give = Some(give);
            ex.handle().spawn(std::future::poll_fn(move |cx| {
                if fired.load(Ordering::SeqCst) {
                    return std::task::Poll::Ready(());
                }
                if let Some(give) = give.take() {
                    give.send(cx.waker().clone())
                        .expect("waker thread is alive");
                }
                std::task::Poll::Pending
            }));
            ex.run_threaded(&net, &node);
            waker_thread.join().expect("waker thread panicked");
        });
    }

    /// A wait on a closed server end used to re-insert a completion
    /// buffer nobody would free and then sleep out its timeout.
    #[test]
    fn wait_on_a_closed_handle_returns_at_once_and_inserts_nothing() {
        let cfg = ExsConfig::default();
        let (pool, peer) = pool_of(&cfg, 2);
        let (mut closed, _c1) = pool.accept(&peer, &cfg);
        let (live, _c2) = pool.accept(&peer, &cfg);
        closed.close();

        let start = std::time::Instant::now();
        let long = Duration::from_secs(30);
        assert_eq!(closed.wait_recv(1, long), None);
        assert_eq!(closed.wait_send(1, long), None);
        assert!(start.elapsed() < Duration::from_secs(5));
        let boxes = pool.hosts[0].mailboxes.lock();
        let hosted: Vec<usize> = (boxes.iter().enumerate())
            .filter_map(|(slot, mailbox)| mailbox.as_ref().map(|_| slot))
            .collect();
        assert_eq!(hosted, [live.conn.unwrap().0 as usize]);
    }

    /// A closed handle forgets its slot. The next accept reuses it, and
    /// the closed handle reaches nothing there: its waits answer `None`
    /// at once instead of finding the newcomer's mailbox, and a receive
    /// on it posts nothing that could take the newcomer's bytes.
    #[test]
    fn a_closed_handle_does_not_reach_the_connection_that_reuses_its_slot() {
        within(Duration::from_secs(15), || {
            let cfg = ExsConfig::default();
            let (pool, peer) = pool_of(&cfg, 2);
            let (mut stale, _stale_client) = pool.accept(&peer, &cfg);
            let slot = stale.conn;
            stale.close();
            let (fresh, fresh_client) = pool.accept(&peer, &cfg);
            assert_eq!(fresh.conn, slot, "the slab reuses the freed slot");

            let start = std::time::Instant::now();
            assert_eq!(stale.wait_recv(1, Duration::from_secs(30)), None);
            let dst = stale.register(64, Access::local_remote_write());
            let id = stale.recv(&dst, 0, 64, false);
            assert_eq!(stale.wait_recv(id, Duration::from_secs(30)), None);
            assert!(start.elapsed() < Duration::from_secs(1));

            std::thread::scope(|s| {
                s.spawn(|| fresh_client.send_bytes(b"for the newcomer").unwrap());
                let mut buf = [0u8; 16];
                fresh.recv_exact(&mut buf).unwrap();
                assert_eq!(&buf, b"for the newcomer");
            });
        });
    }

    /// The server end of a pool connection is a whole stream: over two
    /// shards, server ends echo with `recv_exact`/`send_bytes`, shut
    /// down (the client reads end-of-stream), report their counters and
    /// close. Both sides pause before every message, so every hop — the
    /// service thread's progress step, then the node's notify — has to
    /// wake a parked caller of a serviced host.
    #[test]
    fn pool_server_ends_echo_shut_down_and_close_between_parked_callers() {
        const CONNS: usize = 4;
        const TRIPS: u32 = 50;
        let pause = Duration::from_millis(1);
        within(Duration::from_secs(15), move || {
            let cfg = ExsConfig {
                shard: crate::ShardConfig {
                    shards: 2,
                    policy: crate::ShardPolicy::RoundRobin,
                },
                ..ExsConfig::default()
            };
            let (pool, peer) = pool_of(&cfg, CONNS);
            let servers: Vec<ThreadStream> = std::thread::scope(|s| {
                let echoes: Vec<_> = (0..CONNS)
                    .map(|_| {
                        let (server, mut client) = pool.accept(&peer, &cfg);
                        s.spawn(move || {
                            let mut buf = [0u8; 4];
                            for trip in 0..TRIPS {
                                std::thread::sleep(pause);
                                client.send_bytes(&trip.to_le_bytes()).unwrap();
                                client.recv_exact(&mut buf).unwrap();
                                assert_eq!(u32::from_le_bytes(buf), trip);
                            }
                            let dst = client.register(1, Access::local_remote_write());
                            let id = client.recv(&dst, 0, 1, false);
                            assert_eq!(client.wait_recv(id, Duration::from_secs(10)), Some(0));
                            assert!(client.peer_closed());
                            client.close();
                        });
                        s.spawn(move || {
                            let mut buf = [0u8; 4];
                            for _ in 0..TRIPS {
                                server.recv_exact(&mut buf).unwrap();
                                std::thread::sleep(pause);
                                server.send_bytes(&buf).unwrap();
                            }
                            server.shutdown();
                            server
                        })
                    })
                    .collect();
                echoes.into_iter().map(|h| h.join().unwrap()).collect()
            });
            assert!(pool.shard_stats().iter().all(|row| row.conns == 2));
            for mut server in servers {
                let stats = server.stats();
                assert_eq!(stats.bytes_sent, 4 * u64::from(TRIPS));
                assert_eq!(stats.bytes_received, 4 * u64::from(TRIPS));
                assert!(!server.is_broken());
                server.close();
                assert_eq!(
                    server.stats().bytes_sent,
                    0,
                    "a closed handle reports nothing"
                );
            }
            assert_eq!(pool.reactor_stats().conns_removed, CONNS as u64);
        });
    }
}
