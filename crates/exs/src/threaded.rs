//! Blocking, thread-safe stream sockets over the real-thread fabric.
//!
//! The paper's stated problem is "to design a **thread-safe** algorithm
//! that combines the zero-copy benefit of RDMA with the fast send
//! response benefit of TCP-style buffering" (§I). The deterministic
//! simulator regenerates the figures; this module runs the *same*
//! protocol state machines under genuine OS concurrency.
//!
//! There is one blocking connection, [`ThreadStream`], and one thing
//! behind each handle: a [`Host`] — one [`Endpoint`] over its own CQ
//! pair, behind a lock, and the mailbox its callers take their
//! completions from. Nothing runs for a host: **the blocked caller is
//! the progress engine**. A thread waiting in `wait_send`/`wait_recv`
//! (hence `send_bytes`/`recv_exact`) takes the endpoint's progress step
//! itself ([`Endpoint::handle_wake`]) and then waits on the node; a step
//! that completes another caller's operation wakes it. How it publishes,
//! waits and wakes is `rdma_verbs::threaded`'s; this module plugs in.
//!
//! The contract that follows: **an endpoint progresses inside its
//! calls**. Nothing else works for it after a call returns, so the calls
//! that end the caller's interest in it — [`ThreadStream::flush`] and
//! [`ThreadStream::close`] — drive it until it owes the wire nothing
//! (`StreamSocket::has_unsent`). Many
//! connections are served on threads by [`crate::aio`] executors, one
//! per shard thread ([`crate::Executor::run_threaded`]).
//!
//! Concurrent `send` calls are each atomic in the byte stream (the
//! host's lock orders them); the interleaving *between* threads is
//! unspecified, exactly like concurrent `write(2)` on a pipe.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use rdma_verbs::threaded::{deadline_after, Engine, Host, Mailbox, ThreadNet, ThreadNode};
use rdma_verbs::{Access, CqId, Cqe, MrInfo, MrKey, QpNum, RecvWr, Result, SendWr};
use simnet::IntMap;

use crate::config::ExsConfig;
use crate::endpoint::Endpoint;
use crate::mempool::{MemPool, MrLease};
use crate::mux::{MuxEndpoint, MuxEvent};
use crate::port::VerbsPort;
use crate::stats::ConnStats;
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
/// given for it — a reactor's pair, as every executor serving or
/// driving several connections has — or onto a private pair for `None`,
/// as each end of a [`ThreadStream`] has.
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
/// exchange runs through `MuxEndpoint::prepare_transport` /
/// `MuxEndpoint::connect_transport`.
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

/// The completions of one host's callers, waiting for them to take them
/// by operation id. End of stream and transport failure are not kept
/// here: they are states of the endpoint ([`Readiness`]).
#[derive(Default)]
struct Completions {
    sends_done: IntMap<u64, u64>,
    recvs_done: IntMap<u64, u32>,
}

/// The longest `shutdown`, `flush` and `close` stay for traffic a peer
/// that grants no credits keeps from the wire.
const DRAIN_BOUND: Duration = Duration::from_secs(5);

/// What a host's lock guards: its endpoint, and the buffer publishing
/// reuses so that a progress step allocates nothing.
struct Guarded {
    ep: Endpoint,
    events: Vec<MuxEvent>,
}

impl Engine for Guarded {
    type Done = Completions;

    fn publish(&mut self, done: &Mailbox<Completions>) {
        if self.ep.events_pending() == 0 {
            return;
        }
        self.ep.take_events_into(&mut self.events);
        done.publish(|done| {
            for ev in self.events.drain(..) {
                match ev {
                    MuxEvent::SendComplete { id, len, .. } => {
                        done.sends_done.insert(id, len);
                    }
                    MuxEvent::RecvComplete { id, len, .. } => {
                        done.recvs_done.insert(id, len);
                    }
                    MuxEvent::StreamClosed { .. } | MuxEvent::TransportError { .. } => {}
                }
            }
        });
    }
}

/// A blocking, thread-safe stream endpoint: either end of a
/// [`ThreadStream::pair`].
///
/// Sharing the handle (via `Arc`) lets many threads use one connection;
/// each operation blocks its calling thread until the protocol reports
/// completion, and the endpoint progresses inside these calls (see the
/// module docs).
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
    host: Host<Guarded>,
    net: Arc<ThreadNet>,
    /// Set by [`ThreadStream::close`]: every later call answers
    /// "closed".
    closed: bool,
    /// Staging-buffer pool of this end's node.
    pool: MemPool,
    next_id: AtomicU64,
}

impl ThreadStream {
    /// Creates a connected pair of blocking stream endpoints over a
    /// fresh two-node thread fabric with the given real link delay,
    /// each the one endpoint of a host of its own. With no delay this
    /// starts no thread at all.
    pub fn pair(cfg: &ExsConfig, delay: Duration) -> (ThreadStream, ThreadStream) {
        let mut net = ThreadNet::new();
        let a = net.add_node(rdma_verbs::HcaConfig::default());
        let b = net.add_node(rdma_verbs::HcaConfig::default());
        net.connect_nodes(&a, &b, delay);
        let net = Arc::new(net);
        let (sock_a, sock_b) = connect_sockets_shared(&a, &b, cfg, None, None);
        let hosted = |node: Arc<ThreadNode>, sock: StreamSocket| ThreadStream {
            host: Host::new(
                node,
                Guarded {
                    ep: sock.into(),
                    events: Vec::new(),
                },
                Completions::default(),
            ),
            net: net.clone(),
            closed: false,
            pool: MemPool::new(cfg.pool.clone()),
            next_id: AtomicU64::new(1),
        };
        (hosted(a, sock_a), hosted(b, sock_b))
    }

    /// The endpoint's node (for memory registration and inspection).
    pub fn node(&self) -> &Arc<ThreadNode> {
        &self.host.node
    }

    fn port(&self) -> ThreadPort<'_> {
        ThreadPort::new(&self.net, &self.host.node)
    }

    /// Registers I/O memory on this endpoint's node. The caller owns
    /// the registration; prefer [`ThreadStream::acquire`] for
    /// pool-cached buffers that release themselves.
    pub fn register(&self, len: usize, access: Access) -> MrInfo {
        self.node().with_hca(|h| h.register_mr(len, access))
    }

    /// Leases a registered buffer from this node's pin-down cache.
    pub fn acquire(&self, len: usize, access: Access) -> MrLease {
        self.pool.acquire(&mut self.port(), len, access)
    }

    /// This node's staging-pool handle.
    pub fn pool(&self) -> &MemPool {
        &self.pool
    }

    /// Runs `op` on this handle's endpoint under the host's lock, which
    /// publishes what it completed; `None` once closed.
    fn with_endpoint<R>(
        &self,
        op: impl FnOnce(&mut Endpoint, &mut ThreadPort<'_>) -> R,
    ) -> Option<R> {
        (!self.closed).then(|| self.host.with_engine(|g| op(&mut g.ep, &mut self.port())))
    }

    /// The one progress step: the endpoint drains both CQs and advances
    /// the protocol ([`Endpoint::handle_wake`]), so it leaves nothing
    /// behind to step for.
    fn step(&self) {
        self.with_endpoint(|ep, port| ep.handle_wake(port));
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

    /// Waits, taking progress steps, for the completion `take` finds in
    /// the mailbox; `None` at `timeout`, or at once on a closed handle.
    fn wait<T>(
        &self,
        timeout: Duration,
        take: impl Fn(&mut Completions) -> Option<T>,
    ) -> Option<T> {
        if self.closed {
            return None;
        }
        let (node, mailbox) = (&self.host.node, &self.host.mailbox);
        let take = || take(&mut mailbox.lock());
        mailbox.wait(node, deadline_after(timeout), || self.step(), take)
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
            .write(&mut self.port(), 0, data)
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
            .read(&self.port(), 0, buf)
            .map_err(|_| "staging read failed")
    }

    /// Stays until this handle owes the wire nothing, for at most
    /// [`DRAIN_BOUND`] — a peer that never grants the credits cannot
    /// hold the caller for ever.
    fn drain(&self) {
        if !self.closed {
            let (host, deadline) = (&self.host, deadline_after(DRAIN_BOUND));
            let drained = || (!host.engine().ep.has_unsent()).then_some(());
            host.mailbox
                .wait(&host.node, deadline, || self.step(), drained);
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

    /// Protocol statistics snapshot, CQ-pressure gauges included; all
    /// zero on a closed handle.
    pub fn stats(&self) -> ConnStats {
        self.with_endpoint(|ep, port| {
            ep.sync_cq_stats(port);
            ep.stats().clone()
        })
        .unwrap_or_default()
    }

    /// Closes the endpoint: sends what it still owes, releases every
    /// registration the socket owns, and trims this handle's share of
    /// the staging pool. Idle registrations held for other endpoints on
    /// the same node stay cached; live leases elsewhere are untouched.
    /// Every later call on the handle answers "closed".
    pub fn close(&mut self) {
        if self.closed {
            return;
        }
        self.drain();
        self.closed = true;
        // Late control traffic from the peer (final ACKs, credit
        // returns) may still be in flight on a delayed link; let it
        // land while our control slots are still registered.
        self.net.quiesce();
        let mut port = self.port();
        self.host.engine().ep.close(&mut port);
        self.pool.trim(&mut port);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reactor::Readiness;
    use std::sync::atomic::AtomicBool;
    use std::time::Instant;

    impl ThreadStream {
        /// Half-closes the sending direction. Queued data drains and the
        /// FIN follows it before this returns (or after five seconds of a
        /// peer granting nothing).
        pub(crate) fn shutdown(&self) {
            self.with_endpoint(|ep, port| ep.shutdown(port, 0));
            self.drain();
        }

        /// One progress step, then the endpoint's level-triggered state. A
        /// closed handle reads as ended.
        fn state(&self) -> Readiness {
            let step = |ep: &mut Endpoint, port: &mut ThreadPort<'_>| {
                ep.handle_wake(port);
                ep.readiness()
            };
            self.with_endpoint(step).unwrap_or(Readiness {
                closed: true,
                ..Readiness::NONE
            })
        }

        /// True once the peer has closed and its stream fully drained, and
        /// on a closed handle.
        pub(crate) fn peer_closed(&self) -> bool {
            self.state().closed
        }
    }

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
        stream.host.engine().ep.has_unsent()
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

    /// An executor over an empty reactor on a node of its own.
    fn lone_executor() -> (ThreadNet, Arc<ThreadNode>, crate::Executor) {
        use crate::reactor::{Reactor, ReactorConfig};
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

    /// A wait on a closed handle used to re-insert a completion buffer
    /// nobody would free and then sleep out its timeout. A closed handle
    /// answers "closed" to every call: its counters read zero, a receive
    /// posts nothing, and its waits return at once.
    #[test]
    fn wait_on_a_closed_handle_returns_at_once_and_inserts_nothing() {
        let (mut closed, peer) = ThreadStream::pair(&ExsConfig::default(), Duration::ZERO);
        std::thread::scope(|s| {
            s.spawn(|| closed.send_bytes(b"before the close").unwrap());
            let mut buf = [0u8; 16];
            peer.recv_exact(&mut buf).unwrap();
        });
        assert_eq!(closed.stats().bytes_sent, 16);
        closed.close();
        assert_eq!(
            closed.stats().bytes_sent,
            0,
            "a closed handle reports nothing"
        );

        let start = Instant::now();
        let long = Duration::from_secs(30);
        let dst = closed.register(64, Access::local_remote_write());
        let id = closed.recv(&dst, 0, 64, false);
        assert_eq!(closed.wait_recv(id, long), None);
        assert_eq!(closed.wait_send(1, long), None);
        assert!(start.elapsed() < Duration::from_secs(5));
        let mailbox = closed.host.mailbox.lock();
        assert!(mailbox.sends_done.is_empty() && mailbox.recvs_done.is_empty());
    }
}
