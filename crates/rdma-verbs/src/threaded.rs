//! Real-thread driver.
//!
//! [`ThreadNet`] runs the same [`HcaCore`] state machines as the
//! discrete-event driver, but under genuine OS concurrency: application
//! threads post work from wherever they like, per-link delivery threads
//! carry wire messages (preserving the FIFO guarantee of a
//! reliable-connected channel, with an optional real propagation
//! delay), and receivers block on a condition variable until
//! completions arrive.
//!
//! The paper's problem statement asks for "a thread-safe algorithm"
//! (§I); the deterministic simulator cannot exercise data races, so
//! this backend exists to do exactly that — the concurrency tests hammer
//! one node from many threads while deliveries land from link threads.
//! Timing measurements still belong to the deterministic driver: real
//! threads give real (noisy) time.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crossbeam::channel::{unbounded, Sender};
use parking_lot::{Condvar, Mutex};

use crate::hca::{Effect, HcaConfig, HcaCore, PreparedSend};
use crate::types::{CqId, Cqe, NodeId, QpNum, RecvWr, Result, SendWr};
use crate::wire::{Payload, WireMessage};

/// One node: the HCA core behind a lock, plus completion signalling.
pub struct ThreadNode {
    id: NodeId,
    hca: Mutex<HcaCore>,
    /// Bumped whenever a completion lands; sleepers re-check their CQs.
    generation: AtomicU64,
    wakeup: Mutex<()>,
    condvar: Condvar,
}

impl ThreadNode {
    /// Wakes every thread parked in [`ThreadNode::wait_any`] without a
    /// completion having landed. Used to nudge service threads when
    /// out-of-band state changes (e.g. a reactor pool telling its
    /// parked shards to stop); spurious wakeups are harmless since
    /// sleepers re-check their state.
    pub fn notify(&self) {
        self.generation.fetch_add(1, Ordering::Release);
        let _guard = self.wakeup.lock();
        self.condvar.notify_all();
    }

    /// The node id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Runs a closure against the locked HCA (setup, registration,
    /// memory access).
    pub fn with_hca<R>(&self, f: impl FnOnce(&mut HcaCore) -> R) -> R {
        f(&mut self.hca.lock())
    }

    /// Posts a receive work request (thread-safe).
    pub fn post_recv(&self, qpn: QpNum, wr: RecvWr) -> Result<()> {
        self.hca.lock().post_recv(qpn, wr)
    }

    /// Polls up to `max` completions (thread-safe).
    pub fn poll_cq(&self, cq: CqId, max: usize, out: &mut Vec<Cqe>) -> Result<usize> {
        self.hca.lock().poll_cq(cq, max, out)
    }

    /// Blocks until any completion lands anywhere on this node (the
    /// generation counter advances past `seen`) or the timeout elapses.
    /// Returns the new generation value. Callers poll their CQs after
    /// each wakeup — the multi-CQ analogue of a completion channel.
    pub fn wait_any(&self, seen: u64, timeout: Duration) -> u64 {
        let deadline = std::time::Instant::now() + timeout;
        loop {
            let gen = self.generation.load(Ordering::Acquire);
            if gen != seen {
                return gen;
            }
            let now = std::time::Instant::now();
            if now >= deadline {
                return gen;
            }
            let mut guard = self.wakeup.lock();
            if self.generation.load(Ordering::Acquire) != seen {
                continue;
            }
            self.condvar
                .wait_for(&mut guard, deadline.saturating_duration_since(now));
        }
    }

    /// Current completion generation (pair with [`ThreadNode::wait_any`]).
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// Blocks until `cq` has at least one completion or the timeout
    /// elapses; returns the completions polled (possibly empty on
    /// timeout). This is the completion-channel wait (`ibv_get_cq_event`
    /// style) of the threaded backend.
    pub fn wait_cq(&self, cq: CqId, timeout: Duration) -> Vec<Cqe> {
        let deadline = std::time::Instant::now() + timeout;
        let mut out = Vec::new();
        loop {
            let gen = self.generation.load(Ordering::Acquire);
            self.hca
                .lock()
                .poll_cq(cq, usize::MAX, &mut out)
                .expect("wait on unknown CQ");
            if !out.is_empty() {
                return out;
            }
            let now = std::time::Instant::now();
            if now >= deadline {
                return out;
            }
            let mut guard = self.wakeup.lock();
            // Re-check under the lock to avoid a lost wakeup between the
            // poll above and the wait below.
            if self.generation.load(Ordering::Acquire) != gen {
                continue;
            }
            self.condvar
                .wait_for(&mut guard, deadline.saturating_duration_since(now));
        }
    }
}

/// A fabric of [`ThreadNode`]s joined by delivery threads.
pub struct ThreadNet {
    nodes: Vec<Arc<ThreadNode>>,
    links: HashMap<(u32, u32), Sender<WireMessage>>,
    stop: Arc<AtomicBool>,
    handles: Vec<std::thread::JoinHandle<()>>,
    /// Messages handed to delivery threads but not yet applied at their
    /// destination; [`ThreadNet::quiesce`] waits for this to reach zero.
    in_flight: Arc<AtomicUsize>,
    /// Every [`Effect::Fatal`] a delivery raised, as text.
    fatal: Arc<Mutex<Vec<String>>>,
}

/// Counts one message out of [`ThreadNet::in_flight`] when its delivery
/// ends, however it ends: a delivery that unwinds must not leave
/// [`ThreadNet::quiesce`] spinning on a message nobody will apply.
struct Delivery<'a>(&'a AtomicUsize);

impl Drop for Delivery<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::AcqRel);
    }
}

impl ThreadNet {
    /// An empty fabric.
    pub fn new() -> Self {
        ThreadNet {
            nodes: Vec::new(),
            links: HashMap::new(),
            stop: Arc::new(AtomicBool::new(false)),
            handles: Vec::new(),
            in_flight: Arc::new(AtomicUsize::new(0)),
            fatal: Arc::new(Mutex::new(Vec::new())),
        }
    }

    /// Adds a node.
    pub fn add_node(&mut self, cfg: HcaConfig) -> Arc<ThreadNode> {
        let id = NodeId(self.nodes.len() as u32);
        let node = Arc::new(ThreadNode {
            id,
            hca: Mutex::new(HcaCore::new(id, cfg)),
            generation: AtomicU64::new(0),
            wakeup: Mutex::new(()),
            condvar: Condvar::new(),
        });
        self.nodes.push(node.clone());
        node
    }

    /// Connects two nodes with symmetric FIFO links; each direction gets
    /// a delivery thread applying `delay` of real propagation latency.
    pub fn connect_nodes(&mut self, a: &Arc<ThreadNode>, b: &Arc<ThreadNode>, delay: Duration) {
        for (src, dst) in [(a, b), (b, a)] {
            let (tx, rx) = unbounded::<WireMessage>();
            self.links.insert((src.id.0, dst.id.0), tx);
            let dst = dst.clone();
            let src_arc = src.clone();
            let stop = self.stop.clone();
            let in_flight = self.in_flight.clone();
            let fatal = self.fatal.clone();
            // The back-link may not exist yet; responder transmissions
            // (RDMA READ responses) are delivered by locking the peer
            // directly, preserving FIFO because this thread is the only
            // producer for that direction's responses.
            let handle = std::thread::spawn(move || {
                let mut effects = Vec::new();
                while let Ok(msg) = rx.recv() {
                    let _delivery = Delivery(&in_flight);
                    if stop.load(Ordering::Acquire) {
                        break;
                    }
                    if !delay.is_zero() {
                        std::thread::sleep(delay);
                    }
                    deliver(&dst, &msg, &mut effects);
                    apply_effects(&dst, &src_arc, &mut effects, &fatal);
                }
            });
            self.handles.push(handle);
        }
    }

    /// Posts a send on behalf of `node` (thread-safe): validates,
    /// captures the payload, hands the message to the link thread, and
    /// delivers the send completion. This backend completes a send
    /// before its message is delivered, so unlike `SimNet` it cannot
    /// leave the payload in the source buffer: it copies it out once,
    /// here, and the delivery thread copies it into place.
    pub fn post_send(&self, node: &Arc<ThreadNode>, qpn: QpNum, wr: SendWr) -> Result<()> {
        let prepared = prepare_captured(&mut node.hca.lock(), qpn, wr)?;
        let dst = prepared.msg.dst_node();
        let tx = self
            .links
            .get(&(node.id.0, dst.0))
            .unwrap_or_else(|| panic!("no link from {:?} to {dst:?}", node.id));
        let is_read = prepared.is_read;
        let completion = prepared.completion;
        self.in_flight.fetch_add(1, Ordering::AcqRel);
        tx.send(prepared.msg).expect("link thread alive");
        if !is_read {
            let mut effects = Vec::new();
            node.hca.lock().tx_finished(qpn, completion, &mut effects);
            if !effects.is_empty() {
                node.notify();
            }
        }
        Ok(())
    }

    /// Posts a chain of work requests on behalf of `node` as one
    /// postlist: all WQEs are validated and their payloads captured
    /// under a single HCA lock acquisition (the analogue of one
    /// doorbell write for a linked WQE chain), the wire messages are
    /// handed to the link thread in order, and all non-READ send
    /// completions are applied under one further lock acquisition with
    /// at most one wakeup notification.
    ///
    /// Mirrors the `ibv_post_send` bad_wr contract: on the first
    /// invalid WR the error is returned and the remaining WRs are not
    /// posted, but the WRs before it are already on the wire.
    pub fn post_send_list(
        &self,
        node: &Arc<ThreadNode>,
        qpn: QpNum,
        wrs: Vec<SendWr>,
    ) -> Result<()> {
        if wrs.is_empty() {
            return Ok(());
        }
        let mut prepared: Vec<PreparedSend> = Vec::with_capacity(wrs.len());
        let res = {
            let mut hca = node.hca.lock();
            let mut err = Ok(());
            for wr in wrs {
                match prepare_captured(&mut hca, qpn, wr) {
                    Ok(p) => prepared.push(p),
                    Err(e) => {
                        err = Err(e);
                        break;
                    }
                }
            }
            err
        };
        let mut finishes: Vec<Option<Cqe>> = Vec::with_capacity(prepared.len());
        for p in prepared {
            let dst = p.msg.dst_node();
            let tx = self
                .links
                .get(&(node.id.0, dst.0))
                .unwrap_or_else(|| panic!("no link from {:?} to {dst:?}", node.id));
            let is_read = p.is_read;
            let completion = p.completion;
            self.in_flight.fetch_add(1, Ordering::AcqRel);
            tx.send(p.msg).expect("link thread alive");
            if !is_read {
                finishes.push(completion);
            }
        }
        if !finishes.is_empty() {
            let mut effects = Vec::new();
            {
                let mut hca = node.hca.lock();
                for completion in finishes {
                    hca.tx_finished(qpn, completion, &mut effects);
                }
            }
            if !effects.is_empty() {
                node.notify();
            }
        }
        res
    }

    /// Blocks until every message handed to a delivery thread has been
    /// applied at its destination. Only meaningful once the caller has
    /// stopped the threads that post new sends — with active posters
    /// the zero reading is just a momentary snapshot. Teardown paths
    /// use this to drain in-flight control traffic (late ACKs, credit
    /// returns) before deregistering the memory it lands in.
    pub fn quiesce(&self) {
        while self.in_flight.load(Ordering::Acquire) != 0 {
            std::thread::sleep(Duration::from_micros(50));
        }
    }

    /// Every fatal verbs error a delivery has raised so far (RNR, remote
    /// access error, placement into a deregistered buffer), as text — the
    /// counterpart of `SimNet::fatal_errors`. The delivery thread does
    /// not panic on one: like a real HCA it moves the violated QP to the
    /// error state, which flushes its posted receives with
    /// `WrFlushError` completions, and carries on with the link's other
    /// traffic.
    pub fn fatal_errors(&self) -> Vec<String> {
        self.fatal.lock().clone()
    }

    /// Stops the delivery threads and joins them.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Release);
        // Dropping the senders closes the channels.
        self.links.clear();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

impl Default for ThreadNet {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for ThreadNet {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The one place this backend reads a send's source buffer: at post
/// time, under the lock that validated it.
fn prepare_captured(hca: &mut HcaCore, qpn: QpNum, wr: SendWr) -> Result<PreparedSend> {
    let mut prepared = hca.prepare_send(qpn, wr)?;
    let bytes = hca
        .capture_payload(&prepared.msg.payload)
        .expect("prepare_send validated the range under this lock");
    prepared.msg.payload = Payload::Owned(bytes);
    Ok(prepared)
}

/// Applies an arrived message at `node`, appending what that produced
/// to `effects`.
fn deliver(node: &ThreadNode, msg: &WireMessage, effects: &mut Vec<Effect>) {
    let Payload::Owned(data) = &msg.payload else {
        unreachable!("every payload is captured at post time")
    };
    node.hca.lock().handle_wire(msg, data, effects);
}

/// Applies, and drains, what a delivery at `at` produced; `peer` is the
/// other end of the link, where a READ response goes.
fn apply_effects(
    at: &Arc<ThreadNode>,
    peer: &Arc<ThreadNode>,
    effects: &mut Vec<Effect>,
    fatal: &Mutex<Vec<String>>,
) {
    let mut completed = false;
    for effect in effects.drain(..) {
        match effect {
            Effect::Completion { .. } => completed = true,
            Effect::Transmit(msg) => {
                // RDMA READ response: deliver synchronously to the
                // requester (this delivery thread is the only producer
                // for response traffic in this direction, so FIFO
                // holds). Responses do not chain, so this nests once.
                let mut effects = Vec::new();
                deliver(peer, &msg, &mut effects);
                apply_effects(peer, at, &mut effects, fatal);
            }
            Effect::Fatal {
                qpn,
                status,
                detail,
            } => {
                fatal
                    .lock()
                    .push(format!("node {:?} qp {qpn:?}: {status:?}: {detail}", at.id));
                let mut flushed = Vec::new();
                if at.hca.lock().fail_qp(qpn, &mut flushed).is_ok() {
                    completed |= !flushed.is_empty();
                }
            }
        }
    }
    if completed {
        at.notify();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qp::QpCaps;
    use crate::types::{Access, WcOpcode};

    fn pair(delay: Duration) -> (ThreadNet, Arc<ThreadNode>, Arc<ThreadNode>) {
        let mut net = ThreadNet::new();
        let a = net.add_node(HcaConfig::default());
        let b = net.add_node(HcaConfig::default());
        net.connect_nodes(&a, &b, delay);
        (net, a, b)
    }

    fn connect(a: &Arc<ThreadNode>, b: &Arc<ThreadNode>) -> (QpNum, QpNum, CqId, CqId) {
        let (a_qp, a_scq) = a.with_hca(|h| {
            let scq = h.create_cq(1 << 14);
            let rcq = h.create_cq(1 << 14);
            let qp = h
                .create_qp(
                    scq,
                    rcq,
                    QpCaps {
                        max_send_wr: 1 << 13,
                        ..QpCaps::default()
                    },
                )
                .unwrap();
            (qp, scq)
        });
        let (b_qp, b_rcq) = b.with_hca(|h| {
            let scq = h.create_cq(1 << 14);
            let rcq = h.create_cq(1 << 14);
            let qp = h
                .create_qp(
                    scq,
                    rcq,
                    QpCaps {
                        max_recv_wr: 1 << 13,
                        ..QpCaps::default()
                    },
                )
                .unwrap();
            (qp, rcq)
        });
        a.with_hca(|h| h.connect_qp(a_qp, (b.id(), b_qp)).unwrap());
        b.with_hca(|h| h.connect_qp(b_qp, (a.id(), a_qp)).unwrap());
        (a_qp, b_qp, a_scq, b_rcq)
    }

    #[test]
    fn threaded_send_recv_roundtrip() {
        let (_net, a, b) = pair(Duration::ZERO);
        let (a_qp, b_qp, _a_scq, b_rcq) = connect(&a, &b);
        let net = _net;

        let src = a.with_hca(|h| h.register_mr(64, Access::NONE));
        let dst = b.with_hca(|h| h.register_mr(64, Access::LOCAL_WRITE));
        a.with_hca(|h| {
            h.mem_mut()
                .app_write(src.key, src.addr, b"threaded!")
                .unwrap()
        });
        b.post_recv(b_qp, RecvWr::new(7, dst.full_sge())).unwrap();

        net.post_send(&a, a_qp, SendWr::send(1, src.sge(0, 9)))
            .unwrap();

        let cqes = b.wait_cq(b_rcq, Duration::from_secs(5));
        assert_eq!(cqes.len(), 1);
        assert_eq!(cqes[0].wr_id, 7);
        assert_eq!(cqes[0].byte_len, 9);
        let mut buf = [0u8; 9];
        b.with_hca(|h| h.mem().app_read(dst.key, dst.addr, &mut buf).unwrap());
        assert_eq!(&buf, b"threaded!");
    }

    #[test]
    fn concurrent_senders_all_deliver_in_order_per_qp() {
        // Four threads hammer one QP with WWI notifications while the
        // receiver consumes them: exercises the HCA lock and the FIFO
        // delivery under real concurrency.
        const PER_THREAD: usize = 500;
        const THREADS: usize = 4;

        let (net, a, b) = pair(Duration::ZERO);
        let (a_qp, b_qp, _a_scq, b_rcq) = connect(&a, &b);
        let ring = b.with_hca(|h| h.register_mr(1 << 16, Access::local_remote_write()));
        for i in 0..(PER_THREAD * THREADS) as u64 {
            b.post_recv(b_qp, RecvWr::empty(i)).unwrap();
        }

        let net = Arc::new(net);
        let src = a.with_hca(|h| h.register_mr(64, Access::NONE));
        let counter = Arc::new(AtomicU64::new(0));
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                let net = net.clone();
                let a = a.clone();
                let counter = counter.clone();
                s.spawn(move || {
                    for _ in 0..PER_THREAD {
                        let n = counter.fetch_add(1, Ordering::Relaxed);
                        let wr = SendWr::write_imm(
                            n,
                            src.sge(0, 8),
                            crate::types::RemoteAddr {
                                addr: ring.addr + (n % 8192),
                                rkey: ring.key,
                            },
                            n as u32,
                        )
                        .unsignaled();
                        // Retry on a momentarily full send queue.
                        loop {
                            match net.post_send(&a, a_qp, wr.clone()) {
                                Ok(()) => break,
                                Err(crate::types::VerbsError::SqFull) => std::thread::yield_now(),
                                Err(e) => panic!("post failed: {e}"),
                            }
                        }
                    }
                });
            }
        });

        // Drain all notifications.
        let mut got = Vec::new();
        let deadline = std::time::Instant::now() + Duration::from_secs(20);
        while got.len() < PER_THREAD * THREADS {
            let cqes = b.wait_cq(b_rcq, Duration::from_millis(200));
            for c in &cqes {
                assert_eq!(c.opcode, WcOpcode::RecvRdmaWithImm);
            }
            got.extend(cqes.into_iter().map(|c| c.imm.unwrap()));
            assert!(
                std::time::Instant::now() < deadline,
                "drain timed out at {} of {}",
                got.len(),
                PER_THREAD * THREADS
            );
        }
        // Every message arrived exactly once.
        let mut sorted: Vec<u32> = got.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(
            sorted.len(),
            PER_THREAD * THREADS,
            "lost or duplicated messages"
        );
    }

    #[test]
    fn postlist_signaled_cqe_retires_prior_unsignaled_slots() {
        // Seven unsignaled WWIs followed by one signaled WWI, posted as
        // a single postlist: the lone signaled completion must retire
        // all eight SQ slots in one batch, and exactly one CQE may
        // surface.
        let (net, a, b) = pair(Duration::ZERO);
        let (a_qp, b_qp, a_scq, _b_rcq) = connect(&a, &b);
        let ring = b.with_hca(|h| h.register_mr(1 << 12, Access::local_remote_write()));
        for i in 0..8u64 {
            b.post_recv(b_qp, RecvWr::empty(i)).unwrap();
        }
        let src = a.with_hca(|h| h.register_mr(64, Access::NONE));
        let mut wrs = Vec::new();
        for n in 0..8u64 {
            let wr = SendWr::write_imm(
                n,
                src.sge(0, 8),
                crate::types::RemoteAddr {
                    addr: ring.addr + n * 8,
                    rkey: ring.key,
                },
                n as u32,
            );
            wrs.push(if n < 7 { wr.unsignaled() } else { wr });
        }
        net.post_send_list(&a, a_qp, wrs).unwrap();

        // In this backend send completions land at post time, so the
        // batch retirement is observable immediately.
        a.with_hca(|h| {
            let qp = h.qp(a_qp).unwrap();
            assert_eq!(qp.sq_outstanding(), 0, "signaled CQE must retire the run");
            assert_eq!(qp.sq_deferred(), 0);
        });
        let cqes = a.wait_cq(a_scq, Duration::from_secs(5));
        assert_eq!(cqes.len(), 1, "unsignaled WQEs must not surface CQEs");
        assert_eq!(cqes[0].wr_id, 7);
        net.quiesce();
    }

    #[test]
    fn threaded_rdma_read() {
        let (net, a, b) = pair(Duration::from_millis(1));
        let (a_qp, _b_qp, a_scq, _b_rcq) = connect(&a, &b);
        let local = a.with_hca(|h| h.register_mr(32, Access::LOCAL_WRITE));
        let remote = b.with_hca(|h| h.register_mr(32, Access::REMOTE_READ | Access::LOCAL_WRITE));
        b.with_hca(|h| {
            h.mem_mut()
                .app_write(remote.key, remote.addr, b"read-far")
                .unwrap()
        });
        net.post_send(
            &a,
            a_qp,
            SendWr::read(
                3,
                local.sge(0, 8),
                crate::types::RemoteAddr {
                    addr: remote.addr,
                    rkey: remote.key,
                },
            ),
        )
        .unwrap();
        let cqes = a.wait_cq(a_scq, Duration::from_secs(5));
        assert_eq!(cqes.len(), 1);
        assert_eq!(cqes[0].opcode, WcOpcode::RdmaRead);
        let mut buf = [0u8; 8];
        a.with_hca(|h| h.mem().app_read(local.key, local.addr, &mut buf).unwrap());
        assert_eq!(&buf, b"read-far");
    }

    /// A late SEND can land in a receive buffer its owner already
    /// deregistered (a peer's final ACK racing `close`). The delivery
    /// thread used to panic there without counting the message out, so
    /// `quiesce` spun forever.
    #[test]
    fn send_into_deregistered_recv_buffer_fails_the_qp_and_quiesces() {
        let (net, a, b) = pair(Duration::ZERO);
        let (a_qp, b_qp, _a_scq, b_rcq) = connect(&a, &b);
        let src = a.with_hca(|h| h.register_mr(64, Access::NONE));
        let dst = b.with_hca(|h| h.register_mr(64, Access::LOCAL_WRITE));
        b.post_recv(b_qp, RecvWr::new(7, dst.full_sge())).unwrap();
        b.post_recv(b_qp, RecvWr::new(8, dst.full_sge())).unwrap();
        b.with_hca(|h| h.deregister_mr(dst.key)).unwrap();

        net.post_send(&a, a_qp, SendWr::send(1, src.sge(0, 9)))
            .unwrap();
        net.quiesce();
        let errors = net.fatal_errors();
        assert_eq!(errors.len(), 1, "{errors:?}");
        assert!(errors[0].contains("RECV placement failed"), "{errors:?}");
        // The QP went to the error state: the receive still posted was
        // flushed, and the waiter was woken for it.
        let cqes = b.wait_cq(b_rcq, Duration::from_secs(5));
        assert_eq!(cqes.len(), 1);
        assert_eq!(cqes[0].wr_id, 8);
        assert_eq!(cqes[0].status, crate::types::WcStatus::WrFlushError);

        // The link thread survived: the next message is delivered (to a
        // dead QP), recorded, and counted out too.
        net.post_send(&a, a_qp, SendWr::send(2, src.sge(0, 9)))
            .unwrap();
        net.quiesce();
        assert_eq!(net.fatal_errors().len(), 2);
    }

    #[test]
    fn wait_cq_times_out_cleanly() {
        let (_net, a, _b) = pair(Duration::ZERO);
        let cq = a.with_hca(|h| h.create_cq(16));
        let start = std::time::Instant::now();
        let cqes = a.wait_cq(cq, Duration::from_millis(50));
        assert!(cqes.is_empty());
        assert!(start.elapsed() >= Duration::from_millis(45));
    }

    /// The protocol state machines themselves must be Send so they can
    /// live behind a lock shared between application threads — the
    /// thread-safety property the paper claims for the algorithm.
    #[test]
    fn protocol_state_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<HcaCore>();
        assert_send::<ThreadNode>();
        assert_send::<ThreadNet>();
    }
}
