//! Real-thread driver, and the wake protocol of every thread that waits
//! on it.
//!
//! [`ThreadNet`] runs the same [`HcaCore`] state machines as the
//! discrete-event driver, but under genuine OS concurrency: application
//! threads post work from wherever they like, each direction of a link
//! carries wire messages in FIFO order (the guarantee of a
//! reliable-connected channel), and a thread waiting for completions
//! spins briefly on its node's completion generation and then parks on
//! it — [`ThreadNode::wait_any`], the one wait of this backend.
//!
//! A link without modelled delay has no thread of its own: **the posting
//! thread delivers**. A post hands its message to the direction's FIFO
//! while it still holds the source HCA lock, so queue order is
//! send-queue order, and then applies whatever is queued at the
//! destination under the direction's delivery lock. Whoever holds that
//! lock applies every queued message in order, each followed by its send
//! completion at the source; a post returns only once the queue is
//! empty, so its own message has landed whoever delivered it. A link
//! with a real propagation delay has to sleep, so it keeps one delivery
//! thread per direction, which drains the same FIFO the same way, one
//! sleep per batch of queued messages.
//!
//! Locks: source HCA lock → FIFO lock (a leaf) while posting; the
//! delivery lock is taken with no HCA lock held, and under it the HCA
//! locks of the two ends are taken one at a time. No HCA lock is ever
//! held while waiting for another.
//!
//! Every wake-up handshake of the backend is in this file: the node's
//! ([`ThreadNode::notify`] / [`ThreadNode::wait_any`]) and a
//! [`Mailbox`]'s, whose [`Mailbox::wait`] is the one wait loop of every
//! blocked caller, drain and executor. Test builds run it under a
//! controlled scheduler (`crate::sync`, the `checked` tests).
//!
//! The paper's problem statement asks for "a thread-safe algorithm"
//! (§I); the deterministic simulator cannot exercise data races, so
//! this backend exists to do exactly that — the concurrency tests hammer
//! one node from many threads while deliveries land from other posters.
//! Timing measurements still belong to the deterministic driver: real
//! threads give real (noisy) time.

use std::collections::VecDeque;
use std::ops::DerefMut;
use std::sync::atomic::Ordering;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use crate::hca::{Effect, HcaConfig, HcaCore, PreparedSend};
use crate::mr::DmaSource;
use crate::sync::{spin_loop, AtomicBool, AtomicU64, AtomicUsize, Condvar, Instant, Mutex};
use crate::types::{CqId, Cqe, NodeId, QpNum, RecvWr, Result, SendWr, WcStatus};
use crate::wire::{Payload, WireMessage};

/// One node: the HCA core behind a lock, plus completion signalling.
pub struct ThreadNode {
    id: NodeId,
    hca: Mutex<HcaCore>,
    /// Bumped whenever a completion lands; sleepers re-check their CQs.
    generation: AtomicU64,
    /// Threads parked in [`ThreadNode::wait_any`], or about to be.
    sleepers: AtomicUsize,
    wakeup: Mutex<()>,
    condvar: Condvar,
}

/// How long a waiting thread spins on the node's completion generation
/// before it parks. A zero-delay round trip takes ~10 µs, a park and its
/// wake-up several times that, so a caller whose completion is already
/// on its way should not go to sleep for it.
const SPIN: Duration = Duration::from_micros(50);

/// Threads spinning right now, and how many may: one per core,
/// process-wide, as more would only take the cores from the threads
/// they wait for (a controlled run counts its own).
fn spinners() -> (&'static AtomicUsize, usize) {
    static SPINNERS: AtomicUsize = AtomicUsize::new(0);
    static CORES: OnceLock<usize> = OnceLock::new();
    let cores =
        || *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
    run_spinners().unwrap_or_else(|| (&SPINNERS, cores()))
}

impl ThreadNode {
    /// Moves the generation and wakes every thread waiting in
    /// [`ThreadNode::wait_any`]. A delivery calls it when completions
    /// land, and a [`Mailbox`] publish when a thread waits for it.
    ///
    /// With nobody parked this is one increment and one load: the
    /// mutex and the condition variable's `FUTEX_WAKE` are skipped. No
    /// wake-up is lost to that: this side stores the generation and
    /// then loads `sleepers`, a thread about to park stores `sleepers`
    /// and then loads the generation, all `SeqCst`, so at least one of
    /// the two sees the other's store.
    pub fn notify(&self) {
        self.generation.fetch_add(1, Ordering::SeqCst);
        if self.sleepers.load(Ordering::SeqCst) != 0 {
            let _guard = self.wakeup.lock();
            self.condvar.notify_all();
        }
    }

    /// The one wait of the thread backend: returns the generation once
    /// it has left `seen`, or once `deadline` passes (`None`: never).
    /// Spins for up to `SPIN` if a spin slot is free, then parks — the
    /// other half of the handshake in [`ThreadNode::notify`]. Read `seen`
    /// *before* looking for what you wait for: whatever lands after that
    /// moves the generation, and this returns at once.
    pub fn wait_any(&self, seen: u64, deadline: Option<Instant>) -> u64 {
        let (spinners, limit) = spinners();
        if spinners.fetch_add(1, Ordering::Relaxed) < limit {
            let spin_until = Instant::now() + SPIN;
            let spin_until = deadline.map_or(spin_until, |at| at.min(spin_until));
            while self.generation() == seen && Instant::now() < spin_until {
                spin_loop();
            }
        }
        spinners.fetch_sub(1, Ordering::Relaxed);
        if self.generation() == seen && !passed(deadline) {
            let mut guard = self.wakeup.lock();
            self.sleepers.fetch_add(1, Ordering::SeqCst);
            while self.generation() == seen && !passed(deadline) {
                match deadline {
                    Some(at) => {
                        let left = at.saturating_duration_since(Instant::now());
                        self.condvar.wait_for(&mut guard, left);
                    }
                    None => self.condvar.wait(&mut guard),
                }
            }
            self.sleepers.fetch_sub(1, Ordering::SeqCst);
        }
        self.generation()
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

    /// Current completion generation (pair with [`ThreadNode::wait_any`]).
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::SeqCst)
    }

    /// Blocks until `cq` has at least one completion or the timeout
    /// elapses; returns the completions polled (possibly empty on
    /// timeout). This is the completion-channel wait (`ibv_get_cq_event`
    /// style) of the threaded backend.
    pub fn wait_cq(&self, cq: CqId, timeout: Duration) -> Vec<Cqe> {
        let deadline = deadline_after(timeout);
        let mut out = Vec::new();
        loop {
            let seen = self.generation();
            self.poll_cq(cq, usize::MAX, &mut out)
                .expect("wait on unknown CQ");
            if !out.is_empty() || passed(deadline) {
                return out;
            }
            self.wait_any(seen, deadline);
        }
    }
}

/// The instant `timeout` from now, or `None` — no deadline — for a
/// timeout too long to add to one (`Duration::MAX` waits for ever).
pub fn deadline_after(timeout: Duration) -> Option<Instant> {
    Instant::now().checked_add(timeout)
}

/// True once `deadline` has passed; never for no deadline.
pub fn passed(deadline: Option<Instant>) -> bool {
    deadline.is_some_and(|at| Instant::now() >= at)
}

/// What threads waiting on a node take their work from (a host's
/// completions, an executor's ready tasks). A waiter counts itself in
/// `waiters` and then looks, a publisher fills and then reads the count
/// (as in [`ThreadNode::notify`]): one sees the other.
pub struct Mailbox<M> {
    contents: Mutex<M>,
    waiters: AtomicUsize,
    /// The node its waiters wait on (the first wait's).
    node: OnceLock<Arc<ThreadNode>>,
}

impl<M> Mailbox<M> {
    /// A mailbox holding `contents`.
    pub fn new(contents: M) -> Self {
        let (waiters, node) = (AtomicUsize::new(0), OnceLock::new());
        Mailbox {
            contents: Mutex::new(contents),
            waiters,
            node,
        }
    }

    /// Locks the contents, to take from them or look; wakes nobody.
    pub fn lock(&self) -> impl DerefMut<Target = M> + '_ {
        self.contents.lock()
    }

    /// Fills the mailbox, then wakes its node if a thread waits on it.
    #[inline]
    pub fn publish(&self, fill: impl FnOnce(&mut M)) {
        fill(&mut self.contents.lock());
        if self.waiters.load(Ordering::SeqCst) != 0 {
            self.node.get().expect("a waiter names its node").notify();
        }
    }

    /// Waits on `node` until `look` finds its answer or `deadline`
    /// passes (`None`: never). Each round reads the generation — before
    /// the `step`, so whatever lands after it ends the wait at once —
    /// takes the step, counts itself in, looks, and otherwise waits for
    /// the generation to move.
    #[inline]
    pub fn wait<T>(
        &self,
        node: &Arc<ThreadNode>,
        deadline: Option<Instant>,
        mut step: impl FnMut(),
        mut look: impl FnMut() -> Option<T>,
    ) -> Option<T> {
        let node = self.node.get_or_init(|| node.clone());
        loop {
            let seen = node.generation();
            step();
            self.waiters.fetch_add(1, Ordering::SeqCst);
            let found = look();
            let over = found.is_some() || passed(deadline);
            if !over {
                node.wait_any(seen, deadline);
            }
            self.waiters.fetch_sub(1, Ordering::SeqCst);
            if over {
                return found;
            }
        }
    }
}

/// What a [`Host`] guards, which completes its callers' operations.
pub trait Engine {
    /// Where completions wait for their callers.
    type Done;
    /// Publishes into `done` what the engine completed, if anything.
    fn publish(&mut self, done: &Mailbox<Self::Done>);
}

/// An engine on a node, stepped by its own blocked callers, and the
/// mailbox of their completions, published before the engine's lock is
/// released: the next caller to step finds what the last took.
pub struct Host<E: Engine> {
    /// The node the engine's completions land on.
    pub node: Arc<ThreadNode>,
    /// Its callers' completions; wait on it with [`Mailbox::wait`].
    pub mailbox: Mailbox<E::Done>,
    engine: Mutex<E>,
}

impl<E: Engine> Host<E> {
    /// Hosts `engine` on `node`, with a mailbox holding `done`.
    pub fn new(node: Arc<ThreadNode>, engine: E, done: E::Done) -> Self {
        let (engine, mailbox) = (Mutex::new(engine), Mailbox::new(done));
        Host {
            node,
            mailbox,
            engine,
        }
    }

    /// Locks the engine for a look, or a call that completes nothing.
    pub fn engine(&self) -> impl DerefMut<Target = E> + '_ {
        self.engine.lock()
    }

    /// Runs `op` on the engine, then publishes what it completed, both
    /// under the engine's lock.
    pub fn with_engine<R>(&self, op: impl FnOnce(&mut E) -> R) -> R {
        let mut engine = self.engine.lock();
        let result = op(&mut engine);
        engine.publish(&self.mailbox);
        result
    }
}

/// One direction of a connection between two nodes.
struct Link {
    src: Arc<ThreadNode>,
    dst: Arc<ThreadNode>,
    /// Real propagation delay. Zero: posters deliver. Otherwise this
    /// direction's delivery thread does: it sleeps this long, then
    /// delivers what was queued when it went to sleep, so every message
    /// spends at least this long between its post and its delivery.
    delay: Duration,
    /// Messages posted and not yet applied at `dst`, in the order of
    /// their send-queue slots (pushed under `src`'s HCA lock).
    queue: Mutex<VecDeque<PreparedSend>>,
    /// Signals the delivery thread of a delayed link that `queue` grew
    /// (or that the fabric is stopping).
    arrived: Condvar,
    /// The delivery lock: held while one queued message is taken and
    /// applied, so deliveries happen one at a time and in queue order.
    delivering: Mutex<Delivery>,
}

impl Link {
    /// Applies the oldest queued message at the destination and then,
    /// if it was signaled, its send completion at the source — this
    /// backend, like the simulator, never completes a send before its
    /// message is delivered, and completes sends in send-queue order.
    /// False, having held the delivery lock, when nothing was queued:
    /// everything posted before that moment has been applied in full.
    fn deliver_next(&self) -> bool {
        let mut delivery = self.delivering.lock();
        let Some(sent) = self.queue.lock().pop_front() else {
            return false;
        };
        let Delivery { effects, fatal } = &mut *delivery;
        deliver(&self.dst, &sent.msg, effects);
        apply_effects(&self.dst, effects, fatal);
        if let Some(done) = sent.completion {
            self.src.hca.lock().tx_finished(done, effects);
            if !effects.is_empty() {
                effects.clear();
                self.src.notify();
            }
        }
        true
    }
}

/// What the holder of a link's delivery lock works with.
#[derive(Default)]
struct Delivery {
    /// The scratch list a delivery collects its effects in.
    effects: Vec<Effect>,
    /// The fatal verbs errors deliveries over this link raised.
    fatal: FatalErrors,
}

/// Fatal verbs errors deliveries raised, by status. A delivery does not
/// panic on one: like a real HCA it moves the violated QP to the error
/// state, which flushes its posted receives with `WrFlushError`
/// completions, and carries on with the link's other traffic.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct FatalErrors {
    /// An RDMA WRITE's key, bounds or access flags were refused.
    remote_access_error: u64,
    /// A SEND or WRITE WITH IMM found no posted receive.
    rnr_retry_exceeded: u64,
    /// A SEND did not fit, or could not be placed in, its receive
    /// buffer (one deregistered before the message landed, say).
    local_protection_error: u64,
}

impl FatalErrors {
    fn count(&mut self, status: WcStatus) {
        match status {
            WcStatus::RemoteAccessError => self.remote_access_error += 1,
            WcStatus::RnrRetryExceeded => self.rnr_retry_exceeded += 1,
            WcStatus::LocalProtectionError => self.local_protection_error += 1,
            WcStatus::Success | WcStatus::WrFlushError => {
                unreachable!("a delivery raises no {status:?}")
            }
        }
    }
}

/// A fabric of [`ThreadNode`]s joined by FIFO links.
pub struct ThreadNet {
    nodes: Vec<Arc<ThreadNode>>,
    /// `links[src][dst]`: node ids are table indices, as everywhere in
    /// this crate.
    links: Vec<Vec<Option<Arc<Link>>>>,
    stop: Arc<AtomicBool>,
    /// Delivery threads: one per direction of a link with a delay.
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl ThreadNet {
    /// An empty fabric.
    pub fn new() -> Self {
        ThreadNet {
            nodes: Vec::new(),
            links: Vec::new(),
            stop: Arc::new(AtomicBool::new(false)),
            handles: Vec::new(),
        }
    }

    /// Adds a node.
    pub fn add_node(&mut self, cfg: HcaConfig) -> Arc<ThreadNode> {
        let id = NodeId(self.nodes.len() as u32);
        let node = Arc::new(ThreadNode {
            id,
            hca: Mutex::new(HcaCore::new(id, cfg)),
            generation: AtomicU64::new(0),
            sleepers: AtomicUsize::new(0),
            wakeup: Mutex::new(()),
            condvar: Condvar::new(),
        });
        self.nodes.push(node.clone());
        self.links.push(Vec::new());
        node
    }

    /// Connects two nodes with symmetric FIFO links applying `delay` of
    /// real propagation latency. With no delay nothing is spawned — a
    /// message is delivered by the thread that posts it; otherwise each
    /// direction gets a delivery thread. The delay is latency, not
    /// service time: messages queued together travel together, one
    /// sleep for all of them, and a message posted while they travel
    /// goes with the next batch.
    pub fn connect_nodes(&mut self, a: &Arc<ThreadNode>, b: &Arc<ThreadNode>, delay: Duration) {
        for (src, dst) in [(a, b), (b, a)] {
            let link = Arc::new(Link {
                src: src.clone(),
                dst: dst.clone(),
                delay,
                queue: Mutex::new(VecDeque::new()),
                arrived: Condvar::new(),
                delivering: Mutex::new(Delivery::default()),
            });
            let row = &mut self.links[src.id.index()];
            if row.len() <= dst.id.index() {
                row.resize(dst.id.index() + 1, None);
            }
            row[dst.id.index()] = Some(link.clone());
            if delay.is_zero() {
                continue;
            }
            let stop = self.stop.clone();
            self.handles.push(std::thread::spawn(move || loop {
                let in_flight = {
                    let mut queue = link.queue.lock();
                    while queue.is_empty() {
                        if stop.load(Ordering::Acquire) {
                            return;
                        }
                        link.arrived.wait(&mut queue);
                    }
                    queue.len()
                };
                // Everything queued by now travels together; what is
                // posted during the sleep travels in the next round.
                std::thread::sleep(link.delay);
                for _ in 0..in_flight {
                    if stop.load(Ordering::Acquire) {
                        return;
                    }
                    link.deliver_next();
                }
            }));
        }
    }

    fn link(&self, src: NodeId, dst: NodeId) -> &Link {
        self.links[src.index()]
            .get(dst.index())
            .and_then(Option::as_deref)
            .unwrap_or_else(|| panic!("no link from {src:?} to {dst:?}"))
    }

    /// Posts a send on behalf of `node` (thread-safe): validates,
    /// captures the payload, queues the message on its link, and — on a
    /// link without delay — returns once the message has been applied at
    /// the peer and its send completion delivered here. The payload is
    /// copied out once at post time, under the lock that validated it,
    /// and copied into place at delivery.
    pub fn post_send(&self, node: &Arc<ThreadNode>, qpn: QpNum, wr: SendWr) -> Result<()> {
        self.post(node, qpn, [wr])
    }

    /// Posts a chain of work requests on behalf of `node` as one
    /// postlist: all WQEs are validated, their payloads captured and
    /// their messages queued under a single HCA lock acquisition (the
    /// analogue of one doorbell write for a linked WQE chain).
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
        self.post(node, qpn, wrs)
    }

    fn post(
        &self,
        node: &Arc<ThreadNode>,
        qpn: QpNum,
        wrs: impl IntoIterator<Item = SendWr>,
    ) -> Result<()> {
        // A QP has one peer, so the whole list travels one link.
        let mut link = None;
        let res = {
            let mut hca = node.hca.lock();
            wrs.into_iter().try_for_each(|wr| {
                let prepared = prepare_captured(&mut hca, qpn, wr)?;
                link.get_or_insert_with(|| self.link(node.id, prepared.msg.dst_node()))
                    .queue
                    .lock()
                    .push_back(prepared);
                Ok(())
            })
        };
        if let Some(link) = link {
            if link.delay.is_zero() {
                while link.deliver_next() {}
            } else {
                link.arrived.notify_one();
            }
        }
        res
    }

    /// Blocks until every message queued on a link has been applied at
    /// its destination. Only meaningful once the caller has stopped the
    /// threads that post new sends — with active posters the quiet
    /// reading is just a momentary snapshot. On links without delay a
    /// post returns with its messages applied, so there is nothing to
    /// wait for; teardown paths use this to drain control traffic still
    /// sleeping on a delayed link (late ACKs, credit returns) before
    /// deregistering the memory it lands in.
    pub fn quiesce(&self) {
        for link in self.links.iter().flatten().flatten() {
            // Empty under the delivery lock: nothing queued, and nothing
            // taken off the queue is still being applied.
            while {
                let _delivering = link.delivering.lock();
                !link.queue.lock().is_empty()
            } {
                std::thread::sleep(Duration::from_micros(50));
            }
        }
    }

    /// Stops the delivery threads of delayed links and joins them;
    /// messages still queued there are dropped.
    pub(crate) fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Release);
        for link in self.links.iter().flatten().flatten() {
            // Under the queue lock, so the wake-up cannot fall between a
            // delivery thread's look at `stop` and its wait.
            let _queue = link.queue.lock();
            link.arrived.notify_all();
        }
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
    node.hca
        .lock()
        .handle_wire(msg, DmaSource::Slice(data), effects);
}

/// Applies, and drains, what a delivery at `at` produced, counting
/// each fatal error into `fatal`.
fn apply_effects(at: &ThreadNode, effects: &mut Vec<Effect>, fatal: &mut FatalErrors) {
    let mut completed = false;
    for effect in effects.drain(..) {
        match effect {
            Effect::Completion => completed = true,
            Effect::Fatal { qpn, status, .. } => {
                fatal.count(status);
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

/// A shipping build has no controlled run.
#[cfg(not(test))]
fn run_spinners() -> Option<(&'static AtomicUsize, usize)> {
    None
}

#[cfg(test)]
use crate::sync::run_spinners;

#[cfg(test)]
mod checked;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qp::QpCaps;
    use crate::types::{Access, WcOpcode};

    impl ThreadNet {
        /// The fatal verbs errors deliveries have raised so far, over
        /// every link.
        fn fatal_errors(&self) -> FatalErrors {
            let mut all = FatalErrors::default();
            for link in self.links.iter().flatten().flatten() {
                let one = link.delivering.lock().fatal;
                all.remote_access_error += one.remote_access_error;
                all.rnr_retry_exceeded += one.rnr_retry_exceeded;
                all.local_protection_error += one.local_protection_error;
            }
            all
        }
    }

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
        // Four threads hammer one QP with signaled WWI notifications:
        // whichever of them ends up delivering, the messages arrive, and
        // the sends complete, in the order of their send-queue slots.
        const PER_THREAD: usize = 500;
        const THREADS: usize = 4;
        const TOTAL: usize = PER_THREAD * THREADS;

        let (net, a, b) = pair(Duration::ZERO);
        let (a_qp, b_qp, a_scq, b_rcq) = connect(&a, &b);
        let ring = b.with_hca(|h| h.register_mr(1 << 16, Access::local_remote_write()));
        for i in 0..TOTAL as u64 {
            b.post_recv(b_qp, RecvWr::empty(i)).unwrap();
        }

        let src = a.with_hca(|h| h.register_mr(64, Access::NONE));
        let counter = AtomicU64::new(0);
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                s.spawn(|| {
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
                        );
                        net.post_send(&a, a_qp, wr).expect("post failed");
                    }
                });
            }
        });

        // Every post has returned, so everything has landed.
        let arrived = b.wait_cq(b_rcq, Duration::from_secs(20));
        let completed = a.wait_cq(a_scq, Duration::from_secs(20));
        assert!(arrived
            .iter()
            .all(|c| c.opcode == WcOpcode::RecvRdmaWithImm));
        let arrived: Vec<u64> = arrived.iter().map(|c| c.imm.unwrap() as u64).collect();
        let completed: Vec<u64> = completed.iter().map(|c| c.wr_id).collect();
        assert_eq!(arrived.len(), TOTAL);
        assert_eq!(arrived, completed, "arrival order is send-completion order");
        // Every message arrived exactly once.
        let mut sorted = arrived;
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), TOTAL, "lost or duplicated messages");
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

        // A post on a link without delay returns with its messages
        // delivered and their send completions applied, so the batch
        // retirement is observable immediately.
        a.with_hca(|h| {
            let qp = h.qp(a_qp).unwrap();
            assert_eq!(qp.sq_outstanding(), 0, "signaled CQE must retire the run");
        });
        let cqes = a.wait_cq(a_scq, Duration::from_secs(5));
        assert_eq!(cqes.len(), 1, "unsignaled WQEs must not surface CQEs");
        assert_eq!(cqes[0].wr_id, 7);
        net.quiesce();
    }

    /// Every post on a link without delay returns with its message
    /// delivered and, if signaled, completed: after each, the SQ holds
    /// what the per-acknowledgment rule leaves once that message is
    /// acknowledged, and only signaled sends surfaced a CQE.
    #[test]
    fn sq_occupancy_follows_the_per_ack_rule() {
        const N: usize = 24;
        for interval in 1..=8 {
            let signaled = crate::qp::every_nth_signaled(N, interval);
            let (net, a, b) = pair(Duration::ZERO);
            let (a_qp, b_qp, a_scq, _b_rcq) = connect(&a, &b);
            let ring = b.with_hca(|h| h.register_mr(64, Access::local_remote_write()));
            let src = a.with_hca(|h| h.register_mr(64, Access::NONE));
            let remote = crate::types::RemoteAddr {
                addr: ring.addr,
                rkey: ring.key,
            };
            for (i, &signal) in signaled.iter().enumerate() {
                b.post_recv(b_qp, RecvWr::empty(i as u64)).unwrap();
                let wr = SendWr::write_imm(i as u64, src.sge(0, 8), remote, 0);
                let wr = if signal { wr } else { wr.unsignaled() };
                net.post_send(&a, a_qp, wr).unwrap();
                let held = a.with_hca(|h| h.qp(a_qp).unwrap().sq_outstanding());
                let want = crate::qp::by_the_per_ack_rule(&signaled, i + 1, i + 1);
                assert_eq!(held, want, "interval {interval}, after message {i}");
            }
            let cqes = a.wait_cq(a_scq, Duration::ZERO);
            assert_eq!(cqes.len(), N / interval, "interval {interval}");
        }
    }

    /// A late SEND can land in a receive buffer its owner already
    /// deregistered (a peer's final ACK racing `close`). That is the
    /// peer's QP failing, not a panic in whoever delivers.
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
        let placement_failed = FatalErrors {
            local_protection_error: 1,
            ..FatalErrors::default()
        };
        assert_eq!(net.fatal_errors(), placement_failed);
        // The QP went to the error state: the receive still posted was
        // flushed, and the waiter was woken for it.
        let cqes = b.wait_cq(b_rcq, Duration::from_secs(5));
        assert_eq!(cqes.len(), 1);
        assert_eq!(cqes[0].wr_id, 8);
        assert_eq!(cqes[0].status, WcStatus::WrFlushError);

        // The link carries on: the next message is delivered, to a dead
        // QP with no receive left, and counted too.
        net.post_send(&a, a_qp, SendWr::send(2, src.sge(0, 9)))
            .unwrap();
        net.quiesce();
        assert_eq!(
            net.fatal_errors(),
            FatalErrors {
                rnr_retry_exceeded: 1,
                ..placement_failed
            }
        );
    }

    /// A WRITE the target's registration refuses fails the target's QP
    /// and is counted as a remote access error, on a link with a delay
    /// too (its delivery thread counts it).
    #[test]
    fn a_refused_write_is_counted_by_status() {
        for delay in [Duration::ZERO, Duration::from_micros(10)] {
            let (net, a, b) = pair(delay);
            let (a_qp, b_qp, _a_scq, b_rcq) = connect(&a, &b);
            let src = a.with_hca(|h| h.register_mr(64, Access::NONE));
            let read_only = b.with_hca(|h| h.register_mr(64, Access::LOCAL_WRITE));
            b.post_recv(b_qp, RecvWr::empty(5)).unwrap();
            let remote = crate::types::RemoteAddr {
                addr: read_only.addr,
                rkey: read_only.key,
            };
            net.post_send(&a, a_qp, SendWr::write(1, src.sge(0, 8), remote))
                .unwrap();
            let cqes = b.wait_cq(b_rcq, Duration::from_secs(5));
            assert_eq!(cqes.len(), 1, "the QP failed and flushed its receive");
            assert_eq!(cqes[0].status, WcStatus::WrFlushError);
            net.quiesce();
            let refused = FatalErrors {
                remote_access_error: 1,
                ..FatalErrors::default()
            };
            assert_eq!(net.fatal_errors(), refused, "delay {delay:?}");
        }
    }

    #[test]
    fn only_a_link_with_delay_has_delivery_threads() {
        let (net, _a, _b) = pair(Duration::ZERO);
        assert!(net.handles.is_empty(), "the posting thread delivers");
        let (net, _a, _b) = pair(Duration::from_micros(10));
        assert_eq!(net.handles.len(), 2, "one per direction");
    }

    /// Two threads hand a token back and forth, each waiting in
    /// `wait_any` until the other's `notify`: every notify races a park,
    /// and one lost wake-up would sleep out a timeout far longer than
    /// the whole run is allowed.
    #[test]
    fn wait_any_returns_promptly_when_notify_races_the_park() {
        const HANDOFFS: u64 = 10_000;
        let long = Duration::from_secs(20);
        let (_net, a, b) = pair(Duration::ZERO);
        let start = std::time::Instant::now();
        std::thread::scope(|s| {
            s.spawn(|| {
                for turn in 0..HANDOFFS {
                    assert_eq!(a.wait_any(turn, deadline_after(long)), turn + 1);
                    b.notify();
                }
            });
            for turn in 0..HANDOFFS {
                a.notify();
                assert_eq!(b.wait_any(turn, deadline_after(long)), turn + 1);
            }
        });
        assert!(start.elapsed() < long / 2, "a wake-up was lost");
    }

    /// A wait for ever is `Duration::MAX`, which no `Instant` can be
    /// moved by: it must park without a deadline, not overflow.
    #[test]
    fn wait_any_for_ever_returns_after_a_notify() {
        let (_net, a, _b) = pair(Duration::ZERO);
        let seen = a.generation();
        std::thread::scope(|s| {
            s.spawn(|| {
                std::thread::sleep(Duration::from_millis(10));
                a.notify();
            });
            assert_eq!(a.wait_any(seen, deadline_after(Duration::MAX)), seen + 1);
        });
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
