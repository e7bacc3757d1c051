//! The deterministic single-threaded executor and its reactor pump.
//!
//! One [`Executor`] owns one [`Reactor`] plus every piece of aio state
//! behind a single `Rc<RefCell<..>>`: per-channel receive buffers, the
//! queued-operation list and the task slab. Futures never touch the
//! verbs backend — they enqueue operations and park with a waker;
//! [`Executor::turn`] applies the operations against the caller's
//! [`VerbsPort`], polls the reactor, routes completions back to channel
//! state and polls woken tasks, looping until the whole system is
//! quiescent. Because one `turn` is a pure function of (state, port),
//! and every map it walks iterates in key order or in an order fixed by
//! its keys, the executor is byte- and schedule-deterministic under the
//! simulator and a plain parking poll loop over the thread fabric — the
//! same application code runs on both.

use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::task::{Context, Poll, Wake, Waker};

use parking_lot::Mutex;
use rdma_verbs::{Access, ThreadNet, ThreadNode};
use simnet::IntMap;

use crate::error::ExsError;
use crate::mempool::{MemPool, MemPoolConfig, MrLease};
use crate::mux::MuxEvent;
use crate::port::VerbsPort;
use crate::reactor::{ConnId, Reactor, Readiness};
use crate::stats::AioStats;
use crate::threaded::ThreadPort;

use super::handle::AioHandle;

type TaskFut = Pin<Box<dyn Future<Output = ()>>>;

/// Identifies one byte-stream channel the executor manages: a stream
/// id on a hosted endpoint (a socket's one stream is id 0).
pub(crate) type ChanKey = (ConnId, u32);

/// Operations futures enqueue for the next `turn` to apply with the
/// port. Kept FIFO so a task's `send_all` → `shutdown` sequence hits
/// the socket in program order.
pub(crate) enum Action {
    Open { key: ChanKey },
    Send { key: ChanKey, op: u64 },
    Flush { key: ChanKey, op: u64 },
    Shutdown { key: ChanKey, op: u64 },
}

/// How much a parked receive needs before it resolves.
#[derive(Clone, Copy, Debug)]
pub(crate) enum RecvMode {
    /// Exactly `n` bytes (MSG_WAITALL shape).
    Exact(usize),
    /// At least one byte, up to `max`.
    Some(usize),
}

pub(crate) struct RecvWaiter {
    pub(crate) op: u64,
    pub(crate) mode: RecvMode,
    pub(crate) waker: Option<Waker>,
}

pub(crate) struct SendOp {
    pub(crate) data: Option<Vec<u8>>,
    pub(crate) lease: Option<MrLease>,
    pub(crate) issued: bool,
    pub(crate) done: Option<Result<(), ExsError>>,
    pub(crate) waker: Option<Waker>,
    /// The owning future was dropped after the bytes committed; the
    /// completion frees the lease and the entry silently.
    pub(crate) detached: bool,
}

pub(crate) struct CtlOp {
    pub(crate) done: Option<Result<(), ExsError>>,
    pub(crate) waker: Option<Waker>,
}

/// Per-channel aio state: the readahead receive queue feeding a byte
/// buffer, plus in-flight send/control operations and parked readers.
///
/// The readahead queue is what keeps the paper's Fig. 3 advert gate
/// open under async consumption: `depth` chunk-sized receives stay
/// posted (recycled FIFO, like the reactor-server pattern), so an
/// ADVERT is already on the wire when the sender plans its next
/// transfer and delivery stays zero-copy. It is also what makes a
/// cancelled `recv_exact` trivially safe: bytes land in `rx_buf`
/// regardless of who is waiting, and an abandoned reader simply leaves
/// them for the next one.
pub(crate) struct Chan {
    pub(crate) chunk: u32,
    pub(crate) depth: usize,
    opened: bool,
    /// Leased readahead buffers; index = slot.
    slots: Vec<MrLease>,
    free: Vec<usize>,
    /// Outstanding readahead receives in posting order (token, slot).
    posted: VecDeque<(u64, usize)>,
    pub(crate) rx_buf: VecDeque<u8>,
    pub(crate) eof: bool,
    pub(crate) error: Option<ExsError>,
    /// Send-direction poison left by an unclean cancellation.
    pub(crate) poison: Option<ExsError>,
    pub(crate) shutdown_requested: bool,
    /// Send and control operations by op id: a failure wakes their
    /// tasks in the order the operations were issued.
    pub(crate) send_ops: BTreeMap<u64, SendOp>,
    pub(crate) ctl_ops: BTreeMap<u64, CtlOp>,
    pub(crate) read_waiters: VecDeque<RecvWaiter>,
}

impl Chan {
    fn new(chunk: u32, depth: usize) -> Chan {
        Chan {
            chunk,
            depth: depth.max(1),
            opened: false,
            slots: Vec::new(),
            free: Vec::new(),
            posted: VecDeque::new(),
            rx_buf: VecDeque::new(),
            eof: false,
            error: None,
            poison: None,
            shutdown_requested: false,
            send_ops: BTreeMap::new(),
            ctl_ops: BTreeMap::new(),
            read_waiters: VecDeque::new(),
        }
    }

    /// The head reader resolves as soon as its byte requirement is met
    /// (or can never be met); wake it so the executor re-polls it.
    pub(crate) fn wake_readers(&mut self) {
        if self.error.is_some() {
            for w in self.read_waiters.iter_mut() {
                if let Some(w) = w.waker.take() {
                    w.wake();
                }
            }
            return;
        }
        if let Some(head) = self.read_waiters.front_mut() {
            let satisfiable = self.eof
                || match head.mode {
                    RecvMode::Exact(n) => self.rx_buf.len() >= n,
                    RecvMode::Some(_) => !self.rx_buf.is_empty(),
                };
            if satisfiable {
                if let Some(w) = head.waker.take() {
                    w.wake();
                }
            }
        }
    }

    fn fail_all(&mut self, err: &ExsError) {
        if self.error.is_none() {
            self.error = Some(err.clone());
        }
        for op in self.send_ops.values_mut() {
            if op.done.is_none() && !op.detached {
                op.done = Some(Err(err.clone()));
                op.lease = None;
                if let Some(w) = op.waker.take() {
                    w.wake();
                }
            }
        }
        for op in self.ctl_ops.values_mut() {
            if op.done.is_none() {
                op.done = Some(Err(err.clone()));
                if let Some(w) = op.waker.take() {
                    w.wake();
                }
            }
        }
        self.wake_readers();
    }

    /// Posts a readahead receive into every free slot, lowest slot
    /// first. A slot whose post fails stays free.
    fn post_free(
        &mut self,
        reactor: &mut Reactor,
        port: &mut impl VerbsPort,
        key: ChanKey,
        next_op: &mut u64,
    ) -> Result<(), ExsError> {
        while let Some(&slot) = self.free.last() {
            *next_op += 1;
            let lease = self.slots[slot].info();
            reactor
                .try_conn_mut(key.0)
                .ok_or(ExsError::Stale)?
                .recv(port, key.1, lease, 0, self.chunk, false, *next_op)?;
            self.free.pop();
            self.posted.push_back((*next_op, slot));
        }
        Ok(())
    }
}

/// The shared ready queue task wakers push onto. Lives outside the
/// `RefCell` so a waker may fire while executor state is borrowed
/// (e.g. waking a reader from inside event dispatch), or on another
/// thread.
pub(crate) struct ReadyQueue {
    q: Mutex<Ready>,
    wakeups: AtomicU64,
}

#[derive(Default)]
struct Ready {
    tasks: VecDeque<usize>,
    /// The node [`Executor::run_threaded`] waits on, from announcing the
    /// wait until it leaves it: a wake pushed meanwhile notifies it.
    parked_on: Option<Arc<ThreadNode>>,
}

impl ReadyQueue {
    fn new() -> Arc<ReadyQueue> {
        Arc::new(ReadyQueue {
            q: Mutex::new(Ready::default()),
            wakeups: AtomicU64::new(0),
        })
    }

    fn push_wake(&self, id: usize) {
        self.wakeups.fetch_add(1, Ordering::Relaxed);
        let mut ready = self.q.lock();
        ready.tasks.push_back(id);
        if let Some(node) = &ready.parked_on {
            node.notify();
        }
    }

    pub(crate) fn push_spawn(&self, id: usize) {
        self.q.lock().tasks.push_back(id);
    }

    fn pop(&self) -> Option<usize> {
        self.q.lock().tasks.pop_front()
    }

    fn wakeups(&self) -> u64 {
        self.wakeups.load(Ordering::Relaxed)
    }

    /// Waits on `node` as [`ThreadNode::wait_any`] does, unless a task
    /// is ready. The announcement and the look at the queue are one
    /// step under the queue's lock, as a wake's push and its look at the
    /// announcement are, so a waker fired on another thread either is
    /// seen here or notifies the node.
    fn wait(&self, node: &Arc<ThreadNode>, seen: u64) {
        {
            let mut ready = self.q.lock();
            if !ready.tasks.is_empty() {
                return;
            }
            ready.parked_on = Some(node.clone());
        }
        node.wait_any(seen, None);
        self.q.lock().parked_on = None;
    }
}

struct TaskWaker {
    id: usize,
    ready: Arc<ReadyQueue>,
}

impl Wake for TaskWaker {
    fn wake(self: Arc<Self>) {
        self.ready.push_wake(self.id);
    }

    fn wake_by_ref(self: &Arc<Self>) {
        self.ready.push_wake(self.id);
    }
}

/// Everything behind the executor's `Rc<RefCell<..>>`. Futures reach
/// it through [`AioHandle`] clones; the executor's turn loop is the
/// only code that also holds a [`VerbsPort`].
pub(crate) struct Inner {
    pub(crate) reactor: Reactor,
    pub(crate) pool: MemPool,
    pub(crate) chans: IntMap<ChanKey, Chan>,
    pub(crate) actions: VecDeque<Action>,
    pub(crate) next_op: u64,
    pub(crate) stats: AioStats,
    tasks: Vec<Option<TaskFut>>,
    free_tasks: Vec<usize>,
    outstanding: usize,
    scratch: Vec<u8>,
    /// Reusable readiness buffer for [`Inner::pump_reactor`] — the
    /// steady-state pump allocates nothing per poll.
    ready_buf: Vec<(ConnId, Readiness)>,
}

impl Inner {
    pub(crate) fn op_id(&mut self) -> u64 {
        self.next_op += 1;
        self.next_op
    }

    pub(crate) fn chan_mut(&mut self, key: ChanKey) -> Option<&mut Chan> {
        self.chans.get_mut(&key)
    }

    pub(crate) fn ensure_chan(&mut self, key: ChanKey, chunk: u32, depth: usize) {
        if let std::collections::hash_map::Entry::Vacant(e) = self.chans.entry(key) {
            let chan = e.insert(Chan::new(chunk, depth));
            // A transport that failed before the stream was wrapped
            // announced it to nobody; later failures arrive as events.
            chan.error = self
                .reactor
                .try_conn(key.0)
                .and_then(|ep| ep.stream_error(key.1));
            self.actions.push_back(Action::Open { key });
        }
    }

    pub(crate) fn spawn_task(&mut self, fut: TaskFut) -> usize {
        let id = match self.free_tasks.pop() {
            Some(id) => {
                self.tasks[id] = Some(fut);
                id
            }
            None => {
                self.tasks.push(Some(fut));
                self.tasks.len() - 1
            }
        };
        self.outstanding += 1;
        self.stats.tasks_spawned += 1;
        id
    }

    /// Applies every queued operation against the port, in FIFO order.
    fn apply_actions(&mut self, port: &mut impl VerbsPort) -> bool {
        let mut acted = false;
        while let Some(action) = self.actions.pop_front() {
            acted = true;
            match action {
                Action::Open { key } => self.apply_open(port, key),
                Action::Send { key, op } => self.apply_send(port, key, op),
                Action::Flush { key, op } => self.apply_ctl(port, key, op, false),
                Action::Shutdown { key, op } => self.apply_ctl(port, key, op, true),
            }
        }
        acted
    }

    fn apply_open(&mut self, port: &mut impl VerbsPort, key: ChanKey) {
        let Inner {
            reactor,
            pool,
            chans,
            next_op,
            ..
        } = self;
        let Some(chan) = chans.get_mut(&key) else {
            return;
        };
        if chan.opened {
            return;
        }
        chan.opened = true;
        for slot in (0..chan.depth).rev() {
            let lease = pool.acquire(port, chan.chunk as usize, Access::local_remote_write());
            chan.slots.push(lease);
            chan.free.push(slot);
        }
        if let Err(e) = chan.post_free(reactor, port, key, next_op) {
            chan.fail_all(&e);
        }
    }

    fn apply_send(&mut self, port: &mut impl VerbsPort, key: ChanKey, op: u64) {
        let Inner {
            reactor,
            pool,
            chans,
            ..
        } = self;
        let Some(chan) = chans.get_mut(&key) else {
            return;
        };
        let Some(entry) = chan.send_ops.get_mut(&op) else {
            return; // cancelled between queue and apply
        };
        let fail = chan.error.clone().or_else(|| chan.poison.clone());
        if let Some(err) = fail {
            entry.done = Some(Err(err));
            if let Some(w) = entry.waker.take() {
                w.wake();
            }
            return;
        }
        let data = entry.data.take().unwrap_or_default();
        if data.is_empty() {
            entry.done = Some(Ok(()));
            if let Some(w) = entry.waker.take() {
                w.wake();
            }
            return;
        }
        let complete_err = |entry: &mut SendOp, err: ExsError| {
            entry.done = Some(Err(err));
            entry.lease = None;
            if let Some(w) = entry.waker.take() {
                w.wake();
            }
        };
        let lease = pool.acquire(port, data.len(), Access::NONE);
        if let Err(e) = lease.write(port, 0, &data) {
            complete_err(entry, ExsError::Verbs(e));
            return;
        }
        let sent = reactor
            .try_conn_mut(key.0)
            .ok_or(ExsError::Stale)
            .and_then(|ep| ep.send(port, key.1, lease.info(), 0, data.len() as u64, op));
        match sent {
            Ok(()) => {
                entry.lease = Some(lease);
                entry.issued = true;
            }
            Err(e) => complete_err(entry, e),
        }
    }

    fn apply_ctl(&mut self, port: &mut impl VerbsPort, key: ChanKey, op: u64, shutdown: bool) {
        let Inner { reactor, chans, .. } = self;
        let Some(chan) = chans.get_mut(&key) else {
            return;
        };
        let Some(entry) = chan.ctl_ops.get_mut(&op) else {
            return;
        };
        let applied = reactor.try_conn_mut(key.0).map(|ep| match shutdown {
            true => ep.shutdown(port, key.1),
            false => ep.flush(port),
        });
        entry.done = Some(applied.ok_or(ExsError::Stale));
        if let Some(w) = entry.waker.take() {
            w.wake();
        }
    }

    /// One reactor poll plus completion routing. Returns true when any
    /// channel state changed (events consumed, bytes buffered, EOF or
    /// error observed).
    fn pump_reactor(&mut self, port: &mut impl VerbsPort) -> bool {
        let mut ready = std::mem::take(&mut self.ready_buf);
        self.reactor.poll_into(port, &mut ready);
        let mut progressed = false;
        for &(host, _) in &ready {
            // Dispatching can generate follow-on events (a readahead
            // repost satisfied straight from buffered ring data, the
            // end-of-stream completion behind it); drain to quiescence
            // so they cost no further reactor poll.
            while let Some(ep) = self.reactor.try_conn_mut(host) {
                let events = ep.take_events();
                if events.is_empty() {
                    break;
                }
                progressed = true;
                for ev in events {
                    self.dispatch_event(port, host, ev);
                }
            }
        }
        self.ready_buf = ready;
        progressed
    }

    fn dispatch_event(&mut self, port: &mut impl VerbsPort, host: ConnId, ev: MuxEvent) {
        match ev {
            MuxEvent::RecvComplete { stream, id, len } => {
                self.readahead_complete(port, (host, stream), id, len);
            }
            MuxEvent::SendComplete { stream, id, .. } => self.send_complete((host, stream), id),
            MuxEvent::StreamClosed { stream } => {
                if let Some(chan) = self.chans.get_mut(&(host, stream)) {
                    chan.eof = true;
                    chan.wake_readers();
                }
            }
            MuxEvent::TransportError { .. } => {
                let Some(ep) = self.reactor.try_conn(host) else {
                    return;
                };
                // Only the streams a failed slot carries are dead; in id
                // order, so the wake order repeats from run to run.
                let mut mine: Vec<u32> = self
                    .chans
                    .keys()
                    .filter(|k| k.0 == host)
                    .map(|k| k.1)
                    .collect();
                mine.sort_unstable();
                for stream in mine {
                    if let Some(err) = ep.stream_error(stream) {
                        self.chans
                            .get_mut(&(host, stream))
                            .expect("key just listed")
                            .fail_all(&err);
                    }
                }
            }
        }
    }

    /// Routes one completed readahead receive: copy the bytes out,
    /// recycle the slot, keep the queue at depth while the stream is
    /// alive.
    fn readahead_complete(&mut self, port: &mut impl VerbsPort, key: ChanKey, id: u64, len: u32) {
        let Inner {
            reactor,
            chans,
            next_op,
            scratch,
            ..
        } = self;
        let Some(chan) = chans.get_mut(&key) else {
            return;
        };
        let Some(pos) = chan.posted.iter().position(|&(token, _)| token == id) else {
            return;
        };
        // Receives complete in posting order; tolerate gaps anyway.
        let (_, slot) = chan.posted.remove(pos).expect("position just found");
        if len > 0 {
            scratch.resize(len as usize, 0);
            if chan.slots[slot].read(port, 0, scratch).is_ok() {
                chan.rx_buf.extend(scratch.iter().copied());
            }
        } else {
            // Zero bytes at completion means end-of-stream (read(2)
            // semantics); stop recycling.
            chan.eof = true;
        }
        chan.free.push(slot);
        if !chan.eof && chan.error.is_none() {
            // Best effort: a stream that cannot take the post is ending.
            let _ = chan.post_free(reactor, port, key, next_op);
        }
        chan.wake_readers();
    }

    fn send_complete(&mut self, key: ChanKey, id: u64) {
        let Some(chan) = self.chans.get_mut(&key) else {
            return;
        };
        let Some(entry) = chan.send_ops.get_mut(&id) else {
            return;
        };
        entry.lease = None;
        if entry.detached {
            chan.send_ops.remove(&id);
            return;
        }
        if entry.done.is_none() {
            entry.done = Some(Ok(()));
        }
        if let Some(w) = entry.waker.take() {
            w.wake();
        }
    }

    /// Drop-safe send cancellation (the rules of DESIGN.md §16): a
    /// queued send unwinds for free; an issued one is revoked through
    /// `exs_cancel` when no byte entered the stream; otherwise the
    /// message completes whole on the wire (a WWI is never torn
    /// mid-frame) and the channel's sending direction is poisoned,
    /// because delivery became ambiguous to the canceller.
    pub(crate) fn cancel_send(&mut self, key: ChanKey, op: u64) {
        let Some(chan) = self.chans.get_mut(&key) else {
            return;
        };
        let Some(entry) = chan.send_ops.get_mut(&op) else {
            return;
        };
        if entry.done.is_some() {
            chan.send_ops.remove(&op);
            return;
        }
        if !entry.issued {
            chan.send_ops.remove(&op);
            self.actions
                .retain(|a| !matches!(a, Action::Send { op: o, .. } if *o == op));
            self.stats.cancels_clean += 1;
            return;
        }
        let revoked = self.reactor.try_conn_mut(key.0);
        if revoked.is_some_and(|ep| ep.cancel(key.1, op)) {
            chan.send_ops.remove(&op);
            self.stats.cancels_clean += 1;
            return;
        }
        entry.detached = true;
        entry.waker = None;
        chan.poison = Some(ExsError::Cancelled);
        self.stats.cancels_poisoned += 1;
    }

    /// Cancellation of a parked receive is always clean: unclaimed
    /// bytes stay in the channel buffer for the next reader.
    pub(crate) fn cancel_recv(&mut self, key: ChanKey, op: u64) {
        let Some(chan) = self.chans.get_mut(&key) else {
            return;
        };
        let before = chan.read_waiters.len();
        chan.read_waiters.retain(|w| w.op != op);
        if chan.read_waiters.len() != before {
            self.stats.cancels_clean += 1;
        }
        if let Some(chan) = self.chans.get_mut(&key) {
            chan.wake_readers();
        }
    }

    pub(crate) fn cancel_ctl(&mut self, key: ChanKey, op: u64) {
        let Some(chan) = self.chans.get_mut(&key) else {
            return;
        };
        if chan
            .ctl_ops
            .get(&op)
            .is_some_and(|entry| entry.done.is_none())
        {
            // Not applied yet: unwind the queued action too.
            chan.ctl_ops.remove(&op);
            self.actions.retain(|a| {
                !matches!(a, Action::Flush { op: o, .. } | Action::Shutdown { op: o, .. } if *o == op)
            });
            self.stats.cancels_clean += 1;
        } else {
            chan.ctl_ops.remove(&op);
        }
    }
}

/// A small deterministic single-threaded executor over one
/// [`Reactor`].
///
/// On the simulator, wrap it in a [`SimShardDriver`] and run it as a
/// `NodeApp`: every node wake turns it, and whole runs stay byte- and
/// schedule-deterministic. On the thread fabric, call
/// [`Executor::run_threaded`] from one service thread: the same turn
/// function runs between waits on the node's completion generation
/// ([`ThreadNode::wait_any`]), which a waker fired on another thread
/// also ends.
pub struct Executor {
    inner: Rc<RefCell<Inner>>,
    ready: Arc<ReadyQueue>,
}

impl Executor {
    /// Wraps a reactor with a fresh default staging pool.
    pub fn new(reactor: Reactor) -> Executor {
        Executor::with_pool(reactor, MemPool::new(MemPoolConfig::default()))
    }

    /// Wraps a reactor, staging sends and readahead receives through
    /// `pool` (share it with other endpoints on the node to share the
    /// pin-down cache).
    pub fn with_pool(reactor: Reactor, pool: MemPool) -> Executor {
        Executor {
            inner: Rc::new(RefCell::new(Inner {
                reactor,
                pool,
                chans: IntMap::default(),
                actions: VecDeque::new(),
                next_op: 0,
                stats: AioStats::default(),
                tasks: Vec::new(),
                free_tasks: Vec::new(),
                outstanding: 0,
                scratch: Vec::new(),
                ready_buf: Vec::new(),
            })),
            ready: ReadyQueue::new(),
        }
    }

    /// A cloneable handle for spawning tasks and wrapping streams.
    pub fn handle(&self) -> AioHandle {
        AioHandle::new(self.inner.clone(), self.ready.clone())
    }

    /// Direct access to the owned reactor (accept connections, harvest
    /// stats).
    pub fn with_reactor<R>(&self, f: impl FnOnce(&mut Reactor) -> R) -> R {
        f(&mut self.inner.borrow_mut().reactor)
    }

    /// True when every spawned task has run to completion.
    pub fn idle(&self) -> bool {
        self.inner.borrow().outstanding == 0
    }

    /// True when every task has completed *and* no registered endpoint
    /// still owes traffic to the wire ([`Reactor::has_unsent`]). The
    /// distinction matters at teardown: a shutdown's FIN can be queued
    /// behind flow control after the task that requested it has
    /// finished, and a driver that stops at [`Executor::idle`] would
    /// strand the peer waiting for end-of-stream.
    pub fn drained(&self) -> bool {
        let inner = self.inner.borrow();
        inner.outstanding == 0 && !inner.reactor.has_unsent()
    }

    /// Executor counters, with the waker-side wake count folded in.
    pub fn stats(&self) -> AioStats {
        let mut stats = self.inner.borrow().stats.clone();
        stats.wakeups = self.ready.wakeups();
        stats
    }

    /// One executor turn: apply queued operations, poll the reactor and
    /// route completions, poll every woken task — looping until nothing
    /// progresses and the reactor has no deferred backlog.
    pub fn turn(&mut self, port: &mut impl VerbsPort) {
        self.inner.borrow_mut().stats.turns += 1;
        loop {
            let mut progressed = false;
            progressed |= self.inner.borrow_mut().apply_actions(port);
            progressed |= self.inner.borrow_mut().pump_reactor(port);
            progressed |= self.run_ready();
            if !progressed && !self.inner.borrow().reactor.has_backlog() {
                break;
            }
        }
    }

    /// Polls every task on the ready queue (and any they wake or
    /// spawn) until the queue is empty.
    fn run_ready(&mut self) -> bool {
        let mut ran = false;
        while let Some(id) = self.ready.pop() {
            let fut = {
                let mut inner = self.inner.borrow_mut();
                match inner.tasks.get_mut(id) {
                    Some(slot) => slot.take(),
                    None => None,
                }
            };
            // A duplicate wake for a task already completed (or being
            // polled) resolves to nothing.
            let Some(mut fut) = fut else {
                continue;
            };
            ran = true;
            let waker = Waker::from(Arc::new(TaskWaker {
                id,
                ready: self.ready.clone(),
            }));
            self.inner.borrow_mut().stats.polls += 1;
            let mut cx = Context::from_waker(&waker);
            match fut.as_mut().poll(&mut cx) {
                Poll::Ready(()) => {
                    let mut inner = self.inner.borrow_mut();
                    inner.free_tasks.push(id);
                    inner.outstanding -= 1;
                    inner.stats.tasks_completed += 1;
                }
                Poll::Pending => {
                    self.inner.borrow_mut().tasks[id] = Some(fut);
                }
            }
        }
        ran
    }

    /// Runs the executor on the calling thread over the real-thread
    /// fabric until it is drained: read the node's generation, turn,
    /// then wait for the generation to move or for a waker fired on
    /// another thread. This is the "10k tasks on one service thread"
    /// loop: tasks and reactor share the caller's thread.
    pub fn run_threaded(&mut self, net: &ThreadNet, node: &Arc<ThreadNode>) {
        loop {
            let seen = node.generation();
            self.turn(&mut ThreadPort::new(net, node));
            if self.drained() {
                break;
            }
            if !self.inner.borrow().reactor.has_backlog() {
                self.ready.wait(node, seen);
            }
        }
    }
}

/// Adapts [`Executor`]s to the simulator's [`rdma_verbs::NodeApp`]
/// protocol, one executor per reactor shard on a single simulated node
/// (a plain single-reactor server is the one-executor case). Every
/// wake-up runs one turn of *each* executor, in shard order. "Parallel"
/// shards interleave on one timeline, so runs stay byte- and
/// schedule-deterministic while exercising exactly the sharded
/// placement the thread backend uses. The node is done only when every
/// shard is drained ([`Executor::drained`]).
pub struct SimShardDriver {
    shards: Vec<Executor>,
}

impl SimShardDriver {
    /// Wraps one executor per shard for `SimNet::run`. Panics on an
    /// empty shard set.
    pub fn new(shards: Vec<Executor>) -> SimShardDriver {
        assert!(
            !shards.is_empty(),
            "a shard driver needs at least one shard"
        );
        SimShardDriver { shards }
    }

    /// Number of shards driven.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// One shard's executor.
    pub fn executor(&mut self, shard: usize) -> &mut Executor {
        &mut self.shards[shard]
    }

    /// Shared view of one shard's executor.
    pub fn executor_ref(&self, shard: usize) -> &Executor {
        &self.shards[shard]
    }

    /// A task/stream handle onto one shard's executor.
    pub fn handle(&self, shard: usize) -> AioHandle {
        self.shards[shard].handle()
    }

    /// Executor counters merged across shards.
    pub fn merged_stats(&self) -> AioStats {
        simnet::stats::merged(self.shards.iter().map(Executor::stats))
    }

    /// Per-shard executor counters, in shard order.
    pub fn per_shard_stats(&self) -> Vec<AioStats> {
        self.shards.iter().map(|ex| ex.stats()).collect()
    }

    fn pump(&mut self, api: &mut rdma_verbs::NodeApi<'_>) {
        // One turn per shard, in shard order. Each turn already loops
        // to quiescence (including its reactor's deferred backlog), and
        // cross-shard traffic on the simulator arrives as later wake
        // events, so a single pass is a complete pump.
        for ex in &mut self.shards {
            ex.turn(api);
        }
    }
}

impl rdma_verbs::NodeApp for SimShardDriver {
    fn on_start(&mut self, api: &mut rdma_verbs::NodeApi<'_>) {
        self.pump(api);
    }

    fn on_wake(&mut self, api: &mut rdma_verbs::NodeApi<'_>) {
        self.pump(api);
    }

    fn is_done(&self) -> bool {
        self.shards.iter().all(|ex| ex.drained())
    }
}
