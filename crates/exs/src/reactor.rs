//! Readiness-based multiplexing of many EXS endpoints on one node.
//!
//! A server that terminates thousands of EXS connections cannot afford
//! one CQ poll — let alone one thread — per connection. The UNH EXS
//! library answers with an event-queue design; this module is the
//! equivalent of `epoll` for what a node hosts.
//!
//! **What is hosted** is one thing: an [`Endpoint`] — one or more QPs
//! on the reactor's CQ pair, carrying one or more streams. A
//! [`crate::StreamSocket`] is the endpoint with one QP and the single
//! stream id 0; a [`crate::MuxEndpoint`] is the endpoint with a QP pool
//! and many stream ids. Both live in one slab under one id type
//! ([`ConnId`]), are accepted, removed, polled, counted and placed by
//! the same code, and report completions as one stream-tagged event
//! type ([`crate::MuxEvent`], from [`Endpoint::take_events`]); only
//! [`crate::endpoint`] knows which is which.
//!
//! * every hosted QP completes onto **one shared send CQ and one shared
//!   receive CQ** (see [`rdma_verbs::connect_pair_on_cqs`]), so a
//!   wake-up costs one batched drain of two CQs — two verbs calls —
//!   regardless of connection count;
//! * drained completions are **dispatched by QP number** (an index into
//!   a table, QP numbers being dense per node) to the owning endpoint,
//!   then endpoints are serviced **with a bounded per-poll budget** —
//!   single-stream endpoints round-robin from a rotating cursor, then
//!   multi-stream ones in slab order (each pumps its own streams
//!   round-robin) — so a blast-heavy peer cannot starve the other nine
//!   hundred;
//! * [`Reactor::poll`] returns **level-triggered readiness** — an
//!   endpoint is reported readable as long as completion events are
//!   queued for the application; a single-stream endpoint also
//!   closed/error when its stream ended (a multi-stream endpoint says
//!   those per stream, as events). There is no interest mask: every
//!   hosted endpoint is reported on exactly these flags.
//!
//! **A poll costs what completed, not what is hosted.** The reactor
//! keeps three sets of slab indices as word bitmaps, and a poll walks
//! only their members:
//!
//! * *work* — endpoints that need a service turn: completions are queued
//!   for them, or they must be progressed on every poll (a socket with
//!   sends in flight or a half-close under way; a pooled endpoint,
//!   always);
//! * *ready* — endpoints that are readable, closed or failed, which is
//!   the level-triggered report;
//! * *unsent* — endpoints that may still owe traffic to the wire.
//!
//! An endpoint's state changes at two points only, and both update the
//! sets. Its **service turn** is the only place the reactor itself
//! mutates it: completions are applied, the protocol advances, and the
//! three memberships are recomputed from the endpoint right there.
//! An **application borrow** ([`Reactor::accept`], [`Reactor::conn_mut`],
//! [`Reactor::try_conn_mut`]) hands out
//! `&mut` access the reactor cannot watch — a send, a receive, a
//! shutdown, taking the events — so the borrow itself puts the slot in
//! *work* and *unsent*: the next poll gives it a turn (a turn with
//! nothing to apply and nothing to progress changes nothing) and
//! recomputes its memberships before the report is built, and
//! [`Reactor::has_unsent`] asks the members of *unsent* rather than
//! trusting them. Dispatching a completion puts its owner in *work*;
//! [`Reactor::remove`] takes the slot out of all three. Nothing else
//! can move an endpoint between sets — shared access
//! ([`Reactor::conn`]) cannot mutate, and readiness depends on nothing
//! but the endpoint — so an endpoint outside *work* is exactly as the
//! last poll left it and is not looked at. Service order is unchanged
//! from a full walk: sockets in slab order from the rotating cursor,
//! then pooled endpoints in slab order, then the report in slab order.
//! [`crate::ReactorStats::slots_visited`] counts the slots looked at.
//!
//! The reactor is backend-agnostic: it drives any [`VerbsPort`], so the
//! same code runs one step per wake deterministically under the
//! discrete-event simulator and inside an executor's thread over the
//! real-thread fabric ([`crate::Executor::run_threaded`]).
//!
//! ```text
//!    shared recv CQ ─┐  batched drain   ┌─ slot 0 queue ─ service ≤ budget
//!    shared send CQ ─┴─────────────────►├─ slot 1 queue ─ service ≤ budget
//!                      dispatch by qpn  └─ slot N queue ─ ... (round-robin)
//! ```
//!
//! **Keep receives pre-posted, or lose zero-copy.** A reactor server
//! that posts one receive per connection and re-posts only after
//! consuming the completion closes the Fig. 3 advert gate at every
//! message boundary, and every stream degrades to 100% indirect. Post
//! a queue of receives per connection (depth ≥ 2; buffers leased from
//! [`crate::MemPool`] work well) and recycle slots as a FIFO —
//! receives complete in posting order — so an ADVERT is already on
//! the wire when the sender plans its next transfer. Pair it with the
//! sender-side re-entry policy ([`crate::DirectPolicy`], the
//! `ExsConfig::direct` knobs) to recover direct mode after indirect
//! episodes; see DESIGN.md §13 and `blast::fan_in` for the pattern.

use std::cell::Cell;
use std::collections::VecDeque;

use rdma_verbs::{CqId, Cqe};

use crate::endpoint::Endpoint;
use crate::port::VerbsPort;
use crate::stats::{ConnStats, ReactorStats};

/// Stable handle for an endpoint hosted by a [`Reactor`] — a connection
/// to one peer, whether it is one QP with one stream or a QP pool with
/// many.
///
/// Ids are slab indices: they are reused after [`Reactor::remove`],
/// like Unix file descriptors, whatever kind of endpoint held them
/// before.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ConnId(pub u32);

/// Level-triggered readiness flags for one connection, in the spirit of
/// `epoll`'s `EPOLLIN`/`EPOLLHUP`/`EPOLLERR`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Readiness {
    /// Completion events are queued: [`Endpoint::take_events`] returns
    /// at least one event right now.
    pub readable: bool,
    /// The peer half-closed and its stream fully drained (`EPOLLHUP`).
    pub closed: bool,
    /// The transport failed underneath the connection (`EPOLLERR`).
    pub error: bool,
}

impl Readiness {
    /// Readiness with every flag clear.
    pub(crate) const NONE: Readiness = Readiness {
        readable: false,
        closed: false,
        error: false,
    };

    /// True if any flag is set.
    pub fn any(&self) -> bool {
        self.readable || self.closed || self.error
    }
}

/// Tunables for one [`Reactor`].
#[derive(Clone, Copy, Debug)]
pub struct ReactorConfig {
    /// Most completions serviced per connection per poll before the
    /// remainder is deferred to the next round (fairness bound).
    pub cqe_budget: usize,
    /// Most completions drained from each shared CQ per poll; leftovers
    /// stay in the CQ for the next poll (per-poll work bound).
    pub drain_batch: usize,
}

impl Default for ReactorConfig {
    fn default() -> Self {
        ReactorConfig {
            cqe_budget: 64,
            drain_batch: 4096,
        }
    }
}

/// Which shared CQ a queued completion was drained from.
#[derive(Clone, Copy)]
pub(crate) enum CqSide {
    Recv,
    Send,
}

struct Slot {
    /// Completions dispatched to this endpoint and not yet serviced
    /// (non-empty only after a budget deferral).
    queued: VecDeque<(CqSide, Cqe)>,
    ep: Endpoint,
}

impl Slot {
    /// One service turn: up to `cqe_budget` queued completions, then
    /// protocol progress.
    fn serve(&mut self, api: &mut impl VerbsPort, cfg: &ReactorConfig, stats: &mut ReactorStats) {
        let mut served = 0usize;
        while served < cfg.cqe_budget {
            let Some((side, cqe)) = self.queued.pop_front() else {
                break;
            };
            self.ep.on_cqe(api, side, cqe);
            served += 1;
        }
        if !self.queued.is_empty() {
            stats.deferrals += 1;
        }
        self.ep.progress(api, served > 0);
    }
}

/// A set of slab indices as a word bitmap: update and test are O(1), a
/// walk costs one step per member plus one per 64 slots.
#[derive(Default)]
struct SlotSet {
    words: Vec<u64>,
}

impl SlotSet {
    fn set(&mut self, idx: usize, member: bool) {
        let (word, bit) = (idx / 64, 1u64 << (idx % 64));
        if member {
            if self.words.len() <= word {
                self.words.resize(word + 1, 0);
            }
            self.words[word] |= bit;
        } else if let Some(w) = self.words.get_mut(word) {
            *w &= !bit;
        }
    }

    /// The smallest member that is at least `from`. Asking again from
    /// one past the answer walks the set in slab order, and stays
    /// correct while members come and go between the questions.
    fn next(&self, from: usize) -> Option<usize> {
        let mut word = from / 64;
        let mut bits = *self.words.get(word)? & (!0u64 << (from % 64));
        while bits == 0 {
            word += 1;
            bits = *self.words.get(word)?;
        }
        Some(word * 64 + bits.trailing_zeros() as usize)
    }

    /// The members in slab order.
    fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        std::iter::successors(self.next(0), |&idx| self.next(idx + 1))
    }
}

/// An epoll-style event loop owning many [`Endpoint`]s on one node.
///
/// Every endpoint must share this reactor's send and receive CQs (build
/// sockets with [`crate::StreamSocket::pair_shared`] or
/// [`rdma_verbs::connect_pair_on_cqs`]; pin a pooled endpoint with
/// [`crate::MuxEndpoint::set_cqs`]). Drive the reactor with
/// [`Reactor::poll`] on every node wake; it performs one bounded round
/// of CQ draining, dispatch and servicing, and reports which endpoints
/// are ready.
pub struct Reactor {
    send_cq: CqId,
    recv_cq: CqId,
    cfg: ReactorConfig,
    slots: Vec<Option<Slot>>,
    free: Vec<u32>,
    /// Occupied entries of `slots`.
    live: usize,
    /// Owning slot, indexed by QP number (dense per node, counted from
    /// 1).
    by_qpn: Vec<Option<u32>>,
    /// Next slab slot to service first (round-robin fairness cursor).
    cursor: usize,
    /// Slots that get a service turn in the next poll: completions
    /// queued, progress owed on every poll, or borrowed by the
    /// application since their last turn. See the module docs for the
    /// three sets.
    work: SlotSet,
    /// Slots that were ready at their last turn — exact whenever `work`
    /// holds every borrowed slot, so exact once a poll's service rounds
    /// are over.
    ready: SlotSet,
    /// Slots that owed traffic to the wire at their last turn, plus
    /// those borrowed since: every endpoint with unsent traffic is a
    /// member, a member need not have any.
    unsent: SlotSet,
    /// Slots the last poll left with completions still queued.
    deferred: usize,
    /// Last drain stopped at the batch bound with the CQ possibly
    /// non-empty.
    saturated: bool,
    stats: ReactorStats,
    /// Slots [`Reactor::has_unsent`] looked at since the last poll,
    /// which adds them to [`ReactorStats::slots_visited`].
    probed: Cell<u64>,
    scratch: Vec<Cqe>,
}

impl Reactor {
    /// Creates a reactor draining the two shared CQs.
    pub fn new(send_cq: CqId, recv_cq: CqId, cfg: ReactorConfig) -> Reactor {
        assert!(cfg.cqe_budget > 0, "cqe_budget must be positive");
        assert!(cfg.drain_batch > 0, "drain_batch must be positive");
        Reactor {
            send_cq,
            recv_cq,
            cfg,
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
            by_qpn: Vec::new(),
            cursor: 0,
            work: SlotSet::default(),
            ready: SlotSet::default(),
            unsent: SlotSet::default(),
            deferred: 0,
            saturated: false,
            stats: ReactorStats::default(),
            probed: Cell::new(0),
            scratch: Vec::new(),
        }
    }

    /// The shared send CQ.
    pub fn send_cq(&self) -> CqId {
        self.send_cq
    }

    /// The shared receive CQ.
    pub fn recv_cq(&self) -> CqId {
        self.recv_cq
    }

    /// Accepts an endpoint — a [`crate::StreamSocket`] or a
    /// [`crate::MuxEndpoint`] — into the event loop: every QP it owns
    /// (a pool's future ones after `Reactor::index_qps`) is
    /// dispatched back to it by QP number. Its CQs must be this
    /// reactor's shared CQs.
    pub fn accept(&mut self, ep: impl Into<Endpoint>) -> ConnId {
        let ep = ep.into();
        if let Some(cqs) = ep.cqs() {
            assert_eq!(
                cqs,
                (self.send_cq, self.recv_cq),
                "endpoint must complete onto the reactor's shared CQs"
            );
        }
        let slot = Some(Slot {
            ep,
            queued: VecDeque::new(),
        });
        self.stats.conns_added += 1;
        self.live += 1;
        let id = match self.free.pop() {
            Some(idx) => {
                self.slots[idx as usize] = slot;
                ConnId(idx)
            }
            None => {
                self.slots.push(slot);
                ConnId((self.slots.len() - 1) as u32)
            }
        };
        self.index_qps(id);
        self.borrowed(id.0 as usize);
        id
    }

    /// The application got `&mut` access to slot `idx`: whatever it
    /// does there, the next poll gives the slot a turn and recomputes
    /// its set memberships, and until then it counts as possibly owing
    /// traffic.
    fn borrowed(&mut self, idx: usize) {
        self.work.set(idx, true);
        self.unsent.set(idx, true);
    }

    /// Re-scans a hosted endpoint's QPs and indexes those established
    /// since the last scan. Call after lazily connecting new pool
    /// slots on an endpoint that is already hosted.
    pub(crate) fn index_qps(&mut self, id: ConnId) {
        let Reactor { slots, by_qpn, .. } = self;
        let slot = slots[id.0 as usize].as_ref().expect("live conn");
        slot.ep.for_each_qpn(|qpn| {
            let idx = qpn.0 as usize;
            if by_qpn.len() <= idx {
                by_qpn.resize(idx + 1, None);
            }
            let prev = by_qpn[idx].replace(id.0);
            assert!(
                prev.is_none_or(|p| p == id.0),
                "QP {qpn:?} already hosted by another endpoint"
            );
        });
    }

    /// Removes an endpoint, returning it. Completions still in flight
    /// for its QPs are dropped (counted as orphans).
    pub fn remove(&mut self, id: ConnId) -> Endpoint {
        let idx = id.0 as usize;
        let slot = self.slots[idx].take().expect("removing a live connection");
        // QPs a pool established since the last `index_qps` have no
        // entry to clear.
        let by_qpn = &mut self.by_qpn;
        slot.ep.for_each_qpn(|qpn| {
            if let Some(owner) = by_qpn.get_mut(qpn.0 as usize) {
                *owner = None;
            }
        });
        for set in [&mut self.work, &mut self.ready, &mut self.unsent] {
            set.set(idx, false);
        }
        if !slot.queued.is_empty() {
            self.deferred -= 1;
        }
        self.free.push(id.0);
        self.live -= 1;
        self.stats.conns_removed += 1;
        self.stats.orphan_cqes += slot.queued.len() as u64;
        slot.ep
    }

    /// Number of live endpoints.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when nothing is hosted.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Shared access to a hosted endpoint, or `None` for a stale id.
    ///
    /// The `try_*` accessors exist for callers that legitimately race
    /// removal against deferred wake-ups — the aio layer's waker
    /// dispatch, for one — and must treat a recycled slab index as an
    /// observable condition instead of a panic.
    pub fn try_conn(&self, id: ConnId) -> Option<&Endpoint> {
        self.slots.get(id.0 as usize)?.as_ref().map(|s| &s.ep)
    }

    /// Exclusive access to a hosted endpoint, or `None` for a stale id.
    pub fn try_conn_mut(&mut self, id: ConnId) -> Option<&mut Endpoint> {
        let idx = id.0 as usize;
        self.slots.get(idx)?.as_ref()?;
        self.borrowed(idx);
        self.slots[idx].as_mut().map(|s| &mut s.ep)
    }

    /// Shared access to a hosted endpoint.
    pub fn conn(&self, id: ConnId) -> &Endpoint {
        self.try_conn(id).expect("live conn")
    }

    /// Exclusive access to a hosted endpoint (post sends/receives).
    pub fn conn_mut(&mut self, id: ConnId) -> &mut Endpoint {
        self.try_conn_mut(id).expect("live conn")
    }

    /// Live endpoint ids, in slab order.
    pub fn conn_ids(&self) -> Vec<ConnId> {
        (0..self.slots.len() as u32)
            .filter(|&i| self.slots[i as usize].is_some())
            .map(ConnId)
            .collect()
    }

    /// Aggregate event-loop statistics.
    pub fn stats(&self) -> &ReactorStats {
        &self.stats
    }

    /// Sum of all hosted endpoints' protocol counters.
    pub fn aggregate_conn_stats(&self) -> ConnStats {
        let mut total = ConnStats::default();
        for slot in self.slots.iter().flatten() {
            total.merge(slot.ep.stats());
        }
        total
    }

    /// One bounded reactor step: drains the shared CQs in batches,
    /// dispatches completions to their owning endpoints, services each
    /// endpoint under the per-poll budget, and returns the endpoints
    /// that are readable, closed or failed. Level-triggered: an
    /// endpoint stays in the result until the condition is gone (events
    /// taken, stream closed handled, ...).
    pub fn poll(&mut self, api: &mut impl VerbsPort) -> Vec<(ConnId, Readiness)> {
        let mut ready = Vec::new();
        self.poll_into(api, &mut ready);
        ready
    }

    /// [`Reactor::poll`], writing the readiness set into a
    /// caller-owned buffer instead of allocating one. `out` is cleared
    /// first. Hot loops (the aio pump, fan-in servers) keep one buffer
    /// per reactor and reuse it across polls so the steady-state
    /// dispatch path performs no allocation.
    pub fn poll_into(&mut self, api: &mut impl VerbsPort, out: &mut Vec<(ConnId, Readiness)>) {
        out.clear();
        self.stats.polls += 1;
        self.stats.slots_visited += self.probed.take();
        let recv_full = self.drain_cq(api, CqSide::Recv);
        let send_full = self.drain_cq(api, CqSide::Send);
        self.saturated = recv_full || send_full;
        self.deferred = 0;

        // Service round for single-stream endpoints: start at the
        // fairness cursor so the one served first rotates between
        // polls.
        let n = self.slots.len();
        if n > 0 {
            self.cursor %= n;
            for (from, to) in [(self.cursor, n), (0, self.cursor)] {
                let mut at = from;
                while let Some(idx) = self.work.next(at).filter(|&idx| idx < to) {
                    self.turn(api, idx, false);
                    at = idx + 1;
                }
            }
            self.cursor = (self.cursor + 1) % n;
        }
        // Multi-stream endpoints do their own per-stream fairness; they
        // are served after the rotation, in slab order (an endpoint's
        // readiness depends on nothing but itself).
        let mut at = 0;
        while let Some(idx) = self.work.next(at) {
            self.turn(api, idx, true);
            at = idx + 1;
        }
        // Every slot borrowed since its last turn has just had one, so
        // `ready` is exact.
        for idx in self.ready.iter() {
            self.stats.slots_visited += 1;
            let slot = self.slots[idx].as_ref().expect("ready slots are live");
            out.push((ConnId(idx as u32), slot.ep.readiness()));
        }
        self.stats.readiness_reports += out.len() as u64;
    }

    /// Slot `idx`'s service turn in the round for multi-stream
    /// endpoints or the one for single-stream endpoints — a slot of
    /// the other kind is passed over — and the one place its set
    /// memberships are recomputed.
    fn turn(&mut self, api: &mut impl VerbsPort, idx: usize, multi_stream: bool) {
        self.stats.slots_visited += 1;
        let slot = self.slots[idx].as_mut().expect("work slots are live");
        if slot.ep.multi_stream() != multi_stream {
            return;
        }
        slot.serve(api, &self.cfg, &mut self.stats);
        let deferred = !slot.queued.is_empty();
        self.deferred += usize::from(deferred);
        self.work
            .set(idx, deferred || slot.ep.progressed_every_poll());
        self.ready.set(idx, slot.ep.readiness().any());
        self.unsent.set(idx, slot.ep.has_unsent());
    }

    /// Returns true if the drain stopped at the per-poll bound (the CQ
    /// may still hold completions).
    fn drain_cq(&mut self, api: &mut impl VerbsPort, side: CqSide) -> bool {
        let cq = match side {
            CqSide::Recv => self.recv_cq,
            CqSide::Send => self.send_cq,
        };
        let mut drained = 0usize;
        while drained < self.cfg.drain_batch {
            let want = self.cfg.drain_batch - drained;
            self.scratch.clear();
            let got = api
                .poll_cq(cq, want, &mut self.scratch)
                .expect("poll shared cq");
            if got == 0 {
                break;
            }
            drained += got;
            self.stats.cq_batches += 1;
            self.stats.max_cq_batch = self.stats.max_cq_batch.max(got as u64);
            for cqe in self.scratch.drain(..) {
                match self.by_qpn.get(cqe.qpn.0 as usize).copied().flatten() {
                    Some(idx) => {
                        self.slots[idx as usize]
                            .as_mut()
                            .expect("by_qpn points at a live slot")
                            .queued
                            .push_back((side, cqe));
                        self.work.set(idx as usize, true);
                        self.stats.cqes_dispatched += 1;
                    }
                    None => self.stats.orphan_cqes += 1,
                }
            }
        }
        drained == self.cfg.drain_batch
    }

    /// True when the last poll left work behind — a CQ drain hit the
    /// per-poll bound, or an endpoint hit its budget with completions
    /// still queued. Drivers must poll again promptly (next simulator
    /// timer tick, or without re-parking on the completion signal):
    /// wake-ups are edge-triggered, and deferred work generates no new
    /// edge.
    pub fn has_backlog(&self) -> bool {
        self.saturated || self.deferred > 0
    }

    /// True while any hosted endpoint still owes traffic to the wire
    /// (see `crate::StreamSocket::has_unsent`). A service loop that
    /// exits while this holds can strand a peer — most visibly an
    /// un-flushed FIN after a shutdown, which leaves the other side
    /// waiting for an end-of-stream that never comes. Broken endpoints
    /// are ignored.
    pub fn has_unsent(&self) -> bool {
        self.unsent.iter().any(|idx| {
            self.probed.set(self.probed.get() + 1);
            let slot = self.slots[idx].as_ref().expect("unsent slots are live");
            slot.ep.has_unsent()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ExsConfig, MuxEvent, StreamSocket};
    use rdma_verbs::{Access, HcaConfig, HostModel, NodeApi, NodeApp, NodeId, SimNet};
    use simnet::{LinkConfig, SimDuration, SimTime};

    /// A node whose application never reacts: what the fabric delivers
    /// stays in its CQs until the test polls.
    struct Parked;

    impl NodeApp for Parked {
        fn on_start(&mut self, _: &mut NodeApi<'_>) {}
        fn on_wake(&mut self, _: &mut NodeApi<'_>) {}
    }

    /// A reactor on node `b` hosting `idle` sockets nobody talks to and
    /// then one more, whose id and peer socket (on node `a`) are
    /// returned. Every slot has had its first turn.
    fn hosting(
        idle: usize,
        cfg: ReactorConfig,
    ) -> (SimNet, NodeId, NodeId, Reactor, ConnId, StreamSocket) {
        let exs = ExsConfig {
            ring_capacity: 4096,
            credits: 8,
            sq_depth: 8,
            ..ExsConfig::default()
        };
        let mut net = SimNet::new();
        let a = net.add_node(HostModel::free(), HcaConfig::default());
        let b = net.add_node(HostModel::free(), HcaConfig::default());
        let link = LinkConfig::simple(100_000_000_000, SimDuration::from_micros(1));
        net.connect_nodes(a, b, link, 0);
        let depth = exs.cq_depth(idle + 1);
        let (scq, rcq) = net.with_api(b, |api| (api.create_cq(depth), api.create_cq(depth)));
        let mut reactor = Reactor::new(scq, rcq, cfg);
        let mut last = None;
        for _ in 0..=idle {
            let (peer, hosted) = StreamSocket::pair_shared(&mut net, a, b, scq, rcq, &exs);
            last = Some((reactor.accept(hosted), peer));
        }
        let (id, peer) = last.expect("at least the busy socket");
        net.with_api(b, |api| reactor.poll(api));
        (net, a, b, reactor, id, peer)
    }

    /// Sends `msgs` 64-byte messages from `peer` and lets the fabric
    /// deliver them; their completions wait in the reactor's CQs.
    fn deliver(net: &mut SimNet, a: NodeId, peer: &mut StreamSocket, msgs: u64) {
        net.with_api(a, |api| {
            let mr = api.register_mr(64, Access::NONE);
            for id in 0..msgs {
                peer.exs_send(api, &mr, 0, 64, id);
            }
        });
        net.run(&mut [&mut Parked, &mut Parked], SimTime::from_secs(1));
    }

    #[test]
    fn a_poll_visits_the_slots_with_work_however_many_are_hosted() {
        let visits = |idle: usize| {
            let (mut net, a, b, mut reactor, busy, mut peer) =
                hosting(idle, ReactorConfig::default());
            net.with_api(b, |api| {
                let mr = api.register_mr(64, Access::local_remote_write());
                reactor
                    .conn_mut(busy)
                    .recv(api, 0, &mr, 0, 64, false, 7)
                    .expect("receive on an open stream");
                reactor.poll(api);
            });
            deliver(&mut net, a, &mut peer, 1);
            let mut per_poll = Vec::new();
            net.with_api(b, |api| {
                let mut ready = Vec::new();
                for poll in 0..4 {
                    let before = reactor.stats().slots_visited;
                    reactor.poll_into(api, &mut ready);
                    per_poll.push(reactor.stats().slots_visited - before);
                    assert_eq!(ready.len(), 1, "the busy socket, and only it");
                    assert_eq!((ready[0].0, ready[0].1.readable), (busy, true));
                    // The predicates before every poll but the last:
                    // they look at no slot, so the last costs the same.
                    if poll < 2 {
                        assert!(!reactor.has_backlog() && !reactor.has_unsent());
                    }
                }
            });
            assert_eq!(reactor.stats().cqes_dispatched, 1);
            let got = reactor.conn_mut(busy).take_events();
            assert_eq!(
                got,
                [MuxEvent::RecvComplete {
                    stream: 0,
                    id: 7,
                    len: 64
                }]
            );
            per_poll
        };
        let few = visits(8);
        assert_eq!(few, visits(512), "visits per poll, 8 idle sockets vs 512");
        // The poll that applies the completion gives the socket its
        // turn and reports it; the later ones only report it.
        assert_eq!(few, [2, 1, 1, 1]);
    }

    #[test]
    fn a_recycled_id_inherits_nothing_from_the_endpoint_before_it() {
        let cfg = ReactorConfig {
            cqe_budget: 1,
            ..ReactorConfig::default()
        };
        let (mut net, a, b, mut reactor, id, mut peer) = hosting(2, cfg);
        net.with_api(b, |api| {
            let mr = api.register_mr(64, Access::local_remote_write());
            reactor
                .conn_mut(id)
                .recv(api, 0, &mr, 0, 64, false, 7)
                .expect("receive on an open stream");
            reactor.poll(api);
        });
        deliver(&mut net, a, &mut peer, 3);
        let ready = net.with_api(b, |api| reactor.poll(api));
        // Ready, backlogged (budget 1 of 3 completions) and borrowed.
        assert!(ready.iter().any(|&(c, r)| c == id && r.readable));
        assert!(reactor.has_backlog());
        assert_eq!(reactor.stats().deferrals, 1);

        drop(reactor.remove(id));
        assert_eq!(reactor.len(), 2);
        assert!(!reactor.has_backlog(), "the backlog left with its slot");
        assert_eq!(reactor.stats().orphan_cqes, 2);

        let exs = ExsConfig::default();
        let (scq, rcq) = (reactor.send_cq(), reactor.recv_cq());
        let (_fresh_peer, fresh) = StreamSocket::pair_shared(&mut net, a, b, scq, rcq, &exs);
        assert_eq!(reactor.accept(fresh), id, "slab ids are recycled");
        assert_eq!(reactor.len(), 3);
        // The old endpoint's QP is nobody's: what still arrives on it is
        // an orphan, not a completion for the slot's new tenant — one
        // new message, and one completion of what the old endpoint had
        // in flight when it left.
        deliver(&mut net, a, &mut peer, 1);
        let ready = net.with_api(b, |api| reactor.poll(api));
        assert!(ready.is_empty(), "stale readiness: {ready:?}");
        assert!(!reactor.has_backlog() && !reactor.has_unsent());
        assert_eq!(reactor.stats().orphan_cqes, 4);
        assert_eq!(reactor.conn(id).events_pending(), 0);
    }

    #[test]
    fn readiness_any() {
        let r = Readiness {
            closed: true,
            ..Readiness::NONE
        };
        assert!(r.any());
        assert!(!Readiness::NONE.any());
    }
}
