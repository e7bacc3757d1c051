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
//!   queued for the application; a single-stream endpoint also writable
//!   while a new send would dispatch immediately, closed/error when its
//!   stream ended (a multi-stream endpoint says those per stream, as
//!   events).
//!
//! What is *not* independent of connection count is the reactor's own
//! bookkeeping: each [`Reactor::poll_into`] walks every slot twice (the
//! service round, then the readiness scan), and
//! [`Reactor::has_backlog`] / [`Reactor::has_unsent`] walk them once
//! more, so a poll costs O(endpoints) host time even when one had
//! work. Only [`Reactor::len`] / [`Reactor::is_empty`] are O(1).
//!
//! The reactor is backend-agnostic: it drives any [`VerbsPort`], so the
//! same code runs one step per wake deterministically under the
//! discrete-event simulator and inside a shard's service thread over
//! the real-thread fabric (see [`crate::threaded::ThreadReactorPool`]).
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
/// `epoll`'s `EPOLLIN`/`EPOLLOUT`/`EPOLLHUP`/`EPOLLERR`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Readiness {
    /// Completion events are queued: [`Endpoint::take_events`] returns
    /// at least one event right now.
    pub readable: bool,
    /// A new `exs_send` would start dispatching immediately (sending
    /// direction open, no queued sends ahead of it).
    pub writable: bool,
    /// The peer half-closed and its stream fully drained (`EPOLLHUP`).
    pub closed: bool,
    /// The transport failed underneath the connection (`EPOLLERR`).
    pub error: bool,
}

impl Readiness {
    /// Readiness with every flag clear.
    pub const NONE: Readiness = Readiness {
        readable: false,
        writable: false,
        closed: false,
        error: false,
    };

    /// Interest mask selecting only readable/closed/error — the default
    /// registration (writable is true most of the time on an idle
    /// connection and would dominate every poll result).
    pub const INPUT: Readiness = Readiness {
        readable: true,
        writable: false,
        closed: true,
        error: true,
    };

    /// Interest mask selecting every flag.
    pub const ALL: Readiness = Readiness {
        readable: true,
        writable: true,
        closed: true,
        error: true,
    };

    /// True if any flag is set.
    pub fn any(&self) -> bool {
        self.readable || self.writable || self.closed || self.error
    }

    /// Flag-wise AND (readiness filtered through an interest mask).
    pub fn mask(&self, interest: Readiness) -> Readiness {
        Readiness {
            readable: self.readable && interest.readable,
            writable: self.writable && interest.writable,
            closed: self.closed && interest.closed,
            error: self.error && interest.error,
        }
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
    interest: Readiness,
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
    /// Last drain stopped at the batch bound with the CQ possibly
    /// non-empty.
    saturated: bool,
    stats: ReactorStats,
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
            saturated: false,
            stats: ReactorStats::default(),
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
    /// (a pool's future ones after [`Reactor::index_qps`]) is
    /// dispatched back to it by QP number. Its CQs must be this
    /// reactor's shared CQs. Default interest is [`Readiness::INPUT`].
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
            interest: Readiness::INPUT,
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
        id
    }

    /// Re-scans a hosted endpoint's QPs and indexes those established
    /// since the last scan. Call after lazily connecting new pool
    /// slots on an endpoint that is already hosted.
    pub fn index_qps(&mut self, id: ConnId) {
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
        let slot = self.slots[id.0 as usize]
            .take()
            .expect("removing a live connection");
        for owner in &mut self.by_qpn {
            if *owner == Some(id.0) {
                *owner = None;
            }
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
        self.slots
            .get_mut(id.0 as usize)?
            .as_mut()
            .map(|s| &mut s.ep)
    }

    /// Shared access to a hosted endpoint.
    pub fn conn(&self, id: ConnId) -> &Endpoint {
        self.try_conn(id).expect("live conn")
    }

    /// Exclusive access to a hosted endpoint (post sends/receives).
    pub fn conn_mut(&mut self, id: ConnId) -> &mut Endpoint {
        self.try_conn_mut(id).expect("live conn")
    }

    /// Sets which readiness flags [`Reactor::poll`] reports for this
    /// endpoint (epoll_ctl-style re-registration).
    pub fn set_interest(&mut self, id: ConnId, interest: Readiness) {
        self.slots[id.0 as usize]
            .as_mut()
            .expect("live conn")
            .interest = interest;
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
    /// whose readiness intersects their interest. Level-triggered: an
    /// endpoint stays in the result until the condition is gone (events
    /// taken, stream closed handled, ...).
    pub fn poll(&mut self, api: &mut impl VerbsPort) -> Vec<(ConnId, Readiness)> {
        let mut ready = Vec::new();
        self.poll_into(api, &mut ready);
        ready
    }

    /// [`Reactor::poll`], writing the readiness set into a
    /// caller-owned buffer instead of allocating one. `out` is cleared
    /// first. Hot loops (shard service threads, the aio pump, fan-in
    /// servers) keep one buffer per reactor and reuse it across polls
    /// so the steady-state dispatch path performs no allocation.
    pub fn poll_into(&mut self, api: &mut impl VerbsPort, out: &mut Vec<(ConnId, Readiness)>) {
        out.clear();
        self.stats.polls += 1;
        let recv_full = self.drain_cq(api, CqSide::Recv);
        let send_full = self.drain_cq(api, CqSide::Send);
        self.saturated = recv_full || send_full;

        // Service round for single-stream endpoints: start at the
        // fairness cursor so the one served first rotates between
        // polls.
        let n = self.slots.len();
        if n > 0 {
            self.cursor %= n;
            for step in 0..n {
                match &mut self.slots[(self.cursor + step) % n] {
                    Some(slot) if !slot.ep.multi_stream() => {
                        slot.serve(api, &self.cfg, &mut self.stats)
                    }
                    _ => {}
                }
            }
            self.cursor = (self.cursor + 1) % n;
        }
        // Multi-stream endpoints do their own per-stream fairness; they
        // are served after the rotation, in slab order, on the way
        // through the readiness scan (an endpoint's readiness depends
        // on nothing but itself).
        for (idx, slot) in self.slots.iter_mut().enumerate() {
            let Some(slot) = slot else { continue };
            if slot.ep.multi_stream() {
                slot.serve(api, &self.cfg, &mut self.stats);
            }
            let readiness = slot.ep.readiness().mask(slot.interest);
            if readiness.any() {
                out.push((ConnId(idx as u32), readiness));
            }
        }
        self.stats.readiness_reports += out.len() as u64;
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
        self.saturated
            || self
                .slots
                .iter()
                .flatten()
                .any(|slot| !slot.queued.is_empty())
    }

    /// True while any hosted endpoint still owes traffic to the wire
    /// (see [`crate::StreamSocket::has_unsent`]). A service loop that
    /// exits while this holds can strand a peer — most visibly an
    /// un-flushed FIN after a shutdown, which leaves the other side
    /// waiting for an end-of-stream that never comes. Broken endpoints
    /// are ignored.
    pub fn has_unsent(&self) -> bool {
        self.slots.iter().flatten().any(|slot| slot.ep.has_unsent())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn readiness_mask_and_any() {
        let r = Readiness {
            readable: true,
            writable: true,
            closed: false,
            error: false,
        };
        assert!(r.any());
        let masked = r.mask(Readiness::INPUT);
        assert!(masked.readable && !masked.writable);
        assert!(!Readiness::NONE.any());
        assert_eq!(r.mask(Readiness::ALL), r);
    }
}
