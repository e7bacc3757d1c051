//! Readiness-based multiplexing of many EXS streams on one node.
//!
//! A server that terminates thousands of EXS connections cannot afford
//! one CQ poll — let alone one thread — per connection. The UNH EXS
//! library answers with an event-queue design; this module is the
//! equivalent of `epoll` for [`StreamSocket`]s:
//!
//! * every accepted connection's QP completes onto **one shared send CQ
//!   and one shared receive CQ** (see
//!   [`rdma_verbs::connect_pair_on_cqs`]), so a wake-up costs one
//!   batched drain of two CQs — two verbs calls — regardless of
//!   connection count;
//! * drained completions are **dispatched by QP number** (an index into
//!   a table, QP numbers being dense per node) to the owning
//!   connection, then connections are serviced **round-robin with a
//!   bounded per-poll budget** — a blast-heavy peer cannot starve the
//!   other nine hundred;
//! * [`Reactor::poll`] returns **level-triggered readiness** — a
//!   connection is reported readable as long as completion events are
//!   queued for the application, writable while a new send would
//!   dispatch immediately, closed/error when the stream ended.
//!
//! What is *not* independent of connection count is the reactor's own
//! bookkeeping: each [`Reactor::poll_into`] walks every connection slot
//! twice (the service round, then the readiness scan), and
//! [`Reactor::has_backlog`] / [`Reactor::has_unsent`] walk them once
//! more, so a poll costs O(connections) host time even when one
//! connection had work. Only [`Reactor::len`] / [`Reactor::is_empty`]
//! are O(1).
//!
//! The reactor is backend-agnostic: it drives any [`VerbsPort`], so the
//! same code runs one step per wake deterministically under the
//! discrete-event simulator and inside a shard's service thread over
//! the real-thread fabric (see [`crate::threaded::ThreadReactorPool`]).
//!
//! ```text
//!    shared recv CQ ─┐  batched drain   ┌─ conn 0 queue ─ service ≤ budget
//!    shared send CQ ─┴─────────────────►├─ conn 1 queue ─ service ≤ budget
//!                      dispatch by qpn  └─ conn N queue ─ ... (round-robin)
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

use rdma_verbs::{CqId, Cqe, QpNum};

use crate::mux::{MuxEndpoint, MuxEvent};
use crate::port::VerbsPort;
use crate::stats::{ConnStats, ReactorStats};
use crate::stream::{ExsEvent, StreamSocket};

/// Stable handle for a connection owned by a [`Reactor`].
///
/// Ids are slab indices: they are reused after
/// [`Reactor::remove`], like Unix file descriptors.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ConnId(pub u32);

/// Stable handle for a [`MuxEndpoint`] hosted by a [`Reactor`].
///
/// Slab-index semantics like [`ConnId`], in a separate namespace: one
/// endpoint carries *many* streams, so it is not a connection.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MuxId(pub u32);

/// Level-triggered readiness flags for one connection, in the spirit of
/// `epoll`'s `EPOLLIN`/`EPOLLOUT`/`EPOLLHUP`/`EPOLLERR`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Readiness {
    /// Completion events are queued: [`Reactor::take_events`] returns
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

/// Which handler a queued completion belongs to.
#[derive(Clone, Copy)]
enum CqSide {
    Recv,
    Send,
}

struct Conn {
    sock: StreamSocket,
    /// Completions dispatched to this connection and not yet serviced
    /// (non-empty only after a budget deferral).
    queued: VecDeque<(CqSide, Cqe)>,
    interest: Readiness,
}

struct MuxHost {
    ep: MuxEndpoint,
    /// Completions dispatched to this endpoint and not yet serviced.
    queued: VecDeque<(CqSide, Cqe)>,
}

/// Which handler owns a QP number on the shared CQ pair.
#[derive(Clone, Copy)]
enum Owner {
    Conn(u32),
    Mux(u32),
}

/// An epoll-style event loop owning many [`StreamSocket`]s on one node.
///
/// All sockets must share this reactor's send and receive CQs (build
/// them with [`StreamSocket::pair_shared`] or
/// [`rdma_verbs::connect_pair_on_cqs`]). Drive the reactor with
/// [`Reactor::poll`] on every node wake; it performs one bounded round
/// of CQ draining, dispatch and servicing, and reports which
/// connections are ready.
pub struct Reactor {
    send_cq: CqId,
    recv_cq: CqId,
    cfg: ReactorConfig,
    conns: Vec<Option<Conn>>,
    free: Vec<u32>,
    /// Occupied entries of `conns`.
    live: usize,
    muxes: Vec<Option<MuxHost>>,
    mux_free: Vec<u32>,
    /// Indexed by QP number (dense per node, counted from 1).
    by_qpn: Vec<Option<Owner>>,
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
            conns: Vec::new(),
            free: Vec::new(),
            live: 0,
            muxes: Vec::new(),
            mux_free: Vec::new(),
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

    /// Accepts a connection into the event loop. The socket's CQs must
    /// be this reactor's shared CQs. Default interest is
    /// [`Readiness::INPUT`].
    pub fn accept(&mut self, sock: StreamSocket) -> ConnId {
        assert_eq!(
            (sock.send_cq(), sock.recv_cq()),
            (self.send_cq, self.recv_cq),
            "socket must complete onto the reactor's shared CQs"
        );
        let conn = Conn {
            queued: VecDeque::new(),
            interest: Readiness::INPUT,
            sock,
        };
        self.stats.conns_added += 1;
        self.live += 1;
        let idx = match self.free.pop() {
            Some(idx) => {
                self.conns[idx as usize] = Some(conn);
                idx
            }
            None => {
                self.conns.push(Some(conn));
                (self.conns.len() - 1) as u32
            }
        };
        let qpn = self.conns[idx as usize]
            .as_ref()
            .expect("just added")
            .sock
            .qpn();
        let prev = self.owner_entry(qpn).replace(Owner::Conn(idx));
        assert!(prev.is_none(), "duplicate QP {qpn:?} in reactor");
        ConnId(idx)
    }

    /// The `by_qpn` entry of `qpn`, growing the table to reach it.
    fn owner_entry(&mut self, qpn: QpNum) -> &mut Option<Owner> {
        let idx = qpn.0 as usize;
        if self.by_qpn.len() <= idx {
            self.by_qpn.resize(idx + 1, None);
        }
        &mut self.by_qpn[idx]
    }

    /// Hosts a [`MuxEndpoint`] in the event loop: every QP of its
    /// transport pool (current and future) completes onto the reactor's
    /// shared CQs and is dispatched back to the endpoint by QP number.
    /// The endpoint must have been prepared against this reactor's CQ
    /// pair (use [`Reactor::send_cq`]/[`Reactor::recv_cq`] with
    /// [`MuxEndpoint::prepare_transport`], or
    /// [`MuxEndpoint::set_cqs`] before the sim helper runs).
    pub fn accept_mux(&mut self, ep: MuxEndpoint) -> MuxId {
        if let Some(cqs) = ep.cqs() {
            assert_eq!(
                cqs,
                (self.send_cq, self.recv_cq),
                "endpoint must complete onto the reactor's shared CQs"
            );
        }
        let host = MuxHost {
            ep,
            queued: VecDeque::new(),
        };
        let idx = match self.mux_free.pop() {
            Some(idx) => {
                self.muxes[idx as usize] = Some(host);
                idx
            }
            None => {
                self.muxes.push(Some(host));
                (self.muxes.len() - 1) as u32
            }
        };
        let id = MuxId(idx);
        self.index_mux_transports(id);
        id
    }

    /// Re-scans a hosted endpoint's transport pool and indexes QPs
    /// established since the last scan. Call after lazily connecting
    /// new pool slots on an endpoint that is already hosted.
    pub fn index_mux_transports(&mut self, id: MuxId) {
        let ep = &self.muxes[id.0 as usize].as_ref().expect("live mux").ep;
        let mut qpns = Vec::new();
        for slot in 0..ep.pool_size() {
            if let Some(qpn) = ep.slot_qpn(slot) {
                qpns.push(qpn);
            }
        }
        for qpn in qpns {
            match self.owner_entry(qpn).replace(Owner::Mux(id.0)) {
                None => {}
                Some(Owner::Mux(prev)) if prev == id.0 => {}
                Some(_) => panic!("QP {qpn:?} already owned by another handler"),
            }
        }
    }

    /// Removes a hosted endpoint, returning it. Completions still in
    /// flight for its QPs are dropped (counted as orphans).
    pub fn remove_mux(&mut self, id: MuxId) -> MuxEndpoint {
        let host = self.muxes[id.0 as usize]
            .take()
            .expect("removing a live mux endpoint");
        for owner in &mut self.by_qpn {
            if matches!(owner, Some(Owner::Mux(i)) if *i == id.0) {
                *owner = None;
            }
        }
        self.mux_free.push(id.0);
        self.stats.orphan_cqes += host.queued.len() as u64;
        host.ep
    }

    /// Shared access to a hosted endpoint, or `None` for a stale id.
    ///
    /// The `try_*` accessors exist for callers that legitimately race
    /// endpoint removal against deferred wake-ups — the aio layer's
    /// waker dispatch, for one — and must treat a recycled slab index
    /// as an observable condition instead of a panic.
    pub fn try_mux(&self, id: MuxId) -> Option<&MuxEndpoint> {
        self.muxes.get(id.0 as usize)?.as_ref().map(|h| &h.ep)
    }

    /// Exclusive access to a hosted endpoint, or `None` for a stale id.
    pub fn try_mux_mut(&mut self, id: MuxId) -> Option<&mut MuxEndpoint> {
        self.muxes
            .get_mut(id.0 as usize)?
            .as_mut()
            .map(|h| &mut h.ep)
    }

    /// Shared access to a hosted endpoint.
    pub fn mux(&self, id: MuxId) -> &MuxEndpoint {
        self.try_mux(id).expect("live mux")
    }

    /// Exclusive access to a hosted endpoint (open streams, post
    /// sends/receives). After establishing new transports through this
    /// handle, call [`Reactor::index_mux_transports`].
    pub fn mux_mut(&mut self, id: MuxId) -> &mut MuxEndpoint {
        self.try_mux_mut(id).expect("live mux")
    }

    /// Takes the queued user events of one hosted endpoint, or
    /// [`ExsError::Stale`] for an id that is no longer registered.
    pub fn try_take_mux_events(&mut self, id: MuxId) -> Result<Vec<MuxEvent>, crate::ExsError> {
        self.try_mux_mut(id)
            .map(|ep| ep.take_events())
            .ok_or(crate::ExsError::Stale)
    }

    /// Takes the queued user events of one hosted endpoint.
    pub fn take_mux_events(&mut self, id: MuxId) -> Vec<MuxEvent> {
        self.try_take_mux_events(id).expect("live mux")
    }

    /// Removes a connection, returning the socket. Completions still in
    /// flight for its QP are dropped (counted as orphans).
    pub fn remove(&mut self, id: ConnId) -> StreamSocket {
        let conn = self.conns[id.0 as usize]
            .take()
            .expect("removing a live connection");
        *self.owner_entry(conn.sock.qpn()) = None;
        self.free.push(id.0);
        self.live -= 1;
        self.stats.conns_removed += 1;
        self.stats.orphan_cqes += conn.queued.len() as u64;
        conn.sock
    }

    /// Number of live connections.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when no connections are registered.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Shared access to a connection's socket, or `None` for a stale
    /// id (see [`Reactor::try_mux`] for why these exist).
    pub fn try_conn(&self, id: ConnId) -> Option<&StreamSocket> {
        self.conns.get(id.0 as usize)?.as_ref().map(|c| &c.sock)
    }

    /// Exclusive access to a connection's socket, or `None` for a
    /// stale id.
    pub fn try_conn_mut(&mut self, id: ConnId) -> Option<&mut StreamSocket> {
        self.conns
            .get_mut(id.0 as usize)?
            .as_mut()
            .map(|c| &mut c.sock)
    }

    /// Shared access to a connection's socket.
    pub fn conn(&self, id: ConnId) -> &StreamSocket {
        self.try_conn(id).expect("live conn")
    }

    /// Exclusive access to a connection's socket (post sends/receives).
    pub fn conn_mut(&mut self, id: ConnId) -> &mut StreamSocket {
        self.try_conn_mut(id).expect("live conn")
    }

    /// Sets which readiness flags [`Reactor::poll`] reports for this
    /// connection (epoll_ctl-style re-registration).
    pub fn set_interest(&mut self, id: ConnId, interest: Readiness) {
        self.conns[id.0 as usize]
            .as_mut()
            .expect("live conn")
            .interest = interest;
    }

    /// Takes the queued completion events of one connection, or
    /// [`ExsError::Stale`] for an id that is no longer registered.
    pub fn try_take_events(&mut self, id: ConnId) -> Result<Vec<ExsEvent>, crate::ExsError> {
        self.try_conn_mut(id)
            .map(|sock| sock.take_events())
            .ok_or(crate::ExsError::Stale)
    }

    /// Takes the queued completion events of one connection.
    pub fn take_events(&mut self, id: ConnId) -> Vec<ExsEvent> {
        self.try_take_events(id).expect("live conn")
    }

    /// Live connection ids, in slab order.
    pub fn conn_ids(&self) -> Vec<ConnId> {
        (0..self.conns.len() as u32)
            .filter(|&i| self.conns[i as usize].is_some())
            .map(ConnId)
            .collect()
    }

    /// Aggregate event-loop statistics.
    pub fn stats(&self) -> &ReactorStats {
        &self.stats
    }

    /// Sum of all live connections' (and hosted mux endpoints')
    /// protocol counters.
    pub fn aggregate_conn_stats(&self) -> ConnStats {
        let mut total = ConnStats::default();
        for conn in self.conns.iter().flatten() {
            total.merge(conn.sock.stats());
        }
        for host in self.muxes.iter().flatten() {
            total.merge(host.ep.stats());
        }
        total
    }

    /// One bounded reactor step: drains the shared CQs in batches,
    /// dispatches completions to their owning connections, services
    /// each connection round-robin under the per-poll budget, and
    /// returns the connections whose readiness intersects their
    /// interest. Level-triggered: a connection stays in the result
    /// until the condition is gone (events taken, stream closed
    /// handled, ...).
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

        // Service round: start at the fairness cursor so the connection
        // served first rotates between polls.
        let n = self.conns.len();
        if n > 0 {
            self.cursor %= n;
            for step in 0..n {
                let idx = (self.cursor + step) % n;
                self.service_conn(api, idx);
            }
            self.cursor = (self.cursor + 1) % n;
        }
        // Hosted mux endpoints do their own per-stream fairness
        // internally; the reactor just bounds their per-poll CQE intake.
        for idx in 0..self.muxes.len() {
            self.service_mux(api, idx);
        }

        // Readiness scan.
        for (idx, slot) in self.conns.iter().enumerate() {
            let Some(conn) = slot else { continue };
            let readiness = Readiness {
                readable: conn.sock.events_pending() > 0,
                writable: conn.sock.writable(),
                closed: conn.sock.peer_closed(),
                error: conn.sock.is_broken(),
            }
            .mask(conn.interest);
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
                    Some(Owner::Conn(idx)) => {
                        self.conns[idx as usize]
                            .as_mut()
                            .expect("by_qpn points at live conn")
                            .queued
                            .push_back((side, cqe));
                        self.stats.cqes_dispatched += 1;
                    }
                    Some(Owner::Mux(idx)) => {
                        self.muxes[idx as usize]
                            .as_mut()
                            .expect("by_qpn points at live mux")
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
    /// per-poll bound, or a connection hit its budget with completions
    /// still queued. Drivers must poll again promptly (next simulator
    /// timer tick, or without re-parking on the completion signal):
    /// wake-ups are edge-triggered, and deferred work generates no new
    /// edge.
    pub fn has_backlog(&self) -> bool {
        self.saturated
            || self
                .conns
                .iter()
                .flatten()
                .any(|conn| !conn.queued.is_empty())
            || self
                .muxes
                .iter()
                .flatten()
                .any(|host| !host.queued.is_empty())
    }

    /// True while any registered socket or mux endpoint still owes
    /// traffic to the wire (see [`StreamSocket::has_unsent`]). A
    /// service loop that exits while this holds can strand a peer —
    /// most visibly an un-flushed FIN after `exs_shutdown`, which
    /// leaves the other side waiting for an end-of-stream that never
    /// comes. Broken endpoints are ignored.
    pub fn has_unsent(&self) -> bool {
        self.conns
            .iter()
            .flatten()
            .any(|conn| conn.sock.has_unsent())
            || self.muxes.iter().flatten().any(|host| host.ep.has_unsent())
    }

    fn service_conn(&mut self, api: &mut impl VerbsPort, idx: usize) {
        let Some(conn) = self.conns[idx].as_mut() else {
            return;
        };
        let mut served = 0usize;
        while served < self.cfg.cqe_budget {
            let Some((side, cqe)) = conn.queued.pop_front() else {
                break;
            };
            match side {
                CqSide::Recv => conn.sock.on_recv_cqe(api, cqe),
                CqSide::Send => conn.sock.on_send_cqe(api, cqe),
            }
            served += 1;
        }
        if !conn.queued.is_empty() {
            self.stats.deferrals += 1;
        }
        if served > 0 || !conn.sock.sends_drained() || conn.sock.send_closed() {
            conn.sock.progress(api);
        }
    }

    fn service_mux(&mut self, api: &mut impl VerbsPort, idx: usize) {
        let Some(host) = self.muxes[idx].as_mut() else {
            return;
        };
        let mut served = 0usize;
        while served < self.cfg.cqe_budget {
            let Some((side, cqe)) = host.queued.pop_front() else {
                break;
            };
            match side {
                CqSide::Recv => host.ep.on_recv_cqe(api, cqe),
                CqSide::Send => host.ep.on_send_cqe(api, cqe),
            }
            served += 1;
        }
        if !host.queued.is_empty() {
            self.stats.deferrals += 1;
        }
        host.ep.progress(api);
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
