//! Stream-oriented (SOCK_STREAM) sockets.
//!
//! [`StreamSocket`] glues the sans-IO protocol halves ([`SenderHalf`],
//! [`ReceiverHalf`]) to a simulated verbs queue pair:
//!
//! * user `exs_send()` data goes out as RDMA WRITE WITH IMM transfers —
//!   direct into advertised user buffers or indirect into the peer's
//!   intermediate ring, as the Fig. 2 algorithm decides;
//! * ADVERT / ACK / CREDIT control messages travel as small inline
//!   SENDs;
//! * the QP's control channel — pre-posted receive slots, the credit
//!   rule, control-message queueing, postlist staging — is one
//!   `chan::Channel`, shared with the mux transport (paper §II-B);
//! * completions surface as [`ExsEvent`]s through an event-queue-style
//!   API, mirroring the asynchronous UNH EXS interface where
//!   `exs_send`/`exs_recv` return immediately and the application polls
//!   an event queue (paper §II-B).
//!
//! The socket is driven from `NodeApp` handlers: call
//! [`StreamSocket::handle_wake`] whenever the node wakes, then drain
//! [`StreamSocket::take_events`].

use std::collections::VecDeque;

use rdma_verbs::{
    connect_pair_on_cqs, ConnHalf, Cqe, MrInfo, NodeId, QpNum, RemoteAddr, SendWr, Sge, SimNet,
    WcOpcode, WcStatus,
};
use rdma_verbs::{Access, CqId, MrKey};
use simnet::IntMap;

use crate::port::VerbsPort;

use crate::chan::{poll_cqs, Channel};
use crate::config::{ExsConfig, ProtocolMode, WwiMode};
use crate::error::{ExsError, ProtocolError};
use crate::messages::{decode_imm, encode_imm, Ctrl, TransferKind};
use crate::receiver::{LocalRing, ReceiverHalf, RecvAction, RecvOp};
use crate::sender::{RemoteRing, SenderHalf, WwiPlan};
use crate::seq::Seq;
use crate::stats::ConnStats;

/// Completion events delivered to the application.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExsEvent {
    /// An `exs_send` finished: every byte has left the user buffer (all
    /// WWIs completed locally), so the buffer is reusable.
    SendComplete {
        /// User token passed to `exs_send`.
        id: u64,
        /// Total bytes sent.
        len: u64,
    },
    /// An `exs_recv` finished: `len` bytes are in the user buffer.
    /// `len == 0` after the peer closed means end-of-stream.
    RecvComplete {
        /// User token passed to `exs_recv`.
        id: u64,
        /// Bytes delivered (≤ the posted length; equal when MSG_WAITALL
        /// was set).
        len: u32,
    },
    /// The peer half-closed and every byte of its stream has been
    /// delivered: subsequent receives complete immediately with zero
    /// bytes, like `read(2)` at end of file.
    PeerClosed,
    /// The transport failed (QP error: retry exhaustion, link loss).
    /// The connection is dead; pending operations will never complete.
    ConnectionError,
}

struct PendingSend {
    /// The socket's own key for this send's [`SendTrack`] and staging
    /// region; the caller's id is the track's first member.
    token: u64,
    addr: u64,
    len: u64,
    key: MrKey,
    dispatched: u64,
    /// Remaining staging capacity of an open coalesce run: further
    /// small BCopy sends may append here until the run is closed (full,
    /// ordered behind a newer send, flushed, or dispatched and popped).
    open_cap: Option<u64>,
}

struct SendTrack {
    len: u64,
    outstanding: u32,
    dispatched_all: bool,
    /// User sends carried by this entry; each gets its own
    /// `SendComplete` when the entry's last WWI completes.
    members: Members,
}

/// The `(id, len)` of each user send a [`SendTrack`] carries: its own,
/// and those of the small BCopy sends coalesced into its staging run
/// after it. Only a coalesced run allocates: a send on its own holds its
/// one member inline.
struct Members {
    first: (u64, u64),
    coalesced: Vec<(u64, u64)>,
}

impl Members {
    fn one(id: u64, len: u64) -> Members {
        Members {
            first: (id, len),
            coalesced: Vec::new(),
        }
    }

    /// True once another send has joined the first.
    fn is_coalesced(&self) -> bool {
        !self.coalesced.is_empty()
    }

    fn push(&mut self, id: u64, len: u64) {
        self.coalesced.push((id, len));
    }
}

impl IntoIterator for Members {
    type Item = (u64, u64);
    type IntoIter = std::iter::Chain<std::iter::Once<(u64, u64)>, std::vec::IntoIter<(u64, u64)>>;

    fn into_iter(self) -> Self::IntoIter {
        std::iter::once(self.first).chain(self.coalesced)
    }
}

/// Parameters one side of a ring-backed QP — a stream socket's, a mux
/// pool member's — shares with its peer at setup.
#[derive(Clone, Copy, Debug)]
pub struct SetupInfo {
    pub(crate) ring_addr: u64,
    pub(crate) ring_rkey: u32,
    pub(crate) ring_capacity: u64,
    pub(crate) credits: u32,
}

impl SetupInfo {
    /// What the peer needs to know about an endpoint whose intermediate
    /// ring is `ring_mr`.
    pub(crate) fn of(ring_mr: &MrInfo, cfg: &ExsConfig) -> SetupInfo {
        SetupInfo {
            ring_addr: ring_mr.addr,
            ring_rkey: ring_mr.key.0,
            ring_capacity: cfg.ring_capacity,
            credits: cfg.credits,
        }
    }
}

/// A stream-oriented EXS socket endpoint.
pub struct StreamSocket {
    node: NodeId,
    sender: SenderHalf,
    receiver: ReceiverHalf,
    ring_mr: MrInfo,
    /// The QP's control channel; a data WQE's owner is the token of the
    /// user send it carries.
    chan: Channel<(), u64>,
    pending_sends: VecDeque<PendingSend>,
    /// Sends in flight by token. A token is the socket's, issued once
    /// per queued send, so two sends the caller gave one id never share
    /// a track; the caller's id travels only in the completion.
    inflight: IntMap<u64, SendTrack>,
    next_token: u64,
    events: Vec<ExsEvent>,
    stats: ConnStats,
    actions_scratch: Vec<RecvAction>,
    /// What a wake drained off the CQs, kept so a wake allocates nothing.
    cqes: Vec<Cqe>,
    /// BCopy-mode staging regions by token, freed when the send
    /// completes.
    staging: IntMap<u64, MrKey>,
    /// Staging regions whose send was cancelled; freed at the next
    /// progress round (`exs_cancel` has no backend handle to free them
    /// immediately).
    staging_orphans: Vec<MrKey>,
    /// Local half-close requested; no further sends accepted.
    send_closed: bool,
    /// FIN queued to the peer (exactly once, after all data dispatched).
    fin_queued: bool,
    /// Peer's announced final stream length, once its FIN arrives.
    peer_fin: Option<u64>,
    /// End-of-stream already delivered to the application.
    eof_delivered: bool,
    /// The error that broke the socket; `Some` means it is dead.
    last_error: Option<ExsError>,
}

impl StreamSocket {
    /// Builds one endpoint on `node` over an already-connected QP, on
    /// either backend: registers the intermediate ring and the control
    /// slots and pre-posts the receive credits. The returned
    /// `SetupInfo` must be exchanged with the peer (connection setup is
    /// out of band, like `rdma_cm` parameter exchange).
    pub fn prepare(
        api: &mut impl VerbsPort,
        node: NodeId,
        qpn: QpNum,
        send_cq: CqId,
        recv_cq: CqId,
        cfg: &ExsConfig,
    ) -> (PreparedSocket, SetupInfo) {
        cfg.validate().expect("invalid EXS configuration");
        let ring_mr = api.register_mr(cfg.ring_capacity as usize, Access::local_remote_write());
        let chan = Channel::prepare(api, qpn, send_cq, recv_cq, cfg);
        let info = SetupInfo::of(&ring_mr, cfg);
        let prepared = PreparedSocket {
            node,
            ring_mr,
            chan,
        };
        (prepared, info)
    }

    /// Creates a fully connected pair of stream sockets over `net`,
    /// performing the out-of-band parameter exchange both ways.
    pub fn pair(
        net: &mut SimNet,
        a: NodeId,
        b: NodeId,
        cfg: &ExsConfig,
    ) -> (StreamSocket, StreamSocket) {
        Self::pair_on(net, a, b, None, cfg)
    }

    /// Like [`StreamSocket::pair`], but the `server` endpoint's QP
    /// completes onto the caller-provided CQs instead of fresh ones —
    /// the shape a [`crate::reactor::Reactor`] needs, where many
    /// accepted connections share one send and one receive CQ. The
    /// client side keeps private CQs.
    pub fn pair_shared(
        net: &mut SimNet,
        client: NodeId,
        server: NodeId,
        server_send_cq: CqId,
        server_recv_cq: CqId,
        cfg: &ExsConfig,
    ) -> (StreamSocket, StreamSocket) {
        let server_cqs = Some((server_send_cq, server_recv_cq));
        Self::pair_on(net, client, server, server_cqs, cfg)
    }

    fn pair_on(
        net: &mut SimNet,
        a: NodeId,
        b: NodeId,
        b_cqs: Option<(CqId, CqId)>,
        cfg: &ExsConfig,
    ) -> (StreamSocket, StreamSocket) {
        let (ha, hb) =
            connect_pair_on_cqs(net, a, b, cfg.qp_caps(), cfg.cq_depth(1), b_cqs).expect("connect");
        let mut prepare = |node, h: ConnHalf| {
            net.with_api(node, |api| {
                StreamSocket::prepare(api, node, h.qpn, h.send_cq, h.recv_cq, cfg)
            })
        };
        let ((pa, ia), (pb, ib)) = (prepare(a, ha), prepare(b, hb));
        (pa.complete(ib), pb.complete(ia))
    }

    /// This endpoint's node.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The queue pair this endpoint owns (the reactor's dispatch key).
    pub fn qpn(&self) -> QpNum {
        self.chan.qpn()
    }

    /// The CQ this endpoint's send completions land on.
    pub fn send_cq(&self) -> CqId {
        self.chan.send_cq()
    }

    /// The CQ this endpoint's receive completions land on.
    pub fn recv_cq(&self) -> CqId {
        self.chan.recv_cq()
    }

    /// Number of user events queued and not yet taken.
    pub(crate) fn events_pending(&self) -> usize {
        self.events.len()
    }

    /// Protocol statistics for this endpoint.
    pub fn stats(&self) -> &ConnStats {
        &self.stats
    }

    /// The configured protocol mode.
    pub fn mode(&self) -> ProtocolMode {
        self.chan.cfg().mode
    }

    /// True when no user send is queued or awaiting completion.
    pub fn sends_drained(&self) -> bool {
        self.pending_sends.is_empty() && self.inflight.is_empty()
    }

    /// Number of receive operations still queued.
    pub fn recvs_pending(&self) -> usize {
        self.receiver.queue_len()
    }

    /// Asynchronous send (ES-API `exs_send`): queues the operation and
    /// returns immediately. Completion is reported via
    /// [`ExsEvent::SendComplete`] once the user buffer is reusable; the
    /// event carries `id`, which need not be unique among sends in
    /// flight.
    ///
    /// The buffer must stay untouched until then — the zero-copy
    /// contract the ES-API makes explicit (paper §I).
    pub fn exs_send(
        &mut self,
        api: &mut impl VerbsPort,
        mr: &MrInfo,
        offset: u64,
        len: u64,
        id: u64,
    ) {
        assert!(
            offset + len <= mr.len as u64,
            "send range outside registered region"
        );
        assert!(!self.send_closed, "exs_send after exs_shutdown");
        if len == 0 {
            self.events.push(ExsEvent::SendComplete { id, len: 0 });
            return;
        }
        let coalesce = self.chan.cfg().effective_coalesce_threshold();
        if self.chan.cfg().mode == ProtocolMode::BCopy && coalesce > 0 && len <= coalesce {
            self.coalesce_send(api, mr, offset, len, id);
            return;
        }
        if self.chan.cfg().mode == ProtocolMode::BCopy {
            // rsockets-style BCopy: copy the user data into an internal
            // staging region first (charged to the sender's CPU), then
            // transfer from the staging copy. The user buffer is
            // conceptually reusable immediately; the completion event
            // still marks when the *stream* consumed the data.
            let stage = api.register_mr(len as usize, Access::NONE);
            api.copy_mr(mr.key, mr.addr + offset, stage.key, stage.addr, len)
                .expect("BCopy staging copy");
            let token = self.queue_send(id, stage.addr, len, stage.key, None);
            self.staging.insert(token, stage.key);
        } else {
            self.queue_send(id, mr.addr + offset, len, mr.key, None);
        }
        self.pump_sends(api);
        self.chan.flush_ctrl(api, &mut self.stats);
        self.chan.flush_tx(api, &mut self.stats);
    }

    /// Queues one pending send under a fresh token, which it returns,
    /// closing any open coalesce run ahead of it (appending to a run
    /// behind a newer send would reorder the stream).
    fn queue_send(
        &mut self,
        id: u64,
        addr: u64,
        len: u64,
        key: MrKey,
        open_cap: Option<u64>,
    ) -> u64 {
        if let Some(tail) = self.pending_sends.back_mut() {
            tail.open_cap = None;
        }
        let token = self.next_token;
        self.next_token += 1;
        self.pending_sends.push_back(PendingSend {
            token,
            addr,
            len,
            key,
            dispatched: 0,
            open_cap,
        });
        self.inflight.insert(
            token,
            SendTrack {
                len,
                outstanding: 0,
                dispatched_all: false,
                members: Members::one(id, len),
            },
        );
        token
    }

    /// Small-send coalescing (BCopy mode): appends the message to the
    /// open staging run at the queue tail, or starts a fresh run sized
    /// `coalesce_threshold`. A run is dispatched immediately when no
    /// signaled WQE is outstanding (nothing in flight would wake us
    /// later — Nagle's "send now if idle" rule); otherwise it is held
    /// so neighbouring small sends share one WWI, until the run fills,
    /// the next progress round, or an explicit [`StreamSocket::tx_flush`].
    fn coalesce_send(
        &mut self,
        api: &mut impl VerbsPort,
        mr: &MrInfo,
        offset: u64,
        len: u64,
        id: u64,
    ) {
        let appended = match self.pending_sends.back_mut() {
            Some(tail) if tail.open_cap.unwrap_or(0) >= len => {
                api.copy_mr(
                    mr.key,
                    mr.addr + offset,
                    tail.key,
                    tail.addr + tail.len,
                    len,
                )
                .expect("coalesce staging copy");
                let cap = tail.open_cap.expect("checked above") - len;
                tail.len += len;
                tail.open_cap = if cap == 0 { None } else { Some(cap) };
                let track = self
                    .inflight
                    .get_mut(&tail.token)
                    .expect("open run has a track");
                if !track.members.is_coalesced() {
                    // The run just became a coalesced one: count its
                    // first member too.
                    self.stats.coalesced_msgs += 1;
                    self.stats.coalesced_bytes += track.len;
                }
                self.stats.coalesced_msgs += 1;
                self.stats.coalesced_bytes += len;
                track.len += len;
                track.members.push(id, len);
                true
            }
            _ => false,
        };
        if !appended {
            let cap = self.chan.cfg().effective_coalesce_threshold();
            let stage = api.register_mr(cap as usize, Access::NONE);
            api.copy_mr(mr.key, mr.addr + offset, stage.key, stage.addr, len)
                .expect("BCopy staging copy");
            let token = self.queue_send(id, stage.addr, len, stage.key, Some(cap - len));
            self.staging.insert(token, stage.key);
        }
        if self.chan.signaled_outstanding() == 0 {
            // Nothing in flight will wake us later; dispatch now.
            self.pump_sends(api);
            self.chan.flush_ctrl(api, &mut self.stats);
            self.chan.flush_tx(api, &mut self.stats);
        }
    }

    /// Closes the open coalesce run and pushes every staged WQE to the
    /// HCA immediately — the latency opt-out from small-send
    /// coalescing and postlist batching.
    pub fn tx_flush(&mut self, api: &mut impl VerbsPort) {
        if let Some(tail) = self.pending_sends.back_mut() {
            tail.open_cap = None;
        }
        if !self.is_broken() {
            self.pump_sends(api);
            self.chan.flush_ctrl(api, &mut self.stats);
        }
        self.chan.flush_tx(api, &mut self.stats);
    }

    /// Asynchronous receive (ES-API `exs_recv`): queues the operation and
    /// returns immediately. Completion is reported via
    /// [`ExsEvent::RecvComplete`]. With `waitall` (MSG_WAITALL) the
    /// receive completes only when the buffer is full; otherwise it
    /// completes with whatever bytes the next transfer delivers.
    pub fn exs_recv(
        &mut self,
        api: &mut impl VerbsPort,
        mr: &MrInfo,
        offset: u64,
        len: u32,
        waitall: bool,
        id: u64,
    ) {
        assert!(
            offset + len as u64 <= mr.len as u64,
            "receive range outside registered region"
        );
        if self.eof_delivered {
            // End-of-stream: complete immediately with zero bytes, like
            // read(2) at EOF.
            self.events.push(ExsEvent::RecvComplete { id, len: 0 });
            return;
        }
        let op = RecvOp {
            id,
            addr: mr.addr + offset,
            len,
            key: mr.key.0,
            waitall,
        };
        let mut actions = std::mem::take(&mut self.actions_scratch);
        self.receiver.push_recv(op, &mut self.stats, &mut actions);
        self.execute_actions(api, &mut actions);
        self.actions_scratch = actions;
        self.chan.flush_ctrl(api, &mut self.stats);
        self.check_eof(api);
        self.chan.flush_tx(api, &mut self.stats);
    }

    /// Best-effort cancellation of a pending operation (ES-API
    /// `exs_cancel`). A receive cancels only while un-advertised and
    /// empty; a send cancels only before any of its bytes entered the
    /// stream. Of several pending sends with this id, the first
    /// cancellable one is revoked. Returns true if the operation was
    /// removed (no completion event will follow).
    pub fn exs_cancel(&mut self, id: u64) -> bool {
        // Try the receive queue first.
        if self.receiver.cancel_recv(id) {
            return true;
        }
        // A send is cancellable while fully undispatched and not yet
        // merged with neighbours (a coalesced member's bytes are
        // already interleaved in the shared staging run).
        if let Some(pos) = self.pending_sends.iter().position(|p| {
            p.dispatched == 0
                && self
                    .inflight
                    .get(&p.token)
                    .is_some_and(|t| t.members.first.0 == id && !t.members.is_coalesced())
        }) {
            let token = self.pending_sends.remove(pos).expect("found").token;
            self.inflight.remove(&token);
            if let Some(key) = self.staging.remove(&token) {
                // Defer the deregistration: no backend handle here.
                self.staging_orphans.push(key);
            }
            return true;
        }
        false
    }

    /// Half-closes the sending direction (ES-API `exs_shutdown` with
    /// SHUT_WR): queued data still drains, then a FIN tells the peer the
    /// final stream length. Idempotent; sends after shutdown panic.
    pub fn exs_shutdown(&mut self, api: &mut impl VerbsPort) {
        self.send_closed = true;
        if let Some(tail) = self.pending_sends.back_mut() {
            // No further sends can arrive; the open run is as coalesced
            // as it will ever be.
            tail.open_cap = None;
        }
        if !self.is_broken() {
            self.pump_sends(api);
        }
        self.try_queue_fin(api);
        self.chan.flush_tx(api, &mut self.stats);
    }

    /// True once the local sending direction is closed.
    pub fn send_closed(&self) -> bool {
        self.send_closed
    }

    /// True while the socket still owes traffic to the wire: queued
    /// sends, staged WQEs, un-flushed control messages, or a
    /// half-close whose FIN is not yet queued. Progress is CQE-driven,
    /// so a service loop that stops polling while this holds strands
    /// the peer — drain before tearing the loop down. A broken socket
    /// reports false: nothing it holds can be sent any more.
    pub(crate) fn has_unsent(&self) -> bool {
        if self.is_broken() {
            return false;
        }
        !self.pending_sends.is_empty()
            || self.chan.has_unsent()
            || (self.send_closed && !self.fin_queued)
    }

    /// Releases every registration the socket owns — the intermediate
    /// ring, the control slots, and any staging regions still parked
    /// (in-flight BCopy sends and cancelled ones awaiting cleanup).
    /// Full-socket close (`exs_close`); idempotent. Without it the
    /// regions stay pinned for the life of the node: registrations
    /// have no other owner.
    pub fn close(&mut self, api: &mut impl VerbsPort) {
        if !self.chan.close(api) {
            return;
        }
        for (_, key) in self.staging.drain() {
            api.deregister_mr(key)
                .expect("free staging region at close");
        }
        for key in self.staging_orphans.drain(..) {
            api.deregister_mr(key)
                .expect("free cancelled staging region");
        }
        api.deregister_mr(self.ring_mr.key)
            .expect("free intermediate ring at close");
    }

    /// True once the peer's stream has fully ended (FIN seen and every
    /// byte delivered).
    pub(crate) fn peer_closed(&self) -> bool {
        self.eof_delivered
    }

    fn try_queue_fin(&mut self, api: &mut impl VerbsPort) {
        // The FIN must follow the last data WWI on the FIFO channel, so
        // it can be queued as soon as every byte has been dispatched.
        if !self.send_closed || self.fin_queued || !self.pending_sends.is_empty() {
            return;
        }
        self.fin_queued = true;
        let final_seq = self.sender.seq().0;
        self.chan.push_ctrl((), Ctrl::Fin { final_seq });
        self.chan.flush_ctrl(api, &mut self.stats);
    }

    /// Delivers end-of-stream if the peer has closed and all its bytes
    /// have been consumed.
    fn check_eof(&mut self, api: &mut impl VerbsPort) {
        let Some(final_seq) = self.peer_fin else {
            return;
        };
        if self.eof_delivered || self.receiver.seq().0 != final_seq {
            return;
        }
        debug_assert_eq!(self.receiver.buffered(), 0);
        self.eof_delivered = true;
        let mut actions = std::mem::take(&mut self.actions_scratch);
        self.receiver.flush_eof(&mut self.stats, &mut actions);
        self.execute_actions(api, &mut actions);
        self.actions_scratch = actions;
        self.events.push(ExsEvent::PeerClosed);
    }

    /// True once the transport failed underneath the socket.
    pub fn is_broken(&self) -> bool {
        self.last_error.is_some()
    }

    /// The typed error that broke the socket ([`ExsError::Broken`] for
    /// a transport failure reported only as a completion status).
    pub fn last_error(&self) -> Option<&ExsError> {
        self.last_error.as_ref()
    }

    /// Records the first failure and breaks the connection. A malformed
    /// peer kills this socket, never the process.
    fn fail(&mut self, e: ExsError) {
        if matches!(e, ExsError::Protocol(_)) {
            self.stats.protocol_errors += 1;
        }
        if self.last_error.is_none() {
            self.last_error = Some(e);
            self.events.push(ExsEvent::ConnectionError);
        }
    }

    /// Drives the socket from a node wake: drains both completion
    /// queues, advances the protocol, and queues user events.
    ///
    /// **The quiet rule.** A socket with no user events queued, no
    /// cancelled staging region to free and nothing unsent
    /// (`StreamSocket::has_unsent`) is *quiet*: a wake that finds both
    /// CQs empty costs it the two empty polls and nothing more. Protocol
    /// state moves on a completion or on an application call, and each
    /// of those ends by advancing the protocol as far as it goes, so
    /// with nothing drained and nothing owed there is nothing further to
    /// advance. A quiet socket stays quiet until one of the two happens,
    /// which is what lets a caller that owns many sockets
    /// ([`crate::Endpoint::quiet_cqs`]) charge those two polls for it
    /// instead of making them.
    pub fn handle_wake(&mut self, api: &mut impl VerbsPort) {
        let mut cqes = std::mem::take(&mut self.cqes);
        let recvs = poll_cqs(api, self.chan.send_cq(), self.chan.recv_cq(), &mut cqes);
        let drained = !cqes.is_empty();
        for (i, cqe) in cqes.drain(..).enumerate() {
            if i < recvs {
                self.on_recv_cqe(api, cqe);
            } else {
                self.on_send_cqe(api, cqe);
            }
        }
        self.cqes = cqes;
        if drained || self.owes_progress() {
            self.progress(api);
        }
    }

    /// Work a wake must do even when it drains nothing.
    fn owes_progress(&self) -> bool {
        !self.staging_orphans.is_empty() || self.has_unsent()
    }

    /// The quiet rule of [`StreamSocket::handle_wake`].
    pub(crate) fn quiet(&self) -> bool {
        self.events.is_empty() && !self.owes_progress()
    }

    /// Advances the protocol after completions were applied: dispatches
    /// queued sends, queues the FIN when due, flushes control messages
    /// and credit returns, and delivers end-of-stream. Backends that
    /// dispatch CQEs themselves (the reactor) call this once per
    /// service round instead of [`StreamSocket::handle_wake`].
    pub(crate) fn progress(&mut self, api: &mut impl VerbsPort) {
        for key in self.staging_orphans.drain(..) {
            api.deregister_mr(key)
                .expect("free cancelled staging region");
        }
        if self.is_broken() {
            return;
        }
        self.pump_sends(api);
        self.try_queue_fin(api);
        self.chan.flush_ctrl(api, &mut self.stats);
        self.chan.maybe_send_credit(api, &mut self.stats);
        self.check_eof(api);
        self.chan.flush_tx(api, &mut self.stats);
    }

    /// Takes the accumulated user events.
    pub fn take_events(&mut self) -> Vec<ExsEvent> {
        std::mem::take(&mut self.events)
    }

    /// [`StreamSocket::take_events`], appending to a caller-owned
    /// buffer: a loop that keeps one buffer takes events without
    /// allocating.
    pub fn take_events_into(&mut self, out: &mut Vec<ExsEvent>) {
        out.append(&mut self.events);
    }

    /// Takes the accumulated user events one by one, keeping the
    /// queue's storage for the next ones.
    pub(crate) fn drain_events(&mut self) -> std::vec::Drain<'_, ExsEvent> {
        self.events.drain(..)
    }

    pub(crate) fn on_recv_cqe(&mut self, api: &mut impl VerbsPort, cqe: Cqe) {
        if cqe.status != WcStatus::Success {
            self.fail(ExsError::Broken);
            return;
        }
        if let Err(e) = self.try_on_recv_cqe(api, cqe) {
            self.fail(e);
        }
    }

    /// The fallible body of [`StreamSocket::on_recv_cqe`]: everything in
    /// here is driven by bytes the peer controls, so every malformed
    /// input surfaces as an [`ExsError`] that breaks this connection
    /// instead of aborting the process.
    fn try_on_recv_cqe(&mut self, api: &mut impl VerbsPort, cqe: Cqe) -> Result<(), ExsError> {
        api.charge_cqe_cost();
        match cqe.opcode {
            WcOpcode::RecvRdmaWithImm => {
                let imm = cqe.imm.ok_or(ProtocolError::MissingImm)?;
                let (kind, len) = decode_imm(imm);
                debug_assert_eq!(len, cqe.byte_len, "imm length mismatch");
                self.apply_transfer(api, kind, len)?;
            }
            WcOpcode::Recv => {
                let ((), ctrl) = self.chan.recv_ctrl(api, &cqe)?;
                match ctrl {
                    Ctrl::Advert(ad) => self.sender.push_advert(ad, &mut self.stats)?,
                    Ctrl::Ack { freed } => self.sender.on_ack(freed, &mut self.stats)?,
                    Ctrl::Credit => {}
                    Ctrl::Fin { final_seq } => {
                        if self.peer_fin.is_some() {
                            return Err(ProtocolError::DuplicateFin.into());
                        }
                        // The FIN rides the FIFO channel behind the last
                        // data transfer, so every stream byte has already
                        // arrived: delivered (`seq`) plus still buffered.
                        let arrived = self.receiver.seq().0 + self.receiver.buffered();
                        match Seq(final_seq).checked_distance_from(self.receiver.seq()) {
                            Some(d) if d == self.receiver.buffered() => {}
                            _ => {
                                return Err(ProtocolError::FinSeqMismatch {
                                    claimed: final_seq,
                                    arrived,
                                }
                                .into());
                            }
                        }
                        self.peer_fin = Some(final_seq);
                    }
                    Ctrl::DataNotify { imm } => {
                        // iWARP emulation: the preceding RDMA WRITE has
                        // already placed the data (FIFO); this SEND is
                        // the notification the native path carries as
                        // immediate data.
                        let (kind, len) = decode_imm(imm);
                        self.apply_transfer(api, kind, len)?;
                    }
                }
            }
            _ => return Err(ProtocolError::UnexpectedOpcode.into()),
        }
        self.chan.repost(api, &cqe)
    }

    /// Feeds one arriving transfer to the receiver half, preserving the
    /// action scratch buffer across the fallible call.
    fn apply_transfer(
        &mut self,
        api: &mut impl VerbsPort,
        kind: TransferKind,
        len: u32,
    ) -> Result<(), ExsError> {
        let mut actions = std::mem::take(&mut self.actions_scratch);
        let res = match kind {
            TransferKind::Direct => self.receiver.on_direct(len, &mut self.stats, &mut actions),
            TransferKind::Indirect => self
                .receiver
                .on_indirect(len, &mut self.stats, &mut actions),
        };
        self.execute_actions(api, &mut actions);
        self.actions_scratch = actions;
        res.map_err(ExsError::from)
    }

    pub(crate) fn on_send_cqe(&mut self, api: &mut impl VerbsPort, cqe: Cqe) {
        if cqe.status != WcStatus::Success {
            self.fail(ExsError::Broken);
            return;
        }
        api.charge_cqe_cost();
        debug_assert!(
            matches!(cqe.opcode, WcOpcode::RdmaWrite | WcOpcode::Send),
            "unexpected send-side completion {:?}",
            cqe.opcode
        );
        for owner in self.chan.retire(cqe.wr_id) {
            let track = self
                .inflight
                .get_mut(&owner)
                .expect("send track for completed WWI");
            track.outstanding -= 1;
            if track.outstanding == 0 && track.dispatched_all {
                let track = self.inflight.remove(&owner).expect("checked above");
                if let Some(stage_key) = self.staging.remove(&owner) {
                    api.deregister_mr(stage_key).expect("free staging region");
                }
                for (id, len) in track.members {
                    self.stats.sends_completed += 1;
                    self.stats.bytes_sent += len;
                    self.events.push(ExsEvent::SendComplete { id, len });
                }
            }
        }
    }

    fn pump_sends(&mut self, api: &mut impl VerbsPort) {
        loop {
            let Some(head) = self.pending_sends.front() else {
                return;
            };
            if !self.chan.can_send_data(api) {
                return;
            }
            let remaining = head.len - head.dispatched;
            let Some(plan) = self.sender.plan_transfer(remaining, &mut self.stats) else {
                return;
            };
            self.issue_wwi(api, plan);
        }
    }

    fn issue_wwi(&mut self, api: &mut impl VerbsPort, plan: WwiPlan) {
        let head = self.pending_sends.front_mut().expect("pump checked head");
        let sge = Sge::new(head.addr + head.dispatched, plan.len, head.key);
        let kind = if plan.indirect {
            TransferKind::Indirect
        } else {
            TransferKind::Direct
        };
        let remote = RemoteAddr {
            addr: plan.raddr,
            rkey: MrKey(plan.rkey),
        };
        let imm = encode_imm(kind, plan.len);
        let owner = head.token;
        let head_done = {
            let track = self.inflight.get_mut(&owner).expect("inflight entry");
            track.outstanding += 1;
            head.dispatched += plan.len as u64;
            if head.dispatched == head.len {
                track.dispatched_all = true;
                true
            } else {
                false
            }
        };
        if head_done {
            self.pending_sends.pop_front();
        }
        let (chan, stats) = (&mut self.chan, &mut self.stats);
        match chan.cfg().wwi_mode {
            WwiMode::Native => chan.stage_data(api, stats, owner, |wr_id| {
                SendWr::write_imm(wr_id, sge, remote, imm)
            }),
            WwiMode::WritePlusSend => {
                // Old-iWARP emulation (paper §II-B): a plain RDMA WRITE
                // places the data, then a small SEND notifies the peer.
                // The QP's FIFO ordering guarantees the notification
                // arrives after the data; the notification SEND also
                // returns any accumulated credit.
                chan.stage_data(api, stats, owner, |wr_id| SendWr::write(wr_id, sge, remote));
                chan.stage_notify(api, stats, Ctrl::DataNotify { imm });
            }
        }
    }

    fn execute_actions(&mut self, api: &mut impl VerbsPort, actions: &mut Vec<RecvAction>) {
        for action in actions.drain(..) {
            match action {
                RecvAction::Copy {
                    src_addr,
                    dst_addr,
                    dst_key,
                    len,
                } => {
                    api.copy_mr(self.ring_mr.key, src_addr, MrKey(dst_key), dst_addr, len)
                        .expect("intermediate buffer copy-out");
                }
                RecvAction::SendAdvert(ad) => self.chan.push_ctrl((), Ctrl::Advert(ad)),
                RecvAction::SendAck { freed } => self.chan.push_ctrl((), Ctrl::Ack { freed }),
                RecvAction::Complete { id, len } => {
                    self.events.push(ExsEvent::RecvComplete { id, len })
                }
            }
        }
        self.chan.flush_ctrl(api, &mut self.stats);
    }

    /// Refreshes the CQ-pressure gauges (`overflowed`, `max_batch`,
    /// `nonempty_polls`) from the backend into this endpoint's stats;
    /// call before reading them (a test's overflow check, a report's
    /// `cq_max_batch`).
    pub fn sync_cq_stats(&mut self, api: &impl VerbsPort) {
        self.chan.sync_cq_stats(api, &mut self.stats);
    }
}

/// Intermediate product of [`StreamSocket::prepare`]: everything local is
/// set up; the peer's [`SetupInfo`] completes the socket.
pub struct PreparedSocket {
    node: NodeId,
    ring_mr: MrInfo,
    chan: Channel<(), u64>,
}

impl PreparedSocket {
    /// Finishes construction with the peer's parameters.
    pub fn complete(self, peer: SetupInfo) -> StreamSocket {
        let cfg = self.chan.cfg();
        let sender = SenderHalf::with_policy(
            cfg.mode,
            RemoteRing {
                addr: peer.ring_addr,
                rkey: peer.ring_rkey,
                capacity: peer.ring_capacity,
            },
            cfg.max_wwi_chunk,
            cfg.direct,
        );
        let receiver = ReceiverHalf::new(
            cfg.mode,
            LocalRing {
                addr: self.ring_mr.addr,
                key: self.ring_mr.key.0,
                capacity: cfg.ring_capacity,
            },
            cfg.effective_ack_threshold(),
        );
        let mut chan = self.chan;
        chan.open(peer.credits);
        StreamSocket {
            node: self.node,
            sender,
            receiver,
            ring_mr: self.ring_mr,
            chan,
            pending_sends: VecDeque::new(),
            inflight: IntMap::default(),
            next_token: 0,
            events: Vec::new(),
            stats: ConnStats::default(),
            actions_scratch: Vec::new(),
            cqes: Vec::new(),
            staging: IntMap::default(),
            staging_orphans: Vec::new(),
            send_closed: false,
            fin_queued: false,
            peer_fin: None,
            eof_delivered: false,
            last_error: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use rdma_verbs::{HcaConfig, HostModel, SimNet};
    use simnet::{LinkConfig, SimDuration};

    use super::*;

    #[test]
    fn a_send_that_is_not_coalesced_holds_no_heap_vec() {
        let mut net = SimNet::new();
        let a = net.add_node(HostModel::free(), HcaConfig::default());
        let b = net.add_node(HostModel::free(), HcaConfig::default());
        let link = LinkConfig::simple(10_000_000_000, SimDuration::from_micros(1));
        net.connect_nodes(a, b, link, 1);
        let (mut sock, _peer) = StreamSocket::pair(&mut net, a, b, &ExsConfig::default());
        net.with_api(a, |api| {
            let mr = api.register_mr(8192, Access::NONE);
            sock.exs_send(api, &mr, 0, 8192, 7);
        });
        let track = sock.inflight.get(&0).expect("in flight until it completes");
        assert_eq!(track.members.coalesced.capacity(), 0);

        // A coalesced run lists its members in send order.
        let mut run = Members::one(1, 10);
        run.push(2, 20);
        run.push(3, 5);
        assert!(run.is_coalesced());
        assert_eq!(
            run.into_iter().collect::<Vec<_>>(),
            [(1, 10), (2, 20), (3, 5)]
        );
    }
}
