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
//! * every side pre-posts `credits` receive WQEs (64-byte slots); every
//!   arrival consumes one and is immediately re-posted, with returns
//!   piggybacked on control messages and topped up by standalone CREDIT
//!   messages (paper §II-B);
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
    connect_pair, connect_pair_on_cqs, Cqe, MrInfo, NodeApi, NodeId, QpCaps, QpNum, RecvWr,
    RemoteAddr, SendWr, Sge, SimNet, WcOpcode, WcStatus,
};
use rdma_verbs::{Access, CqId, MrKey};
use simnet::IntMap;

use crate::port::VerbsPort;

use crate::config::{ExsConfig, ProtocolMode, WwiMode};
use crate::error::{ExsError, ProtocolError};
use crate::messages::{decode_imm, encode_imm, Ctrl, CtrlMsg, TransferKind, CTRL_MSG_LEN};
use crate::receiver::{LocalRing, ReceiverHalf, RecvAction, RecvOp};
use crate::sender::{RemoteRing, SenderHalf, WwiPlan};
use crate::seq::Seq;
use crate::stats::ConnStats;
use crate::txpipe::TxPipe;

/// Size of one pre-posted control receive slot.
pub(crate) const CTRL_SLOT: u64 = 64;
const _: () = assert!(
    CTRL_MSG_LEN <= CTRL_SLOT as usize,
    "slots must hold control messages"
);
/// Credits kept in reserve so a CREDIT message can always be sent.
const CREDIT_RESERVE: u32 = 1;

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
    id: u64,
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
    /// User sends carried by this entry (more than one when small
    /// BCopy sends were coalesced into a shared staging run); each gets
    /// its own `SendComplete` when the run's last WWI completes.
    members: Vec<(u64, u64)>,
}

/// Connection parameters one side shares with its peer at setup.
#[derive(Clone, Copy, Debug)]
pub struct SetupInfo {
    ring_addr: u64,
    ring_rkey: u32,
    ring_capacity: u64,
    credits: u32,
}

/// A stream-oriented EXS socket endpoint.
pub struct StreamSocket {
    node: NodeId,
    qpn: QpNum,
    send_cq: CqId,
    recv_cq: CqId,
    cfg: ExsConfig,
    sender: SenderHalf,
    receiver: ReceiverHalf,
    ring_mr: MrInfo,
    ctrl_mr: MrInfo,
    pending_sends: VecDeque<PendingSend>,
    inflight: IntMap<u64, SendTrack>,
    /// Data WQEs awaiting retirement, in posting (= wr_id) order. RC
    /// FIFO means a signaled CQE for wr_id `W` implies every WQE with a
    /// smaller wr_id also completed, so one CQE drains the whole prefix
    /// `wr_id <= W` — the EXS-level half of batched SQ reclamation.
    wwi_owner: VecDeque<(u64, u64)>,
    next_wr: u64,
    /// Postlist staging and selective-signaling state.
    tx: TxPipe,
    peer_credits: u32,
    owed_credits: u32,
    credit_threshold: u32,
    pending_ctrl: VecDeque<Ctrl>,
    events: Vec<ExsEvent>,
    stats: ConnStats,
    actions_scratch: Vec<RecvAction>,
    /// BCopy-mode staging regions, freed when the send completes.
    staging: IntMap<u64, MrKey>,
    /// Staging regions whose send was cancelled; freed at the next
    /// progress round (`exs_cancel` has no backend handle to free them
    /// immediately).
    staging_orphans: Vec<MrKey>,
    /// Registrations already released; the socket is closed.
    mrs_released: bool,
    /// Local half-close requested; no further sends accepted.
    send_closed: bool,
    /// FIN queued to the peer (exactly once, after all data dispatched).
    fin_queued: bool,
    /// Peer's announced final stream length, once its FIN arrives.
    peer_fin: Option<u64>,
    /// End-of-stream already delivered to the application.
    eof_delivered: bool,
    /// Transport failure observed; the socket is dead.
    broken: bool,
    /// The error that broke the socket, when one was attributable.
    last_error: Option<ExsError>,
}

impl StreamSocket {
    /// Builds one endpoint: registers the intermediate ring and control
    /// slots and pre-posts the receive credits. The returned
    /// [`SetupInfo`] must be exchanged with the peer (connection setup is
    /// out of band, like `rdma_cm` parameter exchange).
    pub fn prepare(
        api: &mut NodeApi<'_>,
        qpn: QpNum,
        send_cq: CqId,
        recv_cq: CqId,
        cfg: &ExsConfig,
    ) -> (PreparedSocket, SetupInfo) {
        cfg.validate().expect("invalid EXS configuration");
        let ring_mr = api.register_mr(cfg.ring_capacity as usize, Access::local_remote_write());
        let ctrl_mr = api.register_mr(
            (cfg.credits as u64 * CTRL_SLOT) as usize,
            Access::LOCAL_WRITE,
        );
        for slot in 0..cfg.credits {
            let sge = ctrl_mr.sge(slot as u64 * CTRL_SLOT, CTRL_SLOT as u32);
            api.post_recv(qpn, RecvWr::new(slot as u64, sge))
                .expect("pre-posting control receives");
        }
        let info = SetupInfo {
            ring_addr: ring_mr.addr,
            ring_rkey: ring_mr.key.0,
            ring_capacity: cfg.ring_capacity,
            credits: cfg.credits,
        };
        (
            PreparedSocket {
                node: api.node(),
                qpn,
                send_cq,
                recv_cq,
                cfg: cfg.clone(),
                ring_mr,
                ctrl_mr,
            },
            info,
        )
    }

    /// Creates a fully connected pair of stream sockets over `net`,
    /// performing the out-of-band parameter exchange both ways.
    pub fn pair(
        net: &mut SimNet,
        a: NodeId,
        b: NodeId,
        cfg: &ExsConfig,
    ) -> (StreamSocket, StreamSocket) {
        let caps = QpCaps {
            // The iWARP WWI emulation posts two WQEs per transfer;
            // reserve headroom beyond the pump's sq_depth gate.
            max_send_wr: cfg.sq_depth * 2 + 8,
            max_recv_wr: cfg.credits as usize + 8,
            max_inline: 256,
        };
        let cq_depth = cfg.cq_depth(1);
        let (ha, hb) = connect_pair(net, a, b, caps, cq_depth).expect("connect");
        let (pa, ia) = net.with_api(a, |api| {
            StreamSocket::prepare(api, ha.qpn, ha.send_cq, ha.recv_cq, cfg)
        });
        let (pb, ib) = net.with_api(b, |api| {
            StreamSocket::prepare(api, hb.qpn, hb.send_cq, hb.recv_cq, cfg)
        });
        (pa.complete(ib), pb.complete(ia))
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
        let caps = QpCaps {
            max_send_wr: cfg.sq_depth * 2 + 8,
            max_recv_wr: cfg.credits as usize + 8,
            max_inline: 256,
        };
        let cq_depth = cfg.cq_depth(1);
        let (hc, hs) = connect_pair_on_cqs(
            net,
            client,
            server,
            caps,
            cq_depth,
            Some((server_send_cq, server_recv_cq)),
        )
        .expect("connect");
        let (pc, ic) = net.with_api(client, |api| {
            StreamSocket::prepare(api, hc.qpn, hc.send_cq, hc.recv_cq, cfg)
        });
        let (ps, is) = net.with_api(server, |api| {
            StreamSocket::prepare(api, hs.qpn, hs.send_cq, hs.recv_cq, cfg)
        });
        (pc.complete(is), ps.complete(ic))
    }

    /// This endpoint's node.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The queue pair this endpoint owns (the reactor's dispatch key).
    pub fn qpn(&self) -> QpNum {
        self.qpn
    }

    /// The CQ this endpoint's send completions land on.
    pub fn send_cq(&self) -> CqId {
        self.send_cq
    }

    /// The CQ this endpoint's receive completions land on.
    pub fn recv_cq(&self) -> CqId {
        self.recv_cq
    }

    /// Number of user events queued and not yet taken.
    pub fn events_pending(&self) -> usize {
        self.events.len()
    }

    /// Level-triggered writability: a new `exs_send` would start
    /// dispatching immediately instead of queueing behind earlier sends
    /// (and the sending direction is still open).
    pub fn writable(&self) -> bool {
        !self.send_closed && !self.broken && self.pending_sends.is_empty()
    }

    /// Protocol statistics for this endpoint.
    pub fn stats(&self) -> &ConnStats {
        &self.stats
    }

    /// The configured protocol mode.
    pub fn mode(&self) -> ProtocolMode {
        self.cfg.mode
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
    /// [`ExsEvent::SendComplete`] once the user buffer is reusable.
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
        let coalesce = self.cfg.effective_coalesce_threshold();
        if self.cfg.mode == ProtocolMode::BCopy && coalesce > 0 && len <= coalesce {
            self.coalesce_send(api, mr, offset, len, id);
            return;
        }
        let (addr, key, open_cap) = if self.cfg.mode == ProtocolMode::BCopy {
            // rsockets-style BCopy: copy the user data into an internal
            // staging region first (charged to the sender's CPU), then
            // transfer from the staging copy. The user buffer is
            // conceptually reusable immediately; the completion event
            // still marks when the *stream* consumed the data.
            let stage = api.register_mr(len as usize, Access::NONE);
            api.copy_mr(mr.key, mr.addr + offset, stage.key, stage.addr, len)
                .expect("BCopy staging copy");
            self.staging.insert(id, stage.key);
            (stage.addr, stage.key, None)
        } else {
            (mr.addr + offset, mr.key, None)
        };
        self.queue_send(id, addr, len, key, open_cap);
        self.pump_sends(api);
        self.flush_ctrl(api);
        self.flush_tx(api);
    }

    /// Queues one pending send, closing any open coalesce run ahead of
    /// it (appending to a run behind a newer send would reorder the
    /// stream).
    fn queue_send(&mut self, id: u64, addr: u64, len: u64, key: MrKey, open_cap: Option<u64>) {
        if let Some(tail) = self.pending_sends.back_mut() {
            tail.open_cap = None;
        }
        self.pending_sends.push_back(PendingSend {
            id,
            addr,
            len,
            key,
            dispatched: 0,
            open_cap,
        });
        self.inflight.insert(
            id,
            SendTrack {
                len,
                outstanding: 0,
                dispatched_all: false,
                members: vec![(id, len)],
            },
        );
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
                    .get_mut(&tail.id)
                    .expect("open run has a track");
                if track.members.len() == 1 {
                    // The run just became a coalesced one: count its
                    // first member too.
                    self.stats.coalesced_msgs += 1;
                    self.stats.coalesced_bytes += track.len;
                }
                self.stats.coalesced_msgs += 1;
                self.stats.coalesced_bytes += len;
                track.len += len;
                track.members.push((id, len));
                true
            }
            _ => false,
        };
        if !appended {
            let cap = self.cfg.effective_coalesce_threshold();
            let stage = api.register_mr(cap as usize, Access::NONE);
            api.copy_mr(mr.key, mr.addr + offset, stage.key, stage.addr, len)
                .expect("BCopy staging copy");
            self.staging.insert(id, stage.key);
            self.queue_send(id, stage.addr, len, stage.key, Some(cap - len));
        }
        if self.tx.signaled_outstanding() == 0 {
            // Nothing in flight will wake us later; dispatch now.
            self.pump_sends(api);
            self.flush_ctrl(api);
            self.flush_tx(api);
        }
    }

    /// Closes the open coalesce run and pushes every staged WQE to the
    /// HCA immediately — the latency opt-out from small-send
    /// coalescing and postlist batching.
    pub fn tx_flush(&mut self, api: &mut impl VerbsPort) {
        if let Some(tail) = self.pending_sends.back_mut() {
            tail.open_cap = None;
        }
        if !self.broken {
            self.pump_sends(api);
            self.flush_ctrl(api);
        }
        self.flush_tx(api);
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
        self.flush_ctrl(api);
        self.check_eof(api);
        self.flush_tx(api);
    }

    /// Best-effort cancellation of a pending operation (ES-API
    /// `exs_cancel`). A receive cancels only while un-advertised and
    /// empty; a send cancels only before any of its bytes entered the
    /// stream. Returns true if the operation was removed (no completion
    /// event will follow).
    pub fn exs_cancel(&mut self, id: u64) -> bool {
        // Try the receive queue first.
        if self.receiver.cancel_recv(id) {
            return true;
        }
        // A send is cancellable while fully undispatched and not yet
        // merged with neighbours (a coalesced member's bytes are
        // already interleaved in the shared staging run).
        if let Some(pos) = self.pending_sends.iter().position(|p| {
            p.id == id
                && p.dispatched == 0
                && self.inflight.get(&id).is_some_and(|t| t.members.len() == 1)
        }) {
            self.pending_sends.remove(pos);
            self.inflight.remove(&id);
            if let Some(key) = self.staging.remove(&id) {
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
        if !self.broken {
            self.pump_sends(api);
        }
        self.try_queue_fin(api);
        self.flush_tx(api);
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
    pub fn has_unsent(&self) -> bool {
        if self.broken {
            return false;
        }
        !self.pending_sends.is_empty()
            || !self.pending_ctrl.is_empty()
            || self.tx.staged() > 0
            || (self.send_closed && !self.fin_queued)
    }

    /// Releases every registration the socket owns — the intermediate
    /// ring, the control slots, and any staging regions still parked
    /// (in-flight BCopy sends and cancelled ones awaiting cleanup).
    /// Full-socket close (`exs_close`); idempotent. Without it the
    /// regions stay pinned for the life of the node: registrations
    /// have no other owner.
    pub fn close(&mut self, api: &mut impl VerbsPort) {
        if self.mrs_released {
            return;
        }
        self.mrs_released = true;
        for (_, key) in self.staging.drain() {
            api.deregister_mr(key)
                .expect("free staging region at close");
        }
        for key in self.staging_orphans.drain(..) {
            api.deregister_mr(key)
                .expect("free cancelled staging region");
        }
        api.deregister_mr(self.ctrl_mr.key)
            .expect("free control slots at close");
        api.deregister_mr(self.ring_mr.key)
            .expect("free intermediate ring at close");
    }

    /// True once [`StreamSocket::close`] has released the socket's
    /// registrations.
    pub fn is_closed(&self) -> bool {
        self.mrs_released
    }

    /// True once the peer's stream has fully ended (FIN seen and every
    /// byte delivered).
    pub fn peer_closed(&self) -> bool {
        self.eof_delivered
    }

    fn try_queue_fin(&mut self, api: &mut impl VerbsPort) {
        // The FIN must follow the last data WWI on the FIFO channel, so
        // it can be queued as soon as every byte has been dispatched.
        if !self.send_closed || self.fin_queued || !self.pending_sends.is_empty() {
            return;
        }
        self.fin_queued = true;
        self.pending_ctrl.push_back(Ctrl::Fin {
            final_seq: self.sender.seq().0,
        });
        self.flush_ctrl(api);
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
        self.broken
    }

    /// The typed error that broke the socket, when the failure was
    /// attributable (peer protocol violation or backend verbs error).
    /// `None` for raw transport failures reported only as a CQE status.
    pub fn last_error(&self) -> Option<&ExsError> {
        self.last_error.as_ref()
    }

    fn mark_broken(&mut self) {
        if !self.broken {
            self.broken = true;
            self.events.push(ExsEvent::ConnectionError);
        }
    }

    /// Records a typed failure and breaks the connection. A malformed
    /// peer kills this socket, never the process.
    fn fail(&mut self, e: ExsError) {
        if matches!(e, ExsError::Protocol(_)) {
            self.stats.protocol_errors += 1;
        }
        if self.last_error.is_none() {
            self.last_error = Some(e);
        }
        self.mark_broken();
    }

    /// Drives the socket from a node wake: drains both completion
    /// queues, advances the protocol, and queues user events.
    pub fn handle_wake(&mut self, api: &mut impl VerbsPort) {
        let mut cqes: Vec<Cqe> = Vec::new();
        api.poll_cq(self.recv_cq, usize::MAX, &mut cqes)
            .expect("poll recv cq");
        let recv_count = cqes.len();
        api.poll_cq(self.send_cq, usize::MAX, &mut cqes)
            .expect("poll send cq");
        for (i, cqe) in cqes.into_iter().enumerate() {
            if i < recv_count {
                self.on_recv_cqe(api, cqe);
            } else {
                self.on_send_cqe(api, cqe);
            }
        }
        self.progress(api);
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
        if self.broken {
            return;
        }
        self.pump_sends(api);
        self.try_queue_fin(api);
        self.flush_ctrl(api);
        self.maybe_send_credit(api);
        self.check_eof(api);
        self.flush_tx(api);
    }

    /// Takes the accumulated user events.
    pub fn take_events(&mut self) -> Vec<ExsEvent> {
        std::mem::take(&mut self.events)
    }

    pub(crate) fn on_recv_cqe(&mut self, api: &mut impl VerbsPort, cqe: Cqe) {
        if cqe.status != WcStatus::Success {
            self.mark_broken();
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
                // Control message: parse from the slot buffer.
                let slot = cqe.wr_id;
                let mut buf = [0u8; CTRL_MSG_LEN];
                api.read_mr(
                    self.ctrl_mr.key,
                    self.ctrl_mr.addr + slot * CTRL_SLOT,
                    &mut buf,
                )?;
                let msg = CtrlMsg::decode(&buf)?;
                self.peer_credits += msg.credit_return;
                match msg.ctrl {
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
        // Re-post the consumed slot immediately and account the return.
        let slot = cqe.wr_id;
        let sge = self.ctrl_mr.sge(slot * CTRL_SLOT, CTRL_SLOT as u32);
        api.post_recv(self.qpn, RecvWr::new(slot, sge))?;
        self.owed_credits += 1;
        Ok(())
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
            self.mark_broken();
            return;
        }
        api.charge_cqe_cost();
        debug_assert!(
            matches!(cqe.opcode, WcOpcode::RdmaWrite | WcOpcode::Send),
            "unexpected send-side completion {:?}",
            cqe.opcode
        );
        self.tx.on_signaled_cqe();
        // RC FIFO: this signaled completion retires every WQE posted
        // before it, so drain all owners up to and including its wr_id
        // (a signaled control SEND may retire data WWIs posted ahead of
        // it and own no entry itself).
        while let Some(&(wr_id, owner)) = self.wwi_owner.front() {
            if wr_id > cqe.wr_id {
                break;
            }
            self.wwi_owner.pop_front();
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
            // Resource gates: a WWI needs a peer receive credit (it
            // consumes a posted RECV) and a send-queue slot. Staged
            // WQEs count against the SQ: they will occupy slots the
            // moment the queue flushes.
            if self.peer_credits <= CREDIT_RESERVE {
                return;
            }
            if api.sq_outstanding(self.qpn) + self.tx.staged() >= self.cfg.sq_depth {
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
        let wr_id = self.next_wr;
        self.next_wr += 1;
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
        let owner = head.id;
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
        match self.cfg.wwi_mode {
            WwiMode::Native => {
                self.stage_wr(api, SendWr::write_imm(wr_id, sge, remote, imm), true);
            }
            WwiMode::WritePlusSend => {
                // Old-iWARP emulation (paper §II-B): a plain RDMA WRITE
                // places the data, then a small SEND notifies the peer.
                // The QP's FIFO ordering guarantees the notification
                // arrives after the data; the notification SEND also
                // returns any accumulated credit.
                self.stage_wr(api, SendWr::write(wr_id, sge, remote), true);
                let msg = CtrlMsg {
                    ctrl: Ctrl::DataNotify { imm },
                    credit_return: self.owed_credits,
                };
                self.owed_credits = 0;
                let notify_wr = self.next_wr;
                self.next_wr += 1;
                self.stage_wr(
                    api,
                    SendWr::send_inline(notify_wr, msg.encode_bytes()),
                    true,
                );
            }
        }
        self.peer_credits -= 1;
        self.wwi_owner.push_back((wr_id, owner));
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
                RecvAction::SendAdvert(ad) => self.pending_ctrl.push_back(Ctrl::Advert(ad)),
                RecvAction::SendAck { freed } => self.pending_ctrl.push_back(Ctrl::Ack { freed }),
                RecvAction::Complete { id, len } => {
                    self.events.push(ExsEvent::RecvComplete { id, len })
                }
            }
        }
        self.flush_ctrl(api);
    }

    /// Moves eligible control messages onto the TX queue (they are
    /// posted by the next [`StreamSocket::flush_tx`], sharing its
    /// doorbell with any data WQEs staged in the same pass).
    fn flush_ctrl(&mut self, api: &mut impl VerbsPort) {
        while let Some(front) = self.pending_ctrl.front() {
            let needed = match front {
                Ctrl::Credit => CREDIT_RESERVE,
                _ => CREDIT_RESERVE + 1,
            };
            if self.peer_credits < needed {
                // The reserved credit exists so that a credit return
                // always gets through. One queued behind messages that
                // cannot go would never use it, and with scarce credits
                // both sides end up owing each other everything and
                // unable to say so. A CREDIT carries nothing but the
                // count, so its place among ADVERTs and ACKs means
                // nothing: it overtakes.
                let credit = self
                    .pending_ctrl
                    .iter()
                    .position(|c| matches!(c, Ctrl::Credit));
                match credit {
                    Some(at) if self.peer_credits >= CREDIT_RESERVE => {
                        self.pending_ctrl.remove(at);
                        self.pending_ctrl.push_front(Ctrl::Credit);
                        continue;
                    }
                    _ => return,
                }
            }
            if api.sq_outstanding(self.qpn) + self.tx.staged() >= self.cfg.sq_depth {
                return;
            }
            let ctrl = self.pending_ctrl.pop_front().expect("front exists");
            let msg = CtrlMsg {
                ctrl,
                credit_return: self.owed_credits,
            };
            self.owed_credits = 0;
            let wr_id = self.next_wr;
            self.next_wr += 1;
            self.stage_wr(api, SendWr::send_inline(wr_id, msg.encode_bytes()), false);
            self.peer_credits -= 1;
        }
    }

    /// Stages one WQE on the TX pipe (see [`TxPipe::stage`] for the
    /// signaling policy). `is_data` marks WQEs whose completion the
    /// application waits for.
    fn stage_wr(&mut self, api: &mut impl VerbsPort, wr: SendWr, is_data: bool) {
        let occupancy = api.sq_outstanding(self.qpn) + self.tx.staged();
        self.tx
            .stage(occupancy, &self.cfg, wr, is_data, &mut self.stats);
    }

    /// Posts the staged TX queue as postlists (see [`TxPipe::flush`]).
    fn flush_tx(&mut self, api: &mut impl VerbsPort) {
        self.tx.flush(api, self.qpn, &self.cfg, &mut self.stats);
    }

    /// Refreshes the CQ-pressure gauges (`overflowed`, `max_batch`,
    /// `nonempty_polls`) from the backend into this endpoint's stats;
    /// call before serializing a snapshot.
    pub fn sync_cq_stats(&mut self, api: &impl VerbsPort) {
        let s = api.cq_pressure(self.send_cq);
        let r = api.cq_pressure(self.recv_cq);
        self.stats.cq_overflowed = s.overflowed || r.overflowed;
        self.stats.cq_max_batch = s.max_batch.max(r.max_batch);
        self.stats.cq_nonempty_polls = s.nonempty_polls + r.nonempty_polls;
    }

    fn maybe_send_credit(&mut self, api: &mut impl VerbsPort) {
        if self.owed_credits >= self.credit_threshold
            && self.peer_credits >= CREDIT_RESERVE
            && !self.pending_ctrl.iter().any(|c| matches!(c, Ctrl::Credit))
        {
            self.pending_ctrl.push_back(Ctrl::Credit);
            self.stats.credits_sent += 1;
            self.flush_ctrl(api);
        }
    }
}

impl PreparedSocket {
    /// Low-level constructor for backends that manage their own verbs
    /// objects (the threaded fabric): the caller has already created the
    /// QP/CQs, registered `ring_mr` (local+remote write) and `ctrl_mr`
    /// (local write, `credits` × 64-byte slots), and pre-posted one
    /// receive per slot with `wr_id == slot`.
    #[allow(clippy::too_many_arguments)]
    pub fn from_raw(
        node: NodeId,
        qpn: QpNum,
        send_cq: CqId,
        recv_cq: CqId,
        cfg: ExsConfig,
        ring_mr: MrInfo,
        ctrl_mr: MrInfo,
    ) -> (PreparedSocket, SetupInfo) {
        let info = SetupInfo {
            ring_addr: ring_mr.addr,
            ring_rkey: ring_mr.key.0,
            ring_capacity: cfg.ring_capacity,
            credits: cfg.credits,
        };
        (
            PreparedSocket {
                node,
                qpn,
                send_cq,
                recv_cq,
                cfg,
                ring_mr,
                ctrl_mr,
            },
            info,
        )
    }
}

/// Intermediate product of [`StreamSocket::prepare`]: everything local is
/// set up; the peer's [`SetupInfo`] completes the socket.
pub struct PreparedSocket {
    node: NodeId,
    qpn: QpNum,
    send_cq: CqId,
    recv_cq: CqId,
    cfg: ExsConfig,
    ring_mr: MrInfo,
    ctrl_mr: MrInfo,
}

impl PreparedSocket {
    /// Finishes construction with the peer's parameters.
    pub fn complete(self, peer: SetupInfo) -> StreamSocket {
        let sender = SenderHalf::with_policy(
            self.cfg.mode,
            RemoteRing {
                addr: peer.ring_addr,
                rkey: peer.ring_rkey,
                capacity: peer.ring_capacity,
            },
            self.cfg.max_wwi_chunk,
            self.cfg.direct,
        );
        let receiver = ReceiverHalf::new(
            self.cfg.mode,
            LocalRing {
                addr: self.ring_mr.addr,
                key: self.ring_mr.key.0,
                capacity: self.cfg.ring_capacity,
            },
            self.cfg.effective_ack_threshold(),
        );
        let credit_threshold = self.cfg.effective_credit_threshold();
        StreamSocket {
            node: self.node,
            qpn: self.qpn,
            send_cq: self.send_cq,
            recv_cq: self.recv_cq,
            sender,
            receiver,
            ring_mr: self.ring_mr,
            ctrl_mr: self.ctrl_mr,
            pending_sends: VecDeque::new(),
            inflight: IntMap::default(),
            wwi_owner: VecDeque::new(),
            next_wr: 1,
            tx: TxPipe::new(),
            peer_credits: peer.credits,
            owed_credits: 0,
            credit_threshold,
            pending_ctrl: VecDeque::new(),
            events: Vec::new(),
            stats: ConnStats::default(),
            actions_scratch: Vec::new(),
            staging: IntMap::default(),
            staging_orphans: Vec::new(),
            mrs_released: false,
            send_closed: false,
            fin_queued: false,
            peer_fin: None,
            eof_delivered: false,
            broken: false,
            last_error: None,
            cfg: self.cfg,
        }
    }
}
