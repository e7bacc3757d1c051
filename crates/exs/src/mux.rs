//! Shared-transport multiplexing: many EXS streams over a pooled QP set.
//!
//! The QP-per-stream shape of [`crate::stream::StreamSocket`] hits the
//! classic RDMA scalability wall: every stream pays a private SQ/RQ
//! ring, CQ slots, a pinned intermediate ring and a pinned control-slot
//! region, so per-node memory grows linearly with stream count and the
//! HCA's QP context cache thrashes. A [`MuxEndpoint`] instead rides all
//! streams to one peer node on a small pool of shared QPs
//! ([`crate::config::MuxConfig::qp_pool_size`], default 4):
//!
//! * the 32-bit WWI immediate carries the **stream id** (top bit =
//!   indirect placement); the chunk length travels in the completion's
//!   `byte_len` — see [`crate::messages::encode_mux_imm`];
//! * control messages are stream-tagged [`crate::messages::MuxCtrlMsg`]s;
//! * each pooled transport owns **one** intermediate ring and **one**
//!   credit window, shared by every stream assigned to its slot; both
//!   ends mirror the ring cursor deterministically (FIFO channel), so
//!   only byte counts travel;
//! * per-stream state shrinks to one cache-friendly `MuxStream`
//!   struct — no private rings, no private WQE slots — which is what
//!   makes 100k streams per node affordable (see
//!   [`MuxEndpoint::memory_footprint`]).
//!
//! # Per-stream protocol: the exact-seq advert rule
//!
//! The phase machinery of the single-stream protocol exists to
//! disambiguate *which* adverts a sender may still trust after mode
//! switches. The mux path replaces it with a simpler invariant that
//! needs no phases at all:
//!
//! * the receiver keeps **at most one advert outstanding per stream**,
//!   emitted only when the stream has no buffered ring bytes and a
//!   receive is queued; the advert's `seq` is the stream's delivered
//!   byte count;
//! * the sender accepts an advert iff `advert.seq == send_seq`
//!   **exactly** — the receiver has provably consumed every byte the
//!   sender ever dispatched, so zero-copy placement cannot race any
//!   in-flight indirect data. `advert.seq < send_seq` means data was in
//!   flight when the advert was emitted: the advert is stale and is
//!   discarded (the receiver will observe that data arrive, void the
//!   advert, and re-advertise). `advert.seq > send_seq` is impossible
//!   for a correct peer and surfaces as [`ProtocolError::BadAdvert`].
//!
//! While the sender holds a grant it sends **only** direct chunks, so
//! the receiver's "void the live advert when indirect data arrives"
//! rule never kills a grant the sender is actually using.
//!
//! # Flow control layering
//!
//! Three independent controls compose:
//!
//! 1. **receive credits** (transport): every WWI or control SEND
//!    consumes one pre-posted receive slot, returned piggybacked on
//!    control traffic — the same `chan::Channel` the
//!    single-stream socket holds, with the stream id as its tag;
//! 2. **shared-ring space** (transport): indirect bytes reserve space
//!    on the send-side ring mirror; the receiver frees space only as
//!    the fully-copied *prefix* of the chunk FIFO pops, and returns it
//!    in transport-scoped ACKs (stream id [`STREAM_NONE`]);
//! 3. **per-stream windows** (stream): un-ACKed indirect bytes per
//!    stream are capped ([`crate::config::MuxConfig::stream_window`]),
//!    so one firehose stream cannot monopolize the shared ring;
//!    returns travel as stream-tagged ACKs.
//!
//! The sender pumps streams round-robin, one chunk per stream per
//! round, so fairness under contention is structural.

use std::collections::{BTreeSet, VecDeque};

use rdma_verbs::{
    connect_pool, Access, CqId, Cqe, MrInfo, MrKey, NodeId, QpNum, RemoteAddr, SendWr, Sge, SimNet,
    WcOpcode, WcStatus,
};
use simnet::IntMap;

use crate::buffer::SenderRing;
use crate::chan::{ctrl_region_bytes, poll_cqs, Channel};
use crate::config::ExsConfig;
use crate::error::{ExsError, ProtocolError};
use crate::messages::{
    decode_mux_imm, encode_mux_imm, Advert, Ctrl, TransferKind, MAX_MUX_STREAM, STREAM_NONE,
};
use crate::phase::Phase;
use crate::port::VerbsPort;
use crate::seq::Seq;
use crate::stats::ConnStats;

/// Modeled bytes per SQ/RQ/CQ slot in the deterministic memory
/// accounting (a WQE or CQE context entry; real HCAs use 64-byte
/// strides for both).
pub const WQE_SLOT_BYTES: u64 = 64;

/// Stream-tagged completion events: what a [`MuxEndpoint`] delivers to
/// the application, and what every hosted [`crate::Endpoint`] delivers
/// through a reactor (a socket is stream 0 on slot 0).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MuxEvent {
    /// A `mux_send` finished: every byte left the user buffer.
    SendComplete {
        /// Stream the send belonged to.
        stream: u32,
        /// User token passed to `mux_send`.
        id: u64,
        /// Total bytes sent.
        len: u64,
    },
    /// A `mux_recv` finished: `len` bytes are in the user buffer
    /// (`len == 0` after the peer closed the stream means end-of-stream).
    RecvComplete {
        /// Stream the receive belonged to.
        stream: u32,
        /// User token passed to `mux_recv`.
        id: u64,
        /// Bytes delivered.
        len: u32,
    },
    /// The peer closed the stream and every byte of it was delivered;
    /// later receives complete with zero bytes. (A pooled endpoint
    /// retires the id once the local direction has closed as well.)
    StreamClosed {
        /// The closed stream.
        stream: u32,
    },
    /// A transport failed (QP error or peer protocol violation). Every
    /// stream assigned to its slot is dead; streams on other slots live.
    TransportError {
        /// Pool slot of the failed transport.
        slot: usize,
    },
}

/// Transport parameters one side shares with its peer when a pool slot
/// is established: the same ring and credit figures a stream socket
/// shares.
pub use crate::stream::SetupInfo as MuxPeerInfo;

/// An accepted advert: permission to RDMA WRITE directly into the
/// peer's posted receive buffer.
#[derive(Clone, Copy, Debug)]
struct MuxGrant {
    addr: u64,
    len: u32,
    rkey: u32,
    waitall: bool,
    filled: u32,
}

/// One queued `mux_send`.
#[derive(Debug)]
struct MuxSend {
    /// The endpoint's own key for this send's [`SendTrack`].
    token: u64,
    /// The caller's id, carried only by the completion.
    id: u64,
    addr: u64,
    len: u64,
    key: MrKey,
    dispatched: u64,
}

/// One queued `mux_recv`.
#[derive(Debug)]
struct MuxRecvOp {
    id: u64,
    addr: u64,
    len: u32,
    key: u32,
    waitall: bool,
    filled: u32,
}

/// One indirect arrival parked in the shared ring, awaiting copy-out.
/// Chunks pop off the transport FIFO only once fully copied, which is
/// when their ring bytes become free — out-of-order copy-out is fine,
/// out-of-order *freeing* would desynchronize the ring mirrors.
#[derive(Debug)]
struct MuxChunk {
    stream: u32,
    offset: u64,
    len: u64,
    copied: u64,
}

/// Liveness tracking for one dispatched `mux_send`.
struct SendTrack {
    stream: u32,
    id: u64,
    len: u64,
    outstanding: u32,
    dispatched_all: bool,
}

/// All per-stream state. This struct (plus its empty queues) is the
/// entire marginal cost of one more stream on a shared transport — no
/// ring, no WQE slots, no pinned control region.
struct MuxStream {
    /// Bytes dispatched into this stream's send direction.
    send_seq: u64,
    /// Bytes delivered to user receive buffers.
    recv_seq: u64,
    sends: VecDeque<MuxSend>,
    recvs: VecDeque<MuxRecvOp>,
    /// Transport chunk ids (FIFO) holding this stream's buffered bytes.
    chunk_ids: VecDeque<u64>,
    /// Ring bytes buffered for this stream and not yet copied out.
    buffered: u64,
    /// Un-ACKed indirect bytes in flight through the shared ring.
    window_out: u64,
    /// Copied-out bytes not yet returned to the peer's window.
    owed_window: u64,
    /// Direct-placement permission from an accepted advert.
    grant: Option<MuxGrant>,
    /// One advert is outstanding for the head receive.
    advert_live: bool,
    /// This stream sits in its transport's round-robin send queue.
    in_send_queue: bool,
    /// Dispatched sends whose completion has not yet been reported.
    live_sends: u32,
    send_closed: bool,
    fin_queued: bool,
    peer_fin: Option<u64>,
    eof_delivered: bool,
}

impl MuxStream {
    fn new() -> MuxStream {
        MuxStream {
            send_seq: 0,
            recv_seq: 0,
            sends: VecDeque::new(),
            recvs: VecDeque::new(),
            chunk_ids: VecDeque::new(),
            buffered: 0,
            window_out: 0,
            owed_window: 0,
            grant: None,
            advert_live: false,
            in_send_queue: false,
            live_sends: 0,
            send_closed: false,
            fin_queued: false,
            peer_fin: None,
            eof_delivered: false,
        }
    }
}

/// One pooled QP with the shared resources every assigned stream rides.
struct MuxTransport {
    /// The pooled QP's control channel, tagged with stream ids; a data
    /// WQE's owner is the token of the send it carries.
    chan: Channel<u32, u64>,
    ring_mr: MrInfo,
    /// Peer parameters exchanged; sending is gated until then.
    connected: bool,
    peer_ring_addr: u64,
    peer_ring_rkey: u32,
    /// Send-side mirror of the peer's shared ring.
    send_mirror: SenderRing,
    /// Receive-side mirror of the *local* ring as the peer's sender
    /// cursor sees it (arrival commits, prefix frees release).
    recv_mirror: SenderRing,
    /// Indirect arrivals in FIFO order; ids are `chunk_base + index`.
    chunks: VecDeque<MuxChunk>,
    chunk_base: u64,
    /// Ring bytes freed by prefix pops, not yet ACKed to the peer.
    owed_ring: u64,
    /// Sends in flight by token. A token is the endpoint's, issued once
    /// per `mux_send`, so two sends the caller gave one id never share
    /// a track.
    inflight: IntMap<u64, SendTrack>,
    /// Streams with dispatchable sends, pumped round-robin.
    sendable: VecDeque<u32>,
    broken: bool,
}

/// A multiplexing endpoint: all EXS streams from this node to one peer
/// node, carried by a lazily-established pool of shared QPs.
///
/// Stream-to-slot assignment is a pure function of the stream id
/// ([`crate::config::MuxAssignment`]), so both ends agree without any
/// coordination message; a slot's transport is established only when
/// the first stream assigned to it appears (see
/// `MuxEndpoint::pending_slots`).
pub struct MuxEndpoint {
    node: NodeId,
    cfg: ExsConfig,
    cqs: Option<(CqId, CqId)>,
    transports: Vec<Option<MuxTransport>>,
    by_qpn: IntMap<QpNum, usize>,
    streams: IntMap<u32, MuxStream>,
    closed: BTreeSet<u32>,
    next_token: u64,
    events: Vec<MuxEvent>,
    /// What a wake drained off the CQs, kept so a wake allocates nothing.
    cqes: Vec<Cqe>,
    stats: ConnStats,
    last_error: Option<ExsError>,
}

impl MuxEndpoint {
    /// A new endpoint on `node`. Constructing one opts into
    /// multiplexing, so the config is validated with `mux.enabled`
    /// forced on (in particular [`crate::config::WwiMode::Native`] is
    /// required: the immediate carries the stream id).
    pub fn new(node: NodeId, cfg: &ExsConfig) -> MuxEndpoint {
        let mut cfg = cfg.clone();
        cfg.mux.enabled = true;
        cfg.validate().expect("invalid EXS mux configuration");
        let pool = cfg.mux.qp_pool_size;
        MuxEndpoint {
            node,
            cfg,
            cqs: None,
            transports: (0..pool).map(|_| None).collect(),
            by_qpn: IntMap::default(),
            streams: IntMap::default(),
            closed: BTreeSet::new(),
            next_token: 0,
            events: Vec::new(),
            cqes: Vec::new(),
            stats: ConnStats::default(),
            last_error: None,
        }
    }

    /// The endpoint's configuration (with `mux.enabled` forced on).
    pub(crate) fn config(&self) -> &ExsConfig {
        &self.cfg
    }

    /// Streams currently open.
    pub fn streams_open(&self) -> usize {
        self.streams.len()
    }

    /// Pool transports established so far.
    pub fn transports_active(&self) -> usize {
        self.transports.iter().flatten().count()
    }

    /// Protocol statistics, aggregated over the whole pool.
    pub fn stats(&self) -> &ConnStats {
        &self.stats
    }

    /// The typed error behind the most recent transport failure, when
    /// one was attributable.
    pub fn last_error(&self) -> Option<&ExsError> {
        self.last_error.as_ref()
    }

    /// Takes the accumulated user events.
    pub fn take_events(&mut self) -> Vec<MuxEvent> {
        std::mem::take(&mut self.events)
    }

    /// Takes the accumulated user events one by one, keeping the
    /// queue's storage for the next ones.
    pub(crate) fn drain_events(&mut self) -> std::vec::Drain<'_, MuxEvent> {
        self.events.drain(..)
    }

    /// Number of user events queued and not yet taken.
    pub(crate) fn events_pending(&self) -> usize {
        self.events.len()
    }

    /// The shared CQ pair every pooled transport completes onto, once
    /// established.
    pub(crate) fn cqs(&self) -> Option<(CqId, CqId)> {
        self.cqs
    }

    /// Pins the endpoint to an existing `(send_cq, recv_cq)` pair
    /// before any transport is established — the reactor-hosting shape,
    /// where the event loop owns the CQs. Panics if a transport already
    /// fixed a different pair.
    pub fn set_cqs(&mut self, send_cq: CqId, recv_cq: CqId) {
        match self.cqs {
            None => self.cqs = Some((send_cq, recv_cq)),
            Some(cqs) => assert_eq!(cqs, (send_cq, recv_cq), "CQ pair already fixed"),
        }
    }

    /// Size of the transport pool (established or not).
    pub(crate) fn pool_size(&self) -> usize {
        self.transports.len()
    }

    /// Pool slot carrying the given stream id.
    pub fn slot_of(&self, stream: u32) -> usize {
        self.cfg.mux.assignment.slot(stream, self.transports.len())
    }

    /// The QP established for a slot, if any (the reactor's dispatch
    /// key).
    pub fn slot_qpn(&self, slot: usize) -> Option<QpNum> {
        self.transports[slot].as_ref().map(|t| t.chan.qpn())
    }

    /// True once the slot's transport has failed: every stream assigned
    /// to it is dead.
    pub(crate) fn slot_broken(&self, slot: usize) -> bool {
        self.transports[slot].as_ref().is_some_and(|t| t.broken)
    }

    /// Opens a stream. The id must be new (never opened before on this
    /// endpoint) and fit the 31-bit immediate encoding. If the slot's
    /// transport is not yet established the stream simply queues work
    /// until `MuxEndpoint::connect_transport` runs.
    pub fn open_stream(&mut self, stream: u32) -> Result<(), ExsError> {
        if stream > MAX_MUX_STREAM {
            return Err(ProtocolError::StreamIdOverflow(stream).into());
        }
        assert!(
            !self.streams.contains_key(&stream) && !self.closed.contains(&stream),
            "stream id {stream} already used"
        );
        self.streams.insert(stream, MuxStream::new());
        self.stats.mux_streams_peak = self.stats.mux_streams_peak.max(self.streams.len() as u64);
        Ok(())
    }

    /// Slots that have at least one open stream but no established
    /// transport yet — the lazy-establishment work list.
    pub(crate) fn pending_slots(&self) -> Vec<usize> {
        let pool = self.transports.len();
        let mut pending = vec![false; pool];
        for &id in self.streams.keys() {
            let slot = self.cfg.mux.assignment.slot(id, pool);
            pending[slot] = self.transports[slot].is_none();
        }
        (0..pool).filter(|&s| pending[s]).collect()
    }

    /// The pool slots a pair of endpoints still has to establish:
    /// pending on either side and set up on neither, in slot order.
    pub(crate) fn slots_to_establish(a: &MuxEndpoint, b: &MuxEndpoint) -> Vec<usize> {
        let (pending_a, pending_b) = (a.pending_slots(), b.pending_slots());
        (0..a.transports.len())
            .filter(|slot| pending_a.contains(slot) || pending_b.contains(slot))
            .filter(|&slot| a.transports[slot].is_none() && b.transports[slot].is_none())
            .collect()
    }

    /// Establishes the local half of a pool slot over an
    /// already-connected QP: registers the shared ring and control
    /// slots, pre-posts the receive credits, and returns the
    /// [`MuxPeerInfo`] to hand to the peer. All transports of one
    /// endpoint must complete onto the same `(send_cq, recv_cq)` pair.
    pub(crate) fn prepare_transport(
        &mut self,
        api: &mut impl VerbsPort,
        slot: usize,
        qpn: QpNum,
        send_cq: CqId,
        recv_cq: CqId,
    ) -> MuxPeerInfo {
        assert!(self.transports[slot].is_none(), "slot {slot} already set");
        match self.cqs {
            None => self.cqs = Some((send_cq, recv_cq)),
            Some(cqs) => assert_eq!(
                cqs,
                (send_cq, recv_cq),
                "all pool transports must share the endpoint's CQ pair"
            ),
        }
        let ring_mr = api.register_mr(
            self.cfg.ring_capacity as usize,
            Access::local_remote_write(),
        );
        let chan = Channel::prepare(api, qpn, send_cq, recv_cq, &self.cfg);
        let info = MuxPeerInfo::of(&ring_mr, &self.cfg);
        self.by_qpn.insert(qpn, slot);
        self.transports[slot] = Some(MuxTransport {
            chan,
            recv_mirror: SenderRing::new(ring_mr.len as u64),
            ring_mr,
            connected: false,
            peer_ring_addr: 0,
            peer_ring_rkey: 0,
            send_mirror: SenderRing::new(1),
            chunks: VecDeque::new(),
            chunk_base: 0,
            owed_ring: 0,
            inflight: IntMap::default(),
            sendable: VecDeque::new(),
            broken: false,
        });
        info
    }

    /// Completes a slot's establishment with the peer's parameters and
    /// schedules any streams that queued sends while waiting, in id
    /// order.
    pub(crate) fn connect_transport(&mut self, slot: usize, peer: MuxPeerInfo) {
        let pool = self.transports.len();
        let t = self.transports[slot]
            .as_mut()
            .expect("prepare_transport first");
        t.send_mirror = SenderRing::new(peer.ring_capacity);
        t.peer_ring_addr = peer.ring_addr;
        t.peer_ring_rkey = peer.ring_rkey;
        t.chan.open(peer.credits);
        t.connected = true;
        let first = t.sendable.len();
        for (&id, s) in self.streams.iter_mut() {
            if self.cfg.mux.assignment.slot(id, pool) == slot
                && !s.sends.is_empty()
                && !s.in_send_queue
            {
                s.in_send_queue = true;
                t.sendable.push_back(id);
            }
        }
        t.sendable.make_contiguous()[first..].sort_unstable();
    }

    /// Depth for the shared CQ pair: every pool member's SQ and RQ can
    /// complete onto it concurrently.
    pub fn shared_cq_depth(cfg: &ExsConfig) -> usize {
        cfg.cq_depth(cfg.mux.qp_pool_size)
    }

    /// Asynchronous send on a stream: queues and returns immediately;
    /// [`MuxEvent::SendComplete`] reports buffer reuse and carries `id`,
    /// which need not be unique among sends in flight. The buffer must
    /// stay untouched until then.
    pub fn mux_send(
        &mut self,
        api: &mut impl VerbsPort,
        stream: u32,
        mr: &MrInfo,
        offset: u64,
        len: u64,
        id: u64,
    ) -> Result<(), ExsError> {
        assert!(
            offset + len <= mr.len as u64,
            "send range outside registered region"
        );
        let slot = self.slot_of(stream);
        let s = self
            .streams
            .get_mut(&stream)
            .ok_or(ProtocolError::UnknownStream(stream))?;
        assert!(!s.send_closed, "mux_send after close_stream");
        if len == 0 {
            self.events
                .push(MuxEvent::SendComplete { stream, id, len: 0 });
            return Ok(());
        }
        s.sends.push_back(MuxSend {
            token: self.next_token,
            id,
            addr: mr.addr + offset,
            len,
            key: mr.key,
            dispatched: 0,
        });
        s.live_sends += 1;
        self.next_token += 1;
        // The inflight track is created lazily by the pump's first
        // dispatched chunk, so sends queued before the slot's transport
        // exists need no special casing here.
        if self.transports[slot].is_some() {
            {
                let t = self.transports[slot].as_mut().expect("checked");
                if t.connected && !s.in_send_queue {
                    s.in_send_queue = true;
                    t.sendable.push_back(stream);
                }
            }
            self.pump_transport(api, slot);
            self.flush(api, slot);
        }
        Ok(())
    }

    /// Asynchronous receive on a stream: queues and returns
    /// immediately; [`MuxEvent::RecvComplete`] reports delivery. With
    /// `waitall` the receive completes only once full.
    #[allow(clippy::too_many_arguments)]
    pub fn mux_recv(
        &mut self,
        api: &mut impl VerbsPort,
        stream: u32,
        mr: &MrInfo,
        offset: u64,
        len: u32,
        waitall: bool,
        id: u64,
    ) -> Result<(), ExsError> {
        assert!(
            offset + len as u64 <= mr.len as u64,
            "receive range outside registered region"
        );
        let slot = self.slot_of(stream);
        let s = self
            .streams
            .get_mut(&stream)
            .ok_or(ProtocolError::UnknownStream(stream))?;
        if s.eof_delivered {
            self.events
                .push(MuxEvent::RecvComplete { stream, id, len: 0 });
            return Ok(());
        }
        s.recvs.push_back(MuxRecvOp {
            id,
            addr: mr.addr + offset,
            len,
            key: mr.key.0,
            waitall,
            filled: 0,
        });
        self.service_recv(api, slot, stream);
        self.flush(api, slot);
        Ok(())
    }

    /// Half-closes a stream's send direction: queued data still
    /// drains, then a stream-tagged FIN announces the final byte
    /// count. The stream's state is reclaimed (and
    /// [`MuxEvent::StreamClosed`] fires) once both directions have
    /// fully closed. Sibling streams are untouched.
    pub fn close_stream(&mut self, api: &mut impl VerbsPort, stream: u32) {
        let slot = self.slot_of(stream);
        let Some(s) = self.streams.get_mut(&stream) else {
            return;
        };
        s.send_closed = true;
        self.try_queue_fin(slot, stream);
        if self.transports[slot].is_some() {
            self.pump_transport(api, slot);
            self.flush(api, slot);
        }
        self.maybe_retire(stream);
    }

    /// Queues the stream's FIN once every byte has been dispatched
    /// (the FIN must follow the last data WWI on the FIFO channel).
    fn try_queue_fin(&mut self, slot: usize, stream: u32) {
        let Some(s) = self.streams.get_mut(&stream) else {
            return;
        };
        if !s.send_closed || s.fin_queued || !s.sends.is_empty() {
            return;
        }
        let Some(t) = self.transports[slot].as_mut() else {
            return;
        };
        if !t.connected {
            return;
        }
        s.fin_queued = true;
        let final_seq = s.send_seq;
        t.chan.push_ctrl(stream, Ctrl::Fin { final_seq });
    }

    /// Reclaims a stream whose both directions are fully done.
    fn maybe_retire(&mut self, stream: u32) {
        let done = self.streams.get(&stream).is_some_and(|s| {
            s.eof_delivered
                && s.fin_queued
                && s.sends.is_empty()
                && s.live_sends == 0
                && s.chunk_ids.is_empty()
                && !s.in_send_queue
        });
        if done {
            self.streams.remove(&stream);
            self.closed.insert(stream);
        }
    }

    /// Drives the endpoint from a node wake: drains the shared CQ
    /// pair, advances every transport, and queues user events.
    pub fn handle_wake(&mut self, api: &mut impl VerbsPort) {
        if let Some((send_cq, recv_cq)) = self.cqs {
            let mut cqes = std::mem::take(&mut self.cqes);
            let recvs = poll_cqs(api, send_cq, recv_cq, &mut cqes);
            for (i, cqe) in cqes.drain(..).enumerate() {
                if i < recvs {
                    self.on_recv_cqe(api, cqe);
                } else {
                    self.on_send_cqe(api, cqe);
                }
            }
            self.cqes = cqes;
        }
        self.progress(api);
    }

    /// Advances every established transport: pumps sends round-robin,
    /// queues due FINs, flushes control traffic and credit returns.
    /// Backends that dispatch CQEs themselves (the reactor) call this
    /// once per service round instead of [`MuxEndpoint::handle_wake`].
    pub(crate) fn progress(&mut self, api: &mut impl VerbsPort) {
        for slot in 0..self.transports.len() {
            let Some(t) = self.transports[slot].as_ref() else {
                continue;
            };
            if t.broken {
                continue;
            }
            self.pump_transport(api, slot);
            let t = self.transports[slot].as_mut().expect("checked above");
            t.chan.flush_ctrl(api, &mut self.stats);
            t.chan.maybe_send_credit(api, &mut self.stats);
            t.chan.flush_tx(api, &mut self.stats);
        }
    }

    /// Dispatches one receive-side completion to its transport. Public
    /// so a [`crate::reactor::Reactor`] hosting this endpoint can feed
    /// it CQEs it drained itself.
    pub(crate) fn on_recv_cqe(&mut self, api: &mut impl VerbsPort, cqe: Cqe) {
        let Some(&slot) = self.by_qpn.get(&cqe.qpn) else {
            return;
        };
        if cqe.status != WcStatus::Success {
            self.fail_transport(slot, None);
            return;
        }
        if let Err(e) = self.try_on_recv_cqe(api, slot, cqe) {
            self.fail_transport(slot, Some(e));
        }
    }

    /// Dispatches one send-side completion to its transport.
    pub(crate) fn on_send_cqe(&mut self, api: &mut impl VerbsPort, cqe: Cqe) {
        let Some(&slot) = self.by_qpn.get(&cqe.qpn) else {
            return;
        };
        if cqe.status != WcStatus::Success {
            self.fail_transport(slot, None);
            return;
        }
        api.charge_cqe_cost();
        let Some(t) = self.transports[slot].as_mut() else {
            return;
        };
        let mut completed: Vec<SendTrack> = Vec::new();
        for token in t.chan.retire(cqe.wr_id) {
            let track = t
                .inflight
                .get_mut(&token)
                .expect("send track for completed WWI");
            track.outstanding -= 1;
            if track.outstanding == 0 && track.dispatched_all {
                completed.push(t.inflight.remove(&token).expect("checked above"));
            }
        }
        for SendTrack {
            stream, id, len, ..
        } in completed
        {
            self.stats.sends_completed += 1;
            self.stats.bytes_sent += len;
            self.events.push(MuxEvent::SendComplete { stream, id, len });
            if let Some(s) = self.streams.get_mut(&stream) {
                s.live_sends -= 1;
            }
            self.maybe_retire(stream);
        }
    }

    /// Records a transport failure: the slot is dead, every stream
    /// assigned to it is stranded, but the process (and every other
    /// slot) lives on.
    fn fail_transport(&mut self, slot: usize, e: Option<ExsError>) {
        if let Some(e) = e {
            if matches!(e, ExsError::Protocol(_)) {
                self.stats.protocol_errors += 1;
            }
            if self.last_error.is_none() {
                self.last_error = Some(e);
            }
        }
        if let Some(t) = self.transports[slot].as_mut() {
            if !t.broken {
                t.broken = true;
                self.events.push(MuxEvent::TransportError { slot });
            }
        }
    }

    /// The fallible receive path: everything here is driven by bytes
    /// the peer controls, so malformed input surfaces as an
    /// [`ExsError`] that breaks the transport, never a panic.
    fn try_on_recv_cqe(
        &mut self,
        api: &mut impl VerbsPort,
        slot: usize,
        cqe: Cqe,
    ) -> Result<(), ExsError> {
        api.charge_cqe_cost();
        match cqe.opcode {
            WcOpcode::RecvRdmaWithImm => {
                let imm = cqe.imm.ok_or(ProtocolError::MissingImm)?;
                let (kind, stream) = decode_mux_imm(imm);
                match kind {
                    TransferKind::Direct => {
                        self.on_direct_arrival(api, slot, stream, cqe.byte_len)?
                    }
                    TransferKind::Indirect => {
                        self.on_indirect_arrival(api, slot, stream, cqe.byte_len)?
                    }
                }
            }
            WcOpcode::Recv => {
                let t = self.transports[slot].as_mut().expect("slot exists");
                let (stream, ctrl) = t.chan.recv_ctrl(api, &cqe)?;
                self.on_ctrl(api, slot, stream, ctrl)?;
            }
            _ => return Err(ProtocolError::UnexpectedOpcode.into()),
        }
        let t = self.transports[slot].as_mut().expect("slot exists");
        t.chan.repost(api, &cqe)
    }

    /// A zero-copy chunk landed in an advertised receive buffer.
    fn on_direct_arrival(
        &mut self,
        api: &mut impl VerbsPort,
        slot: usize,
        stream: u32,
        len: u32,
    ) -> Result<(), ExsError> {
        // Direct placement into memory we did not advertise is a trust
        // violation the transport cannot absorb: fail the slot.
        let Some(s) = self.streams.get_mut(&stream) else {
            self.stats.mux_demux_errors += 1;
            return Err(ProtocolError::UnknownStream(stream).into());
        };
        if !s.advert_live {
            return Err(ProtocolError::DirectWithoutAdvert.into());
        }
        let head = s
            .recvs
            .front_mut()
            .ok_or(ProtocolError::DirectWithoutAdvert)?;
        match head.filled.checked_add(len) {
            Some(f) if f <= head.len => head.filled = f,
            _ => return Err(ProtocolError::DirectOverfill.into()),
        }
        s.recv_seq += len as u64;
        self.stats.direct_transfers += 1;
        self.stats.direct_bytes += len as u64;
        // A non-waitall receive completes on the first direct chunk
        // (the sender drops its grant after one chunk, symmetrically);
        // a waitall receive keeps the advert live until full.
        let done = !head.waitall || head.filled == head.len;
        if done {
            let op = s.recvs.pop_front().expect("front checked");
            s.advert_live = false;
            self.stats.recvs_completed += 1;
            self.stats.bytes_received += op.filled as u64;
            self.events.push(MuxEvent::RecvComplete {
                stream,
                id: op.id,
                len: op.filled,
            });
        }
        self.service_recv(api, slot, stream);
        Ok(())
    }

    /// An indirect chunk landed in the shared ring. The ring mirror
    /// must be committed even for unknown streams — the bytes are
    /// physically there — so the cursors stay synchronized; garbage
    /// chunks are marked fully copied so the prefix free reclaims them.
    fn on_indirect_arrival(
        &mut self,
        api: &mut impl VerbsPort,
        slot: usize,
        stream: u32,
        len: u32,
    ) -> Result<(), ExsError> {
        let t = self.transports[slot].as_mut().expect("slot exists");
        let want = len as u64;
        let (offset, got) = t.recv_mirror.contiguous_reservation(want);
        if got != want {
            // The peer ignored ring flow control (or our mirrors have
            // diverged, which the FIFO channel makes impossible for a
            // correct peer).
            return Err(ProtocolError::RingOverflow.into());
        }
        t.recv_mirror.commit(want);
        let chunk_id = t.chunk_base + t.chunks.len() as u64;
        let known = self.streams.contains_key(&stream);
        t.chunks.push_back(MuxChunk {
            stream,
            offset,
            len: want,
            copied: if known { 0 } else { want },
        });
        self.stats.indirect_transfers += 1;
        self.stats.indirect_bytes += want;
        if !known {
            // Unknown or already-retired stream: keep the ring
            // consistent, reclaim the bytes, record the anomaly — but
            // do not kill the transport under its healthy streams.
            self.stats.mux_demux_errors += 1;
            if self.last_error.is_none() {
                self.last_error = Some(ProtocolError::UnknownStream(stream).into());
            }
            self.free_ring_prefix(slot);
            return Ok(());
        }
        let s = self.streams.get_mut(&stream).expect("known checked");
        s.buffered += want;
        s.chunk_ids.push_back(chunk_id);
        // Indirect data voids any live advert: the sender provably
        // discarded (or will discard) it, since its send_seq moved past
        // the advert's seq before the advert could be granted.
        s.advert_live = false;
        self.service_recv(api, slot, stream);
        Ok(())
    }

    /// Handles one stream-tagged control message.
    fn on_ctrl(
        &mut self,
        api: &mut impl VerbsPort,
        slot: usize,
        stream: u32,
        ctrl: Ctrl,
    ) -> Result<(), ExsError> {
        match ctrl {
            Ctrl::Ack { freed } if stream == STREAM_NONE => {
                // Transport-scoped ACK: shared-ring bytes came free.
                self.stats.acks_received += 1;
                let t = self.transports[slot].as_mut().expect("slot exists");
                t.send_mirror
                    .checked_release(freed)
                    .ok_or(ProtocolError::AckUnderflow)?;
                // Ring-blocked streams stayed queued; just pump.
                self.pump_transport(api, slot);
            }
            Ctrl::Credit => {
                // Pure credit return; the piggyback already counted.
            }
            _ if stream == STREAM_NONE => {
                return Err(ProtocolError::BadAdvert.into());
            }
            Ctrl::Ack { freed } => {
                // Stream-scoped ACK: per-stream window bytes returned.
                self.stats.acks_received += 1;
                if let Some(s) = self.streams.get_mut(&stream) {
                    s.window_out = s
                        .window_out
                        .checked_sub(freed)
                        .ok_or(ProtocolError::AckUnderflow)?;
                    if !s.sends.is_empty() && !s.in_send_queue {
                        s.in_send_queue = true;
                        let t = self.transports[slot].as_mut().expect("slot exists");
                        t.sendable.push_back(stream);
                    }
                    self.pump_transport(api, slot);
                }
                // An ACK for a retired stream is a benign straggler:
                // our side already forgot the window.
            }
            Ctrl::Advert(ad) => self.on_stream_advert(api, slot, stream, ad)?,
            Ctrl::Fin { final_seq } => self.on_stream_fin(api, slot, stream, final_seq)?,
            Ctrl::DataNotify { .. } => {
                // The WritePlusSend emulation is rejected at config
                // validation; a notify here is a peer bug.
                return Err(ProtocolError::UnexpectedOpcode.into());
            }
        }
        Ok(())
    }

    /// Sender side of the exact-seq advert rule.
    fn on_stream_advert(
        &mut self,
        api: &mut impl VerbsPort,
        slot: usize,
        stream: u32,
        ad: Advert,
    ) -> Result<(), ExsError> {
        self.stats.adverts_received += 1;
        if ad.len == 0 {
            return Err(ProtocolError::BadAdvert.into());
        }
        let Some(s) = self.streams.get_mut(&stream) else {
            if self.closed.contains(&stream) {
                // Raced our FIN; the peer will flush the recv at EOF.
                self.stats.adverts_discarded += 1;
                return Ok(());
            }
            self.stats.mux_demux_errors += 1;
            if self.last_error.is_none() {
                self.last_error = Some(ProtocolError::UnknownStream(stream).into());
            }
            return Ok(());
        };
        match ad.seq.checked_distance_from(Seq(s.send_seq)) {
            None => {
                // Stale: bytes were in flight when it was emitted.
                self.stats.adverts_discarded += 1;
                return Ok(());
            }
            Some(0) => {}
            Some(_) => return Err(ProtocolError::BadAdvert.into()),
        }
        if s.grant.is_some() {
            // A second advert can only follow consumption of the
            // first; overlapping grants mean the peer broke the
            // one-outstanding-advert invariant.
            return Err(ProtocolError::BadAdvert.into());
        }
        s.grant = Some(MuxGrant {
            addr: ad.addr,
            len: ad.len,
            rkey: ad.rkey,
            waitall: ad.waitall,
            filled: 0,
        });
        if !s.sends.is_empty() && !s.in_send_queue {
            s.in_send_queue = true;
            let t = self.transports[slot].as_mut().expect("slot exists");
            t.sendable.push_back(stream);
        }
        self.pump_transport(api, slot);
        Ok(())
    }

    /// Receiver side of a stream FIN: the FIFO channel puts it behind
    /// the stream's last data chunk, so the claimed final length must
    /// equal delivered plus buffered bytes exactly.
    fn on_stream_fin(
        &mut self,
        api: &mut impl VerbsPort,
        slot: usize,
        stream: u32,
        final_seq: u64,
    ) -> Result<(), ExsError> {
        let Some(s) = self.streams.get_mut(&stream) else {
            if self.closed.contains(&stream) {
                return Err(ProtocolError::DuplicateFin.into());
            }
            self.stats.mux_demux_errors += 1;
            if self.last_error.is_none() {
                self.last_error = Some(ProtocolError::UnknownStream(stream).into());
            }
            return Ok(());
        };
        if s.peer_fin.is_some() {
            return Err(ProtocolError::DuplicateFin.into());
        }
        let arrived = s.recv_seq + s.buffered;
        match Seq(final_seq).checked_distance_from(Seq(s.recv_seq)) {
            Some(d) if d == s.buffered => {}
            _ => {
                return Err(ProtocolError::FinSeqMismatch {
                    claimed: final_seq,
                    arrived,
                }
                .into());
            }
        }
        s.peer_fin = Some(final_seq);
        self.service_recv(api, slot, stream);
        Ok(())
    }

    /// Drains buffered ring bytes into the stream's queued receives,
    /// completes what's due, frees fully-copied ring prefix, emits the
    /// next advert when the gate opens, returns window bytes, and
    /// delivers end-of-stream — the whole receive-side state machine
    /// for one stream.
    fn service_recv(&mut self, api: &mut impl VerbsPort, slot: usize, stream: u32) {
        let Some(t) = self.transports[slot].as_mut() else {
            return;
        };
        let Some(s) = self.streams.get_mut(&stream) else {
            return;
        };
        let window = self
            .cfg
            .mux
            .effective_stream_window(t.recv_mirror.capacity());
        // Copy-out: ring chunks into user buffers, in stream order.
        while s.buffered > 0 {
            let Some(op) = s.recvs.front_mut() else {
                break;
            };
            let &chunk_id = s.chunk_ids.front().expect("buffered implies chunks");
            let idx = (chunk_id - t.chunk_base) as usize;
            let chunk = &mut t.chunks[idx];
            debug_assert_eq!(chunk.stream, stream, "chunk FIFO / stream index divergence");
            let avail = chunk.len - chunk.copied;
            let space = (op.len - op.filled) as u64;
            let n = avail.min(space);
            if n > 0 {
                api.copy_mr(
                    t.ring_mr.key,
                    t.ring_mr.addr + chunk.offset + chunk.copied,
                    MrKey(op.key),
                    op.addr + op.filled as u64,
                    n,
                )
                .expect("shared-ring copy-out");
                chunk.copied += n;
                op.filled += n as u32;
                s.buffered -= n;
                s.recv_seq += n;
                s.owed_window += n;
                self.stats.bytes_copied_out += n;
            }
            if chunk.copied == chunk.len {
                s.chunk_ids.pop_front();
            }
            let full = op.filled == op.len;
            if full || (!op.waitall && op.filled > 0 && s.buffered == 0) {
                let op = s.recvs.pop_front().expect("front checked");
                self.stats.recvs_completed += 1;
                self.stats.bytes_received += op.filled as u64;
                self.events.push(MuxEvent::RecvComplete {
                    stream,
                    id: op.id,
                    len: op.filled,
                });
            } else if !full && s.buffered == 0 {
                break;
            }
        }
        // End-of-stream: FIN seen and every byte consumed.
        let mut closed_now = false;
        if let Some(fin) = s.peer_fin {
            if !s.eof_delivered && s.buffered == 0 && s.recv_seq == fin {
                s.eof_delivered = true;
                closed_now = true;
                while let Some(op) = s.recvs.pop_front() {
                    self.stats.recvs_completed += 1;
                    self.stats.bytes_received += op.filled as u64;
                    self.events.push(MuxEvent::RecvComplete {
                        stream,
                        id: op.id,
                        len: op.filled,
                    });
                }
            }
        }
        // Advert gate: a queued receive, nothing buffered, no advert
        // outstanding, peer still sending, transport usable.
        if !s.recvs.is_empty()
            && s.buffered == 0
            && !s.advert_live
            && s.peer_fin.is_none()
            && t.connected
        {
            let op = s.recvs.front().expect("non-empty");
            s.advert_live = true;
            self.stats.adverts_sent += 1;
            let advert = Advert {
                seq: Seq(s.recv_seq),
                phase: Phase(0),
                addr: op.addr + op.filled as u64,
                len: op.len - op.filled,
                rkey: op.key,
                waitall: op.waitall,
            };
            t.chan.push_ctrl(stream, Ctrl::Advert(advert));
        }
        // Window return: at half-window, or when the stream drains.
        if s.owed_window > 0 && (s.owed_window * 2 >= window || s.buffered == 0) {
            let freed = s.owed_window;
            s.owed_window = 0;
            self.stats.acks_sent += 1;
            t.chan.push_ctrl(stream, Ctrl::Ack { freed });
        }
        self.free_ring_prefix(slot);
        if closed_now {
            self.events.push(MuxEvent::StreamClosed { stream });
            self.maybe_retire(stream);
        }
        self.flush(api, slot);
    }

    /// Pops the fully-copied prefix of the chunk FIFO, releasing its
    /// ring bytes and queueing a transport-scoped ACK when enough have
    /// accumulated (or the ring went quiet).
    fn free_ring_prefix(&mut self, slot: usize) {
        let Some(t) = self.transports[slot].as_mut() else {
            return;
        };
        let mut freed = 0u64;
        while let Some(front) = t.chunks.front() {
            if front.copied != front.len {
                break;
            }
            freed += front.len;
            t.chunks.pop_front();
            t.chunk_base += 1;
        }
        if freed > 0 {
            t.recv_mirror
                .checked_release(freed)
                .expect("prefix frees are locally counted");
            t.owed_ring += freed;
        }
        let threshold = self.cfg.effective_ack_threshold();
        if t.owed_ring > 0 && (t.owed_ring >= threshold || t.chunks.is_empty()) {
            let freed = t.owed_ring;
            t.owed_ring = 0;
            self.stats.acks_sent += 1;
            t.chan.push_ctrl(STREAM_NONE, Ctrl::Ack { freed });
        }
    }

    /// Round-robin sender pump for one transport: one chunk per stream
    /// per round, gated by credits, SQ depth, ring space (transport)
    /// and stream windows.
    fn pump_transport(&mut self, api: &mut impl VerbsPort, slot: usize) {
        let Some(t) = self.transports[slot].as_mut() else {
            return;
        };
        if t.broken || !t.connected {
            return;
        }
        let window_cap = self
            .cfg
            .mux
            .effective_stream_window(t.send_mirror.capacity());
        let max_chunk = self.cfg.max_wwi_chunk as u64;
        let mut drained_fins: Vec<u32> = Vec::new();
        loop {
            if !t.chan.can_send_data(api) {
                break;
            }
            let Some(stream) = t.sendable.pop_front() else {
                break;
            };
            let Some(s) = self.streams.get_mut(&stream) else {
                continue;
            };
            let Some(head) = s.sends.front_mut() else {
                s.in_send_queue = false;
                continue;
            };
            let remaining = head.len - head.dispatched;
            let (raddr, rkey, chunk, is_direct) = if let Some(g) = s.grant.as_ref() {
                let room = (g.len - g.filled) as u64;
                (
                    g.addr + g.filled as u64,
                    g.rkey,
                    remaining.min(room).min(max_chunk),
                    true,
                )
            } else {
                let window_left = window_cap - s.window_out;
                if window_left == 0 {
                    // Blocked on this stream's window; the stream ACK
                    // that reopens it re-queues the stream.
                    s.in_send_queue = false;
                    continue;
                }
                let want = remaining.min(window_left).min(max_chunk);
                let (off, got) = t.send_mirror.contiguous_reservation(want);
                if got == 0 {
                    // Shared ring full: the whole transport waits for
                    // the next transport-scoped ACK. Keep the stream
                    // at the queue head so fairness resumes in place.
                    t.sendable.push_front(stream);
                    break;
                }
                (t.peer_ring_addr + off, t.peer_ring_rkey, got, false)
            };
            debug_assert!(chunk > 0, "pump issued an empty chunk");
            let sge = Sge::new(head.addr + head.dispatched, chunk as u32, head.key);
            let remote = RemoteAddr {
                addr: raddr,
                rkey: MrKey(rkey),
            };
            let kind = if is_direct {
                TransferKind::Direct
            } else {
                TransferKind::Indirect
            };
            let imm = encode_mux_imm(kind, stream);
            let (token, send_id) = (head.token, head.id);
            head.dispatched += chunk;
            let head_done = head.dispatched == head.len;
            if is_direct {
                let g = s.grant.as_mut().expect("direct implies grant");
                g.filled += chunk as u32;
                // Non-waitall grants die after one chunk (the receiver
                // completes on first arrival); waitall grants die full.
                if !g.waitall || g.filled == g.len {
                    s.grant = None;
                }
                self.stats.direct_transfers += 1;
                self.stats.direct_bytes += chunk;
            } else {
                t.send_mirror.commit(chunk);
                s.window_out += chunk;
                self.stats.indirect_transfers += 1;
                self.stats.indirect_bytes += chunk;
            }
            s.send_seq += chunk;
            if head_done {
                s.sends.pop_front();
            }
            let track = t.inflight.entry(token).or_insert_with(|| SendTrack {
                stream,
                id: send_id,
                len: 0,
                outstanding: 0,
                dispatched_all: false,
            });
            track.len += chunk;
            track.outstanding += 1;
            track.dispatched_all = head_done;
            t.chan.stage_data(api, &mut self.stats, token, |wr_id| {
                SendWr::write_imm(wr_id, sge, remote, imm)
            });
            if s.sends.is_empty() {
                s.in_send_queue = false;
                if s.send_closed && !s.fin_queued {
                    drained_fins.push(stream);
                }
            } else {
                t.sendable.push_back(stream);
            }
        }
        for stream in drained_fins {
            self.try_queue_fin(slot, stream);
        }
    }

    /// Stages whatever control traffic the slot's credit gate lets
    /// through and posts the transport's TX queue; control messages
    /// share the doorbell with data staged in the same pass.
    fn flush(&mut self, api: &mut impl VerbsPort, slot: usize) {
        let Some(t) = self.transports[slot].as_mut() else {
            return;
        };
        if !t.broken {
            t.chan.flush_ctrl(api, &mut self.stats);
        }
        t.chan.flush_tx(api, &mut self.stats);
    }

    /// True when no user send is queued or awaiting completion, on any
    /// stream.
    pub fn sends_drained(&self) -> bool {
        self.streams
            .values()
            .all(|s| s.sends.is_empty() && s.live_sends == 0)
    }

    /// True while the endpoint still owes traffic to the wire: queued
    /// stream sends, un-flushed per-transport control frames, staged
    /// WQEs, or a closed stream whose FIN is not yet queued. Progress
    /// is CQE-driven — a service loop must not stop polling while this
    /// holds. A failed endpoint reports false.
    pub(crate) fn has_unsent(&self) -> bool {
        if self.last_error.is_some() {
            return false;
        }
        self.streams
            .values()
            .any(|s| !s.sends.is_empty() || (s.send_closed && !s.fin_queued))
            || self
                .transports
                .iter()
                .flatten()
                .any(|t| t.chan.has_unsent())
    }

    /// Releases every registration the endpoint owns (shared rings and
    /// control slots of all established transports). Idempotent per
    /// slot; call at teardown.
    pub fn close(&mut self, api: &mut impl VerbsPort) {
        for t in self.transports.iter_mut().flatten() {
            t.chan.close(api);
            api.deregister_mr(t.ring_mr.key)
                .expect("free shared ring at close");
        }
        for slot in self.transports.iter_mut() {
            *slot = None;
        }
        self.by_qpn.clear();
    }

    /// One-line-per-object liveness snapshot for stall diagnosis:
    /// transport credit/ring/queue gauges and the state of every
    /// stream that still has work outstanding.
    pub fn debug_summary(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (i, t) in self.transports.iter().enumerate() {
            let Some(t) = t else { continue };
            let _ = writeln!(
                out,
                "  slot {i}: qpn={} broken={} {} sendable={} ring {}/{} chunks={} inflight={}",
                t.chan.qpn().0,
                t.broken,
                t.chan.gauges(),
                t.sendable.len(),
                t.send_mirror.in_use(),
                t.send_mirror.capacity(),
                t.chunks.len(),
                t.inflight.len(),
            );
        }
        let mut shown = 0;
        for (&id, s) in self.streams.iter() {
            let idle = s.sends.is_empty()
                && s.live_sends == 0
                && s.recvs.is_empty()
                && s.buffered == 0
                && !s.send_closed
                && s.peer_fin.is_none();
            if idle || shown >= 8 {
                continue;
            }
            shown += 1;
            let _ = writeln!(
                out,
                "  stream {id}: sends={} live={} recvs={} buffered={} window_out={} \
                 grant={} advert_live={} closed={} fin_q={} peer_fin={:?} eof={} in_q={}",
                s.sends.len(),
                s.live_sends,
                s.recvs.len(),
                s.buffered,
                s.window_out,
                s.grant.is_some(),
                s.advert_live,
                s.send_closed,
                s.fin_queued,
                s.peer_fin,
                s.eof_delivered,
                s.in_send_queue,
            );
        }
        out
    }

    /// Deterministic model of this endpoint's pinned/context memory:
    /// per established transport, the shared ring, the control-slot
    /// region, and `WQE_SLOT_BYTES`-sized SQ/RQ/CQ slot shares; per
    /// open stream, just `size_of::<MuxStream>()`. Compare against
    /// [`MuxEndpoint::baseline_footprint`].
    pub fn memory_footprint(&self) -> u64 {
        let fixed = self.transports_active() as u64 * Self::transport_fixed_bytes(&self.cfg);
        fixed + self.streams.len() as u64 * std::mem::size_of::<MuxStream>() as u64
    }

    /// The same model applied to the QP-per-stream baseline: every
    /// stream pays a full private transport.
    pub fn baseline_footprint(cfg: &ExsConfig, streams: u64) -> u64 {
        streams * Self::transport_fixed_bytes(cfg)
    }

    /// Modeled fixed cost of one transport (ring + control slots + QP
    /// rings + CQ share) under `cfg`.
    fn transport_fixed_bytes(cfg: &ExsConfig) -> u64 {
        let caps = cfg.qp_caps();
        let slots = (caps.max_send_wr + caps.max_recv_wr + cfg.cq_depth(1)) as u64;
        cfg.ring_capacity + ctrl_region_bytes(cfg.credits) + slots * WQE_SLOT_BYTES
    }
}

/// Establishes every pending pool slot between two endpoints over the
/// simulator: creates each endpoint's shared CQ pair on first use,
/// connects one QP per pending slot (shared CQs on **both** sides via
/// [`connect_pool`]), and runs the out-of-band parameter exchange.
pub fn connect_mux_pair(net: &mut SimNet, a: &mut MuxEndpoint, b: &mut MuxEndpoint) {
    let caps = a.cfg.qp_caps();
    let cq_depth = MuxEndpoint::shared_cq_depth(&a.cfg);
    for slot in MuxEndpoint::slots_to_establish(a, b) {
        for ep in [&mut *a, &mut *b] {
            ep.cqs.get_or_insert_with(|| {
                net.with_api(ep.node, |api| {
                    (api.create_cq(cq_depth), api.create_cq(cq_depth))
                })
            });
        }
        let (ha, hb) = connect_pool(net, a.node, b.node, caps, cq_depth, a.cqs, b.cqs)
            .expect("connect mux transport");
        let ia = net.with_api(a.node, |api| {
            a.prepare_transport(api, slot, ha.qpn, ha.send_cq, ha.recv_cq)
        });
        let ib = net.with_api(b.node, |api| {
            b.prepare_transport(api, slot, hb.qpn, hb.send_cq, hb.recv_cq)
        });
        a.connect_transport(slot, ib);
        b.connect_transport(slot, ia);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdma_verbs::{HcaConfig, HostModel, NodeApi, NodeApp};
    use simnet::{LinkConfig, SimDuration, SimTime};

    fn small_cfg() -> ExsConfig {
        ExsConfig {
            ring_capacity: 4096,
            credits: 16,
            sq_depth: 64,
            ..ExsConfig::default()
        }
    }

    fn two_nodes() -> (SimNet, NodeId, NodeId) {
        let mut net = SimNet::new();
        let a = net.add_node(HostModel::free(), HcaConfig::default());
        let b = net.add_node(HostModel::free(), HcaConfig::default());
        net.connect_nodes(
            a,
            b,
            LinkConfig::simple(100_000_000_000, SimDuration::from_micros(1)),
            0,
        );
        (net, a, b)
    }

    /// Wake-driven endpoint host: drains the shared CQ pair into the
    /// endpoint and accumulates its events; `until` decides done.
    struct Host {
        ep: Option<MuxEndpoint>,
        events: Vec<MuxEvent>,
        until: fn(&[MuxEvent], &MuxEndpoint) -> bool,
    }

    impl Host {
        fn new(ep: MuxEndpoint, until: fn(&[MuxEvent], &MuxEndpoint) -> bool) -> Host {
            Host {
                ep: Some(ep),
                events: Vec::new(),
                until,
            }
        }
    }

    impl NodeApp for Host {
        fn on_start(&mut self, api: &mut NodeApi<'_>) {
            self.on_wake(api);
        }
        fn on_wake(&mut self, api: &mut NodeApi<'_>) {
            let ep = self.ep.as_mut().unwrap();
            ep.handle_wake(api);
            self.events.extend(ep.drain_events());
        }
        fn is_done(&self) -> bool {
            (self.until)(&self.events, self.ep.as_ref().unwrap())
        }
    }

    fn recvs_done(evs: &[MuxEvent]) -> usize {
        evs.iter()
            .filter(|e| matches!(e, MuxEvent::RecvComplete { .. }))
            .count()
    }

    fn sends_done(evs: &[MuxEvent]) -> usize {
        evs.iter()
            .filter(|e| matches!(e, MuxEvent::SendComplete { .. }))
            .count()
    }

    fn fnv1a(acc: u64, bytes: &[u8]) -> u64 {
        let mut h = acc;
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        h
    }

    const STREAMS: u32 = 24;
    const MSG: usize = 700;

    #[test]
    fn many_streams_one_pool_deliver_in_order() {
        let (mut net, na, nb) = two_nodes();
        let cfg = small_cfg();
        let mut a = MuxEndpoint::new(na, &cfg);
        let mut b = MuxEndpoint::new(nb, &cfg);
        for id in 0..STREAMS {
            a.open_stream(id).unwrap();
            b.open_stream(id).unwrap();
        }
        assert_eq!(a.transports_active(), 0);
        assert!(!a.pending_slots().is_empty());
        connect_mux_pair(&mut net, &mut a, &mut b);
        assert_eq!(a.transports_active(), cfg.mux.qp_pool_size);
        assert!(a.pending_slots().is_empty());

        // Per-stream distinct payloads, sent a -> b.
        let payload = |stream: u32, i: usize| ((stream as usize * 131 + i * 7) % 251) as u8;
        let send_mrs: Vec<MrInfo> = (0..STREAMS)
            .map(|id| {
                net.with_api(na, |api| {
                    let mr = api.register_mr(MSG, Access::NONE);
                    let data: Vec<u8> = (0..MSG).map(|i| payload(id, i)).collect();
                    api.write_mr(mr.key, mr.addr, &data).unwrap();
                    mr
                })
            })
            .collect();
        let recv_mrs: Vec<MrInfo> = (0..STREAMS)
            .map(|_| net.with_api(nb, |api| api.register_mr(MSG, Access::local_remote_write())))
            .collect();
        net.with_api(nb, |api| {
            for id in 0..STREAMS {
                b.mux_recv(
                    api,
                    id,
                    &recv_mrs[id as usize],
                    0,
                    MSG as u32,
                    true,
                    id as u64,
                )
                .unwrap();
            }
        });
        net.with_api(na, |api| {
            for id in 0..STREAMS {
                a.mux_send(api, id, &send_mrs[id as usize], 0, MSG as u64, id as u64)
                    .unwrap();
            }
        });

        let mut ha = Host::new(a, |evs, ep| {
            sends_done(evs) == STREAMS as usize && ep.sends_drained()
        });
        let mut hb = Host::new(b, |evs, _| recvs_done(evs) == STREAMS as usize);
        let outcome = net.run(&mut [&mut ha, &mut hb], SimTime::from_secs(5));
        assert!(
            outcome.completed,
            "stalled: {:?} a_sends={} b_recvs={}",
            outcome,
            sends_done(&ha.events),
            recvs_done(&hb.events),
        );

        let a = ha.ep.take().unwrap();
        let b = hb.ep.take().unwrap();
        // Byte identity per stream: no cross-delivery, no reordering.
        net.with_api(nb, |api| {
            for id in 0..STREAMS {
                let mr = &recv_mrs[id as usize];
                let mut buf = vec![0u8; MSG];
                api.read_mr(mr.key, mr.addr, &mut buf).unwrap();
                let want: Vec<u8> = (0..MSG).map(|i| payload(id, i)).collect();
                assert_eq!(
                    fnv1a(0xcbf29ce484222325, &buf),
                    fnv1a(0xcbf29ce484222325, &want),
                    "stream {id} corrupted"
                );
            }
        });
        assert_eq!(a.stats().protocol_errors, 0);
        assert_eq!(b.stats().mux_demux_errors, 0);
        assert_eq!(a.stats().mux_streams_peak, STREAMS as u64);
        assert!(a.last_error().is_none() && b.last_error().is_none());
    }

    fn closed_1(evs: &[MuxEvent], _ep: &MuxEndpoint) -> bool {
        evs.contains(&MuxEvent::StreamClosed { stream: 1 })
    }

    #[test]
    fn close_one_stream_frees_state_and_leaves_siblings_working() {
        let (mut net, na, nb) = two_nodes();
        let cfg = small_cfg();
        let mut a = MuxEndpoint::new(na, &cfg);
        let mut b = MuxEndpoint::new(nb, &cfg);
        for id in 0..4 {
            a.open_stream(id).unwrap();
            b.open_stream(id).unwrap();
        }
        connect_mux_pair(&mut net, &mut a, &mut b);
        let footprint_4 = a.memory_footprint();

        // Close stream 1 in both directions and drive the FIN exchange.
        net.with_api(na, |api| a.close_stream(api, 1));
        net.with_api(nb, |api| b.close_stream(api, 1));
        let mut ha = Host::new(a, closed_1);
        let mut hb = Host::new(b, closed_1);
        let outcome = net.run(&mut [&mut ha, &mut hb], SimTime::from_secs(1));
        assert!(outcome.completed, "FIN exchange stalled: {outcome:?}");
        let mut a = ha.ep.take().unwrap();
        let mut b = hb.ep.take().unwrap();
        assert_eq!(a.streams_open(), 3);
        assert_eq!(b.streams_open(), 3);
        // Closing released exactly the per-stream state; the pool's
        // pinned regions are shared, not per-stream.
        assert_eq!(
            a.memory_footprint(),
            footprint_4 - std::mem::size_of::<MuxStream>() as u64
        );

        // A sibling stream still moves data after the close.
        let smr = net.with_api(na, |api| {
            let mr = api.register_mr(MSG, Access::NONE);
            api.write_mr(mr.key, mr.addr, &vec![0x5A; MSG]).unwrap();
            mr
        });
        let rmr = net.with_api(nb, |api| api.register_mr(MSG, Access::local_remote_write()));
        net.with_api(nb, |api| {
            b.mux_recv(api, 3, &rmr, 0, MSG as u32, true, 9).unwrap()
        });
        net.with_api(na, |api| {
            a.mux_send(api, 3, &smr, 0, MSG as u64, 9).unwrap()
        });
        // The retired id is rejected for reuse before touching verbs.
        net.with_api(na, |api| {
            assert!(matches!(
                a.mux_send(api, 1, &smr, 0, 1, 77),
                Err(ExsError::Protocol(ProtocolError::UnknownStream(1)))
            ));
        });
        let mut ha = Host::new(a, |evs, ep| sends_done(evs) == 1 && ep.sends_drained());
        let mut hb = Host::new(b, |evs, _| recvs_done(evs) == 1);
        let outcome = net.run(&mut [&mut ha, &mut hb], SimTime::from_secs(2));
        assert!(outcome.completed, "sibling transfer stalled: {outcome:?}");
        assert!(hb.events.contains(&MuxEvent::RecvComplete {
            stream: 3,
            id: 9,
            len: MSG as u32
        }));
    }

    /// Two sends in flight on one stream with one caller id are two
    /// sends: each completes with its own length, and the stream retires
    /// once both ends closed it.
    #[test]
    fn two_sends_with_one_id_complete_apart_and_the_stream_retires() {
        let (mut net, na, nb) = two_nodes();
        let cfg = small_cfg();
        let mut a = MuxEndpoint::new(na, &cfg);
        let mut b = MuxEndpoint::new(nb, &cfg);
        a.open_stream(1).unwrap();
        b.open_stream(1).unwrap();
        connect_mux_pair(&mut net, &mut a, &mut b);
        let smr = net.with_api(na, |api| api.register_mr(3 * MSG, Access::NONE));
        let rmr = net.with_api(nb, |api| {
            api.register_mr(3 * MSG, Access::local_remote_write())
        });
        net.with_api(nb, |api| {
            b.mux_recv(api, 1, &rmr, 0, 3 * MSG as u32, true, 0)
                .unwrap();
            b.close_stream(api, 1);
        });
        net.with_api(na, |api| {
            a.mux_send(api, 1, &smr, 0, MSG as u64, 5).unwrap();
            a.mux_send(api, 1, &smr, MSG as u64, 2 * MSG as u64, 5)
                .unwrap();
            a.close_stream(api, 1);
        });
        let retired =
            |evs: &[MuxEvent], ep: &MuxEndpoint| closed_1(evs, ep) && ep.streams_open() == 0;
        let mut ha = Host::new(a, retired);
        let mut hb = Host::new(b, retired);
        let outcome = net.run(&mut [&mut ha, &mut hb], SimTime::from_secs(1));
        assert!(outcome.completed, "the stream never retired: {outcome:?}");
        let sends: Vec<&MuxEvent> = ha
            .events
            .iter()
            .filter(|e| matches!(e, MuxEvent::SendComplete { .. }))
            .collect();
        let own = |len: usize| MuxEvent::SendComplete {
            stream: 1,
            id: 5,
            len: len as u64,
        };
        assert_eq!(sends, [&own(MSG), &own(2 * MSG)]);
    }

    /// Streams that queued sends before their slot's transport came up
    /// are scheduled in id order, so their completions come in the same
    /// order on every run.
    #[test]
    fn sends_queued_before_connect_complete_in_one_order() {
        const QUEUED: u32 = 16;
        let run = || {
            let (mut net, na, nb) = two_nodes();
            let mut cfg = small_cfg();
            cfg.mux.qp_pool_size = 1;
            let mut a = MuxEndpoint::new(na, &cfg);
            let mut b = MuxEndpoint::new(nb, &cfg);
            for id in 0..QUEUED {
                a.open_stream(id).unwrap();
                b.open_stream(id).unwrap();
            }
            let smr = net.with_api(na, |api| api.register_mr(MSG, Access::NONE));
            net.with_api(na, |api| {
                for id in 0..QUEUED {
                    a.mux_send(api, id, &smr, 0, MSG as u64, id as u64).unwrap();
                }
            });
            connect_mux_pair(&mut net, &mut a, &mut b);
            let len = QUEUED as usize * MSG;
            let rmr = net.with_api(nb, |api| api.register_mr(len, Access::local_remote_write()));
            net.with_api(nb, |api| {
                for id in 0..QUEUED {
                    let off = id as u64 * MSG as u64;
                    b.mux_recv(api, id, &rmr, off, MSG as u32, true, 0).unwrap();
                }
            });
            let mut ha = Host::new(a, |evs, ep| {
                sends_done(evs) == QUEUED as usize && ep.sends_drained()
            });
            let mut hb = Host::new(b, |evs, _| recvs_done(evs) == QUEUED as usize);
            let outcome = net.run(&mut [&mut ha, &mut hb], SimTime::from_secs(1));
            assert!(outcome.completed, "queued sends stalled: {outcome:?}");
            let order: Vec<u32> = ha
                .events
                .iter()
                .filter_map(|e| match e {
                    MuxEvent::SendComplete { stream, .. } => Some(*stream),
                    _ => None,
                })
                .collect();
            order
        };
        let first = run();
        assert_eq!(first.len(), QUEUED as usize);
        assert_eq!(first, run(), "a second run completed in another order");
    }

    #[test]
    fn memory_model_beats_qp_per_stream_baseline_by_8x() {
        let cfg = ExsConfig::default();
        let mut e = MuxEndpoint::new(NodeId(0), &cfg);
        for id in 0..10_000 {
            e.open_stream(id).unwrap();
        }
        // No transports established yet: the marginal footprint is pure
        // per-stream state. Even adding the full pool's fixed cost the
        // 10k-stream amortized figure stays far under baseline/8.
        let pool_fixed = cfg.mux.qp_pool_size as u64 * (MuxEndpoint::baseline_footprint(&cfg, 1));
        let per_stream = (e.memory_footprint() + pool_fixed) as f64 / 10_000.0;
        let baseline = MuxEndpoint::baseline_footprint(&cfg, 10_000) as f64 / 10_000.0;
        assert!(
            per_stream * 8.0 <= baseline,
            "per-stream {per_stream} vs baseline {baseline}"
        );
    }

    #[test]
    fn stream_id_overflow_is_typed_error() {
        let mut e = MuxEndpoint::new(NodeId(0), &ExsConfig::default());
        assert!(matches!(
            e.open_stream(MAX_MUX_STREAM + 1),
            Err(ExsError::Protocol(ProtocolError::StreamIdOverflow(_)))
        ));
    }
}
