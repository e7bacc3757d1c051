//! The per-QP control channel: receive credits, the control-message
//! queue, and the transmit pipe of one queue pair.
//!
//! Every protocol in the paper rides on small control messages —
//! ADVERT, ACK, FIN (§II-C, Fig. 2–5) — sent with SEND into receives
//! the peer posted beforehand, so each QP needs receive-credit flow
//! control. [`crate::stream::StreamSocket`] and each pooled transport
//! of a [`crate::mux::MuxEndpoint`] hold one [`Channel`], which owns the
//! QP/CQ ids, the control-slot region ([`CTRL_SLOT`] bytes per credit)
//! and its pre-posting, the `wr_id` allocator, the RC-FIFO owner queue,
//! the [`TxPipe`], and the [`CreditGate`]. The users differ only in the
//! [`CtrlTag`] queued with each message (`()` on a private QP, the
//! stream id on a shared one) and in what they record per data WQE.
//!
//! # The credit rule
//!
//! Each side pre-posts `credits` receives; every arrival (WWI or SEND)
//! consumes one, which is re-posted at once and *owed* to the peer.
//! Returns piggyback on every control message. [`CreditGate`] decides
//! what may go, and is the only place that does:
//!
//! | rule | statement | the stall it prevents |
//! |---|---|---|
//! | reserve | data and ADVERT/ACK/FIN need `peer_credits >= 2`: the last credit is never spent on them | both sides spend everything and neither can say what it owes |
//! | who may spend it | only a CREDIT, and at most one is queued at a time | one per wake would pile up messages that each cost the peer a slot |
//! | overtaking | a queued CREDIT passes messages blocked at the reserve (it carries only the count, so its place means nothing); nothing else is reordered | each side at the reserve with its CREDIT behind ADVERTs needing two credits: a symmetric exchange that posts every receive before any send delivers nothing |
//! | elision | a CREDIT with nothing left to return (an earlier message carried it) is dropped, not sent | a reserve spent on a message that returns nothing leaves the peer at zero |
//! | no bare reply | a standalone CREDIT needs `owed >= max(threshold, 2)` | at threshold 1 (`credits` 4..=7) the slot a bare CREDIT consumed was returned with a bare CREDIT, forever: 10⁶ CREDITs per side per ms |
//!
//! The last rule cannot starve the peer: each direction conserves
//! `peer_credits + in flight + owed == credits`, so a peer stuck at the
//! reserve with nothing in flight is owed `credits - 1 >= 3` slots,
//! which is over the trigger; at most one slot stays unreturned while
//! idle, leaving `credits - 2 >= 2` usable. An exchange of bare CREDITs
//! needs two arrivals per reply, so it halves each round and ends. The
//! tests below check all of this over every interleaving of two gates
//! up to a bound.

use std::collections::VecDeque;

use rdma_verbs::{Access, CqId, Cqe, MrInfo, QpNum, RecvWr, SendWr};

use crate::config::ExsConfig;
use crate::error::ExsError;
use crate::messages::{Ctrl, CtrlMsg, DecodeError, MuxCtrlMsg, CTRL_MSG_LEN, STREAM_NONE};
use crate::port::VerbsPort;
use crate::stats::ConnStats;
use crate::txpipe::TxPipe;

/// Size of one pre-posted control receive slot.
const CTRL_SLOT: u64 = 64;
const _: () = assert!(
    CTRL_MSG_LEN <= CTRL_SLOT as usize,
    "slots must hold control messages"
);
/// Credits kept in reserve so a CREDIT message can always be sent.
const CREDIT_RESERVE: u32 = 1;

/// Bytes of the control-slot region a channel pins for `credits` slots.
pub(crate) fn ctrl_region_bytes(credits: u32) -> u64 {
    credits as u64 * CTRL_SLOT
}

/// What is queued with each control message and selects its wire form:
/// nothing on a private QP, the stream id on a shared one.
pub(crate) trait CtrlTag: Copy {
    /// Tag of messages that belong to the channel itself (CREDIT).
    const CHANNEL: Self;
    /// Serializes a message for an inline SEND.
    fn encode(self, msg: CtrlMsg) -> bytes::Bytes;
    /// Parses a received control slot.
    fn decode(buf: &[u8]) -> Result<(Self, CtrlMsg), DecodeError>;
}

impl CtrlTag for () {
    const CHANNEL: () = ();
    fn encode(self, msg: CtrlMsg) -> bytes::Bytes {
        msg.encode_bytes()
    }
    fn decode(buf: &[u8]) -> Result<((), CtrlMsg), DecodeError> {
        CtrlMsg::decode(buf).map(|msg| ((), msg))
    }
}

impl CtrlTag for u32 {
    const CHANNEL: u32 = STREAM_NONE;
    fn encode(self, msg: CtrlMsg) -> bytes::Bytes {
        MuxCtrlMsg { stream: self, msg }.encode_bytes()
    }
    fn decode(buf: &[u8]) -> Result<(u32, CtrlMsg), DecodeError> {
        MuxCtrlMsg::decode(buf).map(|m| (m.stream, m.msg))
    }
}

/// The credit decision, free of any verbs handle: which queued control
/// message may go given the peer's credits, what this side owes, and
/// send-queue room (see the module docs for the rule).
pub(crate) struct CreditGate<T> {
    /// Receives the peer has posted that this side may still consume.
    peer_credits: u32,
    /// Re-posted receives not yet reported to the peer.
    owed_credits: u32,
    /// `owed_credits` at which a standalone CREDIT is queued.
    threshold: u32,
    pending_ctrl: VecDeque<(T, Ctrl)>,
}

impl<T: CtrlTag> CreditGate<T> {
    fn new(cfg: &ExsConfig) -> Self {
        CreditGate {
            peer_credits: 0,
            owed_credits: 0,
            threshold: cfg.effective_credit_threshold().max(2),
            pending_ctrl: VecDeque::new(),
        }
    }

    /// A data WWI may consume a peer receive (never the reserve).
    fn data_credit(&self) -> bool {
        self.peer_credits > CREDIT_RESERVE
    }

    fn take_data_credit(&mut self) {
        debug_assert!(self.data_credit(), "data may not spend the reserve");
        self.peer_credits -= 1;
    }

    /// Queues a standalone CREDIT when returns have piled up, one is
    /// not already queued, and the reserve is there to carry it.
    fn queue_credit_if_due(&mut self) -> bool {
        let due = self.owed_credits >= self.threshold
            && self.peer_credits >= CREDIT_RESERVE
            && !self.pending_ctrl.iter().any(|(_, c)| *c == Ctrl::Credit);
        if due {
            self.pending_ctrl.push_back((T::CHANNEL, Ctrl::Credit));
        }
        due
    }

    /// Queue index of the message the credits allow next: the head
    /// above the reserve, a CREDIT from anywhere at the reserve.
    fn sendable(&self) -> Option<usize> {
        if self.peer_credits > CREDIT_RESERVE {
            (!self.pending_ctrl.is_empty()).then_some(0)
        } else if self.peer_credits == CREDIT_RESERVE {
            self.pending_ctrl
                .iter()
                .position(|(_, c)| *c == Ctrl::Credit)
        } else {
            None
        }
    }

    /// Takes the next control message that may be sent now, with the
    /// whole owed count piggybacked; `sq_room` is asked only once the
    /// credits allow a message.
    fn next(&mut self, sq_room: impl Fn() -> bool) -> Option<(T, CtrlMsg)> {
        loop {
            let at = self.sendable()?;
            if !sq_room() {
                return None;
            }
            let (tag, ctrl) = self.pending_ctrl.remove(at).expect("index from sendable");
            if ctrl == Ctrl::Credit && self.owed_credits == 0 {
                continue;
            }
            self.peer_credits -= 1;
            let credit_return = std::mem::take(&mut self.owed_credits);
            return Some((
                tag,
                CtrlMsg {
                    ctrl,
                    credit_return,
                },
            ));
        }
    }
}

/// One QP's control channel (see the module docs). `T` tags queued
/// control messages; `O` is what the user records per data WQE.
pub(crate) struct Channel<T, O> {
    qpn: QpNum,
    send_cq: CqId,
    recv_cq: CqId,
    cfg: ExsConfig,
    /// `credits` receive slots of [`CTRL_SLOT`] bytes; slot `i` is
    /// posted with `wr_id == i`.
    ctrl_mr: MrInfo,
    gate: CreditGate<T>,
    /// Postlist staging and selective-signaling state.
    tx: TxPipe,
    next_wr: u64,
    /// Data WQEs awaiting retirement, in posting (= wr_id) order. RC
    /// FIFO means a signaled CQE for wr_id `W` implies every WQE with a
    /// smaller wr_id also completed, so one CQE drains the whole prefix
    /// `wr_id <= W` — the EXS-level half of batched SQ reclamation.
    owners: VecDeque<(u64, O)>,
    closed: bool,
}

impl<T: CtrlTag, O: Copy> Channel<T, O> {
    /// Registers the control slots on an already-created QP and
    /// pre-posts one receive per credit. Sending stays gated until
    /// [`Channel::open`] learns the peer's credit count.
    pub(crate) fn prepare(
        api: &mut impl VerbsPort,
        qpn: QpNum,
        send_cq: CqId,
        recv_cq: CqId,
        cfg: &ExsConfig,
    ) -> Self {
        let region = ctrl_region_bytes(cfg.credits) as usize;
        let chan = Channel {
            qpn,
            send_cq,
            recv_cq,
            cfg: cfg.clone(),
            ctrl_mr: api.register_mr(region, Access::LOCAL_WRITE),
            gate: CreditGate::new(cfg),
            tx: TxPipe::new(),
            next_wr: 1,
            owners: VecDeque::new(),
            closed: false,
        };
        for slot in 0..cfg.credits as u64 {
            chan.post_slot(api, slot)
                .expect("pre-posting control receives");
        }
        chan
    }

    fn post_slot(&self, api: &mut impl VerbsPort, slot: u64) -> Result<(), ExsError> {
        let sge = self.ctrl_mr.sge(slot * CTRL_SLOT, CTRL_SLOT as u32);
        Ok(api.post_recv(self.qpn, RecvWr::new(slot, sge))?)
    }

    /// The peer's parameters arrived: it posted `peer_credits` receives.
    pub(crate) fn open(&mut self, peer_credits: u32) {
        self.gate.peer_credits = peer_credits;
    }

    pub(crate) fn qpn(&self) -> QpNum {
        self.qpn
    }

    pub(crate) fn send_cq(&self) -> CqId {
        self.send_cq
    }

    pub(crate) fn recv_cq(&self) -> CqId {
        self.recv_cq
    }

    /// The configuration the channel was prepared under.
    pub(crate) fn cfg(&self) -> &ExsConfig {
        &self.cfg
    }

    /// Signaled WQEs awaiting their CQE (see
    /// [`TxPipe::signaled_outstanding`]).
    pub(crate) fn signaled_outstanding(&self) -> u32 {
        self.tx.signaled_outstanding()
    }

    /// Control messages queued or WQEs staged and not yet posted.
    pub(crate) fn has_unsent(&self) -> bool {
        !self.gate.pending_ctrl.is_empty() || self.tx.staged() > 0
    }

    /// Credit and queue gauges for stall diagnosis.
    pub(crate) fn gauges(&self) -> String {
        let g = &self.gate;
        let (credits, owed, queued) = (g.peer_credits, g.owed_credits, g.pending_ctrl.len());
        format!("peer_credits={credits} owed_credits={owed} pending_ctrl={queued}")
    }

    /// Staged WQEs count against the SQ: they will occupy slots the
    /// moment the queue flushes.
    fn sq_occupancy(&self, api: &impl VerbsPort) -> usize {
        api.sq_outstanding(self.qpn) + self.tx.staged()
    }

    /// Resource gates of one data WWI: a peer receive credit above the
    /// reserve (it consumes a posted RECV) and a send-queue slot.
    pub(crate) fn can_send_data(&self, api: &impl VerbsPort) -> bool {
        self.gate.data_credit() && self.sq_occupancy(api) < self.cfg.sq_depth
    }

    /// Stages `build(wr_id)` around a fresh `wr_id`.
    fn stage(
        &mut self,
        api: &impl VerbsPort,
        stats: &mut ConnStats,
        is_data: bool,
        build: impl FnOnce(u64) -> SendWr,
    ) -> u64 {
        let wr_id = self.next_wr;
        self.next_wr += 1;
        let occupancy = self.sq_occupancy(api);
        self.tx
            .stage(occupancy, &self.cfg, build(wr_id), is_data, stats);
        wr_id
    }

    /// Stages the WQE that carries one data transfer, records its owner
    /// for retirement, and takes the peer receive the transfer consumes.
    pub(crate) fn stage_data(
        &mut self,
        api: &impl VerbsPort,
        stats: &mut ConnStats,
        owner: O,
        build: impl FnOnce(u64) -> SendWr,
    ) {
        let wr_id = self.stage(api, stats, true, build);
        self.owners.push_back((wr_id, owner));
        self.gate.take_data_credit();
    }

    /// Stages the SEND that announces the plain RDMA WRITE staged just
    /// before it (the iWARP emulation). It bypasses the queue, lands in
    /// the receive its transfer already took, and returns what is owed.
    pub(crate) fn stage_notify(&mut self, api: &impl VerbsPort, stats: &mut ConnStats, ctrl: Ctrl) {
        let credit_return = std::mem::take(&mut self.gate.owed_credits);
        let payload = T::CHANNEL.encode(CtrlMsg {
            ctrl,
            credit_return,
        });
        self.stage(api, stats, true, |wr_id| {
            SendWr::send_inline(wr_id, payload)
        });
    }

    /// Queues a control message behind those already waiting.
    pub(crate) fn push_ctrl(&mut self, tag: T, ctrl: Ctrl) {
        self.gate.pending_ctrl.push_back((tag, ctrl));
    }

    /// Moves every control message the gate lets through onto the TX
    /// queue (posted by the next [`Channel::flush_tx`], sharing its
    /// doorbell with any data WQEs staged in the same pass).
    pub(crate) fn flush_ctrl(&mut self, api: &impl VerbsPort, stats: &mut ConnStats) {
        loop {
            let (qpn, staged, sq_depth) = (self.qpn, self.tx.staged(), self.cfg.sq_depth);
            let sq_room = || api.sq_outstanding(qpn) + staged < sq_depth;
            let Some((tag, msg)) = self.gate.next(sq_room) else {
                return;
            };
            let payload = tag.encode(msg);
            self.stage(api, stats, false, |wr_id| {
                SendWr::send_inline(wr_id, payload)
            });
        }
    }

    /// Standalone CREDIT when returns pile up with nothing flowing.
    pub(crate) fn maybe_send_credit(&mut self, api: &impl VerbsPort, stats: &mut ConnStats) {
        if self.gate.queue_credit_if_due() {
            stats.credits_sent += 1;
            self.flush_ctrl(api, stats);
        }
    }

    /// Posts the staged TX queue as postlists (see [`TxPipe::flush`]).
    pub(crate) fn flush_tx(&mut self, api: &mut impl VerbsPort, stats: &mut ConnStats) {
        self.tx.flush(api, self.qpn, &self.cfg, stats);
    }

    /// Reads and decodes the control slot a SEND landed in and credits
    /// its piggybacked return. Every byte is the peer's, so failures
    /// are typed. Follow with [`Channel::repost`] once the message has
    /// been handled.
    pub(crate) fn recv_ctrl(
        &mut self,
        api: &impl VerbsPort,
        cqe: &Cqe,
    ) -> Result<(T, Ctrl), ExsError> {
        let mut buf = [0u8; CTRL_MSG_LEN];
        let addr = self.ctrl_mr.addr + cqe.wr_id * CTRL_SLOT;
        api.read_mr(self.ctrl_mr.key, addr, &mut buf)?;
        let (tag, msg) = T::decode(&buf)?;
        self.gate.peer_credits += msg.credit_return;
        Ok((tag, msg.ctrl))
    }

    /// Re-posts the receive slot an arrival (WWI or SEND) consumed and
    /// owes the peer its return.
    pub(crate) fn repost(&mut self, api: &mut impl VerbsPort, cqe: &Cqe) -> Result<(), ExsError> {
        self.post_slot(api, cqe.wr_id)?;
        self.gate.owed_credits += 1;
        Ok(())
    }

    /// Records the signaled send completion `wr_id` and yields the
    /// owner of every data WQE it retires, oldest first (a signaled
    /// control SEND may retire data WWIs posted ahead of it and own no
    /// entry itself).
    pub(crate) fn retire(&mut self, wr_id: u64) -> impl Iterator<Item = O> + '_ {
        self.tx.on_signaled_cqe();
        std::iter::from_fn(move || {
            let &(oldest, owner) = self.owners.front()?;
            (oldest <= wr_id).then(|| self.owners.pop_front())?;
            Some(owner)
        })
    }

    /// Refreshes the CQ-pressure gauges (`overflowed`, `max_batch`,
    /// `nonempty_polls`) from the backend into `stats`.
    pub(crate) fn sync_cq_stats(&self, api: &impl VerbsPort, stats: &mut ConnStats) {
        let s = api.cq_pressure(self.send_cq);
        let r = api.cq_pressure(self.recv_cq);
        stats.cq_overflowed = s.overflowed || r.overflowed;
        stats.cq_max_batch = s.max_batch.max(r.max_batch);
        stats.cq_nonempty_polls = s.nonempty_polls + r.nonempty_polls;
    }

    /// Releases the control-slot registration; true the first time.
    pub(crate) fn close(&mut self, api: &mut impl VerbsPort) -> bool {
        let first = !std::mem::replace(&mut self.closed, true);
        if first {
            api.deregister_mr(self.ctrl_mr.key)
                .expect("free control slots at close");
        }
        first
    }

    pub(crate) fn is_closed(&self) -> bool {
        self.closed
    }
}

/// Drains both completion queues into one batch, receive completions
/// first, each marked with whether it is one.
pub(crate) fn poll_cqs(
    api: &mut impl VerbsPort,
    send_cq: CqId,
    recv_cq: CqId,
) -> impl Iterator<Item = (Cqe, bool)> {
    let mut cqes: Vec<Cqe> = Vec::new();
    api.poll_cq(recv_cq, usize::MAX, &mut cqes)
        .expect("poll recv cq");
    let recvs = cqes.len();
    api.poll_cq(send_cq, usize::MAX, &mut cqes)
        .expect("poll send cq");
    (cqes.into_iter().enumerate()).map(move |(i, cqe)| (cqe, i < recvs))
}

#[cfg(test)]
mod tests {
    //! Exhaustive bounded check of [`CreditGate`]: two gates joined by
    //! two FIFO wires, every interleaving of what the application, the
    //! socket and the fabric can do, explored breadth-first over a
    //! hashed state set. The bound is on what is held at once (see
    //! [`Bounds`]), not on how long a run is.

    use super::*;
    use std::collections::HashMap;

    /// Most messages a wire holds: the largest `credits` explored.
    const MAX_WIRE: usize = 8;

    /// One exploration: the credits each side posts and what may be
    /// held at once.
    #[derive(Clone, Copy)]
    struct Bounds {
        credits: u32,
        /// `owed_credits` at which the gate queues a CREDIT.
        threshold: u32,
        /// Control messages (not counting a CREDIT) queued per side.
        queued: u8,
        /// Messages in flight per direction. A full wire holds back the
        /// sender the way a full send queue does.
        in_flight: u8,
    }

    /// One endpoint: its gate, flattened so the state is `Copy` and
    /// hashes. Queued non-CREDIT messages are interchangeable, so the
    /// queue is their count plus where a CREDIT sits among them.
    #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
    struct Side {
        peer_credits: u8,
        owed_credits: u8,
        queued: u8,
        /// A CREDIT is queued behind this many of the `queued`.
        credit_behind: Option<u8>,
    }

    /// Messages in flight one way, oldest first. All the receiver sees
    /// of one is the slot it consumes and the return it piggybacks (0
    /// on a data WWI), so that is all a wire holds.
    #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
    struct Wire {
        len: u8,
        credit_return: [u8; MAX_WIRE],
    }

    impl Wire {
        fn push(&mut self, credit_return: u32) {
            self.credit_return[self.len as usize] = credit_return as u8;
            self.len += 1;
        }

        fn pop(&mut self) -> Option<u8> {
            let head = *self.credit_return[..self.len as usize].first()?;
            self.credit_return.copy_within(1..self.len as usize, 0);
            self.len -= 1;
            self.credit_return[self.len as usize] = 0;
            Some(head)
        }

        fn returning(&self) -> u8 {
            self.credit_return.iter().sum()
        }
    }

    /// `wires[i]` carries from side `i` to side `1 - i`.
    #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
    struct World {
        sides: [Side; 2],
        wires: [Wire; 2],
    }

    impl Side {
        /// The real gate in this state. Queued messages are numbered
        /// 1.. in queue order so a reordering would show.
        fn gate(&self, b: Bounds) -> CreditGate<()> {
            let mut pending_ctrl: VecDeque<((), Ctrl)> = (1..=self.queued as u64)
                .map(|freed| ((), Ctrl::Ack { freed }))
                .collect();
            if let Some(behind) = self.credit_behind {
                pending_ctrl.insert(behind as usize, ((), Ctrl::Credit));
            }
            CreditGate {
                peer_credits: self.peer_credits as u32,
                owed_credits: self.owed_credits as u32,
                threshold: b.threshold,
                pending_ctrl,
            }
        }

        /// Takes the gate's state back. `sent` non-CREDIT messages left
        /// the queue since [`Side::gate`]; the rest must still be in
        /// the order they were queued in.
        fn store(&mut self, gate: &CreditGate<()>, sent: u64) {
            self.peer_credits = gate.peer_credits as u8;
            self.owed_credits = gate.owed_credits as u8;
            self.credit_behind = None;
            self.queued = 0;
            for (_, ctrl) in &gate.pending_ctrl {
                match ctrl {
                    Ctrl::Credit => self.credit_behind = Some(self.queued),
                    Ctrl::Ack { freed } => {
                        self.queued += 1;
                        assert_eq!(*freed, sent + self.queued as u64, "queue reordered");
                    }
                    other => panic!("the model queues only CREDIT and ACK, not {other:?}"),
                }
            }
        }
    }

    /// Side `i` flushes into a send queue with `room` free slots,
    /// checking each message the gate lets through.
    fn flush(w: &World, i: usize, room: usize, b: Bounds) -> World {
        let mut next = *w;
        let mut gate = w.sides[i].gate(b);
        let mut sent = 0;
        for _ in 0..room.min((b.in_flight - w.wires[i].len) as usize) {
            let before = gate.peer_credits;
            let Some(((), msg)) = gate.next(|| true) else {
                break;
            };
            assert!(before >= 1, "sent with no peer credit (RNR): {w:?}");
            match msg.ctrl {
                Ctrl::Credit => assert!(msg.credit_return > 0, "empty CREDIT sent: {w:?}"),
                Ctrl::Ack { freed } => {
                    assert!(before > CREDIT_RESERVE, "reserve spent on {msg:?}: {w:?}");
                    sent += 1;
                    assert_eq!(freed, sent, "overtaken: {w:?}");
                }
                other => panic!("never queued: {other:?}"),
            }
            next.wires[i].push(msg.credit_return);
        }
        let unsent = gate.pending_ctrl.len();
        assert!(gate.next(|| false).is_none(), "sent with a full SQ: {w:?}");
        assert_eq!(
            gate.pending_ctrl.len(),
            unsent,
            "a full SQ changed the queue"
        );
        next.sides[i].store(&gate, sent);
        next
    }

    /// Side `i` sends one data WWI, if the gate has a credit for it.
    fn take_data(w: &World, i: usize, b: Bounds) -> Option<World> {
        let mut gate = w.sides[i].gate(b);
        (gate.data_credit() && w.wires[i].len < b.in_flight).then(|| {
            gate.take_data_credit();
            let mut n = *w;
            n.sides[i].store(&gate, 0);
            n.wires[i].push(0);
            n
        })
    }

    /// Every state one step from `w`, as `(state, application_acted)`.
    fn successors(w: &World, b: Bounds) -> Vec<(World, bool)> {
        let mut out = Vec::new();
        for i in 0..2 {
            // Application: queue a control message, send one data WWI.
            if w.sides[i].queued < b.queued {
                let mut n = *w;
                n.sides[i].queued += 1;
                out.push((n, true));
            }
            out.extend(take_data(w, i, b).map(|n| (n, true)));
            // Socket: the standalone-CREDIT check; a flush into an SQ
            // with room for one message or for all of them (room for
            // none must send nothing, which `flush` checks each time).
            let mut gate = w.sides[i].gate(b);
            if gate.queue_credit_if_due() {
                let mut n = *w;
                n.sides[i].store(&gate, 0);
                out.push((n, false));
            }
            for room in [1, usize::MAX] {
                let n = flush(w, i, room, b);
                if n != *w {
                    out.push((n, false));
                }
            }
            // Fabric and receive path: the head of the incoming wire
            // lands and its return is credited; the handler may send
            // data and flush; then the slot is re-posted and owed. (A
            // message queued by the handler could as well have been
            // queued before the arrival, which is another path here.)
            let mut landed = *w;
            if let Some(credit_return) = landed.wires[1 - i].pop() {
                landed.sides[i].peer_credits += credit_return;
                let mut handler = vec![(landed, false)];
                let mut at = 0;
                while let Some(&(h, app)) = handler.get(at) {
                    at += 1;
                    let mut reposted = h;
                    reposted.sides[i].owed_credits += 1;
                    out.push((reposted, app));
                    let mut steps = vec![(flush(&h, i, 1, b), app)];
                    steps.extend(take_data(&h, i, b).map(|n| (n, true)));
                    for (n, app) in steps {
                        if n != h && !handler.iter().any(|(seen, _)| *seen == n) {
                            handler.push((n, app));
                        }
                    }
                }
            }
        }
        out
    }

    /// What must equal `credits` for the direction side `i` sends in:
    /// `peer_credits` + in flight + owed + returns in flight.
    fn accounted(w: &World, i: usize) -> u32 {
        let sum = w.sides[i].peer_credits
            + w.wires[i].len
            + w.sides[1 - i].owed_credits
            + w.wires[1 - i].returning();
        sum as u32
    }

    /// Explores every reachable state within `b` and returns how many
    /// there are.
    fn explore(b: Bounds) -> usize {
        let side = Side {
            peer_credits: b.credits as u8,
            owed_credits: 0,
            queued: 0,
            credit_behind: None,
        };
        let wire = Wire {
            len: 0,
            credit_return: [0; MAX_WIRE],
        };
        let start = World {
            sides: [side; 2],
            wires: [wire; 2],
        };
        // The two sides run the same rule, so a state and its mirror
        // image are one state.
        let mirrored = |w: World| {
            w.min(World {
                sides: [w.sides[1], w.sides[0]],
                wires: [w.wires[1], w.wires[0]],
            })
        };
        // Breadth-first: `states` is the visit order, and the frontier
        // is its unexpanded tail.
        let mut index: HashMap<World, u32> = HashMap::from([(start, 0)]);
        let mut states = vec![start];
        // Socket and fabric steps only — what still runs when the
        // application does nothing more: `quiet[first[s]..first[s + 1]]`
        // are the states such a step reaches from state `s`.
        let mut quiet: Vec<u32> = Vec::new();
        let mut first = vec![0];
        while let Some(&w) = states.get(first.len() - 1) {
            for i in 0..2 {
                assert_eq!(accounted(&w, i), b.credits, "credits not conserved: {w:?}");
            }
            for (n, app) in successors(&w, b) {
                let n = mirrored(n);
                let to = *index.entry(n).or_insert_with(|| {
                    states.push(n);
                    states.len() as u32 - 1
                });
                if !app {
                    quiet.push(to);
                }
            }
            if quiet.len() == first[first.len() - 1] {
                // Nothing moves until the application acts: nothing may
                // be left waiting, and the application is able to act.
                assert!(w.wires.iter().all(|wire| wire.len == 0));
                for s in &w.sides {
                    assert!(
                        s.queued == 0 && s.credit_behind.is_none(),
                        "deadlock: {w:?}"
                    );
                    assert!(s.peer_credits as u32 > CREDIT_RESERVE, "starved: {w:?}");
                }
            }
            first.push(quiet.len());
        }
        // Quiescence: the socket and fabric steps alone form no cycle —
        // Kahn's algorithm removes every state — so a pair left to
        // itself always ends in one of the settled states checked above.
        let mut indegree = vec![0u32; states.len()];
        for &to in &quiet {
            indegree[to as usize] += 1;
        }
        let mut ready: Vec<usize> = (0..states.len()).filter(|&s| indegree[s] == 0).collect();
        let mut removed = 0;
        while let Some(s) = ready.pop() {
            removed += 1;
            for &to in &quiet[first[s]..first[s + 1]] {
                indegree[to as usize] -= 1;
                if indegree[to as usize] == 0 {
                    ready.push(to as usize);
                }
            }
        }
        assert_eq!(removed, states.len(), "socket and fabric steps can cycle");
        states.len()
    }

    /// Runs one exploration under the gate's own threshold for
    /// `credits` and prints its size (quoted in EXPERIMENTS.md).
    fn check(credits: u32, queued: u8, in_flight: u8) {
        let cfg = ExsConfig {
            credits,
            ..ExsConfig::default()
        };
        let states = explore(Bounds {
            credits,
            threshold: CreditGate::<()>::new(&cfg).threshold,
            queued,
            in_flight,
        });
        println!("credits {credits}, {queued} queued, {in_flight} in flight: {states} states");
    }

    // The scarce configurations, where both stalls lived, run with four
    // messages queued per side and the wires unbounded (`credits` is all
    // a wire can hold). The state count grows with every quantity held:
    // eight credits with two queued and three in flight is already
    // 1 065 443 states, so that exploration stops at two and two.

    #[test]
    fn gate_holds_over_every_interleaving_at_4_credits() {
        check(4, 4, 4);
    }

    #[test]
    fn gate_holds_over_every_interleaving_at_5_credits() {
        check(5, 4, 5);
    }

    #[test]
    fn gate_holds_over_every_interleaving_at_8_credits() {
        check(8, 2, 2);
    }
}
