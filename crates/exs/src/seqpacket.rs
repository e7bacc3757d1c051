//! Message-oriented (SOCK_SEQPACKET) sockets — paper §II-C.
//!
//! "The RDMA protocol for message-oriented connections is simple. When
//! the application calls `exs_recv()`, the EXS library at the receiver
//! sends an advertisement (ADVERT) to the EXS library at the sender with
//! the virtual memory address, length, and RDMA remote key of the
//! receiver's memory area. When the user at the other end of the
//! connection calls `exs_send()` and an ADVERT has reached the EXS
//! library at that end, the sender then posts a WWI request with the
//! data."
//!
//! Message boundaries are preserved: one `exs_send` matches exactly one
//! `exs_recv`. Unlike the stream mode there is no intermediate buffer,
//! no phase machinery and no splitting — and, faithfully to
//! message-oriented transports, **a message larger than the advertised
//! receive buffer is an error** (the stream mode exists precisely
//! because porting stream applications to such semantics risks data
//! loss, paper §I).

use std::collections::VecDeque;

use rdma_verbs::{
    connect_pair, Cqe, MrInfo, NodeApi, NodeId, QpCaps, QpNum, RecvWr, RemoteAddr, SendWr, Sge,
    SimNet, WcOpcode, WcStatus,
};
use rdma_verbs::{Access, CqId, MrKey};

use crate::config::ExsConfig;
use crate::messages::{decode_imm, encode_imm, Advert, Ctrl, CtrlMsg, TransferKind, CTRL_MSG_LEN};
use crate::phase::Phase;
use crate::port::VerbsPort;
use crate::seq::Seq;
use crate::stats::ConnStats;
use crate::txpipe::TxPipe;

const CTRL_SLOT: u64 = 64;
const CREDIT_RESERVE: u32 = 1;

/// Completion events for the message mode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SeqPacketEvent {
    /// A message was fully transmitted; the send buffer is reusable.
    SendComplete {
        /// User token.
        id: u64,
        /// Message length.
        len: u32,
    },
    /// A send failed because the message exceeded the peer's advertised
    /// receive buffer (message semantics: no splitting).
    SendError {
        /// User token.
        id: u64,
        /// Message length that did not fit.
        len: u32,
        /// The advertised buffer it was matched against.
        advertised: u32,
    },
    /// A message arrived into the posted receive buffer.
    RecvComplete {
        /// User token.
        id: u64,
        /// Message length.
        len: u32,
    },
}

struct PendingSend {
    id: u64,
    addr: u64,
    len: u32,
    key: MrKey,
}

/// Connection parameters exchanged at setup.
#[derive(Clone, Copy, Debug)]
pub struct SeqSetupInfo {
    credits: u32,
}

/// A message-oriented EXS socket endpoint.
pub struct SeqPacketSocket {
    node: NodeId,
    qpn: QpNum,
    send_cq: CqId,
    recv_cq: CqId,
    ctrl_mr: MrInfo,
    cfg: ExsConfig,
    adverts: VecDeque<Advert>,
    pending_sends: VecDeque<PendingSend>,
    recv_queue: VecDeque<(u64, u32)>,
    /// Message WWIs awaiting retirement, in posting (= wr_id) order. RC
    /// FIFO means a signaled CQE for wr_id `W` retires every entry with
    /// a smaller wr_id too (the unsignaled ones in between).
    wwi_owner: VecDeque<(u64, (u64, u32))>,
    next_wr: u64,
    /// Postlist staging and selective-signaling state.
    tx: TxPipe,
    next_seq: Seq,
    peer_credits: u32,
    owed_credits: u32,
    credit_threshold: u32,
    pending_ctrl: VecDeque<Ctrl>,
    events: Vec<SeqPacketEvent>,
    stats: ConnStats,
    /// Registrations already released; the socket is closed.
    mrs_released: bool,
}

impl SeqPacketSocket {
    /// Builds one endpoint (control slots + pre-posted receives) and
    /// returns the parameters the peer needs.
    pub fn prepare(
        api: &mut NodeApi<'_>,
        qpn: QpNum,
        send_cq: CqId,
        recv_cq: CqId,
        cfg: &ExsConfig,
    ) -> (PreparedSeqSocket, SeqSetupInfo) {
        let ctrl_mr = api.register_mr(
            (cfg.credits as u64 * CTRL_SLOT) as usize,
            Access::LOCAL_WRITE,
        );
        for slot in 0..cfg.credits {
            let sge = ctrl_mr.sge(slot as u64 * CTRL_SLOT, CTRL_SLOT as u32);
            api.post_recv(qpn, RecvWr::new(slot as u64, sge))
                .expect("pre-posting control receives");
        }
        (
            PreparedSeqSocket {
                node: api.node(),
                qpn,
                send_cq,
                recv_cq,
                cfg: cfg.clone(),
                ctrl_mr,
            },
            SeqSetupInfo {
                credits: cfg.credits,
            },
        )
    }

    /// Creates a connected pair of message-mode sockets.
    pub fn pair(
        net: &mut SimNet,
        a: NodeId,
        b: NodeId,
        cfg: &ExsConfig,
    ) -> (SeqPacketSocket, SeqPacketSocket) {
        let caps = QpCaps {
            max_send_wr: cfg.sq_depth,
            max_recv_wr: cfg.credits as usize + 8,
            max_inline: 256,
        };
        let cq_depth = cfg.cq_depth(1);
        let (ha, hb) = connect_pair(net, a, b, caps, cq_depth).expect("connect");
        let (pa, ia) = net.with_api(a, |api| {
            SeqPacketSocket::prepare(api, ha.qpn, ha.send_cq, ha.recv_cq, cfg)
        });
        let (pb, ib) = net.with_api(b, |api| {
            SeqPacketSocket::prepare(api, hb.qpn, hb.send_cq, hb.recv_cq, cfg)
        });
        (pa.complete(ib), pb.complete(ia))
    }

    /// This endpoint's node.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Protocol statistics.
    pub fn stats(&self) -> &ConnStats {
        &self.stats
    }

    /// Queued ADVERTs from the peer (receive buffers ready for us).
    pub fn adverts_available(&self) -> usize {
        self.adverts.len()
    }

    /// Releases the socket's control-slot registration — full-socket
    /// close (`exs_close`); idempotent. Message mode registers no ring
    /// and no staging, so the control slots are its only registration.
    pub fn close(&mut self, api: &mut impl VerbsPort) {
        if self.mrs_released {
            return;
        }
        self.mrs_released = true;
        api.deregister_mr(self.ctrl_mr.key)
            .expect("free control slots at close");
    }

    /// True once [`SeqPacketSocket::close`] has released the socket's
    /// registrations.
    pub fn is_closed(&self) -> bool {
        self.mrs_released
    }

    /// Asynchronous message send: matches the next peer ADVERT (FIFO);
    /// queued until one is available.
    pub fn exs_send(
        &mut self,
        api: &mut impl VerbsPort,
        mr: &MrInfo,
        offset: u64,
        len: u32,
        id: u64,
    ) {
        assert!(len > 0, "zero-length message");
        assert!(
            offset + len as u64 <= mr.len as u64,
            "send range outside registered region"
        );
        self.pending_sends.push_back(PendingSend {
            id,
            addr: mr.addr + offset,
            len,
            key: mr.key,
        });
        self.pump_sends(api);
        self.flush_ctrl(api);
        self.flush_tx(api);
    }

    /// Asynchronous message receive: advertises the buffer immediately.
    pub fn exs_recv(
        &mut self,
        api: &mut impl VerbsPort,
        mr: &MrInfo,
        offset: u64,
        len: u32,
        id: u64,
    ) {
        assert!(len > 0, "zero-length receive buffer");
        assert!(
            offset + len as u64 <= mr.len as u64,
            "receive range outside registered region"
        );
        self.recv_queue.push_back((id, len));
        let advert = Advert {
            seq: self.next_seq,
            phase: Phase::ZERO,
            addr: mr.addr + offset,
            len,
            rkey: mr.key.0,
            waitall: false,
        };
        self.next_seq.advance(1);
        self.stats.adverts_sent += 1;
        self.pending_ctrl.push_back(Ctrl::Advert(advert));
        self.flush_ctrl(api);
        self.flush_tx(api);
    }

    /// Drives the socket from a node wake.
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
        self.pump_sends(api);
        self.flush_ctrl(api);
        self.maybe_send_credit(api);
        self.flush_tx(api);
    }

    /// Takes accumulated user events.
    pub fn take_events(&mut self) -> Vec<SeqPacketEvent> {
        std::mem::take(&mut self.events)
    }

    fn on_recv_cqe(&mut self, api: &mut impl VerbsPort, cqe: Cqe) {
        assert_eq!(cqe.status, WcStatus::Success);
        api.charge_cqe_cost();
        match cqe.opcode {
            WcOpcode::RecvRdmaWithImm => {
                let (kind, len) = decode_imm(cqe.imm.expect("WWI imm"));
                assert_eq!(
                    kind,
                    TransferKind::Direct,
                    "message mode only uses direct transfers"
                );
                let (id, posted) = self
                    .recv_queue
                    .pop_front()
                    .expect("message arrived with no posted receive");
                debug_assert!(len <= posted, "message exceeds advertised buffer");
                self.stats.recvs_completed += 1;
                self.stats.bytes_received += len as u64;
                self.events.push(SeqPacketEvent::RecvComplete { id, len });
            }
            WcOpcode::Recv => {
                let slot = cqe.wr_id;
                let mut buf = [0u8; CTRL_MSG_LEN];
                api.read_mr(
                    self.ctrl_mr.key,
                    self.ctrl_mr.addr + slot * CTRL_SLOT,
                    &mut buf,
                )
                .expect("control slot read");
                let msg = CtrlMsg::decode(&buf).expect("control decode");
                self.peer_credits += msg.credit_return;
                match msg.ctrl {
                    Ctrl::Advert(ad) => {
                        self.stats.adverts_received += 1;
                        self.adverts.push_back(ad);
                    }
                    Ctrl::Credit => {}
                    Ctrl::Ack { .. } => {
                        panic!("ACK has no meaning on a SEQPACKET connection")
                    }
                    Ctrl::DataNotify { .. } => {
                        panic!("SEQPACKET connections always use native WWI")
                    }
                    Ctrl::Fin { .. } => {
                        panic!("half-close is not implemented for SEQPACKET sockets")
                    }
                }
            }
            other => panic!("unexpected receive completion {other:?}"),
        }
        let slot = cqe.wr_id;
        let sge = self.ctrl_mr.sge(slot * CTRL_SLOT, CTRL_SLOT as u32);
        api.post_recv(self.qpn, RecvWr::new(slot, sge))
            .expect("re-post control receive");
        self.owed_credits += 1;
    }

    fn on_send_cqe(&mut self, api: &mut impl VerbsPort, cqe: Cqe) {
        assert_eq!(cqe.status, WcStatus::Success);
        api.charge_cqe_cost();
        self.tx.on_signaled_cqe();
        // RC FIFO: one signaled completion retires every WQE posted
        // before it, so drain all owners up to and including its wr_id
        // (a signaled control SEND may retire message WWIs posted ahead
        // of it and own no entry itself).
        while let Some(&(wr_id, (id, len))) = self.wwi_owner.front() {
            if wr_id > cqe.wr_id {
                break;
            }
            self.wwi_owner.pop_front();
            self.stats.sends_completed += 1;
            self.stats.bytes_sent += len as u64;
            self.events.push(SeqPacketEvent::SendComplete { id, len });
        }
    }

    fn pump_sends(&mut self, api: &mut impl VerbsPort) {
        while !self.pending_sends.is_empty() {
            if self.peer_credits <= CREDIT_RESERVE {
                return;
            }
            if api.sq_outstanding(self.qpn) + self.tx.staged() >= self.cfg.sq_depth {
                return;
            }
            let Some(advert) = self.adverts.front().copied() else {
                return;
            };
            let head = self.pending_sends.front().expect("checked non-empty");
            if head.len > advert.len {
                // Message semantics: data that does not fit is an error,
                // not a partial delivery. The ADVERT is retained for a
                // later (smaller) message.
                let bad = self.pending_sends.pop_front().expect("head exists");
                self.events.push(SeqPacketEvent::SendError {
                    id: bad.id,
                    len: bad.len,
                    advertised: advert.len,
                });
                continue;
            }
            let head = self.pending_sends.pop_front().expect("head exists");
            self.adverts.pop_front();
            let wr_id = self.next_wr;
            self.next_wr += 1;
            let sge = Sge::new(head.addr, head.len, head.key);
            let wr = SendWr::write_imm(
                wr_id,
                sge,
                RemoteAddr {
                    addr: advert.addr,
                    rkey: MrKey(advert.rkey),
                },
                encode_imm(TransferKind::Direct, head.len),
            );
            self.stage_wr(api, wr, true);
            self.peer_credits -= 1;
            self.wwi_owner.push_back((wr_id, (head.id, head.len)));
            self.stats.direct_transfers += 1;
            self.stats.direct_bytes += head.len as u64;
        }
    }

    /// Moves eligible control messages onto the TX queue (they are
    /// posted by the next [`SeqPacketSocket::flush_tx`], sharing its
    /// doorbell with any message WWIs staged in the same pass).
    fn flush_ctrl(&mut self, api: &mut impl VerbsPort) {
        while let Some(front) = self.pending_ctrl.front() {
            let needed = match front {
                Ctrl::Credit => CREDIT_RESERVE,
                _ => CREDIT_RESERVE + 1,
            };
            if self.peer_credits < needed {
                return;
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
    /// signaling policy). `is_data` marks message WWIs.
    fn stage_wr(&mut self, api: &mut impl VerbsPort, wr: SendWr, is_data: bool) {
        let occupancy = api.sq_outstanding(self.qpn) + self.tx.staged();
        self.tx
            .stage(occupancy, &self.cfg, wr, is_data, &mut self.stats);
    }

    /// Posts the staged TX queue as postlists (see [`TxPipe::flush`]).
    fn flush_tx(&mut self, api: &mut impl VerbsPort) {
        self.tx.flush(api, self.qpn, &self.cfg, &mut self.stats);
    }

    /// Refreshes the CQ-pressure gauges from the backend into this
    /// endpoint's stats; call before serializing a snapshot.
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

/// Intermediate product of [`SeqPacketSocket::prepare`].
pub struct PreparedSeqSocket {
    node: NodeId,
    qpn: QpNum,
    send_cq: CqId,
    recv_cq: CqId,
    cfg: ExsConfig,
    ctrl_mr: MrInfo,
}

impl PreparedSeqSocket {
    /// Finishes construction with the peer's parameters.
    pub fn complete(self, peer: SeqSetupInfo) -> SeqPacketSocket {
        let credit_threshold = self.cfg.effective_credit_threshold();
        SeqPacketSocket {
            node: self.node,
            qpn: self.qpn,
            send_cq: self.send_cq,
            recv_cq: self.recv_cq,
            ctrl_mr: self.ctrl_mr,
            adverts: VecDeque::new(),
            pending_sends: VecDeque::new(),
            recv_queue: VecDeque::new(),
            wwi_owner: VecDeque::new(),
            next_wr: 1,
            tx: TxPipe::new(),
            next_seq: Seq::ZERO,
            cfg: self.cfg,
            peer_credits: peer.credits,
            owed_credits: 0,
            credit_threshold,
            pending_ctrl: VecDeque::new(),
            events: Vec::new(),
            stats: ConnStats::default(),
            mrs_released: false,
        }
    }
}
