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
//!
//! The QP's control channel — receive slots, the credit rule, control
//! queueing, postlist staging — is the `chan::Channel` the
//! stream socket holds too. Everything the peer can put on the wire
//! (a failed completion, an undecodable slot, a message this mode has
//! no use for) breaks the socket with a typed [`ExsError`], never the
//! process.

use std::collections::VecDeque;

use rdma_verbs::{
    connect_pair, Cqe, MrInfo, NodeId, QpNum, RemoteAddr, SendWr, Sge, SimNet, WcOpcode, WcStatus,
};
use rdma_verbs::{CqId, MrKey};

use crate::chan::{poll_cqs, Channel};
use crate::config::ExsConfig;
use crate::error::{ExsError, ProtocolError};
use crate::messages::{decode_imm, encode_imm, Advert, Ctrl, TransferKind};
use crate::phase::Phase;
use crate::port::VerbsPort;
use crate::seq::Seq;
use crate::stats::ConnStats;

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
    /// The transport failed or the peer violated the protocol. The
    /// connection is dead; pending operations will never complete.
    ConnectionError,
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
    /// The QP's control channel; a message WWI's owner is the user
    /// token and length its completion reports.
    chan: Channel<(), (u64, u32)>,
    adverts: VecDeque<Advert>,
    pending_sends: VecDeque<PendingSend>,
    recv_queue: VecDeque<(u64, u32)>,
    next_seq: Seq,
    events: Vec<SeqPacketEvent>,
    stats: ConnStats,
    /// The error that broke the socket; `Some` means it is dead.
    last_error: Option<ExsError>,
}

impl SeqPacketSocket {
    /// Builds one endpoint on `node` over an already-connected QP
    /// (control slots + pre-posted receives) and returns it with the
    /// parameters the peer needs. Nothing is sent before
    /// [`SeqPacketSocket::connect`] has the peer's.
    pub fn prepare(
        api: &mut impl VerbsPort,
        node: NodeId,
        qpn: QpNum,
        send_cq: CqId,
        recv_cq: CqId,
        cfg: &ExsConfig,
    ) -> (SeqPacketSocket, SeqSetupInfo) {
        cfg.validate().expect("invalid EXS configuration");
        let sock = SeqPacketSocket {
            node,
            chan: Channel::prepare(api, qpn, send_cq, recv_cq, cfg),
            adverts: VecDeque::new(),
            pending_sends: VecDeque::new(),
            recv_queue: VecDeque::new(),
            next_seq: Seq::ZERO,
            events: Vec::new(),
            stats: ConnStats::default(),
            last_error: None,
        };
        let info = SeqSetupInfo {
            credits: cfg.credits,
        };
        (sock, info)
    }

    /// Finishes set-up with the peer's parameters.
    pub fn connect(&mut self, peer: SeqSetupInfo) {
        self.chan.open(peer.credits);
    }

    /// Creates a connected pair of message-mode sockets.
    pub fn pair(
        net: &mut SimNet,
        a: NodeId,
        b: NodeId,
        cfg: &ExsConfig,
    ) -> (SeqPacketSocket, SeqPacketSocket) {
        let (ha, hb) = connect_pair(net, a, b, cfg.qp_caps(), cfg.cq_depth(1)).expect("connect");
        let (mut sa, ia) = net.with_api(a, |api| {
            SeqPacketSocket::prepare(api, a, ha.qpn, ha.send_cq, ha.recv_cq, cfg)
        });
        let (mut sb, ib) = net.with_api(b, |api| {
            SeqPacketSocket::prepare(api, b, hb.qpn, hb.send_cq, hb.recv_cq, cfg)
        });
        sa.connect(ib);
        sb.connect(ia);
        (sa, sb)
    }

    /// This endpoint's node.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Protocol statistics.
    pub fn stats(&self) -> &ConnStats {
        &self.stats
    }

    /// Releases the socket's control-slot registration — full-socket
    /// close (`exs_close`); idempotent. Message mode registers no ring
    /// and no staging, so the control slots are its only registration.
    pub fn close(&mut self, api: &mut impl VerbsPort) {
        self.chan.close(api);
    }

    /// True once [`SeqPacketSocket::close`] has released the socket's
    /// registrations.
    pub fn is_closed(&self) -> bool {
        self.chan.is_closed()
    }

    /// True once the transport failed underneath the socket or the
    /// peer violated the protocol.
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
            self.events.push(SeqPacketEvent::ConnectionError);
        }
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
        if self.is_broken() {
            return;
        }
        self.pump_sends(api);
        self.chan.flush_ctrl(api, &mut self.stats);
        self.chan.flush_tx(api, &mut self.stats);
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
        if self.is_broken() {
            return;
        }
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
        self.chan.push_ctrl((), Ctrl::Advert(advert));
        self.chan.flush_ctrl(api, &mut self.stats);
        self.chan.flush_tx(api, &mut self.stats);
    }

    /// Drives the socket from a node wake.
    pub fn handle_wake(&mut self, api: &mut impl VerbsPort) {
        for (cqe, is_recv) in poll_cqs(api, self.chan.send_cq(), self.chan.recv_cq()) {
            let handled = if cqe.status != WcStatus::Success {
                Err(ExsError::Broken)
            } else if is_recv {
                self.on_recv_cqe(api, cqe)
            } else {
                self.on_send_cqe(api, cqe);
                Ok(())
            };
            if let Err(e) = handled {
                self.fail(e);
            }
        }
        if self.is_broken() {
            return;
        }
        self.pump_sends(api);
        self.chan.flush_ctrl(api, &mut self.stats);
        self.chan.maybe_send_credit(api, &mut self.stats);
        self.chan.flush_tx(api, &mut self.stats);
    }

    /// Takes accumulated user events.
    pub fn take_events(&mut self) -> Vec<SeqPacketEvent> {
        std::mem::take(&mut self.events)
    }

    /// One receive completion. Everything in here is driven by bytes
    /// the peer controls, so malformed input is an error, not a panic.
    fn on_recv_cqe(&mut self, api: &mut impl VerbsPort, cqe: Cqe) -> Result<(), ExsError> {
        api.charge_cqe_cost();
        match cqe.opcode {
            WcOpcode::RecvRdmaWithImm => {
                let (kind, len) = decode_imm(cqe.imm.ok_or(ProtocolError::MissingImm)?);
                if kind != TransferKind::Direct {
                    // Message mode has no intermediate ring to land in.
                    return Err(ProtocolError::UnexpectedOpcode.into());
                }
                let (id, posted) = self
                    .recv_queue
                    .pop_front()
                    .ok_or(ProtocolError::DirectWithoutAdvert)?;
                if len > posted {
                    return Err(ProtocolError::DirectOverfill.into());
                }
                self.stats.recvs_completed += 1;
                self.stats.bytes_received += len as u64;
                self.events.push(SeqPacketEvent::RecvComplete { id, len });
            }
            WcOpcode::Recv => match self.chan.recv_ctrl(api, &cqe)? {
                ((), Ctrl::Advert(ad)) => {
                    self.stats.adverts_received += 1;
                    self.adverts.push_back(ad);
                }
                ((), Ctrl::Credit) => {}
                // No ring to ACK, always native WWI, no half-close: a
                // correct peer sends none of these on a message socket.
                ((), Ctrl::Ack { .. } | Ctrl::DataNotify { .. } | Ctrl::Fin { .. }) => {
                    return Err(ProtocolError::UnexpectedOpcode.into());
                }
            },
            _ => return Err(ProtocolError::UnexpectedOpcode.into()),
        }
        self.chan.repost(api, &cqe)
    }

    fn on_send_cqe(&mut self, api: &mut impl VerbsPort, cqe: Cqe) {
        api.charge_cqe_cost();
        for (id, len) in self.chan.retire(cqe.wr_id) {
            self.stats.sends_completed += 1;
            self.stats.bytes_sent += len as u64;
            self.events.push(SeqPacketEvent::SendComplete { id, len });
        }
    }

    fn pump_sends(&mut self, api: &mut impl VerbsPort) {
        while !self.pending_sends.is_empty() {
            if !self.chan.can_send_data(api) {
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
            let sge = Sge::new(head.addr, head.len, head.key);
            let remote = RemoteAddr {
                addr: advert.addr,
                rkey: MrKey(advert.rkey),
            };
            let imm = encode_imm(TransferKind::Direct, head.len);
            let owner = (head.id, head.len);
            self.chan.stage_data(api, &mut self.stats, owner, |wr_id| {
                SendWr::write_imm(wr_id, sge, remote, imm)
            });
            self.stats.direct_transfers += 1;
            self.stats.direct_bytes += head.len as u64;
        }
    }

    /// Refreshes the CQ-pressure gauges from the backend into this
    /// endpoint's stats; call before serializing a snapshot.
    pub fn sync_cq_stats(&mut self, api: &impl VerbsPort) {
        self.chan.sync_cq_stats(api, &mut self.stats);
    }
}
