//! ES-API-flavoured convenience layer.
//!
//! UNH EXS implements the Open Group's Extended Sockets API (ES-API):
//! applications create sockets with `exs_socket()` (choosing
//! `SOCK_STREAM` or `SOCK_SEQPACKET`), register I/O memory with
//! `exs_mregister()`, issue asynchronous `exs_send()`/`exs_recv()`
//! calls, and retrieve completion events from an event queue created
//! with `exs_qcreate()` and drained with `exs_qdequeue()` (paper §I,
//! §II-B).
//!
//! [`ExsContext`] reproduces that shape for one simulated node: sockets
//! are addressed by small descriptors, all completion events funnel into
//! one per-context event queue, and flags follow the sockets convention
//! ([`MsgFlags::WAITALL`] = MSG_WAITALL).

use rdma_verbs::{Access, MrInfo, NodeApi, NodeId, SimNet};

use crate::config::ExsConfig;
use crate::seqpacket::{SeqPacketEvent, SeqPacketSocket};
use crate::stats::ConnStats;
use crate::stream::{ExsEvent, StreamSocket};

/// Socket descriptor within one [`ExsContext`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ExsFd(pub u32);

/// Socket type, as passed to `exs_socket()`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SockType {
    /// Byte-stream semantics with dynamic direct/indirect transfers.
    Stream,
    /// Message semantics: one send matches one receive.
    SeqPacket,
}

/// Receive flags.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct MsgFlags(u8);

impl MsgFlags {
    /// No flags.
    pub const NONE: MsgFlags = MsgFlags(0);
    /// MSG_WAITALL: complete the receive only when the buffer is full.
    pub const WAITALL: MsgFlags = MsgFlags(1);

    /// True if MSG_WAITALL is set.
    pub fn waitall(self) -> bool {
        self.0 & 1 != 0
    }
}

/// A completion event dequeued from the context's event queue, tagged
/// with the socket it belongs to (`exs_qdequeue` semantics).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QueuedEvent {
    /// The socket the operation ran on.
    pub fd: ExsFd,
    /// The completion itself.
    pub event: Event,
}

/// Unified completion event across socket types.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Event {
    /// An `exs_send` completed; the buffer is reusable.
    SendComplete {
        /// User token.
        id: u64,
        /// Bytes sent.
        len: u64,
    },
    /// An `exs_send` failed (message mode: message larger than the
    /// matched receive buffer).
    SendError {
        /// User token.
        id: u64,
        /// Message length.
        len: u64,
    },
    /// An `exs_recv` completed with `len` bytes (`0` = end of stream).
    RecvComplete {
        /// User token.
        id: u64,
        /// Bytes received.
        len: u32,
    },
    /// The peer half-closed its sending direction and every byte has
    /// been delivered.
    PeerClosed,
    /// The transport under the socket failed.
    ConnectionError,
}

enum Sock {
    Stream(Box<StreamSocket>),
    SeqPacket(Box<SeqPacketSocket>),
}

/// The first descriptor a context hands out: 0-2 are reserved, like
/// file descriptors.
const FIRST_FD: u32 = 3;

/// Per-node ES-API context: a descriptor table plus one event queue.
///
/// The table is in descriptor order and a wake services the sockets in
/// that order, so a run is the same timeline every time it is made.
pub struct ExsContext {
    node: NodeId,
    /// Socket `fd` at index `fd - FIRST_FD`; `None` once closed.
    /// Descriptors are never reused.
    sockets: Vec<Option<Sock>>,
    queue: Vec<QueuedEvent>,
}

impl ExsContext {
    /// Creates an empty context for a node.
    pub fn new(node: NodeId) -> Self {
        ExsContext {
            node,
            sockets: Vec::new(),
            queue: Vec::new(),
        }
    }

    /// The node this context lives on.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Number of open sockets.
    pub fn open_sockets(&self) -> usize {
        self.sockets.iter().flatten().count()
    }

    /// Registers I/O memory (`exs_mregister`). EXS exposes registration
    /// explicitly because zero-copy transfers require it (paper §I).
    pub fn exs_mregister(&mut self, api: &mut NodeApi<'_>, len: usize, access: Access) -> MrInfo {
        let _ = self.node;
        api.register_mr(len, access)
    }

    /// Releases memory registered with
    /// [`ExsContext::exs_mregister`] (`exs_mderegister`).
    pub fn exs_mderegister(&mut self, api: &mut NodeApi<'_>, mr: &MrInfo) {
        api.hca_deregister(mr.key).expect("exs_mderegister");
    }

    fn install(&mut self, sock: Sock) -> ExsFd {
        let fd = ExsFd(FIRST_FD + self.sockets.len() as u32);
        self.sockets.push(Some(sock));
        fd
    }

    /// The table index of `fd`, if this context issued it.
    fn index(&self, fd: ExsFd) -> Option<usize> {
        let idx = fd.0.checked_sub(FIRST_FD)? as usize;
        (idx < self.sockets.len()).then_some(idx)
    }

    /// Creates a connected socket pair across two contexts — the
    /// simulation-level equivalent of `exs_socket` + `exs_connect` on
    /// one side and `exs_socket` + `exs_bind`/`exs_listen`/`exs_accept`
    /// on the other (the out-of-band CM exchange happens inside).
    pub fn socket_pair(
        net: &mut SimNet,
        a: &mut ExsContext,
        b: &mut ExsContext,
        socktype: SockType,
        cfg: &ExsConfig,
    ) -> (ExsFd, ExsFd) {
        match socktype {
            SockType::Stream => {
                let (sa, sb) = StreamSocket::pair(net, a.node, b.node, cfg);
                (
                    a.install(Sock::Stream(Box::new(sa))),
                    b.install(Sock::Stream(Box::new(sb))),
                )
            }
            SockType::SeqPacket => {
                let (sa, sb) = SeqPacketSocket::pair(net, a.node, b.node, cfg);
                (
                    a.install(Sock::SeqPacket(Box::new(sa))),
                    b.install(Sock::SeqPacket(Box::new(sb))),
                )
            }
        }
    }

    fn sock_mut(&mut self, fd: ExsFd) -> &mut Sock {
        self.index(fd)
            .and_then(|idx| self.sockets[idx].as_mut())
            .unwrap_or_else(|| panic!("unknown socket descriptor {fd:?}"))
    }

    /// Asynchronous send (`exs_send`). Returns immediately; completion
    /// arrives on the event queue.
    pub fn exs_send(
        &mut self,
        api: &mut NodeApi<'_>,
        fd: ExsFd,
        mr: &MrInfo,
        offset: u64,
        len: u64,
        id: u64,
    ) {
        match self.sock_mut(fd) {
            Sock::Stream(s) => s.exs_send(api, mr, offset, len, id),
            Sock::SeqPacket(s) => s.exs_send(api, mr, offset, len as u32, id),
        }
        self.collect(fd);
    }

    /// Asynchronous receive (`exs_recv`).
    #[allow(clippy::too_many_arguments)] // mirrors the ES-API C signature
    pub fn exs_recv(
        &mut self,
        api: &mut NodeApi<'_>,
        fd: ExsFd,
        mr: &MrInfo,
        offset: u64,
        len: u32,
        flags: MsgFlags,
        id: u64,
    ) {
        match self.sock_mut(fd) {
            Sock::Stream(s) => s.exs_recv(api, mr, offset, len, flags.waitall(), id),
            Sock::SeqPacket(s) => s.exs_recv(api, mr, offset, len, id),
        }
        self.collect(fd);
    }

    /// Best-effort cancellation of a queued operation (`exs_cancel`):
    /// succeeds only while the operation has not touched the wire.
    /// Stream sockets only.
    pub fn exs_cancel(&mut self, fd: ExsFd, id: u64) -> bool {
        match self.sock_mut(fd) {
            Sock::Stream(s) => s.exs_cancel(id),
            Sock::SeqPacket(_) => false,
        }
    }

    /// Half-closes a stream socket's sending direction (`exs_shutdown`
    /// with SHUT_WR).
    pub fn exs_shutdown(&mut self, api: &mut NodeApi<'_>, fd: ExsFd) {
        match self.sock_mut(fd) {
            Sock::Stream(s) => s.exs_shutdown(api),
            Sock::SeqPacket(_) => panic!("half-close is not implemented for SEQPACKET sockets"),
        }
        self.collect(fd);
    }

    /// Drives every socket from a node wake, in descriptor order; call
    /// from `NodeApp::on_wake`.
    pub fn handle_wake(&mut self, api: &mut NodeApi<'_>) {
        for idx in 0..self.sockets.len() {
            let fd = ExsFd(FIRST_FD + idx as u32);
            match &mut self.sockets[idx] {
                Some(Sock::Stream(s)) => s.handle_wake(api),
                Some(Sock::SeqPacket(s)) => s.handle_wake(api),
                None => continue,
            }
            self.collect(fd);
        }
    }

    fn collect(&mut self, fd: ExsFd) {
        match self.sock_mut(fd) {
            Sock::Stream(s) => {
                for ev in s.take_events() {
                    let event = match ev {
                        ExsEvent::SendComplete { id, len } => Event::SendComplete { id, len },
                        ExsEvent::RecvComplete { id, len } => Event::RecvComplete { id, len },
                        ExsEvent::PeerClosed => Event::PeerClosed,
                        ExsEvent::ConnectionError => Event::ConnectionError,
                    };
                    self.queue.push(QueuedEvent { fd, event });
                }
            }
            Sock::SeqPacket(s) => {
                for ev in s.take_events() {
                    let event = match ev {
                        SeqPacketEvent::SendComplete { id, len } => Event::SendComplete {
                            id,
                            len: len as u64,
                        },
                        SeqPacketEvent::SendError { id, len, .. } => Event::SendError {
                            id,
                            len: len as u64,
                        },
                        SeqPacketEvent::RecvComplete { id, len } => Event::RecvComplete { id, len },
                        SeqPacketEvent::ConnectionError => Event::ConnectionError,
                    };
                    self.queue.push(QueuedEvent { fd, event });
                }
            }
        }
    }

    /// Drains the event queue (`exs_qdequeue`).
    pub fn exs_qdequeue(&mut self) -> Vec<QueuedEvent> {
        std::mem::take(&mut self.queue)
    }

    /// Statistics for one socket.
    pub fn stats(&self, fd: ExsFd) -> &ConnStats {
        let sock = self.index(fd).and_then(|idx| self.sockets[idx].as_ref());
        match sock.expect("fd present") {
            Sock::Stream(s) => s.stats(),
            Sock::SeqPacket(s) => s.stats(),
        }
    }

    /// Closes a socket descriptor, releasing every registration the
    /// socket owns (ring, control slots, in-flight staging regions).
    /// ES-API `exs_close`: deregistration of socket-owned memory is the
    /// library's job; only `exs_mregister`ed user regions remain the
    /// application's to release.
    pub fn exs_close(&mut self, api: &mut NodeApi<'_>, fd: ExsFd) {
        if let Some(mut sock) = self.index(fd).and_then(|idx| self.sockets[idx].take()) {
            match &mut sock {
                Sock::Stream(s) => s.close(api),
                Sock::SeqPacket(s) => s.close(api),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdma_verbs::{profiles, NodeApp};
    use simnet::SimTime;

    #[test]
    fn flags() {
        assert!(!MsgFlags::NONE.waitall());
        assert!(MsgFlags::WAITALL.waitall());
    }

    const SOCKETS: usize = 8;
    const MSGS: u64 = 16;
    const MSG: u64 = 64 << 10;

    /// One end of a many-socket context: every socket keeps two sends
    /// (or two full-length receives) outstanding until it has moved
    /// `MSGS` messages.
    struct End {
        ctx: ExsContext,
        fds: Vec<(ExsFd, MrInfo)>,
        sender: bool,
        issued: [u64; SOCKETS],
        completed: [u64; SOCKETS],
    }

    impl End {
        fn kick(&mut self, api: &mut NodeApi<'_>) {
            for (idx, &(fd, mr)) in self.fds.iter().enumerate() {
                while self.issued[idx] < MSGS && self.issued[idx] - self.completed[idx] < 2 {
                    let id = (idx as u64) << 32 | self.issued[idx];
                    if self.sender {
                        self.ctx.exs_send(api, fd, &mr, 0, MSG, id);
                    } else {
                        let flags = MsgFlags::WAITALL;
                        self.ctx.exs_recv(api, fd, &mr, 0, MSG as u32, flags, id);
                    }
                    self.issued[idx] += 1;
                }
            }
        }
    }

    impl NodeApp for End {
        fn on_start(&mut self, api: &mut NodeApi<'_>) {
            self.kick(api);
        }
        fn on_wake(&mut self, api: &mut NodeApi<'_>) {
            self.ctx.handle_wake(api);
            loop {
                let events = self.ctx.exs_qdequeue();
                if events.is_empty() {
                    break;
                }
                for qe in events {
                    let id = match qe.event {
                        Event::SendComplete { id, len } => (len == MSG).then_some(id),
                        Event::RecvComplete { id, len } => (len as u64 == MSG).then_some(id),
                        _ => None,
                    };
                    let id = id.unwrap_or_else(|| panic!("unexpected {qe:?}"));
                    self.completed[(id >> 32) as usize] += 1;
                }
                self.kick(api);
            }
        }
        fn is_done(&self) -> bool {
            self.completed.iter().all(|&c| c == MSGS)
        }
    }

    /// Eight stream sockets between two contexts on jittered hosts: the
    /// run's end time, event count and bytes received.
    fn eight_sockets() -> (SimTime, u64, u64) {
        let profile = profiles::fdr_infiniband();
        let mut net = SimNet::new();
        let a = net.add_node(profile.host.clone(), profile.hca.clone());
        let b = net.add_node(profile.host.clone(), profile.hca.clone());
        net.connect_nodes(a, b, profile.link.clone(), 9);
        let (mut ca, mut cb) = (ExsContext::new(a), ExsContext::new(b));
        let cfg = ExsConfig {
            ring_capacity: 256 << 10,
            ..ExsConfig::default()
        };
        let (mut fa, mut fb) = (Vec::new(), Vec::new());
        for _ in 0..SOCKETS {
            let (x, y) =
                ExsContext::socket_pair(&mut net, &mut ca, &mut cb, SockType::Stream, &cfg);
            let src = net.with_api(a, |api| ca.exs_mregister(api, MSG as usize, Access::NONE));
            let access = Access::local_remote_write();
            let dst = net.with_api(b, |api| cb.exs_mregister(api, MSG as usize, access));
            fa.push((x, src));
            fb.push((y, dst));
        }
        let end = |ctx, fds, sender| End {
            ctx,
            fds,
            sender,
            issued: [0; SOCKETS],
            completed: [0; SOCKETS],
        };
        let (mut tx, mut rx) = (end(ca, fa, true), end(cb, fb, false));
        let outcome = net.run(&mut [&mut tx, &mut rx], SimTime::from_secs(10));
        assert!(outcome.completed, "{outcome:?}");
        let bytes = (rx.fds.iter())
            .map(|&(fd, _)| rx.ctx.stats(fd).bytes_received)
            .sum();
        (outcome.end, outcome.events, bytes)
    }

    /// A wake services the sockets in descriptor order, so the same
    /// program makes the same timeline on every run — it used to follow
    /// a randomly keyed hash map's iteration order, which a new context
    /// draws afresh.
    #[test]
    fn a_many_socket_context_runs_the_same_timeline_every_time() {
        let first = eight_sockets();
        assert_eq!(first.2, SOCKETS as u64 * MSGS * MSG);
        for run in 1..5 {
            assert_eq!(eight_sockets(), first, "run {run}");
        }
    }
}
