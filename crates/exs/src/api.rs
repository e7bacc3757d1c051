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

use std::collections::HashMap;

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

/// Per-node ES-API context: a descriptor table plus one event queue.
pub struct ExsContext {
    node: NodeId,
    sockets: HashMap<u32, Sock>,
    next_fd: u32,
    queue: Vec<QueuedEvent>,
}

impl ExsContext {
    /// Creates an empty context for a node.
    pub fn new(node: NodeId) -> Self {
        ExsContext {
            node,
            sockets: HashMap::new(),
            next_fd: 3, // 0-2 reserved, like file descriptors
            queue: Vec::new(),
        }
    }

    /// The node this context lives on.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Number of open sockets.
    pub fn open_sockets(&self) -> usize {
        self.sockets.len()
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
        let fd = ExsFd(self.next_fd);
        self.next_fd += 1;
        self.sockets.insert(fd.0, sock);
        fd
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
        self.sockets
            .get_mut(&fd.0)
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

    /// Drives every socket from a node wake; call from
    /// `NodeApp::on_wake`.
    pub fn handle_wake(&mut self, api: &mut NodeApi<'_>) {
        let fds: Vec<u32> = self.sockets.keys().copied().collect();
        for fd in fds {
            match self.sockets.get_mut(&fd).expect("fd present") {
                Sock::Stream(s) => s.handle_wake(api),
                Sock::SeqPacket(s) => s.handle_wake(api),
            }
            self.collect(ExsFd(fd));
        }
    }

    fn collect(&mut self, fd: ExsFd) {
        match self.sockets.get_mut(&fd.0).expect("fd present") {
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
        match self.sockets.get(&fd.0).expect("fd present") {
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
        if let Some(mut sock) = self.sockets.remove(&fd.0) {
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

    #[test]
    fn flags() {
        assert!(!MsgFlags::NONE.waitall());
        assert!(MsgFlags::WAITALL.waitall());
    }
}
