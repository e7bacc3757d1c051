//! What a reactor hosts: one endpoint carrying one or many streams.
//!
//! An [`Endpoint`] owns one or more QPs that complete onto its host's
//! CQ pair, and carries one or more byte streams, each named by a
//! stream id:
//!
//! * a [`StreamSocket`] is the endpoint with **one QP and the single
//!   stream id 0**;
//! * a [`MuxEndpoint`] is the endpoint with a pool of ≤ 8 QPs and every
//!   stream id the application opens on it.
//!
//! This module is the only code that tells the two apart. Everything
//! above it — [`crate::Reactor`], the aio executor, the fan-in harness —
//! addresses a stream as `(endpoint, stream id)`, posts through [`Endpoint::send`] / [`Endpoint::recv`] /
//! [`Endpoint::shutdown`] and consumes one stream-tagged event type,
//! [`MuxEvent`] (a socket's `PeerClosed` is `StreamClosed { stream: 0 }`,
//! its `ConnectionError` is `TransportError { slot: 0 }`). What only one
//! kind has — opening stream ids, establishing pool transports, a
//! socket's blocking-style calls — is reached through the typed views
//! [`Endpoint::as_socket_mut`] and [`Endpoint::as_mux_mut`], which answer
//! `None` for the other kind.

use rdma_verbs::{CqId, Cqe, MrInfo, QpNum};

use crate::error::{ExsError, ProtocolError};
use crate::mux::{MuxEndpoint, MuxEvent};
use crate::port::VerbsPort;
use crate::reactor::{CqSide, Readiness};
use crate::stats::ConnStats;
use crate::stream::{ExsEvent, StreamSocket};

/// One hosted endpoint: a [`StreamSocket`] or a [`MuxEndpoint`], built
/// with `into()` from either. See the module docs.
pub struct Endpoint(Kind);

// The socket stays inline: it is the common case by the hundreds, and
// a reactor keeps them all in the one allocation of its slab.
#[allow(clippy::large_enum_variant)]
enum Kind {
    Socket(StreamSocket),
    /// Boxed so that a slot hosting a socket is no larger than the
    /// socket.
    Mux(Box<MuxEndpoint>),
}

impl From<StreamSocket> for Endpoint {
    fn from(sock: StreamSocket) -> Endpoint {
        Endpoint(Kind::Socket(sock))
    }
}

impl From<MuxEndpoint> for Endpoint {
    fn from(ep: MuxEndpoint) -> Endpoint {
        Endpoint(Kind::Mux(Box::new(ep)))
    }
}

/// A socket carries stream 0 and nothing else.
fn only_stream(stream: u32) -> Result<(), ExsError> {
    if stream == 0 {
        Ok(())
    } else {
        Err(ProtocolError::UnknownStream(stream).into())
    }
}

fn tagged(ev: ExsEvent) -> MuxEvent {
    match ev {
        ExsEvent::SendComplete { id, len } => MuxEvent::SendComplete { stream: 0, id, len },
        ExsEvent::RecvComplete { id, len } => MuxEvent::RecvComplete { stream: 0, id, len },
        ExsEvent::PeerClosed => MuxEvent::StreamClosed { stream: 0 },
        ExsEvent::ConnectionError => MuxEvent::TransportError { slot: 0 },
    }
}

impl Endpoint {
    /// The socket, if this endpoint is one.
    pub fn as_socket_mut(&mut self) -> Option<&mut StreamSocket> {
        match &mut self.0 {
            Kind::Socket(s) => Some(s),
            Kind::Mux(_) => None,
        }
    }

    /// The pooled endpoint, if this endpoint is one.
    pub fn as_mux(&self) -> Option<&MuxEndpoint> {
        match &self.0 {
            Kind::Socket(_) => None,
            Kind::Mux(m) => Some(m),
        }
    }

    /// The pooled endpoint, mutably (open streams, establish pool
    /// transports — then [`crate::Reactor::index_qps`]).
    pub fn as_mux_mut(&mut self) -> Option<&mut MuxEndpoint> {
        match &mut self.0 {
            Kind::Socket(_) => None,
            Kind::Mux(m) => Some(m),
        }
    }

    /// Asynchronous send on `stream`; [`MuxEvent::SendComplete`]
    /// reports buffer reuse. Fails at once on a stream this endpoint
    /// does not carry and on a socket that is broken or shut down.
    pub fn send(
        &mut self,
        api: &mut impl VerbsPort,
        stream: u32,
        mr: &MrInfo,
        offset: u64,
        len: u64,
        id: u64,
    ) -> Result<(), ExsError> {
        match &mut self.0 {
            Kind::Socket(s) => {
                only_stream(stream)?;
                if s.is_broken() || s.send_closed() {
                    return Err(s.last_error().cloned().unwrap_or(ExsError::Broken));
                }
                s.exs_send(api, mr, offset, len, id);
                Ok(())
            }
            Kind::Mux(m) => m.mux_send(api, stream, mr, offset, len, id),
        }
    }

    /// Asynchronous receive on `stream`; [`MuxEvent::RecvComplete`]
    /// reports delivery (zero bytes at end of stream).
    #[allow(clippy::too_many_arguments)]
    pub fn recv(
        &mut self,
        api: &mut impl VerbsPort,
        stream: u32,
        mr: &MrInfo,
        offset: u64,
        len: u32,
        waitall: bool,
        id: u64,
    ) -> Result<(), ExsError> {
        match &mut self.0 {
            Kind::Socket(s) => {
                only_stream(stream)?;
                s.exs_recv(api, mr, offset, len, waitall, id);
                Ok(())
            }
            Kind::Mux(m) => m.mux_recv(api, stream, mr, offset, len, waitall, id),
        }
    }

    /// Half-closes `stream`'s sending direction: queued data drains,
    /// then a FIN. Idempotent; a stream not carried is ignored.
    pub fn shutdown(&mut self, api: &mut impl VerbsPort, stream: u32) {
        match &mut self.0 {
            Kind::Socket(s) => {
                if stream == 0 && !s.send_closed() {
                    s.exs_shutdown(api);
                }
            }
            Kind::Mux(m) => m.close_stream(api, stream),
        }
    }

    /// Pushes staged and coalesced traffic to the wire now.
    pub fn flush(&mut self, api: &mut impl VerbsPort) {
        match &mut self.0 {
            Kind::Socket(s) => s.tx_flush(api),
            Kind::Mux(m) => m.progress(api),
        }
    }

    /// Revokes operation `id` on `stream` if none of it has entered the
    /// stream; true when it was removed (no completion follows). A
    /// pooled endpoint never revokes.
    pub fn cancel(&mut self, stream: u32, id: u64) -> bool {
        match &mut self.0 {
            Kind::Socket(s) => stream == 0 && s.exs_cancel(id),
            Kind::Mux(_) => false,
        }
    }

    /// Takes the queued completion events, stream-tagged.
    pub fn take_events(&mut self) -> Vec<MuxEvent> {
        let mut events = Vec::new();
        self.take_events_into(&mut events);
        events
    }

    /// [`Endpoint::take_events`], appending to a caller-owned buffer: a
    /// loop that keeps one buffer takes events without allocating.
    pub fn take_events_into(&mut self, out: &mut Vec<MuxEvent>) {
        match &mut self.0 {
            Kind::Socket(s) => out.extend(s.drain_events().map(tagged)),
            Kind::Mux(m) => out.extend(m.drain_events()),
        }
    }

    /// Number of completion events queued and not yet taken.
    pub fn events_pending(&self) -> usize {
        match &self.0 {
            Kind::Socket(s) => s.events_pending(),
            Kind::Mux(m) => m.events_pending(),
        }
    }

    /// Drives the endpoint from a node wake when nothing hosts it:
    /// drains its own CQ pair and advances the protocol.
    pub fn handle_wake(&mut self, api: &mut impl VerbsPort) {
        match &mut self.0 {
            Kind::Socket(s) => s.handle_wake(api),
            Kind::Mux(m) => m.handle_wake(api),
        }
    }

    /// The socket's `(send, recv)` CQ pair while it is quiet (the rule
    /// in [`StreamSocket::handle_wake`]): if both are empty, a wake
    /// would only poll them. `None` for a socket with work and for a
    /// pooled endpoint.
    pub fn quiet_cqs(&self) -> Option<(CqId, CqId)> {
        match &self.0 {
            Kind::Socket(s) => s.quiet().then(|| (s.send_cq(), s.recv_cq())),
            Kind::Mux(_) => None,
        }
    }

    /// True while the endpoint still owes traffic to the wire (see
    /// [`StreamSocket::has_unsent`]).
    pub fn has_unsent(&self) -> bool {
        match &self.0 {
            Kind::Socket(s) => s.has_unsent(),
            Kind::Mux(m) => m.has_unsent(),
        }
    }

    /// The typed error behind the first transport failure, when one was
    /// attributable.
    pub fn last_error(&self) -> Option<&ExsError> {
        match &self.0 {
            Kind::Socket(s) => s.last_error(),
            Kind::Mux(m) => m.last_error(),
        }
    }

    /// The error every operation on `stream` is doomed to, once the
    /// transport slot carrying it has failed (a socket is one slot).
    pub fn stream_error(&self, stream: u32) -> Option<ExsError> {
        let dead = match &self.0 {
            Kind::Socket(s) => s.is_broken(),
            Kind::Mux(m) => m.slot_broken(m.slot_of(stream)),
        };
        dead.then(|| self.last_error().cloned().unwrap_or(ExsError::Broken))
    }

    /// Protocol counters: a socket's own, a pooled endpoint's summed
    /// over its pool.
    pub fn stats(&self) -> &ConnStats {
        match &self.0 {
            Kind::Socket(s) => s.stats(),
            Kind::Mux(m) => m.stats(),
        }
    }

    /// Folds the CQ-pressure gauges into [`Endpoint::stats`]. A pooled
    /// endpoint keeps none: its CQ pair is the host's, not its own.
    pub fn sync_cq_stats(&mut self, api: &impl VerbsPort) {
        if let Kind::Socket(s) = &mut self.0 {
            s.sync_cq_stats(api);
        }
    }

    /// Releases every registration the endpoint owns; idempotent.
    pub fn close(&mut self, api: &mut impl VerbsPort) {
        match &mut self.0 {
            Kind::Socket(s) => s.close(api),
            Kind::Mux(m) => m.close(api),
        }
    }

    /// The `(send, recv)` CQ pair the endpoint's QPs complete onto;
    /// `None` for a pooled endpoint that has not fixed one yet.
    pub(crate) fn cqs(&self) -> Option<(CqId, CqId)> {
        match &self.0 {
            Kind::Socket(s) => Some((s.send_cq(), s.recv_cq())),
            Kind::Mux(m) => m.cqs(),
        }
    }

    /// Calls `f` with every QP established so far.
    pub(crate) fn for_each_qpn(&self, mut f: impl FnMut(QpNum)) {
        match &self.0 {
            Kind::Socket(s) => f(s.qpn()),
            Kind::Mux(m) => (0..m.pool_size()).filter_map(|s| m.slot_qpn(s)).for_each(f),
        }
    }

    /// True for the kind whose every stream shares the endpoint's
    /// service turn: it is served once per poll after the single-stream
    /// endpoints' rotation, and does its own per-stream fairness.
    pub(crate) fn multi_stream(&self) -> bool {
        matches!(self.0, Kind::Mux(_))
    }

    /// Applies one completion the host drained from the shared CQs.
    pub(crate) fn on_cqe(&mut self, api: &mut impl VerbsPort, side: CqSide, cqe: Cqe) {
        match (&mut self.0, side) {
            (Kind::Socket(s), CqSide::Recv) => s.on_recv_cqe(api, cqe),
            (Kind::Socket(s), CqSide::Send) => s.on_send_cqe(api, cqe),
            (Kind::Mux(m), CqSide::Recv) => m.on_recv_cqe(api, cqe),
            (Kind::Mux(m), CqSide::Send) => m.on_send_cqe(api, cqe),
        }
    }

    /// True for an endpoint the host must progress on every poll,
    /// completions or not: a socket with sends in flight or a
    /// half-close under way, and any pooled endpoint. An idle socket
    /// with nothing to send is left alone — a thousand of them share a
    /// poll.
    pub(crate) fn progressed_every_poll(&self) -> bool {
        match &self.0 {
            Kind::Socket(s) => !s.sends_drained() || s.send_closed(),
            Kind::Mux(_) => true,
        }
    }

    /// Advances the protocol at the end of a service turn, if the turn
    /// applied completions (`served`) or progress is owed regardless.
    pub(crate) fn progress(&mut self, api: &mut impl VerbsPort, served: bool) {
        if served || self.progressed_every_poll() {
            match &mut self.0 {
                Kind::Socket(s) => s.progress(api),
                Kind::Mux(m) => m.progress(api),
            }
        }
    }

    /// Level-triggered readiness: what [`crate::Reactor::poll`] reports
    /// for this endpoint. A pooled endpoint is only ever `readable`:
    /// end of stream and failure are per stream or per slot there, and
    /// arrive as events.
    pub fn readiness(&self) -> Readiness {
        match &self.0 {
            Kind::Socket(s) => Readiness {
                readable: s.events_pending() > 0,
                closed: s.peer_closed(),
                error: s.is_broken(),
            },
            Kind::Mux(m) => Readiness {
                readable: m.events_pending() > 0,
                ..Readiness::NONE
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_socket_slot_is_no_larger_than_the_socket() {
        assert_eq!(
            std::mem::size_of::<Endpoint>(),
            std::mem::size_of::<StreamSocket>()
        );
    }

    #[test]
    fn socket_events_are_stream_zero_on_slot_zero() {
        let send = ExsEvent::SendComplete { id: 7, len: 9 };
        let (stream, id) = (0, 7);
        assert_eq!(tagged(send), MuxEvent::SendComplete { stream, id, len: 9 });
        let recv = ExsEvent::RecvComplete { id: 7, len: 9 };
        assert_eq!(tagged(recv), MuxEvent::RecvComplete { stream, id, len: 9 });
        assert_eq!(
            tagged(ExsEvent::PeerClosed),
            MuxEvent::StreamClosed { stream }
        );
        let broken = MuxEvent::TransportError { slot: 0 };
        assert_eq!(tagged(ExsEvent::ConnectionError), broken);
    }
}
