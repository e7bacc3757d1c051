//! Link-failure injection through the whole stack: a directed link goes
//! down mid-stream, RC retry exhaustion fails the QP, and the EXS socket
//! surfaces a `ConnectionError` event instead of hanging or panicking.

use rdma_stream::exs::{ExsConfig, ExsEvent, ProtocolMode, StreamSocket};
use rdma_stream::simnet::{SimDuration, SimTime};
use rdma_stream::verbs::{profiles, Access, MrInfo, NodeApi, NodeApp, SimNet};

struct Sender {
    sock: Option<StreamSocket>,
    mr: Option<MrInfo>,
    to_send: usize,
    sent: usize,
    acked: usize,
    broken: bool,
}

impl Sender {
    fn kick(&mut self, api: &mut NodeApi<'_>) {
        while self.sent < self.to_send && self.sent - self.acked < 2 {
            let mr = self.mr.unwrap();
            self.sock
                .as_mut()
                .unwrap()
                .exs_send(api, &mr, 0, 64 << 10, self.sent as u64);
            self.sent += 1;
        }
    }
}

impl NodeApp for Sender {
    fn on_start(&mut self, api: &mut NodeApi<'_>) {
        self.kick(api);
    }
    fn on_wake(&mut self, api: &mut NodeApi<'_>) {
        self.sock.as_mut().unwrap().handle_wake(api);
        for ev in self.sock.as_mut().unwrap().take_events() {
            match ev {
                ExsEvent::SendComplete { .. } => self.acked += 1,
                ExsEvent::ConnectionError => self.broken = true,
                _ => {}
            }
        }
        if !self.broken {
            self.kick(api);
        }
    }
    fn is_done(&self) -> bool {
        self.broken
    }
}

struct Receiver {
    sock: Option<StreamSocket>,
    mr: Option<MrInfo>,
    received: u64,
    next_id: u64,
    broken: bool,
}

impl Receiver {
    fn kick(&mut self, api: &mut NodeApi<'_>) {
        let sock = self.sock.as_mut().unwrap();
        if !self.broken && sock.recvs_pending() == 0 {
            let mr = self.mr.unwrap();
            sock.exs_recv(api, &mr, 0, 64 << 10, false, self.next_id);
            self.next_id += 1;
        }
    }
}

impl NodeApp for Receiver {
    fn on_start(&mut self, api: &mut NodeApi<'_>) {
        self.kick(api);
    }
    fn on_wake(&mut self, api: &mut NodeApi<'_>) {
        self.sock.as_mut().unwrap().handle_wake(api);
        for ev in self.sock.as_mut().unwrap().take_events() {
            match ev {
                ExsEvent::RecvComplete { len, .. } => self.received += len as u64,
                ExsEvent::ConnectionError => self.broken = true,
                _ => {}
            }
        }
        self.kick(api);
    }
    fn is_done(&self) -> bool {
        // The receiver may or may not observe the failure directly
        // (depends on which direction lost traffic); the test ends on
        // the sender's error.
        true
    }
}

#[test]
fn link_cut_surfaces_connection_error() {
    let profile = profiles::fdr_infiniband();
    let mut net = SimNet::new();
    let a = net.add_node(profile.host.clone(), profile.hca.clone());
    let b = net.add_node(profile.host.clone(), profile.hca.clone());
    net.connect_nodes(a, b, profile.link.clone(), 8);
    let (sa, sb) = StreamSocket::pair(&mut net, a, b, &ExsConfig::with_mode(ProtocolMode::Dynamic));

    let mut sender = Sender {
        sock: Some(sa),
        mr: None,
        to_send: 10_000, // would run far beyond the cut
        sent: 0,
        acked: 0,
        broken: false,
    };
    let mut receiver = Receiver {
        sock: Some(sb),
        mr: None,
        received: 0,
        next_id: 0,
        broken: false,
    };
    net.with_api(a, |api| {
        sender.mr = Some(api.register_mr(64 << 10, Access::NONE));
    });
    net.with_api(b, |api| {
        receiver.mr = Some(api.register_mr(64 << 10, Access::local_remote_write()));
    });

    // Run a while, then cut the forward (data) link and keep running.
    let mid = net.run(&mut [&mut sender, &mut receiver], SimTime::from_millis(2));
    assert!(!mid.completed, "stream should still be running at the cut");
    assert!(receiver.received > 0, "some data flowed before the cut");
    net.set_link_up(a, b, false);

    let outcome = net.run(
        &mut [&mut sender, &mut receiver],
        SimTime::ZERO + SimDuration::from_millis(200),
    );
    assert!(
        outcome.completed,
        "sender must observe the failure: {outcome:?}\nlosses: {:?}\nfatal: {:?}",
        net.losses(),
        net.fatal_errors()
    );
    assert!(sender.broken, "ConnectionError event expected");
    assert!(sender.sock.as_ref().unwrap().is_broken());
    // The cut link lost messages.
    assert!(net.losses().link_down > 0, "{:?}", net.losses());
}

/// One side of a two-way exchange that never ends by itself: keeps two
/// receives posted and two sends in flight.
struct Peer {
    sock: StreamSocket,
    send_mr: MrInfo,
    recv_mr: MrInfo,
    sends_in_flight: usize,
    /// Sends posted so far; the next send's id, as ids of sends in
    /// flight must differ.
    sends_posted: u64,
    recvs_posted: usize,
    received: u64,
    broken: bool,
}

const MSG: u32 = 64 << 10;

impl Peer {
    fn kick(&mut self, api: &mut NodeApi<'_>) {
        while !self.broken && self.recvs_posted < 2 {
            self.sock.exs_recv(api, &self.recv_mr, 0, MSG, false, 0);
            self.recvs_posted += 1;
        }
        while !self.broken && self.sends_in_flight < 2 {
            let id = self.sends_posted;
            self.sock.exs_send(api, &self.send_mr, 0, MSG as u64, id);
            self.sends_in_flight += 1;
            self.sends_posted += 1;
        }
    }
}

impl NodeApp for Peer {
    fn on_start(&mut self, api: &mut NodeApi<'_>) {
        self.kick(api);
    }
    fn on_wake(&mut self, api: &mut NodeApi<'_>) {
        self.sock.handle_wake(api);
        for ev in self.sock.take_events() {
            match ev {
                ExsEvent::SendComplete { .. } => self.sends_in_flight -= 1,
                ExsEvent::RecvComplete { len, .. } => {
                    self.recvs_posted -= 1;
                    self.received += len as u64;
                }
                ExsEvent::ConnectionError => self.broken = true,
                ExsEvent::PeerClosed => panic!("neither side shuts down"),
            }
        }
        self.kick(api);
    }
    fn is_done(&self) -> bool {
        self.broken
    }
}

/// Both directions cut under a two-way exchange: each side has data or
/// control messages on the wire, so each exhausts its retries and
/// breaks with a typed error, and close still returns every
/// registration the socket made.
#[test]
fn link_cut_breaks_both_ends_with_a_typed_error() {
    let profile = profiles::fdr_infiniband();
    let mut net = SimNet::new();
    let a = net.add_node(profile.host.clone(), profile.hca.clone());
    let b = net.add_node(profile.host.clone(), profile.hca.clone());
    net.connect_nodes(a, b, profile.link.clone(), 8);
    let (sa, sb) = StreamSocket::pair(&mut net, a, b, &ExsConfig::default());
    let mut peers = [(a, sa), (b, sb)].map(|(node, sock)| {
        net.with_api(node, |api| Peer {
            sock,
            send_mr: api.register_mr(MSG as usize, Access::NONE),
            recv_mr: api.register_mr(MSG as usize, Access::local_remote_write()),
            sends_in_flight: 0,
            sends_posted: 0,
            recvs_posted: 0,
            received: 0,
            broken: false,
        })
    });

    // Run a while, then cut both directions and keep running.
    let [pa, pb] = &mut peers;
    let mid = net.run(&mut [pa, pb], SimTime::from_millis(2));
    assert!(
        !mid.completed,
        "exchange should still be running at the cut"
    );
    assert!(
        peers.iter().all(|p| p.received > 0),
        "data flowed both ways"
    );
    net.set_link_up(a, b, false);
    net.set_link_up(b, a, false);
    let [pa, pb] = &mut peers;
    let outcome = net.run(&mut [pa, pb], SimTime::from_millis(200));
    assert!(outcome.completed, "both sides must observe the failure");

    for (node, peer) in [a, b].into_iter().zip(&mut peers) {
        assert!(peer.sock.is_broken());
        assert!(peer.sock.last_error().is_some());
        // A transport failure is not the peer's protocol violation.
        assert_eq!(peer.sock.stats().protocol_errors, 0);
        // Close returns the socket's registrations; the two user
        // buffers are all that remains on the node.
        net.with_api(node, |api| {
            peer.sock.close(api);
            assert_eq!(api.mr_count(), 2, "socket leaked a registration");
        });
    }
}
