//! End-to-end tests for the SOCK_SEQPACKET message mode (paper §II-C):
//! message boundaries preserved, one send per receive, oversized
//! messages rejected rather than split.

use exs::{ExsConfig, SeqPacketEvent, SeqPacketSocket};
use rdma_verbs::profiles::{fdr_infiniband, ideal};
use rdma_verbs::{Access, MrInfo, NodeApi, NodeApp, SimNet};
use simnet::SimTime;

struct MsgSender {
    sock: Option<SeqPacketSocket>,
    mr: Option<MrInfo>,
    msgs: Vec<u32>,
    next: usize,
    completions: Vec<SeqPacketEvent>,
}

impl NodeApp for MsgSender {
    fn on_start(&mut self, api: &mut NodeApi<'_>) {
        // Post everything up front; the library queues sends until
        // ADVERTs arrive.
        let mr = self.mr.unwrap();
        for (i, &len) in self.msgs.iter().enumerate() {
            let data: Vec<u8> = (0..len).map(|j| (i as u8) ^ (j as u8)).collect();
            api.write_mr(mr.key, mr.addr, &data).unwrap();
            self.sock
                .as_mut()
                .unwrap()
                .exs_send(api, &mr, 0, len, i as u64);
            self.next += 1;
        }
    }
    fn on_wake(&mut self, api: &mut NodeApi<'_>) {
        self.sock.as_mut().unwrap().handle_wake(api);
        self.completions
            .extend(self.sock.as_mut().unwrap().take_events());
    }
    fn is_done(&self) -> bool {
        self.completions.len() == self.msgs.len()
    }
}

struct MsgReceiver {
    sock: Option<SeqPacketSocket>,
    mrs: Vec<MrInfo>,
    recv_len: u32,
    posted: usize,
    expect: usize,
    received: Vec<(u64, u32)>,
}

impl MsgReceiver {
    fn post_all(&mut self, api: &mut NodeApi<'_>) {
        while self.posted < self.expect {
            let mr = api.register_mr(self.recv_len as usize, Access::local_remote_write());
            self.mrs.push(mr);
            self.sock
                .as_mut()
                .unwrap()
                .exs_recv(api, &mr, 0, self.recv_len, self.posted as u64);
            self.posted += 1;
        }
    }
}

impl NodeApp for MsgReceiver {
    fn on_start(&mut self, api: &mut NodeApi<'_>) {
        self.post_all(api);
    }
    fn on_wake(&mut self, api: &mut NodeApi<'_>) {
        self.sock.as_mut().unwrap().handle_wake(api);
        for ev in self.sock.as_mut().unwrap().take_events() {
            if let SeqPacketEvent::RecvComplete { id, len } = ev {
                self.received.push((id, len));
            }
        }
    }
    fn is_done(&self) -> bool {
        self.received.len() >= self.expect
    }
}

fn run(msgs: Vec<u32>, recv_len: u32, expect_recv: usize) -> (MsgSender, MsgReceiver) {
    let profile = ideal();
    let mut net = SimNet::new();
    let a = net.add_node(profile.host.clone(), profile.hca.clone());
    let b = net.add_node(profile.host.clone(), profile.hca.clone());
    net.connect_nodes(a, b, profile.link.clone(), 1);
    let cfg = ExsConfig::default();
    let (sa, sb) = SeqPacketSocket::pair(&mut net, a, b, &cfg);

    let mut sender = MsgSender {
        sock: Some(sa),
        mr: None,
        msgs,
        next: 0,
        completions: Vec::new(),
    };
    let mut receiver = MsgReceiver {
        sock: Some(sb),
        mrs: Vec::new(),
        recv_len,
        posted: 0,
        expect: expect_recv,
        received: Vec::new(),
    };
    let max = sender.msgs.iter().copied().max().unwrap_or(1) as usize;
    net.with_api(a, |api| {
        sender.mr = Some(api.register_mr(max, Access::NONE));
    });
    let outcome = net.run(&mut [&mut sender, &mut receiver], SimTime::from_secs(10));
    assert!(outcome.completed, "run stalled: {outcome:?}");
    (sender, receiver)
}

#[test]
fn message_boundaries_preserved() {
    let msgs = vec![100, 1, 4096, 77, 2048];
    let (sender, receiver) = run(msgs.clone(), 4096, 5);
    assert_eq!(receiver.received.len(), 5);
    for (i, &(id, len)) in receiver.received.iter().enumerate() {
        assert_eq!(id, i as u64, "messages delivered in order");
        assert_eq!(len, msgs[i], "message boundary preserved");
    }
    assert!(sender
        .completions
        .iter()
        .all(|e| matches!(e, SeqPacketEvent::SendComplete { .. })));
}

#[test]
fn payload_bytes_intact() {
    // One message, checked byte for byte.
    let profile = ideal();
    let mut net = SimNet::new();
    let a = net.add_node(profile.host.clone(), profile.hca.clone());
    let b = net.add_node(profile.host.clone(), profile.hca.clone());
    net.connect_nodes(a, b, profile.link.clone(), 2);
    let (sa, sb) = SeqPacketSocket::pair(&mut net, a, b, &ExsConfig::default());

    let mut sender = MsgSender {
        sock: Some(sa),
        mr: None,
        msgs: vec![257],
        next: 0,
        completions: Vec::new(),
    };
    let mut receiver = MsgReceiver {
        sock: Some(sb),
        mrs: Vec::new(),
        recv_len: 512,
        posted: 0,
        expect: 1,
        received: Vec::new(),
    };
    net.with_api(a, |api| {
        sender.mr = Some(api.register_mr(257, Access::NONE));
    });
    let outcome = net.run(&mut [&mut sender, &mut receiver], SimTime::from_secs(10));
    assert!(outcome.completed);
    let mr = receiver.mrs[0];
    net.with_api(receiver.sock.as_ref().unwrap().node(), |api| {
        let mut buf = vec![0u8; 257];
        api.read_mr(mr.key, mr.addr, &mut buf).unwrap();
        for (j, &byte) in buf.iter().enumerate() {
            assert_eq!(byte, j as u8, "payload corrupted at {j}");
        }
    });
}

#[test]
fn oversized_message_is_an_error_not_a_split() {
    // 3 messages; the middle one exceeds the 1024-byte receive buffers.
    let msgs = vec![512u32, 2048, 512];
    let (sender, receiver) = run(msgs, 1024, 2);
    // The two valid messages arrive...
    assert_eq!(receiver.received.len(), 2);
    assert_eq!(receiver.received[0].1, 512);
    assert_eq!(receiver.received[1].1, 512);
    // ...and the oversized one errored at the sender.
    let errors: Vec<_> = sender
        .completions
        .iter()
        .filter(|e| matches!(e, SeqPacketEvent::SendError { .. }))
        .collect();
    assert_eq!(errors.len(), 1);
    assert!(matches!(
        errors[0],
        SeqPacketEvent::SendError {
            len: 2048,
            advertised: 1024,
            ..
        }
    ));
}

#[test]
fn sender_waits_for_adverts() {
    // With the ideal profile the sender starts instantly; messages must
    // still be queued until ADVERTs arrive rather than lost.
    let msgs = vec![64; 32];
    let (_, receiver) = run(msgs, 64, 32);
    assert_eq!(receiver.received.len(), 32);
}

#[test]
fn works_on_fdr_profile() {
    let profile = fdr_infiniband();
    let mut net = SimNet::new();
    let a = net.add_node(profile.host.clone(), profile.hca.clone());
    let b = net.add_node(profile.host.clone(), profile.hca.clone());
    net.connect_nodes(a, b, profile.link.clone(), 3);
    let (sa, sb) = SeqPacketSocket::pair(&mut net, a, b, &ExsConfig::default());
    let mut sender = MsgSender {
        sock: Some(sa),
        mr: None,
        msgs: vec![1 << 20; 10],
        next: 0,
        completions: Vec::new(),
    };
    let mut receiver = MsgReceiver {
        sock: Some(sb),
        mrs: Vec::new(),
        recv_len: 1 << 20,
        posted: 0,
        expect: 10,
        received: Vec::new(),
    };
    net.with_api(a, |api| {
        sender.mr = Some(api.register_mr(1 << 20, Access::NONE));
    });
    let outcome = net.run(&mut [&mut sender, &mut receiver], SimTime::from_secs(10));
    assert!(outcome.completed);
    assert_eq!(receiver.received.len(), 10);
    // 10 MiB over ~45 Gbit/s takes at least 1.8 ms.
    assert!(net.now() > SimTime::from_millis(1));
    let st = sender.sock.as_ref().unwrap().stats();
    assert_eq!(st.direct_transfers, 10);
    assert_eq!(st.direct_bytes, 10 << 20);
}

/// One side of a symmetric exchange: from `on_start` it posts `n`
/// receives and then `n` sends, so both sides fill their control
/// queues with ADVERTs before either has returned a credit.
struct Peer {
    sock: Option<SeqPacketSocket>,
    tag: u8,
    n: usize,
    send_mr: Option<MrInfo>,
    recv_mr: Option<MrInfo>,
    sent: usize,
    received: Vec<(u64, u32)>,
}

const SLOT: usize = 64;

/// Message `i` from the side tagged `tag`: a length that differs from
/// its neighbours' and bytes that name the sender and the message.
fn message(tag: u8, i: usize) -> Vec<u8> {
    vec![tag ^ i as u8; 1 + (i * 7) % SLOT]
}

impl NodeApp for Peer {
    fn on_start(&mut self, api: &mut NodeApi<'_>) {
        let (send_mr, recv_mr) = (self.send_mr.unwrap(), self.recv_mr.unwrap());
        let sock = self.sock.as_mut().unwrap();
        for i in 0..self.n {
            sock.exs_recv(api, &recv_mr, (i * SLOT) as u64, SLOT as u32, i as u64);
        }
        for i in 0..self.n {
            let data = message(self.tag, i);
            let at = (i * SLOT) as u64;
            api.write_mr(send_mr.key, send_mr.addr + at, &data).unwrap();
            sock.exs_send(api, &send_mr, at, data.len() as u32, i as u64);
        }
    }
    fn on_wake(&mut self, api: &mut NodeApi<'_>) {
        let sock = self.sock.as_mut().unwrap();
        sock.handle_wake(api);
        for ev in sock.take_events() {
            match ev {
                SeqPacketEvent::SendComplete { .. } => self.sent += 1,
                SeqPacketEvent::RecvComplete { id, len } => self.received.push((id, len)),
                other => panic!("unexpected {other:?}"),
            }
        }
    }
    fn is_done(&self) -> bool {
        self.sent == self.n && self.received.len() == self.n
    }
}

#[test]
fn symmetric_exchange_completes_when_both_sides_advertise_first() {
    for (credits, n) in [(8, 8), (8, 64), (16, 200), (4, 16)] {
        let profile = ideal();
        let mut net = SimNet::new();
        let a = net.add_node(profile.host.clone(), profile.hca.clone());
        let b = net.add_node(profile.host.clone(), profile.hca.clone());
        net.connect_nodes(a, b, profile.link.clone(), 1);
        let cfg = ExsConfig {
            credits,
            ..ExsConfig::default()
        };
        let (sa, sb) = SeqPacketSocket::pair(&mut net, a, b, &cfg);
        let mut peers = [(a, sa, 0x40u8), (b, sb, 0x80u8)].map(|(node, sock, tag)| {
            net.with_api(node, |api| Peer {
                sock: Some(sock),
                tag,
                n,
                send_mr: Some(api.register_mr(n * SLOT, Access::NONE)),
                recv_mr: Some(api.register_mr(n * SLOT, Access::local_remote_write())),
                sent: 0,
                received: Vec::new(),
            })
        });
        let [pa, pb] = &mut peers;
        let outcome = net.run(&mut [pa, pb], SimTime::from_secs(1));
        assert!(
            outcome.completed,
            "credits {credits}, {n} messages a side: delivered {} + {}",
            peers[0].received.len(),
            peers[1].received.len()
        );
        // Every message arrived whole, in order, in its own buffer.
        for (me, (node, peer_tag)) in [(a, 0x80u8), (b, 0x40u8)].into_iter().enumerate() {
            let mr = peers[me].recv_mr.unwrap();
            for (i, &(id, len)) in peers[me].received.iter().enumerate() {
                let want = message(peer_tag, i);
                assert_eq!((id, len as usize), (i as u64, want.len()));
                let mut got = vec![0u8; want.len()];
                net.with_api(node, |api| {
                    api.read_mr(mr.key, mr.addr + (i * SLOT) as u64, &mut got)
                        .unwrap()
                });
                assert_eq!(got, want, "credits {credits}: message {i} to side {me}");
            }
        }
    }
}

/// Keeps the simulation running to its horizon: the wrapped app works
/// as before but is never done.
struct Idle<'a, A>(&'a mut A);

impl<A: NodeApp> NodeApp for Idle<'_, A> {
    fn on_start(&mut self, api: &mut NodeApi<'_>) {
        self.0.on_start(api)
    }
    fn on_wake(&mut self, api: &mut NodeApi<'_>) {
        self.0.on_wake(api)
    }
    fn is_done(&self) -> bool {
        false
    }
}

#[test]
fn an_idle_pair_goes_quiet_at_every_credit_count() {
    for credits in [4, 5, 7, 8] {
        let profile = ideal();
        let mut net = SimNet::new();
        let a = net.add_node(profile.host.clone(), profile.hca.clone());
        let b = net.add_node(profile.host.clone(), profile.hca.clone());
        net.connect_nodes(a, b, profile.link.clone(), 1);
        let cfg = ExsConfig {
            credits,
            ..ExsConfig::default()
        };
        let (sa, sb) = SeqPacketSocket::pair(&mut net, a, b, &cfg);
        let mut sender = MsgSender {
            sock: Some(sa),
            mr: Some(net.with_api(a, |api| api.register_mr(64, Access::NONE))),
            msgs: vec![64; 8],
            next: 0,
            completions: Vec::new(),
        };
        let mut receiver = MsgReceiver {
            sock: Some(sb),
            mrs: Vec::new(),
            recv_len: 64,
            posted: 0,
            expect: 8,
            received: Vec::new(),
        };
        // (credits_sent, wqes_posted) of both sides at a horizon.
        let mut gauges_at = |ms: u64| {
            let (s, r) = (&mut Idle(&mut sender), &mut Idle(&mut receiver));
            net.run(&mut [s, r], SimTime::from_millis(ms));
            [&sender.sock, &receiver.sock].map(|sock| {
                let st = sock.as_ref().unwrap().stats();
                (st.credits_sent, st.wqes_posted)
            })
        };
        let early = gauges_at(1);
        let late = gauges_at(5);
        assert_eq!(early, late, "credits {credits}: still sending while idle");
        assert!(late.iter().all(|&(credits_sent, _)| credits_sent <= 8));
        assert_eq!(receiver.received.len(), 8, "credits {credits}");
    }
}

#[test]
fn a_forged_ack_breaks_the_socket_not_the_process() {
    use exs::{Ctrl, CtrlMsg, ExsError, ProtocolError};
    use rdma_verbs::{connect_pair, SendWr};

    let profile = ideal();
    let mut net = SimNet::new();
    let a = net.add_node(profile.host.clone(), profile.hca.clone());
    let b = net.add_node(profile.host.clone(), profile.hca.clone());
    net.connect_nodes(a, b, profile.link.clone(), 1);
    let cfg = ExsConfig::default();
    let (ha, hb) = connect_pair(&mut net, a, b, cfg.qp_caps(), cfg.cq_depth(1)).unwrap();
    // The attacker sets its end up like a socket (so the victim has
    // parameters to complete with) but then drives the QP by hand.
    let (_, attacker_info) = net.with_api(a, |api| {
        SeqPacketSocket::prepare(api, a, ha.qpn, ha.send_cq, ha.recv_cq, &cfg)
    });
    let (mut victim, _) = net.with_api(b, |api| {
        SeqPacketSocket::prepare(api, b, hb.qpn, hb.send_cq, hb.recv_cq, &cfg)
    });
    victim.connect(attacker_info);
    // ACKs free intermediate-ring space; a message socket has no ring.
    let forged = CtrlMsg {
        ctrl: Ctrl::Ack { freed: 4096 },
        credit_return: 0,
    };
    net.with_api(a, |api| {
        api.post_send(ha.qpn, SendWr::send_inline(1, forged.encode_bytes()))
            .unwrap()
    });

    struct Victim(SeqPacketSocket, Vec<SeqPacketEvent>);
    impl NodeApp for Victim {
        fn on_start(&mut self, _api: &mut NodeApi<'_>) {}
        fn on_wake(&mut self, api: &mut NodeApi<'_>) {
            self.0.handle_wake(api);
            self.1.extend(self.0.take_events());
        }
        fn is_done(&self) -> bool {
            self.0.is_broken()
        }
    }
    struct Attacker;
    impl NodeApp for Attacker {
        fn on_start(&mut self, _api: &mut NodeApi<'_>) {}
        fn on_wake(&mut self, _api: &mut NodeApi<'_>) {}
        fn is_done(&self) -> bool {
            true
        }
    }
    let mut victim = Victim(victim, Vec::new());
    let outcome = net.run(&mut [&mut Attacker, &mut victim], SimTime::from_secs(1));
    assert!(outcome.completed, "the forged ACK was not noticed");
    assert_eq!(victim.1, [SeqPacketEvent::ConnectionError]);
    assert_eq!(
        victim.0.last_error(),
        Some(&ExsError::Protocol(ProtocolError::UnexpectedOpcode))
    );
    assert_eq!(victim.0.stats().protocol_errors, 1);
}

#[test]
#[should_panic(expected = "invalid EXS configuration")]
fn two_credits_are_rejected_at_setup() {
    let profile = ideal();
    let mut net = SimNet::new();
    let a = net.add_node(profile.host.clone(), profile.hca.clone());
    let b = net.add_node(profile.host.clone(), profile.hca.clone());
    net.connect_nodes(a, b, profile.link.clone(), 1);
    let cfg = ExsConfig {
        credits: 2,
        ..ExsConfig::default()
    };
    SeqPacketSocket::pair(&mut net, a, b, &cfg);
}
