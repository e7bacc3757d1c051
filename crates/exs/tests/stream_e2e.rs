//! End-to-end stream tests: two EXS endpoints over the simulated fabric,
//! byte-for-byte verification of delivered data in every protocol mode.

use exs::{ExsConfig, ExsEvent, ProtocolMode, StreamSocket};
use rdma_verbs::profiles::{fdr_infiniband, ideal, HwProfile};
use rdma_verbs::{Access, MrInfo, NodeApi, NodeApp, SimNet};
use simnet::SimTime;

/// Deterministic stream byte pattern: the byte at stream offset `i`.
fn pattern(i: u64) -> u8 {
    (i.wrapping_mul(131).wrapping_add(i >> 8)) as u8
}

/// Sender app: sends `msgs` messages back to back, keeping up to
/// `outstanding` in flight, each filled with the stream pattern.
struct SenderApp {
    sock: Option<StreamSocket>,
    slots: Vec<MrInfo>,
    slot_of: Vec<usize>,
    msgs: Vec<u64>,
    next: usize,
    inflight: usize,
    outstanding: usize,
    completed: usize,
    stream_pos: u64,
}

impl SenderApp {
    fn new(msgs: Vec<u64>, outstanding: usize) -> Self {
        SenderApp {
            sock: None,
            slots: Vec::new(),
            slot_of: vec![usize::MAX; msgs.len()],
            msgs,
            next: 0,
            inflight: 0,
            outstanding,
            completed: 0,
            stream_pos: 0,
        }
    }

    fn setup(&mut self, api: &mut NodeApi<'_>, sock: StreamSocket, max_msg: usize) {
        for _ in 0..self.outstanding {
            self.slots.push(api.register_mr(max_msg, Access::NONE));
        }
        self.sock = Some(sock);
    }

    fn kick(&mut self, api: &mut NodeApi<'_>) {
        while self.inflight < self.outstanding && self.next < self.msgs.len() {
            let len = self.msgs[self.next];
            // Find a free slot (one exists: inflight < outstanding).
            let used: Vec<usize> = self.slot_of[..self.next]
                .iter()
                .enumerate()
                .filter(|&(i, &s)| s != usize::MAX && i >= self.completed_low())
                .map(|(_, &s)| s)
                .collect();
            let slot = (0..self.slots.len())
                .find(|s| !used.contains(s))
                .expect("free slot available");
            self.slot_of[self.next] = slot;
            let mr = self.slots[slot];
            let data: Vec<u8> = (0..len).map(|i| pattern(self.stream_pos + i)).collect();
            api.write_mr(mr.key, mr.addr, &data).unwrap();
            self.sock
                .as_mut()
                .unwrap()
                .exs_send(api, &mr, 0, len, self.next as u64);
            self.stream_pos += len;
            self.inflight += 1;
            self.next += 1;
        }
    }

    fn completed_low(&self) -> usize {
        self.completed
    }
}

impl NodeApp for SenderApp {
    fn on_start(&mut self, api: &mut NodeApi<'_>) {
        self.kick(api);
    }
    fn on_wake(&mut self, api: &mut NodeApi<'_>) {
        let sock = self.sock.as_mut().unwrap();
        sock.handle_wake(api);
        for ev in sock.take_events() {
            if let ExsEvent::SendComplete { id, len } = ev {
                assert_eq!(len, self.msgs[id as usize]);
                self.slot_of[id as usize] = usize::MAX;
                self.inflight -= 1;
                self.completed += 1;
            }
        }
        self.kick(api);
    }
    fn is_done(&self) -> bool {
        self.completed == self.msgs.len()
    }
}

/// Receiver app: keeps `outstanding` receives posted and verifies the
/// stream pattern on every completion.
struct ReceiverApp {
    sock: Option<StreamSocket>,
    slots: Vec<MrInfo>,
    free_slots: Vec<usize>,
    slot_of: std::collections::HashMap<u64, usize>,
    recv_len: u32,
    waitall: bool,
    outstanding: usize,
    expected_total: u64,
    received: u64,
    next_id: u64,
}

impl ReceiverApp {
    fn new(recv_len: u32, waitall: bool, outstanding: usize, expected_total: u64) -> Self {
        ReceiverApp {
            sock: None,
            slots: Vec::new(),
            free_slots: Vec::new(),
            slot_of: std::collections::HashMap::new(),
            recv_len,
            waitall,
            outstanding,
            expected_total,
            received: 0,
            next_id: 0,
        }
    }

    fn setup(&mut self, api: &mut NodeApi<'_>, sock: StreamSocket) {
        for i in 0..self.outstanding {
            self.slots
                .push(api.register_mr(self.recv_len as usize, Access::local_remote_write()));
            self.free_slots.push(i);
        }
        self.sock = Some(sock);
    }

    /// Bytes still expected, capped by the posted length; with WAITALL
    /// the final short receive must be sized exactly.
    fn post_len(&self, posted_ahead: u64) -> u32 {
        if self.waitall {
            let left = self.expected_total - self.received - posted_ahead;
            (self.recv_len as u64).min(left) as u32
        } else {
            self.recv_len
        }
    }

    fn kick(&mut self, api: &mut NodeApi<'_>) {
        // Track how many bytes the already-posted receives will consume
        // (exact only for WAITALL; plain receives may complete short, in
        // which case extra receives are posted on later wakes).
        let mut posted_ahead: u64 = self
            .slot_of
            .len()
            .checked_mul(self.recv_len as usize)
            .unwrap_or(0) as u64;
        while !self.free_slots.is_empty() {
            if self.received + posted_ahead >= self.expected_total {
                break;
            }
            let len = self.post_len(posted_ahead);
            if len == 0 {
                break;
            }
            let slot = self.free_slots.pop().unwrap();
            let mr = self.slots[slot];
            let id = self.next_id;
            self.next_id += 1;
            self.slot_of.insert(id, slot);
            self.sock
                .as_mut()
                .unwrap()
                .exs_recv(api, &mr, 0, len, self.waitall, id);
            posted_ahead += len as u64;
        }
    }

    fn drain_events(&mut self, api: &mut NodeApi<'_>) {
        // A kick can complete synchronously (receive satisfied from the
        // intermediate buffer), producing new events — loop until the
        // socket quiesces.
        self.kick(api);
        loop {
            let events = self.sock.as_mut().unwrap().take_events();
            if events.is_empty() {
                break;
            }
            for ev in events {
                if let ExsEvent::RecvComplete { id, len } = ev {
                    let slot = self.slot_of.remove(&id).expect("slot for recv");
                    let mr = self.slots[slot];
                    let mut buf = vec![0u8; len as usize];
                    api.read_mr(mr.key, mr.addr, &mut buf).unwrap();
                    for (i, &b) in buf.iter().enumerate() {
                        assert_eq!(
                            b,
                            pattern(self.received + i as u64),
                            "stream corruption at offset {}",
                            self.received + i as u64
                        );
                    }
                    self.received += len as u64;
                    self.free_slots.push(slot);
                }
            }
            self.kick(api);
        }
    }
}

impl NodeApp for ReceiverApp {
    fn on_start(&mut self, api: &mut NodeApi<'_>) {
        self.kick(api);
        // exs_recv may complete immediately from buffered data.
        self.drain_events(api);
    }
    fn on_wake(&mut self, api: &mut NodeApi<'_>) {
        self.sock.as_mut().unwrap().handle_wake(api);
        self.drain_events(api);
    }
    fn is_done(&self) -> bool {
        self.received == self.expected_total
    }
}

/// Runs a full exchange and returns (sender stats snapshot via closure
/// access is awkward, so we return the apps).
#[allow(clippy::too_many_arguments)]
fn run_exchange(
    profile: HwProfile,
    cfg: ExsConfig,
    msgs: Vec<u64>,
    send_outstanding: usize,
    recv_len: u32,
    waitall: bool,
    recv_outstanding: usize,
    seed: u64,
) -> (SenderApp, ReceiverApp, SimNet) {
    let total: u64 = msgs.iter().sum();
    let mut net = SimNet::new();
    let a = net.add_node(profile.host.clone(), profile.hca.clone());
    let b = net.add_node(profile.host.clone(), profile.hca.clone());
    net.connect_nodes(a, b, profile.link.clone(), seed);

    let (sock_a, sock_b) = StreamSocket::pair(&mut net, a, b, &cfg);
    let max_msg = msgs.iter().copied().max().unwrap_or(1) as usize;

    let mut sender = SenderApp::new(msgs, send_outstanding);
    let mut receiver = ReceiverApp::new(recv_len, waitall, recv_outstanding, total);
    net.with_api(a, |api| sender.setup(api, sock_a, max_msg.max(1)));
    net.with_api(b, |api| receiver.setup(api, sock_b));

    let outcome = net.run(&mut [&mut sender, &mut receiver], SimTime::from_secs(100));
    assert!(
        outcome.completed,
        "exchange did not finish: sent {}/{} recv {}/{} (events {})",
        sender.completed,
        sender.msgs.len(),
        receiver.received,
        receiver.expected_total,
        outcome.events,
    );
    (sender, receiver, net)
}

fn modes() -> [ProtocolMode; 3] {
    [
        ProtocolMode::Dynamic,
        ProtocolMode::DirectOnly,
        ProtocolMode::IndirectOnly,
    ]
}

#[test]
fn uniform_messages_all_modes() {
    for mode in modes() {
        let cfg = ExsConfig::with_mode(mode);
        let msgs = vec![8192; 50];
        let (s, r, _) = run_exchange(ideal(), cfg, msgs, 4, 8192, false, 8, 1);
        assert_eq!(r.received, 50 * 8192, "mode {mode:?}");
        let st = s.sock.as_ref().unwrap().stats();
        match mode {
            ProtocolMode::DirectOnly => assert_eq!(st.indirect_transfers, 0),
            ProtocolMode::IndirectOnly | ProtocolMode::BCopy => {
                assert_eq!(st.direct_transfers, 0)
            }
            ProtocolMode::Dynamic => assert!(st.total_transfers() > 0),
        }
    }
}

#[test]
fn mixed_sizes_cross_recv_boundaries() {
    // Message sizes deliberately misaligned with the receive size so the
    // stream splitting logic is exercised in every mode.
    for mode in modes() {
        let cfg = ExsConfig::with_mode(mode);
        let msgs = vec![1, 100, 7, 4096, 9000, 3, 65536, 511, 513, 17];
        let (_, r, _) = run_exchange(ideal(), cfg, msgs.clone(), 3, 1024, false, 6, 2);
        assert_eq!(r.received, msgs.iter().sum::<u64>(), "mode {mode:?}");
    }
}

#[test]
fn waitall_fills_buffers_exactly() {
    for mode in modes() {
        let cfg = ExsConfig::with_mode(mode);
        // 10 × 10000 bytes sent, received in full 4096-byte chunks
        // (MSG_WAITALL), final chunk sized to the remainder.
        let msgs = vec![10_000; 10];
        let (_, r, _) = run_exchange(ideal(), cfg, msgs, 4, 4096, true, 4, 3);
        assert_eq!(r.received, 100_000, "mode {mode:?}");
    }
}

/// Registered memory is backed on first touch: a one-way blast that
/// wraps the intermediate ring several times backs all of the
/// receiver's ring and none of the sender's, which nothing ever writes.
#[test]
fn a_blast_that_wraps_the_ring_backs_the_receivers_ring_and_not_the_senders() {
    const RING: u64 = 1 << 20;
    let cfg = ExsConfig {
        ring_capacity: RING,
        ..ExsConfig::with_mode(ProtocolMode::IndirectOnly)
    };
    let msgs = vec![8192; 4 * (RING / 8192) as usize];
    let (s, r, mut net) = run_exchange(ideal(), cfg, msgs, 4, 8192, false, 8, 5);
    assert_eq!(r.received, 4 * RING);
    let mut backed = |sock: &StreamSocket| {
        net.with_api(sock.node(), |api| api.hca().mem().backed_bytes()) as u64
    };
    let (sender, receiver) = (
        backed(s.sock.as_ref().unwrap()),
        backed(r.sock.as_ref().unwrap()),
    );
    assert!(receiver >= RING, "receiver backs {receiver} bytes");
    // Four 8 KiB source buffers and the control slots a reply landed in.
    assert!(sender < RING / 4, "sender backs {sender} bytes");
}

#[test]
fn tiny_ring_forces_flow_control() {
    // A 4 KiB intermediate buffer with 64 KiB messages: the indirect path
    // must repeatedly stall on b_s and resume on ACKs.
    let cfg = ExsConfig {
        ring_capacity: 4096,
        ..ExsConfig::with_mode(ProtocolMode::IndirectOnly)
    };
    let msgs = vec![65_536; 8];
    let (s, r, _) = run_exchange(ideal(), cfg, msgs, 2, 8192, false, 4, 4);
    assert_eq!(r.received, 8 * 65_536);
    let st = s.sock.as_ref().unwrap().stats();
    assert!(
        st.indirect_transfers >= (8 * 65_536) / 4096,
        "chunking through the tiny ring expected"
    );
}

#[test]
fn scarce_credits_are_replenished() {
    // Few credits force standalone CREDIT messages to keep flowing.
    let cfg = ExsConfig {
        credits: 8,
        ..ExsConfig::with_mode(ProtocolMode::Dynamic)
    };
    let msgs = vec![4096; 200];
    let (s, r, _) = run_exchange(ideal(), cfg, msgs, 4, 4096, false, 8, 5);
    assert_eq!(r.received, 200 * 4096);
    let s_stats = s.sock.as_ref().unwrap().stats();
    let r_stats = r.sock.as_ref().unwrap().stats();
    assert!(
        s_stats.credits_sent + r_stats.credits_sent > 0,
        "credit machinery should have been exercised"
    );
}

#[test]
fn fdr_profile_transfers_correctly() {
    let cfg = ExsConfig::default();
    let msgs = vec![1 << 20; 20];
    let (s, r, net) = run_exchange(fdr_infiniband(), cfg, msgs, 4, 1 << 20, false, 8, 6);
    assert_eq!(r.received, 20 << 20);
    // Sanity: moving 20 MiB over a ~54 Gbit/s link takes ≥ 3 ms.
    assert!(net.now() >= SimTime::from_millis(3), "time {:?}", net.now());
    let st = s.sock.as_ref().unwrap().stats();
    assert_eq!(st.direct_bytes + st.indirect_bytes, 20 << 20);
}

#[test]
fn deterministic_across_runs() {
    let run = || {
        let cfg = ExsConfig::default();
        let msgs: Vec<u64> = (0..100).map(|i| 1 + (i * 7919) % 50_000).collect();
        let (s, _, net) = run_exchange(fdr_infiniband(), cfg, msgs, 8, 16_384, false, 16, 42);
        let st = s.sock.as_ref().unwrap().stats().clone();
        (
            net.now(),
            st.direct_transfers,
            st.indirect_transfers,
            st.mode_switches,
        )
    };
    assert_eq!(run(), run(), "simulation must be bit-for-bit reproducible");
}

#[test]
fn single_byte_stream() {
    let cfg = ExsConfig::default();
    let msgs = vec![1; 64];
    let (_, r, _) = run_exchange(ideal(), cfg, msgs, 4, 1, false, 4, 7);
    assert_eq!(r.received, 64);
}

#[test]
fn one_large_message_through_small_recvs() {
    // A single 1 MiB send received through 4 KiB receive buffers: the
    // stream layer must split it across 256 receive completions.
    for mode in modes() {
        let cfg = ExsConfig::with_mode(mode);
        let (_, r, _) = run_exchange(ideal(), cfg, vec![1 << 20], 1, 4096, false, 8, 8);
        assert_eq!(r.received, 1 << 20, "mode {mode:?}");
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
    // Below eight credits the default return threshold is 1, and a bare
    // CREDIT used to be answered with a bare CREDIT for ever.
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
        let (sock_a, sock_b) = StreamSocket::pair(&mut net, a, b, &cfg);
        let mut sender = SenderApp::new(vec![512; 8], 8);
        let mut receiver = ReceiverApp::new(512, false, 8, 8 * 512);
        net.with_api(a, |api| sender.setup(api, sock_a, 512));
        net.with_api(b, |api| receiver.setup(api, sock_b));
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
        assert_eq!(receiver.received, 8 * 512, "credits {credits}");
    }
}

/// One side of a symmetric exchange: from `on_start` it posts `n`
/// receives and then `n` sends, so both sides fill their control
/// queues with ADVERTs before either has returned a credit.
struct Peer {
    sock: StreamSocket,
    tag: u8,
    n: usize,
    send_mr: MrInfo,
    recv_mr: MrInfo,
    sent: usize,
    /// `(id, len)` of each completed receive, in completion order.
    received: Vec<(u64, u32)>,
}

const SLOT: usize = 64;

/// The length of message `i`, which differs from its neighbours'.
fn message_len(i: usize) -> usize {
    1 + (i * 7) % SLOT
}

/// Message `i` from the side tagged `tag`: bytes that name the sender
/// and the message.
fn message(tag: u8, i: usize) -> Vec<u8> {
    vec![tag ^ i as u8; message_len(i)]
}

/// The stream of the first `n` messages from the side tagged `tag`.
fn messages(tag: u8, n: usize) -> Vec<u8> {
    (0..n).flat_map(|i| message(tag, i)).collect()
}

impl NodeApp for Peer {
    fn on_start(&mut self, api: &mut NodeApi<'_>) {
        let (send_mr, recv_mr) = (self.send_mr, self.recv_mr);
        for i in 0..self.n {
            let at = (i * SLOT) as u64;
            self.sock
                .exs_recv(api, &recv_mr, at, SLOT as u32, false, i as u64);
        }
        for i in 0..self.n {
            let data = message(self.tag, i);
            let at = (i * SLOT) as u64;
            api.write_mr(send_mr.key, send_mr.addr + at, &data).unwrap();
            self.sock
                .exs_send(api, &send_mr, at, data.len() as u64, i as u64);
        }
    }
    fn on_wake(&mut self, api: &mut NodeApi<'_>) {
        self.sock.handle_wake(api);
        for ev in self.sock.take_events() {
            match ev {
                ExsEvent::SendComplete { .. } => self.sent += 1,
                ExsEvent::RecvComplete { id, len } => self.received.push((id, len)),
                other => panic!("unexpected {other:?}"),
            }
        }
    }
    fn is_done(&self) -> bool {
        let bytes: usize = self.received.iter().map(|&(_, len)| len as usize).sum();
        self.sent == self.n && bytes == (0..self.n).map(message_len).sum()
    }
}

/// Both sides post every receive before any send. With the CREDIT
/// behind ADVERTs that each need two credits, neither side could
/// return what it owed: the exchange used to deliver nothing.
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
        let (sa, sb) = StreamSocket::pair(&mut net, a, b, &cfg);
        let mut peers = [(a, sa, 0x40u8), (b, sb, 0x80u8)].map(|(node, sock, tag)| {
            net.with_api(node, |api| Peer {
                sock,
                tag,
                n,
                send_mr: api.register_mr(n * SLOT, Access::NONE),
                recv_mr: api.register_mr(n * SLOT, Access::local_remote_write()),
                sent: 0,
                received: Vec::new(),
            })
        });
        let [pa, pb] = &mut peers;
        let outcome = net.run(&mut [pa, pb], SimTime::from_secs(1));
        assert!(
            outcome.completed,
            "credits {credits}, {n} messages a side: {} + {} receives completed",
            peers[0].received.len(),
            peers[1].received.len()
        );
        // The receives completed in posting order, and their bytes put
        // together are the peer's messages in order.
        for (me, (node, peer_tag)) in [(a, 0x80u8), (b, 0x40u8)].into_iter().enumerate() {
            let mr = peers[me].recv_mr;
            let mut got = Vec::new();
            for (i, &(id, len)) in peers[me].received.iter().enumerate() {
                assert_eq!(id, i as u64, "credits {credits}: receive order");
                let mut buf = vec![0u8; len as usize];
                net.with_api(node, |api| {
                    api.read_mr(mr.key, mr.addr + (i * SLOT) as u64, &mut buf)
                        .unwrap()
                });
                got.extend(buf);
            }
            assert_eq!(got, messages(peer_tag, n), "credits {credits}: side {me}");
        }
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
        StreamSocket::prepare(api, a, ha.qpn, ha.send_cq, ha.recv_cq, &cfg)
    });
    let (victim, _) = net.with_api(b, |api| {
        StreamSocket::prepare(api, b, hb.qpn, hb.send_cq, hb.recv_cq, &cfg)
    });
    let victim = victim.complete(attacker_info);
    // An ACK frees intermediate-ring space the victim has not used.
    let forged = CtrlMsg {
        ctrl: Ctrl::Ack { freed: 4096 },
        credit_return: 0,
    };
    net.with_api(a, |api| {
        api.post_send(ha.qpn, SendWr::send_inline(1, forged.encode_bytes()))
            .unwrap()
    });

    struct Victim(StreamSocket, Vec<ExsEvent>);
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
    assert_eq!(victim.1, [ExsEvent::ConnectionError]);
    assert_eq!(
        victim.0.last_error(),
        Some(&ExsError::Protocol(ProtocolError::AckUnderflow))
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
    StreamSocket::pair(&mut net, a, b, &cfg);
}
