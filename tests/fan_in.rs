//! Fan-in: several clients stream into one server node concurrently.
//! Exercises many stream sockets driven from one node, per-stream
//! integrity under CPU contention at the shared receiver, and link
//! sharing on the server's ingress.

use rdma_stream::blast::fan_in::{expected_digest, fan_in_cfg};
use rdma_stream::blast::{run_fan_in, run_fan_in_threaded, FanInSpec, VerifyLevel};
use rdma_stream::exs::{DirectPolicy, ExsConfig, ExsEvent, ProtocolMode, StreamSocket};
use rdma_stream::simnet::SimTime;
use rdma_stream::verbs::{profiles, Access, MrInfo, NodeApi, NodeApp, NodeId, SimNet};

const CLIENTS: usize = 3;
const MSGS: usize = 30;
const MSG_LEN: u64 = 64 << 10;

fn pattern(stream: usize, i: u64) -> u8 {
    (i.wrapping_mul(31).wrapping_add(stream as u64 * 7)) as u8
}

struct Client {
    sock: StreamSocket,
    events: Vec<ExsEvent>,
    stream_idx: usize,
    mr: MrInfo,
    sent: usize,
    acked: usize,
    pos: u64,
}

impl Client {
    fn kick(&mut self, api: &mut NodeApi<'_>) {
        // Two outstanding sends.
        while self.sent < MSGS && self.sent - self.acked < 2 {
            let mr = self.mr;
            let data: Vec<u8> = (0..MSG_LEN)
                .map(|i| pattern(self.stream_idx, self.pos + i))
                .collect();
            let slot = (self.sent % 2) as u64 * MSG_LEN;
            api.write_mr(mr.key, mr.addr + slot, &data).unwrap();
            self.sock
                .exs_send(api, &mr, slot, MSG_LEN, self.sent as u64);
            self.events.extend(self.sock.take_events());
            self.pos += MSG_LEN;
            self.sent += 1;
        }
    }
}

impl NodeApp for Client {
    fn on_start(&mut self, api: &mut NodeApi<'_>) {
        self.kick(api);
    }
    fn on_wake(&mut self, api: &mut NodeApi<'_>) {
        self.sock.handle_wake(api);
        self.events.extend(self.sock.take_events());
        for ev in std::mem::take(&mut self.events) {
            if matches!(ev, ExsEvent::SendComplete { .. }) {
                self.acked += 1;
            }
        }
        self.kick(api);
    }
    fn is_done(&self) -> bool {
        self.acked == MSGS
    }
}

/// One socket and one receive region per client, driven in connection
/// order; every call and wake drains the socket's events into `events`.
struct Server {
    streams: Vec<(StreamSocket, MrInfo)>,
    events: Vec<ExsEvent>,
    received: Vec<u64>,
    next_id: u64,
    id_stream: std::collections::HashMap<u64, usize>,
}

impl Server {
    fn kick(&mut self, api: &mut NodeApi<'_>) {
        for (idx, (sock, mr)) in self.streams.iter_mut().enumerate() {
            // One outstanding receive per stream.
            if self.id_stream.values().filter(|&&s| s == idx).count() == 0
                && self.received[idx] < MSGS as u64 * MSG_LEN
            {
                let id = self.next_id;
                self.next_id += 1;
                self.id_stream.insert(id, idx);
                sock.exs_recv(api, mr, 0, 32 << 10, false, id);
                self.events.extend(sock.take_events());
            }
        }
    }
}

impl NodeApp for Server {
    fn on_start(&mut self, api: &mut NodeApi<'_>) {
        self.kick(api);
    }
    fn on_wake(&mut self, api: &mut NodeApi<'_>) {
        for (sock, _) in &mut self.streams {
            sock.handle_wake(api);
            self.events.extend(sock.take_events());
        }
        loop {
            let events = std::mem::take(&mut self.events);
            if events.is_empty() {
                break;
            }
            for ev in events {
                if let ExsEvent::RecvComplete { id, len } = ev {
                    let idx = self.id_stream.remove(&id).expect("stream for recv id");
                    let mr = self.streams[idx].1;
                    let mut buf = vec![0u8; len as usize];
                    api.read_mr(mr.key, mr.addr, &mut buf).unwrap();
                    for (i, &b) in buf.iter().enumerate() {
                        assert_eq!(
                            b,
                            pattern(idx, self.received[idx] + i as u64),
                            "stream {idx} corrupted at {}",
                            self.received[idx] + i as u64
                        );
                    }
                    self.received[idx] += len as u64;
                }
            }
            self.kick(api);
        }
    }
    fn is_done(&self) -> bool {
        self.received.iter().all(|&r| r == MSGS as u64 * MSG_LEN)
    }
}

#[test]
fn three_clients_one_server_streams_stay_isolated() {
    let profile = profiles::fdr_infiniband();
    let mut net = SimNet::new();
    net.set_host_seed(4242);
    let server_node = net.add_node(profile.host.clone(), profile.hca.clone());
    let client_nodes: Vec<NodeId> = (0..CLIENTS)
        .map(|_| net.add_node(profile.host.clone(), profile.hca.clone()))
        .collect();
    for &c in &client_nodes {
        net.connect_nodes(c, server_node, profile.link.clone(), c.0 as u64);
    }

    let mut clients: Vec<Client> = Vec::new();
    let mut server_streams = Vec::new();
    let cfg = ExsConfig::with_mode(ProtocolMode::Dynamic);

    for (idx, &cnode) in client_nodes.iter().enumerate() {
        let (csock, ssock) = StreamSocket::pair(&mut net, cnode, server_node, &cfg);
        let mr = net.with_api(cnode, |api| {
            api.register_mr((MSG_LEN * 2) as usize, Access::NONE)
        });
        let smr = net.with_api(server_node, |api| {
            api.register_mr(32 << 10, Access::local_remote_write())
        });
        server_streams.push((ssock, smr));
        clients.push(Client {
            sock: csock,
            events: Vec::new(),
            stream_idx: idx,
            mr,
            sent: 0,
            acked: 0,
            pos: 0,
        });
    }

    let mut server = Server {
        streams: server_streams,
        events: Vec::new(),
        received: vec![0; CLIENTS],
        next_id: 0,
        id_stream: std::collections::HashMap::new(),
    };

    let mut apps: Vec<&mut dyn NodeApp> = Vec::new();
    apps.push(&mut server);
    for c in clients.iter_mut() {
        apps.push(c);
    }
    let outcome = net.run(&mut apps, SimTime::from_secs(30));
    assert!(outcome.completed, "fan-in stalled: {outcome:?}");

    // Each stream delivered its full, uncorrupted byte sequence.
    for idx in 0..CLIENTS {
        let st = server.streams[idx].0.stats();
        assert_eq!(st.bytes_received, MSGS as u64 * MSG_LEN, "stream {idx}");
    }
    // The shared receiver worked hard: with one outstanding receive per
    // stream the clients run ahead, so the server pays copy CPU.
    assert!(
        net.cpu_usage(server_node) > 0.3,
        "server CPU {} suspiciously idle",
        net.cpu_usage(server_node)
    );
}

/// The same seeded fan-in spec, run through the reactor on the
/// deterministic simulator AND on the real-thread fabric, must deliver
/// byte-for-byte identical per-connection streams (same FNV digest per
/// connection, matching the pattern-derived expectation).
#[test]
fn reactor_fan_in_is_byte_identical_across_backends() {
    const SEED: u64 = 77;
    const CONNS: usize = 8;
    const MSGS: usize = 3;
    const MSG_LEN: usize = 4096;

    let spec = FanInSpec {
        client_nodes: 2,
        msgs_per_conn: MSGS,
        msg_len: MSG_LEN as u64,
        verify: VerifyLevel::Full,
        seed: SEED,
        ..FanInSpec::new(profiles::fdr_infiniband(), CONNS)
    };
    let sim = run_fan_in(&spec);
    let threaded = run_fan_in_threaded(&spec).digests;

    assert_eq!(sim.digests.len(), CONNS);
    assert_eq!(threaded.len(), CONNS);
    for (idx, &thr) in threaded.iter().enumerate() {
        let want = expected_digest(SEED, idx, (MSGS * MSG_LEN) as u64);
        assert_eq!(sim.digests[idx], want, "sim conn {idx} delivery");
        assert_eq!(thr, want, "threaded conn {idx} delivery");
        assert_eq!(sim.digests[idx], thr, "backends disagree on conn {idx}");
    }
    // Determinism on the simulator: the same seed reproduces the run
    // event for event.
    let again = run_fan_in(&spec);
    assert_eq!(again.events, sim.events, "sim run is not reproducible");
    assert_eq!(again.elapsed, sim.elapsed);
    assert_eq!(again.digests, sim.digests);
}

/// The fair-share fabric model changes only *when* bytes arrive, never
/// which bytes: the same seeded fan-in delivers per-connection streams
/// digest-identical to the FIFO simulator run AND to the real-thread
/// backend (which has no fabric model at all).
#[test]
fn fair_share_fan_in_is_byte_identical_across_backends() {
    use rdma_stream::verbs::{FabricModel, FairShareConfig};

    const SEED: u64 = 77;
    const CONNS: usize = 8;
    const MSGS: usize = 3;
    const MSG_LEN: usize = 4096;

    let base = FanInSpec {
        client_nodes: 2,
        msgs_per_conn: MSGS,
        msg_len: MSG_LEN as u64,
        verify: VerifyLevel::Full,
        seed: SEED,
        ..FanInSpec::new(profiles::fdr_infiniband(), CONNS)
    };
    let fifo = run_fan_in(&base);
    let fair = run_fan_in(&FanInSpec {
        fabric: FabricModel::FairShare(FairShareConfig::new(0xFA1B)),
        ..base.clone()
    });
    let threaded = run_fan_in_threaded(&base).digests;

    assert_eq!(fifo.digests, fair.digests, "fabric model altered bytes");
    for (idx, &thr) in threaded.iter().enumerate() {
        let want = expected_digest(SEED, idx, (MSGS * MSG_LEN) as u64);
        assert_eq!(fair.digests[idx], want, "fair-share conn {idx} delivery");
        assert_eq!(thr, want, "threaded conn {idx} delivery");
        assert_eq!(fair.digests[idx], thr, "backends disagree on conn {idx}");
    }
    // The model did engage: contention telemetry is present.
    let stats = fair.fabric.expect("fair-share run reports fabric stats");
    assert!(stats.flows.iter().any(|f| f.bytes > 0));
}

/// The pooled buffer path (pin-down cache leases instead of up-front
/// registrations) must be invisible in the delivered bytes: the same
/// seeded run through pools matches the PR 2 digests of the unpooled
/// simulator run and the real-thread run alike.
#[test]
fn pooled_fan_in_matches_unpooled_and_threaded_digests() {
    const SEED: u64 = 77;
    const CONNS: usize = 8;
    const MSGS: usize = 3;
    const MSG_LEN: usize = 4096;

    let spec = FanInSpec {
        client_nodes: 2,
        msgs_per_conn: MSGS,
        msg_len: MSG_LEN as u64,
        verify: VerifyLevel::Full,
        pooled: true,
        seed: SEED,
        ..FanInSpec::new(profiles::fdr_infiniband(), CONNS)
    };
    let pooled = run_fan_in(&spec);
    let threaded = run_fan_in_threaded(&spec);

    assert_eq!(threaded.digests.len(), CONNS);
    for (idx, &thr) in threaded.digests.iter().enumerate() {
        let want = expected_digest(SEED, idx, (MSGS * MSG_LEN) as u64);
        assert_eq!(pooled.digests[idx], want, "pooled sim conn {idx} delivery");
        assert_eq!(thr, want, "threaded pooled conn {idx} delivery");
    }
    for (backend, report) in [("sim", pooled), ("thread", threaded)] {
        let pool = report.pool.expect("pooled run reports pool counters");
        assert!(
            pool.hits > 0,
            "{backend}: send leases never hit the pin-down cache: {pool:?}"
        );
        assert_eq!(
            pool.evictions, 0,
            "{backend}: default budget should not evict here"
        );
    }
}

/// Tentpole acceptance: with pre-posted receive queues keeping the
/// Fig. 3 advert gate open and the sender resync policy enabled,
/// large-message reactor fan-in recovers zero-copy on BOTH backends —
/// at least 90% of payload bytes travel direct at 8 and at 64
/// connections, and recovering it costs no throughput versus forcing
/// every byte through the bounce ring.
#[test]
fn large_message_fan_in_recovers_direct_mode_on_both_backends() {
    const SEED: u64 = 99;
    const MSGS: usize = 8;
    const MSG_LEN: usize = 64 << 10;

    for &conns in &[8usize, 64] {
        // Deterministic simulator backend, full payload verify.
        let spec = FanInSpec {
            client_nodes: 2,
            msgs_per_conn: MSGS,
            msg_len: MSG_LEN as u64,
            verify: VerifyLevel::Full,
            seed: SEED,
            ..FanInSpec::new(profiles::fdr_infiniband(), conns)
        };
        let report = run_fan_in(&spec);
        for (idx, &d) in report.digests.iter().enumerate() {
            assert_eq!(
                d,
                expected_digest(SEED, idx, (MSGS * MSG_LEN) as u64),
                "sim conn {idx} delivery at {conns} conns"
            );
        }
        assert!(
            report.direct_byte_ratio() >= 0.9,
            "sim {conns} conns stuck indirect: direct_byte_ratio {:.4}, tx {:?}",
            report.direct_byte_ratio(),
            report.aggregate_tx
        );
        assert!(
            report.aggregate_tx.resyncs_completed > 0,
            "policy never resynced at {conns} conns: {:?}",
            report.aggregate_tx
        );

        // Recovering zero-copy must not cost throughput: compare
        // against the same run with the policy off and every byte
        // forced through the intermediate ring.
        let mut indirect_cfg = fan_in_cfg();
        indirect_cfg.mode = ProtocolMode::IndirectOnly;
        indirect_cfg.direct = DirectPolicy::default();
        let baseline = run_fan_in(&FanInSpec {
            cfg: indirect_cfg,
            ..spec.clone()
        });
        assert!(
            report.throughput_mbps() >= 0.9 * baseline.throughput_mbps(),
            "direct-mode recovery slower than indirect-only at {conns} conns: \
             {:.1} vs {:.1} Mbit/s",
            report.throughput_mbps(),
            baseline.throughput_mbps()
        );

        // Real-thread backend: the same spec, the same bar.
        let threaded = run_fan_in_threaded(&spec);
        assert_eq!(
            threaded.digests, report.digests,
            "backends disagree at {conns} conns"
        );
        assert!(
            threaded.direct_byte_ratio() >= 0.9,
            "threaded {conns} conns stuck indirect: direct_byte_ratio {:.4}, tx {:?}",
            threaded.direct_byte_ratio(),
            threaded.aggregate_tx
        );
    }
}
