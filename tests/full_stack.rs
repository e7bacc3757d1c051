//! Cross-crate integration: the blast workload driving the EXS protocol
//! over the simulated verbs fabric, with full payload verification,
//! determinism checks, and two sockets driven from one node.

use rdma_stream::blast::{run_blast, BlastSpec, SizeDist, VerifyLevel};
use rdma_stream::exs::{ExsConfig, ExsEvent, ProtocolMode, StreamSocket};
use rdma_stream::simnet::SimTime;
use rdma_stream::verbs::{profiles, Access, MrInfo, NodeApi, NodeApp, SimNet};

#[test]
fn verified_blast_all_modes_and_profiles() {
    for profile in [profiles::fdr_infiniband(), profiles::qdr_infiniband()] {
        for mode in [
            ProtocolMode::Dynamic,
            ProtocolMode::DirectOnly,
            ProtocolMode::IndirectOnly,
        ] {
            let spec = BlastSpec {
                cfg: ExsConfig::with_mode(mode),
                outstanding_sends: 4,
                outstanding_recvs: 8,
                sizes: SizeDist::Exponential {
                    mean: 64 << 10,
                    max: 256 << 10,
                },
                messages: 60,
                verify: VerifyLevel::Full,
                seed: 33,
                ..BlastSpec::new(profile.clone())
            };
            let report = run_blast(&spec);
            assert!(report.bytes > 0);
            assert!(
                report.direct_transfers + report.indirect_transfers > 0,
                "{} {mode:?}: no transfers recorded",
                profile.name
            );
        }
    }
}

/// Same seed, same run: virtual end time, event count, delivered bytes
/// and protocol decisions repeat exactly. Nothing the simulator walks is
/// hash-ordered (QPs, CQs and regions are visited in id order), and the
/// BCopy run churns registrations, so memory-table slots are reused in
/// the same order both times.
#[test]
fn runs_are_deterministic_per_seed() {
    for mode in [ProtocolMode::Dynamic, ProtocolMode::BCopy] {
        let spec = BlastSpec {
            cfg: ExsConfig::with_mode(mode),
            outstanding_sends: 4,
            outstanding_recvs: 4,
            messages: 80,
            verify: VerifyLevel::Full,
            seed: 99,
            ..BlastSpec::new(profiles::fdr_infiniband())
        };
        let a = run_blast(&spec);
        let b = run_blast(&spec);
        assert_eq!((a.start, a.end), (b.start, b.end), "{mode:?}");
        assert_eq!(a.events, b.events, "{mode:?}");
        assert_eq!(a.digest, b.digest, "{mode:?}");
        assert_eq!(a.direct_transfers, b.direct_transfers);
        assert_eq!(a.indirect_transfers, b.indirect_transfers);
        assert_eq!(a.mode_switches, b.mode_switches);

        // A different seed perturbs the host jitter and the workload.
        let mut spec2 = spec.clone();
        spec2.seed = 100;
        let c = run_blast(&spec2);
        assert_ne!(a.end, c.end, "independent seeds should differ");
    }
}

#[test]
fn waitall_blast_verified() {
    let spec = BlastSpec {
        cfg: ExsConfig::with_mode(ProtocolMode::Dynamic),
        outstanding_sends: 2,
        outstanding_recvs: 4,
        sizes: SizeDist::Fixed(100_000),
        messages: 40,
        recv_len: 64 << 10,
        waitall: true,
        verify: VerifyLevel::Full,
        seed: 5,
        ..BlastSpec::new(profiles::fdr_infiniband())
    };
    let report = run_blast(&spec);
    assert_eq!(report.bytes, 40 * 100_000);
}

/// Two stream sockets between the same two nodes, driven in socket
/// order: each call and each wake drains that socket's events into one
/// queue, which the app then works through.
struct PairApp {
    socks: Vec<StreamSocket>,
    events: Vec<(usize, ExsEvent)>,
    mr: MrInfo,
    is_client: bool,
    done: [bool; 2],
}

impl NodeApp for PairApp {
    fn on_start(&mut self, api: &mut NodeApi<'_>) {
        let mr = self.mr;
        if self.is_client {
            api.write_mr(mr.key, mr.addr, b"stream-payload!!").unwrap();
        }
        for (idx, sock) in self.socks.iter_mut().enumerate() {
            let id = idx as u64 + 1;
            if self.is_client {
                sock.exs_send(api, &mr, 0, 16, id);
            } else {
                // The first socket waits for all 16 bytes, the second
                // takes whatever arrives.
                sock.exs_recv(api, &mr, 16 * idx as u64, 16, idx == 0, id);
            }
            self.events
                .extend(sock.take_events().into_iter().map(|ev| (idx, ev)));
        }
    }
    fn on_wake(&mut self, api: &mut NodeApi<'_>) {
        for (idx, sock) in self.socks.iter_mut().enumerate() {
            sock.handle_wake(api);
            self.events
                .extend(sock.take_events().into_iter().map(|ev| (idx, ev)));
        }
        for (idx, ev) in self.events.drain(..) {
            match ev {
                ExsEvent::SendComplete { .. } if self.is_client => self.done[idx] = true,
                ExsEvent::RecvComplete { len, .. } if !self.is_client => {
                    assert_eq!(len, 16);
                    self.done[idx] = true;
                }
                other => panic!("unexpected event {other:?} on socket {idx}"),
            }
        }
    }
    fn is_done(&self) -> bool {
        self.done == [true; 2]
    }
}

#[test]
fn one_node_drives_two_stream_sockets() {
    let profile = profiles::fdr_infiniband();
    let mut net = SimNet::new();
    let a = net.add_node(profile.host.clone(), profile.hca.clone());
    let b = net.add_node(profile.host.clone(), profile.hca.clone());
    net.connect_nodes(a, b, profile.link.clone(), 17);

    let cfg = ExsConfig::default();
    let (s_a, s_b) = StreamSocket::pair(&mut net, a, b, &cfg);
    let (t_a, t_b) = StreamSocket::pair(&mut net, a, b, &cfg);
    let mr_a = net.with_api(a, |api| api.register_mr(32, Access::NONE));
    let mr_b = net.with_api(b, |api| api.register_mr(32, Access::local_remote_write()));

    let app = |socks, mr, is_client| PairApp {
        socks,
        events: Vec::new(),
        mr,
        is_client,
        done: [false; 2],
    };
    let mut client = app(vec![s_a, t_a], mr_a, true);
    let mut server = app(vec![s_b, t_b], mr_b, false);
    let outcome = net.run(&mut [&mut client, &mut server], SimTime::from_secs(1));
    assert!(
        outcome.completed,
        "two-socket exchange stalled: {outcome:?}"
    );

    // Verify both payload copies landed at the server.
    for sock in &server.socks {
        assert_eq!(sock.stats().recvs_completed, 1);
    }
    net.with_api(b, |api| {
        let mut buf = [0u8; 16];
        api.read_mr(mr_b.key, mr_b.addr, &mut buf).unwrap();
        assert_eq!(&buf, b"stream-payload!!");
        api.read_mr(mr_b.key, mr_b.addr + 16, &mut buf).unwrap();
        assert_eq!(&buf, b"stream-payload!!");
    });
}

#[test]
fn tiny_ring_and_tiny_credits_still_complete_verified() {
    // Stress the flow-control machinery end to end with adversarially
    // small resources.
    let spec = BlastSpec {
        cfg: ExsConfig {
            mode: ProtocolMode::Dynamic,
            ring_capacity: 8 << 10,
            credits: 8,
            ..ExsConfig::default()
        },
        outstanding_sends: 4,
        outstanding_recvs: 4,
        sizes: SizeDist::Uniform {
            lo: 1,
            hi: 64 << 10,
        },
        messages: 80,
        verify: VerifyLevel::Full,
        seed: 12,
        ..BlastSpec::new(profiles::fdr_infiniband())
    };
    let report = run_blast(&spec);
    assert!(report.bytes > 0);
    assert!(report.indirect_transfers > 0, "tiny ring forces chunking");
}
