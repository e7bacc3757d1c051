//! Cross-crate integration: the blast workload driving the EXS protocol
//! over the simulated verbs fabric, with full payload verification,
//! determinism checks, and the ES-API layer.

use rdma_stream::blast::{run_blast, BlastSpec, SizeDist, VerifyLevel};
use rdma_stream::exs::{Event, ExsConfig, ExsContext, MsgFlags, ProtocolMode, SockType};
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

/// Mixed stream + message sockets in one ES-API context, across nodes.
struct PairApp {
    ctx: Option<ExsContext>,
    stream_fd: rdma_stream::exs::ExsFd,
    seq_fd: rdma_stream::exs::ExsFd,
    mr: Option<MrInfo>,
    is_client: bool,
    stream_done: bool,
    seq_done: bool,
    posted: bool,
}

impl NodeApp for PairApp {
    fn on_start(&mut self, api: &mut NodeApi<'_>) {
        let mr = self.mr.unwrap();
        let ctx = self.ctx.as_mut().unwrap();
        if self.is_client {
            api.write_mr(mr.key, mr.addr, b"stream-payload!!").unwrap();
            ctx.exs_send(api, self.stream_fd, &mr, 0, 16, 1);
            ctx.exs_send(api, self.seq_fd, &mr, 0, 16, 2);
        } else {
            ctx.exs_recv(api, self.stream_fd, &mr, 0, 16, MsgFlags::WAITALL, 1);
            ctx.exs_recv(api, self.seq_fd, &mr, 16, 16, MsgFlags::NONE, 2);
            self.posted = true;
        }
    }
    fn on_wake(&mut self, api: &mut NodeApi<'_>) {
        let ctx = self.ctx.as_mut().unwrap();
        ctx.handle_wake(api);
        for qe in ctx.exs_qdequeue() {
            match qe.event {
                Event::SendComplete { .. } if self.is_client => {
                    if qe.fd == self.stream_fd {
                        self.stream_done = true;
                    } else {
                        self.seq_done = true;
                    }
                }
                Event::RecvComplete { len, .. } if !self.is_client => {
                    assert_eq!(len, 16);
                    if qe.fd == self.stream_fd {
                        self.stream_done = true;
                    } else {
                        self.seq_done = true;
                    }
                }
                other => panic!("unexpected event {other:?}"),
            }
        }
    }
    fn is_done(&self) -> bool {
        self.stream_done && self.seq_done
    }
}

#[test]
fn es_api_multiplexes_stream_and_seqpacket() {
    let profile = profiles::fdr_infiniband();
    let mut net = SimNet::new();
    let a = net.add_node(profile.host.clone(), profile.hca.clone());
    let b = net.add_node(profile.host.clone(), profile.hca.clone());
    net.connect_nodes(a, b, profile.link.clone(), 17);

    let mut ctx_a = ExsContext::new(a);
    let mut ctx_b = ExsContext::new(b);
    let cfg = ExsConfig::default();
    let (s_a, s_b) =
        ExsContext::socket_pair(&mut net, &mut ctx_a, &mut ctx_b, SockType::Stream, &cfg);
    let (q_a, q_b) =
        ExsContext::socket_pair(&mut net, &mut ctx_a, &mut ctx_b, SockType::SeqPacket, &cfg);
    assert_eq!(ctx_a.open_sockets(), 2);

    let mr_a = net.with_api(a, |api| ctx_a.exs_mregister(api, 32, Access::NONE));
    let mr_b = net.with_api(b, |api| {
        ctx_b.exs_mregister(api, 32, Access::local_remote_write())
    });

    let mut client = PairApp {
        ctx: Some(ctx_a),
        stream_fd: s_a,
        seq_fd: q_a,
        mr: Some(mr_a),
        is_client: true,
        stream_done: false,
        seq_done: false,
        posted: false,
    };
    let mut server = PairApp {
        ctx: Some(ctx_b),
        stream_fd: s_b,
        seq_fd: q_b,
        mr: Some(mr_b),
        is_client: false,
        stream_done: false,
        seq_done: false,
        posted: false,
    };
    let outcome = net.run(&mut [&mut client, &mut server], SimTime::from_secs(1));
    assert!(outcome.completed, "es-api exchange stalled: {outcome:?}");

    // Verify both payload copies landed at the server.
    let sctx = server.ctx.as_ref().unwrap();
    assert_eq!(sctx.stats(s_b).recvs_completed, 1);
    assert_eq!(sctx.stats(q_b).recvs_completed, 1);
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
