//! Reactor scale: one node serving very many EXS streams.
//!
//! The reactor exists so a server does not need a CQ-polling loop (or a
//! thread) per connection. These tests drive it at the scales the
//! design targets:
//!
//! * 1000 concurrent streams on the deterministic simulator, through
//!   one reactor over two shared CQs, with full payload verification —
//!   per-stream in-order delivery at thousand-way fan-in;
//! * 64 concurrent streams on the real-thread fabric through a
//!   [`ThreadReactorPool`], whose single service thread serves all 64
//!   server ends; the client ends progress inside their owners' calls.
//!
//! Memory stays bounded by construction: each connection runs a small
//! fixed ring and credit budget ([`fan_in_cfg`]-style), and the server
//! keeps exactly one outstanding receive per stream.

use std::sync::Arc;
use std::time::Duration;

use rdma_stream::blast::fan_in::{expected_digest, fnv1a, payload_byte, FNV_OFFSET};
use rdma_stream::blast::{run_fan_in, FanInSpec, VerifyLevel};
use rdma_stream::exs::{ExsConfig, ReactorConfig, ThreadReactorPool};
use rdma_stream::verbs::threaded::ThreadNet;
use rdma_stream::verbs::{profiles, Access, HcaConfig};

#[test]
fn thousand_sim_streams_through_one_reactor() {
    const CONNS: usize = 1000;
    const MSGS: usize = 2;
    const MSG_LEN: u64 = 4096;
    let spec = FanInSpec {
        cfg: ExsConfig {
            ring_capacity: 16 << 10,
            credits: 8,
            sq_depth: 8,
            ..ExsConfig::default()
        },
        client_nodes: 16,
        msgs_per_conn: MSGS,
        msg_len: MSG_LEN,
        verify: VerifyLevel::Full,
        seed: 11,
        ..FanInSpec::new(profiles::fdr_infiniband(), CONNS)
    };
    let report = run_fan_in(&spec);

    assert_eq!(report.conns, CONNS);
    assert_eq!(report.bytes, CONNS as u64 * MSGS as u64 * MSG_LEN);
    assert_eq!(report.reactor.conns_added, CONNS as u64);
    assert_eq!(report.reactor.orphan_cqes, 0);
    // Per-stream in-order delivery, byte for byte (verify=Full already
    // asserted the pattern during the run; the digests re-prove order).
    for (idx, &d) in report.digests.iter().enumerate() {
        assert_eq!(
            d,
            expected_digest(spec.seed, idx, MSGS as u64 * MSG_LEN),
            "stream {idx} delivery digest"
        );
    }
    // The shared CQs actually amortized: completions of many streams
    // arrived in single drains.
    assert!(
        report.reactor.max_cq_batch > 1,
        "expected multi-completion drains, got max batch {}",
        report.reactor.max_cq_batch
    );
    assert!(report.throughput_mbps() > 0.0);
}

#[test]
fn sixty_four_threaded_streams_one_service_thread() {
    const CONNS: usize = 64;
    const PEERS: usize = 4;
    const MSGS: usize = 4;
    const MSG_LEN: usize = 2048;
    const SEED: u64 = 23;
    let cfg = ExsConfig {
        ring_capacity: 64 << 10,
        credits: 8,
        sq_depth: 16,
        ..ExsConfig::default()
    };

    let mut net = ThreadNet::new();
    let server = net.add_node(HcaConfig::default());
    let peers: Vec<_> = (0..PEERS)
        .map(|_| net.add_node(HcaConfig::default()))
        .collect();
    for p in &peers {
        net.connect_nodes(p, &server, Duration::ZERO);
    }
    let reactor =
        ThreadReactorPool::new(Arc::new(net), server, ReactorConfig::default(), &cfg, CONNS);

    let mut client_handles = Vec::new();
    let mut server_handles = Vec::new();
    for idx in 0..CONNS {
        let (server, client) = reactor.accept(&peers[idx % PEERS], &cfg);

        client_handles.push(std::thread::spawn(move || {
            let mr = client.register(MSG_LEN, Access::NONE);
            let mut pos = 0u64;
            for _ in 0..MSGS {
                let data: Vec<u8> = (0..MSG_LEN as u64)
                    .map(|i| payload_byte(SEED, idx, pos + i))
                    .collect();
                client
                    .node()
                    .with_hca(|h| h.mem_mut().app_write(mr.key, mr.addr, &data))
                    .unwrap();
                let id = client.send(&mr, 0, MSG_LEN as u64);
                client
                    .wait_send(id, Duration::from_secs(30))
                    .expect("send completion");
                pos += MSG_LEN as u64;
            }
            // Returns once the FIN is on the wire.
            client.shutdown();
            // Keep the endpoint's registrations alive until the server
            // has drained everything.
            client
        }));

        server_handles.push(std::thread::spawn(move || {
            let mr = server.register(MSG_LEN, Access::local_remote_write());
            let mut digest = FNV_OFFSET;
            let mut received = 0u64;
            let mut buf = vec![0u8; MSG_LEN];
            loop {
                let id = server.recv(&mr, 0, MSG_LEN as u32, false);
                let len = server
                    .wait_recv(id, Duration::from_secs(30))
                    .expect("recv completion");
                if len == 0 {
                    break;
                }
                buf.resize(len as usize, 0);
                server
                    .node()
                    .with_hca(|h| h.mem().app_read(mr.key, mr.addr, &mut buf))
                    .unwrap();
                digest = fnv1a(digest, &buf);
                received += len as u64;
            }
            assert_eq!(received, (MSGS * MSG_LEN) as u64, "conn {idx} length");
            assert_eq!(
                digest,
                expected_digest(SEED, idx, (MSGS * MSG_LEN) as u64),
                "conn {idx} delivered bytes out of order or corrupted"
            );
        }));
    }

    for h in server_handles {
        h.join().expect("server side of a connection panicked");
    }
    let stats = reactor.aggregate_stats();
    assert_eq!(stats.bytes_received, (CONNS * MSGS * MSG_LEN) as u64);
    let rs = reactor.reactor_stats();
    assert_eq!(rs.conns_added, CONNS as u64);
    assert_eq!(rs.orphan_cqes, 0);
    // Only now drop the client endpoints.
    for h in client_handles {
        drop(h.join().expect("client side of a connection panicked"));
    }
}
