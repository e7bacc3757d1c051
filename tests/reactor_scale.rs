//! Reactor scale: one node serving very many EXS streams.
//!
//! The reactor exists so a server does not need a CQ-polling loop (or a
//! thread) per connection. These tests drive it at the scales the
//! design targets:
//!
//! * 1000 concurrent streams on the deterministic simulator, through
//!   one reactor over two shared CQs, with full payload verification —
//!   per-stream in-order delivery at thousand-way fan-in;
//! * 64 concurrent streams on the real-thread fabric through
//!   `run_fan_in_threaded`: one executor shard, whose single thread
//!   serves all 64 server ends as tasks, while each client node's
//!   executor drives its streams.
//!
//! Memory stays bounded by construction: each connection runs a small
//! fixed ring and credit budget ([`fan_in_cfg`]-style), and the server
//! keeps exactly one outstanding receive per stream.

use rdma_stream::blast::fan_in::expected_digest;
use rdma_stream::blast::{run_fan_in, run_fan_in_threaded, FanInSpec, VerifyLevel};
use rdma_stream::exs::ExsConfig;
use rdma_stream::verbs::profiles;

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
    const MSGS: usize = 4;
    const MSG_LEN: u64 = 2048;
    let spec = FanInSpec {
        cfg: ExsConfig {
            ring_capacity: 64 << 10,
            credits: 8,
            sq_depth: 16,
            ..ExsConfig::default()
        },
        client_nodes: 4,
        msgs_per_conn: MSGS,
        msg_len: MSG_LEN,
        outstanding_sends: 1,
        prepost_recvs: 1,
        verify: VerifyLevel::Full,
        aio: true,
        seed: 23,
        ..FanInSpec::new(profiles::fdr_infiniband(), CONNS)
    };
    let report = run_fan_in_threaded(&spec);

    // One shard: one executor thread served all 64 server ends.
    assert_eq!(report.shard_stats.as_ref().map(Vec::len), Some(1));
    assert_eq!(report.aggregate.bytes_received, report.bytes);
    assert_eq!(report.reactor.conns_added, CONNS as u64);
    assert_eq!(report.reactor.orphan_cqes, 0);
    assert_eq!(report.digests.len(), CONNS);
    for (idx, &d) in report.digests.iter().enumerate() {
        assert_eq!(
            d,
            expected_digest(spec.seed, idx, MSGS as u64 * MSG_LEN),
            "conn {idx} delivered bytes out of order or corrupted"
        );
    }
}
