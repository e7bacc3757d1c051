//! Fabric-model acceptance: the fair-share allocator must make the
//! simulator honest about contention (aggregate ingress capped at the
//! bottleneck link, bandwidth split fairly) while changing *only*
//! timing — the delivered bytes and their order must be identical to
//! the FIFO model on every backend.

use rdma_stream::blast::fan_in::expected_digest;
use rdma_stream::blast::{run_blast, run_fan_in, BlastSpec, FanInSpec, VerifyLevel};
use rdma_stream::verbs::{profiles, FabricModel, FairShareConfig};

/// 512 connections blasting into one server NIC. Under the legacy FIFO
/// model every node pair gets a private serializing link, so aggregate
/// ingress exceeds the line rate — physically impossible. The
/// fair-share model must cap the aggregate at the bottleneck (within
/// 5%, the paper-style tolerance) and split it fairly (Jain ≥ 0.9).
#[test]
fn incast_512_fair_share_respects_bottleneck_and_is_fair() {
    let base = FanInSpec {
        msgs_per_conn: 6,
        msg_len: 16 << 10,
        seed: 5,
        ..FanInSpec::new(profiles::fdr_infiniband(), 512)
    };

    let fifo = run_fan_in(&base);
    assert!(
        fifo.offered_load_ratio() > 1.0,
        "FIFO incast no longer exceeds capacity (ratio {:.3}) — \
         the dishonesty this model fixes has vanished",
        fifo.offered_load_ratio()
    );
    assert!(
        fifo.fabric.is_none(),
        "FIFO run must not report fabric stats"
    );

    let fair = FanInSpec {
        fabric: FabricModel::FairShare(FairShareConfig::new(0xFA1B)),
        ..base
    };
    let report = run_fan_in(&fair);
    let ratio = report.offered_load_ratio();
    assert!(
        ratio <= 1.05,
        "fair-share aggregate {:.1} Mbit/s exceeds bottleneck (ratio {:.3})",
        report.throughput_mbps(),
        ratio
    );
    let stats = report
        .fabric
        .as_ref()
        .expect("fair-share run reports fabric stats");
    assert!(
        stats.jain_index >= 0.9,
        "unfair split across flows: Jain index {:.3}",
        stats.jain_index
    );
    assert!(stats.respeeds > 0, "512-way contention must re-speed flows");
    // Every user payload byte rode a fabric flow (flow bytes also carry
    // protocol framing and reverse ADVERT traffic, so ≥, not ==).
    let delivered: u64 = stats.flows.iter().map(|f| f.bytes).sum();
    assert!(
        delivered >= report.bytes,
        "fabric carried {delivered} bytes but {} were delivered",
        report.bytes
    );
}

/// The fabric model changes when bytes arrive, never which bytes or in
/// what order: the same seeded fan-in delivers digest-identical streams
/// under FIFO and FairShare.
#[test]
fn fair_share_fan_in_digests_match_fifo() {
    const SEED: u64 = 77;
    const CONNS: usize = 8;
    const MSGS: usize = 3;
    const MSG_LEN: u64 = 4096;

    let base = FanInSpec {
        client_nodes: 4,
        msgs_per_conn: MSGS,
        msg_len: MSG_LEN,
        verify: VerifyLevel::Full,
        seed: SEED,
        ..FanInSpec::new(profiles::fdr_infiniband(), CONNS)
    };
    let fifo = run_fan_in(&base);
    let fair = run_fan_in(&FanInSpec {
        fabric: FabricModel::FairShare(FairShareConfig::new(9)),
        ..base.clone()
    });

    assert_eq!(
        fifo.digests, fair.digests,
        "fabric model altered delivered bytes"
    );
    for (idx, &d) in fair.digests.iter().enumerate() {
        assert_eq!(
            d,
            expected_digest(SEED, idx, MSGS as u64 * MSG_LEN),
            "fair-share conn {idx} stream corrupt"
        );
    }
    assert_eq!(fifo.bytes, fair.bytes);
    // Determinism: the same fair-share seed reproduces the run exactly.
    let again = run_fan_in(&FanInSpec {
        fabric: FabricModel::FairShare(FairShareConfig::new(9)),
        ..base
    });
    assert_eq!(
        again.events, fair.events,
        "fair-share run is not reproducible"
    );
    assert_eq!(again.elapsed, fair.elapsed);
    assert_eq!(again.digests, fair.digests);
}

/// The 1:1 blast tool under the fair-share fabric: a single flow owns
/// the whole link, so throughput stays at the FDR line-rate story and
/// the delivered stream digest is unchanged from FIFO.
#[test]
fn blast_single_flow_unchanged_by_fair_share() {
    let base = BlastSpec {
        messages: 40,
        verify: VerifyLevel::Full,
        seed: 11,
        ..BlastSpec::new(profiles::fdr_infiniband())
    };
    let fifo = run_blast(&base);
    let fair = run_blast(&BlastSpec {
        fabric: FabricModel::FairShare(FairShareConfig::new(3)),
        ..base
    });

    assert_eq!(fifo.digest, fair.digest, "fabric model altered the stream");
    assert_eq!(fifo.bytes, fair.bytes);
    assert_eq!(
        fair.link_bandwidth_bps,
        profiles::fdr_infiniband().link.bandwidth_bps
    );
    let stats = fair.fabric.expect("fair-share blast reports fabric stats");
    // One data flow client→server (plus the reverse advert flow); a
    // lone flow never shares, so it must never re-speed to a lower rate
    // than a competitor would force.
    assert!((stats.jain_index - 1.0).abs() < 0.1 || stats.flows.len() <= 2);
    assert!(fifo.fabric.is_none());
}
