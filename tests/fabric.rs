//! Fabric-model acceptance: the fair-share allocator must make the
//! simulator honest about contention (aggregate ingress capped at the
//! bottleneck link, bandwidth split fairly) while changing *only*
//! timing — the delivered bytes and their order must be identical to
//! the FIFO model on every backend.

use rdma_stream::blast::fan_in::expected_digest;
use rdma_stream::blast::figures::fan_in_spec;
use rdma_stream::blast::{run_blast, run_fan_in, BlastSpec, FanInSpec, VerifyLevel};
use rdma_stream::exs::ConnStats;
use rdma_stream::simnet::stats::merged;
use rdma_stream::verbs::{profiles, FabricModel, FairShareConfig};

/// The incast table's runs (8, 64 and 512 connections into one server
/// NIC). Under the legacy FIFO model every node pair gets a private
/// serializing link, so aggregate ingress exceeds the line rate —
/// physically impossible. The fair-share model must cap the aggregate
/// at the bottleneck (within 5%, the paper-style tolerance) and split
/// it fairly (Jain ≥ 0.9).
#[test]
fn incast_512_fair_share_respects_bottleneck_and_is_fair() {
    for conns in [8, 64, 512] {
        let fair = FanInSpec {
            seed: 5,
            ..fan_in_spec(conns, 6, 16 << 10)
        };
        let fifo = run_fan_in(&FanInSpec {
            fabric: FabricModel::Fifo,
            ..fair.clone()
        });
        assert!(
            fifo.offered_load_ratio() > 1.0,
            "FIFO incast of {conns} no longer exceeds capacity (ratio {:.3}) — \
             the dishonesty this model fixes has vanished",
            fifo.offered_load_ratio()
        );
        assert!(
            fifo.fabric.is_none(),
            "FIFO run must not report fabric stats"
        );

        let report = run_fan_in(&fair);
        let ratio = report.offered_load_ratio();
        assert!(
            ratio <= 1.05,
            "fair-share aggregate {:.1} Mbit/s of {conns} exceeds bottleneck (ratio {ratio:.3})",
            report.throughput_mbps(),
        );
        let stats = report
            .fabric
            .as_ref()
            .expect("fair-share run reports fabric stats");
        assert!(
            stats.jain_index >= 0.9,
            "unfair split across {conns} flows: Jain index {:.3}",
            stats.jain_index
        );
        assert!(stats.respeeds > 0, "contention must re-speed flows");
        // Folding the connections' counters sums their flow samples and
        // rates: one sample per connection, never the largest one alone.
        let merged: ConnStats = merged(&report.per_conn);
        assert_eq!(merged.fabric_flow_samples, conns as u64);
        assert!(merged.fabric_flow_mbps_sum > merged.fabric_flow_mbps_max);
        // Every user payload byte rode a fabric flow (flow bytes also
        // carry protocol framing and reverse ADVERT traffic, so ≥, not ==).
        let delivered: u64 = stats.flows.iter().map(|f| f.bytes).sum();
        assert!(
            delivered >= report.bytes,
            "fabric carried {delivered} bytes but {} were delivered",
            report.bytes
        );
    }
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

/// A lone flow owns the whole link under max-min sharing, so the
/// fair-share fabric must reproduce the FIFO run bit for bit: the 1:1
/// blast tool's stream, time, throughput, receiver CPU and mode
/// switches, and a one-connection fan-in's time and throughput.
#[test]
fn blast_single_flow_unchanged_by_fair_share() {
    let fair_share = FabricModel::FairShare(FairShareConfig::new(3));
    let base = BlastSpec {
        messages: 40,
        verify: VerifyLevel::Full,
        seed: 11,
        ..BlastSpec::new(profiles::fdr_infiniband())
    };
    let fifo = run_blast(&base);
    let fair = run_blast(&BlastSpec {
        fabric: fair_share.clone(),
        ..base
    });

    assert_eq!(fifo.digest, fair.digest, "fabric model altered the stream");
    assert_eq!(fifo.bytes, fair.bytes);
    assert_eq!(fifo.elapsed(), fair.elapsed());
    assert_eq!(
        fifo.throughput_mbps().to_bits(),
        fair.throughput_mbps().to_bits()
    );
    assert_eq!(fifo.cpu_receiver.to_bits(), fair.cpu_receiver.to_bits());
    assert_eq!(fifo.mode_switches, fair.mode_switches);

    let one_conn = FanInSpec {
        fabric: FabricModel::Fifo,
        seed: 5,
        ..fan_in_spec(1, 6, 16 << 10)
    };
    let fan_in_fifo = run_fan_in(&one_conn);
    let fan_in_fair = run_fan_in(&FanInSpec {
        fabric: fair_share,
        ..one_conn
    });
    assert_eq!(fan_in_fifo.elapsed, fan_in_fair.elapsed);
    assert_eq!(
        fan_in_fifo.throughput_mbps().to_bits(),
        fan_in_fair.throughput_mbps().to_bits()
    );
    assert_eq!(format!("{:.1}", fan_in_fair.throughput_mbps()), "17573.1");
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
