//! `sim_fanin_reactor`, `sim_fanin_aio_sharded`, `sim_fanin_mux`: many
//! client streams into one server node through `blast::run_fan_in`.
//!
//! All three run on the fair-share fabric so aggregate ingress stays
//! under the server NIC's line rate; a repetition whose
//! `offered_load_ratio` exceeds 1 fails its check.

use blast::fan_in::expected_digest;
use blast::{run_fan_in, FanInReport, FanInSpec, VerifyLevel};
use exs::{ReactorConfig, ShardBalance, ShardPolicy};
use rdma_verbs::profiles::fdr_infiniband;
use rdma_verbs::{FabricModel, FairShareConfig};
use simnet::SimDuration;

use super::{conn_counts, fan_in_cfg, ratio, timed, Purpose, Rep, Size, Values, Workload};
use crate::span::{Kind, Recorder};

/// Bytes per message on every fan-in workload.
const MSG_LEN: u64 = 16 << 10;

/// The fan-in configuration for one repetition, every knob written out.
pub fn spec(w: Workload, size: Size, seed: u64, purpose: Purpose) -> FanInSpec {
    let mux = w == Workload::SimFaninMux;
    let aio = w == Workload::SimFaninAioSharded;
    // The reactor and aio workloads carry identical traffic so their
    // numbers compare directly. The mux workload is sized for peak RSS
    // around 400 MiB (10k streams needs ~1 GiB).
    let (conns, msgs_per_conn) = match (mux, size) {
        (false, Size::Full) => (512, 32),
        (false, Size::Quick) => (64, 16),
        (true, Size::Full) => (2048, 8),
        (true, Size::Quick) => (256, 4),
    };
    let mut cfg = fan_in_cfg();
    cfg.mux.enabled = mux;
    FanInSpec {
        profile: fdr_infiniband(),
        cfg,
        reactor: ReactorConfig {
            cqe_budget: 64,
            drain_batch: 4096,
        },
        conns,
        client_nodes: 8,
        msgs_per_conn,
        msg_len: MSG_LEN,
        outstanding_sends: 2,
        recv_len: MSG_LEN as u32,
        prepost_recvs: 4,
        verify: match purpose {
            Purpose::Timed => VerifyLevel::None,
            Purpose::Check => VerifyLevel::Full,
        },
        pooled: false,
        mux,
        aio,
        shards: if aio { 4 } else { 1 },
        shard_policy: ShardPolicy::RoundRobin,
        seed,
        fabric: FabricModel::FairShare(FairShareConfig {
            oversubscription: 1.0,
            seed,
        }),
        time_limit: SimDuration::from_secs(600),
    }
}

/// Virtual-time results and exact counts of one fan-in report.
fn modelled(r: &FanInReport, msgs: u64) -> Values {
    let mut v = conn_counts(&r.aggregate_tx, &r.aggregate, msgs);
    v.extend([
        ("model.goodput_gbps", r.throughput_mbps() / 1e3),
        ("simnet.events_per_msg", r.events as f64 / msgs as f64),
        ("simnet.fabric_offered_load_ratio", r.offered_load_ratio()),
        (
            "simnet.fabric_respeeds",
            r.fabric.as_ref().map_or(0, |f| f.respeeds) as f64,
        ),
        (
            "exs.reactor.cqes_per_poll",
            ratio(r.reactor.cqes_dispatched as f64, r.reactor.polls as f64),
        ),
        ("exs.reactor.deferrals", r.reactor.deferrals as f64),
    ]);
    if let Some(aio) = &r.aio {
        v.insert("exs.aio.polls_per_wake", aio.polls_per_wake());
        v.insert("exs.aio.spurious_poll_ratio", aio.spurious_wake_ratio());
    }
    if let Some(shards) = &r.shard_stats {
        v.insert("exs.shard.imbalance", ShardBalance::of(shards).imbalance());
    }
    if let Some(per_stream) = r.memory_per_stream() {
        v.insert("exs.mux.bytes_per_stream", per_stream as f64);
    }
    v
}

/// One repetition through `blast::run_fan_in`. With a recorder (the
/// traced pass) the call, the set-up it reports and the check get
/// spans; the harness inside the call is `blast`'s and stays opaque.
pub fn run(
    w: Workload,
    size: Size,
    seed: u64,
    purpose: Purpose,
    mut rec: Option<&mut Recorder>,
) -> Rep {
    let spec = spec(w, size, seed, purpose);
    let msgs = (spec.conns * spec.msgs_per_conn) as u64;
    let per_conn = spec.msgs_per_conn as u64 * spec.msg_len;

    if let Some(rec) = &mut rec {
        rec.enter(Kind::Rep, seed);
        rec.enter(Kind::Transfer, seed);
    }
    let (report, call_s, call_cpu_s) = timed(|| run_fan_in(&spec));
    let setup_s = report.setup_wall.as_secs_f64();
    // Wall and CPU time both describe the transfer alone. `run_fan_in`
    // reports how long its set-up took but not the CPU it used; the call
    // is one thread that never blocks, so set-up's share of the CPU is
    // its share of the wall time.
    let wall_s = call_s - setup_s;
    let cpu_s = call_cpu_s * wall_s / call_s;
    if let Some(rec) = &mut rec {
        rec.leading_child(Kind::Setup, seed, report.setup_wall.as_nanos() as u64);
        rec.exit();
        rec.enter(Kind::Check, seed);
    }

    let mut delivered = report.bytes == per_conn * spec.conns as u64
        && report.aggregate.bytes_received == report.bytes
        && report.aggregate_tx.bytes_sent == report.bytes
        && report.offered_load_ratio() <= 1.0;
    if purpose == Purpose::Check {
        delivered &= report.digests.len() == spec.conns
            && report
                .digests
                .iter()
                .enumerate()
                .all(|(conn, &d)| d == expected_digest(seed, conn, per_conn));
    }
    if let Some(rec) = &mut rec {
        rec.exit();
        rec.exit();
    }
    let real = Values::from([
        (
            "simnet.host_ns_per_event",
            wall_s * 1e9 / report.events as f64,
        ),
        (
            "exs.reactor.host_ns_per_cqe",
            ratio(wall_s * 1e9, report.reactor.cqes_dispatched as f64),
        ),
        ("exs.conn_setup_us", setup_s * 1e6 / spec.conns as f64),
    ]);
    Rep {
        msgs,
        failed: if delivered { 0 } else { msgs },
        setup_s,
        wall_s,
        cpu_s,
        modelled: modelled(&report, msgs),
        real,
        ..Rep::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_reps_pass_on_every_front_end() {
        for w in [
            Workload::SimFaninReactor,
            Workload::SimFaninAioSharded,
            Workload::SimFaninMux,
        ] {
            let rep = run(w, Size::Quick, 3, Purpose::Check, None);
            assert_eq!(rep.failed, 0, "{}", w.name());
            assert!(rep.modelled["simnet.fabric_offered_load_ratio"] <= 1.0);
            assert!(rep.modelled["model.goodput_gbps"] > 0.0);
        }
    }

    #[test]
    fn front_end_specific_counts_exist_only_where_they_apply() {
        let reactor = run(
            Workload::SimFaninReactor,
            Size::Quick,
            3,
            Purpose::Timed,
            None,
        );
        let aio = run(
            Workload::SimFaninAioSharded,
            Size::Quick,
            3,
            Purpose::Timed,
            None,
        );
        let mux = run(Workload::SimFaninMux, Size::Quick, 3, Purpose::Timed, None);
        assert!(!reactor.modelled.contains_key("exs.aio.polls_per_wake"));
        assert!(aio.modelled["exs.aio.polls_per_wake"] > 0.0);
        assert_eq!(aio.modelled["exs.shard.imbalance"], 1.0);
        assert!(mux.modelled["exs.mux.bytes_per_stream"] > 0.0);
        assert!(!reactor.modelled.contains_key("exs.mux.bytes_per_stream"));
    }
}
