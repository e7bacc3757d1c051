//! The metric registry: every name the benchmark prints, with its
//! unit, direction, regression bound and which clock it is read from.
//! `BENCHMARK.json` is generated from these tables.

use crate::json::Json;
use crate::workloads::Workload;

/// Which way is better.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// The two kinds of number this repo has, which must never be mixed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Source {
    /// Virtual time or an exact count from the deterministic simulator:
    /// identical on every run of a seed, on any host. Only a protocol
    /// or model change may move it. (The same counts read on a thread
    /// workload depend on how threads raced and are filed under
    /// `Real`.)
    Modelled,
    /// Host time, host memory, or a count that depends on scheduling.
    Real,
}

impl Source {
    pub fn label(self) -> &'static str {
        match self {
            Source::Modelled => "modelled",
            Source::Real => "real",
        }
    }
}

/// One metric.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end metrics only: the share of the parent's median by
    /// which the metric may worsen before a change is a regression.
    pub bound: Option<f64>,
    pub source: Source,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
        source: Source::Real,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    source: Source,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
        source,
    }
}

use Better::{Higher, Lower};
use Source::{Modelled, Real};

/// What a user of the system sees. All host-side ("real"): measured
/// untraced, one figure over the timed repetitions (`run::estimate`),
/// present and non-zero on every workload.
pub const END_TO_END: [MetricDef; 3] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("host_msgs_per_s", "1/s", Higher, 0.25),
    e2e("peak_rss_mib", "MiB", Lower, 0.1),
];

/// Single-layer metrics. On a workload a metric does not apply to it
/// is absent from `BENCH.json` and reads 0 in the driver's result line.
pub const PER_LAYER: [MetricDef; 54] = [
    // The whole process: user + system CPU time per message. On the
    // simulator (one thread that never blocks) it restates
    // `host_msgs_per_s`; on the thread backend it adds what the service
    // and link threads burn while the generator waits, which depends on
    // how six threads were scheduled on the host's cores and did not
    // hold a bound (README, "Differences from ISSUE 11").
    layer("host_cpu_ns_per_msg", "ns", Lower, Real),
    // The paper's figures, in virtual time.
    layer("model.goodput_gbps", "Gbit/s", Higher, Modelled),
    layer("model.rx_cpu_pct", "%", Lower, Modelled),
    // simnet
    layer("simnet.events_per_msg", "count", Lower, Modelled),
    layer("simnet.host_ns_per_event", "ns", Lower, Real),
    layer("simnet.sched_ns_per_event", "ns", Lower, Real),
    layer("simnet.sched_share", "ratio", Lower, Real),
    layer("simnet.fabric_respeeds", "count", Lower, Modelled),
    layer(
        "simnet.fabric_offered_load_ratio",
        "ratio",
        Higher,
        Modelled,
    ),
    // rdma-verbs
    layer("rdma-verbs.sim_ns_per_wqe", "ns", Lower, Real),
    layer("rdma-verbs.sim_ns_per_byte", "ns", Lower, Real),
    layer("rdma-verbs.thread_ns_per_wqe", "ns", Lower, Real),
    layer("rdma-verbs.thread_ns_per_byte", "ns", Lower, Real),
    layer("rdma-verbs.thread_notifies_per_msg", "count", Lower, Real),
    layer("rdma-verbs.wqes_per_msg", "count", Lower, Modelled),
    layer("rdma-verbs.doorbells_per_msg", "count", Lower, Modelled),
    layer("rdma-verbs.cq_max_batch", "count", Higher, Modelled),
    layer("rdma-verbs.post_send_per_msg", "count", Lower, Modelled),
    layer("rdma-verbs.poll_cq_per_msg", "count", Lower, Modelled),
    layer("rdma-verbs.poll_cq_empty_ratio", "ratio", Lower, Modelled),
    layer(
        "rdma-verbs.copy_mr_bytes_per_byte",
        "ratio",
        Lower,
        Modelled,
    ),
    layer("rdma-verbs.port_ns_per_msg", "ns", Lower, Real),
    layer("rdma-verbs.sim_run_self_ns_per_msg", "ns", Lower, Real),
    // exs
    layer("exs.self_ns_per_msg", "ns", Lower, Real),
    layer("exs.sender_plan_ns", "ns", Lower, Real),
    layer("exs.ctrl_codec_ns", "ns", Lower, Real),
    layer("exs.mempool_hit_ns", "ns", Lower, Real),
    layer("exs.direct_byte_ratio", "ratio", Higher, Modelled),
    layer("exs.mode_switches", "count", Lower, Modelled),
    layer("exs.advert_waste_ratio", "ratio", Lower, Modelled),
    layer("exs.resync_success_ratio", "ratio", Higher, Modelled),
    layer("exs.coalesced_msg_ratio", "ratio", Higher, Modelled),
    layer("exs.unsignaled_ratio", "ratio", Higher, Modelled),
    layer("exs.reactor.cqes_per_poll", "count", Higher, Modelled),
    layer("exs.reactor.deferrals", "count", Lower, Modelled),
    layer("exs.reactor.host_ns_per_cqe", "ns", Lower, Real),
    layer("exs.aio.polls_per_wake", "count", Lower, Modelled),
    layer("exs.aio.spurious_poll_ratio", "ratio", Lower, Modelled),
    layer("exs.shard.imbalance", "ratio", Lower, Modelled),
    layer("exs.mux.bytes_per_stream", "B", Lower, Modelled),
    layer("exs.conn_setup_us", "us", Lower, Real),
    layer("exs.pool.hit_ratio", "ratio", Higher, Real),
    layer("exs.thread.send_call_ns", "ns", Lower, Real),
    layer("exs.thread.wait_send_ns", "ns", Lower, Real),
    layer("exs.thread.recv_call_ns", "ns", Lower, Real),
    layer("exs.thread.wait_recv_ns", "ns", Lower, Real),
    layer("exs.thread.rtt_p50_us", "us", Lower, Real),
    layer("exs.thread.rtt_p99_us", "us", Lower, Real),
    layer("exs.thread.rtt_p999_us", "us", Lower, Real),
    // blast and the benchmark itself
    layer("blast.verify_ns_per_byte", "ns", Lower, Real),
    layer("blast.check_rep_overhead_pct", "%", Lower, Real),
    layer("bench.harness_self_ns_per_msg", "ns", Lower, Real),
    layer("bench.trace_overhead_pct", "%", Lower, Real),
    layer("bench.reps", "count", Higher, Real),
];

/// Looks a metric up in both tables.
pub fn find(name: &str) -> Option<&'static MetricDef> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.name == name)
}

/// Whether a value of metric `def` read on workload `w` must repeat
/// exactly for a seed.
pub fn is_exact(def: &MetricDef, w: Workload) -> bool {
    def.source == Source::Modelled && w.is_sim()
}

/// Seconds one driver run measures for. The reference sandbox changes
/// speed by a fifth or more every few seconds to minutes, so a longer
/// run is a steadier one (README, "Steadiness"). 32 s is what the
/// driver's time budget leaves the four gated workloads: 92 runs and
/// two builds in 57 minutes, each run with its check repetition on top.
pub const RUN_SECONDS: u64 = 32;

/// The contents of `BENCHMARK.json`.
pub fn benchmark_json() -> Json {
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ];
    let metric = |m: &MetricDef| {
        let mut members = vec![
            ("name", Json::str(m.name)),
            ("unit", Json::str(m.unit)),
            ("better", Json::str(m.better.label())),
        ];
        if let Some(bound) = m.bound {
            members.push(("bound", Json::Num(bound)));
        }
        Json::obj(members)
    };
    Json::obj([
        (
            "command",
            Json::Arr(command.iter().map(|s| Json::str(*s)).collect()),
        ),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                Workload::GATED
                    .iter()
                    .map(|w| {
                        Json::obj([("name", Json::str(w.name())), ("why", Json::str(w.why()))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(END_TO_END.iter().map(metric).collect()),
        ),
        (
            "per_layer",
            Json::Arr(PER_LAYER.iter().map(metric).collect()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    /// Names the driver accepts: at most 64 of `[A-Za-z0-9_.-]`, starting
    /// with a letter or digit.
    fn valid_name(name: &str) -> bool {
        let mut chars = name.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.len() <= 64
            && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    /// Units the driver accepts: at most 16 of `[A-Za-z0-9_/%.-]`.
    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn names_and_units_fit_the_driver_charset() {
        let mut seen = HashSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(valid_name(m.name), "bad name {:?}", m.name);
            assert!(valid_unit(m.unit), "bad unit {:?} on {}", m.unit, m.name);
            assert!(seen.insert(m.name), "duplicate metric {}", m.name);
        }
        for w in Workload::ALL {
            assert!(valid_name(w.name()));
            assert!(seen.insert(w.name()), "name {} used twice", w.name());
        }
        assert!(valid_name("a.b-c_d9"));
        for bad in ["", ".x", "-x", "a b", "a/b", "é", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad:?} accepted");
        }
        assert!(valid_unit("1/s") && valid_unit("%") && valid_unit("Gbit/s"));
        assert!(!valid_unit("") && !valid_unit("a b") && !valid_unit(&"u".repeat(17)));
    }

    #[test]
    fn end_to_end_meets_the_contract() {
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
        let setup = find("setup_s").expect("setup_s is mandatory");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        // setup_s carries the largest bound.
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
    }

    #[test]
    fn committed_benchmark_json_is_the_generated_one() {
        let committed = include_str!("../../BENCHMARK.json");
        assert_eq!(
            Json::parse(committed).expect("BENCHMARK.json parses"),
            benchmark_json(),
            "regenerate with `cargo run --manifest-path benchmark/Cargo.toml -- --emit-benchmark-json`"
        );
        assert!(committed.len() <= 64 << 10);
    }
}
