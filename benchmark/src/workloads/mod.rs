//! The seven workloads and what one repetition of each returns.
//!
//! All are closed loops: the generator issues the next message only
//! once an earlier one completed (a fixed number in flight). Traffic
//! never leaves the process — `sim_*` workloads run the deterministic
//! simulator on the calling thread, `thread_*` workloads run the
//! thread backend's in-memory "link" — so nothing here is a real-NIC
//! number.

pub mod fan_in;
pub mod sim_blast;
pub mod thread;

use std::collections::BTreeMap;
use std::time::Instant;

use exs::messages::MAX_WWI_LEN;
use exs::{
    ConnStats, DirectPolicy, ExsConfig, MemPoolConfig, MuxAssignment, MuxConfig, ProtocolMode,
    ShardConfig, ShardPolicy, WwiMode,
};

use crate::procfs::process_cpu;

/// Metric values by name.
pub type Values = BTreeMap<&'static str, f64>;

/// One workload of the benchmark.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    SimBlastPaper,
    SimBlastSmall,
    SimFaninReactor,
    SimFaninAioSharded,
    SimFaninMux,
    ThreadStreamBulk,
    ThreadPingpong,
}

impl Workload {
    pub const ALL: [Workload; 7] = [
        Workload::SimBlastPaper,
        Workload::SimBlastSmall,
        Workload::SimFaninReactor,
        Workload::SimFaninAioSharded,
        Workload::SimFaninMux,
        Workload::ThreadStreamBulk,
        Workload::ThreadPingpong,
    ];

    /// The workloads `BENCHMARK.json` lists: the ones the PR driver runs
    /// and holds to the bounds. The driver's time budget is fixed, so
    /// every workload listed shortens every run, and on the reference
    /// host a run's figure steadies only with its length (README,
    /// "Steadiness"). These four keep one workload per layer path: per
    /// byte, per event, many connections through the reactor, and the
    /// thread backend. The other three run with `--all` like the rest
    /// and are reported in `BENCH.json`, but nothing gates them:
    /// `sim_fanin_aio_sharded` and `sim_fanin_mux` share the fan-in
    /// harness, fabric and verbs layers with `sim_fanin_reactor`, and
    /// `thread_stream_bulk` uses the layers of `thread_pingpong`.
    pub const GATED: [Workload; 4] = [
        Workload::SimBlastPaper,
        Workload::SimBlastSmall,
        Workload::SimFaninReactor,
        Workload::ThreadPingpong,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SimBlastPaper => "sim_blast_paper",
            Workload::SimBlastSmall => "sim_blast_small",
            Workload::SimFaninReactor => "sim_fanin_reactor",
            Workload::SimFaninAioSharded => "sim_fanin_aio_sharded",
            Workload::SimFaninMux => "sim_fanin_mux",
            Workload::ThreadStreamBulk => "thread_stream_bulk",
            Workload::ThreadPingpong => "thread_pingpong",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload is in the set (one line, goes into
    /// `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::SimBlastPaper => {
                "paper Fig. 9 point: 1:1 blast, exponential sizes to 4 MiB, all direct; \
                 host time is per-byte work in the HCA model"
            }
            Workload::SimBlastSmall => {
                "same 1:1 blast at fixed 512 B, nearly all indirect; host time is per-event \
                 work: scheduler, WQE/CQE handling, exs txpipe and ring copies"
            }
            Workload::SimFaninReactor => {
                "512 conns from 8 nodes into one callback Reactor on a fair-share fabric: \
                 CQE dispatch, shared CQs, many QPs, fabric re-speeding"
            }
            Workload::SimFaninAioSharded => {
                "same fan-in served by exs::aio tasks on 4 reactor shards: the second \
                 serving stack, against the callback path"
            }
            Workload::SimFaninMux => {
                "2048 streams multiplexed on pooled QPs: the second protocol and per-stream \
                 state; moves set-up time and peak memory"
            }
            Workload::ThreadStreamBulk => {
                "real threads, no simulator: 64 KiB messages 4 deep over one ThreadStream \
                 pair; HCA mutex, service-thread wakes, byte copies"
            }
            Workload::ThreadPingpong => {
                "64 B send_bytes/recv_exact round trips on the thread backend: same layers \
                 for latency, pool-leased staging; batching delay shows as a loss"
            }
        }
    }

    /// True for workloads on the deterministic simulator, whose
    /// modelled values and counts repeat exactly for a seed.
    pub fn is_sim(self) -> bool {
        !matches!(self, Workload::ThreadStreamBulk | Workload::ThreadPingpong)
    }
}

/// How much work one repetition does.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    /// Repetitions of about a second on the reference 2-thread host.
    Full,
    /// Smoke size: same code paths and metric names, an eighth or less
    /// of the work.
    Quick,
}

/// What a repetition is for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Purpose {
    /// Timed: payloads are neither generated nor read back, only byte
    /// counts are checked.
    Timed,
    /// Untimed check: every payload byte follows the seeded pattern and
    /// per-stream digests are compared with the closed form.
    Check,
}

/// The outcome of one repetition.
#[derive(Clone, Debug, Default)]
pub struct Rep {
    /// Messages (round trips for ping-pong) attempted.
    pub msgs: u64,
    /// Messages not delivered byte-exact.
    pub failed: u64,
    /// Set-up time: connections, QPs, memory registration.
    pub setup_s: f64,
    /// Wall time of the transfer.
    pub wall_s: f64,
    /// Process CPU time (user + system, all threads) over the public
    /// call.
    pub cpu_s: f64,
    /// Virtual-time results and exact counts; empty on thread workloads.
    pub modelled: Values,
    /// Host-time per-layer values and counts that are not exact.
    pub real: Values,
    /// Round-trip times in nanoseconds (ping-pong only).
    pub rtts_ns: Vec<f64>,
}

/// Times `f`, returning its result with wall seconds and process CPU
/// seconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64, f64) {
    let cpu0 = process_cpu();
    let t0 = Instant::now();
    let r = f();
    let wall = t0.elapsed().as_secs_f64();
    let cpu = process_cpu().saturating_sub(cpu0).as_secs_f64();
    (r, wall, cpu)
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Per-message work and protocol outcomes read from the sending and
/// receiving side's `ConnStats` (summed over connections on fan-ins).
pub fn conn_counts(tx: &ConnStats, rx: &ConnStats, msgs: u64) -> Values {
    let msgs = msgs as f64;
    Values::from([
        (
            "rdma-verbs.wqes_per_msg",
            (tx.wqes_posted + rx.wqes_posted) as f64 / msgs,
        ),
        (
            "rdma-verbs.doorbells_per_msg",
            (tx.doorbells + rx.doorbells) as f64 / msgs,
        ),
        (
            "rdma-verbs.cq_max_batch",
            tx.cq_max_batch.max(rx.cq_max_batch) as f64,
        ),
        ("exs.direct_byte_ratio", tx.direct_byte_ratio()),
        ("exs.mode_switches", tx.mode_switches as f64),
        (
            "exs.advert_waste_ratio",
            ratio(tx.adverts_discarded as f64, rx.adverts_sent as f64),
        ),
        (
            "exs.resync_success_ratio",
            ratio(tx.resyncs_completed as f64, tx.resyncs_attempted as f64),
        ),
        ("exs.coalesced_msg_ratio", tx.coalesced_msgs as f64 / msgs),
        ("exs.unsignaled_ratio", tx.unsignaled_ratio()),
    ])
}

/// Every `ExsConfig` knob written out, so that a changed library
/// default cannot move a benchmark number: a field a later PR adds fails
/// to compile here until it is given a value. Fields whose `0` means
/// "derive from another field" carry the derived value.
fn explicit_cfg(
    ring_capacity: u64,
    credits: u32,
    sq_depth: usize,
    direct: DirectPolicy,
) -> ExsConfig {
    ExsConfig {
        mode: ProtocolMode::Dynamic,
        wwi_mode: WwiMode::Native,
        ring_capacity,
        credits,
        ack_threshold: ring_capacity / 8,
        credit_return_threshold: credits / 4,
        max_wwi_chunk: MAX_WWI_LEN,
        sq_depth,
        tx_batch_limit: sq_depth.min(64),
        signal_interval: (sq_depth / 4).clamp(1, 16),
        coalesce_threshold: 256,
        pool: MemPoolConfig {
            pinned_budget: 64 << 20,
            min_class: 4096,
        },
        direct,
        mux: MuxConfig {
            enabled: false,
            qp_pool_size: 4,
            assignment: MuxAssignment::RoundRobin,
            stream_window: 0,
        },
        shard: ShardConfig {
            shards: 1,
            policy: ShardPolicy::RoundRobin,
        },
    }
}

/// The single-connection configuration (`sim_blast_*`, `thread_*`):
/// the paper's protocol as published, adaptive re-entry off.
pub fn conn_cfg() -> ExsConfig {
    explicit_cfg(
        16 << 20,
        1024,
        4096,
        DirectPolicy {
            min_direct_size: 0,
            resync_backlog: 0,
            max_resync_rtts: 0,
        },
    )
}

/// The many-connection configuration (`sim_fanin_*`): per-connection
/// budgets a 512-way fan-in can afford, adaptive direct re-entry on.
pub fn fan_in_cfg() -> ExsConfig {
    explicit_cfg(
        64 << 10,
        16,
        16,
        DirectPolicy {
            min_direct_size: 4 << 10,
            resync_backlog: 64 << 10,
            max_resync_rtts: 2,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_names_round_trip_and_are_unique() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
            assert!(w.why().len() <= 200, "{} why too long", w.name());
            assert!(!w.why().contains('\n'));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }

    #[test]
    fn explicit_configs_are_valid() {
        for cfg in [conn_cfg(), fan_in_cfg()] {
            cfg.validate().expect("valid config");
        }
    }
}
