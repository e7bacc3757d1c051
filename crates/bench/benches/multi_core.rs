//! Multi-core reactor sweep — the same fan-in carried by 1 / 2 / 4 / 8
//! reactor shards, on both backends.
//!
//! The question this answers: does sharding the reactor (N reactors
//! behind one `Placement`, DESIGN §17) actually buy event-loop
//! throughput on real cores, and does it buy it **without changing a
//! single delivered byte**? Per-connection EXS state is independent, so
//! the sharded server must produce digest-for-digest the same streams
//! as the single-loop server and as the deterministic simulator.
//!
//! Each shard count is one `FanInSpec`, run by `run_fan_in` on the
//! simulator and by `run_fan_in_threaded` on real threads, where the
//! server is a `ThreadReactorPool` of that many shards (one service
//! thread each, connections placed by the same `Placement`) and every
//! connection's two ends are blocking threads that verify and digest
//! their stream.
//!
//! CI gates (exit non-zero on violation):
//!
//! * at every simulated shard count, delivered digests must equal the
//!   single-shard run's digests and the closed-form expected digest
//!   (placement may never change the bytes);
//! * the simulated placement must be balanced: round-robin imbalance
//!   (max/mean conns per shard) stays 1.0;
//! * on the real-thread backend every shard-count run must be
//!   digest-exact against the same closed form (and a run that stalls
//!   or fails a check panics).
//!
//! The thread rows print Mbit/s of the run's transfer wall time and
//! their speedup over the single-shard run; it is a measurement of the
//! host, not a gate.
//!
//! Snapshots land in `bench-results/multi_core_{1,2,4,8}shards.json`
//! (simulator runs: full per-shard telemetry rides in the `shards`
//! JSON block). Quick mode (`EXS_BENCH_QUICK=1`) runs 512 connections,
//! full mode 2048, on both backends.

use std::path::Path;

use blast::fan_in::expected_digest;
use blast::{run_fan_in, run_fan_in_threaded, FanInSpec, VerifyLevel};
use exs::ShardBalance;
use exs_bench::quick;
use rdma_verbs::profiles;

const SEED: u64 = 31;
const MSGS: usize = 4;
const MSG_LEN: u64 = 16 << 10;
const SHARD_COUNTS: &[usize] = &[1, 2, 4, 8];

fn spec_for(conns: usize, shards: usize) -> FanInSpec {
    FanInSpec {
        shards,
        msgs_per_conn: MSGS,
        msg_len: MSG_LEN,
        outstanding_sends: 2,
        prepost_recvs: 2,
        client_nodes: 8,
        verify: VerifyLevel::Full,
        seed: SEED,
        ..FanInSpec::new(profiles::fdr_infiniband(), conns)
    }
}

fn main() {
    let conns = if quick() { 512 } else { 2048 };
    let out_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../bench-results");
    let mut violations = 0u32;
    let expected_len = MSGS as u64 * MSG_LEN;
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    println!();
    println!(
        "=== multi_core: fan-in over 1/2/4/8 reactor shards (FDR IB sim + thread backend) ==="
    );
    println!("{conns} conns on each backend, {cores} hardware threads");
    println!(
        "{:>7} {:>8} {:>12} {:>10} {:>10} {:>9} {:>11}",
        "shards", "backend", "Mbit/s", "imbalance", "polls", "speedup", "digests"
    );

    let mut baseline_digests: Option<Vec<u64>> = None;
    let mut thr_baseline = None;
    for &shards in SHARD_COUNTS {
        let spec = spec_for(conns, shards);

        // --- Simulator: digest identity + placement balance. ---
        let report = run_fan_in(&spec);
        let shard_stats = report
            .shard_stats
            .as_ref()
            .expect("sharded-capable run reports per-shard telemetry");
        assert_eq!(shard_stats.len(), shards);
        let bal = ShardBalance::of(shard_stats);
        let identical = match &baseline_digests {
            None => {
                baseline_digests = Some(report.digests.clone());
                true
            }
            Some(base) => *base == report.digests,
        };
        println!(
            "{:>7} {:>8} {:>12.1} {:>10.3} {:>10} {:>9} {:>11}",
            shards,
            "sim",
            report.throughput_mbps(),
            bal.imbalance(),
            report.reactor.polls,
            "-",
            if identical { "identical" } else { "DIVERGED" },
        );
        match report.write_snapshot(&out_dir, &format!("multi_core_{shards}shards")) {
            Ok(path) => println!("        snapshot: {}", path.display()),
            Err(e) => eprintln!("        snapshot write failed: {e}"),
        }

        if !identical {
            eprintln!("VIOLATION: {shards}-shard delivery diverges from the single-shard run");
            violations += 1;
        }
        for (i, &d) in report.digests.iter().enumerate() {
            if d != expected_digest(SEED, i, expected_len) {
                eprintln!("VIOLATION: sim conn {i} at {shards} shards delivered a wrong digest");
                violations += 1;
                break;
            }
        }
        // conns is a multiple of every swept shard count, so
        // round-robin placement must come out perfectly even.
        if (bal.imbalance() - 1.0).abs() > 1e-9 {
            eprintln!(
                "VIOLATION: round-robin placement imbalance {:.3} at {shards} shards",
                bal.imbalance()
            );
            violations += 1;
        }

        // --- Thread backend: the actual multi-core scaling measurement. ---
        let thread = run_fan_in_threaded(&spec);
        let wall = thread.transfer_wall.as_secs_f64();
        let speedup = *thr_baseline.get_or_insert(wall) / wall;
        let wrong = (0..conns)
            .find(|&i| thread.digests.get(i) != Some(&expected_digest(SEED, i, expected_len)));
        if let Some(i) = wrong {
            eprintln!("VIOLATION: threaded conn {i} at {shards} shards delivered a wrong digest");
            violations += 1;
        }
        let thr_bal = ShardBalance::of(thread.shard_stats.as_deref().unwrap_or_default());
        println!(
            "{:>7} {:>8} {:>12.1} {:>10.3} {:>10} {:>8.2}x {:>11}",
            shards,
            "thread",
            thread.wall_mbps(),
            thr_bal.imbalance(),
            thread.reactor.polls,
            speedup,
            if wrong.is_none() {
                "identical"
            } else {
                "DIVERGED"
            },
        );
    }

    println!();
    println!("expected shape: digests never move with the shard count — placement is");
    println!("routing, not protocol — and round-robin keeps the shards level; on a");
    println!("multi-core host the per-shard service threads poll their shards in");
    println!("parallel, which the thread rows' speedup column shows.");
    if violations > 0 {
        eprintln!("{violations} multi_core violation(s)");
        std::process::exit(1);
    }
}
