//! Async-executor scalability sweep — 1k / 10k concurrent tasks on one
//! service thread, against the callback-mode fan-in baseline.
//!
//! The question this answers: does writing the server as 10k `async`
//! tasks awaiting `recv_some` on one [`exs::aio`] executor cost
//! anything against the hand-rolled callback reactor loop? The async
//! layer adds a waker registry, op queue, and per-task state machine on
//! top of the same reactor — the gate pins that overhead to noise.
//!
//! CI gates (exit non-zero on violation):
//!
//! * at every scale, the async server's delivered digests must equal
//!   the callback server's digests and the closed-form expected digest
//!   (the consumption model may never change the bytes);
//! * at 10k tasks, async aggregate throughput must stay ≥ 0.9× the
//!   callback-mode baseline at the same connection count;
//! * on the real-thread backend, every task must complete on the single
//!   service thread, digest-exact.
//!
//! The thread row is the aio spec of its scale run by
//! `run_fan_in_threaded`: the same tasks on one executor thread, fed by
//! one client executor thread per client node; its Mbit/s are of the
//! run's transfer wall time.
//!
//! Snapshots land in `bench-results/async_scale_{1k,10k}.json`. Quick
//! mode (`EXS_BENCH_QUICK=1`) runs both scales on the simulator but
//! shrinks the threaded demonstration to 1k tasks.

use std::path::Path;

use blast::fan_in::expected_digest;
use blast::{run_fan_in, run_fan_in_threaded, FanInSpec, VerifyLevel};
use exs_bench::quick;
use rdma_verbs::profiles;

const SEED: u64 = 29;
const MSGS: usize = 4;
const MSG_LEN: u64 = 4 << 10;

fn spec_for(conns: usize, aio: bool) -> FanInSpec {
    FanInSpec {
        aio,
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
    let scales: &[(usize, &str)] = &[(1_000, "1k"), (10_000, "10k")];
    let out_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../bench-results");
    let mut violations = 0u32;

    println!();
    println!(
        "=== async_scale: N async tasks on one service thread vs callback server (FDR IB) ==="
    );
    println!(
        "{:>8} {:>10} {:>12} {:>12} {:>8} {:>9} {:>11}",
        "tasks", "mode", "Mbit/s", "wakeups", "polls/w", "ratio", "digests"
    );

    for &(tasks, tag) in scales {
        let callback = run_fan_in(&spec_for(tasks, false));
        let aio = run_fan_in(&spec_for(tasks, true));
        let ratio = if callback.throughput_mbps() > 0.0 {
            aio.throughput_mbps() / callback.throughput_mbps()
        } else {
            1.0
        };
        println!(
            "{:>8} {:>10} {:>12.1} {:>12} {:>8} {:>9} {:>11}",
            tasks,
            "callback",
            callback.throughput_mbps(),
            "-",
            "-",
            "-",
            "-"
        );
        let stats = aio.aio.as_ref().expect("aio run reports executor stats");
        println!(
            "{:>8} {:>10} {:>12.1} {:>12} {:>8.2} {:>8.3}x {:>11}",
            tasks,
            "aio",
            aio.throughput_mbps(),
            stats.wakeups,
            stats.polls as f64 / stats.wakeups.max(1) as f64,
            ratio,
            if aio.digests == callback.digests {
                "identical"
            } else {
                "DIVERGED"
            },
        );
        match aio.write_snapshot(&out_dir, &format!("async_scale_{tag}")) {
            Ok(path) => println!("        snapshot: {}", path.display()),
            Err(e) => eprintln!("        snapshot write failed: {e}"),
        }

        if aio.digests != callback.digests {
            eprintln!("VIOLATION: async delivery diverges from the callback server at {tasks}");
            violations += 1;
        }
        let expected_len = MSGS as u64 * MSG_LEN;
        for (i, &d) in aio.digests.iter().enumerate() {
            if d != expected_digest(SEED, i, expected_len) {
                eprintln!("VIOLATION: task {i} of {tasks} delivered a wrong digest");
                violations += 1;
                break;
            }
        }
        if stats.tasks_completed != tasks as u64 {
            eprintln!(
                "VIOLATION: only {} of {tasks} async tasks completed",
                stats.tasks_completed
            );
            violations += 1;
        }
        if tasks == 10_000 && ratio < 0.9 {
            eprintln!(
                "VIOLATION: 10k-task async throughput is {:.3}x the callback baseline (< 0.9x)",
                ratio
            );
            violations += 1;
        }
    }

    // Real-thread backend: the same aio spec, its tasks on one actual
    // service thread. No callback twin exists here — the gate is
    // completion (the harness panics on an unfinished task) and digest
    // identity, the throughput line is context.
    let thr_tasks = if quick() { 1_000 } else { 10_000 };
    let thread = run_fan_in_threaded(&spec_for(thr_tasks, true));
    let stats = thread.aio.as_ref().expect("aio run reports executor stats");
    println!(
        "{:>8} {:>10} {:>12.1} {:>12} {:>8.2} {:>9} {:>11}",
        thr_tasks,
        "thread",
        thread.wall_mbps(),
        stats.wakeups,
        stats.polls as f64 / stats.wakeups.max(1) as f64,
        "-",
        "checked"
    );
    let expected_len = MSGS as u64 * MSG_LEN;
    let wrong = (0..thr_tasks)
        .find(|&i| thread.digests.get(i) != Some(&expected_digest(SEED, i, expected_len)));
    if let Some(i) = wrong {
        eprintln!("VIOLATION: threaded task {i} delivered a wrong digest");
        violations += 1;
    }

    println!();
    println!("expected shape: the async server tracks the callback server's throughput");
    println!("within noise at both scales — the waker registry and op queue are O(ready),");
    println!("not O(tasks) — and digests never change with the consumption model.");
    if violations > 0 {
        eprintln!("{violations} async_scale violation(s)");
        std::process::exit(1);
    }
}
