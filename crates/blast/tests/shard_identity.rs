//! Sharding is routing, not protocol: delivered bytes must be
//! bit-identical whatever the shard count, server
//! consumption model (callback vs async) or backend (deterministic sim
//! vs real threads). Every test pins the digests to the same closed
//! form, `expected_digest`, so the identity is transitive across all of
//! them.

use blast::fan_in::expected_digest;
use blast::{run_fan_in, run_fan_in_threaded, FanInReport, FanInSpec, VerifyLevel};
use rdma_verbs::profiles;

const SEED: u64 = 61;
const CONNS: usize = 12;
const MSGS: usize = 3;
const MSG_LEN: u64 = 4 << 10;
const EXPECTED: u64 = MSGS as u64 * MSG_LEN;

fn spec(shards: usize, aio: bool) -> FanInSpec {
    FanInSpec {
        shards,
        aio,
        msgs_per_conn: MSGS,
        msg_len: MSG_LEN,
        client_nodes: 4,
        verify: VerifyLevel::Full,
        seed: SEED,
        ..FanInSpec::new(profiles::fdr_infiniband(), CONNS)
    }
}

fn assert_expected(digests: &[u64], what: &str) {
    assert_eq!(digests.len(), CONNS, "{what}: digest per connection");
    for (i, &d) in digests.iter().enumerate() {
        assert_eq!(
            d,
            expected_digest(SEED, i, EXPECTED),
            "{what}: conn {i} digest moved"
        );
    }
}

/// shards=1 vs shards=4 on the simulator: digest-for-digest identical,
/// and both equal the closed form.
#[test]
fn sim_digests_identical_across_shard_counts() {
    let single = run_fan_in(&spec(1, false));
    assert_expected(&single.digests, "1 shard");
    for shards in [2usize, 4] {
        let sharded = run_fan_in(&spec(shards, false));
        assert_eq!(
            single.digests, sharded.digests,
            "{shards}-shard delivery diverged from the single-shard run"
        );
        let rows = sharded
            .shard_stats
            .expect("sharded run reports per-shard telemetry");
        assert_eq!(rows.len(), shards);
        assert!(
            rows.iter().all(|s| s.assigned == (CONNS / shards) as u64),
            "round-robin must spread {CONNS} conns evenly over {shards} shards: {rows:?}"
        );
        assert!(
            rows.iter().all(|s| s.cqes_dispatched > 0),
            "round-robin over {shards} shards must exercise every shard"
        );
    }
}

/// Pooled endpoints are placed on shards like sockets — one per client
/// node here, two to a shard — and deliver the same bytes as the
/// single-loop callback server over private QPs.
#[test]
fn mux_sharded_matches_callback() {
    let callback = run_fan_in(&spec(1, false));
    let mux = run_fan_in(&FanInSpec {
        mux: true,
        ..spec(2, false)
    });
    assert_eq!(
        callback.digests, mux.digests,
        "sharded mux server diverged from the callback server"
    );
    assert_expected(&mux.digests, "mux x2");
    assert_eq!(mux.per_conn.len(), 4, "one endpoint per client node");
    assert_eq!(mux.reactor.conns_added, 4, "each counted by its shard");
}

/// One row of the identity matrix, on both backends: the spec's digests
/// equal the closed form on the simulator and on real threads (so the
/// backends agree digest for digest), and each places every connection
/// exactly once.
fn row(spec: &FanInSpec, what: &str) -> [FanInReport; 2] {
    let runs = [run_fan_in(spec), run_fan_in_threaded(spec)];
    for (backend, run) in ["sim", "thread"].into_iter().zip(&runs) {
        assert_expected(&run.digests, &format!("{what} on {backend}"));
        let rows = run.shard_stats.as_ref().expect("per-shard telemetry");
        assert_eq!(
            rows.len(),
            spec.shards,
            "{what} on {backend}: a row per shard"
        );
        assert_eq!(
            rows.iter().map(|s| s.assigned).sum::<u64>(),
            CONNS as u64,
            "{what} on {backend}: every connection placed once"
        );
    }
    runs
}

/// Placement moves connections between shards, never bytes within a
/// stream: blocking server ends behind one and four shards, on both
/// backends.
#[test]
fn thread_pool_blocking_rows_match_sim() {
    for shards in [1usize, 4] {
        row(&spec(shards, false), &format!("x{shards}"));
    }
}

/// The async per-task server, one executor per shard, delivers the same
/// bytes as the callback server, one server task per connection.
#[test]
fn thread_pool_aio_rows_match_sim() {
    for shards in [1usize, 4] {
        for run in row(&spec(shards, true), "aio") {
            let per_shard = run.aio_per_shard.expect("per-shard executor stats");
            assert_eq!(per_shard.len(), shards);
            let tasks: u64 = per_shard.iter().map(|s| s.tasks_completed).sum();
            assert_eq!(tasks, CONNS as u64, "aio x{shards}: a task per connection");
        }
    }
}

/// Odd-sized receive splits over a 4-shard `ThreadReactorPool` deliver
/// the closed-form digests too; round-robin spreads the connections
/// evenly, and the pool closes every server end it hosted.
#[test]
fn thread_pool_sharded_digests_match_sim() {
    let spec = FanInSpec {
        recv_len: 1500, // deliberately not a divisor of MSG_LEN
        ..spec(4, false)
    };
    let [_, thread] = row(&spec, "x4, 1500-byte receives");
    let rows = thread.shard_stats.expect("per-shard telemetry");
    assert!(
        rows.iter().all(|s| s.assigned == 3 && s.conns == 3),
        "round-robin over 4 shards must spread {CONNS} conns evenly: {rows:?}"
    );
    assert_eq!(thread.reactor.conns_added, CONNS as u64);
    assert_eq!(thread.reactor.conns_removed, CONNS as u64);
}
