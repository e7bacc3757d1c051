//! Sharding is routing, not protocol: delivered bytes must be
//! bit-identical whatever the shard count, placement policy, server
//! consumption model (callback vs async) or backend (deterministic sim
//! vs real threads). Every test pins the digests to the same closed
//! form, `expected_digest`, so the identity is transitive across all of
//! them.

use std::sync::Arc;
use std::time::Duration;

use blast::fan_in::{expected_digest, fnv1a, payload_byte, FNV_OFFSET};
use blast::{run_fan_in, FanInSpec, VerifyLevel};
use exs::{ExsConfig, ShardConfig, ShardPolicy, ThreadPort, ThreadReactorPool, VerbsPort};
use rdma_verbs::{profiles, Access, HcaConfig, ThreadNet};

const SEED: u64 = 61;
const CONNS: usize = 12;
const MSGS: usize = 3;
const MSG_LEN: u64 = 4 << 10;
const EXPECTED: u64 = MSGS as u64 * MSG_LEN;

fn spec(shards: usize, policy: ShardPolicy, aio: bool) -> FanInSpec {
    FanInSpec {
        shards,
        shard_policy: policy,
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
    let single = run_fan_in(&spec(1, ShardPolicy::RoundRobin, false));
    assert_expected(&single.digests, "1 shard");
    for shards in [2usize, 4] {
        let sharded = run_fan_in(&spec(shards, ShardPolicy::RoundRobin, false));
        assert_eq!(
            single.digests, sharded.digests,
            "{shards}-shard delivery diverged from the single-shard run"
        );
        let rows = sharded
            .shard_stats
            .expect("sharded run reports per-shard telemetry");
        assert_eq!(rows.len(), shards);
        assert_eq!(rows.iter().map(|s| s.assigned).sum::<u64>(), CONNS as u64);
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
    let callback = run_fan_in(&spec(1, ShardPolicy::RoundRobin, false));
    let mux = run_fan_in(&FanInSpec {
        mux: true,
        ..spec(2, ShardPolicy::RoundRobin, false)
    });
    assert_eq!(
        callback.digests, mux.digests,
        "sharded mux server diverged from the callback server"
    );
    assert_expected(&mux.digests, "mux x2");
    assert_eq!(mux.per_conn.len(), 4, "one endpoint per client node");
    assert_eq!(mux.reactor.conns_added, 4, "each counted by its shard");
}

/// The async per-task server over a 4-way sharded driver delivers the
/// same bytes as the single-loop callback server.
#[test]
fn aio_sharded_matches_callback() {
    let callback = run_fan_in(&spec(1, ShardPolicy::RoundRobin, false));
    let aio = run_fan_in(&spec(4, ShardPolicy::RoundRobin, true));
    assert_eq!(
        callback.digests, aio.digests,
        "sharded aio server diverged from the callback server"
    );
    assert_expected(&aio.digests, "aio x4");
    let per_shard = aio
        .aio_per_shard
        .expect("sharded aio run reports per-shard executor stats");
    assert_eq!(per_shard.len(), 4);
    assert_eq!(
        per_shard.iter().map(|s| s.tasks_completed).sum::<u64>(),
        CONNS as u64,
        "one server task per connection, spread over the shard executors"
    );
}

/// Placement policy moves connections between shards, never bytes
/// within a stream: LeastLoaded and Affinity runs are digest-identical
/// to RoundRobin.
#[test]
fn placement_policies_deliver_identical_bytes() {
    let rr = run_fan_in(&spec(4, ShardPolicy::RoundRobin, false));
    assert_expected(&rr.digests, "round-robin x4");
    for policy in [ShardPolicy::LeastLoaded, ShardPolicy::Affinity] {
        let run = run_fan_in(&spec(4, policy, false));
        assert_eq!(
            rr.digests, run.digests,
            "{policy:?} placement changed delivered bytes"
        );
        let rows = run.shard_stats.expect("per-shard telemetry");
        assert_eq!(rows.iter().map(|s| s.assigned).sum::<u64>(), CONNS as u64);
    }
    // Affinity keys off the client node, and with 4 nodes over 4 shards
    // each shard hosts exactly one node's connections.
    let affinity = run_fan_in(&spec(4, ShardPolicy::Affinity, false));
    assert_eq!(affinity.digests, rr.digests);
}

/// The real-thread backend behind a 4-shard `ThreadReactorPool`
/// (server ends are blocking `ThreadStream`s, one service thread per
/// shard, odd-sized receive splits) delivers the same closed-form digests as the
/// simulator runs above — the cross-backend leg of the identity.
#[test]
fn thread_pool_sharded_digests_match_sim() {
    const RECV_LEN: u32 = 1500; // deliberately not a divisor of MSG_LEN
    let cfg = ExsConfig {
        ring_capacity: 16 << 10,
        credits: 8,
        sq_depth: 8,
        shard: ShardConfig {
            shards: 4,
            policy: ShardPolicy::RoundRobin,
        },
        ..ExsConfig::default()
    };
    let mut net = ThreadNet::new();
    let server_node = net.add_node(HcaConfig::default());
    let client_nodes: Vec<_> = (0..3).map(|_| net.add_node(HcaConfig::default())).collect();
    for c in &client_nodes {
        net.connect_nodes(c, &server_node, Duration::from_micros(5));
    }
    let net = Arc::new(net);
    let pool = ThreadReactorPool::new(
        net.clone(),
        server_node.clone(),
        Default::default(),
        &cfg,
        CONNS,
    );
    assert_eq!(pool.shards(), 4);

    let mut servers = Vec::with_capacity(CONNS);
    let mut clients = Vec::with_capacity(CONNS);
    for idx in 0..CONNS {
        let (server, client) = pool.accept(&client_nodes[idx % client_nodes.len()], &cfg);
        servers.push(server);
        clients.push((idx, client));
    }
    let rows = pool.shard_stats();
    assert_eq!(rows.iter().map(|s| s.assigned).sum::<u64>(), CONNS as u64);
    assert!(
        rows.iter().all(|s| s.conns == (CONNS / 4) as u64),
        "round-robin over 4 shards must spread {CONNS} conns evenly: {rows:?}"
    );

    let digests = std::thread::scope(|s| {
        let consumers: Vec<_> = servers
            .iter()
            .map(|server| {
                let net = &net;
                s.spawn(move || {
                    let mr = server.register(RECV_LEN as usize, Access::local_remote_write());
                    let mut digest = FNV_OFFSET;
                    let mut received = 0u64;
                    let mut buf = vec![0u8; RECV_LEN as usize];
                    // One extra receive past the payload picks up the
                    // zero-length EOF completion.
                    loop {
                        let id = server.recv(&mr, 0, RECV_LEN, false);
                        let len = server
                            .wait_recv(id, Duration::from_secs(30))
                            .expect("server receive timed out");
                        if len == 0 {
                            assert_eq!(received, EXPECTED, "EOF before the full stream");
                            break;
                        }
                        let port = ThreadPort::new(net, server.node());
                        port.read_mr(mr.key, mr.addr, &mut buf[..len as usize])
                            .expect("read delivered bytes");
                        digest = fnv1a(digest, &buf[..len as usize]);
                        received += len as u64;
                    }
                    assert!(server.peer_closed());
                    // A graceful close: each side ends its stream and
                    // reads the other's end before it closes.
                    server.shutdown();
                    digest
                })
            })
            .collect();

        let client_threads: Vec<_> = clients
            .into_iter()
            .map(|(idx, stream)| {
                s.spawn(move || {
                    let mut stream = stream;
                    for m in 0..MSGS {
                        let base = m as u64 * MSG_LEN;
                        let data: Vec<u8> = (0..MSG_LEN)
                            .map(|i| payload_byte(SEED, idx, base + i))
                            .collect();
                        stream.send_bytes(&data).expect("client send");
                    }
                    stream.shutdown();
                    let eof = stream.register(1, Access::local_remote_write());
                    let id = stream.recv(&eof, 0, 1, false);
                    assert_eq!(stream.wait_recv(id, Duration::from_secs(30)), Some(0));
                    stream.close();
                })
            })
            .collect();
        for c in client_threads {
            c.join().expect("client thread");
        }
        consumers
            .into_iter()
            .map(|h| h.join().expect("server consumer"))
            .collect::<Vec<u64>>()
    });

    assert_expected(&digests, "thread pool x4");
    // Same closed form the sim runs pin to — backend identity without
    // rerunning the simulator here.
    let sim = run_fan_in(&spec(4, ShardPolicy::RoundRobin, false));
    assert_eq!(sim.digests, digests, "thread backend diverged from sim");

    for mut server in servers {
        server.close();
    }
    let merged = pool.reactor_stats();
    assert_eq!(merged.conns_added, CONNS as u64);
    assert_eq!(merged.conns_removed, CONNS as u64);
    drop(pool);
    net.quiesce();
}
