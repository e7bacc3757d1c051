//! Cross-backend / cross-consumption-model identity for `exs::aio`:
//! the async front-end must deliver byte-for-byte what the callback
//! reactor loop delivers, and the same async program must produce
//! identical digests on the deterministic simulator and the
//! real-thread fabric. FNV-1a folds chunk-by-chunk, so digest equality
//! pins the byte *order* as well as the contents, independent of how
//! `recv_some` happens to slice the stream.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use rdma_stream::blast::fan_in::{expected_digest, fnv1a, FNV_OFFSET};
use rdma_stream::blast::{run_fan_in, FanInSpec, VerifyLevel};
use rdma_stream::exs::threaded::connect_sockets_shared;
use rdma_stream::exs::{
    Executor, ExsConfig, ExsError, Reactor, ReactorConfig, SimShardDriver, StreamSocket,
};
use rdma_stream::simnet::SimTime;
use rdma_stream::verbs::{profiles, HcaConfig, NodeApp, NodeId, SimNet, ThreadNet};

const CONNS: usize = 4;
const ROUNDS: usize = 3;
const MSG: usize = 4096;

fn pattern(conn: usize, round: usize, i: usize) -> u8 {
    (i.wrapping_mul(31) ^ conn.wrapping_mul(7) ^ round.wrapping_mul(131)) as u8
}

/// What each client's echo digest must be, computed without any
/// transport: the echo returns exactly the bytes sent, in order.
fn expected_echo_digest(conn: usize) -> u64 {
    let mut h = FNV_OFFSET;
    for round in 0..ROUNDS {
        let data: Vec<u8> = (0..MSG).map(|i| pattern(conn, round, i)).collect();
        h = fnv1a(h, &data);
    }
    h
}

fn echo_cfg() -> ExsConfig {
    ExsConfig {
        ring_capacity: 64 << 10,
        credits: 8,
        sq_depth: 16,
        ..ExsConfig::default()
    }
}

/// The async echo client body, shared by both backends: ping-pong
/// `ROUNDS` messages, folding the digest of every echoed chunk in
/// arrival order, then exchange clean end-of-stream.
async fn echo_client(stream: rdma_stream::exs::AsyncStream, conn: usize, digest: Rc<RefCell<u64>>) {
    for round in 0..ROUNDS {
        let data: Vec<u8> = (0..MSG).map(|i| pattern(conn, round, i)).collect();
        stream.send_all(data).await.expect("client send");
        let mut got = 0;
        while got < MSG {
            let chunk = stream.recv_some(MSG - got).await.expect("client recv");
            got += chunk.len();
            let mut d = digest.borrow_mut();
            *d = fnv1a(*d, &chunk);
        }
    }
    stream.shutdown().await.expect("client shutdown");
    match stream.recv_some(1).await {
        Err(ExsError::Eof) => {}
        other => panic!("conn {conn} expected EOF, got {other:?}"),
    }
}

/// The async echo server body: await bytes, send them straight back,
/// half-close after the client's EOF.
async fn echo_server(stream: rdma_stream::exs::AsyncStream) {
    loop {
        match stream.recv_some(MSG).await {
            Ok(bytes) => stream.send_all(bytes).await.expect("echo send"),
            Err(ExsError::Eof) => break,
            Err(e) => panic!("echo failed: {e}"),
        }
    }
    stream.shutdown().await.expect("echo shutdown");
}

/// Runs the echo workload on the simulator; returns per-conn digests.
fn sim_echo_digests() -> Vec<u64> {
    let cfg = echo_cfg();
    let profile = profiles::fdr_infiniband();
    let mut net = SimNet::new();
    net.set_host_seed(42);
    let server_node = net.add_node(profile.host.clone(), profile.hca.clone());
    let client_nodes: Vec<NodeId> = (0..CONNS)
        .map(|_| net.add_node(profile.host.clone(), profile.hca.clone()))
        .collect();
    for (i, &c) in client_nodes.iter().enumerate() {
        net.connect_nodes(c, server_node, profile.link.clone(), i as u64);
    }

    let depth = cfg.cq_depth(CONNS);
    let (send_cq, recv_cq) = net.with_api(server_node, |api| {
        (api.create_cq(depth), api.create_cq(depth))
    });
    let mut server_reactor = Reactor::new(send_cq, recv_cq, ReactorConfig::default());

    let mut clients = Vec::with_capacity(CONNS);
    for (idx, &cnode) in client_nodes.iter().enumerate() {
        let (csock, ssock) =
            StreamSocket::pair_shared(&mut net, cnode, server_node, send_cq, recv_cq, &cfg);
        let conn = server_reactor.accept(ssock);
        clients.push((idx, csock, conn));
    }

    let server_ex = Executor::new(server_reactor);
    let digests: Vec<Rc<RefCell<u64>>> = (0..CONNS)
        .map(|_| Rc::new(RefCell::new(FNV_OFFSET)))
        .collect();
    let mut client_drivers = Vec::with_capacity(CONNS);
    for (idx, csock, conn) in clients {
        let stream = server_ex.handle().stream_with(conn, MSG as u32, 2);
        server_ex.handle().spawn(echo_server(stream));

        let mut reactor = Reactor::new(csock.send_cq(), csock.recv_cq(), ReactorConfig::default());
        let cconn = reactor.accept(csock);
        let ex = Executor::new(reactor);
        let stream = ex.handle().stream_with(cconn, MSG as u32, 2);
        ex.handle()
            .spawn(echo_client(stream, idx, Rc::clone(&digests[idx])));
        client_drivers.push(SimShardDriver::new(vec![ex]));
    }
    let mut server = SimShardDriver::new(vec![server_ex]);

    let mut apps: Vec<&mut dyn NodeApp> = Vec::with_capacity(1 + CONNS);
    apps.push(&mut server);
    for d in client_drivers.iter_mut() {
        apps.push(d);
    }
    let outcome = net.run(&mut apps, SimTime::from_secs(30));
    assert!(outcome.completed, "sim echo stalled: {outcome:?}");
    assert_eq!(server.executor_ref(0).stats().tasks_completed, CONNS as u64);

    digests.into_iter().map(|d| *d.borrow()).collect()
}

/// Runs the identical workload on the real-thread fabric: one server
/// thread with all echo tasks on a shared-CQ executor, one thread per
/// client.
fn threaded_echo_digests() -> Vec<u64> {
    let cfg = echo_cfg();
    let mut net = ThreadNet::new();
    let server_node = net.add_node(HcaConfig::default());
    let client_nodes: Vec<_> = (0..CONNS)
        .map(|_| net.add_node(HcaConfig::default()))
        .collect();
    for c in &client_nodes {
        net.connect_nodes(c, &server_node, std::time::Duration::from_micros(20));
    }
    let depth = cfg.cq_depth(CONNS);
    let (scq, rcq) = server_node.with_hca(|h| (h.create_cq(depth), h.create_cq(depth)));
    let mut server_reactor = Reactor::new(scq, rcq, ReactorConfig::default());
    let mut client_socks = Vec::with_capacity(CONNS);
    let mut server_conns = Vec::with_capacity(CONNS);
    for c in &client_nodes {
        let (csock, ssock) = connect_sockets_shared(c, &server_node, &cfg, None, Some((scq, rcq)));
        server_conns.push(server_reactor.accept(ssock));
        client_socks.push(csock);
    }
    let net = Arc::new(net);

    let server = {
        let net = Arc::clone(&net);
        let node = Arc::clone(&server_node);
        std::thread::spawn(move || {
            let mut ex = Executor::new(server_reactor);
            for &conn in &server_conns {
                let stream = ex.handle().stream_with(conn, MSG as u32, 2);
                ex.handle().spawn(echo_server(stream));
            }
            ex.run_threaded(&net, &node);
            ex.stats().tasks_completed
        })
    };
    let mut joins = Vec::with_capacity(CONNS);
    for (idx, (csock, cnode)) in client_socks.into_iter().zip(client_nodes).enumerate() {
        let net = Arc::clone(&net);
        joins.push(std::thread::spawn(move || {
            let mut reactor =
                Reactor::new(csock.send_cq(), csock.recv_cq(), ReactorConfig::default());
            let conn = reactor.accept(csock);
            let mut ex = Executor::new(reactor);
            let stream = ex.handle().stream_with(conn, MSG as u32, 2);
            let digest = Rc::new(RefCell::new(FNV_OFFSET));
            ex.handle()
                .spawn(echo_client(stream, idx, Rc::clone(&digest)));
            ex.run_threaded(&net, &cnode);
            let d = *digest.borrow();
            d
        }));
    }

    let digests: Vec<u64> = joins
        .into_iter()
        .map(|j| j.join().expect("client thread"))
        .collect();
    assert_eq!(server.join().expect("server thread"), CONNS as u64);
    net.quiesce();
    digests
}

/// The async fan-in server must deliver exactly what the callback
/// reactor server delivers — per-connection digests, byte counts, and
/// the closed-form expected digest all agree.
#[test]
fn async_fan_in_matches_callback_model() {
    let base = FanInSpec {
        msgs_per_conn: 5,
        msg_len: 16 << 10,
        verify: VerifyLevel::Full,
        client_nodes: 3,
        ..FanInSpec::new(profiles::fdr_infiniband(), 6)
    };
    let plain = run_fan_in(&base);
    // Over private-QP sockets, and over the streams of pooled endpoints:
    // a task is spawned per (hosted endpoint, stream id) either way.
    for mux in [false, true] {
        let aio = run_fan_in(&FanInSpec {
            aio: true,
            mux,
            ..base.clone()
        });
        assert_eq!(
            plain.digests, aio.digests,
            "consumption model changed bytes (mux: {mux})"
        );
        assert_eq!(plain.bytes, aio.bytes);
        for (i, &d) in aio.digests.iter().enumerate() {
            assert_eq!(d, expected_digest(base.seed, i, 5 * (16 << 10)));
        }
        let stats = aio.aio.as_ref().expect("aio run reports executor stats");
        assert_eq!(stats.tasks_completed, 6);
        if !mux {
            // The waker registry and op queue cost the same connections
            // at most a tenth of the callback server's throughput.
            assert!(
                aio.throughput_mbps() >= 0.9 * plain.throughput_mbps(),
                "aio {:.1} vs callback {:.1} Mbit/s",
                aio.throughput_mbps(),
                plain.throughput_mbps()
            );
        }
    }
}

/// The same async echo program produces identical digests on the
/// simulator and on real threads, and both match the closed form.
#[test]
fn async_echo_identical_across_backends() {
    let sim = sim_echo_digests();
    let thr = threaded_echo_digests();
    let want: Vec<u64> = (0..CONNS).map(expected_echo_digest).collect();
    assert_eq!(sim, want, "simulator echo digests drifted from spec");
    assert_eq!(thr, want, "threaded echo digests drifted from spec");
    assert_eq!(sim, thr);
}
