//! Echo server: 100 concurrent async tasks on one reactor-backed
//! executor.
//!
//! The "serving many connections" pattern, written the way production
//! Rust wants to write it: every accepted stream completes onto two
//! shared CQs, a single [`exs::Reactor`] drains them in batches — but
//! instead of a hand-rolled readiness/event loop, each connection is
//! one `async` task on an [`exs::aio::Executor`] that simply awaits
//! `recv_some` / `send_all` in a loop. The executor's single `turn`
//! is the only code touching the verbs port; tasks park on wakers
//! keyed by connection id. Each of the 100 clients plays ping-pong
//! (send a block, await its echo) for a few rounds and then closes;
//! the server task echoes until end-of-stream, then half-closes.
//!
//! Run with: `cargo run --release --example echo_server`

use std::cell::RefCell;
use std::rc::Rc;

use rdma_stream::exs::{
    Executor, ExsConfig, ExsError, Reactor, ReactorConfig, SimShardDriver, StreamSocket,
};
use rdma_stream::simnet::SimTime;
use rdma_stream::verbs::{profiles, NodeApp, NodeId, SimNet};

const CLIENTS: usize = 100;
const ROUNDS: usize = 3;
const MSG: usize = 4096;

fn pattern(conn: usize, round: usize, i: usize) -> u8 {
    (i.wrapping_mul(31) ^ conn.wrapping_mul(7) ^ round.wrapping_mul(131)) as u8
}

fn main() {
    let profile = profiles::fdr_infiniband();
    // Per-connection budgets sized for a 100-way server.
    let cfg = ExsConfig {
        ring_capacity: 64 << 10,
        credits: 8,
        sq_depth: 16,
        ..ExsConfig::default()
    };

    let mut net = SimNet::new();
    net.set_host_seed(2014);
    let server_node = net.add_node(profile.host.clone(), profile.hca.clone());
    let client_nodes: Vec<NodeId> = (0..CLIENTS)
        .map(|_| net.add_node(profile.host.clone(), profile.hca.clone()))
        .collect();
    for (i, &c) in client_nodes.iter().enumerate() {
        net.connect_nodes(c, server_node, profile.link.clone(), i as u64);
    }

    // Two shared CQs for all 100 connections, one reactor over them.
    let depth = cfg.cq_depth(CLIENTS);
    let (send_cq, recv_cq) = net.with_api(server_node, |api| {
        (api.create_cq(depth), api.create_cq(depth))
    });
    let mut server_reactor = Reactor::new(send_cq, recv_cq, ReactorConfig::default());

    // Accept all server-side sockets; keep the client halves with
    // their ids for the per-node client executors below.
    let mut client_socks: Vec<(usize, NodeId, StreamSocket)> = Vec::with_capacity(CLIENTS);
    let mut server_conns = Vec::with_capacity(CLIENTS);
    for (idx, &cnode) in client_nodes.iter().enumerate() {
        let (csock, ssock) =
            StreamSocket::pair_shared(&mut net, cnode, server_node, send_cq, recv_cq, &cfg);
        server_conns.push(server_reactor.accept(ssock));
        client_socks.push((idx, cnode, csock));
    }

    // Server: one executor over the shared reactor, one echo task per
    // connection. `send_all` takes the received buffer by value — the
    // echo is literally "await bytes, send them back".
    let server_ex = Executor::new(server_reactor);
    let echoed = Rc::new(RefCell::new(0u64));
    for &conn in &server_conns {
        let stream = server_ex.handle().stream_with(conn, MSG as u32, 2);
        let echoed = Rc::clone(&echoed);
        server_ex.handle().spawn(async move {
            loop {
                match stream.recv_some(MSG).await {
                    Ok(bytes) => {
                        *echoed.borrow_mut() += bytes.len() as u64;
                        stream.send_all(bytes).await.expect("echo send failed");
                    }
                    Err(ExsError::Eof) => break,
                    Err(e) => panic!("echo conn {} failed: {e}", conn.0),
                }
            }
            // Everything the client sent is echoed; close our half too.
            stream.shutdown().await.expect("echo shutdown failed");
        });
    }
    let mut server = SimShardDriver::new(vec![server_ex]);

    // Clients: each node gets its own small executor over a private
    // reactor (its one socket's CQs), running a single ping-pong task.
    // Same async code shape as the server — that's the point.
    let mut client_drivers: Vec<SimShardDriver> = Vec::with_capacity(CLIENTS);
    for (idx, _cnode, csock) in client_socks {
        let mut reactor = Reactor::new(csock.send_cq(), csock.recv_cq(), ReactorConfig::default());
        let conn = reactor.accept(csock);
        let ex = Executor::new(reactor);
        let stream = ex.handle().stream_with(conn, MSG as u32, 2);
        ex.handle().spawn(async move {
            for round in 0..ROUNDS {
                let data: Vec<u8> = (0..MSG).map(|i| pattern(idx, round, i)).collect();
                stream.send_all(data).await.expect("client send failed");
                let echo = stream.recv_exact(MSG).await.expect("client recv failed");
                for (i, &b) in echo.iter().enumerate() {
                    assert_eq!(
                        b,
                        pattern(idx, round, i),
                        "client {idx} echo corrupted at {i}"
                    );
                }
            }
            stream.shutdown().await.expect("client shutdown failed");
            // The server half-closes after echoing everything; the next
            // read must see clean end-of-stream, not data.
            match stream.recv_some(MSG).await {
                Err(ExsError::Eof) => {}
                other => panic!("client {idx} expected EOF, got {other:?}"),
            }
        });
        client_drivers.push(SimShardDriver::new(vec![ex]));
    }

    let mut apps: Vec<&mut dyn NodeApp> = Vec::with_capacity(1 + CLIENTS);
    apps.push(&mut server);
    for d in client_drivers.iter_mut() {
        apps.push(d);
    }
    let outcome = net.run(&mut apps, SimTime::from_secs(60));
    assert!(outcome.completed, "echo workload stalled: {outcome:?}");

    let ex = server.executor_ref(0);
    let (rs, agg) = ex.with_reactor(|r| (r.stats().clone(), r.aggregate_conn_stats()));
    let aio = ex.stats();
    println!("echo server: {CLIENTS} async tasks x {ROUNDS} rounds x {MSG} B");
    println!(
        "  echoed {} B in {:.3} ms of virtual time ({} sim events)",
        echoed.borrow(),
        outcome.end.as_secs_f64() * 1e3,
        outcome.events
    );
    println!(
        "  reactor: {} polls, {} completions in {} batches (mean {:.1}, max {}), {} deferrals",
        rs.polls,
        rs.cqes_dispatched,
        rs.cq_batches,
        rs.mean_batch(),
        rs.max_cq_batch,
        rs.deferrals
    );
    println!(
        "  executor: {} tasks, {} wakeups, {} polls ({:.2} polls/wake, {:.3} spurious)",
        aio.tasks_completed,
        aio.wakeups,
        aio.polls,
        aio.polls_per_wake(),
        aio.spurious_wake_ratio()
    );
    println!(
        "  streams: direct ratio {:.3}, {} B received, {} B sent back",
        agg.direct_ratio(),
        agg.bytes_received,
        agg.bytes_sent
    );
    assert_eq!(aio.tasks_completed, CLIENTS as u64);
    assert_eq!(*echoed.borrow(), (CLIENTS * ROUNDS * MSG) as u64);
}
