//! End-to-end tests for the `exs::aio` async front-end: echo
//! round-trips, timeouts, select, drop-safe cancellation and stale-id
//! handling — on the deterministic simulator and the real-thread
//! backend, with the same task code.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Duration;

use exs::aio::{select, timeout, Either};
use exs::threaded::connect_sockets_shared;
use exs::{
    connect_mux_pair, Executor, ExsConfig, ExsError, MuxEndpoint, Reactor, ReactorConfig,
    SimShardDriver, StreamSocket,
};
use rdma_verbs::{HcaConfig, HostModel, NodeApi, NodeApp, SimNet, ThreadNet};
use simnet::{LinkConfig, SimDuration, SimTime};

fn small_cfg() -> ExsConfig {
    ExsConfig {
        ring_capacity: 64 << 10,
        credits: 8,
        sq_depth: 16,
        ..ExsConfig::default()
    }
}

fn two_node_net() -> (SimNet, rdma_verbs::NodeId, rdma_verbs::NodeId) {
    let mut net = SimNet::new();
    let a = net.add_node(HostModel::free(), HcaConfig::default());
    let b = net.add_node(HostModel::free(), HcaConfig::default());
    net.connect_nodes(
        a,
        b,
        LinkConfig::simple(100_000_000_000, SimDuration::from_micros(1)),
        7,
    );
    (net, a, b)
}

fn pattern(round: usize, i: usize) -> u8 {
    (i.wrapping_mul(31) ^ round.wrapping_mul(131)) as u8
}

/// Placeholder app for sim nodes whose traffic is driven elsewhere.
struct Idle;
impl NodeApp for Idle {
    fn on_start(&mut self, _api: &mut NodeApi<'_>) {}
    fn on_wake(&mut self, _api: &mut NodeApi<'_>) {}
    fn is_done(&self) -> bool {
        true
    }
}

/// Callback-driven pooled endpoint posting one whole-buffer message on
/// each of `msgs`' streams, then closing each stream once its send
/// completes.
struct MuxSender {
    ep: MuxEndpoint,
    msgs: Vec<(u32, rdma_verbs::MrInfo)>,
    sent: Vec<bool>,
    closed: Vec<bool>,
}

impl MuxSender {
    fn new(ep: MuxEndpoint, msgs: Vec<(u32, rdma_verbs::MrInfo)>) -> MuxSender {
        MuxSender {
            ep,
            sent: vec![false; msgs.len()],
            closed: vec![false; msgs.len()],
            msgs,
        }
    }
}

impl NodeApp for MuxSender {
    fn on_start(&mut self, api: &mut NodeApi<'_>) {
        for (i, (stream, mr)) in self.msgs.iter().enumerate() {
            self.ep
                .mux_send(api, *stream, mr, 0, mr.len as u64, i as u64)
                .unwrap();
        }
    }
    fn on_wake(&mut self, api: &mut NodeApi<'_>) {
        self.ep.handle_wake(api);
        for ev in self.ep.take_events() {
            if let exs::MuxEvent::SendComplete { id, .. } = ev {
                self.sent[id as usize] = true;
            }
        }
        for i in 0..self.msgs.len() {
            if self.sent[i] && !self.closed[i] {
                self.ep.close_stream(api, self.msgs[i].0);
                self.closed[i] = true;
            }
        }
    }
    fn is_done(&self) -> bool {
        self.closed.iter().all(|&c| c) && self.ep.sends_drained()
    }
}

/// Wraps a private-CQ socket in its own single-connection executor.
fn solo_executor(sock: StreamSocket) -> (Executor, exs::AsyncStream) {
    let mut reactor = Reactor::new(sock.send_cq(), sock.recv_cq(), ReactorConfig::default());
    let conn = reactor.accept(sock);
    let ex = Executor::new(reactor);
    let stream = ex.handle().stream_with(conn, 4096, 2);
    (ex, stream)
}

const MSG: usize = 2048;
const ROUNDS: usize = 3;

/// Ping-pong echo between two async tasks, one executor per side:
/// `send_all`/`recv_exact` round-trips, explicit `flush`, half-close
/// and clean end-of-stream in both directions.
#[test]
fn sim_async_echo_roundtrip() {
    let (mut net, na, nb) = two_node_net();
    let (sock_a, sock_b) = StreamSocket::pair(&mut net, na, nb, &small_cfg());

    let (server_ex, server_stream) = solo_executor(sock_a);
    server_ex.handle().spawn(async move {
        loop {
            match server_stream.recv_some(MSG).await {
                Ok(bytes) => server_stream
                    .send_all(bytes)
                    .await
                    .expect("echo send failed"),
                Err(ExsError::Eof) => break,
                Err(e) => panic!("server recv failed: {e}"),
            }
        }
        server_stream.shutdown().await.expect("server shutdown");
    });

    let done = Rc::new(RefCell::new(false));
    let done2 = Rc::clone(&done);
    let (client_ex, stream) = solo_executor(sock_b);
    client_ex.handle().spawn(async move {
        for round in 0..ROUNDS {
            let data: Vec<u8> = (0..MSG).map(|i| pattern(round, i)).collect();
            stream.send_all(data).await.expect("client send");
            stream.flush().await.expect("client flush");
            let echo = stream.recv_exact(MSG).await.expect("client recv");
            for (i, &b) in echo.iter().enumerate() {
                assert_eq!(b, pattern(round, i), "echo corrupted at {i}");
            }
        }
        stream.shutdown().await.expect("client shutdown");
        match stream.recv_some(MSG).await {
            Err(ExsError::Eof) => {}
            other => panic!("expected EOF after half-close, got {other:?}"),
        }
        *done2.borrow_mut() = true;
    });

    let mut server = SimShardDriver::new(vec![server_ex]);
    let mut client = SimShardDriver::new(vec![client_ex]);
    let outcome = net.run(&mut [&mut server, &mut client], SimTime::from_secs(10));
    assert!(outcome.completed, "echo stalled: {outcome:?}");
    assert!(*done.borrow(), "client task must run to completion");

    for drv in [&server, &client] {
        let stats = drv.executor_ref(0).stats();
        assert_eq!(stats.tasks_spawned, 1);
        assert_eq!(stats.tasks_completed, 1);
        assert!(stats.wakeups > 0, "completions must wake the task");
        assert!(
            stats.polls >= stats.wakeups,
            "every wake polls at least once"
        );
    }
    let agg = server
        .executor_ref(0)
        .with_reactor(|r| r.aggregate_conn_stats());
    assert_eq!(agg.bytes_received, (ROUNDS * MSG) as u64);
    assert_eq!(agg.bytes_sent, (ROUNDS * MSG) as u64);
}

/// `timeout` on a quiet stream fires (and cleanly cancels the parked
/// receive); the same receive, re-issued, completes when the peer's
/// delayed send lands; a generous timeout is cancelled without firing.
#[test]
fn sim_timeout_fires_then_recv_recovers() {
    let (mut net, na, nb) = two_node_net();
    let (sock_a, sock_b) = StreamSocket::pair(&mut net, na, nb, &small_cfg());

    let (server_ex, server_stream) = solo_executor(sock_a);
    let h = server_ex.handle();
    server_ex.handle().spawn(async move {
        // Peer sends at 5 ms; a 1 ms timeout must fire first.
        match timeout(&h, Duration::from_millis(1), server_stream.recv_exact(MSG)).await {
            Err(ExsError::TimedOut) => {}
            other => panic!("expected timeout, got {other:?}"),
        }
        // The cancelled receive left the stream clean: re-issue wins.
        let data = timeout(&h, Duration::from_secs(5), server_stream.recv_exact(MSG))
            .await
            .expect("generous timeout must not fire")
            .expect("delayed payload arrives");
        assert_eq!(data.len(), MSG);
        assert!(data.iter().enumerate().all(|(i, &b)| b == pattern(0, i)));
        match server_stream.recv_some(MSG).await {
            Err(ExsError::Eof) => {}
            other => panic!("expected EOF, got {other:?}"),
        }
        server_stream.shutdown().await.expect("server shutdown");
    });

    let (client_ex, stream) = solo_executor(sock_b);
    let ch = client_ex.handle();
    client_ex.handle().spawn(async move {
        ch.sleep(Duration::from_millis(5)).await;
        let data: Vec<u8> = (0..MSG).map(|i| pattern(0, i)).collect();
        stream.send_all(data).await.expect("client send");
        stream.shutdown().await.expect("client shutdown");
        match stream.recv_some(MSG).await {
            Err(ExsError::Eof) => {}
            other => panic!("expected EOF, got {other:?}"),
        }
    });

    let mut server = SimShardDriver::new(vec![server_ex]);
    let mut client = SimShardDriver::new(vec![client_ex]);
    let outcome = net.run(&mut [&mut server, &mut client], SimTime::from_secs(10));
    assert!(outcome.completed, "timeout scenario stalled: {outcome:?}");

    let stats = server.executor_ref(0).stats();
    assert!(stats.timer_fires >= 1, "the 1 ms timeout must fire");
    assert!(
        stats.timer_cancels >= 1,
        "the generous timeout must be cancelled, not fired"
    );
    assert!(
        stats.cancels_clean >= 1,
        "the timed-out receive cancels cleanly"
    );
    assert_eq!(
        stats.cancels_poisoned, 0,
        "receive cancellation never poisons"
    );
}

/// `select` across two connections resolves to whichever stream has
/// data — and to the left branch when both are readable (deterministic
/// tie-break). The losing receive cancels cleanly every round.
#[test]
fn sim_select_follows_readiness_with_left_bias() {
    let mut net = SimNet::new();
    let server_node = net.add_node(HostModel::free(), HcaConfig::default());
    let ca = net.add_node(HostModel::free(), HcaConfig::default());
    let cb = net.add_node(HostModel::free(), HcaConfig::default());
    for (i, &c) in [ca, cb].iter().enumerate() {
        net.connect_nodes(
            c,
            server_node,
            LinkConfig::simple(100_000_000_000, SimDuration::from_micros(1)),
            i as u64,
        );
    }
    let cfg = small_cfg();
    let depth = cfg.cq_depth(2);
    let (scq, rcq) = net.with_api(server_node, |api| {
        (api.create_cq(depth), api.create_cq(depth))
    });
    let mut reactor = Reactor::new(scq, rcq, ReactorConfig::default());
    let (sock_ca, ssock_a) = StreamSocket::pair_shared(&mut net, ca, server_node, scq, rcq, &cfg);
    let conn_a = reactor.accept(ssock_a);
    let (sock_cb, ssock_b) = StreamSocket::pair_shared(&mut net, cb, server_node, scq, rcq, &cfg);
    let conn_b = reactor.accept(ssock_b);

    let server_ex = Executor::new(reactor);
    let h = server_ex.handle();
    let order = Rc::new(RefCell::new(Vec::new()));
    let order2 = Rc::clone(&order);
    server_ex.handle().spawn(async move {
        let a = h.stream_with(conn_a, 4096, 2);
        let b = h.stream_with(conn_b, 4096, 2);
        // Client B sends immediately, client A only at 10 ms: the
        // first select must resolve Right.
        match select(a.recv_exact(MSG), b.recv_exact(MSG)).await {
            Either::Right(Ok(bytes)) => {
                assert_eq!(bytes.len(), MSG);
                order2.borrow_mut().push('b');
            }
            other => panic!("expected Right(Ok), got {other:?}"),
        }
        // Wait until both connections have a full message buffered,
        // then select again: ties break left, deterministically.
        h.sleep(Duration::from_millis(20)).await;
        match select(a.recv_exact(MSG), b.recv_exact(MSG)).await {
            Either::Left(Ok(bytes)) => {
                assert_eq!(bytes.len(), MSG);
                order2.borrow_mut().push('a');
            }
            other => panic!("expected Left(Ok), got {other:?}"),
        }
        // Drain B's second message (the tie-break loser keeps its
        // bytes buffered — nothing was lost to the cancelled branch).
        let rest = b.recv_exact(MSG).await.expect("b's buffered message");
        assert_eq!(rest.len(), MSG);
        for s in [&a, &b] {
            match s.recv_some(MSG).await {
                Err(ExsError::Eof) => {}
                other => panic!("expected EOF, got {other:?}"),
            }
            s.shutdown().await.expect("server shutdown");
        }
    });

    // Client A: one message at 10 ms. Client B: one immediately, one
    // at 10 ms (so the tie-break round has data on both streams).
    let (ex_a, stream_a) = solo_executor(sock_ca);
    let ha = ex_a.handle();
    ex_a.handle().spawn(async move {
        ha.sleep(Duration::from_millis(10)).await;
        let data: Vec<u8> = (0..MSG).map(|i| pattern(0, i)).collect();
        stream_a.send_all(data).await.expect("a send");
        stream_a.shutdown().await.expect("a shutdown");
        let _ = stream_a.recv_some(1).await;
    });
    let (ex_b, stream_b) = solo_executor(sock_cb);
    let hb = ex_b.handle();
    ex_b.handle().spawn(async move {
        let data: Vec<u8> = (0..MSG).map(|i| pattern(1, i)).collect();
        stream_b.send_all(data).await.expect("b send");
        hb.sleep(Duration::from_millis(10)).await;
        let data: Vec<u8> = (0..MSG).map(|i| pattern(2, i)).collect();
        stream_b.send_all(data).await.expect("b send 2");
        stream_b.shutdown().await.expect("b shutdown");
        let _ = stream_b.recv_some(1).await;
    });

    let mut server = SimShardDriver::new(vec![server_ex]);
    let mut da = SimShardDriver::new(vec![ex_a]);
    let mut db = SimShardDriver::new(vec![ex_b]);
    let outcome = net.run(&mut [&mut server, &mut da, &mut db], SimTime::from_secs(10));
    assert!(outcome.completed, "select scenario stalled: {outcome:?}");
    assert_eq!(*order.borrow(), vec!['b', 'a']);
    let stats = server.executor_ref(0).stats();
    // The first select's losing receive parked a waiter and must
    // cancel cleanly. (The tie-break round's loser resolves on the
    // winner's first poll and is dropped before it ever registers —
    // that cancellation is free and uncounted.)
    assert!(
        stats.cancels_clean >= 1,
        "the parked losing receive cancels cleanly"
    );
    assert_eq!(stats.cancels_poisoned, 0);
}

/// Dropping a `send_all` before the executor issues it unwinds
/// completely: the channel is not poisoned, no byte of the cancelled
/// message reaches the peer, and the next send delivers exactly its
/// own bytes.
#[test]
fn sim_unissued_send_cancels_clean_and_stream_stays_usable() {
    let (mut net, na, nb) = two_node_net();
    let (sock_a, sock_b) = StreamSocket::pair(&mut net, na, nb, &small_cfg());

    let got = Rc::new(RefCell::new(Vec::new()));
    let got2 = Rc::clone(&got);
    let (server_ex, server_stream) = solo_executor(sock_a);
    server_ex.handle().spawn(async move {
        loop {
            match server_stream.recv_some(MSG).await {
                Ok(bytes) => got2.borrow_mut().extend(bytes),
                Err(ExsError::Eof) => break,
                Err(e) => panic!("server recv failed: {e}"),
            }
        }
        server_stream.shutdown().await.expect("server shutdown");
    });

    let (client_ex, stream) = solo_executor(sock_b);
    client_ex.handle().spawn(async move {
        // The ready future wins the race on the very first poll, so
        // the send is dropped while still queued — before the executor
        // ever touches the verbs port with it.
        match select(stream.send_all(vec![0xAA; 512]), std::future::ready(())).await {
            Either::Right(()) => {}
            Either::Left(r) => panic!("unpolled send cannot win the select: {r:?}"),
        }
        let data: Vec<u8> = (0..MSG).map(|i| pattern(0, i)).collect();
        stream
            .send_all(data)
            .await
            .expect("channel must not be poisoned by an unissued cancel");
        stream.shutdown().await.expect("client shutdown");
        let _ = stream.recv_some(1).await;
    });

    let mut server = SimShardDriver::new(vec![server_ex]);
    let mut client = SimShardDriver::new(vec![client_ex]);
    let outcome = net.run(&mut [&mut server, &mut client], SimTime::from_secs(10));
    assert!(outcome.completed, "cancel scenario stalled: {outcome:?}");

    let got = got.borrow();
    assert_eq!(got.len(), MSG, "exactly one message delivered");
    assert!(
        got.iter().enumerate().all(|(i, &b)| b == pattern(0, i)),
        "no byte of the cancelled message reached the peer"
    );
    let stats = client.executor_ref(0).stats();
    assert!(stats.cancels_clean >= 1, "the queued send unwinds cleanly");
    assert_eq!(stats.cancels_poisoned, 0);
}

/// The `try_*` reactor accessors turn recycled/removed ids into
/// `None`/`Err(Stale)` instead of panicking, and an `AsyncStream`
/// whose connection was removed fails its operations with
/// [`ExsError::Stale`].
#[test]
fn stale_ids_error_instead_of_panicking() {
    let (mut net, na, nb) = two_node_net();
    let (sock_a, _sock_b) = StreamSocket::pair(&mut net, na, nb, &small_cfg());

    let mut reactor = Reactor::new(sock_a.send_cq(), sock_a.recv_cq(), ReactorConfig::default());
    let conn = reactor.accept(sock_a);
    assert!(reactor.try_conn(conn).is_some());
    let typed = reactor.try_conn(conn).and_then(exs::Endpoint::as_mux);
    assert!(typed.is_none(), "the id names a socket, not a pool");
    assert!(reactor.try_conn(exs::ConnId(3)).is_none(), "never issued");

    let ex = Executor::new(reactor);
    let stream = ex.handle().stream_with(conn, 4096, 2);
    let removed = ex.with_reactor(|r| {
        let sock = r.remove(conn);
        assert!(r.try_conn(conn).is_none(), "removed id is stale");
        sock
    });
    drop(removed);

    let verdict = Rc::new(RefCell::new(None));
    let verdict2 = Rc::clone(&verdict);
    ex.handle().spawn(async move {
        *verdict2.borrow_mut() = Some(stream.recv_exact(16).await);
    });
    let mut server = SimShardDriver::new(vec![ex]);
    let mut idle = Idle;
    let outcome = net.run(&mut [&mut server, &mut idle], SimTime::from_secs(1));
    assert!(outcome.completed, "stale scenario stalled: {outcome:?}");
    assert_eq!(
        *verdict.borrow(),
        Some(Err(ExsError::Stale)),
        "operations on a removed connection fail typed, not by panic"
    );
}

/// Async streams over a hosted [`MuxEndpoint`]: per-stream tasks
/// receive interleaved multiplexed traffic, `accept` surfaces each
/// stream exactly once on first activity, and `StreamClosed` becomes
/// a clean EOF.
#[test]
fn sim_mux_streams_accept_and_deliver() {
    const STREAMS: u32 = 3;
    let (mut net, na, nb) = two_node_net();
    let cfg = ExsConfig::default();
    let mut a = MuxEndpoint::new(na, &cfg);
    let mut b = MuxEndpoint::new(nb, &cfg);
    for id in 0..STREAMS {
        a.open_stream(id).unwrap();
        b.open_stream(id).unwrap();
    }
    let depth = MuxEndpoint::shared_cq_depth(&cfg);
    let (scq, rcq) = net.with_api(nb, |api| (api.create_cq(depth), api.create_cq(depth)));
    b.set_cqs(scq, rcq);
    connect_mux_pair(&mut net, &mut a, &mut b);

    let total = |s: u32| 600 + s as usize * 137;
    let payload = |s: u32, i: usize| (s as usize * 97 + i * 31) as u8;

    let mrs: Vec<rdma_verbs::MrInfo> = (0..STREAMS)
        .map(|s| {
            net.with_api(na, |api| {
                let mr = api.register_mr(total(s), rdma_verbs::Access::NONE);
                let data: Vec<u8> = (0..total(s)).map(|i| payload(s, i)).collect();
                api.write_mr(mr.key, mr.addr, &data).unwrap();
                mr
            })
        })
        .collect();
    let mut sender = MuxSender::new(a, (0..STREAMS).zip(mrs).collect());

    // Receiver: the endpoint hosted in a reactor, one async task per
    // stream plus an accept task observing first-activity order.
    let mut reactor = Reactor::new(scq, rcq, ReactorConfig::default());
    let mid = reactor.accept(b);
    let ex = Executor::new(reactor);
    let amux = ex.handle().mux(mid);
    let accepted = Rc::new(RefCell::new(Vec::new()));
    let acc2 = Rc::clone(&accepted);
    let amux2 = amux.clone();
    ex.handle().spawn(async move {
        for _ in 0..STREAMS {
            let sid = amux2.accept().await.expect("accept");
            acc2.borrow_mut().push(sid);
        }
    });
    for sid in 0..STREAMS {
        let stream = amux.stream(sid);
        ex.handle().spawn(async move {
            let data = stream.recv_exact(total(sid)).await.expect("stream bytes");
            for (i, &byte) in data.iter().enumerate() {
                assert_eq!(byte, payload(sid, i), "stream {sid} corrupted at {i}");
            }
            match stream.recv_some(64).await {
                Err(ExsError::Eof) => {}
                other => panic!("stream {sid} expected EOF, got {other:?}"),
            }
        });
    }

    let mut recv_drv = SimShardDriver::new(vec![ex]);
    let outcome = net.run(&mut [&mut sender, &mut recv_drv], SimTime::from_secs(10));
    assert!(outcome.completed, "mux scenario stalled: {outcome:?}");
    let mut seen = accepted.borrow().clone();
    seen.sort_unstable();
    assert_eq!(seen, vec![0, 1, 2], "each stream accepted exactly once");
    let stats = recv_drv.executor_ref(0).stats();
    assert_eq!(stats.tasks_completed, STREAMS as u64 + 1);
}

/// A pool slot that dies takes exactly its own streams with it: tasks
/// on the broken slot resolve to the typed error, a stream on the other
/// slot still delivers byte-exact and reaches EOF, and `accept` keeps
/// surfacing streams of the live slot.
#[test]
fn a_forged_ack_on_one_pool_slot_fails_only_its_streams() {
    use exs::{Ctrl, CtrlMsg, MuxCtrlMsg, ProtocolError};
    const LEN: usize = 3000;
    let (mut net, na, nb) = two_node_net();
    let mut cfg = ExsConfig::default();
    cfg.mux.qp_pool_size = 2;
    let mut a = MuxEndpoint::new(na, &cfg);
    let mut b = MuxEndpoint::new(nb, &cfg);
    for id in 0..3 {
        a.open_stream(id).unwrap();
        b.open_stream(id).unwrap();
    }
    assert_eq!((b.slot_of(0), b.slot_of(1), b.slot_of(2)), (0, 1, 0));
    let depth = MuxEndpoint::shared_cq_depth(&cfg);
    let (scq, rcq) = net.with_api(nb, |api| (api.create_cq(depth), api.create_cq(depth)));
    b.set_cqs(scq, rcq);
    connect_mux_pair(&mut net, &mut a, &mut b);

    // A stream-scoped ACK returning window bytes stream 0 never sent,
    // posted by hand on slot 0's QP — unsignaled, so the sending
    // endpoint sees no completion for a WQE it did not stage.
    let forged = MuxCtrlMsg {
        stream: 0,
        msg: CtrlMsg {
            ctrl: Ctrl::Ack { freed: 4096 },
            credit_return: 0,
        },
    };
    let qpn = a.slot_qpn(0).expect("slot 0 established");
    let mr = net.with_api(na, |api| {
        let wr = rdma_verbs::SendWr::send_inline(1, forged.encode_bytes()).unsignaled();
        api.post_send(qpn, wr).unwrap();
        let mr = api.register_mr(LEN, rdma_verbs::Access::NONE);
        let data: Vec<u8> = (0..LEN).map(|i| pattern(1, i)).collect();
        api.write_mr(mr.key, mr.addr, &data).unwrap();
        mr
    });
    let mut sender = MuxSender::new(a, vec![(1, mr)]);

    let mut reactor = Reactor::new(scq, rcq, ReactorConfig::default());
    let host = reactor.accept(b);
    let ex = Executor::new(reactor);
    let amux = ex.handle().mux(host);
    let verdicts = Rc::new(RefCell::new(Vec::new()));
    for sid in [0, 2] {
        let (stream, verdicts) = (amux.stream(sid), Rc::clone(&verdicts));
        ex.handle().spawn(async move {
            let got = stream.recv_some(64).await;
            verdicts.borrow_mut().push((sid, got));
        });
    }
    let live = amux.stream(1);
    ex.handle().spawn(async move {
        let data = live.recv_exact(LEN).await.expect("the live slot delivers");
        assert!(data.iter().enumerate().all(|(i, &b)| b == pattern(1, i)));
        assert_eq!(live.recv_some(64).await, Err(ExsError::Eof));
    });
    let accepted = Rc::new(RefCell::new(None));
    let accepted2 = Rc::clone(&accepted);
    ex.handle().spawn(async move {
        *accepted2.borrow_mut() = Some(amux.accept().await);
    });

    let mut recv_drv = SimShardDriver::new(vec![ex]);
    let outcome = net.run(&mut [&mut sender, &mut recv_drv], SimTime::from_secs(10));
    assert!(
        outcome.completed,
        "slot-failure scenario stalled: {outcome:?}"
    );
    let err = ExsError::Protocol(ProtocolError::AckUnderflow);
    assert_eq!(
        *verdicts.borrow(),
        [(0, Err(err.clone())), (2, Err(err))],
        "both streams of the broken slot fail with the typed error"
    );
    assert_eq!(
        *accepted.borrow(),
        Some(Ok(1)),
        "accept serves the live slot"
    );
    assert_eq!(recv_drv.executor_ref(0).stats().tasks_completed, 4);
}

/// The identical task code on the real-thread backend: a shared-CQ
/// server executor echoing four connections from four client threads,
/// each with its own parked executor, plus a thread-backend timeout.
#[test]
fn threaded_async_echo_roundtrip() {
    const CONNS: usize = 4;
    let cfg = small_cfg();
    let mut net = ThreadNet::new();
    let server_node = net.add_node(HcaConfig::default());
    let client_nodes: Vec<_> = (0..CONNS)
        .map(|_| net.add_node(HcaConfig::default()))
        .collect();
    for c in &client_nodes {
        net.connect_nodes(c, &server_node, Duration::from_micros(20));
    }
    let depth = cfg.cq_depth(CONNS);
    let (scq, rcq) = server_node.with_hca(|h| (h.create_cq(depth), h.create_cq(depth)));
    let mut reactor = Reactor::new(scq, rcq, ReactorConfig::default());
    let mut client_socks = Vec::new();
    for c in &client_nodes {
        let (ssock, csock) = connect_sockets_shared(&server_node, c, &cfg, Some((scq, rcq)), None);
        reactor.accept(ssock);
        client_socks.push(csock);
    }
    let net = Arc::new(net);

    let server = {
        let net = Arc::clone(&net);
        let server_node = Arc::clone(&server_node);
        std::thread::spawn(move || {
            let conns = ex_conns(&reactor);
            let mut ex = Executor::new(reactor);
            for conn in conns {
                let stream = ex.handle().stream_with(conn, 4096, 2);
                ex.handle().spawn(async move {
                    loop {
                        match stream.recv_some(MSG).await {
                            Ok(bytes) => stream.send_all(bytes).await.expect("echo send"),
                            Err(ExsError::Eof) => break,
                            Err(e) => panic!("server recv failed: {e}"),
                        }
                    }
                    stream.shutdown().await.expect("server shutdown");
                });
            }
            ex.run_threaded(&net, &server_node);
            ex.stats()
        })
    };

    let mut clients = Vec::new();
    for (idx, (csock, cnode)) in client_socks
        .into_iter()
        .zip(client_nodes.iter().cloned())
        .enumerate()
    {
        let net = Arc::clone(&net);
        clients.push(std::thread::spawn(move || {
            let (mut ex, stream) = solo_executor(csock);
            let h = ex.handle();
            ex.handle().spawn(async move {
                for round in 0..ROUNDS {
                    let data: Vec<u8> = (0..MSG).map(|i| pattern(idx + round, i)).collect();
                    stream.send_all(data).await.expect("client send");
                    let echo = stream.recv_exact(MSG).await.expect("client recv");
                    for (i, &b) in echo.iter().enumerate() {
                        assert_eq!(b, pattern(idx + round, i), "client {idx} echo at {i}");
                    }
                }
                // Nothing else is inbound: a short timeout must fire
                // on the real-thread timer path too.
                match timeout(&h, Duration::from_millis(5), stream.recv_exact(1)).await {
                    Err(ExsError::TimedOut) => {}
                    other => panic!("client {idx} expected timeout, got {other:?}"),
                }
                stream.shutdown().await.expect("client shutdown");
                match stream.recv_some(MSG).await {
                    Err(ExsError::Eof) => {}
                    other => panic!("client {idx} expected EOF, got {other:?}"),
                }
            });
            ex.run_threaded(&net, &cnode);
            ex.stats()
        }));
    }

    for c in clients {
        let stats = c.join().expect("client thread");
        assert_eq!(stats.tasks_completed, 1);
        assert!(stats.timer_fires >= 1, "thread-backend timeout fired");
    }
    let server_stats = server.join().expect("server thread");
    assert_eq!(server_stats.tasks_completed, CONNS as u64);
    net.quiesce();
}

/// The reactor's connection ids, pulled out before the executor takes
/// ownership.
fn ex_conns(reactor: &Reactor) -> Vec<exs::ConnId> {
    reactor.conn_ids()
}
