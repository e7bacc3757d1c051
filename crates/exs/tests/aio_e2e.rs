//! End-to-end tests for the `exs::aio` async front-end: echo
//! round-trips, drop-safe cancellation and stale-id handling — on the
//! deterministic simulator and the real-thread backend, with the same
//! task code. A test drops a pending future at a point it chooses with
//! [`support::race`].

mod support;

use std::cell::RefCell;
use std::future::Future;
use std::rc::Rc;
use std::sync::Arc;
use std::task::Poll;
use std::time::Duration;

use exs::threaded::connect_sockets_shared;
use exs::{
    connect_mux_pair, Executor, ExsConfig, ExsError, MuxEndpoint, Reactor, ReactorConfig,
    SimShardDriver, StreamSocket,
};
use rdma_verbs::{HcaConfig, HostModel, NodeApi, NodeApp, SimNet, ThreadNet};
use simnet::{LinkConfig, SimDuration, SimTime};
use support::{flip_after, race, Flipped, Switch};

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

/// A receive dropped on a quiet stream cancels cleanly; a receive
/// dropped with part of its bytes buffered leaves them buffered; the
/// next receive claims exactly those bytes when the peer's delayed send
/// has landed.
#[test]
fn sim_dropped_recv_cancels_clean_then_recv_recovers() {
    let (mut net, na, nb) = two_node_net();
    let (sock_a, sock_b) = StreamSocket::pair(&mut net, na, nb, &small_cfg());

    let (server_ex, server_stream) = solo_executor(sock_a);
    let server_switch = Switch::default();
    let switch = server_switch.clone();
    server_ex.handle().spawn(async move {
        // The peer sends at 5 ms; this receive is dropped at 1 ms.
        let quiet = race(&switch, server_stream.recv_exact(MSG)).await;
        assert!(quiet.is_none(), "nothing arrives before 5 ms: {quiet:?}");
        // Dropped at 10 ms holding half of what it asked for.
        let short = race(&switch, server_stream.recv_exact(2 * MSG)).await;
        assert!(short.is_none(), "only {MSG} bytes are ever sent: {short:?}");
        // The cancelled receives left the stream clean: re-issue wins.
        let data = server_stream
            .recv_exact(MSG)
            .await
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
    let client_switch = Switch::default();
    let switch = client_switch.clone();
    client_ex.handle().spawn(async move {
        race(&switch, std::future::pending::<()>()).await;
        let data: Vec<u8> = (0..MSG).map(|i| pattern(0, i)).collect();
        stream.send_all(data).await.expect("client send");
        // Half-close only after the server dropped its short receive.
        race(&switch, std::future::pending::<()>()).await;
        stream.shutdown().await.expect("client shutdown");
        match stream.recv_some(MSG).await {
            Err(ExsError::Eof) => {}
            other => panic!("expected EOF, got {other:?}"),
        }
    });

    let ms = SimDuration::from_millis;
    let server_drv = SimShardDriver::new(vec![server_ex]);
    let mut server = Flipped::new(server_drv, &server_switch, vec![ms(1), ms(10)]);
    let client_drv = SimShardDriver::new(vec![client_ex]);
    let mut client = Flipped::new(client_drv, &client_switch, vec![ms(5), ms(20)]);
    let outcome = net.run(&mut [&mut server, &mut client], SimTime::from_secs(10));
    assert!(
        outcome.completed,
        "dropped-receive scenario stalled: {outcome:?}"
    );

    let stats = server.drv.executor_ref(0).stats();
    assert_eq!(
        stats.cancels_clean, 2,
        "both dropped receives cancel cleanly"
    );
    assert_eq!(
        stats.cancels_poisoned, 0,
        "receive cancellation never poisons"
    );
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
        // Polled once and dropped in the same task poll: the send is
        // dropped while still queued — before the executor ever
        // touches the verbs port with it.
        {
            let mut send = std::pin::pin!(stream.send_all(vec![0xAA; 512]));
            let first = std::future::poll_fn(|cx| Poll::Ready(send.as_mut().poll(cx))).await;
            assert!(
                first.is_pending(),
                "a queued send cannot complete: {first:?}"
            );
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
/// receive interleaved multiplexed traffic, and `StreamClosed` becomes
/// a clean EOF.
#[test]
fn sim_mux_streams_deliver() {
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
    // stream.
    let mut reactor = Reactor::new(scq, rcq, ReactorConfig::default());
    let mid = reactor.accept(b);
    let ex = Executor::new(reactor);
    for sid in 0..STREAMS {
        let stream = ex.handle().stream_of(mid, sid, 16 << 10, 4);
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
    let stats = recv_drv.executor_ref(0).stats();
    assert_eq!(stats.tasks_completed, STREAMS as u64);
}

/// A pool slot that dies takes exactly its own streams with it: tasks
/// on the broken slot resolve to the typed error, and a stream on the
/// other slot still delivers byte-exact and reaches EOF.
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
    let stream_of = |sid| ex.handle().stream_of(host, sid, 16 << 10, 4);
    let verdicts = Rc::new(RefCell::new(Vec::new()));
    for sid in [0, 2] {
        let (stream, verdicts) = (stream_of(sid), Rc::clone(&verdicts));
        ex.handle().spawn(async move {
            let got = stream.recv_some(64).await;
            verdicts.borrow_mut().push((sid, got));
        });
    }
    let live = stream_of(1);
    ex.handle().spawn(async move {
        let data = live.recv_exact(LEN).await.expect("the live slot delivers");
        assert!(data.iter().enumerate().all(|(i, &b)| b == pattern(1, i)));
        assert_eq!(live.recv_some(64).await, Err(ExsError::Eof));
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
    assert_eq!(recv_drv.executor_ref(0).stats().tasks_completed, 3);
}

/// The identical task code on the real-thread backend: a shared-CQ
/// server executor echoing four connections from four client threads,
/// each with its own parked executor, and each client drops a receive
/// from a thread of its own.
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
            ex.handle().spawn(async move {
                for round in 0..ROUNDS {
                    let data: Vec<u8> = (0..MSG).map(|i| pattern(idx + round, i)).collect();
                    stream.send_all(data).await.expect("client send");
                    let echo = stream.recv_exact(MSG).await.expect("client recv");
                    for (i, &b) in echo.iter().enumerate() {
                        assert_eq!(b, pattern(idx + round, i), "client {idx} echo at {i}");
                    }
                }
                // Nothing else is inbound: a receive dropped 5 ms in,
                // by a waker fired on another thread, cancels cleanly.
                let switch = Switch::default();
                let quiet = race(&switch, stream.recv_exact(1));
                let flipper = flip_after(&switch, vec![Duration::from_millis(5)]);
                let quiet = quiet.await;
                assert!(quiet.is_none(), "client {idx}: nothing inbound: {quiet:?}");
                flipper.join().expect("flipper thread");
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
        assert_eq!(
            stats.cancels_clean, 1,
            "the dropped receive cancels cleanly"
        );
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

/// A transport failure fails every pending send on the stream and wakes
/// their tasks in the order the sends were issued, on every run.
#[test]
fn a_transport_failure_wakes_pending_sends_in_issue_order() {
    const TASKS: usize = 8;
    let run = || {
        let (mut net, na, nb) = two_node_net();
        // Direct-only, and the peer posts no receive: no advert ever
        // arrives, so every send stays pending until the failure.
        let cfg = ExsConfig::with_mode(exs::ProtocolMode::DirectOnly);
        let (sock_a, _sock_b) = StreamSocket::pair(&mut net, na, nb, &cfg);
        let qpn = sock_a.qpn();
        let (ex, stream) = solo_executor(sock_a);
        let woken = Rc::new(RefCell::new(Vec::new()));
        for task in 0..TASKS {
            let (stream, woken) = (stream.clone(), Rc::clone(&woken));
            ex.handle().spawn(async move {
                let sent = stream.send_all(vec![task as u8; 100]).await;
                assert_eq!(sent, Err(ExsError::Broken), "task {task}");
                woken.borrow_mut().push(task);
            });
        }
        let mut drv = SimShardDriver::new(vec![ex]);
        let mut idle = Idle;
        let early = net.run(&mut [&mut drv, &mut idle], SimTime::from_millis(1));
        assert!(!early.completed, "the sends cannot complete");
        net.inject_qp_error(na, qpn).expect("the socket's QP");
        let outcome = net.run(&mut [&mut drv, &mut idle], SimTime::from_millis(2));
        assert!(outcome.completed, "failure scenario stalled: {outcome:?}");
        Rc::try_unwrap(woken).expect("tasks done").into_inner()
    };
    let first = run();
    assert_eq!(first, run(), "a second run woke the tasks in another order");
    assert_eq!(first, (0..TASKS).collect::<Vec<_>>());
}
