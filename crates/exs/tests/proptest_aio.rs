//! Property tests for `exs::aio` cancellation safety: random message
//! sizes, random timeout/cancel points on both the send and receive
//! side, on both backends — and the delivered byte stream must always
//! be an exact prefix of the sent messages on a message boundary
//! (never reordered, torn, or duplicated), matching the FNV-1a digest
//! an uninterrupted run would produce for that prefix.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;

use exs::aio::timeout;
use exs::threaded::connect_sockets_shared;
use exs::{Executor, ExsConfig, ExsError, Reactor, ReactorConfig, SimShardDriver, StreamSocket};
use rdma_verbs::{HcaConfig, HostModel, SimNet, ThreadNet};
use simnet::{LinkConfig, SimDuration, SimTime};

fn small_cfg() -> ExsConfig {
    ExsConfig {
        ring_capacity: 64 << 10,
        credits: 8,
        sq_depth: 16,
        ..ExsConfig::default()
    }
}

fn fnv1a(acc: u64, bytes: &[u8]) -> u64 {
    let mut h = acc;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

fn payload(msg: usize, i: usize) -> u8 {
    (msg * 97 + i * 31) as u8
}

fn message(msg: usize, len: usize) -> Vec<u8> {
    (0..len).map(|i| payload(msg, i)).collect()
}

/// The digests an uninterrupted run would produce after 0, 1, …, n
/// whole messages — the only values a cancelled run may ever see.
fn prefix_digests(sizes: &[usize]) -> Vec<(usize, u64)> {
    let mut out = Vec::with_capacity(sizes.len() + 1);
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut len = 0usize;
    out.push((0, h));
    for (m, &sz) in sizes.iter().enumerate() {
        h = fnv1a(h, &message(m, sz));
        len += sz;
        out.push((len, h));
    }
    out
}

/// What the receive side observed: total bytes claimed and their
/// running digest, in claim order.
#[derive(Default)]
struct Delivery {
    len: usize,
    digest: u64,
    sender_ok: usize,
}

fn check_prefix(sizes: &[usize], d: &Delivery) {
    let valid = prefix_digests(sizes);
    let hit = valid.iter().find(|&&(len, _)| len == d.len);
    let Some(&(_, want)) = hit else {
        panic!(
            "delivered {} bytes is not a message boundary of {sizes:?}",
            d.len
        );
    };
    assert_eq!(
        d.digest, want,
        "delivered bytes are not the prefix an uninterrupted run sends"
    );
    // Every send the sender saw complete must be part of the prefix.
    let acked_len: usize = sizes[..d.sender_ok].iter().sum();
    assert!(
        d.len >= acked_len,
        "an acknowledged send ({} msgs, {acked_len} B) is missing from delivery ({} B)",
        d.sender_ok,
        d.len
    );
}

/// Sender task body: each message races a timeout at a generated
/// cancel point. The first cancellation stops the stream (a clean
/// cancel would otherwise legally *skip* a message, voiding the
/// prefix property this test pins down).
async fn send_side(
    h: exs::AioHandle,
    stream: exs::AsyncStream,
    sizes: Vec<usize>,
    cancel_nanos: Vec<u64>,
    sender_ok: Rc<RefCell<usize>>,
) {
    for (m, &sz) in sizes.iter().enumerate() {
        let dur = Duration::from_nanos(cancel_nanos[m]);
        match timeout(&h, dur, stream.send_all(message(m, sz))).await {
            Ok(Ok(())) => *sender_ok.borrow_mut() += 1,
            Ok(Err(e)) => {
                assert!(
                    matches!(e, ExsError::Cancelled),
                    "only poisoning may fail a later send, got {e}"
                );
                break;
            }
            Err(ExsError::TimedOut) => break,
            Err(e) => panic!("unexpected timeout error {e}"),
        }
    }
    stream.shutdown().await.expect("sender shutdown");
    match stream.recv_some(1).await {
        Err(ExsError::Eof) => {}
        other => panic!("sender expected EOF, got {other:?}"),
    }
}

/// Receiver task body: drains with `recv_some` through random-length
/// timeouts — a timed-out (dropped) receive must never lose or
/// duplicate bytes.
async fn recv_side(
    h: exs::AioHandle,
    stream: exs::AsyncStream,
    recv_timeout_nanos: u64,
    out: Rc<RefCell<Delivery>>,
) {
    loop {
        let dur = Duration::from_nanos(recv_timeout_nanos);
        match timeout(&h, dur, stream.recv_some(4096)).await {
            Ok(Ok(bytes)) => {
                let mut d = out.borrow_mut();
                d.digest = fnv1a(d.digest, &bytes);
                d.len += bytes.len();
            }
            Ok(Err(ExsError::Eof)) => break,
            Ok(Err(e)) => panic!("receiver failed: {e}"),
            Err(ExsError::TimedOut) => continue,
            Err(e) => panic!("unexpected timeout error {e}"),
        }
    }
    stream.shutdown().await.expect("receiver shutdown");
}

fn run_sim_case(sizes: Vec<usize>, cancel_nanos: Vec<u64>, recv_timeout_nanos: u64, seed: u64) {
    let cfg = small_cfg();
    let mut net = SimNet::new();
    net.set_host_seed(seed);
    let na = net.add_node(HostModel::free(), HcaConfig::default());
    let nb = net.add_node(HostModel::free(), HcaConfig::default());
    net.connect_nodes(
        na,
        nb,
        LinkConfig::simple(100_000_000_000, SimDuration::from_micros(1)),
        seed,
    );
    let (sock_a, sock_b) = StreamSocket::pair(&mut net, na, nb, &cfg);

    let mk = |sock: StreamSocket| {
        let mut reactor = Reactor::new(sock.send_cq(), sock.recv_cq(), ReactorConfig::default());
        let conn = reactor.accept(sock);
        let ex = Executor::new(reactor);
        let stream = ex.handle().stream_with(conn, 4096, 2);
        (ex, stream)
    };

    let sender_ok = Rc::new(RefCell::new(0usize));
    let (send_ex, send_stream) = mk(sock_a);
    send_ex.handle().spawn(send_side(
        send_ex.handle(),
        send_stream,
        sizes.clone(),
        cancel_nanos,
        Rc::clone(&sender_ok),
    ));

    let delivered = Rc::new(RefCell::new(Delivery {
        digest: 0xcbf2_9ce4_8422_2325,
        ..Delivery::default()
    }));
    let (recv_ex, recv_stream) = mk(sock_b);
    recv_ex.handle().spawn(recv_side(
        recv_ex.handle(),
        recv_stream,
        recv_timeout_nanos,
        Rc::clone(&delivered),
    ));

    let mut ds = SimShardDriver::new(vec![send_ex]);
    let mut dr = SimShardDriver::new(vec![recv_ex]);
    let outcome = net.run(&mut [&mut ds, &mut dr], SimTime::from_secs(30));
    assert!(outcome.completed, "cancel case stalled: {outcome:?}");

    let mut d = Rc::try_unwrap(delivered)
        .ok()
        .expect("tasks done")
        .into_inner();
    d.sender_ok = *sender_ok.borrow();
    check_prefix(&sizes, &d);
}

fn run_threaded_case(sizes: Vec<usize>, cancel_micros: Vec<u64>, recv_timeout_micros: u64) {
    let cfg = small_cfg();
    let mut net = ThreadNet::new();
    let na = net.add_node(HcaConfig::default());
    let nb = net.add_node(HcaConfig::default());
    net.connect_nodes(&na, &nb, Duration::from_micros(20));
    let (sock_a, sock_b) = connect_sockets_shared(&na, &nb, &cfg, None, None);
    let net = Arc::new(net);

    let sender = {
        let net = Arc::clone(&net);
        let sizes = sizes.clone();
        std::thread::spawn(move || {
            let mut reactor =
                Reactor::new(sock_a.send_cq(), sock_a.recv_cq(), ReactorConfig::default());
            let conn = reactor.accept(sock_a);
            let mut ex = Executor::new(reactor);
            let stream = ex.handle().stream_with(conn, 4096, 2);
            let sender_ok = Rc::new(RefCell::new(0usize));
            let cancel_nanos = cancel_micros.iter().map(|&u| u * 1000).collect();
            ex.handle().spawn(send_side(
                ex.handle(),
                stream,
                sizes,
                cancel_nanos,
                Rc::clone(&sender_ok),
            ));
            ex.run_threaded(&net, &na);
            let ok = *sender_ok.borrow();
            ok
        })
    };
    let receiver = {
        let net = Arc::clone(&net);
        std::thread::spawn(move || {
            let mut reactor =
                Reactor::new(sock_b.send_cq(), sock_b.recv_cq(), ReactorConfig::default());
            let conn = reactor.accept(sock_b);
            let mut ex = Executor::new(reactor);
            let stream = ex.handle().stream_with(conn, 4096, 2);
            let delivered = Rc::new(RefCell::new(Delivery {
                digest: 0xcbf2_9ce4_8422_2325,
                ..Delivery::default()
            }));
            ex.handle().spawn(recv_side(
                ex.handle(),
                stream,
                recv_timeout_micros * 1000,
                Rc::clone(&delivered),
            ));
            ex.run_threaded(&net, &nb);
            Rc::try_unwrap(delivered)
                .ok()
                .expect("tasks done")
                .into_inner()
        })
    };

    let sender_ok = sender.join().expect("sender thread");
    let mut d = receiver.join().expect("receiver thread");
    d.sender_ok = sender_ok;
    check_prefix(&sizes, &d);
    net.quiesce();
}

fn sizes_strategy() -> impl Strategy<Value = Vec<usize>> {
    proptest::collection::vec(1usize..8192, 1..6)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Simulated backend: any cancel points on either side leave the
    /// delivered stream a digest-exact message-boundary prefix.
    #[test]
    fn sim_cancelled_streams_stay_prefix_exact(
        sizes in sizes_strategy(),
        cancel_nanos in proptest::collection::vec(0u64..40_000, 6),
        recv_timeout_nanos in 500u64..20_000,
        seed in any::<u64>(),
    ) {
        run_sim_case(sizes, cancel_nanos, recv_timeout_nanos, seed);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Threaded backend: the same prefix property under real-thread
    /// timing and wall-clock timers.
    #[test]
    fn threaded_cancelled_streams_stay_prefix_exact(
        sizes in sizes_strategy(),
        cancel_micros in proptest::collection::vec(1u64..30_000, 6),
        recv_timeout_micros in 100u64..20_000,
    ) {
        run_threaded_case(sizes, cancel_micros, recv_timeout_micros);
    }
}
