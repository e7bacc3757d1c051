//! Property tests for `exs::aio` cancellation safety: random message
//! sizes and random cancel points on both the send and the receive
//! side, on both backends — and the delivered byte stream must always
//! be an exact prefix of the sent messages on a message boundary
//! (never reordered, torn, or duplicated), matching the FNV-1a digest
//! an uninterrupted run would produce for that prefix.
//!
//! A cancel point is a flip of a [`support::Switch`]: at a drawn
//! simulated time, or after a drawn wall-clock delay on the thread
//! backend. The flip drops the future the task awaits at that moment.
//! Cases come from a seeded generator, so a failing case repeats, and
//! over each test's cases both outcomes of a cancellation — clean and
//! poisoned — must occur, or the property was never exercised.

mod support;

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Duration;

use exs::threaded::connect_sockets_shared;
use exs::{
    AioStats, Executor, ExsConfig, ExsError, Reactor, ReactorConfig, SimShardDriver, StreamSocket,
};
use rdma_verbs::{HcaConfig, HostModel, SimNet, ThreadNet};
use simnet::{LinkConfig, SimDuration, SimTime, Xoshiro256};
use support::{flip_after, race, Flipped, Switch};

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
struct Delivery {
    len: usize,
    digest: u64,
}

impl Default for Delivery {
    fn default() -> Delivery {
        Delivery {
            len: 0,
            digest: 0xcbf2_9ce4_8422_2325,
        }
    }
}

/// What the send side observed: the sends that completed, and what an
/// empty probe send returned after the first cancellation (`None`:
/// nothing was cancelled).
#[derive(Default)]
struct Sent {
    ok: usize,
    probe: Option<Result<(), ExsError>>,
}

fn check_prefix(sizes: &[usize], d: &Delivery, sent: &Sent) {
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
    let acked_len: usize = sizes[..sent.ok].iter().sum();
    assert!(
        d.len >= acked_len,
        "an acknowledged send ({} msgs, {acked_len} B) is missing from delivery ({} B)",
        sent.ok,
        d.len
    );
}

/// The sender's cancellation is the one its executor counted: a
/// poisoned one fails the probe with `Cancelled`, a clean one lets it
/// through.
fn check_cancel(sent: &Sent, stats: &AioStats) {
    let counted = match &sent.probe {
        None => (0, 0),
        Some(Ok(())) => (1, 0),
        Some(Err(ExsError::Cancelled)) => (0, 1),
        Some(Err(e)) => panic!("the probe send failed with {e}"),
    };
    assert_eq!((stats.cancels_clean, stats.cancels_poisoned), counted);
}

/// Sender task body: each message races the sender's switch. The
/// first cancellation stops the stream (a clean cancel would otherwise
/// legally *skip* a message, voiding the prefix property this test
/// pins down).
async fn send_side(
    switch: Switch,
    stream: exs::AsyncStream,
    sizes: Vec<usize>,
    sent: Rc<RefCell<Sent>>,
) {
    for (m, &sz) in sizes.iter().enumerate() {
        match race(&switch, stream.send_all(message(m, sz))).await {
            Some(Ok(())) => sent.borrow_mut().ok += 1,
            Some(Err(e)) => panic!("send {m} failed before any cancellation: {e}"),
            None => {
                // An empty send puts no byte on the wire; it fails fast
                // exactly when the cancellation poisoned the stream.
                sent.borrow_mut().probe = Some(stream.send_all(Vec::new()).await);
                break;
            }
        }
    }
    stream.shutdown().await.expect("sender shutdown");
    match stream.recv_some(1).await {
        Err(ExsError::Eof) => {}
        other => panic!("sender expected EOF, got {other:?}"),
    }
}

/// Receiver task body: claims `reads` sizes in turn with `recv_exact`,
/// each receive racing the receiver's switch, then drains the remainder
/// the end of stream left short with `recv_some`. A dropped receive —
/// also one holding part of what it asked for — must never lose or
/// duplicate bytes.
async fn recv_side(
    switch: Switch,
    stream: exs::AsyncStream,
    reads: Vec<usize>,
    out: Rc<RefCell<Delivery>>,
) {
    let absorb = |bytes: Vec<u8>| {
        let mut d = out.borrow_mut();
        d.digest = fnv1a(d.digest, &bytes);
        d.len += bytes.len();
    };
    for want in reads.iter().cycle() {
        match race(&switch, stream.recv_exact(*want)).await {
            Some(Ok(bytes)) => absorb(bytes),
            Some(Err(ExsError::Eof)) => break,
            Some(Err(e)) => panic!("receiver failed: {e}"),
            None => continue,
        }
    }
    loop {
        match stream.recv_some(4096).await {
            Ok(bytes) => absorb(bytes),
            Err(ExsError::Eof) => break,
            Err(e) => panic!("receiver failed: {e}"),
        }
    }
    stream.shutdown().await.expect("receiver shutdown");
}

/// One drawn case: the messages, when the sender's switch flips, the
/// receiver's claim sizes, and how often the receiver's switch flips.
struct Case {
    sizes: Vec<usize>,
    send_flip: u64,
    reads: Vec<usize>,
    recv_period: u64,
}

impl Case {
    /// `send_flip` in `flip`, `recv_period` in `period` (both inclusive,
    /// in the backend's time unit).
    fn draw(rng: &mut Xoshiro256, flip: (u64, u64), period: (u64, u64)) -> Case {
        let n = rng.next_range(1, 5) as usize;
        Case {
            sizes: (0..n).map(|_| rng.next_range(1, 8191) as usize).collect(),
            send_flip: rng.next_range(flip.0, flip.1),
            reads: (0..4).map(|_| rng.next_range(1, 12_000) as usize).collect(),
            recv_period: rng.next_range(period.0, period.1),
        }
    }
}

/// Flips of the receiver's switch: every `period`, at most this many.
const RECV_FLIPS: u64 = 48;

/// The value a finished task left behind.
fn take<T>(shared: Rc<RefCell<T>>) -> T {
    Rc::try_unwrap(shared)
        .ok()
        .expect("tasks done")
        .into_inner()
}

/// Checks one finished case; returns both sides' counters.
fn finish(case: &Case, sent: &Sent, d: &Delivery, send: AioStats, recv: AioStats) -> AioStats {
    check_prefix(&case.sizes, d, sent);
    check_cancel(sent, &send);
    simnet::stats::merged([send, recv])
}

fn run_sim_case(case: &Case, seed: u64) -> AioStats {
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

    let sent = Rc::new(RefCell::new(Sent::default()));
    let send_switch = Switch::default();
    let (send_ex, send_stream) = mk(sock_a);
    send_ex.handle().spawn(send_side(
        send_switch.clone(),
        send_stream,
        case.sizes.clone(),
        Rc::clone(&sent),
    ));

    let delivered = Rc::new(RefCell::new(Delivery::default()));
    let recv_switch = Switch::default();
    let (recv_ex, recv_stream) = mk(sock_b);
    recv_ex.handle().spawn(recv_side(
        recv_switch.clone(),
        recv_stream,
        case.reads.clone(),
        Rc::clone(&delivered),
    ));

    let send_at = vec![SimDuration::from_nanos(case.send_flip)];
    let recv_at = (1..=RECV_FLIPS)
        .map(|k| SimDuration::from_nanos(k * case.recv_period))
        .collect();
    let mut ds = Flipped::new(SimShardDriver::new(vec![send_ex]), &send_switch, send_at);
    let mut dr = Flipped::new(SimShardDriver::new(vec![recv_ex]), &recv_switch, recv_at);
    let outcome = net.run(&mut [&mut ds, &mut dr], SimTime::from_secs(30));
    assert!(outcome.completed, "cancel case stalled: {outcome:?}");
    let (send, recv) = (ds.drv.merged_stats(), dr.drv.merged_stats());
    finish(case, &take(sent), &take(delivered), send, recv)
}

/// `case`'s times are microseconds here.
fn run_threaded_case(case: &Case) -> AioStats {
    let cfg = small_cfg();
    let mut net = ThreadNet::new();
    let na = net.add_node(HcaConfig::default());
    let nb = net.add_node(HcaConfig::default());
    net.connect_nodes(&na, &nb, Duration::from_micros(20));
    let (sock_a, sock_b) = connect_sockets_shared(&na, &nb, &cfg, None, None);
    let net = Arc::new(net);

    let send_switch = Switch::default();
    let sender = {
        let net = Arc::clone(&net);
        let (switch, sizes) = (send_switch.clone(), case.sizes.clone());
        std::thread::spawn(move || {
            let mut reactor =
                Reactor::new(sock_a.send_cq(), sock_a.recv_cq(), ReactorConfig::default());
            let conn = reactor.accept(sock_a);
            let mut ex = Executor::new(reactor);
            let stream = ex.handle().stream_with(conn, 4096, 2);
            let sent = Rc::new(RefCell::new(Sent::default()));
            ex.handle()
                .spawn(send_side(switch, stream, sizes, Rc::clone(&sent)));
            ex.run_threaded(&net, &na);
            (take(sent), ex.stats())
        })
    };
    let recv_switch = Switch::default();
    let receiver = {
        let net = Arc::clone(&net);
        let (switch, reads) = (recv_switch.clone(), case.reads.clone());
        std::thread::spawn(move || {
            let mut reactor =
                Reactor::new(sock_b.send_cq(), sock_b.recv_cq(), ReactorConfig::default());
            let conn = reactor.accept(sock_b);
            let mut ex = Executor::new(reactor);
            let stream = ex.handle().stream_with(conn, 4096, 2);
            let delivered = Rc::new(RefCell::new(Delivery::default()));
            ex.handle()
                .spawn(recv_side(switch, stream, reads, Rc::clone(&delivered)));
            ex.run_threaded(&net, &nb);
            (take(delivered), ex.stats())
        })
    };
    let send_flipper = flip_after(&send_switch, vec![Duration::from_micros(case.send_flip)]);
    let period = Duration::from_micros(case.recv_period);
    let recv_flipper = flip_after(&recv_switch, vec![period; RECV_FLIPS as usize]);

    let (sent, send) = sender.join().expect("sender thread");
    let (delivered, recv) = receiver.join().expect("receiver thread");
    send_flipper.join().expect("sender's flipper");
    recv_flipper.join().expect("receiver's flipper");
    net.quiesce();
    finish(case, &sent, &delivered, send, recv)
}

/// Asserts that `stats`, summed over a test's cases, saw both outcomes
/// of a cancellation.
fn assert_both_outcomes(stats: &AioStats) {
    assert!(stats.cancels_clean > 0, "no clean cancellation: {stats:?}");
    assert!(
        stats.cancels_poisoned > 0,
        "no poisoned cancellation: {stats:?}"
    );
}

/// Simulated backend: any cancel points on either side leave the
/// delivered stream a digest-exact message-boundary prefix.
#[test]
fn sim_cancelled_streams_stay_prefix_exact() {
    let mut rng = Xoshiro256::new(0xA10);
    let mut total = AioStats::default();
    for _ in 0..24 {
        let case = Case::draw(&mut rng, (0, 40_000), (500, 20_000));
        total.merge(&run_sim_case(&case, rng.next_u64()));
    }
    assert_both_outcomes(&total);
}

/// Threaded backend: the same prefix property under real-thread
/// timing, the flips fired from threads of their own. A case's whole
/// exchange takes a few hundred microseconds here, so its cancel points
/// are drawn on that scale.
#[test]
fn threaded_cancelled_streams_stay_prefix_exact() {
    let mut rng = Xoshiro256::new(0xA11);
    let mut total = AioStats::default();
    for _ in 0..32 {
        let case = Case::draw(&mut rng, (0, 300), (10, 200));
        total.merge(&run_threaded_case(&case));
    }
    assert_both_outcomes(&total);
}
