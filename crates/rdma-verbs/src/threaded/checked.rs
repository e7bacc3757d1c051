//! The wake protocol checked as shipped: this file's code, over every
//! schedule of a few threads within a bound on context switches
//! (`crate::sync`'s controlled scheduler). A lost wake-up is a deadlock
//! — every unfinished thread parked — and fails with its schedule.
//!
//! The scenarios run real [`ThreadNode`]s, [`Host`]s and [`Mailbox`]es.
//! Waiters sit on a hub node; each completion is an RDMA WRITE WITH IMM
//! a deliverer posts from a peer over a zero-delay [`ThreadNet`] link,
//! so the deliverer lands and notifies it itself (no thread starts). A
//! test engine stands for the endpoint a host guards: its step polls a
//! CQ, and a call may complete an operation outright. The executor is
//! `exs`'s `run_threaded` loop over a ready queue and a CQ of its own.
//! Each patch in `crates/rdma-verbs/mutations/` breaks one ordering and
//! is caught here as a deadlock (CI applies each).

use std::cell::Cell;
use std::collections::VecDeque;

use super::*;
use crate::qp::QpCaps;
use crate::sync::{explore, Bound};
use crate::types::{Access, RemoteAddr};

/// The test engine: a CQ on the hub, and what it completed since it
/// last published.
struct Cqs {
    node: Arc<ThreadNode>,
    cq: CqId,
    polled: Vec<Cqe>,
    news: Vec<u64>,
}

impl Engine for Cqs {
    type Done = Vec<u64>;
    fn publish(&mut self, done: &Mailbox<Vec<u64>>) {
        if !self.news.is_empty() {
            done.publish(|done| done.append(&mut self.news));
        }
    }
}

struct World {
    net: ThreadNet,
    hub: Arc<ThreadNode>,
    host: Host<Cqs>,
    exec_cq: CqId,
    ready: Mailbox<VecDeque<usize>>,
    /// Completion `k`: the peer that posts it, its QP there, the post.
    sends: Vec<(usize, Arc<ThreadNode>, QpNum, SendWr)>,
}

/// Completion `k` is receive `k` on a QP of its own from peer
/// `lands[k].0`, onto the executor's CQ if `lands[k].1`, else the host's.
fn world(lands: &[(usize, bool)]) -> World {
    let mut net = ThreadNet::new();
    let hub = net.add_node(HcaConfig::default());
    let peers: Vec<_> = (0..=lands.iter().map(|l| l.0).max().unwrap_or(0))
        .map(|_| net.add_node(HcaConfig::default()))
        .collect();
    peers
        .iter()
        .for_each(|p| net.connect_nodes(&hub, p, Duration::ZERO));
    let (host_cq, exec_cq) = hub.with_hca(|h| (h.create_cq(8), h.create_cq(8)));
    let ring = hub.with_hca(|h| h.register_mr(8, Access::local_remote_write()));
    let sends = lands.iter().enumerate().map(|(k, &(p, exec))| {
        let (peer, cq) = (&peers[p], if exec { exec_cq } else { host_cq });
        let hub_qp = hub.with_hca(|h| h.create_qp(cq, cq, QpCaps::default()).unwrap());
        let (qp, src) = peer.with_hca(|h| {
            let cq = h.create_cq(8);
            let qp = h.create_qp(cq, cq, QpCaps::default()).unwrap();
            h.connect_qp(qp, (hub.id(), hub_qp)).unwrap();
            (qp, h.register_mr(8, Access::NONE))
        });
        hub.with_hca(|h| h.connect_qp(hub_qp, (peer.id(), qp)).unwrap());
        hub.post_recv(hub_qp, RecvWr::empty(k as u64)).unwrap();
        let to = RemoteAddr {
            addr: ring.addr,
            rkey: ring.key,
        };
        let wr = SendWr::write_imm(k as u64, src.sge(0, 8), to, 0).unsignaled();
        (p, peer.clone(), qp, wr)
    });
    let (polled, news) = (Vec::new(), Vec::new());
    let engine = Cqs {
        node: hub.clone(),
        cq: host_cq,
        polled,
        news,
    };
    World {
        sends: sends.collect(),
        host: Host::new(hub.clone(), engine, Vec::new()),
        net,
        hub,
        exec_cq,
        ready: Mailbox::new(VecDeque::new()),
    }
}

impl World {
    /// Peer `p` lands its completions, in order.
    fn deliver(&self, p: usize) {
        for (_, peer, qp, wr) in self.sends.iter().filter(|s| s.0 == p) {
            self.net.post_send(peer, *qp, wr.clone()).unwrap();
        }
    }

    /// A caller of the host waits, stepping it, for completion `k`.
    fn await_done(&self, k: u64) {
        let host = &self.host;
        let step = || {
            host.with_engine(|e| {
                e.node.poll_cq(e.cq, usize::MAX, &mut e.polled).unwrap();
                e.news.extend(e.polled.drain(..).map(|c| c.wr_id));
            })
        };
        let take = || {
            let mut done = host.mailbox.lock();
            let at = done.iter().position(|&d| d == k)?;
            Some(done.swap_remove(at))
        };
        assert_eq!(host.mailbox.wait(&host.node, None, step, take), Some(k));
    }

    /// A caller's call completes another caller's operation `k`.
    fn complete(&self, k: u64) {
        self.host.with_engine(|e| e.news.push(k));
    }

    /// `exs`'s `run_threaded` over one completion on its CQ and one task,
    /// which a waker on another thread wakes: each turn polls the CQ and
    /// runs the ready tasks, until both were seen.
    fn execute(&self) {
        let (saw_cqe, woken) = (Cell::new(false), Cell::new(false));
        let drained = || saw_cqe.get() && woken.get();
        let mut polled = Vec::new();
        let mut turn = || {
            self.hub
                .poll_cq(self.exec_cq, usize::MAX, &mut polled)
                .unwrap();
            saw_cqe.set(saw_cqe.get() || !polled.is_empty());
            while self.ready.lock().pop_front().is_some() {
                woken.set(true);
            }
        };
        let look = || (drained() || !self.ready.lock().is_empty()).then_some(());
        loop {
            self.ready.wait(&self.hub, None, &mut turn, look);
            if drained() {
                break;
            }
        }
    }

    /// The waker, fired on another thread.
    fn wake(&self) {
        self.ready.publish(|tasks| tasks.push_back(0));
    }
}

type Actor<'a> = &'a (dyn Fn(&World) + Sync);

fn holds(name: &str, bound: Bound, lands: &[(usize, bool)], actors: &[Actor<'_>]) {
    let start = std::time::Instant::now();
    let runs = explore(bound, || world(lands), actors).unwrap_or_else(|e| panic!("{name}: {e}"));
    println!(
        "{name}: {bound:?}, {runs} schedules in {:.2?}",
        start.elapsed()
    );
}

/// The bound the scenarios of three actors hold at.
const K: Bound = Bound::Preemptions(2);

/// Two callers of one host, each waiting for a completion that lands.
#[test]
fn two_callers_of_one_host_lose_no_wake_up() {
    let actors: [Actor; 3] = [&|w| w.deliver(0), &|w| w.await_done(0), &|w| {
        w.await_done(1)
    }];
    holds("two callers of one host", K, &[(0, false); 2], &actors);
}

/// Two callers of one host: one's call completes the other's operation
/// (0), then it waits for a completion that lands (1, from peer 0).
#[test]
fn a_call_completing_another_callers_operation_loses_no_wake_up() {
    let actors: [Actor; 3] = [&|w| w.deliver(0), &|w| w.await_done(0), &|w| {
        w.complete(0);
        w.await_done(1);
    }];
    holds(
        "a call completes another's",
        K,
        &[(1, false), (0, false)],
        &actors,
    );
}

/// An executor with a completion on its CQ and a task woken from another
/// thread: that of a caller of a host on the same node.
#[test]
fn a_waker_on_another_thread_wakes_the_executor() {
    let actors: [Actor; 3] = [&|w| w.deliver(0), &|w| w.execute(), &|w| {
        w.wake();
        w.await_done(1);
    }];
    holds(
        "executor, waker and a caller",
        K,
        &[(0, true), (0, false)],
        &actors,
    );
}

/// Seven threads on one node: two deliverers, three callers of one host
/// (one completing another's operation), an executor and its waker.
/// Free handoffs among seven do not finish even with no preemption, so
/// this counts every switch but the round-robin handoff (EXPERIMENTS.md
/// "Checked as shipped": two finish in under a minute in release).
#[test]
fn seven_actors_on_one_node_lose_no_wake_up() {
    let actors: [Actor; 7] = [
        &|w| w.deliver(0),
        &|w| w.deliver(1),
        &|w| w.await_done(0),
        &|w| {
            w.await_done(2);
            w.await_done(4);
        },
        &|w| {
            w.complete(4);
            w.await_done(3);
        },
        &|w| w.execute(),
        &|w| w.wake(),
    ];
    let lands = [(0, false), (0, true), (1, false), (1, false)];
    holds("seven actors", Bound::Switches(1), &lands, &actors);
}
