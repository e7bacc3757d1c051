//! Layer probes: timed loops over one layer's public functions, run in
//! the traced pass. Each is the cost of that layer with nothing above
//! it, the figure the per-workload costs are held against.

use std::hint::black_box;
use std::time::{Duration, Instant};

use blast::fan_in::{fnv1a, payload_byte, FNV_OFFSET};
use exs::messages::{Advert, Ctrl, CtrlMsg};
use exs::sender::{RemoteRing, SenderHalf};
use exs::{ConnStats, MemPool, MemPoolConfig, Phase, ProtocolMode, Seq};
use rdma_verbs::profiles::fdr_infiniband;
use rdma_verbs::{
    connect_pair, Access, ConnHalf, Cqe, HcaConfig, MrInfo, NodeApi, NodeApp, QpCaps, RecvWr,
    RemoteAddr, SendWr, SimNet, ThreadNet,
};
use simnet::{Scheduler, SimTime};

use crate::stats::median;
use crate::workloads::Values;

/// Timed batches per probe (after one warm-up batch).
const BATCHES: usize = 7;

/// Median nanoseconds per operation over [`BATCHES`] calls of `batch`,
/// which does some work and returns `(operations, time in them)`.
fn probe(mut batch: impl FnMut() -> (u64, Duration)) -> f64 {
    batch();
    let samples: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let (ops, took) = batch();
            took.as_nanos() as f64 / ops as f64
        })
        .collect();
    median(&samples)
}

/// Like [`probe`] for a batch that is timed as a whole.
fn probe_whole(mut batch: impl FnMut() -> u64) -> f64 {
    probe(|| {
        let t = Instant::now();
        let ops = batch();
        (ops, t.elapsed())
    })
}

/// `simnet::Scheduler`: one `schedule_at` plus one `pop`, 10k events
/// queued at a time with shuffled timestamps.
fn sched_ns_per_event() -> f64 {
    probe_whole(|| {
        let mut s = Scheduler::<u64>::new();
        let mut acc = 0u64;
        for _ in 0..20 {
            let base = s.now().as_nanos();
            for i in 0..10_000u64 {
                s.schedule_at(SimTime::from_nanos(base + i * 7 % 5_000), i);
            }
            while let Some((_, v)) = s.pop() {
                acc = acc.wrapping_add(v);
            }
        }
        black_box(acc);
        200_000
    })
}

/// WWIs kept in flight by the raw verbs probes.
const WWI_DEPTH: u64 = 4;

/// Queue sizes for a probe of `count` WWIs. Raw verbs have no flow
/// control, and a sender paced only by its own completions outruns the
/// receiver; so the receiver starts with a receive posted for every
/// message (and still re-posts one per completion, to keep that cost in
/// the loop) and its CQ can hold every completion.
fn probe_caps(count: u64) -> QpCaps {
    QpCaps {
        max_send_wr: 64,
        max_recv_wr: 2 * count as usize + 16,
        max_inline: 0,
    }
}

fn probe_cq_depth(count: u64) -> usize {
    count as usize + 16
}

/// Posts RDMA WRITE WITH IMM as fast as completions allow.
struct WwiSender {
    conn: ConnHalf,
    src: MrInfo,
    dst: RemoteAddr,
    len: u32,
    total: u64,
    posted: u64,
    completed: u64,
    cqes: Vec<Cqe>,
}

impl WwiSender {
    fn post(&mut self, api: &mut NodeApi<'_>) {
        while self.posted < self.total && self.posted - self.completed < WWI_DEPTH {
            let wr = SendWr::write_imm(self.posted, self.src.sge(0, self.len), self.dst, 0);
            api.post_send(self.conn.qpn, wr).expect("probe post_send");
            self.posted += 1;
        }
    }
}

impl NodeApp for WwiSender {
    fn on_start(&mut self, api: &mut NodeApi<'_>) {
        self.post(api);
    }
    fn on_wake(&mut self, api: &mut NodeApi<'_>) {
        self.cqes.clear();
        api.poll_cq(self.conn.send_cq, usize::MAX, &mut self.cqes)
            .expect("probe poll_cq");
        self.completed += self.cqes.len() as u64;
        self.post(api);
    }
    fn is_done(&self) -> bool {
        self.completed == self.total
    }
}

/// Consumes WWI notifications, re-posting one receive for each.
struct WwiReceiver {
    conn: ConnHalf,
    total: u64,
    received: u64,
    cqes: Vec<Cqe>,
}

impl NodeApp for WwiReceiver {
    fn on_start(&mut self, _api: &mut NodeApi<'_>) {}
    fn on_wake(&mut self, api: &mut NodeApi<'_>) {
        self.cqes.clear();
        api.poll_cq(self.conn.recv_cq, usize::MAX, &mut self.cqes)
            .expect("probe poll_cq");
        for cqe in &self.cqes {
            api.post_recv(self.conn.qpn, RecvWr::empty(cqe.wr_id))
                .expect("probe post_recv");
        }
        self.received += self.cqes.len() as u64;
    }
    fn is_done(&self) -> bool {
        self.received == self.total
    }
}

/// Host nanoseconds per WWI of `len` bytes through `SimNet`/`NodeApi`
/// with no `exs` above: post, HCA model, link, delivery, both CQEs.
fn sim_wwi_ns(len: u32, count: u64) -> f64 {
    probe(|| {
        let profile = fdr_infiniband();
        let mut net = SimNet::new();
        let a = net.add_node(profile.host.clone(), profile.hca.clone());
        let b = net.add_node(profile.host.clone(), profile.hca.clone());
        net.connect_nodes(a, b, profile.link.clone(), 1);
        let (ha, hb) = connect_pair(&mut net, a, b, probe_caps(count), probe_cq_depth(count))
            .expect("probe connect");
        let src = net.with_api(a, |api| api.register_mr(len as usize, Access::NONE));
        let dst = net.with_api(b, |api| {
            for wr_id in 0..count {
                api.post_recv(hb.qpn, RecvWr::empty(wr_id))
                    .expect("probe post_recv");
            }
            api.register_mr(len as usize, Access::local_remote_write())
        });
        let mut sender = WwiSender {
            conn: ha,
            src,
            dst: RemoteAddr {
                addr: dst.addr,
                rkey: dst.key,
            },
            len,
            total: count,
            posted: 0,
            completed: 0,
            cqes: Vec::new(),
        };
        let mut receiver = WwiReceiver {
            conn: hb,
            total: count,
            received: 0,
            cqes: Vec::new(),
        };
        let t = Instant::now();
        let outcome = net.run(&mut [&mut sender, &mut receiver], SimTime::from_secs(600));
        let took = t.elapsed();
        assert!(outcome.completed, "sim WWI probe stalled");
        (count, took)
    })
}

/// Host nanoseconds per WWI of `len` bytes through
/// `ThreadNet::post_send` and `poll_cq`, driven from this thread with
/// the fabric's link threads delivering.
fn thread_wwi_ns(len: u32, count: u64) -> f64 {
    let mut net = ThreadNet::new();
    let a = net.add_node(HcaConfig::default());
    let b = net.add_node(HcaConfig::default());
    net.connect_nodes(&a, &b, Duration::ZERO);
    let caps = probe_caps(count);
    let make = |node: &std::sync::Arc<rdma_verbs::ThreadNode>, access| {
        node.with_hca(|h| {
            let depth = probe_cq_depth(count);
            let (send_cq, recv_cq) = (h.create_cq(depth), h.create_cq(depth));
            let qpn = h
                .create_qp(send_cq, recv_cq, caps)
                .expect("probe create_qp");
            (qpn, send_cq, recv_cq, h.register_mr(len as usize, access))
        })
    };
    let (a_qp, a_scq, _, src) = make(&a, Access::NONE);
    let (b_qp, _, b_rcq, dst) = make(&b, Access::local_remote_write());
    a.with_hca(|h| h.connect_qp(a_qp, (b.id(), b_qp)).expect("connect a"));
    b.with_hca(|h| h.connect_qp(b_qp, (a.id(), a_qp)).expect("connect b"));
    for wr_id in 0..count {
        b.post_recv(b_qp, RecvWr::empty(wr_id))
            .expect("probe post_recv");
    }
    let remote = RemoteAddr {
        addr: dst.addr,
        rkey: dst.key,
    };
    let mut cqes = Vec::new();
    probe_whole(|| {
        let (mut posted, mut received) = (0u64, 0u64);
        while received < count {
            while posted < count && posted - received < WWI_DEPTH {
                let wr = SendWr::write_imm(posted, src.sge(0, len), remote, 0);
                net.post_send(&a, a_qp, wr).expect("probe post_send");
                posted += 1;
            }
            let arrived = b.wait_cq(b_rcq, Duration::from_secs(30));
            assert!(!arrived.is_empty(), "thread WWI probe stalled");
            for cqe in &arrived {
                b.post_recv(b_qp, RecvWr::empty(cqe.wr_id))
                    .expect("probe post_recv");
            }
            received += arrived.len() as u64;
            cqes.clear();
            a.poll_cq(a_scq, usize::MAX, &mut cqes)
                .expect("probe poll_cq");
        }
        count
    })
}

/// `SenderHalf::plan_transfer` (paper Fig. 2) against a queue of 1000
/// usable ADVERTs; only the planning calls are timed.
fn sender_plan_ns() -> f64 {
    probe(|| {
        let mut half = SenderHalf::new(
            ProtocolMode::Dynamic,
            RemoteRing {
                addr: 0x1000,
                rkey: 1,
                capacity: 1 << 20,
            },
            1 << 20,
        );
        let mut stats = ConnStats::default();
        for i in 0..1_000u64 {
            half.push_advert(
                Advert {
                    seq: Seq(i * 8_192),
                    phase: Phase(0),
                    addr: 0x10_0000 + i * 8_192,
                    len: 8_192,
                    rkey: 9,
                    waitall: false,
                },
                &mut stats,
            )
            .expect("in-sequence advert");
        }
        let t = Instant::now();
        for _ in 0..1_000 {
            let plan = half.plan_transfer(8_192, &mut stats).expect("advert ready");
            assert!(!black_box(plan).indirect);
        }
        (1_000, t.elapsed())
    })
}

/// One ADVERT control message encoded and decoded.
fn ctrl_codec_ns() -> f64 {
    let msg = CtrlMsg {
        ctrl: Ctrl::Advert(Advert {
            seq: Seq(123_456_789),
            phase: Phase(6),
            addr: 0xDEAD_BEEF,
            len: 1 << 20,
            rkey: 77,
            waitall: true,
        }),
        credit_return: 3,
    };
    probe_whole(|| {
        for _ in 0..100_000 {
            let buf = black_box(&msg).encode();
            black_box(CtrlMsg::decode(&buf).expect("round trip"));
        }
        100_000
    })
}

/// `MemPool::acquire` plus lease drop when the pin-down cache hits.
fn mempool_hit_ns() -> f64 {
    let profile = fdr_infiniband();
    let mut net = SimNet::new();
    let node = net.add_node(profile.host, profile.hca);
    let pool = MemPool::new(MemPoolConfig {
        pinned_budget: 64 << 20,
        min_class: 4096,
    });
    net.with_api(node, |api| {
        drop(pool.acquire(api, 4096, Access::NONE));
        probe_whole(|| {
            for _ in 0..100_000 {
                black_box(pool.acquire(api, 4096, Access::NONE));
            }
            100_000
        })
    })
}

/// Generating the seeded payload pattern and folding it into FNV-1a:
/// what `VerifyLevel::Full` adds per delivered byte (twice — once to
/// fill, once to check), and why timed repetitions run without it.
fn verify_ns_per_byte() -> f64 {
    let mut buf = vec![0u8; 1 << 20];
    probe_whole(|| {
        for (i, byte) in buf.iter_mut().enumerate() {
            *byte = payload_byte(7, 3, i as u64);
        }
        black_box(fnv1a(FNV_OFFSET, black_box(&buf)));
        buf.len() as u64
    })
}

/// Runs every probe. About a second in total.
pub fn run_all() -> Values {
    const MIB: u32 = 1 << 20;
    let sim_small = sim_wwi_ns(64, 20_000);
    let sim_large = sim_wwi_ns(MIB, 200);
    let thread_small = thread_wwi_ns(64, 5_000);
    let thread_large = thread_wwi_ns(MIB, 100);
    // Per-byte cost: what a 1 MiB WWI costs beyond a 64 B one.
    let per_byte = |large: f64, small: f64| (large - small).max(0.0) / f64::from(MIB - 64);
    Values::from([
        ("simnet.sched_ns_per_event", sched_ns_per_event()),
        ("rdma-verbs.sim_ns_per_wqe", sim_small),
        ("rdma-verbs.sim_ns_per_byte", per_byte(sim_large, sim_small)),
        ("rdma-verbs.thread_ns_per_wqe", thread_small),
        (
            "rdma-verbs.thread_ns_per_byte",
            per_byte(thread_large, thread_small),
        ),
        ("exs.sender_plan_ns", sender_plan_ns()),
        ("exs.ctrl_codec_ns", ctrl_codec_ns()),
        ("exs.mempool_hit_ns", mempool_hit_ns()),
        ("blast.verify_ns_per_byte", verify_ns_per_byte()),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verbs_probes_complete_and_scale_with_size() {
        let small = sim_wwi_ns(64, 500);
        let large = sim_wwi_ns(256 << 10, 50);
        assert!(small > 0.0 && large > small);
        assert!(thread_wwi_ns(64, 200) > 0.0);
    }

    #[test]
    fn pure_probes_return_positive_costs() {
        assert!(sender_plan_ns() > 0.0);
        assert!(ctrl_codec_ns() > 0.0);
        assert!(mempool_hit_ns() > 0.0);
        assert!(verify_ns_per_byte() > 0.0);
        assert!(sched_ns_per_event() > 0.0);
    }
}
