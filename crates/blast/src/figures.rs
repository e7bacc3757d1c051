//! The paper's evaluation (§IV-B) and its ablations, stated once as data.
//!
//! The blast tool "outputs the average throughput, time per message, and
//! CPU usage on each side" (§IV-B), so Fig. 9 (throughput), Fig. 10
//! (receiver CPU) and Table III (mode switches) are three readings of
//! one set of runs. Here every table is such a reading:
//!
//! * a *point* is one configuration of one sweep. Its spec comes from
//!   the sweep's constructor ([`ops_spec`], [`fixed_size_spec`],
//!   [`wan_spec`], [`pingpong_spec`], …) and its seeds from the sweep's
//!   seed rule;
//! * a *table* is a title, rows, columns whose cells each read one
//!   point's runs with one metric, and a note. Three ablations add a
//!   column derived from the first two (a gap, an overhead, a saving);
//! * [`print_all`] prints every table in README order and runs each
//!   point once, the first time a table reads it. A point that two
//!   tables read (the Fig. 9 runs that Fig. 10, Table III and the QDR and
//!   rsockets ablations also read) runs on the seeds of the first.
//!
//! A read cell is the mean ± 95 % confidence half-width over the runs, as
//! the paper reports them; a derived cell is a plain number.
//!
//! After the paper's tables come the serving stack's: fan-in, incast,
//! mode recovery, registration churn, transmit batching, QP
//! multiplexing, async tasks and reactor shards. Their points run once
//! on one seed each, so a cell is the plain value, and `-` where the
//! run has no such figure. They are simulator numbers like the paper's;
//! the thread-backend twins of two sweeps measure the host instead and
//! print apart, through [`print_thread_fan_ins`].

use exs::ProtocolMode::{self, BCopy, DirectOnly, Dynamic, IndirectOnly};
use exs::WwiMode::{self, Native, WritePlusSend};
use exs::{ExsConfig, MemPool, MemPoolConfig, PoolStats, ShardBalance};
use rdma_verbs::{profiles, Access, FabricModel, FairShareConfig, HwProfile, SimNet};
use simnet::SimDuration;

use crate::fan_in::expected_digest;
use crate::{
    run_blast_seeds, run_fan_in, run_fan_in_threaded, run_pingpong, BlastReport, BlastSpec,
    FanInReport, FanInSpec, PingPongReport, PingPongSpec, SizeDist, Summary, VerifyLevel,
};

/// Runs per point and messages per run (the paper ran 10 runs).
const RUNS: usize = 5;
const MESSAGES: usize = 300;
/// The same in quick mode (`EXS_BENCH_QUICK=1`), a smoke test.
const QUICK_RUNS: usize = 2;
const QUICK_MESSAGES: usize = 60;

/// Fig. 9a's (sends, recvs): as many receives as sends outstanding.
const EQUAL_OPS: [(usize, usize); 6] = [(1, 1), (2, 2), (4, 4), (8, 8), (16, 16), (32, 32)];
/// Fig. 9b's: twice as many receives as sends.
const DOUBLE_RECVS: [(usize, usize); 5] = [(1, 2), (2, 4), (4, 8), (8, 16), (16, 32)];
const OPS: [usize; 6] = [1, 2, 4, 8, 16, 32];
const FIG11_SIZES: [u64; 4] = [512, 8 << 10, 128 << 10, 1 << 20];
const FIG12_SIZES: [u64; 10] = [
    512,
    2 << 10,
    8 << 10,
    32 << 10,
    128 << 10,
    512 << 10,
    2 << 20,
    8 << 20,
    32 << 20,
    128 << 20,
];
const JITTER_MS: [u64; 3] = [0, 1, 5];
const BURST_LENS: [u32; 3] = [8, 32, 128];
const QDR_OPS: [usize; 3] = [2, 8, 32];
const IWARP_SIZES: [u64; 4] = [512, 4 << 10, 64 << 10, 1 << 20];
const LATENCY_SIZES: [u32; 4] = [64, 4 << 10, 64 << 10, 1 << 20];
const BUSY_POLL_SIZES: [u32; 3] = [64, 64 << 10, 1 << 20];
const RSOCKETS_OPS: [(usize, usize); 2] = [(2, 4), (8, 16)];

/// The serving sweeps.
const FAN_IN_CONNS: [usize; 4] = [1, 8, 64, 512];
const INCAST_SENDERS: [usize; 3] = [8, 64, 512];
/// Mode recovery's (message size, receives pre-posted).
const RECOVERY: [(u64, usize); 4] = [(8 << 10, 1), (8 << 10, 4), (64 << 10, 1), (64 << 10, 4)];
const CHURN_BUFS: [usize; 3] = [1, 8, 64];
const BATCH_SIZES: [u64; 6] = [64, 128, 256, 512, 1 << 10, 4 << 10];
/// The QP-multiplexing rows: the QP-per-stream run where private rings
/// still fit, then the pooled runs.
const MUX_ROWS: [(usize, bool); 4] = [
    (1_000, false),
    (1_000, true),
    (10_000, true),
    (100_000, true),
];
const TASKS: [usize; 2] = [1_000, 10_000];
const SHARDS: [usize; 4] = [1, 2, 4, 8];

/// Column orders. The seed rules number points by these positions.
const FIG9_MODES: [ProtocolMode; 3] = [DirectOnly, Dynamic, IndirectOnly];
const WAN_MODES: [ProtocolMode; 3] = [IndirectOnly, Dynamic, DirectOnly];
const DYNAMIC_FIRST: [ProtocolMode; 3] = [Dynamic, DirectOnly, IndirectOnly];

/// The paper's blast on `profile` (exponential sizes, mean 1 MiB, max
/// 4 MiB) with `sends` and `recvs` outstanding: Fig. 9, Fig. 10,
/// Table III and the QDR and rsockets ablations.
pub fn ops_spec(
    profile: HwProfile,
    mode: ProtocolMode,
    sends: usize,
    recvs: usize,
    messages: usize,
) -> BlastSpec {
    BlastSpec {
        cfg: ExsConfig::with_mode(mode),
        outstanding_sends: sends,
        outstanding_recvs: recvs,
        messages,
        ..BlastSpec::new(profile)
    }
}

/// The dynamic protocol on FDR with every message `size` bytes: Fig. 11
/// (`recvs` 32) and Fig. 12 (`sends` 2, `recvs` 4).
pub fn fixed_size_spec(size: u64, sends: usize, recvs: usize, messages: usize) -> BlastSpec {
    BlastSpec {
        sizes: SizeDist::Fixed(size),
        ..ops_spec(profiles::fdr_infiniband(), Dynamic, sends, recvs, messages)
    }
}

/// The paper's blast over the 48 ms RTT WAN with `ops` outstanding on
/// each side and `jitter` of uniform per-message jitter: Fig. 13 and the
/// jitter ablation.
pub fn wan_spec(mode: ProtocolMode, ops: usize, jitter: SimDuration, messages: usize) -> BlastSpec {
    let mut profile = profiles::roce_10g_wan();
    profile.link.jitter = jitter;
    let mut cfg = ExsConfig::with_mode(mode);
    // Size the hidden buffer for the 60 MB bandwidth-delay product, as
    // any deployment over a 48 ms path would (the paper does not state
    // its buffer size; see DESIGN.md).
    cfg.ring_capacity = 256 << 20;
    BlastSpec {
        cfg,
        time_limit: SimDuration::from_secs(3600),
        ..ops_spec(profile, mode, ops, ops, messages)
    }
}

/// `iterations` round trips of `size` bytes each way on `profile`.
pub fn pingpong_spec(
    profile: HwProfile,
    mode: ProtocolMode,
    size: u32,
    iterations: usize,
) -> PingPongSpec {
    PingPongSpec {
        cfg: ExsConfig::with_mode(mode),
        msg_size: size,
        iterations,
        ..PingPongSpec::new(profile)
    }
}

/// `conns` connections, each sending `msgs_per_conn` messages of
/// `msg_len` bytes, into one reactor node on FDR: every serving table's
/// fan-in. The fabric is fair share — concurrent flows split the
/// receiver's line rate, so no aggregate can exceed it — because on
/// FIFO every sender owns a private link and many senders deliver more
/// than one NIC can carry.
pub fn fan_in_spec(conns: usize, msgs_per_conn: usize, msg_len: u64) -> FanInSpec {
    FanInSpec {
        msgs_per_conn,
        msg_len,
        fabric: FabricModel::FairShare(FairShareConfig::new(0xFA1B)),
        ..FanInSpec::new(profiles::fdr_infiniband(), conns)
    }
}

/// `messages` BCopy sends of `size` bytes on FDR, 16 outstanding on each
/// side, through the batched transmit pipeline (`tx_batch_limit` 0:
/// postlists, selective signaling, coalescing) or the one-doorbell-per-
/// WQE pipeline (1).
pub fn batching_spec(size: u64, tx_batch_limit: usize, messages: usize) -> BlastSpec {
    BlastSpec {
        cfg: ExsConfig {
            tx_batch_limit,
            // Lets runs of several sub-512 B sends share one staged WWI;
            // with `tx_batch_limit` 1 the effective threshold is 0.
            coalesce_threshold: 3072,
            sq_depth: 64,
            ring_capacity: 256 << 10,
            credits: 64,
            ..ExsConfig::with_mode(BCopy)
        },
        outstanding_sends: 16,
        outstanding_recvs: 16,
        sizes: SizeDist::Fixed(size),
        messages,
        verify: VerifyLevel::Full,
        ..BlastSpec::new(profiles::fdr_infiniband())
    }
}

/// What one registration-churn loop cost.
#[derive(Debug)]
struct Churn {
    /// The node's virtual CPU time over the loop.
    cpu: SimDuration,
    /// The pool's counters; `None` for the unpooled loop.
    pool: Option<PoolStats>,
}

/// 200 passes over a working set of `bufs` 64 KiB buffers on one fresh
/// FDR node: each buffer registered and deregistered on every pass
/// (unpooled, as a naive zero-copy sender would), or acquired and
/// released through a [`MemPool`] whose pinned budget is exactly the
/// working set (pooled: the first pass misses, every later one hits and
/// nothing is evicted).
fn churn(bufs: usize, pooled: bool) -> Churn {
    const BUF_LEN: usize = 64 << 10;
    let profile = profiles::fdr_infiniband();
    let mut net = SimNet::new();
    let node = net.add_node(profile.host, profile.hca);
    let pool = pooled.then(|| {
        MemPool::new(MemPoolConfig {
            pinned_budget: (bufs * BUF_LEN) as u64,
            ..MemPoolConfig::default()
        })
    });
    let cpu = net.with_api(node, |api| {
        let start = api.now();
        for _ in 0..200 {
            if let Some(pool) = &pool {
                let leases: Vec<_> = (0..bufs)
                    .map(|_| pool.acquire(api, BUF_LEN, Access::NONE))
                    .collect();
                drop(leases);
            } else {
                let mrs: Vec<_> = (0..bufs)
                    .map(|_| api.register_mr_charged(BUF_LEN, Access::NONE))
                    .collect();
                for mr in mrs {
                    api.deregister_mr_charged(mr.key).expect("a live region");
                }
            }
        }
        api.now() - start
    });
    Churn {
        cpu,
        pool: pool.map(|p| p.stats()),
    }
}

/// One configuration of one sweep. The variant is the sweep.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Point {
    /// `fdr_ops`: [`ops_spec`] on FDR. Fig. 9, Fig. 10, Table III, the
    /// FDR rows of the QDR ablation, rsockets' dynamic and indirect
    /// columns.
    FdrOps {
        mode: ProtocolMode,
        sends: usize,
        recvs: usize,
    },
    /// `bcopy`: rsockets' BCopy column, [`ops_spec`] on FDR.
    Bcopy { sends: usize, recvs: usize },
    /// `burst`: bursts of `burst_len` 1 MiB then as many 4 KiB messages
    /// on FDR, 2 sends and 4 receives outstanding.
    Burst { mode: ProtocolMode, burst_len: u32 },
    /// Fig. 11: [`fixed_size_spec`] with 32 receives outstanding.
    Sends { size: u64, sends: usize },
    /// Fig. 12: [`fixed_size_spec`] with 2 sends and 4 receives.
    Size { size: u64 },
    /// Fig. 13: [`wan_spec`] without jitter, `ops` on each side.
    Distance { mode: ProtocolMode, ops: usize },
    /// The jitter ablation: [`wan_spec`] with 16 operations outstanding.
    /// Reliable-connected channels never reorder, so jitter shows as
    /// head-of-line delay.
    Jitter { mode: ProtocolMode, jitter_ms: u64 },
    /// The QDR ablation on QDR: [`ops_spec`], `ops` on each side.
    QdrOps { mode: ProtocolMode, ops: usize },
    /// The iWARP ablation: dynamic, fixed sizes, 4 sends and 8 receives.
    /// Emulated WWI costs one more wire message and completion per
    /// transfer.
    Iwarp { wwi: WwiMode, size: u64 },
    /// `pingpong`: [`pingpong_spec`] on FDR.
    PingPong { mode: ProtocolMode, size: u32 },
    /// The busy-poll column: dynamic [`pingpong_spec`] on FDR with busy
    /// polling.
    BusyPoll { size: u32 },
    /// Fan-in scaling and incast: [`fan_in_spec`], 6 messages of 16 KiB
    /// per connection; `fifo` only for the incast table's FIFO columns,
    /// which exist to show that fabric's defect.
    FanIn { conns: usize, fifo: bool },
    /// Mode recovery: [`fan_in_spec`], 8 connections of 8 messages, with
    /// `depth` receives pre-posted per connection.
    Recovery { msg_len: u64, depth: usize },
    /// Registration churn: [`churn`] over `bufs` buffers.
    Churn { bufs: usize, pooled: bool },
    /// Transmit batching: [`batching_spec`], batched or not.
    Batching { size: u64, batched: bool },
    /// QP multiplexing: one 512 B message per stream from 8 client
    /// nodes, over pooled QPs (`mux`) or a QP per stream.
    Mux { streams: usize, mux: bool },
    /// Async tasks: 4 messages of 4 KiB per connection from 8 client
    /// nodes, into one async task each (`aio`) or the callback server.
    Tasks { tasks: usize, aio: bool },
    /// Reactor shards: 2 048 connections (512 in quick mode) of 4
    /// messages of 16 KiB from 8 client nodes, over `shards` shards.
    Shards { shards: usize },
}

/// What a point runs.
#[derive(Debug)]
enum Spec {
    Blast(BlastSpec),
    PingPong(PingPongSpec),
    FanIn(FanInSpec),
    Churn { bufs: usize, pooled: bool },
}

impl Point {
    /// The sweep's spec constructor at full (`quick == false`) or quick
    /// budget.
    fn spec(self, quick: bool) -> Spec {
        let messages = if quick { QUICK_MESSAGES } else { MESSAGES };
        let iterations = if quick { 40 } else { 200 };
        let fdr = profiles::fdr_infiniband;
        // The serving fan-ins that verify every byte, as their benches did.
        let verified = |conns, msgs, msg_len| FanInSpec {
            outstanding_sends: 2,
            prepost_recvs: 2,
            client_nodes: 8,
            verify: VerifyLevel::Full,
            ..fan_in_spec(conns, msgs, msg_len)
        };
        Spec::Blast(match self {
            Point::FdrOps { mode, sends, recvs } => ops_spec(fdr(), mode, sends, recvs, messages),
            Point::Bcopy { sends, recvs } => ops_spec(fdr(), BCopy, sends, recvs, messages),
            Point::Burst { mode, burst_len } => BlastSpec {
                sizes: SizeDist::Bursty {
                    large: 1 << 20,
                    small: 4 << 10,
                    burst_len,
                },
                ..ops_spec(fdr(), mode, 2, 4, messages.max(240))
            },
            // Keep per-run byte volume comparable across sizes without
            // letting small-message runs take forever.
            Point::Sends { size, sends } => fixed_size_spec(size, sends, 32, messages.max(120)),
            Point::Size { size } => {
                let budget: u64 = if quick { 64 << 20 } else { 1 << 30 };
                let messages = (budget / size).clamp(24, 2_000) as usize;
                fixed_size_spec(size, 2, 4, messages)
            }
            Point::Distance { mode, ops } => {
                wan_spec(mode, ops, SimDuration::ZERO, messages.min(200))
            }
            Point::Jitter { mode, jitter_ms } => wan_spec(
                mode,
                16,
                SimDuration::from_millis(jitter_ms),
                messages.min(150),
            ),
            Point::QdrOps { mode, ops } => {
                ops_spec(profiles::qdr_infiniband(), mode, ops, ops, messages)
            }
            Point::Iwarp { wwi, size } => {
                let mut spec = ops_spec(profiles::iwarp_10g(), Dynamic, 4, 8, messages);
                spec.cfg.wwi_mode = wwi;
                spec.sizes = SizeDist::Fixed(size);
                spec
            }
            Point::PingPong { mode, size } => {
                return Spec::PingPong(pingpong_spec(fdr(), mode, size, iterations))
            }
            Point::BusyPoll { size } => {
                let busy = profiles::fdr_infiniband_busy_poll();
                return Spec::PingPong(pingpong_spec(busy, Dynamic, size, iterations));
            }
            // The serving sweeps' full sizes, except the shards', run in
            // well under 0.1 s a point: they have no quick rule.
            Point::Batching { size, batched } => batching_spec(size, usize::from(!batched), 600),
            Point::Churn { bufs, pooled } => return Spec::Churn { bufs, pooled },
            Point::FanIn { conns, fifo } => {
                let spec = fan_in_spec(conns, 6, 16 << 10);
                let fabric = if fifo { FabricModel::Fifo } else { spec.fabric };
                return Spec::FanIn(FanInSpec { fabric, ..spec });
            }
            Point::Recovery { msg_len, depth } => {
                let spec = fan_in_spec(8, 8, msg_len);
                return Spec::FanIn(FanInSpec {
                    prepost_recvs: depth,
                    ..spec
                });
            }
            Point::Mux { streams, mux } => {
                return Spec::FanIn(FanInSpec {
                    mux,
                    outstanding_sends: 1,
                    prepost_recvs: 1,
                    ..verified(streams, 1, 512)
                })
            }
            Point::Tasks { tasks, aio } => {
                return Spec::FanIn(FanInSpec {
                    aio,
                    ..verified(tasks, 4, 4 << 10)
                })
            }
            Point::Shards { shards } => {
                let conns = if quick { 512 } else { 2048 };
                return Spec::FanIn(FanInSpec {
                    shards,
                    ..verified(conns, 4, 16 << 10)
                });
            }
        })
    }

    /// The sweep's seed rule. The bases are arbitrary but fixed: moving
    /// one moves every number its tables print.
    fn seeds(self, quick: bool) -> Vec<u64> {
        let runs = if quick { QUICK_RUNS } else { RUNS } as u64;
        let base = match self {
            Point::FdrOps { mode, sends, recvs } => {
                (recvs * 10 + sends) as u64 * 10 + pos(&FIG9_MODES, mode)
            }
            Point::Bcopy { sends, .. } => 20_002 + sends as u64 * 10,
            Point::Burst { mode, burst_len } => {
                16_000 + pos(&BURST_LENS, burst_len) * 10 + pos(&DYNAMIC_FIRST, mode)
            }
            Point::Sends { size, sends } => 11_000 + sends as u64 * 10 + pos(&FIG11_SIZES, size),
            Point::Size { size } => 12_000 + pos(&FIG12_SIZES, size),
            Point::Distance { mode, ops } => 13_000 + ops as u64 * 10 + pos(&WAN_MODES, mode),
            Point::Jitter { mode, jitter_ms } => {
                14_000 + pos(&JITTER_MS, jitter_ms) * 10 + pos(&WAN_MODES, mode)
            }
            Point::QdrOps { mode, ops } => 18_000 + ops as u64 * 2 + (mode == IndirectOnly) as u64,
            Point::Iwarp { wwi, size } => {
                19_000 + pos(&IWARP_SIZES, size) * 2 + (wwi == WritePlusSend) as u64
            }
            Point::PingPong { .. } => return (15_000..15_000 + runs).collect(),
            Point::BusyPoll { .. } => return (15_500..15_500 + runs).collect(),
            // The serving sweeps run once each, on their benches' seeds.
            Point::FanIn { .. } | Point::Recovery { .. } => return vec![5],
            Point::Batching { .. } => return vec![7],
            // 100 000 streams take ~10 s: quick mode does not run them.
            Point::Mux { streams, .. } if quick && streams > 10_000 => return vec![],
            Point::Mux { .. } => return vec![11],
            Point::Tasks { .. } => return vec![29],
            Point::Shards { .. } => return vec![31],
            // The churn loop draws nothing at random.
            Point::Churn { .. } => return vec![0],
        };
        (0..runs).map(|i| base * 1000 + i + 1).collect()
    }

    fn run(self, quick: bool) -> Vec<Run> {
        let seeds = self.seeds(quick);
        match self.spec(quick) {
            Spec::Blast(spec) => run_blast_seeds(&spec, &seeds)
                .into_iter()
                .map(|r| Run::Blast(Box::new(r)))
                .collect(),
            Spec::PingPong(spec) => seeds
                .into_iter()
                .map(|seed| {
                    Run::PingPong(run_pingpong(&PingPongSpec {
                        seed,
                        ..spec.clone()
                    }))
                })
                .collect(),
            Spec::FanIn(spec) => seeds
                .into_iter()
                .map(|seed| {
                    Run::FanIn(Box::new(run_fan_in(&FanInSpec {
                        seed,
                        ..spec.clone()
                    })))
                })
                .collect(),
            Spec::Churn { bufs, pooled } => vec![Run::Churn(churn(bufs, pooled))],
        }
    }
}

/// Position of `x` in the column or row order `list`.
fn pos<T: PartialEq>(list: &[T], x: T) -> u64 {
    let i = list.iter().position(|y| *y == x);
    i.expect("a point of this sweep") as u64
}

enum Run {
    Blast(Box<BlastReport>),
    PingPong(PingPongReport),
    FanIn(Box<FanInReport>),
    Churn(Churn),
}

/// What a cell reads from each run of its point.
#[derive(Clone, Copy, Debug)]
enum Metric {
    Mbps,
    RxCpuPct,
    TxCpuPct,
    Switches,
    DirectRatio,
    RttUs,
    // Fan-in runs.
    DirectByteRatio,
    MeanCqBatch,
    MaxCqBatch,
    Deferrals,
    OfferedLoad,
    Jain,
    Respeeds,
    ResyncsAttempted,
    ResyncsCompleted,
    AdvertQueuePeak,
    AdvertQueueMean,
    BytesPerStream,
    BaselineBytesPerStream,
    Wakeups,
    PollsPerWake,
    Imbalance,
    Polls,
    /// Host time: a thread run's Mbit/s of its transfer wall time.
    WallMbps,
    // Churn runs.
    CpuUs,
    HitRatePct,
    PinnedKiB,
    // The batching blasts' sender.
    Doorbells,
    WqesPerDoorbell,
    UnsignaledPct,
    CoalescedMsgs,
}

impl Metric {
    /// The metric of `run`; `None` where the run has no such figure (an
    /// unshared fabric's fairness, a QP-per-stream run's pool memory).
    fn read(self, run: &Run) -> Option<f64> {
        use Metric::*;
        let n = |v: u64| Some(v as f64);
        match (self, run) {
            (Mbps, Run::Blast(r)) => Some(r.throughput_mbps()),
            (RxCpuPct, Run::Blast(r)) => Some(r.cpu_receiver * 100.0),
            (TxCpuPct, Run::Blast(r)) => Some(r.cpu_sender * 100.0),
            (Switches, Run::Blast(r)) => n(r.mode_switches),
            (DirectRatio, Run::Blast(r)) => Some(r.direct_ratio()),
            (Doorbells, Run::Blast(r)) => n(r.sender.doorbells),
            (WqesPerDoorbell, Run::Blast(r)) => Some(r.sender.mean_wqes_per_doorbell()),
            (UnsignaledPct, Run::Blast(r)) => Some(r.sender.unsignaled_ratio() * 100.0),
            (CoalescedMsgs, Run::Blast(r)) => n(r.sender.coalesced_msgs),
            (RttUs, Run::PingPong(r)) => Some(r.mean_us()),
            (Mbps, Run::FanIn(r)) => Some(r.throughput_mbps()),
            (DirectRatio, Run::FanIn(r)) => Some(r.direct_ratio()),
            (DirectByteRatio, Run::FanIn(r)) => Some(r.direct_byte_ratio()),
            (MeanCqBatch, Run::FanIn(r)) => Some(r.reactor.mean_batch()),
            (MaxCqBatch, Run::FanIn(r)) => n(r.reactor.max_cq_batch),
            (Deferrals, Run::FanIn(r)) => n(r.reactor.deferrals),
            (OfferedLoad, Run::FanIn(r)) => Some(r.offered_load_ratio()),
            (Jain, Run::FanIn(r)) => r.fabric.as_ref().map(|f| f.jain_index),
            (Respeeds, Run::FanIn(r)) => r.fabric.as_ref().and_then(|f| n(f.respeeds)),
            (ResyncsAttempted, Run::FanIn(r)) => n(r.aggregate_tx.resyncs_attempted),
            (ResyncsCompleted, Run::FanIn(r)) => n(r.aggregate_tx.resyncs_completed),
            (AdvertQueuePeak, Run::FanIn(r)) => n(r.aggregate.advert_queue_peak),
            (AdvertQueueMean, Run::FanIn(r)) => Some(r.aggregate.advert_queue_mean()),
            (BytesPerStream, Run::FanIn(r)) => r.memory_per_stream().and_then(n),
            (BaselineBytesPerStream, Run::FanIn(r)) => {
                r.mux_baseline.and_then(|b| n(b / r.conns as u64))
            }
            (Wakeups, Run::FanIn(r)) => r.aio.as_ref().and_then(|a| n(a.wakeups)),
            (PollsPerWake, Run::FanIn(r)) => r.aio.as_ref().map(|a| a.polls_per_wake()),
            (Imbalance, Run::FanIn(r)) => {
                let rows = r.shard_stats.as_deref();
                rows.map(|rows| ShardBalance::of(rows).imbalance())
            }
            (Polls, Run::FanIn(r)) => n(r.reactor.polls),
            (WallMbps, Run::FanIn(r)) => Some(r.wall_mbps()),
            (CpuUs, Run::Churn(c)) => Some(c.cpu.as_nanos() as f64 / 1000.0),
            (HitRatePct, Run::Churn(c)) => c.pool.as_ref().map(|p| p.hit_rate() * 100.0),
            (PinnedKiB, Run::Churn(c)) => c.pool.as_ref().and_then(|p| n(p.pinned_peak / 1024)),
            (metric, _) => panic!("{metric:?} is not read from this kind of run"),
        }
    }

    /// Decimals of a cell that reads one run (a mean ± CI prints two).
    fn decimals(self) -> usize {
        use Metric::*;
        match self {
            Switches
            | MaxCqBatch
            | Deferrals
            | Respeeds
            | ResyncsAttempted
            | ResyncsCompleted
            | AdvertQueuePeak
            | BytesPerStream
            | BaselineBytesPerStream
            | Wakeups
            | Polls
            | PinnedKiB
            | Doorbells
            | CoalescedMsgs => 0,
            Mbps | WallMbps | CpuUs | UnsignaledPct => 1,
            RxCpuPct | TxCpuPct | RttUs | MeanCqBatch | AdvertQueueMean | PollsPerWake
            | HitRatePct | WqesPerDoorbell => 2,
            DirectRatio | DirectByteRatio | OfferedLoad | Jain | Imbalance => 3,
        }
    }

    /// One cell over every run of its point: the plain value of a lone
    /// run, the mean ± 95 % CI of several, `-` for no figure or no run.
    /// Returns the text and the mean.
    fn cell(self, runs: &[Run]) -> (String, Option<f64>) {
        let values: Option<Vec<f64>> = runs.iter().map(|r| self.read(r)).collect();
        match values.as_deref() {
            None | Some([]) => ("-".into(), None),
            Some(&[v]) => (format!("{v:.*}", self.decimals()), Some(v)),
            Some(values) => {
                let s = Summary::of(values);
                (s.to_string(), Some(s.mean))
            }
        }
    }
}

/// A row label and, for each read column, the point and metric it reads.
type Row = (String, Vec<(Point, Metric)>);

/// A derived column's function and the decimals it prints with.
type Derived = (fn(f64, f64) -> f64, usize);

struct Table {
    title: &'static str,
    columns: &'static [&'static str],
    rows: Vec<Row>,
    /// A column computed from the means of the row's first two cells (a
    /// gap, an overhead, a saving, a speedup) and printed after them;
    /// it has no CI.
    derived: Option<Derived>,
    /// Printed under the table after a blank line; empty for none.
    note: &'static str,
}

fn table(title: &'static str, columns: &'static [&'static str], rows: Vec<Row>) -> Table {
    Table {
        title,
        columns,
        rows,
        derived: None,
        note: "",
    }
}

impl Table {
    fn note(self, note: &'static str) -> Table {
        Table { note, ..self }
    }

    fn derived(self, f: fn(f64, f64) -> f64, decimals: usize) -> Table {
        Table {
            derived: Some((f, decimals)),
            ..self
        }
    }
}

/// One row per `rows` entry, one cell per `cols` entry.
fn grid<R: Copy, C: Copy>(
    rows: &[R],
    label: impl Fn(R) -> String,
    cols: &[C],
    cell: impl Fn(R, C) -> (Point, Metric),
) -> Vec<Row> {
    let row = |r| (label(r), cols.iter().map(|&c| cell(r, c)).collect());
    rows.iter().map(|&r| row(r)).collect()
}

fn size_label(bytes: u64) -> String {
    match bytes {
        b if b >= 1 << 20 => format!("{} MiB", b >> 20),
        b if b >= 1 << 10 => format!("{} KiB", b >> 10),
        b => format!("{b} B"),
    }
}

/// (a − b) / a, in percent.
fn drop_pct(a: f64, b: f64) -> f64 {
    (a - b) / a * 100.0
}

/// Every table, in README order.
fn tables() -> Vec<Table> {
    use Metric::*;
    let fdr = |mode, (sends, recvs)| Point::FdrOps { mode, sends, recvs };
    let pair = |(sends, recvs): (usize, usize)| format!("recvs={recvs} sends={sends}");
    let ops = |o: usize| format!("ops={o}");
    let small = |s: u32| size_label(s.into());
    let burst = |b: u32| format!("burst_len={b}");
    let fig9 = |pairs, metric| grid(pairs, pair, &FIG9_MODES, |p, m| (fdr(m, p), metric));
    let fig11 = |metric| {
        let point = |sends, size| (Point::Sends { size, sends }, metric);
        grid(&OPS, |s| format!("sends={s}"), &FIG11_SIZES, point)
    };
    let table3_ops: Vec<_> = EQUAL_OPS.iter().chain(&DOUBLE_RECVS).copied().collect();
    let rsockets = |metric| {
        let point = |(sends, recvs), mode| match mode {
            BCopy => (Point::Bcopy { sends, recvs }, metric),
            mode => (fdr(mode, (sends, recvs)), metric),
        };
        grid(&RSOCKETS_OPS, pair, &[Dynamic, IndirectOnly, BCopy], point)
    };
    const FIG9_MBPS: &[&str] = &[
        "direct-only Mbit/s",
        "dynamic Mbit/s",
        "indirect-only Mbit/s",
    ];
    const FIG9_CPU: &[&str] = &["direct-only CPU %", "dynamic CPU %", "indirect-only CPU %"];
    const WAN_MBPS: &[&str] = &[
        "indirect-only Mbit/s",
        "dynamic Mbit/s",
        "direct-only Mbit/s",
    ];
    const SWITCHES: &[Metric] = &[Switches, DirectRatio];
    const QDR: &[&str] = &["direct-only Mbit/s", "indirect-only Mbit/s", "gap %"];
    const RSOCKETS: &[&str] = &["dynamic", "indirect-only", "bcopy (rsockets)"];
    let mut paper = vec![
        table(
            "Fig. 9a: throughput, outstanding sender ops == receiver ops (FDR IB)",
            FIG9_MBPS,
            fig9(&EQUAL_OPS, Mbps),
        ),
        table(
            "Fig. 9b: throughput, outstanding sender ops == receiver ops / 2 (FDR IB)",
            FIG9_MBPS,
            fig9(&DOUBLE_RECVS, Mbps),
        )
        .note(
            "paper shape: (9a) direct 35-44 Gbit/s, indirect 20-27 Gbit/s, dynamic ~= indirect;
             (9b) dynamic ~= direct (one anomaly near recvs=4, sends=2).",
        ),
        table(
            "Fig. 10a: receiver CPU usage, sender ops == receiver ops (FDR IB)",
            FIG9_CPU,
            fig9(&EQUAL_OPS, RxCpuPct),
        ),
        table(
            "Fig. 10b: receiver CPU usage, sender ops == receiver ops / 2 (FDR IB)",
            FIG9_CPU,
            fig9(&DOUBLE_RECVS, RxCpuPct),
        )
        .note(
            "paper shape: indirect approaches 100% as ops grow; direct stays low;
             dynamic tracks the mode it selected.",
        ),
        table(
            "Table III: dynamic protocol mode switches and direct:total ratio (FDR IB)",
            &["mode switches", "direct:total ratio"],
            grid(&table3_ops, pair, SWITCHES, |p, m| (fdr(Dynamic, p), m)),
        )
        .note(
            "paper shape: equal ops -> ~1 switch (93±86 at 1 op), ratio < 0.1 for >= 4 ops;
             2x recvs  -> 0 switches, ratio 1.0, except an anomaly at (4,2).",
        ),
        table(
            "Fig. 11a: throughput vs outstanding sends (recvs = 32, dynamic, FDR IB)",
            &[
                "512 B tput Mbit/s",
                "8 KiB tput Mbit/s",
                "128 KiB tput Mbit/s",
                "1 MiB tput Mbit/s",
            ],
            fig11(Mbps),
        ),
        table(
            "Fig. 11b: direct:total ratio vs outstanding sends (recvs = 32, dynamic)",
            &[
                "512 B direct ratio",
                "8 KiB direct ratio",
                "128 KiB direct ratio",
                "1 MiB direct ratio",
            ],
            fig11(DirectRatio),
        )
        .note(
            "paper shape: throughput grows with message size; the 128 KiB series shows
             high direct-ratio variance, which feeds back into throughput.",
        ),
        table(
            "Fig. 12: message-size sweep (recvs = 4, sends = 2, dynamic, FDR IB)",
            &["throughput Mbit/s", "direct:total ratio"],
            grid(&FIG12_SIZES, size_label, &[Mbps, DirectRatio], |size, m| {
                (Point::Size { size }, m)
            }),
        )
        .note(
            "paper shape: throughput rises with size (peak ~46.5 Gbit/s near 2 MiB);
             direct ratio dips below 1 for small/medium sizes and is 1.0
             for every size >= 512 KiB.",
        ),
        table(
            "Fig. 13: throughput over 48 ms RTT (10G RoCE + emulator), equal ops",
            WAN_MBPS,
            grid(&OPS, ops, &WAN_MODES, |ops, mode| {
                (Point::Distance { mode, ops }, Mbps)
            }),
        )
        .note(
            "paper shape: all three protocols similar; throughput scales with the
             number of outstanding operations; indirect slightly ahead
             of direct for 4-32 buffers (by ~100-400 Mbit/s).",
        ),
        table(
            "Latency ablation: ping-pong mean RTT in us (FDR IB)",
            &["dynamic", "direct-only", "indirect-only"],
            grid(&LATENCY_SIZES, small, &DYNAMIC_FIRST, |size, mode| {
                (Point::PingPong { mode, size }, RttUs)
            }),
        ),
        // `ExsConfig::default()` is dynamic: the event-notify column is the
        // latency table's dynamic column.
        table(
            "Latency ablation: event notification vs busy polling, mean RTT in us (dynamic)",
            &["event notify", "busy poll", "saved us"],
            grid(&BUSY_POLL_SIZES, small, &[false, true], |size, busy| {
                let mode = Dynamic;
                let point = if busy {
                    Point::BusyPoll { size }
                } else {
                    Point::PingPong { mode, size }
                };
                (point, RttUs)
            }),
        )
        .derived(|event, busy| event - busy, 2)
        .note(
            "expected: RTT grows with payload; the indirect mode pays the receiver
          copy on both hops, so its RTT exceeds direct at every size.
          busy polling removes the wakeup latency — a large relative win
          for small messages, negligible once transfers are wire-bound
          (the paper's §IV-B rationale for using event notification).",
        ),
        table(
            "Jitter ablation: throughput on 48 ms RTT WAN, 16 outstanding ops",
            WAN_MBPS,
            grid(
                &JITTER_MS,
                |j| format!("jitter={j}ms"),
                &WAN_MODES,
                |jitter_ms, mode| (Point::Jitter { mode, jitter_ms }, Mbps),
            ),
        )
        .note(
            "paper (§VI, future work): vary the delay with a jitter function \"to see the
          effect of jitter on our implementation\".
measured: 5 ms of jitter moves no protocol by more than ~15 %; the dynamic
          protocol trails the better baseline at every jitter level, mostly
          inside the run-to-run CI.",
        ),
        table(
            "Burstiness ablation: alternating 1 MiB / 4 KiB bursts (FDR IB, recvs=4 sends=2)",
            &[
                "dynamic Mbit/s",
                "direct-only Mbit/s",
                "indirect-only Mbit/s",
            ],
            grid(&BURST_LENS, burst, &DYNAMIC_FIRST, |burst_len, mode| {
                (Point::Burst { mode, burst_len }, Mbps)
            }),
        ),
        table(
            "Burstiness ablation: dynamic protocol mode switches per run",
            &["mode switches", "direct ratio"],
            grid(&BURST_LENS, burst, SWITCHES, |burst_len, m| {
                let mode = Dynamic;
                (Point::Burst { mode, burst_len }, m)
            }),
        )
        .note(
            "paper (§IV-C): \"a sudden, large change in network state will cause the
          protocol to switch transfer modes appropriately\".
measured: each dynamic run switches mode once; its throughput is above
          indirect-only and below direct-only at short bursts, and nears
          direct-only only at 128-message bursts, where its direct ratio
          is highest.",
        ),
        table(
            "QDR ablation: throughput on fdr-infiniband (equal ops)",
            QDR,
            grid(&QDR_OPS, ops, &[DirectOnly, IndirectOnly], |ops, mode| {
                (fdr(mode, (ops, ops)), Mbps)
            }),
        )
        .derived(drop_pct, 2),
        table(
            "QDR ablation: throughput on qdr-infiniband (equal ops)",
            QDR,
            grid(&QDR_OPS, ops, &[DirectOnly, IndirectOnly], |ops, mode| {
                (Point::QdrOps { mode, ops }, Mbps)
            }),
        )
        .derived(drop_pct, 2)
        .note(
            "expected: the direct-vs-indirect gap is far smaller on QDR than on FDR,
          because QDR's wire rate is close to the memcpy rate.",
        ),
        table(
            "iWARP WWI emulation ablation: throughput (Mbit/s), 10G iWARP profile",
            &["native WWI", "WRITE + SEND", "overhead %"],
            grid(
                &IWARP_SIZES,
                size_label,
                &[Native, WritePlusSend],
                |size, wwi| (Point::Iwarp { wwi, size }, Mbps),
            ),
        )
        .derived(drop_pct, 2)
        .note(
            "paper (§II-B): WWI \"can be simulated on older iWARP hardware by following
          an RDMA WRITE with a small SEND\".
measured: the emulation costs < 0.2 % once transfers are wire-limited
          (64 KiB and up); at 512 B and 4 KiB the difference, of either
          sign, is inside the run-to-run CI of the CPU-bound regime.",
        ),
        table(
            "rsockets-style baseline: throughput (Mbit/s), FDR IB, recvs = 2 x sends",
            RSOCKETS,
            rsockets(Mbps),
        ),
        table(
            "rsockets-style baseline: sender CPU % for the same runs",
            RSOCKETS,
            rsockets(TxCpuPct),
        )
        .note(
            "expected: bcopy trails indirect-only in throughput (extra send-side copy)
          and far exceeds it in sender CPU; the dynamic protocol, running
          direct with 2x receives, beats both in throughput at a sender
          CPU within a few points of indirect-only's.",
        ),
    ];
    paper.extend(serving_tables());
    paper
}

/// The serving stack's tables, after the paper's.
fn serving_tables() -> Vec<Table> {
    use Metric::*;
    let fan_in = |conns| Point::FanIn { conns, fifo: false };
    vec![
        table(
            "Fan-in scaling: M streams -> one reactor node (FDR IB)",
            &[
                "aggregate Mbit/s",
                "direct ratio",
                "mean CQ batch",
                "max CQ batch",
                "deferrals",
            ],
            grid(
                &FAN_IN_CONNS,
                |c| format!("conns={c}"),
                &[Mbps, DirectRatio, MeanCqBatch, MaxCqBatch, Deferrals],
                |conns, m| (fan_in(conns), m),
            ),
        )
        .note(
            "expected shape: one connection is bound by its own window; from 8 on the
          senders share the receiver's link (fair share: ~0.7-0.8 of line
          rate), every transfer goes direct and no connection is deferred.",
        ),
        table(
            "Incast: N senders -> one receiver, FIFO vs fair-share fabric (FDR IB)",
            &[
                "FIFO Mbit/s",
                "FIFO load",
                "fair-share Mbit/s",
                "fair-share load",
                "Jain index",
                "re-speeds",
            ],
            grid(
                &INCAST_SENDERS,
                |s| format!("senders={s}"),
                &[
                    (true, Mbps),
                    (true, OfferedLoad),
                    (false, Mbps),
                    (false, OfferedLoad),
                    (false, Jain),
                    (false, Respeeds),
                ],
                |conns, (fifo, m)| (Point::FanIn { conns, fifo }, m),
            ),
        )
        .note(
            "expected shape: FIFO aggregate sails past the 45.5 Gbit/s line rate at high
          fan-in (load > 1.0 is physically impossible); fair-share pins load <= 1.0
          while splitting the sink evenly (Jain ~ 1.0). The FIFO columns exist to
          show that defect: every other serving fan-in runs on fair share, and
          these fair-share columns are the fan-in scaling table's runs.",
        ),
        table(
            "Mode recovery: direct-byte share vs pre-post depth (8 conns, FDR IB)",
            &[
                "aggregate Mbit/s",
                "offered load",
                "direct bytes",
                "resyncs attempted",
                "resyncs completed",
                "advert queue peak",
                "advert queue mean",
            ],
            grid(
                &RECOVERY,
                |(len, depth)| format!("{} depth={depth}", size_label(len)),
                &[
                    Mbps,
                    OfferedLoad,
                    DirectByteRatio,
                    ResyncsAttempted,
                    ResyncsCompleted,
                    AdvertQueuePeak,
                    AdvertQueueMean,
                ],
                |(msg_len, depth), m| (Point::Recovery { msg_len, depth }, m),
            ),
        )
        .note(
            "expected shape: the resync policy recovers full zero-copy (direct bytes
          1.000) at every depth; deeper pre-posting needs fewer resyncs. At 64 KiB
          the senders fill the receiver's link (load ~0.9), where the FIFO
          fabric used to report 2.6x and 4.8x of it.",
        ),
        table(
            "Registration churn: per-transfer reg/dereg vs MemPool (FDR IB, 64 KiB)",
            &[
                "unpooled CPU us",
                "pooled CPU us",
                "speedup x",
                "pooled hit rate %",
                "pinned KiB",
            ],
            grid(
                &CHURN_BUFS,
                |b| format!("bufs={b}"),
                &[
                    (false, CpuUs),
                    (true, CpuUs),
                    (true, HitRatePct),
                    (true, PinnedKiB),
                ],
                |bufs, (pooled, m)| (Point::Churn { bufs, pooled }, m),
            ),
        )
        .derived(|unpooled, pooled| unpooled / pooled, 1)
        .note(
            "expected shape: unpooled cost grows linearly with churn; pooled cost is
          one cold pass plus near-free hits, so the gap widens with the working set.",
        ),
        table(
            "Transmit-path batching: postlists + selective signaling + coalescing (FDR IB, BCopy)",
            &[
                "off Mbit/s",
                "on Mbit/s",
                "speedup x",
                "doorbells",
                "WQEs per doorbell",
                "unsignaled %",
                "coalesced msgs",
            ],
            grid(
                &BATCH_SIZES,
                size_label,
                &[
                    (false, Mbps),
                    (true, Mbps),
                    (true, Doorbells),
                    (true, WqesPerDoorbell),
                    (true, UnsignaledPct),
                    (true, CoalescedMsgs),
                ],
                |size, (batched, m)| (Point::Batching { size, batched }, m),
            ),
        )
        .derived(|off, on| on / off, 2)
        .note(
            "expected shape: the gap is widest at the smallest sizes, where per-doorbell
          and per-CQE overheads dominate the wire time, and closes as payload grows.",
        ),
        table(
            "QP multiplexing: N streams over a pooled QP set vs QP-per-stream (FDR IB)",
            &["baseline B/stream", "B/stream", "saving x", "Mbit/s"],
            grid(
                &MUX_ROWS,
                |(s, mux)| format!("{s} {}", if mux { "mux" } else { "QP-per-stream" }),
                &[BaselineBytesPerStream, BytesPerStream, Mbps],
                |(streams, mux), m| (Point::Mux { streams, mux }, m),
            ),
        )
        .derived(|baseline, pooled| baseline / pooled, 1)
        .note(
            "expected shape: per-stream memory collapses from the ~72 KiB private-QP
          fixed cost to the pool share plus one small stream struct. Quick
          mode does not run 100000 streams. Set-up time is host time: the
          repo benchmark's sim_fanin_mux setup_s measures it.",
        ),
        table(
            "Async tasks: N tasks on one executor vs the callback server (FDR IB)",
            &[
                "callback Mbit/s",
                "aio Mbit/s",
                "aio / callback",
                "wakeups",
                "polls per wake",
            ],
            grid(
                &TASKS,
                |t| format!("tasks={t}"),
                &[
                    (false, Mbps),
                    (true, Mbps),
                    (true, Wakeups),
                    (true, PollsPerWake),
                ],
                |tasks, (aio, m)| (Point::Tasks { tasks, aio }, m),
            ),
        )
        .derived(|callback, aio| aio / callback, 3)
        .note(
            "expected shape: the async server tracks the callback server's throughput
          within noise at both scales: the waker registry and op queue are
          O(ready), not O(tasks).",
        ),
        table(
            "Reactor shards: 2048 conns (512 quick) over 1/2/4/8 shards (FDR IB)",
            &["Mbit/s", "offered load", "imbalance", "polls"],
            grid(
                &SHARDS,
                |s| format!("shards={s}"),
                &[Mbps, OfferedLoad, Imbalance, Polls],
                |shards, m| (Point::Shards { shards }, m),
            ),
        )
        .note(
            "expected shape: placement is routing, not protocol, so round-robin keeps
          the shards level (imbalance 1.000) and the simulated server's
          throughput does not depend on the shard count.",
        ),
    ]
}

fn print_head(title: &str, columns: &[&str]) {
    println!();
    println!("=== {title} ===");
    print!("{:<22}", "");
    for c in columns {
        print!("{c:>24}");
    }
    println!();
}

/// Runs every point of every table once and prints the tables in README
/// order, each in the layout of a paper table: a 22-column row label and
/// 24-column cells. `quick` runs 2 seeds of 60 messages per point (and
/// shorter Fig. 12 and ping-pong runs) instead of 5 of 300, runs the
/// reactor-shard sweep at 512 connections instead of 2 048 and skips the
/// 100 000-stream QP-multiplexing row.
pub fn print_all(quick: bool) {
    let mut done: Vec<(Point, Vec<Run>)> = Vec::new();
    for table in tables() {
        print_head(table.title, table.columns);
        for (label, cells) in &table.rows {
            print!("{label:<22}");
            let mut means = Vec::new();
            for (i, &(point, metric)) in cells.iter().enumerate() {
                let at = done.iter().position(|(p, _)| *p == point);
                let at = at.unwrap_or_else(|| {
                    done.push((point, point.run(quick)));
                    done.len() - 1
                });
                let (text, mean) = metric.cell(&done[at].1);
                print!("{text:>24}");
                means.push(mean);
                if let (1, Some((f, decimals))) = (i, table.derived) {
                    let text = match (means[0], means[1]) {
                        (Some(a), Some(b)) => format!("{:.*}", decimals, f(a, b)),
                        _ => "-".into(),
                    };
                    print!("{text:>24}");
                }
            }
            println!();
        }
        if !table.note.is_empty() {
            println!();
            println!("{}", table.note);
        }
    }
}

/// The thread-backend twins of two serving sweeps: every reactor-shards
/// point, and the async-tasks point at 10 000 tasks (1 000 in quick
/// mode), each spec run by [`run_fan_in_threaded`] with every
/// connection's digest checked against the closed form. The Mbit/s are
/// of the transfer's wall time: this measures the host, is not
/// deterministic, and gates on nothing but the bytes.
///
/// # Panics
///
/// On a wrong digest, or a connection the harness could not finish.
pub fn print_thread_fan_ins(quick: bool) {
    use Metric::*;
    let tasks = if quick { TASKS[0] } else { TASKS[1] };
    let shards = SHARDS.map(|shards| (format!("shards={shards}"), Point::Shards { shards }));
    let aio = (
        format!("tasks={tasks} aio"),
        Point::Tasks { tasks, aio: true },
    );
    print_head(
        "Thread backend: the shard and async-task fan-ins on real threads (host time)",
        &[
            "wall Mbit/s",
            "vs 1 shard",
            "imbalance",
            "polls",
            "wakeups",
            "polls per wake",
        ],
    );
    let mut one_shard = None;
    for (label, point) in shards.into_iter().chain([aio]) {
        let Spec::FanIn(spec) = point.spec(quick) else {
            unreachable!("a fan-in point")
        };
        let seed = point.seeds(quick)[0];
        let run = run_fan_in_threaded(&FanInSpec {
            seed,
            ..spec.clone()
        });
        assert_eq!(run.digests.len(), spec.conns, "{label}: a digest per conn");
        let len = spec.msgs_per_conn as u64 * spec.msg_len;
        for (i, &d) in run.digests.iter().enumerate() {
            assert_eq!(d, expected_digest(seed, i, len), "{label}: conn {i} bytes");
        }
        let wall = run.transfer_wall.as_secs_f64();
        let speedup = matches!(point, Point::Shards { .. })
            .then(|| format!("{:.2}", *one_shard.get_or_insert(wall) / wall));
        let run = [Run::FanIn(Box::new(run))];
        print!("{label:<22}{:>24}", WallMbps.cell(&run).0);
        print!("{:>24}", speedup.unwrap_or_else(|| "-".into()));
        for metric in [Imbalance, Polls, Wakeups, PollsPerWake] {
            print!("{:>24}", metric.cell(&run).0);
        }
        println!();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every cell reads one point, with a metric its runs have; the
    /// runner runs each point once, so each configuration runs once if no
    /// two points are one configuration. (At the quick budget Fig. 13's
    /// 16-op row and the 0 ms jitter row both fall to 60 messages and
    /// coincide; each keeps its own seeds.)
    #[test]
    fn every_cell_reads_one_point_and_no_configuration_is_two() {
        let mut points: Vec<Point> = Vec::new();
        for table in tables() {
            let derived = table.derived.is_some() as usize;
            for (label, cells) in &table.rows {
                assert_eq!(cells.len() + derived, table.columns.len(), "{label}");
                for &(p, m) in cells {
                    let pingpong = matches!(p.spec(false), Spec::PingPong(_));
                    assert_eq!(matches!(m, Metric::RttUs), pingpong, "{m:?} of {p:?}");
                    if !points.contains(&p) {
                        points.push(p);
                    }
                }
            }
        }
        let count =
            |kind: fn(&Spec) -> bool| points.iter().filter(|p| kind(&p.spec(false))).count();
        let kinds = [
            count(|s| matches!(s, Spec::Blast(_))),
            count(|s| matches!(s, Spec::PingPong(_))),
            count(|s| matches!(s, Spec::FanIn(_))),
            count(|s| matches!(s, Spec::Churn { .. })),
        ];
        assert_eq!(kinds, [119 + 12, 15, 23, 6]);
        let configs: Vec<String> = points
            .iter()
            .map(|p| format!("{:?}", p.spec(false)))
            .collect();
        for (i, config) in configs.iter().enumerate() {
            let p = points[i];
            assert!(!configs[..i].contains(config), "{p:?} is another point");
            // A serving point runs once (or, in quick mode, not at all).
            let paper = matches!(p.spec(false), Spec::Blast(_) | Spec::PingPong(_))
                && !matches!(p, Point::Batching { .. });
            if paper {
                assert_eq!(p.seeds(false).len(), RUNS);
                assert_eq!(p.seeds(true).len(), QUICK_RUNS);
            } else {
                assert_eq!(p.seeds(false).len(), 1, "{p:?}");
                assert!(p.seeds(true).len() <= 1, "{p:?}");
            }
        }
    }

    /// Honest defaults: a serving fan-in runs on fair share, and a FIFO
    /// one appears only in the incast table's FIFO columns, which show
    /// that fabric delivering more than the receiver's line rate. Walks
    /// every cell without running anything.
    #[test]
    fn a_fifo_fan_in_only_shows_the_fifo_defect() {
        for table in tables() {
            for (label, cells) in &table.rows {
                for (i, &(point, _)) in cells.iter().enumerate() {
                    let Spec::FanIn(spec) = point.spec(false) else {
                        continue;
                    };
                    // The derived column sits after the first two cells.
                    let skip = usize::from(table.derived.is_some() && i >= 2);
                    let column = table.columns[i + skip];
                    let defect = table.title.starts_with("Incast") && column.starts_with("FIFO");
                    assert_eq!(
                        spec.fabric == FabricModel::Fifo,
                        defect,
                        "{}: {label}, {column}",
                        table.title
                    );
                }
            }
        }
    }
}
