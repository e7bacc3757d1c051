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

use exs::ExsConfig;
use exs::ProtocolMode::{self, BCopy, DirectOnly, Dynamic, IndirectOnly};
use exs::WwiMode::{self, Native, WritePlusSend};
use rdma_verbs::{profiles, HwProfile};
use simnet::SimDuration;

use crate::{
    run_blast_seeds, run_pingpong, BlastReport, BlastSpec, PingPongReport, PingPongSpec, SizeDist,
    Summary,
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
}

/// What a point runs.
#[derive(Debug)]
enum Spec {
    Blast(BlastSpec),
    PingPong(PingPongSpec),
}

impl Point {
    /// The sweep's spec constructor at full (`quick == false`) or quick
    /// budget.
    fn spec(self, quick: bool) -> Spec {
        let messages = if quick { QUICK_MESSAGES } else { MESSAGES };
        let iterations = if quick { 40 } else { 200 };
        let fdr = profiles::fdr_infiniband;
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
}

impl Metric {
    fn read(self, run: &Run) -> f64 {
        match (self, run) {
            (Metric::Mbps, Run::Blast(r)) => r.throughput_mbps(),
            (Metric::RxCpuPct, Run::Blast(r)) => r.cpu_receiver * 100.0,
            (Metric::TxCpuPct, Run::Blast(r)) => r.cpu_sender * 100.0,
            (Metric::Switches, Run::Blast(r)) => r.mode_switches as f64,
            (Metric::DirectRatio, Run::Blast(r)) => r.direct_ratio(),
            (Metric::RttUs, Run::PingPong(r)) => r.mean_us(),
            (metric, _) => panic!("{metric:?} is not read from this kind of run"),
        }
    }
}

/// A row label and, for each read column, the point and metric it reads.
type Row = (String, Vec<(Point, Metric)>);

struct Table {
    title: &'static str,
    columns: &'static [&'static str],
    rows: Vec<Row>,
    /// A last column computed from the means of the row's first two
    /// cells (a gap, an overhead, a saving); it has no CI.
    derived: Option<fn(f64, f64) -> f64>,
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

    fn derived(self, f: fn(f64, f64) -> f64) -> Table {
        Table {
            derived: Some(f),
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
    vec![
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
        .derived(|event, busy| event - busy)
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
        .derived(drop_pct),
        table(
            "QDR ablation: throughput on qdr-infiniband (equal ops)",
            QDR,
            grid(&QDR_OPS, ops, &[DirectOnly, IndirectOnly], |ops, mode| {
                (Point::QdrOps { mode, ops }, Mbps)
            }),
        )
        .derived(drop_pct)
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
        .derived(drop_pct)
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
    ]
}

/// Runs every point of every table once and prints the tables in README
/// order, each in the layout of a paper table: a 22-column row label and
/// 24-column cells. `quick` runs 2 seeds of 60 messages per point (and
/// shorter Fig. 12 and ping-pong runs) instead of 5 of 300.
pub fn print_all(quick: bool) {
    let mut done: Vec<(Point, Vec<Run>)> = Vec::new();
    for table in tables() {
        println!();
        println!("=== {} ===", table.title);
        print!("{:<22}", "");
        for c in table.columns {
            print!("{c:>24}");
        }
        println!();
        for (label, cells) in &table.rows {
            print!("{label:<22}");
            let mut means = Vec::new();
            for &(point, metric) in cells {
                let i = done.iter().position(|(p, _)| *p == point);
                let i = i.unwrap_or_else(|| {
                    done.push((point, point.run(quick)));
                    done.len() - 1
                });
                let s = Summary::of(&done[i].1.iter().map(|r| metric.read(r)).collect::<Vec<_>>());
                means.push(s.mean);
                print!("{:>24}", s.to_string());
            }
            if let Some(f) = table.derived {
                print!("{:>24}", format!("{:.2}", f(means[0], means[1])));
            }
            println!();
        }
        if !table.note.is_empty() {
            println!();
            println!("{}", table.note);
        }
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
        let blast = points
            .iter()
            .filter(|p| matches!(p.spec(false), Spec::Blast(_)));
        assert_eq!((blast.count(), points.len()), (119, 119 + 15));
        let configs: Vec<String> = points
            .iter()
            .map(|p| format!("{:?}", p.spec(false)))
            .collect();
        for (i, config) in configs.iter().enumerate() {
            assert!(
                !configs[..i].contains(config),
                "{:?} is another point",
                points[i]
            );
            assert_eq!(points[i].seeds(false).len(), RUNS);
            assert_eq!(points[i].seeds(true).len(), QUICK_RUNS);
        }
    }
}
