//! One workload, start to finish: the check repetition, the timed
//! untraced repetitions the end-to-end metrics come from, and — in the
//! traced pass — the traced repetitions and layer probes.

use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::time::Instant;

use crate::json::Json;
use crate::metrics::{self, Better, MetricDef, END_TO_END, PER_LAYER};
use crate::probes;
use crate::procfs::peak_rss_mib;
use crate::span::{chrome_trace, Recorder};
use crate::stats::{best, median, percentile, supported_percentile};
use crate::workloads::thread::ThreadRecorders;
use crate::workloads::{fan_in, sim_blast, thread, Purpose, Rep, Size, Values, Workload};

/// Fewest timed repetitions of a full-size run.
const MIN_REPS: usize = 7;
/// Untraced and traced repetitions in quick mode and in the traced pass.
const FEW_REPS: usize = 3;
/// Spans kept for the Chrome trace; aggregates cover the rest.
const SPAN_CAPACITY: usize = 1 << 17;

/// What to run.
#[derive(Clone, Debug)]
pub struct RunArgs {
    pub workload: Workload,
    pub seed: u64,
    /// Time budget for the timed repetitions.
    pub seconds: f64,
    pub trace: bool,
    /// Whether the traced pass also runs the layer probes (`--all` runs
    /// them once for all its children instead).
    pub probes: bool,
    pub size: Size,
    /// Where `trace_<workload>.json` goes.
    pub out_dir: PathBuf,
}

/// The file under the output directory a single-workload run leaves its
/// full result in.
pub fn result_file_name(w: Workload, traced: bool) -> String {
    format!(
        "result_{}{}.json",
        w.name(),
        if traced { "_traced" } else { "" }
    )
}

/// `simnet.sched_share`: the scheduler probe's cost per event as a share
/// of the host time the workload spent per simulated event.
pub fn sched_share(sched_ns_per_event: f64, host_ns_per_event: f64) -> f64 {
    sched_ns_per_event / host_ns_per_event
}

/// Everything one workload run measured.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    pub workload: &'static str,
    pub seed: u64,
    pub quick: bool,
    pub traced: bool,
    /// Timed untraced repetitions.
    pub reps: usize,
    pub attempted: u64,
    pub failed: u64,
    pub correct: bool,
    /// Why `correct` is false.
    pub notes: Vec<String>,
    pub end_to_end: Values,
    /// The per-repetition samples behind the end-to-end medians, for
    /// judging noise by eye.
    pub samples: Vec<(&'static str, Vec<f64>)>,
    pub modelled: Values,
    pub real: Values,
}

fn untraced_rep(w: Workload, size: Size, seed: u64, purpose: Purpose) -> Rep {
    match w {
        Workload::SimBlastPaper | Workload::SimBlastSmall => sim_blast::run(w, size, seed, purpose),
        Workload::SimFaninReactor | Workload::SimFaninAioSharded | Workload::SimFaninMux => {
            fan_in::run(w, size, seed, purpose, None)
        }
        Workload::ThreadStreamBulk => thread::run_bulk(size, seed, purpose, None),
        Workload::ThreadPingpong => thread::run_pingpong(size, seed, purpose, None),
    }
}

/// Runs one repetition, turning a panic inside the product (a protocol
/// deadlock assert, a corrupted byte) into a failed repetition.
fn guarded(out: &mut Outcome, what: &str, f: impl FnOnce() -> Rep) -> Option<Rep> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(rep) => {
            out.attempted += rep.msgs;
            out.failed += rep.failed;
            if rep.failed > 0 {
                out.notes.push(format!(
                    "{what}: {} of {} messages failed",
                    rep.failed, rep.msgs
                ));
            }
            Some(rep)
        }
        Err(_) => {
            out.notes.push(format!("{what}: panicked"));
            // A panic fails every message of the workload.
            out.attempted = out.attempted.max(1);
            out.failed = out.attempted;
            None
        }
    }
}

/// One figure from a run's per-repetition samples: the best repetition
/// on the simulator, the median on the thread backend.
///
/// The reference host has a fast state and slower ones a fifth or more
/// below it, and changes between them every few seconds to minutes. A
/// simulator repetition is deterministic and single-threaded, so it is
/// never faster than the fast state allows, and a run that sees that
/// state in one repetition reports it: the best repetition repeats from
/// run to run where a quantile follows the share of the run spent slow.
/// On the thread backend six threads share two cores and a repetition's
/// speed also depends on where the scheduler put them, which cuts both
/// ways (single repetitions at 2.5 times the median were seen), so
/// there the median is the steady figure. `trajectory/README.md` has
/// the measurements.
fn estimate(w: Workload, samples: &[f64], better: Better) -> f64 {
    if w.is_sim() {
        best(samples, better == Better::Lower)
    } else {
        median(samples)
    }
}

fn median_of(reps: &[Rep], f: impl Fn(&Rep) -> f64) -> f64 {
    median(&reps.iter().map(f).collect::<Vec<_>>())
}

/// Median over repetitions of every key of their `real` blocks.
fn median_real(reps: &[Rep]) -> Values {
    let Some(first) = reps.first() else {
        return Values::new();
    };
    first
        .real
        .keys()
        .map(|&key| (key, median_of(reps, |r| r.real[key])))
        .collect()
}

/// Runs the workload. Never panics on a product failure: the outcome
/// says `correct: false` instead.
pub fn run_workload(args: &RunArgs) -> Outcome {
    let w = args.workload;
    let quick = args.size == Size::Quick;
    let mut out = Outcome {
        workload: w.name(),
        seed: args.seed,
        quick,
        traced: args.trace,
        ..Outcome::default()
    };

    // Untimed, and first so that it also warms the allocator and page
    // cache: full payload verification against the closed-form digests.
    let Some(check) = guarded(&mut out, "check repetition", || {
        untraced_rep(w, args.size, args.seed, Purpose::Check)
    }) else {
        return out;
    };

    // Timed repetitions, rep i on seed + i: at least MIN_REPS, until
    // the time budget is spent.
    let (min_reps, budget) = if quick || args.trace {
        (FEW_REPS, 0.0)
    } else {
        (MIN_REPS, args.seconds)
    };
    let started = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    while reps.len() < min_reps || started.elapsed().as_secs_f64() < budget {
        let seed = args.seed + reps.len() as u64;
        let Some(rep) = guarded(&mut out, "timed repetition", || {
            untraced_rep(w, args.size, seed, Purpose::Timed)
        }) else {
            return out;
        };
        reps.push(rep);
    }
    out.reps = reps.len();
    let per_msg = |r: &Rep, x: f64| x / r.msgs as f64;

    let sample = |f: &dyn Fn(&Rep) -> f64| reps.iter().map(f).collect::<Vec<f64>>();
    out.samples = vec![
        ("setup_s", sample(&|r| r.setup_s)),
        ("host_msgs_per_s", sample(&|r| r.msgs as f64 / r.wall_s)),
        (
            "host_cpu_ns_per_msg",
            sample(&|r| per_msg(r, r.cpu_s * 1e9)),
        ),
    ];
    let mut figures: Values = out
        .samples
        .iter()
        .map(|(name, samples)| {
            let def = metrics::find(name).expect("time metrics are registered");
            (*name, estimate(w, samples, def.better))
        })
        .collect();
    out.end_to_end = END_TO_END
        .iter()
        .filter_map(|def| Some((def.name, figures.remove(def.name)?)))
        .collect();
    out.end_to_end.insert("peak_rss_mib", peak_rss_mib());

    // Modelled values are those of the base seed; every repetition of
    // that seed, on any host, reproduces them.
    out.modelled = reps[0].modelled.clone();
    out.real = median_real(&reps);
    // What is not an end-to-end figure is a per-layer one
    // (`host_cpu_ns_per_msg`).
    out.real.extend(figures);
    out.real.insert("bench.reps", reps.len() as f64);
    out.real.insert(
        "blast.check_rep_overhead_pct",
        100.0 * (per_msg(&check, check.wall_s) / median_of(&reps, |r| per_msg(r, r.wall_s)) - 1.0),
    );
    let mut rtts: Vec<f64> = reps
        .iter()
        .flat_map(|r| r.rtts_ns.iter().copied())
        .collect();
    if !rtts.is_empty() {
        rtts.sort_by(f64::total_cmp);
        out.real
            .insert("exs.thread.rtt_p50_us", percentile(&rtts, 50.0) / 1e3);
        // A tail percentile is reported only with ten samples beyond it.
        for (name, p) in [
            ("exs.thread.rtt_p99_us", 99.0),
            ("exs.thread.rtt_p999_us", 99.9),
        ] {
            if let Some(v) = supported_percentile(&rtts, p) {
                out.real.insert(name, v / 1e3);
            }
        }
    }

    if args.trace {
        traced_pass(args, &reps, &mut out);
    }
    out.correct = out.failed == 0 && out.notes.is_empty();
    out
}

/// The traced repetitions (same seeds as the first untraced ones) and
/// the layer probes. End-to-end numbers never come from here; the
/// difference between the two passes is `bench.trace_overhead_pct`.
fn traced_pass(args: &RunArgs, untraced: &[Rep], out: &mut Outcome) {
    let w = args.workload;
    let origin = Instant::now();
    let capacity = |i: usize| if i == 0 { SPAN_CAPACITY } else { 0 };
    let mut traced: Vec<Rep> = Vec::new();
    let mut trace_json = String::new();

    for (i, plain) in untraced.iter().enumerate().take(FEW_REPS) {
        let seed = args.seed + i as u64;
        let rep = match w {
            Workload::SimBlastPaper | Workload::SimBlastSmall => {
                let rec = Rc::new(RefCell::new(Recorder::new(origin, 0, capacity(i))));
                let Some(rep) = guarded(out, "traced repetition", || {
                    sim_blast::run_traced(w, args.size, seed, &rec)
                }) else {
                    return;
                };
                // The thin traced apps must be the blast tool, exactly.
                if rep.modelled != plain.modelled {
                    out.notes.push(format!(
                        "traced repetition {i}: virtual-time results differ from run_blast's"
                    ));
                }
                if i == 0 {
                    trace_json = chrome_trace(w.name(), &[&rec.borrow()]);
                }
                rep
            }
            Workload::SimFaninReactor | Workload::SimFaninAioSharded | Workload::SimFaninMux => {
                let mut rec = Recorder::new(origin, 0, capacity(i));
                let Some(rep) = guarded(out, "traced repetition", || {
                    fan_in::run(w, args.size, seed, Purpose::Timed, Some(&mut rec))
                }) else {
                    return;
                };
                if i == 0 {
                    trace_json = chrome_trace(w.name(), &[&rec]);
                }
                rep
            }
            Workload::ThreadStreamBulk | Workload::ThreadPingpong => {
                let mut generator = Recorder::new(origin, 1, capacity(i));
                let mut peer = Recorder::new(origin, 2, capacity(i));
                let Some(mut rep) = guarded(out, "traced repetition", || {
                    let recs = Some(ThreadRecorders {
                        generator: &mut generator,
                        peer: &mut peer,
                    });
                    if w == Workload::ThreadStreamBulk {
                        thread::run_bulk(args.size, seed, Purpose::Timed, recs)
                    } else {
                        thread::run_pingpong(args.size, seed, Purpose::Timed, recs)
                    }
                }) else {
                    return;
                };
                rep.real = thread::trace_values(&generator, &peer, rep.msgs, rep.wall_s);
                if i == 0 {
                    trace_json = chrome_trace(w.name(), &[&generator, &peer]);
                }
                rep
            }
        };
        traced.push(rep);
    }

    let path = args.out_dir.join(format!("trace_{}.json", w.name()));
    if let Err(e) = write_file(&path, &trace_json) {
        out.notes.push(format!("writing {}: {e}", path.display()));
    }

    let wall = |reps: &[Rep]| median_of(reps, |r| r.wall_s / r.msgs as f64);
    out.real.insert(
        "bench.trace_overhead_pct",
        100.0 * (wall(&traced) / wall(&untraced[..FEW_REPS]) - 1.0),
    );
    // Counts taken at the port boundary repeat exactly on the
    // simulator; times are medians over the traced repetitions.
    for (name, value) in median_real(&traced) {
        let exact = metrics::find(name).is_some_and(|def| metrics::is_exact(def, w));
        if exact {
            out.modelled.insert(name, traced[0].real[name]);
        } else {
            out.real.insert(name, value);
        }
    }

    if args.probes {
        out.real.extend(probes::run_all());
        if let Some(&per_event) = out.real.get("simnet.host_ns_per_event") {
            out.real.insert(
                "simnet.sched_share",
                sched_share(out.real["simnet.sched_ns_per_event"], per_event),
            );
        }
    }
}

/// Prints a titled block of `name value unit` lines (nothing for an
/// empty block). `what` is the workload the values belong to.
pub fn print_block(what: &str, title: &str, values: &Values) {
    if values.is_empty() {
        return;
    }
    println!("# {what} — {title}");
    for (name, value) in values {
        let unit = metrics::find(name).map_or("?", |d| d.unit);
        println!("{name} {value} {unit}");
    }
}

/// Creates the parent directory and writes `text`.
pub fn write_file(path: &Path, text: &str) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, text)
}

fn value_json(def: &MetricDef, value: f64) -> Json {
    Json::obj([("value", Json::Num(value)), ("unit", Json::str(def.unit))])
}

fn values_json(values: &Values) -> Json {
    Json::Obj(
        values
            .iter()
            .map(|(&name, &v)| {
                let def =
                    metrics::find(name).unwrap_or_else(|| panic!("unregistered metric {name}"));
                (name.to_string(), value_json(def, v))
            })
            .collect(),
    )
}

impl Outcome {
    /// The driver's result line: exactly `correct`, `attempted`,
    /// `failed` and `metrics` — every end-to-end metric untraced, every
    /// per-layer metric traced (0 where one does not apply to this
    /// workload).
    pub fn result_line(&self) -> String {
        let metrics = if self.traced {
            PER_LAYER
                .iter()
                .map(|def| {
                    let value = self
                        .modelled
                        .get(def.name)
                        .or_else(|| self.real.get(def.name))
                        .copied()
                        .unwrap_or(0.0);
                    (def.name.to_string(), value_json(def, value))
                })
                .collect()
        } else {
            END_TO_END
                .iter()
                .map(|def| {
                    let value = self.end_to_end.get(def.name).copied().unwrap_or(0.0);
                    (def.name.to_string(), value_json(def, value))
                })
                .collect()
        };
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted.max(1) as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::Obj(metrics)),
        ])
        .compact()
    }

    /// Everything measured, for `BENCH.json`.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("workload", Json::str(self.workload)),
            ("seed", Json::Num(self.seed as f64)),
            ("quick", Json::Bool(self.quick)),
            ("traced", Json::Bool(self.traced)),
            ("reps", Json::Num(self.reps as f64)),
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "notes",
                Json::Arr(self.notes.iter().map(Json::str).collect()),
            ),
            ("end_to_end", values_json(&self.end_to_end)),
            ("modelled", values_json(&self.modelled)),
            ("real", values_json(&self.real)),
        ])
    }

    /// `name value unit` lines, one block per kind of number.
    pub fn print(&self) {
        let block = |title: &str, values: &Values| print_block(self.workload, title, values);
        block(
            &format!(
                "end to end: REAL host time, untraced, {} of {} repetitions, seed {}{}",
                if Workload::from_name(self.workload).is_some_and(Workload::is_sim) {
                    "best"
                } else {
                    "median"
                },
                self.reps,
                self.seed,
                if self.traced {
                    " (traced pass: few repetitions, not the figures to quote)"
                } else {
                    ""
                }
            ),
            &self.end_to_end,
        );
        for (name, samples) in &self.samples {
            let list: Vec<String> = samples.iter().map(|v| format!("{v:.6}")).collect();
            println!(
                "# {} — {name}: median {:.6}, by repetition: {}",
                self.workload,
                median(samples),
                list.join(" ")
            );
        }
        block(
            "MODELLED: virtual time and exact counts, identical on every run of this seed",
            &self.modelled,
        );
        block(
            "per layer: REAL host time and scheduling-dependent counts",
            &self.real,
        );
        for note in &self.notes {
            println!("# {} — FAILED: {note}", self.workload);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(w: Workload, trace: bool) -> RunArgs {
        RunArgs {
            workload: w,
            seed: 21,
            seconds: 0.0,
            trace,
            probes: true,
            size: Size::Quick,
            // Under the git-ignored output directory; the tests of one
            // process write different files.
            out_dir: Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("out")
                .join(format!("test-{}", std::process::id())),
        }
    }

    #[test]
    fn untraced_result_line_has_exactly_the_end_to_end_metrics() {
        let out = run_workload(&args(Workload::SimBlastSmall, false));
        assert!(out.correct, "{:?}", out.notes);
        assert_eq!(out.reps, FEW_REPS);
        let line = Json::parse(&out.result_line()).expect("result line parses");
        let keys: Vec<&str> = line.members().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.get("correct").and_then(Json::as_bool), Some(true));
        assert_eq!(line.get("failed").and_then(Json::as_f64), Some(0.0));
        let metrics = line.get("metrics").expect("metrics");
        let names: Vec<&str> = metrics.members().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(names, END_TO_END.map(|m| m.name));
        for (name, m) in metrics.members() {
            assert!(
                m.get("value").and_then(Json::as_f64).unwrap() > 0.0,
                "{name} is 0"
            );
            assert_eq!(
                m.get("unit").and_then(Json::as_str),
                metrics::find(name).map(|d| d.unit)
            );
        }
    }

    #[test]
    fn traced_result_line_has_every_per_layer_metric() {
        for w in [Workload::SimBlastPaper, Workload::ThreadPingpong] {
            let a = args(w, true);
            let out = run_workload(&a);
            assert!(out.correct, "{:?}", out.notes);
            let line = Json::parse(&out.result_line()).expect("result line parses");
            let metrics = line.get("metrics").expect("metrics");
            let names: Vec<&str> = metrics.members().iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(names, PER_LAYER.map(|m| m.name));
            assert!(out.real.contains_key("bench.trace_overhead_pct"));
            // The trace file is Chrome trace-event JSON.
            let trace = std::fs::read_to_string(a.out_dir.join(format!("trace_{}.json", w.name())))
                .expect("trace written");
            assert!(Json::parse(&trace)
                .expect("trace parses")
                .get("traceEvents")
                .is_some());
            // Thread workloads have no exact values; sim ones do.
            assert_eq!(out.modelled.is_empty(), !w.is_sim());
        }
    }

    /// Each `sim_*` workload run twice in-process yields identical
    /// modelled blocks and counts, traced-pass counts included.
    #[test]
    fn sim_workloads_repeat_exactly() {
        for w in Workload::ALL.into_iter().filter(|w| w.is_sim()) {
            let a = untraced_rep(w, Size::Quick, 17, Purpose::Timed);
            let b = untraced_rep(w, Size::Quick, 17, Purpose::Timed);
            assert!(a.modelled.len() >= 10, "{}: {:?}", w.name(), a.modelled);
            assert_eq!(a.modelled, b.modelled, "{}", w.name());
        }
        for w in [Workload::SimBlastPaper, Workload::SimBlastSmall] {
            let counts = || {
                let rec = Rc::new(RefCell::new(Recorder::new(Instant::now(), 0, 0)));
                let mut values = sim_blast::run_traced(w, Size::Quick, 17, &rec).real;
                values.retain(|name, _| metrics::is_exact(metrics::find(name).unwrap(), w));
                values
            };
            let (a, b) = (counts(), counts());
            assert_eq!(a.len(), 4, "{a:?}");
            assert_eq!(a, b, "{}", w.name());
        }
    }

    #[test]
    fn outcome_json_shape() {
        let out = run_workload(&args(Workload::SimFaninMux, false));
        let doc = out.to_json();
        for key in [
            "workload",
            "seed",
            "quick",
            "traced",
            "reps",
            "correct",
            "attempted",
            "failed",
            "notes",
            "end_to_end",
            "modelled",
            "real",
        ] {
            assert!(doc.get(key).is_some(), "missing {key}");
        }
        assert_eq!(Json::parse(&doc.pretty()).unwrap(), doc);
        let goodput = doc
            .get("modelled")
            .and_then(|m| m.get("model.goodput_gbps"));
        assert_eq!(
            goodput.and_then(|g| g.get("unit")).and_then(Json::as_str),
            Some("Gbit/s")
        );
    }
}
