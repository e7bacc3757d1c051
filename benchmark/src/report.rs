//! `--all`: every workload in its own child process, merged into
//! `BENCH.json`; and `--compare`: two such files held against each
//! other.

use std::path::{Path, PathBuf};
use std::process::Command;

use crate::json::Json;
use crate::metrics::{Better, END_TO_END, PER_LAYER};
use crate::probes;
use crate::run::{print_block, result_file_name, sched_share, write_file};
use crate::stats::median;
use crate::workloads::{Values, Workload};

/// Options of an `--all` run.
#[derive(Clone, Debug)]
pub struct AllArgs {
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub quick: bool,
    pub out_dir: PathBuf,
}

/// The PR whose benchmark definition this is (`trajectory/BENCH_<pr>.json`).
const PR: u64 = 11;

fn command_line(program: &str, args: &[&str], dir: &Path) -> String {
    Command::new(program)
        .args(args)
        .current_dir(dir)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// Runs one workload in a child process (so that `peak_rss_mib` is that
/// workload's alone) and returns the result file it wrote.
fn child(w: Workload, args: &AllArgs, trace: bool) -> Result<Json, String> {
    let file = args.out_dir.join(result_file_name(w, trace));
    // A stale file must not stand in for a child that died.
    let _ = std::fs::remove_file(&file);
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark binary: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", w.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&args.out_dir)
        .arg("--skip-probes");
    if args.quick {
        cmd.arg("--quick");
    }
    let status = cmd
        .status()
        .map_err(|e| format!("spawning {}: {e}", w.name()))?;
    let text = std::fs::read_to_string(&file)
        .map_err(|e| format!("{} exited with {status} and left no result: {e}", w.name()))?;
    let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", file.display()))?;
    if !status.success() && doc.get("correct").and_then(Json::as_bool) != Some(false) {
        return Err(format!("{} exited with {status}", w.name()));
    }
    Ok(doc)
}

/// `{metric: {value, unit}}` → `{metric: value}`.
fn plain_values(block: Option<&Json>) -> Vec<(String, Json)> {
    block
        .map(Json::members)
        .unwrap_or_default()
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), Json::Num(m.get("value")?.as_f64()?))))
        .collect()
}

/// Adds the members of `extra` that `into` lacks; reports members both
/// have with different values (used for blocks that must agree).
fn merge(
    into: &mut Vec<(String, Json)>,
    extra: Vec<(String, Json)>,
    must_agree: bool,
) -> Vec<String> {
    let mut clashes = Vec::new();
    for (name, value) in extra {
        match into.iter().find(|(k, _)| *k == name) {
            None => into.push((name, value)),
            Some((_, have)) if must_agree && *have != value => clashes.push(name),
            Some(_) => {}
        }
    }
    into.sort_by(|a, b| a.0.cmp(&b.0));
    clashes
}

/// Runs every workload and writes `BENCH.json`. Returns false when any
/// check failed.
pub fn run_all(args: &AllArgs) -> bool {
    let manifest_dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut ok = true;
    let (mut summary, mut modelled, mut real) = (Vec::new(), Vec::new(), Vec::new());

    // The layer probes do not depend on the workload: they run once,
    // here, and are stored once.
    let probes = if args.trace {
        probes::run_all()
    } else {
        Values::new()
    };
    if args.trace {
        print_block(
            "probes",
            "per layer: REAL host time, the same for every workload",
            &probes,
        );
        let values = probes.iter().map(|(&k, &v)| (k.to_string(), Json::Num(v)));
        real.push(("probes".to_string(), Json::Obj(values.collect())));
    }

    for w in Workload::ALL {
        let untraced = child(w, args, false);
        let traced = args.trace.then(|| child(w, args, true));
        let mut notes: Vec<Json> = Vec::new();
        let mut docs = Vec::new();
        for doc in std::iter::once(untraced).chain(traced) {
            match doc {
                Ok(doc) => docs.push(doc),
                Err(e) => notes.push(Json::Str(e)),
            }
        }
        let field = |key: &str| docs.first().and_then(|d| d.get(key)).cloned();
        let correct = notes.is_empty()
            && docs
                .iter()
                .all(|d| d.get("correct").and_then(Json::as_bool) == Some(true));
        for doc in &docs {
            if let Some(Json::Arr(child_notes)) = doc.get("notes") {
                notes.extend(child_notes.iter().cloned());
            }
        }

        // End-to-end figures and real per-layer values come from the
        // untraced child (more repetitions); the traced child adds the
        // trace- and probe-only metrics, and its exact values must
        // agree with the untraced child's.
        let mut w_real = plain_values(docs.first().and_then(|d| d.get("end_to_end")));
        let mut w_modelled = Vec::new();
        for doc in &docs {
            merge(&mut w_real, plain_values(doc.get("real")), false);
            for name in merge(&mut w_modelled, plain_values(doc.get("modelled")), true) {
                notes.push(Json::Str(format!(
                    "{name}: traced and untraced passes disagree on an exact value"
                )));
            }
        }
        let host_ns_per_event = w_real
            .iter()
            .find(|(name, _)| name == "simnet.host_ns_per_event")
            .and_then(|(_, v)| v.as_f64());
        if let (Some(&probe), Some(per_event)) =
            (probes.get("simnet.sched_ns_per_event"), host_ns_per_event)
        {
            let share = Json::Num(sched_share(probe, per_event));
            merge(
                &mut w_real,
                vec![("simnet.sched_share".to_string(), share)],
                false,
            );
        }
        let correct = correct && notes.is_empty();
        ok &= correct;
        summary.push((
            w.name().to_string(),
            Json::obj([
                ("correct", Json::Bool(correct)),
                ("attempted", field("attempted").unwrap_or(Json::Num(0.0))),
                ("failed", field("failed").unwrap_or(Json::Num(0.0))),
                ("reps", field("reps").unwrap_or(Json::Num(0.0))),
                ("notes", Json::Arr(notes)),
            ]),
        ));
        if w.is_sim() {
            modelled.push((w.name().to_string(), Json::Obj(w_modelled)));
        }
        real.push((w.name().to_string(), Json::Obj(w_real)));
    }

    let definitions = END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .map(|m| {
            let mut d = vec![
                ("unit", Json::str(m.unit)),
                ("better", Json::str(m.better.label())),
                ("source", Json::str(m.source.label())),
            ];
            if let Some(bound) = m.bound {
                d.push(("bound", Json::Num(bound)));
            }
            (m.name.to_string(), Json::obj(d))
        })
        .collect();
    let bench = Json::obj([
        ("schema", Json::Num(1.0)),
        ("pr", Json::Num(PR as f64)),
        ("claim", Json::Null),
        ("quick", Json::Bool(args.quick)),
        ("traced", Json::Bool(args.trace)),
        (
            "traffic",
            Json::str(
                "in-process only: the simulated fabric, or the thread backend's in-memory link; \
                 no value here is a real-NIC number",
            ),
        ),
        (
            "host",
            Json::obj([
                (
                    "nproc",
                    Json::Num(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64),
                ),
                (
                    "rustc",
                    Json::Str(command_line("rustc", &["-V"], manifest_dir)),
                ),
                (
                    "commit",
                    Json::Str(command_line("git", &["rev-parse", "HEAD"], manifest_dir)),
                ),
                ("seed", Json::Num(args.seed as f64)),
                ("seconds", Json::Num(args.seconds as f64)),
            ]),
        ),
        ("metrics", Json::Obj(definitions)),
        ("workloads", Json::Obj(summary)),
        ("modelled", Json::Obj(modelled)),
        ("real", Json::Obj(real)),
    ]);
    let path = args.out_dir.join("BENCH.json");
    match write_file(&path, &bench.pretty()) {
        Ok(()) => println!("# wrote {}", path.display()),
        Err(e) => {
            eprintln!("writing {}: {e}", path.display());
            ok = false;
        }
    }
    ok
}

/// How much worse `b` is than `a`, as a share of `a` (negative when
/// better).
fn worsening(better: Better, a: f64, b: f64) -> f64 {
    match better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

/// Holds two sets of `BENCH.json` files of one commit against each
/// other: every modelled value identical in every file, and for every
/// end-to-end metric the median over one set within the metric's bound
/// of the median over the other, in both directions. Several runs a
/// side, taken alternately, are what makes the second half meaningful
/// on a host whose speed drifts by more than the bounds within minutes.
/// Returns the violations.
pub fn compare(a: &[Json], b: &[Json]) -> Vec<String> {
    let mut violations = Vec::new();
    let (Some(first), false) = (a.first(), b.is_empty()) else {
        return vec!["nothing to compare".to_string()];
    };
    let all = || a.iter().chain(b);
    for key in ["quick", "traced", "modelled"] {
        if first.get(key).is_none() {
            violations.push(format!("no `{key}` in the first file"));
        }
    }
    for doc in all() {
        for key in ["quick", "traced"] {
            if doc.get(key) != first.get(key) {
                violations.push(format!("the runs differ in `{key}`"));
            }
        }
        // Exact values: any difference at all, a missing or an extra
        // one included, is a violation.
        let (want, have) = (first.get("modelled"), doc.get("modelled"));
        if want == have {
            continue;
        }
        let workloads = |m: Option<&Json>| m.map(Json::members).unwrap_or_default().to_vec();
        for (w, want_w) in workloads(want) {
            let have_w = have.and_then(|m| m.get(&w));
            if have_w.map(Json::members).map(<[_]>::len) != Some(want_w.members().len()) {
                violations.push(format!("{w}: modelled metric sets differ"));
            }
            for (name, value) in want_w.members() {
                let other = have_w.and_then(|m| m.get(name));
                if other != Some(value) {
                    violations.push(format!(
                        "{w} {name}: exact value differs: {} vs {}",
                        value.compact(),
                        other.map_or("absent".to_string(), Json::compact)
                    ));
                }
            }
        }
    }
    // Quick runs time three tiny repetitions: their exact half is worth
    // checking, their times are printed but not enforced.
    let enforce = first.get("quick").and_then(Json::as_bool) != Some(true);
    for w in Workload::ALL {
        for def in &END_TO_END {
            let side = |docs: &[Json]| -> Option<f64> {
                let values: Option<Vec<f64>> = docs
                    .iter()
                    .map(|d| d.get("real")?.get(w.name())?.get(def.name)?.as_f64())
                    .collect();
                values.map(|v| median(&v))
            };
            let (Some(va), Some(vb)) = (side(a), side(b)) else {
                violations.push(format!("{} {}: missing", w.name(), def.name));
                continue;
            };
            let bound = def.bound.expect("end-to-end metrics carry a bound");
            let worst = worsening(def.better, va, vb).max(worsening(def.better, vb, va));
            let line = format!(
                "{} {}: {va} vs {vb} {} differ by {:.1}% (bound {:.0}%)",
                w.name(),
                def.name,
                def.unit,
                worst * 100.0,
                bound * 100.0
            );
            let verdict = match (worst <= bound, enforce) {
                (true, _) => "",
                (false, true) => " OUT OF BOUND",
                (false, false) => " out of bound (quick run: not enforced)",
            };
            println!("{line}{verdict}");
            if worst > bound && enforce {
                violations.push(line);
            }
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bench(goodput: f64, msgs_per_s: f64) -> Json {
        let real = Workload::ALL
            .iter()
            .map(|w| {
                (
                    w.name(),
                    Json::obj([
                        ("setup_s", Json::Num(0.01)),
                        ("host_msgs_per_s", Json::Num(msgs_per_s)),
                        ("peak_rss_mib", Json::Num(50.0)),
                    ]),
                )
            })
            .collect::<Vec<_>>();
        Json::obj([
            ("quick", Json::Bool(false)),
            ("traced", Json::Bool(false)),
            (
                "modelled",
                Json::obj([(
                    "sim_blast_paper",
                    Json::obj([("model.goodput_gbps", Json::Num(goodput))]),
                )]),
            ),
            ("real", Json::obj(real)),
        ])
    }

    fn cmp(a: Json, b: Json) -> Vec<String> {
        compare(&[a], &[b])
    }

    #[test]
    fn identical_sets_agree() {
        assert_eq!(
            cmp(bench(44.8, 1000.0), bench(44.8, 1000.0)),
            Vec::<String>::new()
        );
        assert!(!compare(&[], &[bench(44.8, 1000.0)]).is_empty());
    }

    #[test]
    fn quick_runs_are_held_to_their_exact_values_only() {
        let quick = |goodput, rate| {
            let Json::Obj(mut members) = bench(goodput, rate) else {
                unreachable!()
            };
            members[0].1 = Json::Bool(true);
            Json::Obj(members)
        };
        assert!(cmp(quick(44.8, 1000.0), quick(44.8, 100.0)).is_empty());
        assert_eq!(cmp(quick(44.8, 1000.0), quick(44.9, 1000.0)).len(), 1);
    }

    #[test]
    fn sides_are_compared_by_their_medians() {
        // One slow run in three does not move a side's median.
        let a = [bench(44.8, 1000.0), bench(44.8, 500.0), bench(44.8, 1010.0)];
        let b = [bench(44.8, 990.0), bench(44.8, 1000.0), bench(44.8, 2000.0)];
        assert_eq!(compare(&a, &b), Vec::<String>::new());
        // But every file's exact values count.
        let b = [bench(44.8, 990.0), bench(44.9, 1000.0), bench(44.8, 1000.0)];
        assert_eq!(compare(&a, &b).len(), 1);
    }

    #[test]
    fn any_exact_difference_is_a_violation() {
        let v = cmp(bench(44.8, 1000.0), bench(44.800000001, 1000.0));
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("model.goodput_gbps"));
    }

    #[test]
    fn end_to_end_difference_beyond_the_bound_is_a_violation_either_way() {
        // host_msgs_per_s has a 25 % bound.
        assert!(cmp(bench(44.8, 1000.0), bench(44.8, 800.0)).is_empty());
        for (a, b) in [(1000.0, 700.0), (700.0, 1000.0)] {
            let v = cmp(bench(44.8, a), bench(44.8, b));
            assert_eq!(v.len(), Workload::ALL.len(), "{v:?}");
            assert!(v[0].contains("host_msgs_per_s"));
        }
    }

    #[test]
    fn merge_keeps_first_and_reports_clashes() {
        let mut into = vec![("b".to_string(), Json::Num(1.0))];
        let extra = vec![
            ("a".to_string(), Json::Num(2.0)),
            ("b".to_string(), Json::Num(3.0)),
        ];
        assert_eq!(merge(&mut into, extra.clone(), true), ["b"]);
        assert_eq!(into[0], ("a".to_string(), Json::Num(2.0)));
        assert_eq!(into[1], ("b".to_string(), Json::Num(1.0)));
        assert!(merge(&mut into, extra, false).is_empty());
    }
}
