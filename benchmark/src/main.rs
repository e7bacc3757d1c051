//! The repo benchmark: end-to-end and per-layer metrics over seven
//! workloads, with the paper's *modelled* (virtual-time) figures kept
//! apart from the *real* (host-time) cost of this repo's own code.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>   one workload (the driver's call)
//! benchmark --all [--seed <n>] [--seconds <s>] [--trace] [--quick]      every workload, writes out/BENCH.json
//! benchmark --compare <a.json,...> <b.json,...>                         two sets of BENCH.json files of one commit
//! benchmark --emit-benchmark-json                                       the contents of BENCHMARK.json
//! ```
//!
//! Traffic is in-process only (simulated fabric, or the thread
//! backend's in-memory link): no number printed here is a real-NIC
//! number. See `README.md` beside this package.

mod json;
mod metrics;
mod probes;
mod procfs;
mod report;
mod run;
mod span;
mod stats;
mod traced_port;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use json::Json;
use workloads::{Size, Workload};

const USAGE: &str = "usage:
  benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick] [--out <dir>] [--skip-probes]
  benchmark --all [--seed <n>] [--seconds <s>] [--trace] [--quick] [--out <dir>]
  benchmark --compare <a.json,...> <b.json,...>
  benchmark --emit-benchmark-json";

/// Parsed command line.
#[derive(Debug, Default, PartialEq)]
struct Cli {
    workload: Option<String>,
    all: bool,
    seed: u64,
    seconds: Option<u64>,
    trace: bool,
    quick: bool,
    out: Option<PathBuf>,
    /// Set by `--all` on its children: it runs the workload-independent
    /// layer probes once itself.
    skip_probes: bool,
    compare: Option<(String, String)>,
    emit_benchmark_json: bool,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        seed: 1,
        ..Cli::default()
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{arg} needs {what}"))
        };
        match arg.as_str() {
            "--workload" => cli.workload = Some(value("a workload name")?),
            "--seed" => {
                cli.seed = value("a number")?
                    .parse()
                    .map_err(|_| "--seed needs a whole number".to_string())?
            }
            "--seconds" => {
                let s: u64 = value("a number")?
                    .parse()
                    .map_err(|_| "--seconds needs a whole number".to_string())?;
                if !(1..=600).contains(&s) {
                    return Err("--seconds must be between 1 and 600".to_string());
                }
                cli.seconds = Some(s);
            }
            // `--trace 0|1` from the driver; a bare `--trace` with --all.
            "--trace" => {
                cli.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--quick" => cli.quick = true,
            "--all" => cli.all = true,
            "--out" => cli.out = Some(value("a directory")?.into()),
            "--skip-probes" => cli.skip_probes = true,
            "--compare" => cli.compare = Some((value("two file lists")?, value("two file lists")?)),
            "--emit-benchmark-json" => cli.emit_benchmark_json = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(cli)
}

/// Reads a comma-separated list of JSON files.
fn read_all(paths: &str) -> Result<Vec<Json>, String> {
    paths
        .split(',')
        .map(|path| {
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            Json::parse(&text).map_err(|e| format!("{path}: {e}"))
        })
        .collect()
}

fn real_main() -> Result<bool, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = parse_cli(&args)?;
    let out_dir = cli
        .out
        .clone()
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out"));
    let seconds = cli.seconds.unwrap_or(metrics::RUN_SECONDS);

    if cli.emit_benchmark_json {
        print!("{}", metrics::benchmark_json().pretty());
        return Ok(true);
    }
    if let Some((a, b)) = &cli.compare {
        let violations = report::compare(&read_all(a)?, &read_all(b)?);
        for v in &violations {
            println!("VIOLATION: {v}");
        }
        return Ok(violations.is_empty());
    }
    if cli.all {
        return Ok(report::run_all(&report::AllArgs {
            seed: cli.seed,
            seconds,
            trace: cli.trace,
            quick: cli.quick,
            out_dir,
        }));
    }
    let name = cli.workload.as_deref().ok_or(USAGE)?;
    let workload = Workload::from_name(name).ok_or_else(|| {
        let known: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!("unknown workload {name}; known: {}", known.join(", "))
    })?;
    let outcome = run::run_workload(&run::RunArgs {
        workload,
        seed: cli.seed,
        seconds: seconds as f64,
        trace: cli.trace,
        probes: !cli.skip_probes,
        size: if cli.quick { Size::Quick } else { Size::Full },
        out_dir: out_dir.clone(),
    });
    outcome.print();
    let path = out_dir.join(run::result_file_name(workload, cli.trace));
    run::write_file(&path, &outcome.to_json().pretty())
        .map_err(|e| format!("{}: {e}", path.display()))?;
    // Last line of standard output: the driver's result object.
    println!("{}", outcome.result_line());
    Ok(outcome.correct)
}

/// Fixes glibc malloc's mmap and trim thresholds.
///
/// Left alone, glibc adapts both to the sizes a process has freed, so
/// whether a 16 MiB ring is a fresh `mmap` (untouched zero pages, given
/// back on `free`) or a reused, re-zeroed heap block depends on the
/// seed-dependent order of earlier allocations — and `setup_s` and
/// `peak_rss_mib` came out bimodal (1 ms or 7 ms; 70 MiB or 110 MiB on
/// `sim_blast_paper`). With both thresholds pinned high, every buffer
/// the workloads register is heap memory that stays with the process,
/// so repetitions after the first take no page faults for them either.
#[cfg(target_env = "gnu")]
fn pin_malloc_thresholds() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_TRIM_THRESHOLD: i32 = -1;
    const M_MMAP_THRESHOLD: i32 = -3;
    // SAFETY: `mallopt` is glibc's documented tunables call; it takes
    // two plain integers, touches no memory of ours, and runs here
    // before any other thread exists. 32 MiB is the largest mmap
    // threshold glibc accepts on 64-bit.
    let ok = unsafe {
        mallopt(M_MMAP_THRESHOLD, 32 << 20) == 1 && mallopt(M_TRIM_THRESHOLD, 1 << 30) == 1
    };
    if !ok {
        eprintln!(
            "warning: mallopt refused the thresholds; setup_s and peak_rss_mib may be bimodal"
        );
    }
}

#[cfg(not(target_env = "gnu"))]
fn pin_malloc_thresholds() {}

fn main() -> ExitCode {
    pin_malloc_thresholds();
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli(args: &[&str]) -> Result<Cli, String> {
        parse_cli(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_drivers_call() {
        let c = cli(&[
            "--workload",
            "sim_blast_small",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(c.workload.as_deref(), Some("sim_blast_small"));
        assert_eq!((c.seed, c.seconds, c.trace), (7, Some(10), true));
        assert!(!cli(&["--workload", "x", "--trace", "0"]).unwrap().trace);
    }

    #[test]
    fn bare_trace_flag_and_all() {
        let c = cli(&["--all", "--trace", "--quick"]).unwrap();
        assert!(c.all && c.trace && c.quick && !c.skip_probes);
        assert_eq!(c.seed, 1);
        assert!(
            cli(&["--workload", "x", "--skip-probes"])
                .unwrap()
                .skip_probes
        );
    }

    #[test]
    fn rejects_bad_arguments() {
        assert!(cli(&["--seed"]).is_err());
        assert!(cli(&["--seed", "x"]).is_err());
        assert!(cli(&["--seconds", "0"]).is_err());
        assert!(cli(&["--frobnicate"]).is_err());
        assert!(cli(&["--compare", "a"]).is_err());
    }
}
