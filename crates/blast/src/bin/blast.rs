//! Command-line blast tool.
//!
//! Mirrors the paper's measurement tool: run a client→server blast over
//! a chosen hardware profile and protocol mode, print throughput
//! (Eq. 1), time per message, CPU usage on both sides, and the
//! direct/indirect statistics.
//!
//! ```text
//! cargo run --release -p blast -- \
//!     --profile fdr --mode dynamic --sends 4 --recvs 8 \
//!     --messages 400 --runs 3
//! ```

use blast::{run_blast_seeds, BlastSpec, SizeDist, Summary, VerifyLevel};
use exs::{ExsConfig, ProtocolMode, WwiMode};
use rdma_verbs::profiles;
use simnet::SimDuration;

fn usage() -> ! {
    eprintln!(
        "usage: blast [--profile fdr|qdr|roce-wan|iwarp|busy-poll|ideal]\n\
         \x20            [--mode dynamic|direct|indirect|bcopy] [--wwi native|emulated]\n\
         \x20            [--sends N] [--recvs N] [--messages N] [--runs N] [--seed N]\n\
         \x20            [--size exp|fixed:BYTES|uniform:LO:HI|bursty:LARGE:SMALL:LEN]\n\
         \x20            [--ring BYTES] [--credits N] [--waitall] [--verify]\n\
         \n\
         --verify  fill every byte with the position pattern, read back, check and\n\
         \x20         digest every delivered byte; without it no payload is generated,\n\
         \x20         read back or digested and delivery is checked by byte count"
    );
    std::process::exit(2)
}

fn parse_size(s: &str) -> SizeDist {
    if s == "exp" {
        return SizeDist::paper_default();
    }
    let parts: Vec<&str> = s.split(':').collect();
    match parts.as_slice() {
        ["fixed", n] => SizeDist::Fixed(n.parse().unwrap_or_else(|_| usage())),
        ["uniform", lo, hi] => SizeDist::Uniform {
            lo: lo.parse().unwrap_or_else(|_| usage()),
            hi: hi.parse().unwrap_or_else(|_| usage()),
        },
        ["bursty", large, small, len] => SizeDist::Bursty {
            large: large.parse().unwrap_or_else(|_| usage()),
            small: small.parse().unwrap_or_else(|_| usage()),
            burst_len: len.parse().unwrap_or_else(|_| usage()),
        },
        _ => usage(),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut profile = profiles::fdr_infiniband();
    let mut mode = ProtocolMode::Dynamic;
    let mut sends = 4usize;
    let mut recvs = 4usize;
    let mut messages = 400usize;
    let mut runs = 3usize;
    let mut seed = 1u64;
    let mut sizes = SizeDist::paper_default();
    let mut ring = 0u64;
    let mut credits = 0u32;
    let mut waitall = false;
    let mut verify = VerifyLevel::None;
    let mut wwi = WwiMode::Native;

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut val = || it.next().map(|s| s.as_str()).unwrap_or_else(|| usage());
        match arg.as_str() {
            "--profile" => {
                profile = match val() {
                    "fdr" => profiles::fdr_infiniband(),
                    "qdr" => profiles::qdr_infiniband(),
                    "roce-wan" => profiles::roce_10g_wan(),
                    "iwarp" => profiles::iwarp_10g(),
                    "busy-poll" => profiles::fdr_infiniband_busy_poll(),
                    "ideal" => profiles::ideal(),
                    _ => usage(),
                }
            }
            "--mode" => {
                mode = match val() {
                    "dynamic" => ProtocolMode::Dynamic,
                    "direct" => ProtocolMode::DirectOnly,
                    "indirect" => ProtocolMode::IndirectOnly,
                    "bcopy" => ProtocolMode::BCopy,
                    _ => usage(),
                }
            }
            "--wwi" => {
                wwi = match val() {
                    "native" => WwiMode::Native,
                    "emulated" => WwiMode::WritePlusSend,
                    _ => usage(),
                }
            }
            "--sends" => sends = val().parse().unwrap_or_else(|_| usage()),
            "--recvs" => recvs = val().parse().unwrap_or_else(|_| usage()),
            "--messages" => messages = val().parse().unwrap_or_else(|_| usage()),
            "--runs" => runs = val().parse().unwrap_or_else(|_| usage()),
            "--seed" => seed = val().parse().unwrap_or_else(|_| usage()),
            "--size" => sizes = parse_size(val()),
            "--ring" => ring = val().parse().unwrap_or_else(|_| usage()),
            "--credits" => credits = val().parse().unwrap_or_else(|_| usage()),
            "--waitall" => waitall = true,
            "--verify" => verify = VerifyLevel::Full,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown argument: {other}");
                usage()
            }
        }
    }

    let mut cfg = ExsConfig::with_mode(mode);
    cfg.wwi_mode = wwi;
    if ring != 0 {
        cfg.ring_capacity = ring;
    }
    if credits != 0 {
        cfg.credits = credits;
    }
    let spec = BlastSpec {
        cfg,
        outstanding_sends: sends,
        outstanding_recvs: recvs,
        sizes,
        messages,
        waitall,
        verify,
        seed,
        time_limit: SimDuration::from_secs(3600),
        ..BlastSpec::new(profile.clone())
    };

    let seeds: Vec<u64> = (0..runs as u64).map(|i| seed + i).collect();
    let reports = run_blast_seeds(&spec, &seeds);

    println!(
        "profile={} mode={} sends={} recvs={} messages={} runs={}",
        profile.name,
        spec.cfg.mode.label(),
        sends,
        recvs,
        messages,
        runs
    );
    let tput = Summary::of(
        &reports
            .iter()
            .map(|r| r.throughput_mbps())
            .collect::<Vec<_>>(),
    );
    let tpm = Summary::of(
        &reports
            .iter()
            .map(|r| r.time_per_message_us())
            .collect::<Vec<_>>(),
    );
    let cpu_s = Summary::of(
        &reports
            .iter()
            .map(|r| r.cpu_sender * 100.0)
            .collect::<Vec<_>>(),
    );
    let cpu_r = Summary::of(
        &reports
            .iter()
            .map(|r| r.cpu_receiver * 100.0)
            .collect::<Vec<_>>(),
    );
    let ratio = Summary::of(&reports.iter().map(|r| r.direct_ratio()).collect::<Vec<_>>());
    let switches = Summary::of(
        &reports
            .iter()
            .map(|r| r.mode_switches as f64)
            .collect::<Vec<_>>(),
    );
    println!("throughput        {tput} Mbit/s");
    println!("time/message      {tpm} us");
    println!("cpu sender        {cpu_s} %");
    println!("cpu receiver      {cpu_r} %");
    println!("direct ratio      {ratio}");
    println!("mode switches     {switches}");
    for r in &reports {
        println!(
            "  run: {:9.1} Mbit/s  direct={} indirect={} switches={} discarded={} cpuR={:4.1}%",
            r.throughput_mbps(),
            r.direct_transfers,
            r.indirect_transfers,
            r.mode_switches,
            r.adverts_discarded,
            r.cpu_receiver * 100.0,
        );
    }
}
