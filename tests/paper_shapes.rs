//! Regression tests pinning the paper's qualitative results — the
//! "shape" of every figure. If a refactor or recalibration breaks who
//! wins, by what factor, or where a crossover falls, these fail.
//!
//! Each test builds its specs with the constructors the figure tables
//! use (`blast::figures`) at its own reduced seeds and message counts
//! (shapes are robust); `cargo bench -p exs-bench --bench figures`
//! prints the full sweeps.

use rdma_stream::blast::figures::{fixed_size_spec, ops_spec, pingpong_spec, wan_spec};
use rdma_stream::blast::{run_blast_seeds, run_pingpong, BlastSpec};
use rdma_stream::exs::ProtocolMode;
use rdma_stream::simnet::SimDuration;
use rdma_stream::verbs::{profiles, HwProfile};

fn fdr_spec(mode: ProtocolMode, sends: usize, recvs: usize) -> BlastSpec {
    ops_spec(profiles::fdr_infiniband(), mode, sends, recvs, 150)
}

fn mean_tput(spec: &BlastSpec, seeds: &[u64]) -> f64 {
    let reports = run_blast_seeds(spec, seeds);
    reports.iter().map(|r| r.throughput_bps()).sum::<f64>() / reports.len() as f64
}

fn mean_ratio(spec: &BlastSpec, seeds: &[u64]) -> f64 {
    let reports = run_blast_seeds(spec, seeds);
    reports.iter().map(|r| r.direct_ratio()).sum::<f64>() / reports.len() as f64
}

fn mean_cpu_recv(spec: &BlastSpec, seeds: &[u64]) -> f64 {
    let reports = run_blast_seeds(spec, seeds);
    reports.iter().map(|r| r.cpu_receiver).sum::<f64>() / reports.len() as f64
}

fn mean_cpu_send(spec: &BlastSpec, seeds: &[u64]) -> f64 {
    let reports = run_blast_seeds(spec, seeds);
    reports.iter().map(|r| r.cpu_sender).sum::<f64>() / reports.len() as f64
}

/// Mean round-trip time in µs of 200 ping-pongs of `size` bytes.
fn mean_rtt(profile: &HwProfile, mode: ProtocolMode, size: u32, seeds: &[u64]) -> f64 {
    let mut spec = pingpong_spec(profile.clone(), mode, size, 200);
    let rtts = seeds.iter().map(|&seed| {
        spec.seed = seed;
        run_pingpong(&spec).mean_us()
    });
    rtts.sum::<f64>() / seeds.len() as f64
}

const SEEDS: [u64; 3] = [101, 102, 103];

/// Fig. 9a: equal outstanding ops — direct ≫ indirect; dynamic tracks
/// indirect. Paper bands: direct 35–44 Gbit/s, indirect 20–27 Gbit/s.
#[test]
fn fig9a_equal_ops_shape() {
    let direct = mean_tput(&fdr_spec(ProtocolMode::DirectOnly, 8, 8), &SEEDS);
    let indirect = mean_tput(&fdr_spec(ProtocolMode::IndirectOnly, 8, 8), &SEEDS);
    let dynamic = mean_tput(&fdr_spec(ProtocolMode::Dynamic, 8, 8), &SEEDS);

    assert!(
        (35e9..46e9).contains(&direct),
        "direct {direct:.3e} outside the paper band"
    );
    assert!(
        (20e9..29e9).contains(&indirect),
        "indirect {indirect:.3e} outside the paper band"
    );
    assert!(
        direct > indirect * 1.4,
        "direct should beat indirect by a wide margin on FDR"
    );
    assert!(
        (dynamic - indirect).abs() / indirect < 0.15,
        "dynamic ({dynamic:.3e}) should track indirect ({indirect:.3e}) at equal ops"
    );
}

/// Fig. 9b: receiver has 2× the sender's ops — dynamic tracks direct.
#[test]
fn fig9b_double_recvs_shape() {
    let direct = mean_tput(&fdr_spec(ProtocolMode::DirectOnly, 8, 16), &SEEDS);
    let dynamic = mean_tput(&fdr_spec(ProtocolMode::Dynamic, 8, 16), &SEEDS);
    assert!(
        (dynamic - direct).abs() / direct < 0.05,
        "dynamic ({dynamic:.3e}) should track direct ({direct:.3e}) with 2x receives"
    );
}

/// Fig. 10: receiver CPU — indirect near 100%, direct far lower, dynamic
/// tracks its chosen mode.
#[test]
fn fig10_cpu_shape() {
    let direct = mean_cpu_recv(&fdr_spec(ProtocolMode::DirectOnly, 8, 8), &SEEDS);
    let indirect = mean_cpu_recv(&fdr_spec(ProtocolMode::IndirectOnly, 8, 8), &SEEDS);
    let dyn_eq = mean_cpu_recv(&fdr_spec(ProtocolMode::Dynamic, 8, 8), &SEEDS);
    let dyn_2x = mean_cpu_recv(&fdr_spec(ProtocolMode::Dynamic, 8, 16), &SEEDS);

    assert!(
        indirect > 0.9,
        "indirect receiver CPU {indirect} should near 100%"
    );
    assert!(direct < 0.2, "direct receiver CPU {direct} should stay low");
    assert!(
        dyn_eq > 0.7,
        "dynamic(equal) tracks indirect CPU, got {dyn_eq}"
    );
    assert!(dyn_2x < 0.2, "dynamic(2x) tracks direct CPU, got {dyn_2x}");
}

/// Table III: equal ops → ~1 mode switch, direct ratio < 0.1 for ≥ 4
/// ops; 2× receives → 0 switches, ratio 1.0 (allowing for the paper's
/// own race-sensitive anomalies at some op counts).
#[test]
fn table3_shape() {
    let reports = run_blast_seeds(&fdr_spec(ProtocolMode::Dynamic, 8, 8), &SEEDS);
    for r in &reports {
        assert!(r.mode_switches >= 1, "equal ops must fall out of direct");
        assert!(
            r.direct_ratio() < 0.1,
            "equal ops ratio {} too high",
            r.direct_ratio()
        );
    }
    let ratio_2x = mean_ratio(&fdr_spec(ProtocolMode::Dynamic, 8, 16), &SEEDS);
    assert!(
        ratio_2x > 0.9,
        "2x receives should be ~all direct, got {ratio_2x}"
    );
}

/// Fig. 12b: the direct ratio crosses to 1.0 at ≥ 512 KiB messages
/// (recvs = 4, sends = 2) and is far below 1 for small messages.
#[test]
fn fig12_crossover_shape() {
    let spec = |size: u64| fixed_size_spec(size, 2, 4, 150);
    let small = mean_ratio(&spec(8 << 10), &SEEDS);
    let large = mean_ratio(&spec(512 << 10), &SEEDS);
    let huge = mean_ratio(&spec(2 << 20), &SEEDS);
    assert!(small < 0.5, "8 KiB ratio {small} should be well below 1");
    assert!(
        large > 0.95,
        "512 KiB ratio {large} should be ~1 (paper crossover)"
    );
    assert!(huge > 0.95, "2 MiB ratio {huge} should be ~1");
}

/// Fig. 13: over a 48 ms RTT the three protocols are within a few
/// percent, and throughput scales with outstanding ops.
#[test]
fn fig13_distance_shape() {
    let spec = |mode: ProtocolMode, ops: usize| wan_spec(mode, ops, SimDuration::ZERO, 60);
    let seeds = [7u64];
    let d4 = mean_tput(&spec(ProtocolMode::DirectOnly, 4), &seeds);
    let i4 = mean_tput(&spec(ProtocolMode::IndirectOnly, 4), &seeds);
    let y4 = mean_tput(&spec(ProtocolMode::Dynamic, 4), &seeds);
    assert!(
        (d4 - i4).abs() / d4 < 0.1,
        "protocols should be similar over distance"
    );
    assert!((y4 - i4).abs() / i4 < 0.1);

    let y16 = mean_tput(&spec(ProtocolMode::Dynamic, 16), &seeds);
    assert!(
        y16 > y4 * 2.5,
        "throughput must scale with outstanding ops over distance ({y4:.3e} -> {y16:.3e})"
    );
}

/// QDR ablation: the direct-vs-indirect gap shrinks dramatically
/// compared to FDR (paper §IV-B1 remark).
#[test]
fn qdr_gap_shrinks() {
    let gap = |profile: HwProfile| {
        let spec = |mode| ops_spec(profile.clone(), mode, 8, 8, 100);
        let d = mean_tput(&spec(ProtocolMode::DirectOnly), &SEEDS);
        let i = mean_tput(&spec(ProtocolMode::IndirectOnly), &SEEDS);
        (d - i) / d
    };
    let fdr_gap = gap(profiles::fdr_infiniband());
    let qdr_gap = gap(profiles::qdr_infiniband());
    assert!(
        qdr_gap < fdr_gap * 0.5,
        "QDR gap {qdr_gap:.2} should be far below FDR gap {fdr_gap:.2}"
    );
}

/// Fig. 11: with 32 receives outstanding, 1 MiB messages stay direct
/// while the sender has fewer operations outstanding, and once it has as
/// many (sends = 32, no standing pool of ADVERTs) every size falls to the
/// indirect level — within Fig. 9a's 15 % band of indirect-only.
#[test]
fn fig11_outstanding_sends_shape() {
    for sends in [1, 2, 4, 8, 16] {
        let ratio = mean_ratio(&fixed_size_spec(1 << 20, sends, 32, 150), &SEEDS);
        assert!(ratio >= 0.99, "1 MiB, {sends} sends: direct ratio {ratio}");
    }
    for size in [512, 8 << 10, 128 << 10, 1 << 20] {
        let dynamic = fixed_size_spec(size, 32, 32, 150);
        let mut indirect = dynamic.clone();
        indirect.cfg.mode = ProtocolMode::IndirectOnly;
        let (d, i) = (mean_tput(&dynamic, &SEEDS), mean_tput(&indirect, &SEEDS));
        assert!(
            (d - i).abs() / i < 0.15,
            "{size} B, 32 sends: dynamic ({d:.3e}) should sit at indirect-only ({i:.3e})"
        );
    }
}

/// rsockets ablation (paper §II-A): BCopy's send-side copy costs far
/// more sender CPU than indirect-only and gains no throughput.
#[test]
fn rsockets_bcopy_shape() {
    for (sends, recvs) in [(2, 4), (8, 16)] {
        let bcopy = fdr_spec(ProtocolMode::BCopy, sends, recvs);
        let indirect = fdr_spec(ProtocolMode::IndirectOnly, sends, recvs);
        let (b_cpu, i_cpu) = (
            mean_cpu_send(&bcopy, &SEEDS),
            mean_cpu_send(&indirect, &SEEDS),
        );
        assert!(
            b_cpu > 10.0 * i_cpu,
            "({sends}, {recvs}): bcopy sender CPU {b_cpu} vs indirect {i_cpu}"
        );
        let (b, i) = (mean_tput(&bcopy, &SEEDS), mean_tput(&indirect, &SEEDS));
        assert!(
            b <= i,
            "({sends}, {recvs}): bcopy {b:.3e} above indirect {i:.3e}"
        );
    }
}

/// Latency ablation: the indirect path pays the receiver copy on both
/// hops at every size, and busy polling halves a small message's round
/// trip (the wake-up latency is most of it). That the saving is < 1 % at
/// 1 MiB holds in the full figure table but not at this budget
/// (EXPERIMENTS.md, "One figure table"), so it is not asserted.
#[test]
fn latency_shape() {
    let fdr = profiles::fdr_infiniband();
    for size in [64, 4 << 10, 64 << 10, 1 << 20] {
        let direct = mean_rtt(&fdr, ProtocolMode::DirectOnly, size, &SEEDS);
        let indirect = mean_rtt(&fdr, ProtocolMode::IndirectOnly, size, &SEEDS);
        assert!(
            indirect > direct,
            "{size} B: indirect {indirect} us, direct {direct} us"
        );
    }
    let event = mean_rtt(&fdr, ProtocolMode::Dynamic, 64, &SEEDS);
    let busy = mean_rtt(
        &profiles::fdr_infiniband_busy_poll(),
        ProtocolMode::Dynamic,
        64,
        &SEEDS,
    );
    assert!(
        event - busy > 0.4 * event,
        "64 B: busy polling {busy} us vs event notification {event} us"
    );
}
