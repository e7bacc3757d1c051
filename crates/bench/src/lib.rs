//! Shared by the bench targets in `benches/`: `figures` prints every
//! table and figure of the paper's evaluation (§IV-B) from
//! `blast::figures`; the others measure the serving stack and write
//! JSON snapshots into `bench-results/`.

/// Smoke-test mode (`EXS_BENCH_QUICK=1`): every target shrinks its
/// sweep, as CI runs them.
pub fn quick() -> bool {
    std::env::var("EXS_BENCH_QUICK")
        .map(|v| v == "1")
        .unwrap_or(false)
}
