//! Shared by the two bench targets in `benches/`: `figures` prints every
//! table of the paper's evaluation (§IV-B) and of the serving stack from
//! `blast::figures`; `thread_fan_in` runs two serving sweeps on real
//! threads.

/// Smoke-test mode (`EXS_BENCH_QUICK=1`): every target shrinks its
/// sweep, as CI runs them.
pub fn quick() -> bool {
    std::env::var("EXS_BENCH_QUICK")
        .map(|v| v == "1")
        .unwrap_or(false)
}
