//! Every table and figure of the paper's evaluation (§IV-B) and its
//! ablations, in README order: `blast::figures` runs each configuration
//! once and prints every table that reads it. `EXS_BENCH_QUICK=1` runs
//! 2 seeds of 60 messages per configuration instead of 5 of 300.

fn main() {
    blast::figures::print_all(exs_bench::quick());
}
