//! The serving tables' two thread-backend sweeps: the reactor-shard
//! points (one executor thread per shard and per client node) and the
//! largest async-task point (one server executor thread), each the spec
//! `figures` prints, served by executors on real threads and
//! digest-checked. Wall-clock Mbit/s: a measurement of the
//! host, with no golden and no timing gate. `EXS_BENCH_QUICK=1` runs
//! 512 connections and 1 000 tasks instead of 2 048 and 10 000.

fn main() {
    blast::figures::print_thread_fan_ins(exs_bench::quick());
}
