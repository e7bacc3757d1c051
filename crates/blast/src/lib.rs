//! # blast — the paper's measurement workload
//!
//! "This study uses a blast tool, written to utilize UNH EXS, which
//! sends messages as quickly as possible from the client to the server.
//! This is meant to model the traffic generated by a large file
//! transfer. The tool outputs the average throughput, time per message,
//! and CPU usage on each side." (paper §IV-B)
//!
//! This crate reproduces that tool against the simulated fabric:
//!
//! * [`distribution`] — message-size laws (the paper's truncated
//!   exponential, fixed sizes for the sweeps, bursty for the future-work
//!   ablation);
//! * [`runner`] — the client/server blast applications and
//!   [`runner::run_blast`], which executes one configuration and
//!   returns a [`metrics::BlastReport`];
//! * [`metrics`] — throughput per the paper's Eq. 1, per-message time,
//!   CPU usage, direct-transfer ratios, and mean ± 95% CI aggregation
//!   over repeated seeds;
//! * [`fan_in`] — the server-scalability workload: M client streams
//!   into one node multiplexed by a single `exs` reactor, on either
//!   backend, reporting its counters as typed fields;
//! * [`figures`] — the paper's evaluation and the serving stack's
//!   measurements as data: every figure, table and ablation is a view
//!   over sweeps that run each configuration once.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod distribution;
pub mod fan_in;
pub mod figures;
pub mod latency;
pub mod metrics;
pub mod runner;

pub use distribution::SizeDist;
pub use fan_in::{run_fan_in, run_fan_in_threaded, FanInReport, FanInSpec};
pub use latency::{run_pingpong, PingPongReport, PingPongSpec};
pub use metrics::{BlastReport, Summary};
pub use runner::{run_blast, run_blast_seeds, BlastSpec, VerifyLevel};
