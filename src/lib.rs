//! # rdma-stream — stream semantics over (simulated) RDMA
//!
//! Facade crate for the reproduction of MacArthur & Russell, *An Efficient
//! Method for Stream Semantics over RDMA* (IEEE IPDPS 2014). It re-exports
//! the workspace crates so examples and downstream users need a single
//! dependency:
//!
//! * [`simnet`] — deterministic discrete-event network simulation engine.
//! * [`verbs`] (crate `rdma-verbs`) — simulated RDMA verbs substrate:
//!   memory regions, queue pairs, completion queues, SEND/RECV,
//!   RDMA WRITE (WITH IMM), RDMA READ, connection management, and the host
//!   CPU cost model.
//! * [`exs`] — the paper's contribution: a byte-stream protocol that
//!   dynamically switches between zero-copy *direct* transfers into
//!   advertised user buffers and buffered *indirect* transfers through a
//!   hidden circular intermediate buffer.
//! * [`blast`] — the measurement workload tool used throughout the paper's
//!   evaluation, with distributions, metrics and multi-seed statistics.
//!
//! See `README.md` for a quickstart and `DESIGN.md` for the architecture
//! and the per-figure experiment index.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use blast;
pub use exs;
pub use rdma_verbs as verbs;
pub use simnet;
