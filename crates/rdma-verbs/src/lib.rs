//! # rdma-verbs — a simulated RDMA verbs substrate
//!
//! The IPDPS 2014 stream-semantics paper was evaluated on real FDR
//! InfiniBand and 10 G RoCE hardware. This crate replaces that hardware
//! with a verbs-level simulator faithful to the semantics the protocol
//! layer can observe:
//!
//! * **Memory registration** ([`MemoryTable`]) — regions with lkey/rkey,
//!   bounds and access-flag validation on every DMA.
//! * **Queue pairs** ([`QpCaps`], [`connect_pair`]) — reliable-connected
//!   semantics: in-order delivery, posted-receive matching,
//!   RESET→INIT→RTR→RTS lifecycle.
//! * **Completion queues** ([`Cqe`]) — buffered work completions,
//!   drained by polling on each wake.
//! * **Transfer operations** ([`HcaCore`]) — SEND/RECV, RDMA WRITE and
//!   RDMA WRITE WITH IMM (the paper's "WWI"), from registered memory or
//!   inline. Every message on the wire is a work request an application
//!   posted, and it frees its send-queue slot once delivered: the HCA
//!   originates no traffic of its own, so there is no RDMA READ (the
//!   paper's protocol uses SEND and WWI only).
//! * **Timing** ([`SimNet`]) — a deterministic discrete-event driver with
//!   per-WQE HCA latency, link serialization/propagation/jitter, and a
//!   single-core host CPU model ([`HostModel`]) that prices memory
//!   copies, verbs posts and completion handling.
//! * **Profiles** ([`profiles`]) — calibrated parameter sets for the
//!   paper's FDR InfiniBand and Anue-emulated 10 G RoCE testbeds.
//! * **Threads** ([`threaded`]) — a real-thread driver over the same
//!   HCA core, used to exercise the protocol's thread safety under
//!   genuine concurrency.
//!
//! The crate's API deliberately mirrors the OFA verbs library (post_send
//! / post_recv / poll_cq, work requests with SGEs, work completions), so
//! the EXS layer above is a faithful port of what runs on real hardware.
//! It keeps public only what other crates name: `profiles` and
//! `threaded` are the public modules, and everything else is reached
//! through the re-exports below.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod cm;
mod cq;
mod hca;
mod host;
mod mr;
pub mod profiles;
mod qp;
mod sim;
mod sync;
pub mod threaded;
mod types;
mod wire;

pub use cm::{connect_pair, connect_pair_on_cqs, connect_pool, ConnHalf};
pub use hca::{HcaConfig, HcaCore};
pub use host::HostModel;
pub use mr::{DmaSource, MemoryTable, MrInfo};
pub use profiles::HwProfile;
pub use qp::QpCaps;
pub use sim::{NodeApi, NodeApp, SimNet};
pub use simnet::fabric::{FabricModel, FabricStats, FairShareConfig};
pub use threaded::{ThreadNet, ThreadNode};
pub use types::{
    Access, CqId, Cqe, MrKey, NodeId, QpNum, RecvWr, RemoteAddr, Result, SendWr, Sge, VerbsError,
    WcOpcode, WcStatus,
};
