//! # rdma-verbs — a simulated RDMA verbs substrate
//!
//! The IPDPS 2014 stream-semantics paper was evaluated on real FDR
//! InfiniBand and 10 G RoCE hardware. This crate replaces that hardware
//! with a verbs-level simulator faithful to the semantics the protocol
//! layer can observe:
//!
//! * **Memory registration** ([`mr`]) — regions with lkey/rkey, bounds
//!   and access-flag validation on every DMA.
//! * **Queue pairs** ([`qp`]) — reliable-connected semantics: in-order
//!   delivery, posted-receive matching, RESET→INIT→RTR→RTS lifecycle.
//! * **Completion queues** ([`cq`]) — polling plus event notification
//!   with verbs arm/notify rules.
//! * **Transfer operations** ([`hca`]) — SEND/RECV, RDMA WRITE,
//!   RDMA WRITE WITH IMM (the paper's "WWI"), RDMA READ, and inline
//!   sends.
//! * **Timing** ([`sim`]) — a deterministic discrete-event driver with
//!   per-WQE HCA latency, link serialization/propagation/jitter, and a
//!   single-core host CPU model ([`host`]) that prices memory copies,
//!   verbs posts and completion handling.
//! * **Profiles** ([`profiles`]) — calibrated parameter sets for the
//!   paper's FDR InfiniBand and Anue-emulated 10 G RoCE testbeds.
//! * **Threads** ([`threaded`]) — a real-thread driver over the same
//!   HCA core, used to exercise the protocol's thread safety under
//!   genuine concurrency.
//!
//! The crate's API deliberately mirrors the OFA verbs library (post_send
//! / post_recv / poll_cq, work requests with SGEs, work completions), so
//! the EXS layer above is a faithful port of what runs on real hardware.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cm;
pub mod cq;
pub mod hca;
pub mod host;
pub mod mr;
pub mod profiles;
pub mod qp;
pub mod sim;
pub mod threaded;
pub mod types;
pub mod wire;

pub use cm::{connect_pair, connect_pair_on_cqs, connect_pool, ConnHalf};
pub use cq::CompletionQueue;
pub use hca::{Effect, HcaConfig, HcaCore, PreparedSend};
pub use host::{CpuMeter, HostModel};
pub use mr::{DmaSource, MemoryTable, MrInfo};
pub use profiles::HwProfile;
pub use qp::{QpCaps, QpState, QueuePair};
pub use sim::{Losses, NodeApi, NodeApp, RunOutcome, SimNet};
pub use simnet::fabric::{FabricModel, FabricStats, FairShareConfig, FlowStats};
pub use threaded::{ThreadNet, ThreadNode};
pub use types::{
    Access, CqId, Cqe, MrKey, NodeId, QpNum, RecvWr, RemoteAddr, Result, SendOpcode, SendWr, Sge,
    VerbsError, WcOpcode, WcStatus, WrId,
};
pub use wire::{WireMessage, WireOp};
