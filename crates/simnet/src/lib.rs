//! # simnet — deterministic discrete-event network simulation
//!
//! This crate is the bottom substrate of the IPDPS 2014 stream-semantics
//! reproduction. It provides:
//!
//! * a virtual nanosecond clock ([`SimTime`], [`SimDuration`]),
//! * a deterministic event scheduler ([`event::Scheduler`]) with stable
//!   FIFO ordering for simultaneous events and cancellable timers,
//! * the two id → state tables the layers above share: [`slab::Slab`]
//!   (the id *is* the index) and [`intmap::IntMap`] (caller-chosen
//!   integer ids, cheaply hashed),
//! * the one way the layers above declare counters: [`stats!`] (field,
//!   merge rule and ratio accessors from one table),
//! * a point-to-point link model ([`link::Link`]) with configurable
//!   bandwidth, propagation delay and jitter, preserving strict FIFO
//!   delivery (the ordering guarantee of an RDMA reliable-connected
//!   channel),
//! * a flow-level fair-sharing bandwidth model ([`fabric`]) where
//!   concurrent transfers split link capacity max-min fairly across a
//!   two-hop (NIC + oversubscribed core) topology, selected per fabric
//!   via [`fabric::FabricModel`],
//! * a small, fast, seedable RNG ([`rng::SplitMix64`] and
//!   [`rng::Xoshiro256`]) so that every simulation run is reproducible
//!   from a single `u64` seed.
//!
//! The engine is intentionally single-threaded: determinism is what lets
//! the benchmark harnesses regenerate the paper's figures bit-for-bit
//! across runs. Thread-level concurrency is exercised by the separate
//! `ThreadNet` backend in the `rdma-verbs` crate, which shares the
//! protocol state machines but not this scheduler.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod event;
pub mod fabric;
pub mod intmap;
pub mod link;
pub mod rng;
pub mod slab;
pub mod stats;
pub mod time;

pub use event::{EventId, Scheduler};
pub use fabric::{FabricModel, FabricStats, FairShareConfig, FairShareFabric, FlowStats, Transfer};
pub use intmap::IntMap;
pub use link::{Link, LinkConfig};
pub use rng::{SplitMix64, Xoshiro256};
pub use slab::Slab;
pub use time::{SimDuration, SimTime};
