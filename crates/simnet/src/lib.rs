//! # simnet — deterministic discrete-event network simulation
//!
//! This crate is the bottom substrate of the IPDPS 2014 stream-semantics
//! reproduction. It provides:
//!
//! * a virtual nanosecond clock ([`SimTime`], [`SimDuration`]),
//! * a deterministic event scheduler ([`Scheduler`]) with stable
//!   FIFO ordering for simultaneous events and cancellable timers,
//! * the two id → state tables the layers above share: [`Slab`]
//!   (the id *is* the index) and [`IntMap`] (caller-chosen
//!   integer ids, cheaply hashed),
//! * the one way the layers above declare counters: [`stats!`] (field,
//!   merge rule and ratio accessors from one table),
//! * a point-to-point link model ([`Link`]) with configurable
//!   bandwidth, propagation delay and jitter, preserving strict FIFO
//!   delivery (the ordering guarantee of an RDMA reliable-connected
//!   channel),
//! * a flow-level fair-sharing bandwidth model ([`fabric`]) where
//!   concurrent transfers split link capacity max-min fairly across a
//!   two-hop (NIC + oversubscribed core) topology, selected per fabric
//!   via [`fabric::FabricModel`],
//! * a small, fast, seedable RNG ([`Xoshiro256`], seeded through
//!   SplitMix64) so that every simulation run is reproducible from a
//!   single `u64` seed.
//!
//! A module or item is public when some file outside this crate names
//! it; everything else is private to the crate, and the types the
//! layers above use are re-exported here.
//!
//! The engine is intentionally single-threaded: determinism is what lets
//! the benchmark harnesses regenerate the paper's figures bit-for-bit
//! across runs. Thread-level concurrency is exercised by the separate
//! `ThreadNet` backend in the `rdma-verbs` crate, which shares the
//! protocol state machines but not this scheduler.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod event;
pub mod fabric;
mod intmap;
mod link;
mod rng;
mod slab;
pub mod stats;
mod time;

pub use event::{EventId, Scheduler};
pub use fabric::{FairShareConfig, FairShareFabric, Transfer};
pub use intmap::IntMap;
pub use link::{Link, LinkConfig};
pub use rng::Xoshiro256;
pub use slab::Slab;
pub use time::{SimDuration, SimTime};
