//! # exs — stream semantics over RDMA (UNH EXS reproduction)
//!
//! This crate reimplements the contribution of MacArthur & Russell,
//! *An Efficient Method for Stream Semantics over RDMA* (IEEE IPDPS
//! 2014): a byte-stream protocol over RDMA verbs that **dynamically
//! switches between zero-copy direct transfers and buffered indirect
//! transfers**, depending on whether the sender or the receiver is
//! currently ahead.
//!
//! * When the receiver is ahead, its `exs_recv()` buffers are advertised
//!   to the sender (ADVERT messages) and data moves by RDMA WRITE WITH
//!   IMM **directly into user memory** — true zero-copy.
//! * When the sender is ahead (no usable ADVERT), data moves into a
//!   hidden **circular intermediate buffer** at the receiver, which later
//!   copies it into user memory — lower send latency, higher receiver
//!   CPU.
//!
//! Consistency between the two modes on one connection is maintained by
//! stream **sequence numbers** and Lamport-style **phase numbers** (even
//! = direct, odd = indirect); the matching rules of paper Fig. 2–5 are
//! implemented in [`sender`] and [`receiver`] as sans-IO state machines,
//! and the paper's correctness lemmas are enforced as debug assertions
//! and re-proved as property tests.
//!
//! Layer map:
//!
//! | module | paper artifact |
//! |---|---|
//! | [`phase`], [`seq`] | phase numbers / sequence numbers (§III) |
//! | [`messages`] | ADVERT / ACK / CREDIT formats, WWI immediates |
//! | [`buffer`] | circular intermediate buffer (§III) |
//! | [`sender`] | Fig. 2 matching algorithm |
//! | [`receiver`] | Fig. 3–5 receiver algorithms |
//! | [`stream`] | SOCK_STREAM sockets over a verbs QP |
//! | [`mux`] | many streams multiplexed over a pooled QP set |
//! | [`mempool`] | pin-down cache / slab MR pools / buffer leases |
//! | [`endpoint`] | what a reactor hosts: one QP and stream 0, or a QP pool and many ids |
//! | [`reactor`] | epoll-style readiness multiplexing of many endpoints |
//! | [`shard`] | sharded reactor pool — scale service across cores |
//! | [`aio`] | async/await futures + deterministic executor over the reactor |
//! | [`error`] | typed peer-attributable failures |
//! | [`stats`] | Table III counters + event-loop aggregates |

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod aio;
pub mod buffer;
mod chan;
pub mod config;
pub mod endpoint;
pub mod error;
pub mod mempool;
pub mod messages;
pub mod mux;
pub mod phase;
pub mod port;
pub mod reactor;
pub mod receiver;
pub mod sender;
pub mod seq;
pub mod shard;
pub mod stats;
pub mod stream;
pub mod threaded;
mod txpipe;

pub use aio::{AioHandle, AsyncStream, Executor, SimShardDriver};
pub use config::{
    ConfigError, DirectPolicy, ExsConfig, MuxAssignment, MuxConfig, ProtocolMode, ShardConfig,
    ShardPolicy, WwiMode,
};
pub use endpoint::Endpoint;
pub use error::{ExsError, ProtocolError};
pub use mempool::{MemPool, MemPoolConfig, MrLease};
pub use messages::{Advert, Ctrl, CtrlMsg, MuxCtrlMsg, TransferKind};
pub use mux::{connect_mux_pair, MuxEndpoint, MuxEvent};
pub use phase::Phase;
pub use port::{CqPressure, VerbsPort};
pub use reactor::{ConnId, Reactor, ReactorConfig, Readiness};
pub use seq::Seq;
pub use shard::{Placement, ShardBalance};
pub use stats::{AioStats, ConnStats, PoolStats, ReactorStats, ShardStats};
pub use stream::{ExsEvent, StreamSocket};
pub use threaded::{ThreadPort, ThreadReactorPool, ThreadStream};
