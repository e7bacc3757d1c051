//! # aio — async/await front-end over the reactor
//!
//! The EXS API underneath is callback/poll-shaped; production Rust
//! consumes streams as futures. This module is the bridge: a small
//! deterministic single-threaded [`Executor`] owns a
//! [`crate::Reactor`] and drives tasks whose leaf futures are stream
//! operations ([`AsyncStream::send_all`], [`AsyncStream::recv_exact`],
//! [`AsyncStream::recv_some`], [`AsyncStream::shutdown`]). There are no timers: a task waits only
//! on its streams.
//!
//! Three design rules, detailed in DESIGN.md §16:
//!
//! 1. **Futures never touch the verbs port.** They enqueue operations
//!    and park with their task's waker; `Executor::turn` — the only
//!    code holding a [`crate::VerbsPort`] — applies operations, polls
//!    the reactor, routes completions back to per-channel state, and
//!    polls woken tasks. One turn is a pure function of (state, port),
//!    so the same application code is byte- and schedule-deterministic
//!    under the simulator ([`SimShardDriver`] turns on every node wake)
//!    and a parking poll loop on the thread backend
//!    ([`Executor::run_threaded`]).
//! 2. **Readahead keeps zero-copy alive.** Each wrapped stream keeps a
//!    FIFO of chunk-sized receives posted (depth ≥ 2), so the paper's
//!    Fig. 3 advert gate stays open under async consumption and
//!    delivery stays direct; completed bytes land in a per-channel
//!    buffer that `recv_exact`/`recv_some` claim in order.
//! 3. **Cancellation is drop-safe.** Dropping a pending receive is
//!    free (bytes stay buffered). Dropping a pending send unwinds
//!    cleanly while un-committed; once bytes entered the stream the
//!    message still completes whole on the wire — a WWI is never torn
//!    mid-frame — and the sending direction is poisoned with
//!    [`crate::ExsError::Cancelled`], because delivery became
//!    ambiguous to the canceller. Delivered bytes are therefore always
//!    an exact prefix of the sent stream, on a message boundary.

mod executor;
mod handle;

pub use executor::{Executor, SimShardDriver};
pub use handle::{AioHandle, AsyncStream, Ctl, Recv, SendAll};
