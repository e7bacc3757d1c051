//! Where `threaded` takes its locks, condition variables, atomics, clock
//! and spin hint from: in a shipping build, `parking_lot` and `std`
//! themselves (checked below); in a test build, stand-ins of the same
//! names that defer to a controlled scheduler inside a controlled run.

#[cfg(not(test))]
pub(crate) use {
    parking_lot::{Condvar, Mutex},
    std::{
        hint::spin_loop,
        sync::atomic::{AtomicBool, AtomicU64, AtomicUsize},
        time::Instant,
    },
};

/// Each name is the item itself: an identity function between two types
/// compiles only if they are one (`spin_loop`: its signature).
#[cfg(not(test))]
const _: () = {
    let _: fn(parking_lot::Mutex<()>) -> Mutex<()> = |x| x;
    let _: fn(parking_lot::Condvar) -> Condvar = |x| x;
    let _: fn(std::sync::atomic::AtomicBool) -> AtomicBool = |x| x;
    let _: fn(std::sync::atomic::AtomicU64) -> AtomicU64 = |x| x;
    let _: fn(std::sync::atomic::AtomicUsize) -> AtomicUsize = |x| x;
    let _: fn(std::time::Instant) -> Instant = |x| x;
    let _: fn() = spin_loop;
};

#[cfg(test)]
mod controlled;
#[cfg(test)]
pub(crate) use controlled::*;
