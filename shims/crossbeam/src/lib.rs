//! Minimal offline stand-in for `crossbeam`.
//!
//! This build environment has no registry access, so the workspace
//! vendors the subset it uses: `crossbeam::channel::{unbounded, Sender,
//! Receiver}`, backed by `std::sync::mpsc` (whose `Sender` has been
//! `Sync` since Rust 1.72).

#![warn(missing_docs)]

/// Multi-producer channels (the `crossbeam-channel` API subset).
pub mod channel {
    use std::sync::mpsc;

    /// Sending half of an unbounded channel.
    pub struct Sender<T> {
        inner: mpsc::Sender<T>,
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            Sender {
                inner: self.inner.clone(),
            }
        }
    }

    /// Error returned when the receiving half has been dropped.
    #[derive(Debug)]
    pub struct SendError<T>(pub T);

    impl<T> std::fmt::Display for SendError<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(f, "sending on a disconnected channel")
        }
    }

    impl<T> Sender<T> {
        /// Sends a value; fails only if the receiver is gone.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            self.inner
                .send(value)
                .map_err(|mpsc::SendError(v)| SendError(v))
        }
    }

    /// Receiving half of an unbounded channel.
    pub struct Receiver<T> {
        inner: mpsc::Receiver<T>,
    }

    /// Error returned when every sender has been dropped.
    #[derive(Debug)]
    pub struct RecvError;

    impl<T> Receiver<T> {
        /// Blocks until a value arrives or every sender is dropped.
        pub fn recv(&self) -> Result<T, RecvError> {
            self.inner.recv().map_err(|_| RecvError)
        }

        /// Returns immediately with a value if one is queued.
        pub fn try_recv(&self) -> Result<T, std::sync::mpsc::TryRecvError> {
            self.inner.try_recv()
        }
    }

    /// Creates an unbounded FIFO channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let (tx, rx) = mpsc::channel();
        (Sender { inner: tx }, Receiver { inner: rx })
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn fifo_roundtrip() {
            let (tx, rx) = unbounded();
            tx.send(1).unwrap();
            tx.clone().send(2).unwrap();
            assert_eq!(rx.recv().unwrap(), 1);
            assert_eq!(rx.recv().unwrap(), 2);
            drop(tx);
            assert!(rx.recv().is_err());
        }
    }
}
