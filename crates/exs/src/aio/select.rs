//! A deterministic two-way `select`.
//!
//! Polls the left future first on every wake, so ties resolve the same
//! way on every backend — byte determinism extends to control flow.
//! The losing future is dropped with the [`Select`], which runs its
//! cancellation path (clean for receives; clean-or-poison for sends,
//! per DESIGN.md §16).

use std::future::Future;
use std::pin::Pin;
use std::task::{Context, Poll};

/// The winner of a [`select`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Either<A, B> {
    /// The first future completed first.
    Left(A),
    /// The second future completed first.
    Right(B),
}

/// Races two futures; resolves with whichever completes first (left
/// wins ties).
pub fn select<A: Future, B: Future>(a: A, b: B) -> Select<A, B> {
    Select { a, b }
}

/// Future of [`select`].
pub struct Select<A, B> {
    a: A,
    b: B,
}

impl<A: Future, B: Future> Future for Select<A, B> {
    type Output = Either<A::Output, B::Output>;

    #[allow(unsafe_code)]
    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        // SAFETY: the projected fields are never moved out; both stay
        // pinned inside `Select` until drop.
        let this = unsafe { self.get_unchecked_mut() };
        let a = unsafe { Pin::new_unchecked(&mut this.a) };
        if let Poll::Ready(out) = a.poll(cx) {
            return Poll::Ready(Either::Left(out));
        }
        let b = unsafe { Pin::new_unchecked(&mut this.b) };
        if let Poll::Ready(out) = b.poll(cx) {
            return Poll::Ready(Either::Right(out));
        }
        Poll::Pending
    }
}
