//! Timers and the `timeout` combinator.
//!
//! A timer is one entry in the executor's deadline heap. Under the
//! simulator the earliest deadline is re-armed as a `SimNet` timer
//! event, so sleeps advance simulated time deterministically; on the
//! thread backend the service loop parks no longer than the earliest
//! deadline. Cancellation is lazy: dropping a [`Sleep`] removes the
//! waker entry and the heap skips the corpse.

use std::cell::RefCell;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll};

use crate::error::ExsError;

use super::executor::Inner;
use super::handle::AioHandle;

/// Future of [`AioHandle::sleep`]: resolves after a span of executor
/// time.
pub struct Sleep {
    inner: Rc<RefCell<Inner>>,
    dur_nanos: u64,
    id: Option<u64>,
}

impl Sleep {
    pub(crate) fn new(inner: Rc<RefCell<Inner>>, dur_nanos: u64) -> Sleep {
        Sleep {
            inner,
            dur_nanos,
            id: None,
        }
    }
}

impl Future for Sleep {
    type Output = ();

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        let mut g = this.inner.borrow_mut();
        match this.id {
            None => {
                let deadline = g.now.saturating_add(this.dur_nanos);
                this.id = Some(g.arm_timer(deadline, cx.waker().clone()));
                Poll::Pending
            }
            Some(id) => match g.timer_entries.get_mut(&id) {
                Some(entry) if entry.fired => {
                    g.timer_entries.remove(&id);
                    this.id = None;
                    Poll::Ready(())
                }
                Some(entry) => {
                    entry.waker = Some(cx.waker().clone());
                    Poll::Pending
                }
                // Entry vanished (executor torn down): resolve rather
                // than hang.
                None => {
                    this.id = None;
                    Poll::Ready(())
                }
            },
        }
    }
}

impl Drop for Sleep {
    fn drop(&mut self) {
        if let Some(id) = self.id {
            self.inner.borrow_mut().cancel_timer(id);
        }
    }
}

/// Bounds `fut` by `dur` of executor time: `Ok(output)` if it
/// completes first, `Err(ExsError::TimedOut)` otherwise. On timeout
/// the inner future is dropped with the returned [`Timeout`], which
/// triggers its cancellation path — safe for every aio future (see
/// DESIGN.md §16).
pub fn timeout<F: Future>(handle: &AioHandle, dur: std::time::Duration, fut: F) -> Timeout<F> {
    Timeout {
        fut,
        sleep: handle.sleep(dur),
    }
}

/// Future of [`timeout`].
pub struct Timeout<F> {
    fut: F,
    sleep: Sleep,
}

impl<F: Future> Future for Timeout<F> {
    type Output = Result<F::Output, ExsError>;

    #[allow(unsafe_code)]
    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        // SAFETY: neither projected field is moved out of `this`; the
        // inner future stays pinned inside `Timeout` until drop.
        let this = unsafe { self.get_unchecked_mut() };
        let fut = unsafe { Pin::new_unchecked(&mut this.fut) };
        if let Poll::Ready(out) = fut.poll(cx) {
            return Poll::Ready(Ok(out));
        }
        if let Poll::Ready(()) = Pin::new(&mut this.sleep).poll(cx) {
            return Poll::Ready(Err(ExsError::TimedOut));
        }
        Poll::Pending
    }
}
