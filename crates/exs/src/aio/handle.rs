//! Handles and stream futures: the application-facing face of aio.
//!
//! An [`AioHandle`] is a cheap clone of the executor's shared state;
//! it spawns tasks and wraps the streams of hosted endpoints into
//! [`AsyncStream`]s whose methods return futures. The futures follow
//! one protocol: first poll enqueues an operation and parks with the
//! task's waker; completion routing (executor turn) wakes the task;
//! the next poll observes the stored result. Dropping a pending future
//! cancels the operation under the §16 safety rules — receives unwind
//! for free, sends either unwind cleanly or poison the stream.

use std::cell::RefCell;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::sync::Arc;
use std::task::{Context, Poll};

use crate::error::ExsError;
use crate::reactor::ConnId;

use super::executor::{
    Action, Chan, ChanKey, CtlOp, Inner, ReadyQueue, RecvMode, RecvWaiter, SendOp,
};

/// A cloneable handle onto one [`super::Executor`]: spawn tasks and wrap
/// connections.
#[derive(Clone)]
pub struct AioHandle {
    inner: Rc<RefCell<Inner>>,
    ready: Arc<ReadyQueue>,
}

impl AioHandle {
    pub(crate) fn new(inner: Rc<RefCell<Inner>>, ready: Arc<ReadyQueue>) -> AioHandle {
        AioHandle { inner, ready }
    }

    /// Spawns a task onto the executor. It is first polled on the next
    /// turn; results leave through state the future captures.
    pub fn spawn(&self, fut: impl Future<Output = ()> + 'static) {
        let id = self.inner.borrow_mut().spawn_task(Box::pin(fut));
        self.ready.push_spawn(id);
    }

    /// Wraps a hosted socket's stream (id 0), keeping `depth` receives
    /// of `chunk` bytes posted. Depth ≥ 2 keeps the advert gate open
    /// (zero-copy delivery); chunk bounds each `recv` completion's size.
    pub fn stream_with(&self, conn: ConnId, chunk: u32, depth: usize) -> AsyncStream {
        self.stream_of(conn, 0, chunk, depth)
    }

    /// Wraps stream `stream` of a hosted endpoint — the general form of
    /// [`AioHandle::stream_with`]. The id must already be open on the
    /// endpoint.
    pub fn stream_of(&self, conn: ConnId, stream: u32, chunk: u32, depth: usize) -> AsyncStream {
        let key = (conn, stream);
        self.inner.borrow_mut().ensure_chan(key, chunk, depth);
        AsyncStream {
            inner: self.inner.clone(),
            key,
        }
    }
}

/// An async byte-stream over one stream of a hosted endpoint. Clones
/// share the underlying channel state.
#[derive(Clone)]
pub struct AsyncStream {
    inner: Rc<RefCell<Inner>>,
    key: ChanKey,
}

impl AsyncStream {
    /// Sends all of `data` as one EXS message. Resolves when every
    /// byte left the user buffer (EXS send-complete semantics).
    /// Dropping the pending future cancels under the §16 rules.
    pub fn send_all(&self, data: Vec<u8>) -> SendAll {
        SendAll {
            inner: self.inner.clone(),
            key: self.key,
            data: Some(data),
            op: None,
        }
    }

    /// Receives exactly `n` bytes (MSG_WAITALL shape). Resolves with
    /// the bytes, or [`ExsError::Eof`] if the stream ends first (any
    /// shorter remainder stays buffered for `recv_some`).
    pub fn recv_exact(&self, n: usize) -> Recv {
        Recv {
            inner: self.inner.clone(),
            key: self.key,
            mode: RecvMode::Exact(n),
            op: None,
        }
    }

    /// Receives at least one byte, up to `max` (plain `read(2)`
    /// shape). Resolves with [`ExsError::Eof`] at end of stream.
    pub fn recv_some(&self, max: usize) -> Recv {
        Recv {
            inner: self.inner.clone(),
            key: self.key,
            mode: RecvMode::Some(max),
            op: None,
        }
    }

    /// Pushes out any coalesced/batched sends immediately.
    pub fn flush(&self) -> Ctl {
        Ctl {
            inner: self.inner.clone(),
            key: self.key,
            shutdown: false,
            op: None,
        }
    }

    /// Half-closes the sending direction (FIN after queued sends
    /// drain). Later `send_all`s fail fast.
    pub fn shutdown(&self) -> Ctl {
        {
            let mut g = self.inner.borrow_mut();
            if let Some(chan) = g.chan_mut(self.key) {
                chan.shutdown_requested = true;
            }
        }
        Ctl {
            inner: self.inner.clone(),
            key: self.key,
            shutdown: true,
            op: None,
        }
    }

    /// Bytes currently buffered and claimable without waiting.
    pub fn buffered(&self) -> usize {
        self.inner
            .borrow_mut()
            .chan_mut(self.key)
            .map_or(0, |c| c.rx_buf.len())
    }
}

fn try_claim(chan: &mut Chan, mode: RecvMode) -> Option<Result<Vec<u8>, ExsError>> {
    match mode {
        RecvMode::Exact(n) => {
            if chan.rx_buf.len() >= n {
                Some(Ok(chan.rx_buf.drain(..n).collect()))
            } else if chan.eof {
                Some(Err(ExsError::Eof))
            } else {
                None
            }
        }
        RecvMode::Some(max) => {
            if !chan.rx_buf.is_empty() {
                let take = chan.rx_buf.len().min(max.max(1));
                Some(Ok(chan.rx_buf.drain(..take).collect()))
            } else if chan.eof {
                Some(Err(ExsError::Eof))
            } else {
                None
            }
        }
    }
}

/// Future of [`AsyncStream::send_all`].
pub struct SendAll {
    inner: Rc<RefCell<Inner>>,
    key: ChanKey,
    data: Option<Vec<u8>>,
    op: Option<u64>,
}

impl Future for SendAll {
    type Output = Result<(), ExsError>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        let mut g = this.inner.borrow_mut();
        match this.op {
            None => {
                let Some(chan) = g.chan_mut(this.key) else {
                    return Poll::Ready(Err(ExsError::Stale));
                };
                if let Some(err) = chan.error.clone().or_else(|| chan.poison.clone()) {
                    return Poll::Ready(Err(err));
                }
                if chan.shutdown_requested {
                    return Poll::Ready(Err(ExsError::Broken));
                }
                let data = this.data.take().unwrap_or_default();
                let op = g.op_id();
                let chan = g.chan_mut(this.key).expect("checked above");
                chan.send_ops.insert(
                    op,
                    SendOp {
                        data: Some(data),
                        lease: None,
                        issued: false,
                        done: None,
                        waker: Some(cx.waker().clone()),
                        detached: false,
                    },
                );
                g.actions.push_back(Action::Send { key: this.key, op });
                this.op = Some(op);
                Poll::Pending
            }
            Some(op) => {
                let Some(chan) = g.chan_mut(this.key) else {
                    this.op = None;
                    return Poll::Ready(Err(ExsError::Stale));
                };
                let Some(entry) = chan.send_ops.get_mut(&op) else {
                    this.op = None;
                    return Poll::Ready(Err(ExsError::Stale));
                };
                match entry.done.clone() {
                    Some(res) => {
                        chan.send_ops.remove(&op);
                        this.op = None;
                        Poll::Ready(res)
                    }
                    None => {
                        entry.waker = Some(cx.waker().clone());
                        g.stats.spurious_polls += 1;
                        Poll::Pending
                    }
                }
            }
        }
    }
}

impl Drop for SendAll {
    fn drop(&mut self) {
        if let Some(op) = self.op {
            self.inner.borrow_mut().cancel_send(self.key, op);
        }
    }
}

/// Future of [`AsyncStream::recv_exact`] / [`AsyncStream::recv_some`].
pub struct Recv {
    inner: Rc<RefCell<Inner>>,
    key: ChanKey,
    mode: RecvMode,
    op: Option<u64>,
}

impl Future for Recv {
    type Output = Result<Vec<u8>, ExsError>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        let mut g = this.inner.borrow_mut();
        match this.op {
            None => {
                let Some(chan) = g.chan_mut(this.key) else {
                    return Poll::Ready(Err(ExsError::Stale));
                };
                if let Some(err) = chan.error.clone() {
                    return Poll::Ready(Err(err));
                }
                if matches!(this.mode, RecvMode::Exact(0)) {
                    return Poll::Ready(Ok(Vec::new()));
                }
                // Claim immediately only when no earlier reader is
                // parked — readers resolve in registration order.
                if chan.read_waiters.is_empty() {
                    if let Some(res) = try_claim(chan, this.mode) {
                        chan.wake_readers();
                        return Poll::Ready(res);
                    }
                }
                let op = g.op_id();
                let chan = g.chan_mut(this.key).expect("checked above");
                chan.read_waiters.push_back(RecvWaiter {
                    op,
                    mode: this.mode,
                    waker: Some(cx.waker().clone()),
                });
                this.op = Some(op);
                Poll::Pending
            }
            Some(op) => {
                let Some(chan) = g.chan_mut(this.key) else {
                    this.op = None;
                    return Poll::Ready(Err(ExsError::Stale));
                };
                if let Some(err) = chan.error.clone() {
                    chan.read_waiters.retain(|w| w.op != op);
                    this.op = None;
                    return Poll::Ready(Err(err));
                }
                let is_head = chan.read_waiters.front().is_some_and(|w| w.op == op);
                if is_head {
                    if let Some(res) = try_claim(chan, this.mode) {
                        chan.read_waiters.pop_front();
                        this.op = None;
                        chan.wake_readers();
                        return Poll::Ready(res);
                    }
                }
                if let Some(w) = chan.read_waiters.iter_mut().find(|w| w.op == op) {
                    w.waker = Some(cx.waker().clone());
                }
                g.stats.spurious_polls += 1;
                Poll::Pending
            }
        }
    }
}

impl Drop for Recv {
    fn drop(&mut self) {
        if let Some(op) = self.op {
            self.inner.borrow_mut().cancel_recv(self.key, op);
        }
    }
}

/// Future of [`AsyncStream::flush`] / [`AsyncStream::shutdown`].
pub struct Ctl {
    inner: Rc<RefCell<Inner>>,
    key: ChanKey,
    shutdown: bool,
    op: Option<u64>,
}

impl Future for Ctl {
    type Output = Result<(), ExsError>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        let mut g = this.inner.borrow_mut();
        match this.op {
            None => {
                let Some(chan) = g.chan_mut(this.key) else {
                    return Poll::Ready(Err(ExsError::Stale));
                };
                if let Some(err) = chan.error.clone() {
                    return Poll::Ready(Err(err));
                }
                let op = g.op_id();
                let chan = g.chan_mut(this.key).expect("checked above");
                chan.ctl_ops.insert(
                    op,
                    CtlOp {
                        done: None,
                        waker: Some(cx.waker().clone()),
                    },
                );
                let action = if this.shutdown {
                    Action::Shutdown { key: this.key, op }
                } else {
                    Action::Flush { key: this.key, op }
                };
                g.actions.push_back(action);
                this.op = Some(op);
                Poll::Pending
            }
            Some(op) => {
                let Some(chan) = g.chan_mut(this.key) else {
                    this.op = None;
                    return Poll::Ready(Err(ExsError::Stale));
                };
                let Some(entry) = chan.ctl_ops.get_mut(&op) else {
                    this.op = None;
                    return Poll::Ready(Err(ExsError::Stale));
                };
                match entry.done.clone() {
                    Some(res) => {
                        chan.ctl_ops.remove(&op);
                        this.op = None;
                        Poll::Ready(res)
                    }
                    None => {
                        entry.waker = Some(cx.waker().clone());
                        g.stats.spurious_polls += 1;
                        Poll::Pending
                    }
                }
            }
        }
    }
}

impl Drop for Ctl {
    fn drop(&mut self) {
        if let Some(op) = self.op {
            self.inner.borrow_mut().cancel_ctl(self.key, op);
        }
    }
}
