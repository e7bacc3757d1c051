//! Cancel points for the aio tests. A task awaits an operation with
//! [`race`] against a [`Switch`]; the test flips the switch — from a
//! simulator timer ([`Flipped`]) or from a thread of its own
//! ([`flip_after`]) — and the pending future is dropped there, the way
//! a caller abandons an operation. What a drop does is the executor's
//! cancellation path (DESIGN §16); when it happens is the test's
//! choice.

use std::future::Future;
use std::sync::{Arc, Mutex};
use std::task::{Poll, Waker};
use std::thread::JoinHandle;
use std::time::Duration;

use exs::SimShardDriver;
use rdma_verbs::{NodeApi, NodeApp};
use simnet::SimDuration;

/// A flip count and the waker of the one task racing it.
#[derive(Clone, Default)]
pub struct Switch(Arc<Mutex<(u64, Option<Waker>)>>);

impl Switch {
    /// Flips the switch and wakes the task racing it, on any thread.
    pub fn flip(&self) {
        let mut state = self.0.lock().expect("switch lock");
        state.0 += 1;
        if let Some(waker) = state.1.take() {
            waker.wake();
        }
    }

    fn flips(&self) -> u64 {
        self.0.lock().expect("switch lock").0
    }
}

/// Awaits `fut` until it completes (`Some`) or `switch` flips (`None`,
/// and `fut` is dropped while pending). Only flips after this call
/// count, polled or not.
pub fn race<F: Future>(switch: &Switch, fut: F) -> impl Future<Output = Option<F::Output>> {
    let (switch, start) = (switch.clone(), switch.flips());
    async move {
        let mut fut = std::pin::pin!(fut);
        std::future::poll_fn(|cx| {
            if let Poll::Ready(out) = fut.as_mut().poll(cx) {
                return Poll::Ready(Some(out));
            }
            let mut state = switch.0.lock().expect("switch lock");
            if state.0 != start {
                return Poll::Ready(None);
            }
            state.1 = Some(cx.waker().clone());
            Poll::Pending
        })
        .await
    }
}

/// A simulated node's [`SimShardDriver`] whose switch flips at fixed
/// simulated times after the run starts.
pub struct Flipped {
    pub drv: SimShardDriver,
    switch: Switch,
    at: Vec<SimDuration>,
}

impl Flipped {
    pub fn new(drv: SimShardDriver, switch: &Switch, at: Vec<SimDuration>) -> Flipped {
        Flipped {
            drv,
            switch: switch.clone(),
            at,
        }
    }
}

impl NodeApp for Flipped {
    fn on_start(&mut self, api: &mut NodeApi<'_>) {
        for (i, &at) in self.at.iter().enumerate() {
            api.set_timer(at, i as u64);
        }
        self.drv.on_start(api);
    }

    fn on_wake(&mut self, api: &mut NodeApi<'_>) {
        self.drv.on_wake(api);
    }

    fn on_timer(&mut self, api: &mut NodeApi<'_>, _token: u64) {
        self.switch.flip();
        self.drv.on_wake(api);
    }

    fn is_done(&self) -> bool {
        self.drv.is_done()
    }
}

/// Flips `switch` from a thread of its own, once after each of
/// `delays` in turn.
pub fn flip_after(switch: &Switch, delays: Vec<Duration>) -> JoinHandle<()> {
    let switch = switch.clone();
    std::thread::spawn(move || {
        for delay in delays {
            std::thread::sleep(delay);
            switch.flip();
        }
    })
}
