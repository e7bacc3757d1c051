//! Completion queues.
//!
//! A [`CompletionQueue`] buffers work completions until the application
//! polls them. It keeps no notification state. The paper's measurements
//! use event notification rather than busy polling for large messages
//! (§IV-B); the simulator models that as one wake of the owning node's
//! app per burst of completions (a completion while a wake is pending
//! adds none), and the `HostModel` charges the wakeup cost once per
//! wake. The app drains its CQs on each wake, so there is no arm to
//! renew and no wake-up to lose.

use std::collections::VecDeque;

use crate::types::Cqe;

/// A simulated completion queue.
pub struct CompletionQueue {
    entries: VecDeque<Cqe>,
    capacity: usize,
    /// Set if a push ever found the queue full; surfaced as a hard error
    /// by the driver because a real CQ overrun is fatal to the QP.
    overflowed: bool,
    nonempty_polls: u64,
    max_batch: u64,
}

impl CompletionQueue {
    /// Creates a CQ able to buffer `capacity` completions.
    pub fn new(capacity: usize) -> Self {
        CompletionQueue {
            entries: VecDeque::with_capacity(capacity.min(1024)),
            capacity: capacity.max(1),
            overflowed: false,
            nonempty_polls: 0,
            max_batch: 0,
        }
    }

    /// Pushes a completion.
    pub fn push(&mut self, cqe: Cqe) {
        if self.entries.len() == self.capacity {
            self.overflowed = true;
            // Drop the completion; the driver turns `overflowed` into a
            // fatal error at the next poll.
            return;
        }
        self.entries.push_back(cqe);
    }

    /// Polls up to `max` completions into `out`, returning how many were
    /// delivered.
    pub fn poll(&mut self, max: usize, out: &mut Vec<Cqe>) -> usize {
        let n = max.min(self.entries.len());
        for _ in 0..n {
            out.push(self.entries.pop_front().expect("len checked"));
        }
        if n > 0 {
            self.nonempty_polls += 1;
            self.max_batch = self.max_batch.max(n as u64);
        }
        n
    }

    /// Number of buffered completions.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no completions are buffered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// True if the queue ever overflowed.
    pub fn overflowed(&self) -> bool {
        self.overflowed
    }

    /// Poll calls that returned at least one completion.
    pub fn nonempty_polls(&self) -> u64 {
        self.nonempty_polls
    }

    /// Largest batch a single poll call drained.
    pub fn max_batch(&self) -> u64 {
        self.max_batch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{QpNum, WcOpcode, WcStatus};

    fn cqe(wr_id: u64) -> Cqe {
        Cqe {
            wr_id,
            status: WcStatus::Success,
            opcode: WcOpcode::Send,
            byte_len: 0,
            imm: None,
            qpn: QpNum(0),
        }
    }

    #[test]
    fn push_poll_fifo() {
        let mut cq = CompletionQueue::new(8);
        for i in 0..5 {
            cq.push(cqe(i));
        }
        let mut out = Vec::new();
        assert_eq!(cq.poll(3, &mut out), 3);
        assert_eq!(out.iter().map(|c| c.wr_id).collect::<Vec<_>>(), [0, 1, 2]);
        assert_eq!(cq.poll(10, &mut out), 2);
        assert_eq!(cq.len(), 0);
    }

    #[test]
    fn batch_stats_track_drains() {
        let mut cq = CompletionQueue::new(16);
        let mut out = Vec::new();
        assert_eq!(cq.poll(8, &mut out), 0);
        assert_eq!(cq.nonempty_polls(), 0);
        for i in 0..5 {
            cq.push(cqe(i));
        }
        cq.poll(3, &mut out);
        cq.poll(usize::MAX, &mut out);
        assert_eq!(cq.nonempty_polls(), 2);
        assert_eq!(cq.max_batch(), 3);
    }

    #[test]
    fn overflow_is_latched() {
        let mut cq = CompletionQueue::new(2);
        cq.push(cqe(1));
        cq.push(cqe(2));
        assert!(!cq.overflowed());
        cq.push(cqe(3));
        assert!(cq.overflowed());
        // The overflowing entry was dropped.
        assert_eq!(cq.len(), 2);
    }

    #[test]
    fn capacity_minimum_is_one() {
        let mut cq = CompletionQueue::new(0);
        cq.push(cqe(1));
        assert_eq!(cq.len(), 1);
        cq.push(cqe(2));
        assert!(cq.overflowed());
    }
}
