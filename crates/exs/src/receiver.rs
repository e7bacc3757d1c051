//! The receiver half of the stream protocol — paper Fig. 3, 4 and 5.
//!
//! The receiver owns the queue of user `exs_recv()` operations, the
//! intermediate ring buffer, its phase `P_r`, its stream position `S_r`
//! and the *next-expected* estimate used for ADVERT sequence numbers.
//!
//! **ADVERT gating (Fig. 3).** A new receive is advertised only when the
//! intermediate buffer is empty (`b_r == 0`), no ADVERTs from a prior
//! phase are outstanding (`k_a == 0`), and no earlier receive is waiting
//! un-advertised (`k_b == 0`). When the gate opens, all queued
//! un-advertised receives are advertised in order, after advancing an
//! indirect phase to the next (direct) phase — this is the
//! resynchronization step that makes the first new ADVERT's sequence
//! number exact.
//!
//! **Sequence estimates.** An ADVERT for a MSG_WAITALL receive
//! contributes exactly its length to the next-expected estimate; a plain
//! receive contributes 1 ("at least one byte"). As data actually
//! arrives, each estimate is replaced by the true byte count, so the
//! estimate equals the true stream position whenever no advertised
//! receive is outstanding. (The paper's pseudocode tracks the same
//! quantity as `S'_r`; the published listing is ambiguous about the
//! correction term, so this implementation maintains the invariant the
//! correctness proof needs: exactness at resynchronization,
//! monotonicity within an ADVERT sequence.)
//!
//! **Arrivals (Fig. 4).** A direct transfer fills the advertised receive
//! at the head of the queue. An indirect transfer advances the phase to
//! indirect (invalidating outstanding ADVERTs — they become "prior
//! phase", counted by `k_a`) and lands in the ring.
//!
//! **Copy-out (Fig. 5).** While the ring holds data and receives are
//! queued, bytes are copied to user memory; freed space is reported with
//! ACKs (threshold-batched, always on the empty transition).

use std::collections::VecDeque;

use crate::buffer::ReceiverRing;
use crate::config::ProtocolMode;
use crate::error::ProtocolError;
use crate::messages::Advert;
use crate::phase::Phase;
use crate::seq::Seq;
use crate::stats::ConnStats;

/// A user receive operation.
#[derive(Clone, Copy, Debug)]
pub struct RecvOp {
    /// User token, echoed in the completion event.
    pub id: u64,
    /// Virtual address of the registered user buffer.
    pub addr: u64,
    /// Buffer length.
    pub len: u32,
    /// Key of the user buffer's region (lkey == rkey in the simulator).
    pub key: u32,
    /// MSG_WAITALL: complete only when the buffer is full.
    pub waitall: bool,
}

#[derive(Clone, Copy, Debug)]
struct QueuedRecv {
    op: RecvOp,
    filled: u32,
    /// Set when an ADVERT has been sent for this receive: the phase it
    /// was advertised in and its remaining contribution to the
    /// next-expected sequence estimate.
    advert: Option<AdvertMeta>,
}

#[derive(Clone, Copy, Debug)]
struct AdvertMeta {
    phase: Phase,
    estimate: u64,
}

/// Instructions the socket layer executes after feeding the receiver
/// state machine. Ordering matters and must be preserved.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecvAction {
    /// Send an ADVERT control message to the peer.
    SendAdvert(Advert),
    /// Send an ACK reporting `freed` intermediate-buffer bytes.
    SendAck {
        /// Bytes freed since the last ACK.
        freed: u64,
    },
    /// Copy `len` bytes from the ring region to the user buffer
    /// (charging the host memcpy cost).
    Copy {
        /// Source virtual address inside the ring region.
        src_addr: u64,
        /// Destination virtual address in the user buffer.
        dst_addr: u64,
        /// Destination region key.
        dst_key: u32,
        /// Bytes to copy.
        len: u64,
    },
    /// Deliver a receive-completion event to the user.
    Complete {
        /// User token from [`RecvOp::id`].
        id: u64,
        /// Bytes placed in the user buffer.
        len: u32,
    },
}

/// The local intermediate ring buffer's location.
#[derive(Clone, Copy, Debug)]
pub struct LocalRing {
    /// Base virtual address of the registered ring region.
    pub addr: u64,
    /// Region key.
    pub key: u32,
    /// Capacity in bytes.
    pub capacity: u64,
}

/// Receiver-half protocol state.
pub struct ReceiverHalf {
    mode: ProtocolMode,
    phase: Phase,
    seq: Seq,
    /// Sum of outstanding ADVERT estimate contributions; the
    /// next-expected sequence (`S'_r`) is `seq + pending_estimate`.
    pending_estimate: u64,
    /// Outstanding ADVERTs from a prior phase (`k_a`).
    prior_phase_adverts: u32,
    recvs: VecDeque<QueuedRecv>,
    ring: ReceiverRing,
    local_ring: LocalRing,
    ack_threshold: u64,
    ack_owed: u64,
}

impl ReceiverHalf {
    /// Creates the receiver half owning the given local ring.
    pub fn new(mode: ProtocolMode, local_ring: LocalRing, ack_threshold: u64) -> Self {
        assert!(ack_threshold > 0, "ACK threshold must be positive");
        ReceiverHalf {
            mode,
            phase: Phase::ZERO,
            seq: Seq::ZERO,
            pending_estimate: 0,
            prior_phase_adverts: 0,
            recvs: VecDeque::new(),
            ring: ReceiverRing::new(local_ring.capacity),
            local_ring,
            ack_threshold,
            ack_owed: 0,
        }
    }

    /// Current phase (`P_r`).
    pub fn phase(&self) -> Phase {
        self.phase
    }

    /// Current stream position (`S_r`).
    pub fn seq(&self) -> Seq {
        self.seq
    }

    /// Bytes waiting in the intermediate buffer (`b_r`).
    pub fn buffered(&self) -> u64 {
        self.ring.count()
    }

    /// Queued receives not yet advertised (`k_b`).
    pub fn unadvertised(&self) -> usize {
        self.recvs.iter().filter(|r| r.advert.is_none()).count()
    }

    /// Queued receive operations (any state).
    pub fn queue_len(&self) -> usize {
        self.recvs.len()
    }

    /// Handles a user `exs_recv()` call (paper Fig. 3): queue the
    /// receive, satisfy it from the ring if data is waiting, advertise
    /// it if the gate is open.
    pub fn push_recv(&mut self, op: RecvOp, stats: &mut ConnStats, actions: &mut Vec<RecvAction>) {
        assert!(op.len > 0, "zero-length receive");
        self.recvs.push_back(QueuedRecv {
            op,
            filled: 0,
            advert: None,
        });
        self.pump(stats, actions);
    }

    /// Handles an arriving *direct* transfer of `len` bytes (paper
    /// Fig. 4, direct branch). The data is already in the user buffer —
    /// the sender's WWI placed it there; only bookkeeping happens here.
    ///
    /// A direct transfer with no advertised receive to land in, or one
    /// that overfills the advertised buffer, is a protocol violation
    /// the peer can drive — it surfaces as a typed error, not a panic.
    pub fn on_direct(
        &mut self,
        len: u32,
        stats: &mut ConnStats,
        actions: &mut Vec<RecvAction>,
    ) -> Result<(), ProtocolError> {
        let head = self
            .recvs
            .front_mut()
            .ok_or(ProtocolError::DirectWithoutAdvert)?;
        let meta = head.advert.ok_or(ProtocolError::DirectWithoutAdvert)?;
        debug_assert_eq!(
            meta.phase, self.phase,
            "Theorem 1 violated: direct transfer for a prior-phase ADVERT"
        );
        if head.filled.checked_add(len).is_none_or(|f| f > head.op.len) {
            return Err(ProtocolError::DirectOverfill);
        }
        head.filled += len;
        self.seq.advance(len as u64);
        // Replace the estimate with truth.
        if head.op.waitall {
            self.pending_estimate -= len as u64;
            let m = head.advert.as_mut().expect("advert meta present");
            m.estimate -= len as u64;
        } else {
            self.pending_estimate -= meta.estimate;
            head.advert.as_mut().expect("advert meta present").estimate = 0;
        }
        let done = if head.op.waitall {
            head.filled == head.op.len
        } else {
            true
        };
        if done {
            let r = self.recvs.pop_front().expect("head exists");
            stats.recvs_completed += 1;
            stats.bytes_received += r.filled as u64;
            actions.push(RecvAction::Complete {
                id: r.op.id,
                len: r.filled,
            });
        }
        self.pump(stats, actions);
        Ok(())
    }

    /// Handles an arriving *indirect* transfer of `len` bytes (paper
    /// Fig. 4, else branch): advance to an indirect phase if needed
    /// (invalidating outstanding ADVERTs) and account the ring bytes,
    /// then run the copy-out loop.
    ///
    /// A length that would overfill the ring means the peer ignored the
    /// ACK-based flow control — a typed error, not a panic.
    pub fn on_indirect(
        &mut self,
        len: u32,
        stats: &mut ConnStats,
        actions: &mut Vec<RecvAction>,
    ) -> Result<(), ProtocolError> {
        self.ring
            .checked_arrived(len as u64)
            .ok_or(ProtocolError::RingOverflow)?;
        if self.phase.is_direct() {
            self.phase = self.phase.next();
            // Every outstanding ADVERT is now from a prior phase; its
            // receive will be satisfied from the intermediate buffer.
            self.prior_phase_adverts =
                self.recvs.iter().filter(|r| r.advert.is_some()).count() as u32;
        }
        self.pump(stats, actions);
        Ok(())
    }

    /// Cancels a queued receive by user id. Only receives that have not
    /// been advertised and hold no bytes can be cancelled — once an
    /// ADVERT is out, the sender may already be writing into the buffer
    /// (ES-API `exs_cancel` semantics: best-effort, fails for
    /// in-progress operations). Returns true if the receive was removed.
    pub(crate) fn cancel_recv(&mut self, id: u64) -> bool {
        let Some(pos) = self.recvs.iter().position(|r| r.op.id == id) else {
            return false;
        };
        let r = &self.recvs[pos];
        if r.advert.is_some() || r.filled > 0 {
            return false;
        }
        self.recvs.remove(pos);
        true
    }

    /// End-of-stream: the peer closed after `S_r` reached its final
    /// sequence number. Every queued receive completes with whatever it
    /// holds (possibly zero bytes); no further ADVERTs are emitted for
    /// them. The socket layer calls this exactly once.
    pub(crate) fn flush_eof(&mut self, stats: &mut ConnStats, actions: &mut Vec<RecvAction>) {
        debug_assert!(self.ring.is_empty(), "EOF with data still buffered");
        while let Some(r) = self.recvs.pop_front() {
            if let Some(meta) = r.advert {
                if meta.phase < self.phase {
                    self.prior_phase_adverts -= 1;
                }
                self.pending_estimate -= meta.estimate;
            }
            stats.recvs_completed += 1;
            stats.bytes_received += r.filled as u64;
            actions.push(RecvAction::Complete {
                id: r.op.id,
                len: r.filled,
            });
        }
    }

    /// The copy-out / ACK / advertise engine (paper Fig. 5 plus the
    /// Fig. 3 gate). Runs until no further progress is possible.
    fn pump(&mut self, stats: &mut ConnStats, actions: &mut Vec<RecvAction>) {
        // Fig. 5: satisfy queued receives from the intermediate buffer.
        while !self.ring.is_empty() {
            let Some(head) = self.recvs.front_mut() else {
                break;
            };
            let want = (head.op.len - head.filled) as u64;
            let (offset, n) = self.ring.contiguous_read(want);
            if n == 0 {
                break;
            }
            actions.push(RecvAction::Copy {
                src_addr: self.local_ring.addr + offset,
                dst_addr: head.op.addr + head.filled as u64,
                dst_key: head.op.key,
                len: n,
            });
            self.ring.consume(n);
            head.filled += n as u32;
            self.seq.advance(n);
            self.ack_owed += n;
            stats.bytes_copied_out += n;
            // Estimate correction for advertised (prior-phase) receives.
            if let Some(meta) = head.advert.as_mut() {
                if head.op.waitall {
                    self.pending_estimate -= n;
                    meta.estimate -= n;
                } else {
                    self.pending_estimate -= meta.estimate;
                    meta.estimate = 0;
                }
            }
            let done = if head.op.waitall {
                head.filled == head.op.len
            } else {
                head.filled > 0
            };
            if done {
                let r = self.recvs.pop_front().expect("head exists");
                if let Some(meta) = r.advert {
                    debug_assert!(
                        meta.phase < self.phase,
                        "copy-out satisfied a current-phase ADVERT"
                    );
                    self.prior_phase_adverts -= 1;
                }
                stats.recvs_completed += 1;
                stats.bytes_received += r.filled as u64;
                actions.push(RecvAction::Complete {
                    id: r.op.id,
                    len: r.filled,
                });
            }
        }

        // ACK freed space: on threshold, or always when the buffer just
        // drained (the sender may be blocked on b_s).
        if self.ack_owed > 0 && (self.ack_owed >= self.ack_threshold || self.ring.is_empty()) {
            actions.push(RecvAction::SendAck {
                freed: self.ack_owed,
            });
            stats.acks_sent += 1;
            self.ack_owed = 0;
        }

        // Fig. 3 gate: advertise queued receives only when the buffer is
        // empty and no prior-phase ADVERT is outstanding. Un-advertised
        // receives are always a suffix of the queue, so advertising in
        // iteration order preserves stream order.
        if self.mode.buffered_only() {
            return;
        }
        if !self.ring.is_empty() || self.prior_phase_adverts > 0 {
            return;
        }
        let any_unadvertised = self.recvs.iter().any(|r| r.advert.is_none());
        if !any_unadvertised {
            return;
        }
        if self.phase.is_indirect() {
            // Resynchronize: the next ADVERT sequence starts a new direct
            // phase with an exact sequence number.
            self.phase = self.phase.next();
            debug_assert_eq!(
                self.pending_estimate, 0,
                "estimate must be exact at resynchronization"
            );
        }
        for r in self.recvs.iter_mut() {
            if r.advert.is_some() {
                continue;
            }
            let estimate = if r.op.waitall {
                (r.op.len - r.filled) as u64
            } else {
                1
            };
            let advert = Advert {
                seq: Seq(self.seq.0 + self.pending_estimate),
                phase: self.phase,
                addr: r.op.addr + r.filled as u64,
                len: r.op.len - r.filled,
                rkey: r.op.key,
                waitall: r.op.waitall,
            };
            r.advert = Some(AdvertMeta {
                phase: self.phase,
                estimate,
            });
            self.pending_estimate += estimate;
            stats.adverts_sent += 1;
            actions.push(RecvAction::SendAdvert(advert));
        }
        // Telemetry: after a burst every queued receive is advertised, so
        // the queue length *is* the advert-queue depth — how many
        // pre-posted receives are keeping the Fig. 3 gate open for the
        // sender's next transfer decision.
        stats.sample_advert_queue(self.recvs.len() as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring() -> LocalRing {
        LocalRing {
            addr: 0x800000,
            key: 5,
            capacity: 1000,
        }
    }

    fn half(mode: ProtocolMode) -> (ReceiverHalf, ConnStats, Vec<RecvAction>) {
        (
            ReceiverHalf::new(mode, ring(), 100),
            ConnStats::default(),
            Vec::new(),
        )
    }

    fn op(id: u64, addr: u64, len: u32, waitall: bool) -> RecvOp {
        RecvOp {
            id,
            addr,
            len,
            key: 42,
            waitall,
        }
    }

    fn adverts(actions: &[RecvAction]) -> Vec<Advert> {
        actions
            .iter()
            .filter_map(|a| match a {
                RecvAction::SendAdvert(ad) => Some(*ad),
                _ => None,
            })
            .collect()
    }

    fn completions(actions: &[RecvAction]) -> Vec<(u64, u32)> {
        actions
            .iter()
            .filter_map(|a| match a {
                RecvAction::Complete { id, len } => Some((*id, *len)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn fresh_recv_is_advertised_immediately() {
        let (mut r, mut st, mut acts) = half(ProtocolMode::Dynamic);
        r.push_recv(op(1, 0x2000, 128, false), &mut st, &mut acts);
        let ads = adverts(&acts);
        assert_eq!(ads.len(), 1);
        assert_eq!(ads[0].seq, Seq(0));
        assert_eq!(ads[0].phase, Phase(0));
        assert_eq!(ads[0].addr, 0x2000);
        assert_eq!(ads[0].len, 128);
        assert!(!ads[0].waitall);
        assert_eq!(r.unadvertised(), 0);
    }

    #[test]
    fn estimate_sequence_numbers_are_monotone() {
        let (mut r, mut st, mut acts) = half(ProtocolMode::Dynamic);
        r.push_recv(op(1, 0x2000, 100, false), &mut st, &mut acts);
        r.push_recv(op(2, 0x3000, 100, true), &mut st, &mut acts);
        r.push_recv(op(3, 0x4000, 100, false), &mut st, &mut acts);
        let ads = adverts(&acts);
        // Non-WAITALL estimates +1, WAITALL estimates its full length.
        assert_eq!(ads[0].seq, Seq(0));
        assert_eq!(ads[1].seq, Seq(1));
        assert_eq!(ads[2].seq, Seq(101));
    }

    #[test]
    fn direct_arrival_completes_non_waitall() {
        let (mut r, mut st, mut acts) = half(ProtocolMode::Dynamic);
        r.push_recv(op(1, 0x2000, 128, false), &mut st, &mut acts);
        acts.clear();
        r.on_direct(50, &mut st, &mut acts).unwrap();
        assert_eq!(completions(&acts), vec![(1, 50)]);
        assert_eq!(r.seq(), Seq(50));
        assert_eq!(r.queue_len(), 0);
        // Estimate is exact again.
        r.push_recv(op(2, 0x3000, 64, false), &mut st, &mut acts);
        assert_eq!(adverts(&acts)[0].seq, Seq(50));
    }

    #[test]
    fn direct_arrivals_fill_waitall_incrementally() {
        let (mut r, mut st, mut acts) = half(ProtocolMode::Dynamic);
        r.push_recv(op(1, 0x2000, 100, true), &mut st, &mut acts);
        acts.clear();
        r.on_direct(40, &mut st, &mut acts).unwrap();
        assert!(completions(&acts).is_empty(), "WAITALL holds until full");
        r.on_direct(60, &mut st, &mut acts).unwrap();
        assert_eq!(completions(&acts), vec![(1, 100)]);
        assert_eq!(r.seq(), Seq(100));
    }

    #[test]
    fn indirect_arrival_switches_phase_and_copies() {
        let (mut r, mut st, mut acts) = half(ProtocolMode::Dynamic);
        r.push_recv(op(1, 0x2000, 128, false), &mut st, &mut acts);
        acts.clear();
        r.on_indirect(50, &mut st, &mut acts).unwrap();
        assert_eq!(r.phase(), Phase(1));
        // Copy from ring offset 0 into the user buffer, then complete.
        assert_eq!(
            acts[0],
            RecvAction::Copy {
                src_addr: ring().addr,
                dst_addr: 0x2000,
                dst_key: 42,
                len: 50
            }
        );
        assert_eq!(completions(&acts), vec![(1, 50)]);
        // Buffer drained → ACK sent immediately.
        assert!(acts
            .iter()
            .any(|a| matches!(a, RecvAction::SendAck { freed: 50 })));
        assert_eq!(r.seq(), Seq(50));
        assert_eq!(r.prior_phase_adverts, 0);
    }

    #[test]
    fn resync_advertises_with_exact_seq_and_next_phase() {
        let (mut r, mut st, mut acts) = half(ProtocolMode::Dynamic);
        r.push_recv(op(1, 0x2000, 128, false), &mut st, &mut acts);
        acts.clear();
        r.on_indirect(50, &mut st, &mut acts).unwrap(); // completes recv 1, phase 1
        acts.clear();
        // Next recv: buffer empty, no prior adverts → advertise in phase 2
        // with the exact sequence 50.
        r.push_recv(op(2, 0x3000, 64, false), &mut st, &mut acts);
        let ads = adverts(&acts);
        assert_eq!(ads.len(), 1);
        assert_eq!(ads[0].phase, Phase(2));
        assert_eq!(ads[0].seq, Seq(50));
    }

    #[test]
    fn gate_blocks_adverts_while_buffer_nonempty() {
        let (mut r, mut st, mut acts) = half(ProtocolMode::Dynamic);
        // Indirect data arrives with no receive posted: it waits in the
        // ring.
        r.on_indirect(200, &mut st, &mut acts).unwrap();
        assert!(adverts(&acts).is_empty());
        assert_eq!(r.buffered(), 200);
        acts.clear();
        // A receive arrives: satisfied from the ring, not advertised.
        r.push_recv(op(1, 0x2000, 80, false), &mut st, &mut acts);
        assert_eq!(completions(&acts), vec![(1, 80)]);
        assert!(adverts(&acts).is_empty());
        assert_eq!(r.buffered(), 120);
        acts.clear();
        // Another receive drains the rest; still 120 > 0 when pushed, so
        // it is satisfied from the ring; after draining, the gate opens
        // for *subsequent* receives.
        r.push_recv(op(2, 0x3000, 200, false), &mut st, &mut acts);
        assert_eq!(completions(&acts), vec![(2, 120)]);
        acts.clear();
        r.push_recv(op(3, 0x4000, 64, false), &mut st, &mut acts);
        let ads = adverts(&acts);
        assert_eq!(ads.len(), 1);
        assert_eq!(ads[0].seq, Seq(200));
        assert_eq!(ads[0].phase, Phase(2));
    }

    #[test]
    fn prior_phase_adverts_block_new_adverts() {
        let (mut r, mut st, mut acts) = half(ProtocolMode::Dynamic);
        // Three advertised receives.
        r.push_recv(op(1, 0x2000, 100, false), &mut st, &mut acts);
        r.push_recv(op(2, 0x3000, 100, false), &mut st, &mut acts);
        r.push_recv(op(3, 0x4000, 100, false), &mut st, &mut acts);
        acts.clear();
        // An indirect transfer invalidates them (k_a = 3) and satisfies
        // only the first (40 bytes).
        r.on_indirect(40, &mut st, &mut acts).unwrap();
        assert_eq!(r.prior_phase_adverts, 2);
        assert_eq!(completions(&acts), vec![(1, 40)]);
        acts.clear();
        // A new receive must NOT be advertised: prior-phase adverts
        // outstanding (Fig. 7 fix).
        r.push_recv(op(4, 0x5000, 100, false), &mut st, &mut acts);
        assert!(adverts(&acts).is_empty());
        assert_eq!(r.unadvertised(), 1);
        acts.clear();
        // More indirect data satisfies receives 2 and 3 (k_a → 0) and
        // then 4, after which the gate reopens for receive 5.
        r.on_indirect(300, &mut st, &mut acts).unwrap();
        assert_eq!(completions(&acts), vec![(2, 100), (3, 100), (4, 100)]);
        assert_eq!(r.prior_phase_adverts, 0);
        acts.clear();
        r.push_recv(op(5, 0x6000, 64, false), &mut st, &mut acts);
        let ads = adverts(&acts);
        assert_eq!(ads.len(), 1);
        assert_eq!(ads[0].seq, Seq(340));
        assert_eq!(ads[0].phase, Phase(2));
    }

    #[test]
    fn waitall_recv_waits_for_full_buffer_via_ring() {
        let (mut r, mut st, mut acts) = half(ProtocolMode::Dynamic);
        r.on_indirect(30, &mut st, &mut acts).unwrap();
        acts.clear();
        r.push_recv(op(1, 0x2000, 100, true), &mut st, &mut acts);
        assert!(completions(&acts).is_empty(), "30 of 100 bytes so far");
        acts.clear();
        r.on_indirect(70, &mut st, &mut acts).unwrap();
        assert_eq!(completions(&acts), vec![(1, 100)]);
    }

    #[test]
    fn ack_threshold_batches() {
        let (mut r, mut st, mut acts) = half(ProtocolMode::Dynamic);
        // Fill the ring with 400 bytes; no receives posted yet.
        r.on_indirect(400, &mut st, &mut acts).unwrap();
        acts.clear();
        // Drain 30 bytes: below the threshold (100) and ring non-empty →
        // no ACK yet.
        r.push_recv(op(1, 0x2000, 30, false), &mut st, &mut acts);
        assert!(!acts.iter().any(|a| matches!(a, RecvAction::SendAck { .. })));
        acts.clear();
        // Drain 90 more: cumulative 120 ≥ 100 → ACK for 120.
        r.push_recv(op(2, 0x3000, 90, false), &mut st, &mut acts);
        assert!(acts
            .iter()
            .any(|a| matches!(a, RecvAction::SendAck { freed: 120 })));
    }

    #[test]
    fn indirect_only_never_advertises() {
        let (mut r, mut st, mut acts) = half(ProtocolMode::IndirectOnly);
        r.push_recv(op(1, 0x2000, 100, false), &mut st, &mut acts);
        assert!(adverts(&acts).is_empty());
        assert_eq!(st.adverts_sent, 0);
        // Data still flows through the ring.
        r.on_indirect(100, &mut st, &mut acts).unwrap();
        assert_eq!(completions(&acts), vec![(1, 100)]);
    }

    #[test]
    fn ring_wrap_produces_two_copies() {
        let (mut r, mut st, mut acts) = half(ProtocolMode::IndirectOnly);
        // Advance the ring cursor to 900.
        r.on_indirect(900, &mut st, &mut acts).unwrap();
        r.push_recv(op(1, 0x2000, 900, true), &mut st, &mut acts);
        acts.clear();
        // 200 more bytes: 100 before the wrap, 100 after.
        r.on_indirect(200, &mut st, &mut acts).unwrap();
        r.push_recv(op(2, 0x9000, 200, true), &mut st, &mut acts);
        let copies: Vec<_> = acts
            .iter()
            .filter_map(|a| match a {
                RecvAction::Copy { src_addr, len, .. } => Some((*src_addr - ring().addr, *len)),
                _ => None,
            })
            .collect();
        assert_eq!(copies, vec![(900, 100), (0, 100)]);
        assert_eq!(completions(&acts), vec![(2, 200)]);
    }

    #[test]
    fn direct_without_recv_is_typed_error() {
        let (mut r, mut st, mut acts) = half(ProtocolMode::Dynamic);
        assert_eq!(
            r.on_direct(10, &mut st, &mut acts),
            Err(ProtocolError::DirectWithoutAdvert)
        );
    }

    #[test]
    fn direct_overfill_is_typed_error() {
        let (mut r, mut st, mut acts) = half(ProtocolMode::Dynamic);
        r.push_recv(op(1, 0x2000, 64, false), &mut st, &mut acts);
        assert_eq!(
            r.on_direct(65, &mut st, &mut acts),
            Err(ProtocolError::DirectOverfill)
        );
    }

    #[test]
    fn indirect_ring_overflow_is_typed_error() {
        let (mut r, mut st, mut acts) = half(ProtocolMode::Dynamic);
        r.on_indirect(1000, &mut st, &mut acts).unwrap();
        assert_eq!(
            r.on_indirect(1, &mut st, &mut acts),
            Err(ProtocolError::RingOverflow)
        );
        // State is untouched by the rejected arrival.
        assert_eq!(r.buffered(), 1000);
    }

    #[test]
    fn flush_eof_completes_queued_recvs_with_fill_state() {
        let (mut r, mut st, mut acts) = half(ProtocolMode::Dynamic);
        // One advertised WAITALL receive partially filled, one
        // un-advertised receive behind it.
        r.push_recv(op(1, 0x2000, 100, true), &mut st, &mut acts);
        acts.clear();
        r.on_direct(40, &mut st, &mut acts).unwrap();
        assert!(completions(&acts).is_empty());
        r.push_recv(op(2, 0x3000, 50, false), &mut st, &mut acts);
        acts.clear();

        r.flush_eof(&mut st, &mut acts);
        assert_eq!(completions(&acts), vec![(1, 40), (2, 0)]);
        assert_eq!(r.queue_len(), 0);
        assert_eq!(r.prior_phase_adverts, 0);
        // Estimates are fully retired: the next advert is exact again.
        acts.clear();
        r.push_recv(op(3, 0x4000, 10, false), &mut st, &mut acts);
        assert_eq!(adverts(&acts)[0].seq, r.seq());
    }

    #[test]
    fn advert_queue_depth_is_sampled_per_burst() {
        let (mut r, mut st, mut acts) = half(ProtocolMode::Dynamic);
        r.push_recv(op(1, 0x2000, 100, false), &mut st, &mut acts);
        r.push_recv(op(2, 0x3000, 100, false), &mut st, &mut acts);
        r.push_recv(op(3, 0x4000, 100, false), &mut st, &mut acts);
        assert_eq!(st.advert_queue_peak, 3);
        assert_eq!(st.advert_queue_samples, 3);
        assert!((st.advert_queue_mean() - 2.0).abs() < 1e-12, "1, 2, 3");
    }

    #[test]
    fn flush_eof_on_empty_queue_is_noop() {
        let (mut r, mut st, mut acts) = half(ProtocolMode::Dynamic);
        r.flush_eof(&mut st, &mut acts);
        assert!(acts.is_empty());
    }
}
