//! The sender half of the stream protocol — paper Fig. 2.
//!
//! The sender keeps a queue `q_A` of received ADVERTs, its phase `P_s`,
//! its stream position `S_s`, and a free-space view of the receiver's
//! intermediate buffer (`b_s`). Each call to [`SenderHalf::plan_transfer`]
//! executes one iteration of the matching algorithm:
//!
//! 1. Pop and discard stale ADVERTs: while the sender's phase is
//!    indirect, an ADVERT with an older phase or an older sequence number
//!    is thrown away; if the discarded ADVERT carries a *newer* phase,
//!    the sender's phase jumps past it (`NEXT_PHASE(P_A)`) so the rest
//!    of that ADVERT sequence is dropped too — the Fig. 8 scenario.
//! 2. If a usable ADVERT heads the queue, transition to its (direct)
//!    phase if needed and plan a **direct** WWI into the advertised user
//!    buffer. An ADVERT with MSG_WAITALL stays at the head until it is
//!    completely filled (paper §II-C); otherwise it is consumed by a
//!    single transfer of any size.
//! 3. Otherwise, if the intermediate buffer has free space, transition
//!    to an indirect phase if needed and plan an **indirect** WWI into
//!    the ring (split at the wrap point).
//! 4. Otherwise the send must wait (for an ADVERT or an ACK).
//!
//! This module is sans-IO: it plans transfers; the socket layer posts the
//! verbs work requests and enforces credit/SQ limits. That separation is
//! what lets property tests drive the algorithm through arbitrary
//! schedules.

use std::collections::VecDeque;

use crate::buffer::SenderRing;
use crate::config::{DirectPolicy, ProtocolMode};
use crate::error::ProtocolError;
use crate::messages::Advert;
use crate::phase::Phase;
use crate::seq::Seq;
use crate::stats::ConnStats;

/// An ADVERT queued at the sender, with its fill progress (for
/// MSG_WAITALL adverts that accept multiple transfers).
#[derive(Clone, Copy, Debug)]
struct QueuedAdvert {
    advert: Advert,
    filled: u32,
}

/// One planned RDMA WRITE WITH IMM.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WwiPlan {
    /// Remote virtual address to write to.
    pub(crate) raddr: u64,
    /// Remote key authorizing the write.
    pub(crate) rkey: u32,
    /// Chunk length.
    pub len: u32,
    /// True for an indirect (intermediate-buffer) transfer.
    pub indirect: bool,
}

/// The remote intermediate buffer's location, exchanged at connection
/// setup.
#[derive(Clone, Copy, Debug)]
pub struct RemoteRing {
    /// Base virtual address of the ring region at the receiver.
    pub addr: u64,
    /// Remote key for the ring region.
    pub rkey: u32,
    /// Ring capacity in bytes.
    pub capacity: u64,
}

/// Sender-half protocol state.
pub struct SenderHalf {
    mode: ProtocolMode,
    policy: DirectPolicy,
    phase: Phase,
    seq: Seq,
    adverts: VecDeque<QueuedAdvert>,
    ring: SenderRing,
    remote_ring: RemoteRing,
    max_chunk: u32,
    /// Adaptive re-entry: a send is currently paused waiting for a
    /// resync ADVERT instead of going indirect.
    waiting_resync: bool,
    /// Consecutive waits abandoned with the ring drained and no usable
    /// ADVERT; at `policy.effective_max_resync_rtts()` the policy
    /// latches off until the next successful direct transfer.
    failed_waits: u32,
}

impl SenderHalf {
    /// Creates the sender half for a connection whose peer owns the given
    /// intermediate ring, with adaptive re-entry disabled.
    pub fn new(mode: ProtocolMode, remote_ring: RemoteRing, max_chunk: u32) -> Self {
        SenderHalf::with_policy(mode, remote_ring, max_chunk, DirectPolicy::default())
    }

    /// Creates the sender half with an explicit [`DirectPolicy`]
    /// governing when a send pauses for a Fig. 4–5 resynchronization
    /// rather than falling back to the intermediate buffer.
    pub fn with_policy(
        mode: ProtocolMode,
        remote_ring: RemoteRing,
        max_chunk: u32,
        policy: DirectPolicy,
    ) -> Self {
        assert!(max_chunk > 0, "max WWI chunk must be positive");
        SenderHalf {
            mode,
            policy,
            phase: Phase::ZERO,
            seq: Seq::ZERO,
            adverts: VecDeque::new(),
            ring: SenderRing::new(remote_ring.capacity),
            remote_ring,
            max_chunk,
            waiting_resync: false,
            failed_waits: 0,
        }
    }

    /// Current phase (`P_s`).
    pub fn phase(&self) -> Phase {
        self.phase
    }

    /// Current stream position (`S_s`).
    pub fn seq(&self) -> Seq {
        self.seq
    }

    /// Queued, not-yet-consumed ADVERTs.
    pub fn advert_queue_len(&self) -> usize {
        self.adverts.len()
    }

    /// Queues an ADVERT received from the peer.
    ///
    /// An ADVERT carrying an indirect phase (Lemma 1 says a correct
    /// receiver never emits one), zero length, or a zero-length
    /// remaining window is a protocol violation — typed error, not a
    /// panic, since the phase word comes straight off the wire.
    pub fn push_advert(
        &mut self,
        advert: Advert,
        stats: &mut ConnStats,
    ) -> Result<(), ProtocolError> {
        stats.adverts_received += 1;
        if advert.phase.is_indirect() || advert.len == 0 {
            return Err(ProtocolError::BadAdvert);
        }
        if self.mode.buffered_only() {
            // The buffered-only baselines ignore ADVERTs entirely (the
            // peer should not send any, but tolerate mixed configs).
            stats.adverts_discarded += 1;
            return Ok(());
        }
        self.adverts.push_back(QueuedAdvert { advert, filled: 0 });
        Ok(())
    }

    /// Applies an ACK: the receiver freed `n` intermediate-buffer bytes.
    ///
    /// A freed count exceeding the bytes actually in flight is a
    /// flow-control violation by the peer.
    pub fn on_ack(&mut self, freed: u64, stats: &mut ConnStats) -> Result<(), ProtocolError> {
        stats.acks_received += 1;
        self.ring
            .checked_release(freed)
            .ok_or(ProtocolError::AckUnderflow)
    }

    /// Plans the next WWI for a send with `remaining` unsent bytes,
    /// following Fig. 2. Returns `None` when the send must wait for an
    /// ADVERT or ACK. The plan is committed to protocol state (sequence
    /// number, phase, advert fill, ring reservation) — the caller *must*
    /// issue the corresponding WWI.
    pub fn plan_transfer(&mut self, remaining: u64, stats: &mut ConnStats) -> Option<WwiPlan> {
        assert!(remaining > 0, "plan_transfer with nothing to send");

        // Fig. 2 lines 1–16: scan the ADVERT queue.
        while let Some(head) = self.adverts.front().copied() {
            let a = head.advert;
            if self.phase.is_indirect() && (a.phase < self.phase || a.seq < self.seq) {
                // Lines 4–7: stale — discard, and if the ADVERT is from a
                // *newer* phase, jump past that whole phase so none of its
                // successors can falsely match (Fig. 8 fix).
                if self.phase < a.phase {
                    self.phase = a.phase.next();
                }
                self.adverts.pop_front();
                stats.adverts_discarded += 1;
                continue;
            }
            // Lines 8–14: usable ADVERT.
            if self.phase.is_indirect() {
                // Resynchronize: the receiver caught up. The paper's text
                // requires an exact sequence match here; the invariant is
                // checked in debug builds (Theorem 1 guarantees it).
                debug_assert_eq!(
                    a.seq, self.seq,
                    "accepted ADVERT with mismatched sequence at resync"
                );
                self.phase = a.phase;
                stats.mode_switches += 1;
            } else {
                debug_assert_eq!(
                    a.phase, self.phase,
                    "Lemma 4 violated: direct-phase sender saw mismatched ADVERT phase"
                );
            }
            let space = a.len - head.filled;
            debug_assert!(space > 0, "fully-filled ADVERT left in queue");
            // One WWI per advert match: the receiver's completion logic
            // keys off single transfers, so direct chunks are bounded by
            // the advertised buffer, not by max_chunk (which only splits
            // indirect ring writes). The immediate-data encoding caps a
            // single transfer at 2 GiB − 1.
            let len = (remaining.min(space as u64)).min(crate::messages::MAX_WWI_LEN as u64) as u32;
            let raddr = a.addr + head.filled as u64;
            self.seq.advance(len as u64);
            let new_filled = head.filled + len;
            // A WAITALL advert stays at the head until completely filled
            // (paper §II-C); any other advert is consumed by one WWI.
            let keep = new_filled < a.len && a.waitall;
            if keep {
                self.adverts.front_mut().expect("head exists").filled = new_filled;
            } else {
                self.adverts.pop_front();
            }
            stats.direct_transfers += 1;
            stats.direct_bytes += len as u64;
            // A direct transfer settles any resync bet and re-arms the
            // adaptive-re-entry hysteresis.
            if self.waiting_resync {
                self.waiting_resync = false;
                stats.resyncs_completed += 1;
            }
            self.failed_waits = 0;
            return Some(WwiPlan {
                raddr,
                rkey: a.rkey,
                len,
                indirect: false,
            });
        }

        // Fig. 2 lines 17–25: no usable ADVERT — go through the
        // intermediate buffer if allowed and there is room.
        if self.mode == ProtocolMode::DirectOnly {
            return None;
        }
        if self.should_wait_for_direct(remaining, stats) {
            return None;
        }
        let want = remaining.min(self.max_chunk as u64);
        let (offset, len) = self.ring.contiguous_reservation(want);
        if len == 0 {
            return None;
        }
        if self.phase.is_direct() {
            self.phase = self.phase.next();
            stats.mode_switches += 1;
        }
        self.ring.commit(len);
        self.seq.advance(len);
        stats.indirect_transfers += 1;
        stats.indirect_bytes += len;
        Some(WwiPlan {
            raddr: self.remote_ring.addr + offset,
            rkey: self.remote_ring.rkey,
            len: len as u32,
            indirect: true,
        })
    }

    /// True while a send is paused betting on a resync ADVERT.
    pub fn waiting_resync(&self) -> bool {
        self.waiting_resync
    }

    /// Adaptive direct-mode re-entry (`ExsConfig::direct`): decides
    /// whether a send with no usable ADVERT should *pause* (return
    /// `None` from [`SenderHalf::plan_transfer`]) rather than fall back
    /// to the intermediate buffer.
    ///
    /// The bet: when the receiver runs a pre-posted receive queue, the
    /// ring's drain-empty transition makes the Fig. 3 gate re-advertise
    /// every queued receive, and those ADVERTs travel in the same FIFO
    /// control flush as the final ACK — so by the time the sender
    /// observes `in_use() == 0`, any resync ADVERT the receiver was
    /// going to send has already been delivered. An event that leaves
    /// the ring drained with still no usable ADVERT is therefore a
    /// *failed* wait: resume indirect, and after
    /// `effective_max_resync_rtts()` consecutive failures latch the
    /// policy off until a direct transfer proves the peer is advertising
    /// again. The pause itself only engages for sends of at least
    /// `min_direct_size` bytes, and — while in an indirect phase — only
    /// when the un-ACKed backlog is small enough
    /// (`effective_resync_backlog`) that waiting rides a short drain
    /// instead of stalling a behind receiver.
    ///
    /// Liveness caveat (documented in `DESIGN.md` §13): a paused send
    /// resumes on the next control message from the peer, so the policy
    /// assumes a receiver that keeps reading to end-of-stream — the
    /// shape every reactor/fan-in workload here has. It is opt-in and
    /// off by default.
    fn should_wait_for_direct(&mut self, remaining: u64, stats: &mut ConnStats) -> bool {
        if !self.policy.enabled() || self.mode != ProtocolMode::Dynamic {
            return false;
        }
        if remaining < self.policy.min_direct_size {
            return false;
        }
        if self.waiting_resync {
            // The lost-bet signal only exists for an indirect-phase
            // wait: ACKs and resync ADVERTs share one FIFO control
            // flush, so a drained ring with no usable ADVERT means the
            // receiver had nothing to advertise. In a *direct* phase a
            // zero backlog is the steady state — an unrelated
            // completion must not cancel the wait; the next ADVERT
            // matches by construction.
            if self.phase.is_indirect() && self.ring.in_use() == 0 {
                self.waiting_resync = false;
                self.failed_waits += 1;
                return false;
            }
            return true;
        }
        if self.failed_waits >= self.policy.effective_max_resync_rtts() {
            return false;
        }
        let worth_it = if self.phase.is_direct() {
            // Direct phase with an empty advert queue: the next ADVERT
            // matches by construction — always worth waiting.
            true
        } else {
            self.ring.in_use() <= self.policy.effective_resync_backlog(self.ring.capacity())
        };
        if worth_it {
            self.waiting_resync = true;
            stats.resyncs_attempted += 1;
        }
        worth_it
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring() -> RemoteRing {
        RemoteRing {
            addr: 0x100000,
            rkey: 7,
            capacity: 1000,
        }
    }

    fn half(mode: ProtocolMode) -> (SenderHalf, ConnStats) {
        (SenderHalf::new(mode, ring(), 1 << 30), ConnStats::default())
    }

    fn advert(seq: u64, phase: u32, addr: u64, len: u32, waitall: bool) -> Advert {
        Advert {
            seq: Seq(seq),
            phase: Phase(phase),
            addr,
            len,
            rkey: 99,
            waitall,
        }
    }

    #[test]
    fn direct_when_advert_available() {
        let (mut s, mut st) = half(ProtocolMode::Dynamic);
        s.push_advert(advert(0, 0, 0x2000, 100, false), &mut st)
            .unwrap();
        let plan = s.plan_transfer(50, &mut st).unwrap();
        assert_eq!(
            plan,
            WwiPlan {
                raddr: 0x2000,
                rkey: 99,
                len: 50,
                indirect: false
            }
        );
        assert_eq!(s.seq(), Seq(50));
        assert!(s.phase().is_direct());
        // Non-WAITALL advert consumed by a single (final) transfer.
        assert_eq!(s.advert_queue_len(), 0);
        assert_eq!(st.direct_transfers, 1);
        assert_eq!(st.mode_switches, 0);
    }

    #[test]
    fn large_send_splits_across_adverts() {
        let (mut s, mut st) = half(ProtocolMode::Dynamic);
        s.push_advert(advert(0, 0, 0x2000, 100, false), &mut st)
            .unwrap();
        s.push_advert(advert(101, 0, 0x3000, 100, false), &mut st)
            .unwrap();
        // 150-byte send: 100 into the first advert, 50 into the second.
        let p1 = s.plan_transfer(150, &mut st).unwrap();
        assert_eq!((p1.raddr, p1.len), (0x2000, 100));
        let p2 = s.plan_transfer(50, &mut st).unwrap();
        assert_eq!((p2.raddr, p2.len), (0x3000, 50));
        assert_eq!(s.seq(), Seq(150));
    }

    #[test]
    fn small_send_consumes_non_waitall_advert() {
        // A 10-byte send into a 100-byte non-WAITALL advert consumes the
        // advert entirely: the receive completes with 10 bytes.
        let (mut s, mut st) = half(ProtocolMode::Dynamic);
        s.push_advert(advert(0, 0, 0x2000, 100, false), &mut st)
            .unwrap();
        let p = s.plan_transfer(10, &mut st).unwrap();
        assert_eq!(p.len, 10);
        assert_eq!(s.advert_queue_len(), 0);
    }

    #[test]
    fn waitall_advert_stays_until_filled() {
        let (mut s, mut st) = half(ProtocolMode::Dynamic);
        s.push_advert(advert(0, 0, 0x2000, 100, true), &mut st)
            .unwrap();
        let p1 = s.plan_transfer(40, &mut st).unwrap();
        assert_eq!((p1.raddr, p1.len), (0x2000, 40));
        assert_eq!(s.advert_queue_len(), 1, "WAITALL advert retained");
        let p2 = s.plan_transfer(30, &mut st).unwrap();
        assert_eq!((p2.raddr, p2.len), (0x2000 + 40, 30));
        let p3 = s.plan_transfer(30, &mut st).unwrap();
        assert_eq!((p3.raddr, p3.len), (0x2000 + 70, 30));
        assert_eq!(s.advert_queue_len(), 0, "released once full");
    }

    #[test]
    fn indirect_when_no_advert() {
        let (mut s, mut st) = half(ProtocolMode::Dynamic);
        let p = s.plan_transfer(300, &mut st).unwrap();
        assert!(p.indirect);
        assert_eq!(p.raddr, ring().addr);
        assert_eq!(p.len, 300);
        assert!(s.phase().is_indirect());
        assert_eq!(st.mode_switches, 1);
        assert_eq!(s.ring.in_use(), 300);
        // Second chunk continues at offset 300.
        let p2 = s.plan_transfer(100, &mut st).unwrap();
        assert_eq!(p2.raddr, ring().addr + 300);
        assert_eq!(st.mode_switches, 1, "staying indirect is not a switch");
    }

    #[test]
    fn indirect_splits_at_wrap() {
        let (mut s, mut st) = half(ProtocolMode::Dynamic);
        s.plan_transfer(900, &mut st).unwrap();
        s.on_ack(900, &mut st).unwrap(); // buffer empty again, cursor at 900
        let p = s.plan_transfer(500, &mut st).unwrap();
        assert_eq!((p.raddr - ring().addr, p.len), (900, 100));
        let p2 = s.plan_transfer(400, &mut st).unwrap();
        assert_eq!((p2.raddr - ring().addr, p2.len), (0, 400));
    }

    #[test]
    fn blocks_when_buffer_full_and_no_advert() {
        let (mut s, mut st) = half(ProtocolMode::Dynamic);
        assert!(s.plan_transfer(1000, &mut st).is_some());
        assert!(s.plan_transfer(1, &mut st).is_none(), "buffer full");
        s.on_ack(200, &mut st).unwrap();
        let p = s.plan_transfer(500, &mut st).unwrap();
        assert_eq!(p.len, 200, "limited by freed space");
    }

    #[test]
    fn direct_only_waits_for_adverts() {
        let (mut s, mut st) = half(ProtocolMode::DirectOnly);
        assert!(s.plan_transfer(100, &mut st).is_none());
        s.push_advert(advert(0, 0, 0x2000, 100, false), &mut st)
            .unwrap();
        assert!(!s.plan_transfer(100, &mut st).unwrap().indirect);
    }

    #[test]
    fn indirect_only_ignores_adverts() {
        let (mut s, mut st) = half(ProtocolMode::IndirectOnly);
        s.push_advert(advert(0, 0, 0x2000, 100, false), &mut st)
            .unwrap();
        assert_eq!(s.advert_queue_len(), 0);
        assert_eq!(st.adverts_discarded, 1);
        assert!(s.plan_transfer(100, &mut st).unwrap().indirect);
    }

    #[test]
    fn stale_advert_discarded_by_phase() {
        let (mut s, mut st) = half(ProtocolMode::Dynamic);
        // Go indirect (phase 1).
        s.plan_transfer(10, &mut st).unwrap();
        assert_eq!(s.phase(), Phase(1));
        // An advert from the old direct phase 0 crosses on the wire:
        // discarded even though its seq (10) matches.
        s.push_advert(advert(10, 0, 0x2000, 100, false), &mut st)
            .unwrap();
        let p = s.plan_transfer(10, &mut st).unwrap();
        assert!(p.indirect, "stale advert must not be matched");
        assert_eq!(st.adverts_discarded, 1);
        assert_eq!(s.phase(), Phase(1), "older phase does not bump P_s");
    }

    #[test]
    fn stale_advert_discarded_by_seq_bumps_phase() {
        // Fig. 8: an ADVERT from a *newer* phase but with an old sequence
        // number must drop the sender past that phase entirely.
        let (mut s, mut st) = half(ProtocolMode::Dynamic);
        s.plan_transfer(100, &mut st).unwrap(); // indirect, phase 1, seq 100
                                                // The receiver resynchronized too early: advert for phase 2 with
                                                // seq 50 (data still in flight).
        s.push_advert(advert(50, 2, 0x2000, 100, false), &mut st)
            .unwrap();
        let p = s.plan_transfer(10, &mut st).unwrap();
        assert!(p.indirect);
        assert_eq!(st.adverts_discarded, 1);
        assert_eq!(s.phase(), Phase(3), "sender jumps past the dead phase");
        // A successor advert from the dead phase 2 whose seq happens to
        // match S_s must also be discarded (the Fig. 8 incorrect match).
        s.push_advert(advert(110, 2, 0x3000, 100, false), &mut st)
            .unwrap();
        let p = s.plan_transfer(10, &mut st).unwrap();
        assert!(p.indirect, "phase-2 successor advert must not match");
        assert_eq!(st.adverts_discarded, 2);
    }

    #[test]
    fn resync_to_matching_advert() {
        let (mut s, mut st) = half(ProtocolMode::Dynamic);
        s.plan_transfer(100, &mut st).unwrap(); // indirect, phase 1, seq 100
                                                // Receiver consumed everything and resynchronized: phase 2,
                                                // seq exactly 100.
        s.push_advert(advert(100, 2, 0x2000, 64, false), &mut st)
            .unwrap();
        let p = s.plan_transfer(64, &mut st).unwrap();
        assert!(!p.indirect);
        assert_eq!(s.phase(), Phase(2));
        assert_eq!(st.mode_switches, 2, "indirect→direct counted");
        assert_eq!(s.seq(), Seq(164));
    }

    #[test]
    fn indirect_chunking_respects_max_chunk() {
        let mut s = SenderHalf::new(
            ProtocolMode::Dynamic,
            RemoteRing {
                addr: 0,
                rkey: 1,
                capacity: 10_000,
            },
            128,
        );
        let mut st = ConnStats::default();
        let p = s.plan_transfer(1000, &mut st).unwrap();
        assert!(p.indirect);
        assert_eq!(p.len, 128);
        // Direct transfers are NOT chunk-capped: one WWI per advert
        // match, bounded only by the advertised buffer.
        s.on_ack(128, &mut st).unwrap();
        s.push_advert(advert(128, 2, 0x2000, 1000, false), &mut st)
            .unwrap();
        let p = s.plan_transfer(1000, &mut st).unwrap();
        assert_eq!((p.raddr, p.len), (0x2000, 1000));
    }

    #[test]
    #[should_panic(expected = "nothing to send")]
    fn zero_remaining_panics() {
        let (mut s, mut st) = half(ProtocolMode::Dynamic);
        s.plan_transfer(0, &mut st);
    }

    fn policy_half(policy: DirectPolicy) -> (SenderHalf, ConnStats) {
        (
            SenderHalf::with_policy(ProtocolMode::Dynamic, ring(), 1 << 30, policy),
            ConnStats::default(),
        )
    }

    #[test]
    fn policy_pauses_large_send_until_advert() {
        let (mut s, mut st) = policy_half(DirectPolicy {
            min_direct_size: 100,
            ..DirectPolicy::default()
        });
        // Large send, direct phase, no advert: pause instead of indirect.
        assert!(s.plan_transfer(500, &mut st).is_none());
        assert!(s.waiting_resync());
        assert_eq!(st.resyncs_attempted, 1);
        assert_eq!(st.indirect_transfers, 0);
        // The advert arrives: the paused send goes direct.
        s.push_advert(advert(0, 0, 0x2000, 500, false), &mut st)
            .unwrap();
        let p = s.plan_transfer(500, &mut st).unwrap();
        assert!(!p.indirect);
        assert!(!s.waiting_resync());
        assert_eq!(st.resyncs_completed, 1);
    }

    #[test]
    fn policy_ignores_small_sends() {
        let (mut s, mut st) = policy_half(DirectPolicy {
            min_direct_size: 100,
            ..DirectPolicy::default()
        });
        let p = s.plan_transfer(99, &mut st).unwrap();
        assert!(p.indirect, "below min_direct_size goes indirect at once");
        assert_eq!(st.resyncs_attempted, 0);
    }

    #[test]
    fn policy_waits_through_backlog_then_resyncs() {
        let (mut s, mut st) = policy_half(DirectPolicy {
            min_direct_size: 100,
            ..DirectPolicy::default()
        });
        s.plan_transfer(99, &mut st).unwrap(); // small → indirect, phase 1
        assert!(s.phase().is_indirect());
        // Large send with 99 un-ACKed bytes: backlog default allows the
        // pause; the wait rides the drain.
        assert!(s.plan_transfer(500, &mut st).is_none());
        assert!(s.waiting_resync());
        // Receiver drains: ACK first, resync ADVERT right behind it in
        // the same FIFO control flush.
        s.on_ack(99, &mut st).unwrap();
        s.push_advert(advert(99, 2, 0x2000, 500, false), &mut st)
            .unwrap();
        let p = s.plan_transfer(500, &mut st).unwrap();
        assert!(!p.indirect);
        assert_eq!(st.resyncs_completed, 1);
        assert_eq!(st.mode_switches, 2);
    }

    #[test]
    fn policy_gives_up_when_drained_without_advert_and_latches_off() {
        let (mut s, mut st) = policy_half(DirectPolicy {
            min_direct_size: 100,
            max_resync_rtts: 2,
            ..DirectPolicy::default()
        });
        s.plan_transfer(99, &mut st).unwrap(); // small → indirect backlog
        for round in 0..2u32 {
            assert!(s.plan_transfer(500, &mut st).is_none(), "round {round}");
            s.on_ack(99, &mut st).unwrap(); // drained, no advert: bet lost
            let p = s.plan_transfer(500, &mut st).unwrap();
            assert!(p.indirect, "failed wait falls back to indirect");
            s.on_ack(p.len as u64, &mut st).unwrap();
            let p = s.plan_transfer(99, &mut st).unwrap(); // rebuild a backlog
            assert_eq!(p.len, 99);
        }
        assert_eq!(st.resyncs_attempted, 2);
        assert_eq!(st.resyncs_completed, 0);
        // Two consecutive failures: latched off until the next direct.
        let p = s.plan_transfer(500, &mut st).unwrap();
        assert!(p.indirect, "latched-off policy stops pausing");
        assert_eq!(st.resyncs_attempted, 2);
        // A direct transfer re-arms the policy.
        s.on_ack(99 + p.len as u64, &mut st).unwrap();
        s.push_advert(advert(s.seq().0, 2, 0x2000, 64, false), &mut st)
            .unwrap();
        assert!(!s.plan_transfer(64, &mut st).unwrap().indirect);
        assert!(s.plan_transfer(500, &mut st).is_none(), "re-armed pause");
        assert_eq!(st.resyncs_attempted, 3);
    }

    #[test]
    fn policy_backlog_veto_keeps_streaming() {
        let (mut s, mut st) = policy_half(DirectPolicy {
            min_direct_size: 100,
            resync_backlog: 50,
            ..DirectPolicy::default()
        });
        s.plan_transfer(99, &mut st).unwrap(); // small → indirect, phase 1
        let p = s.plan_transfer(500, &mut st).unwrap();
        assert!(p.indirect, "deep backlog (99 > 50) vetoes the pause");
        assert_eq!(st.resyncs_attempted, 0);
        // Receiver catches up: 39 un-ACKed ≤ 50 — now the pause engages.
        s.on_ack(560, &mut st).unwrap();
        assert!(s.plan_transfer(500, &mut st).is_none());
        assert_eq!(st.resyncs_attempted, 1);
    }

    #[test]
    fn indirect_phase_advert_is_typed_error() {
        let (mut s, mut st) = half(ProtocolMode::Dynamic);
        assert_eq!(
            s.push_advert(advert(0, 1, 0x2000, 100, false), &mut st),
            Err(ProtocolError::BadAdvert)
        );
        assert_eq!(s.advert_queue_len(), 0);
    }

    #[test]
    fn ack_underflow_is_typed_error() {
        let (mut s, mut st) = half(ProtocolMode::Dynamic);
        assert_eq!(s.on_ack(1, &mut st), Err(ProtocolError::AckUnderflow));
        s.plan_transfer(100, &mut st).unwrap(); // 100 in flight
        assert_eq!(s.on_ack(101, &mut st), Err(ProtocolError::AckUnderflow));
        assert_eq!(s.on_ack(100, &mut st), Ok(()));
    }

    #[test]
    fn policy_off_in_non_dynamic_modes() {
        let mut s = SenderHalf::with_policy(
            ProtocolMode::IndirectOnly,
            ring(),
            1 << 30,
            DirectPolicy {
                min_direct_size: 1,
                ..DirectPolicy::default()
            },
        );
        let mut st = ConnStats::default();
        assert!(s.plan_transfer(500, &mut st).unwrap().indirect);
        assert_eq!(st.resyncs_attempted, 0);
    }
}
