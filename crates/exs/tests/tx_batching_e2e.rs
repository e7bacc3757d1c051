//! End-to-end tests for the batched transmit pipeline: doorbell
//! postlists, selective signaling, and small-send coalescing.
//!
//! Three properties are pinned down here:
//!
//! 1. a `signal_interval` far beyond the SQ depth never deadlocks the
//!    stream (the near-full forced signal keeps reclamation alive);
//! 2. batching + coalescing deliver a byte-identical stream while
//!    ringing strictly fewer doorbells than the unbatched pipeline, and
//!    small messages go at least twice as fast;
//! 3. the simulated and the real-thread backend produce the same
//!    delivered-stream digest for the same coalesced+batched workload.

use std::time::Duration;

use blast::fan_in::{fnv1a, FNV_OFFSET};
use blast::figures::batching_spec;
use blast::{run_blast, BlastSpec, SizeDist, VerifyLevel};
use exs::threaded::ThreadStream;
use exs::{ExsConfig, ProtocolMode};
use rdma_verbs::{profiles, Access};

/// The blast workload's stream byte at offset `i` (must match
/// `blast::runner`'s pattern for the cross-backend digest comparison).
fn pattern(i: u64) -> u8 {
    (i % 251) as u8
}

/// A selective-signaling interval far beyond the SQ depth must not
/// deadlock: with (almost) every WQE unsignaled, slot reclamation
/// depends entirely on the forced signals at SQ-near-full and on
/// data-carrying flush boundaries. `run_blast` panics on a stalled
/// virtual clock, so completion is the assertion.
#[test]
fn huge_signal_interval_never_deadlocks() {
    for mode in [ProtocolMode::Dynamic, ProtocolMode::BCopy] {
        let report = run_blast(&BlastSpec {
            cfg: ExsConfig {
                sq_depth: 8,
                signal_interval: 1 << 20,
                ring_capacity: 64 << 10,
                credits: 32,
                ..ExsConfig::with_mode(mode)
            },
            outstanding_sends: 16,
            outstanding_recvs: 8,
            sizes: SizeDist::Fixed(512),
            messages: 200,
            verify: VerifyLevel::Full,
            seed: 11,
            ..BlastSpec::new(profiles::fdr_infiniband())
        });
        assert_eq!(report.bytes, 200 * 512, "mode {mode:?}");
        // The interval itself can never fire at depth 8; any signaled
        // WQE must come from a forced signal.
        assert!(
            report.sender.signaled_wqes > 0,
            "forced signals kept the SQ draining (mode {mode:?})"
        );
        assert!(
            report.sender.unsignaled_wqes > 0,
            "the huge interval should leave most WQEs unsignaled (mode {mode:?})"
        );
        assert!(!report.sender.cq_overflowed && !report.receiver.cq_overflowed);
    }
}

/// Batched + coalesced vs. unbatched (`tx_batch_limit = 1`): same
/// bytes, same digest, at least 2x fewer doorbells; and on the batching
/// table's blasts, at least twice the throughput at 512 B and below.
#[test]
fn batching_preserves_bytes_and_halves_doorbells() {
    let spec = |tx_batch_limit: usize| BlastSpec {
        cfg: ExsConfig {
            tx_batch_limit,
            sq_depth: 64,
            ring_capacity: 256 << 10,
            credits: 64,
            ..ExsConfig::with_mode(ProtocolMode::BCopy)
        },
        outstanding_sends: 8,
        outstanding_recvs: 8,
        sizes: SizeDist::Fixed(128),
        messages: 300,
        verify: VerifyLevel::Full,
        seed: 42,
        ..BlastSpec::new(profiles::fdr_infiniband())
    };
    let batched = run_blast(&spec(0));
    let unbatched = run_blast(&spec(1));

    assert_eq!(batched.bytes, 300 * 128);
    assert_eq!(batched.bytes, unbatched.bytes);
    assert_eq!(
        batched.digest, unbatched.digest,
        "batching must not change the delivered byte stream"
    );

    // The whole point: N WQEs per doorbell instead of one.
    assert!(
        batched.sender.doorbells * 2 <= unbatched.sender.doorbells,
        "batched {} doorbells should be at most half of unbatched {}",
        batched.sender.doorbells,
        unbatched.sender.doorbells,
    );
    assert!(batched.sender.mean_wqes_per_doorbell() > 1.0);
    assert!(batched.sender.max_wqes_per_doorbell > 1);

    // Coalescing: 128-byte messages under the 256-byte threshold share
    // staged WWIs.
    assert!(batched.sender.coalesced_msgs > 0);
    assert!(batched.sender.coalesced_bytes > 0);
    assert!(
        batched.sender.total_transfers() < unbatched.sender.total_transfers(),
        "coalesced runs should need fewer WWIs"
    );

    // Selective signaling: the unbatched pipeline signals everything.
    assert_eq!(unbatched.sender.unsignaled_wqes, 0);
    assert_eq!(unbatched.sender.coalesced_msgs, 0);
    assert!((unbatched.sender.mean_wqes_per_doorbell() - 1.0).abs() < 1e-9);
    assert!(batched.sender.unsignaled_ratio() > 0.0);

    assert!(!batched.sender.cq_overflowed && !batched.receiver.cq_overflowed);

    // The batching table's blasts (16 outstanding, 3 KiB coalescing
    // threshold): at 512 B and below, the same stream in fewer doorbells
    // at no less than twice the virtual throughput.
    for size in [64, 128, 256, 512] {
        let [on, off] = [0, 1].map(|limit| {
            run_blast(&BlastSpec {
                seed: 7,
                ..batching_spec(size, limit, 600)
            })
        });
        assert_eq!(on.digest, off.digest, "{size} B");
        assert!(on.sender.doorbells < off.sender.doorbells, "{size} B");
        assert!(on.sender.coalesced_msgs > 0, "{size} B");
        for r in [&on, &off] {
            assert!(!r.sender.cq_overflowed && !r.receiver.cq_overflowed);
        }
        assert!(
            on.throughput_mbps() >= 2.0 * off.throughput_mbps(),
            "{size} B: batched {:.1} vs unbatched {:.1} Mbit/s",
            on.throughput_mbps(),
            off.throughput_mbps()
        );
    }
}

/// Cross-backend byte identity: the same logical byte stream pushed
/// through the coalesced+batched BCopy path on the deterministic
/// simulator and on the real-thread backend must produce the same
/// FNV-1a digest (which both must share with the locally computed
/// reference digest of the pattern stream).
#[test]
fn sim_and_threaded_backends_deliver_identical_bytes() {
    const MSGS: usize = 160;
    const LEN: usize = 96;
    let total = MSGS * LEN;
    let bytes: Vec<u8> = (0..total as u64).map(pattern).collect();
    let expected = fnv1a(FNV_OFFSET, &bytes);

    let cfg = ExsConfig {
        sq_depth: 64,
        ring_capacity: 64 << 10,
        credits: 64,
        ..ExsConfig::with_mode(ProtocolMode::BCopy)
    };

    // Simulator side: the blast harness sends the same pattern stream.
    let sim = run_blast(&BlastSpec {
        cfg: cfg.clone(),
        outstanding_sends: 8,
        outstanding_recvs: 8,
        sizes: SizeDist::Fixed(LEN as u64),
        messages: MSGS,
        verify: VerifyLevel::Full,
        seed: 9,
        ..BlastSpec::new(profiles::fdr_infiniband())
    });
    assert_eq!(sim.digest, expected, "simulator digest mismatch");
    assert!(sim.sender.coalesced_msgs > 0);
    assert!(sim.sender.mean_wqes_per_doorbell() > 1.0);

    // Threaded side: same messages, issued without waiting so the
    // pipeline can coalesce and batch; the receiver folds the stream
    // through deliberately misaligned chunk sizes (chunking must not
    // affect an FNV fold).
    let (a, b) = ThreadStream::pair(&cfg, Duration::ZERO);
    let reader = std::thread::spawn(move || {
        let mut digest = FNV_OFFSET;
        let mut got = 0usize;
        let mut chunk = 7usize;
        let mut buf = vec![0u8; 1024];
        while got < total {
            let take = chunk.min(total - got).min(buf.len());
            b.recv_exact(&mut buf[..take]).expect("threaded receive");
            digest = fnv1a(digest, &buf[..take]);
            got += take;
            chunk = chunk * 3 + 1;
            if chunk > 1024 {
                chunk = 5;
            }
        }
        digest
    });

    let mr = a.register(total, Access::NONE);
    a.node()
        .with_hca(|h| h.mem_mut().app_write(mr.key, mr.addr, &bytes))
        .expect("fill send buffer");
    let ids: Vec<u64> = (0..MSGS)
        .map(|m| a.send(&mr, (m * LEN) as u64, LEN as u64))
        .collect();
    a.flush();
    for id in ids {
        assert!(
            a.wait_send(id, Duration::from_secs(30)).is_some(),
            "threaded send timed out"
        );
    }
    let threaded_digest = reader.join().expect("reader thread");

    assert_eq!(threaded_digest, expected, "threaded digest mismatch");
    assert_eq!(threaded_digest, sim.digest);

    let st = a.stats();
    assert_eq!(st.bytes_sent, total as u64);
    assert!(st.doorbells > 0);
    assert!(st.wqes_posted >= st.doorbells);
    assert!(!st.cq_overflowed);
}

/// `ThreadStream::stats` folds the CQ gauges in: they used to stay
/// structurally zero on the thread backend, which made the
/// `cq_overflowed` check above vacuous.
#[test]
fn thread_stream_stats_report_the_cq_gauges() {
    const MSGS: usize = 64;
    let (a, b) = ThreadStream::pair(&ExsConfig::default(), Duration::ZERO);
    let reader = std::thread::spawn(move || {
        let mut buf = [0u8; 64];
        for _ in 0..MSGS {
            b.recv_exact(&mut buf).expect("threaded receive");
        }
        b.stats()
    });
    for m in 0..MSGS {
        a.send_bytes(&[m as u8; 64]).expect("threaded send");
    }
    let rx = reader.join().expect("reader thread");
    for (side, st) in [("sender", a.stats()), ("receiver", rx)] {
        assert!(st.cq_nonempty_polls > 0, "{side}: {st:?}");
        assert!(st.cq_max_batch >= 1, "{side}: {st:?}");
        assert!(!st.cq_overflowed, "{side}");
    }
}
