//! `thread_stream_bulk` and `thread_pingpong`: the thread backend —
//! real threads, real locks, an in-memory "link", no simulator code.
//!
//! The calling thread is the load generator; one more thread receives
//! (bulk) or echoes (ping-pong). Each `ThreadStream` additionally runs
//! its own service thread and the fabric two link threads, which is
//! the machinery under test.

use std::time::{Duration, Instant};

use blast::fan_in::{expected_digest, fnv1a, payload_byte, FNV_OFFSET};
use exs::ThreadStream;
use rdma_verbs::{Access, MrInfo};

use super::{conn_cfg, conn_counts, timed, Purpose, Rep, Size, Values};
use crate::span::{Kind, Recorder};

/// Bulk message size.
const BULK_LEN: u64 = 64 << 10;
/// Bulk sends (and posted receives) kept in flight.
const BULK_DEPTH: usize = 4;
/// Ping-pong payload size.
const PING_LEN: usize = 64;
/// A blocked call that outlives this lost a wake; the repetition fails
/// instead of hanging.
const OP_TIMEOUT: Duration = Duration::from_secs(30);

/// A `ThreadStream` whose calls are recorded as spans when a recorder
/// is attached (the traced pass) and are plain calls otherwise.
struct Endpoint<'a> {
    stream: &'a ThreadStream,
    rec: Option<&'a mut Recorder>,
}

impl Endpoint<'_> {
    fn span<R>(&mut self, kind: Kind, msg_id: u64, f: impl FnOnce(&ThreadStream) -> R) -> R {
        match &mut self.rec {
            None => f(self.stream),
            Some(rec) => {
                rec.enter(kind, msg_id);
                let r = f(self.stream);
                rec.exit();
                r
            }
        }
    }

    fn send(&mut self, msg: u64, mr: &MrInfo, len: u64) -> u64 {
        self.span(Kind::StreamSend, msg, |s| s.send(mr, 0, len))
    }

    fn wait_send(&mut self, msg: u64, id: u64) -> Option<u64> {
        self.span(Kind::StreamWaitSend, msg, |s| s.wait_send(id, OP_TIMEOUT))
    }

    fn recv(&mut self, msg: u64, mr: &MrInfo, len: u32) -> u64 {
        self.span(Kind::StreamRecv, msg, |s| s.recv(mr, 0, len, true))
    }

    fn wait_recv(&mut self, msg: u64, id: u64) -> Option<u32> {
        self.span(Kind::StreamWaitRecv, msg, |s| s.wait_recv(id, OP_TIMEOUT))
    }

    fn send_bytes(&mut self, msg: u64, data: &[u8]) -> bool {
        self.span(Kind::SendBytes, msg, |s| s.send_bytes(data).is_ok())
    }

    fn recv_exact(&mut self, msg: u64, buf: &mut [u8]) -> bool {
        self.span(Kind::RecvExact, msg, |s| s.recv_exact(buf).is_ok())
    }
}

/// Recorders for a traced repetition: the generator thread's and the
/// peer (receiver or echo) thread's.
pub struct ThreadRecorders<'a> {
    pub generator: &'a mut Recorder,
    pub peer: &'a mut Recorder,
}

fn split(recs: Option<ThreadRecorders<'_>>) -> (Option<&mut Recorder>, Option<&mut Recorder>) {
    match recs {
        Some(r) => (Some(r.generator), Some(r.peer)),
        None => (None, None),
    }
}

fn write_mr(stream: &ThreadStream, mr: &MrInfo, data: &[u8]) {
    stream
        .node()
        .with_hca(|h| h.mem_mut().app_write(mr.key, mr.addr, data))
        .expect("writing a registered send buffer");
}

fn read_mr(stream: &ThreadStream, mr: &MrInfo, buf: &mut [u8]) {
    stream
        .node()
        .with_hca(|h| h.mem().app_read(mr.key, mr.addr, buf))
        .expect("reading a registered receive buffer");
}

/// Counts both endpoints report after the transfer. On the thread
/// backend these depend on how the threads raced, so they are `real`
/// values, never exact ones.
fn conn_values(a: &ThreadStream, b: &ThreadStream, msgs: u64, notifies: u64) -> Values {
    let mut v = conn_counts(&a.stats(), &b.stats(), msgs);
    // `ThreadStream::stats` does not fold the CQ gauges in.
    v.remove("rdma-verbs.cq_max_batch");
    v.insert(
        "rdma-verbs.thread_notifies_per_msg",
        notifies as f64 / msgs as f64,
    );
    v
}

/// One `thread_stream_bulk` repetition: `msgs` 64 KiB messages,
/// [`BULK_DEPTH`] deep, through `register`/`send`/`wait_send` on one
/// side and `recv`/`wait_recv` on the other.
pub fn run_bulk(size: Size, seed: u64, purpose: Purpose, recs: Option<ThreadRecorders<'_>>) -> Rep {
    let check = purpose == Purpose::Check;
    // Filling, reading back and digesting every payload byte costs
    // several times the transfer, so the check repetition is shorter.
    let msgs: u64 = match (size, check) {
        (Size::Full, false) => 16_000,
        (Size::Full, true) => 4_000,
        (Size::Quick, _) => 2_000,
    };
    let (gen_rec, peer_rec) = split(recs);

    let t0 = Instant::now();
    let (mut a, mut b) = ThreadStream::pair(&conn_cfg(), Duration::ZERO);
    let send_mrs: Vec<MrInfo> = (0..BULK_DEPTH)
        .map(|_| a.register(BULK_LEN as usize, Access::NONE))
        .collect();
    let recv_mrs: Vec<MrInfo> = (0..BULK_DEPTH)
        .map(|_| b.register(BULK_LEN as usize, Access::local_remote_write()))
        .collect();
    let setup_s = t0.elapsed().as_secs_f64();
    let notifies_before = a.node().generation() + b.node().generation();

    let ((sent_ok, received), wall_s, cpu_s) = timed(|| {
        std::thread::scope(|scope| {
            let receiver = scope.spawn(|| {
                let mut ep = Endpoint {
                    stream: &b,
                    rec: peer_rec,
                };
                let mut ids: Vec<u64> = (0..BULK_DEPTH.min(msgs as usize))
                    .map(|slot| ep.recv(slot as u64, &recv_mrs[slot], BULK_LEN as u32))
                    .collect();
                let mut buf = vec![0u8; if check { BULK_LEN as usize } else { 0 }];
                let (mut bytes, mut digest) = (0u64, FNV_OFFSET);
                for msg in 0..msgs {
                    let slot = msg as usize % BULK_DEPTH;
                    let Some(len) = ep.wait_recv(msg, ids[slot]) else {
                        break;
                    };
                    bytes += u64::from(len);
                    if check {
                        read_mr(&b, &recv_mrs[slot], &mut buf[..len as usize]);
                        digest = fnv1a(digest, &buf[..len as usize]);
                    }
                    if msg + (BULK_DEPTH as u64) < msgs {
                        ids[slot] = ep.recv(msg, &recv_mrs[slot], BULK_LEN as u32);
                    }
                }
                (bytes, digest)
            });

            let mut ep = Endpoint {
                stream: &a,
                rec: gen_rec,
            };
            let mut ids = [0u64; BULK_DEPTH];
            let mut pattern = vec![0u8; if check { BULK_LEN as usize } else { 0 }];
            let mut sent_ok = true;
            for msg in 0..msgs {
                let slot = msg as usize % BULK_DEPTH;
                if msg >= BULK_DEPTH as u64 && ep.wait_send(msg, ids[slot]).is_none() {
                    sent_ok = false;
                    break;
                }
                if check {
                    for (i, byte) in pattern.iter_mut().enumerate() {
                        *byte = payload_byte(seed, 0, msg * BULK_LEN + i as u64);
                    }
                    write_mr(&a, &send_mrs[slot], &pattern);
                }
                ids[slot] = ep.send(msg, &send_mrs[slot], BULK_LEN);
            }
            if sent_ok {
                for msg in msgs.saturating_sub(BULK_DEPTH as u64)..msgs {
                    sent_ok &= ep.wait_send(msg, ids[msg as usize % BULK_DEPTH]).is_some();
                }
            }
            (sent_ok, receiver.join().expect("receiver thread panicked"))
        })
    });

    let notifies = a.node().generation() + b.node().generation() - notifies_before;
    let real = conn_values(&a, &b, msgs, notifies);
    let (bytes, digest) = received;
    let mut delivered = sent_ok && bytes == msgs * BULK_LEN && a.stats().bytes_sent == bytes;
    if check {
        delivered &= digest == expected_digest(seed, 0, msgs * BULK_LEN);
    }
    a.close();
    b.close();
    Rep {
        msgs,
        failed: if delivered { 0 } else { msgs },
        setup_s,
        wall_s,
        cpu_s,
        real,
        ..Rep::default()
    }
}

/// One `thread_pingpong` repetition: `msgs` 64 B round trips by
/// `send_bytes`/`recv_exact`, one client, one echo thread. Every echo
/// is compared with what was sent.
pub fn run_pingpong(
    size: Size,
    seed: u64,
    purpose: Purpose,
    recs: Option<ThreadRecorders<'_>>,
) -> Rep {
    let msgs: u64 = match size {
        Size::Full => 5_000,
        Size::Quick => 1_000,
    };
    let (gen_rec, peer_rec) = split(recs);

    let t0 = Instant::now();
    let (mut a, mut b) = ThreadStream::pair(&conn_cfg(), Duration::ZERO);
    // The staging path leases its buffers from the node pools; one
    // lease per side warms them the way a first message would.
    drop(a.acquire(PING_LEN, Access::NONE));
    drop(b.acquire(PING_LEN, Access::local_remote_write()));
    let setup_s = t0.elapsed().as_secs_f64();
    let notifies_before = a.node().generation() + b.node().generation();

    let mut rtts_ns = Vec::with_capacity(msgs as usize);
    let ((mismatches, digest), wall_s, cpu_s) = timed(|| {
        std::thread::scope(|scope| {
            let echo = scope.spawn(|| {
                let mut ep = Endpoint {
                    stream: &b,
                    rec: peer_rec,
                };
                let mut buf = [0u8; PING_LEN];
                for msg in 0..msgs {
                    if !(ep.recv_exact(msg, &mut buf) && ep.send_bytes(msg, &buf)) {
                        break;
                    }
                }
            });

            let mut ep = Endpoint {
                stream: &a,
                rec: gen_rec,
            };
            let (mut ping, mut pong) = ([0u8; PING_LEN], [0u8; PING_LEN]);
            let (mut mismatches, mut digest) = (0u64, FNV_OFFSET);
            for msg in 0..msgs {
                for (i, byte) in ping.iter_mut().enumerate() {
                    *byte = payload_byte(seed, 0, msg * PING_LEN as u64 + i as u64);
                }
                let t = Instant::now();
                let ok = ep.send_bytes(msg, &ping) && ep.recv_exact(msg, &mut pong);
                rtts_ns.push(t.elapsed().as_nanos() as f64);
                if !ok {
                    // The stream is dead; every remaining trip fails.
                    mismatches += msgs - msg;
                    break;
                }
                if ping != pong {
                    mismatches += 1;
                }
                digest = fnv1a(digest, &pong);
            }
            echo.join().expect("echo thread panicked");
            (mismatches, digest)
        })
    });

    let notifies = a.node().generation() + b.node().generation() - notifies_before;
    let mut real = conn_values(&a, &b, msgs, notifies);
    real.insert("exs.pool.hit_ratio", a.pool().stats().hit_rate());
    let mut failed = mismatches;
    if purpose == Purpose::Check
        && failed == 0
        && digest != expected_digest(seed, 0, msgs * PING_LEN as u64)
    {
        failed = msgs;
    }
    a.close();
    b.close();
    Rep {
        msgs,
        failed,
        setup_s,
        wall_s,
        cpu_s,
        real,
        rtts_ns,
        ..Rep::default()
    }
}

/// Per-layer values of a traced thread repetition: mean time inside
/// each `ThreadStream` call (issuing calls are busy time, `wait_*`
/// calls are time the generator or receiver spent blocked), and the
/// generator's own time between calls.
pub fn trace_values(generator: &Recorder, peer: &Recorder, msgs: u64, wall_s: f64) -> Values {
    let mean = |rec: &Recorder, kind: Kind| {
        let agg = rec.agg(kind);
        super::ratio(agg.total_ns as f64, agg.count as f64)
    };
    let in_calls: u64 = [
        Kind::StreamSend,
        Kind::StreamWaitSend,
        Kind::SendBytes,
        Kind::RecvExact,
    ]
    .iter()
    .map(|&k| generator.agg(k).total_ns)
    .sum();
    let mut v = Values::from([(
        "bench.harness_self_ns_per_msg",
        (wall_s * 1e9 - in_calls as f64).max(0.0) / msgs as f64,
    )]);
    if generator.agg(Kind::StreamSend).count > 0 {
        v.insert("exs.thread.send_call_ns", mean(generator, Kind::StreamSend));
        v.insert(
            "exs.thread.wait_send_ns",
            mean(generator, Kind::StreamWaitSend),
        );
        v.insert("exs.thread.recv_call_ns", mean(peer, Kind::StreamRecv));
        v.insert("exs.thread.wait_recv_ns", mean(peer, Kind::StreamWaitRecv));
    } else {
        // Ping-pong: `send_bytes` is stage + send + wait for the send
        // completion; `recv_exact` is post + wait for the echo + copy
        // out.
        v.insert("exs.thread.send_call_ns", mean(generator, Kind::SendBytes));
        v.insert("exs.thread.wait_recv_ns", mean(generator, Kind::RecvExact));
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bulk_check_rep_delivers_the_seeded_pattern() {
        let rep = run_bulk(Size::Quick, 11, Purpose::Check, None);
        assert_eq!(rep.failed, 0);
        assert_eq!(rep.msgs, 2_000);
        assert!(rep.real["rdma-verbs.thread_notifies_per_msg"] > 0.0);
    }

    #[test]
    fn pingpong_echoes_every_trip_and_records_rtts() {
        let rep = run_pingpong(Size::Quick, 11, Purpose::Check, None);
        assert_eq!(rep.failed, 0);
        assert_eq!(rep.rtts_ns.len(), 1_000);
        assert!(rep.real["exs.pool.hit_ratio"] > 0.9);
    }

    #[test]
    fn traced_reps_span_every_stream_call() {
        let origin = Instant::now();
        let mut generator = Recorder::new(origin, 1, 1 << 14);
        let mut peer = Recorder::new(origin, 2, 1 << 14);
        let rep = run_bulk(
            Size::Quick,
            4,
            Purpose::Timed,
            Some(ThreadRecorders {
                generator: &mut generator,
                peer: &mut peer,
            }),
        );
        assert_eq!(rep.failed, 0);
        assert_eq!(generator.agg(Kind::StreamSend).count, rep.msgs);
        assert_eq!(generator.agg(Kind::StreamWaitSend).count, rep.msgs);
        assert_eq!(peer.agg(Kind::StreamRecv).count, rep.msgs);
        assert_eq!(peer.agg(Kind::StreamWaitRecv).count, rep.msgs);
        let v = trace_values(&generator, &peer, rep.msgs, rep.wall_s);
        assert!(v["exs.thread.send_call_ns"] > 0.0);
        assert!(v["exs.thread.wait_recv_ns"] > 0.0);
    }
}
