//! Ping-pong latency measurement.
//!
//! The paper lists latency studies as future work (§VI); this module
//! implements them: a classic ping-pong where node A sends an `m`-byte
//! message, node B receives it and immediately sends `m` bytes back,
//! and A records the round-trip time. Both directions of one stream
//! socket are exercised, so the dynamic protocol's mode choice shows up
//! directly in the latency distribution (an ADVERT in place before the
//! ping ⇒ zero-copy direct delivery; otherwise a buffered hop plus
//! copy).

use exs::{ExsConfig, ExsEvent, StreamSocket};
use rdma_verbs::{Access, HwProfile, MrInfo, NodeApi, NodeApp, SimNet};
use simnet::{SimDuration, SimTime};

/// Configuration for one ping-pong run.
#[derive(Clone, Debug)]
pub struct PingPongSpec {
    /// Hardware model.
    pub profile: HwProfile,
    /// EXS connection configuration.
    pub cfg: ExsConfig,
    /// Ping (and pong) payload size in bytes.
    pub msg_size: u32,
    /// Round trips to measure.
    pub iterations: usize,
    /// Warm-up round trips excluded from the report.
    pub warmup: usize,
    /// Simulation seed (host jitter).
    pub seed: u64,
}

impl PingPongSpec {
    /// A spec with sensible defaults.
    pub fn new(profile: HwProfile) -> Self {
        PingPongSpec {
            profile,
            cfg: ExsConfig::default(),
            msg_size: 64,
            iterations: 200,
            warmup: 10,
            seed: 1,
        }
    }
}

/// Round-trip-time statistics from one run.
#[derive(Clone, Debug)]
pub struct PingPongReport {
    /// Individual round-trip times, post-warm-up, in order.
    pub rtts: Vec<SimDuration>,
}

impl PingPongReport {
    /// Mean round-trip time in microseconds.
    pub fn mean_us(&self) -> f64 {
        if self.rtts.is_empty() {
            return 0.0;
        }
        self.rtts.iter().map(|d| d.as_secs_f64() * 1e6).sum::<f64>() / self.rtts.len() as f64
    }

    /// Minimum round-trip time in microseconds.
    pub fn min_us(&self) -> f64 {
        (self.rtts.iter().min()).map_or(0.0, |d| d.as_secs_f64() * 1e6)
    }

    /// The given percentile (0–100) in microseconds.
    pub fn percentile_us(&self, p: f64) -> f64 {
        if self.rtts.is_empty() {
            return 0.0;
        }
        let mut v: Vec<f64> = self.rtts.iter().map(|d| d.as_secs_f64() * 1e6).collect();
        v.sort_by(|a, b| a.partial_cmp(b).expect("no NaNs"));
        let idx = ((p / 100.0) * (v.len() - 1) as f64).round() as usize;
        v[idx.min(v.len() - 1)]
    }
}

struct Pinger {
    sock: Option<StreamSocket>,
    send_mr: Option<MrInfo>,
    recv_mr: Option<MrInfo>,
    msg_size: u32,
    iterations: usize,
    completed: usize,
    ping_sent_at: Option<SimTime>,
    rtts: Vec<SimDuration>,
    next_id: u64,
    /// The socket's events, taken into a buffer kept between wakes.
    events: Vec<ExsEvent>,
}

impl Pinger {
    fn fire(&mut self, api: &mut NodeApi<'_>) {
        let send_mr = self.send_mr.unwrap();
        let recv_mr = self.recv_mr.unwrap();
        let id = self.next_id;
        self.next_id += 1;
        let sock = self.sock.as_mut().unwrap();
        // Post the reply receive first so its ADVERT can race ahead.
        sock.exs_recv(api, &recv_mr, 0, self.msg_size, true, id);
        self.ping_sent_at = Some(api.now());
        sock.exs_send(api, &send_mr, 0, self.msg_size as u64, id);
    }
}

impl NodeApp for Pinger {
    fn on_start(&mut self, api: &mut NodeApi<'_>) {
        // Give the peer time to post its first receive.
        api.set_timer(SimDuration::from_micros(100), 0);
    }
    fn on_timer(&mut self, api: &mut NodeApi<'_>, _token: u64) {
        self.fire(api);
    }
    fn on_wake(&mut self, api: &mut NodeApi<'_>) {
        let sock = self.sock.as_mut().unwrap();
        sock.handle_wake(api);
        let mut events = std::mem::take(&mut self.events);
        sock.take_events_into(&mut events);
        for ev in events.drain(..) {
            if let ExsEvent::RecvComplete { len, .. } = ev {
                assert_eq!(len, self.msg_size, "pong truncated");
                let rtt = api
                    .now()
                    .saturating_duration_since(self.ping_sent_at.expect("ping outstanding"));
                self.rtts.push(rtt);
                self.completed += 1;
                if self.completed < self.iterations {
                    self.fire(api);
                }
            }
        }
        self.events = events;
    }
    fn is_done(&self) -> bool {
        self.completed >= self.iterations
    }
}

struct Ponger {
    sock: Option<StreamSocket>,
    send_mr: Option<MrInfo>,
    recv_mr: Option<MrInfo>,
    msg_size: u32,
    next_id: u64,
    /// The socket's events, taken into a buffer kept between wakes.
    events: Vec<ExsEvent>,
}

impl Ponger {
    fn post_recv(&mut self, api: &mut NodeApi<'_>) {
        let recv_mr = self.recv_mr.unwrap();
        let id = self.next_id;
        self.next_id += 1;
        self.sock
            .as_mut()
            .unwrap()
            .exs_recv(api, &recv_mr, 0, self.msg_size, true, id);
    }
}

impl NodeApp for Ponger {
    fn on_start(&mut self, api: &mut NodeApi<'_>) {
        self.post_recv(api);
    }
    fn on_wake(&mut self, api: &mut NodeApi<'_>) {
        let sock = self.sock.as_mut().unwrap();
        sock.handle_wake(api);
        let mut events = std::mem::take(&mut self.events);
        sock.take_events_into(&mut events);
        for ev in events.drain(..) {
            if let ExsEvent::RecvComplete { id, len } = ev {
                assert_eq!(len, self.msg_size, "ping truncated");
                let send_mr = self.send_mr.unwrap();
                self.sock
                    .as_mut()
                    .unwrap()
                    .exs_send(api, &send_mr, 0, len as u64, id);
                self.post_recv(api);
            }
        }
        self.events = events;
    }
    fn is_done(&self) -> bool {
        true
    }
}

/// Runs one ping-pong experiment.
pub fn run_pingpong(spec: &PingPongSpec) -> PingPongReport {
    let mut net = SimNet::new();
    net.set_host_seed(spec.seed.wrapping_mul(0x9E37_79B9).wrapping_add(7));
    let a = net.add_node(spec.profile.host.clone(), spec.profile.hca.clone());
    let b = net.add_node(spec.profile.host.clone(), spec.profile.hca.clone());
    net.connect_nodes(a, b, spec.profile.link.clone(), spec.seed);
    let (sock_a, sock_b) = StreamSocket::pair(&mut net, a, b, &spec.cfg);

    let total = spec.iterations + spec.warmup;
    let mut pinger = Pinger {
        sock: Some(sock_a),
        send_mr: None,
        recv_mr: None,
        msg_size: spec.msg_size,
        iterations: total,
        completed: 0,
        ping_sent_at: None,
        rtts: Vec::with_capacity(total),
        next_id: 0,
        events: Vec::new(),
    };
    let mut ponger = Ponger {
        sock: Some(sock_b),
        send_mr: None,
        recv_mr: None,
        msg_size: spec.msg_size,
        next_id: 0,
        events: Vec::new(),
    };
    net.with_api(a, |api| {
        pinger.send_mr = Some(api.register_mr(spec.msg_size as usize, Access::NONE));
        pinger.recv_mr =
            Some(api.register_mr(spec.msg_size as usize, Access::local_remote_write()));
    });
    net.with_api(b, |api| {
        ponger.send_mr = Some(api.register_mr(spec.msg_size as usize, Access::NONE));
        ponger.recv_mr =
            Some(api.register_mr(spec.msg_size as usize, Access::local_remote_write()));
    });

    let outcome = net.run(&mut [&mut pinger, &mut ponger], SimTime::from_secs(3600));
    assert!(
        outcome.completed,
        "ping-pong stalled after {} of {} iterations",
        pinger.completed, total
    );
    PingPongReport {
        rtts: pinger.rtts.split_off(spec.warmup),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exs::ProtocolMode;
    use rdma_verbs::profiles::{fdr_infiniband, ideal};

    #[test]
    fn pingpong_completes_and_reports() {
        let spec = PingPongSpec {
            iterations: 50,
            warmup: 5,
            ..PingPongSpec::new(ideal())
        };
        let rep = run_pingpong(&spec);
        assert_eq!(rep.rtts.len(), 50);
        assert!(rep.min_us() >= 0.0);
        assert!(rep.mean_us() >= rep.min_us());
        assert!(rep.percentile_us(99.0) >= rep.percentile_us(50.0));
    }

    /// A report of no round trips (`iterations: 0`) reads 0.0 from
    /// every accessor, as a value undefined for the run does.
    #[test]
    fn an_empty_report_reads_zero() {
        let rep = PingPongReport { rtts: vec![] };
        assert_eq!(rep.min_us(), 0.0);
        assert_eq!(rep.mean_us(), 0.0);
        assert_eq!(rep.percentile_us(50.0), 0.0);
    }

    #[test]
    fn fdr_latency_is_physical() {
        let spec = PingPongSpec {
            msg_size: 64,
            iterations: 50,
            warmup: 5,
            ..PingPongSpec::new(fdr_infiniband())
        };
        let rep = run_pingpong(&spec);
        // One-way wire latency is ~0.7 us, so RTT must exceed 1.4 us; host
        // wakeup latencies put the realistic mean in the tens of us.
        assert!(rep.min_us() > 1.4, "min RTT {} too small", rep.min_us());
        assert!(
            rep.mean_us() < 500.0,
            "mean RTT {} implausible",
            rep.mean_us()
        );
    }

    #[test]
    fn indirect_mode_latency_also_works() {
        let spec = PingPongSpec {
            cfg: ExsConfig::with_mode(ProtocolMode::IndirectOnly),
            iterations: 30,
            warmup: 3,
            ..PingPongSpec::new(fdr_infiniband())
        };
        let rep = run_pingpong(&spec);
        assert_eq!(rep.rtts.len(), 30);
    }

    #[test]
    fn deterministic_per_seed() {
        let spec = PingPongSpec {
            iterations: 30,
            warmup: 3,
            seed: 9,
            ..PingPongSpec::new(fdr_infiniband())
        };
        let a = run_pingpong(&spec);
        let b = run_pingpong(&spec);
        assert_eq!(a.rtts, b.rtts);
    }
}
