//! Point-to-point link model.
//!
//! One [`Link`] models a single direction of a cabled connection between
//! two adapters: a serializing transmitter (only one frame on the wire at
//! a time), per-packet framing overhead, fixed propagation delay, optional
//! random jitter, and strict FIFO delivery. FIFO matters: RDMA reliable
//! connected channels never reorder, and the stream protocol's correctness
//! argument (paper §IV-A) assumes ordered delivery of ADVERTs, ACKs and
//! data relative to each other on each direction.
//!
//! The emulated-WAN experiments (paper §IV-B2) are modelled by setting a
//! large `propagation` (24 ms each way for the 48 ms Anue RTT); the
//! future-work jitter study adds a `jitter` bound on top.

use crate::rng::Xoshiro256;
use crate::time::{SimDuration, SimTime};

/// Static description of one link direction.
#[derive(Clone, Debug)]
pub struct LinkConfig {
    /// Raw signalling rate in bits per second (e.g. FDR 4x = 56 Gbit/s
    /// signalled; configure the *data* rate after encoding here).
    pub bandwidth_bps: u64,
    /// One-way propagation delay (cable + switch + emulator).
    pub propagation: SimDuration,
    /// Maximum transmission unit for the payload portion of one packet.
    pub mtu: u32,
    /// Per-packet framing overhead in bytes (headers, CRCs, preambles).
    pub per_packet_overhead: u32,
    /// Upper bound for uniformly distributed extra per-message delay.
    /// `SimDuration::ZERO` disables jitter (the default in all paper
    /// reproductions; used by the jitter ablation).
    pub jitter: SimDuration,
}

impl LinkConfig {
    /// A convenience config with only bandwidth and propagation set;
    /// 4 KiB MTU, 30-byte overhead, no jitter.
    pub fn simple(bandwidth_bps: u64, propagation: SimDuration) -> Self {
        LinkConfig {
            bandwidth_bps,
            propagation,
            mtu: 4096,
            per_packet_overhead: 30,
            jitter: SimDuration::ZERO,
        }
    }

    /// Bytes actually serialized on the wire for a message payload,
    /// including per-packet framing. A zero-byte message still costs one
    /// packet (RDMA zero-length messages exist: pure IMM notifications).
    pub fn wire_bytes(&self, payload: u64) -> u64 {
        let mtu = self.mtu.max(1) as u64;
        let packets = if payload == 0 {
            1
        } else {
            payload.div_ceil(mtu)
        };
        payload + packets * self.per_packet_overhead as u64
    }

    /// Serialization time of a message payload on this link.
    pub fn tx_time(&self, payload: u64) -> SimDuration {
        SimDuration::transmission(self.wire_bytes(payload), self.bandwidth_bps)
    }

    /// Fraction of raw bandwidth available to payload for messages of the
    /// given size (reporting helper).
    pub fn efficiency(&self, payload: u64) -> f64 {
        if payload == 0 {
            return 0.0;
        }
        payload as f64 / self.wire_bytes(payload) as f64
    }
}

/// One direction of a link, with transmitter-busy and FIFO state.
pub struct Link {
    config: LinkConfig,
    /// The earliest time the transmitter is free to start a new frame.
    idle_at: SimTime,
    /// The arrival time of the most recently delivered message; later
    /// messages never arrive before this (FIFO clamp under jitter).
    last_arrival: SimTime,
    /// Jitter RNG; deterministic per link.
    rng: Xoshiro256,
}

impl Link {
    /// Creates a link from a config and an RNG seed (only used if jitter
    /// is enabled).
    pub fn new(config: LinkConfig, seed: u64) -> Self {
        Link {
            config,
            idle_at: SimTime::ZERO,
            last_arrival: SimTime::ZERO,
            rng: Xoshiro256::new(seed),
        }
    }

    /// The link's static configuration.
    pub fn config(&self) -> &LinkConfig {
        &self.config
    }

    /// Accepts a message of `payload` bytes handed to the transmitter at
    /// `now` and returns the simulated time at which its last byte is
    /// available at the receiver.
    ///
    /// Successive calls must use non-decreasing `now` values (the DES
    /// driver guarantees this); results are strictly FIFO.
    pub fn transit(&mut self, now: SimTime, payload: u64) -> SimTime {
        let start = now.max(self.idle_at);
        let departed = start + self.config.tx_time(payload);
        self.idle_at = departed;
        let mut arrival = departed + self.config.propagation;
        if !self.config.jitter.is_zero() {
            let extra = self.rng.next_below(self.config.jitter.as_nanos() + 1);
            arrival += SimDuration::from_nanos(extra);
        }
        // FIFO clamp: reliable connected transport never reorders.
        arrival = arrival.max(self.last_arrival);
        self.last_arrival = arrival;
        arrival
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gbit(n: u64) -> u64 {
        n * 1_000_000_000
    }

    #[test]
    fn wire_bytes_counts_packets() {
        let c = LinkConfig::simple(gbit(10), SimDuration::ZERO);
        assert_eq!(c.wire_bytes(0), 30);
        assert_eq!(c.wire_bytes(1), 31);
        assert_eq!(c.wire_bytes(4096), 4096 + 30);
        assert_eq!(c.wire_bytes(4097), 4097 + 60);
        assert_eq!(c.wire_bytes(3 * 4096), 3 * 4096 + 90);
    }

    #[test]
    fn tx_time_matches_bandwidth() {
        let mut c = LinkConfig::simple(gbit(1), SimDuration::ZERO);
        c.per_packet_overhead = 0;
        // 125 bytes at 1 Gbit/s = 1000 ns.
        assert_eq!(c.tx_time(125).as_nanos(), 1_000);
    }

    #[test]
    fn transit_serializes_back_to_back() {
        let mut c = LinkConfig::simple(gbit(1), SimDuration::from_micros(1));
        c.per_packet_overhead = 0;
        let mut l = Link::new(c, 0);
        // Two 125-byte messages (1000 ns each) handed over at t=0.
        let a = l.transit(SimTime::ZERO, 125);
        let b = l.transit(SimTime::ZERO, 125);
        assert_eq!(a.as_nanos(), 1_000 + 1_000);
        assert_eq!(b.as_nanos(), 2_000 + 1_000);
    }

    #[test]
    fn idle_transmitter_starts_immediately() {
        let mut c = LinkConfig::simple(gbit(1), SimDuration::from_nanos(500));
        c.per_packet_overhead = 0;
        let mut l = Link::new(c, 0);
        let a = l.transit(SimTime::from_nanos(10_000), 125);
        assert_eq!(a.as_nanos(), 10_000 + 1_000 + 500);
    }

    #[test]
    fn propagation_dominates_for_wan() {
        let c = LinkConfig::simple(gbit(10), SimDuration::from_millis(24));
        let mut l = Link::new(c, 0);
        let a = l.transit(SimTime::ZERO, 64);
        assert!(a.as_nanos() >= 24_000_000);
        assert!(a.as_nanos() < 24_100_000);
    }

    #[test]
    fn fifo_holds_under_jitter() {
        let mut c = LinkConfig::simple(gbit(10), SimDuration::from_micros(10));
        c.jitter = SimDuration::from_micros(50);
        let mut l = Link::new(c, 12345);
        let mut prev = SimTime::ZERO;
        for i in 0..1_000 {
            let t = l.transit(SimTime::from_nanos(i * 10), 64);
            assert!(t >= prev, "FIFO violated at message {i}");
            prev = t;
        }
    }

    #[test]
    fn jitter_is_deterministic_per_seed() {
        let mk = || {
            let mut c = LinkConfig::simple(gbit(10), SimDuration::from_micros(10));
            c.jitter = SimDuration::from_micros(5);
            Link::new(c, 99)
        };
        let mut l1 = mk();
        let mut l2 = mk();
        for i in 0..100 {
            let now = SimTime::from_nanos(i * 1_000);
            assert_eq!(l1.transit(now, 256), l2.transit(now, 256));
        }
    }

    #[test]
    fn efficiency_reflects_overhead() {
        let c = LinkConfig::simple(gbit(10), SimDuration::ZERO);
        let e_small = c.efficiency(64);
        let e_big = c.efficiency(1 << 20);
        assert!(e_small < e_big);
        assert!(e_big > 0.99);
        assert_eq!(c.efficiency(0), 0.0);
    }
}
