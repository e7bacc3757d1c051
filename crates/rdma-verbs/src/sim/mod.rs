//! Deterministic discrete-event driver.
//!
//! [`SimNet`] wires [`HcaCore`] nodes together with `simnet` links and a
//! virtual clock, and drives application logic written against the
//! [`NodeApp`] reactor trait. The model:
//!
//! * **Verbs timing** — a posted send occupies the QP's HCA pipeline for
//!   `wqe_process`, then serializes onto the link (which models
//!   transmitter-busy, per-packet framing, propagation and optional
//!   jitter). The message is delivered to the peer HCA at arrival, and
//!   a signaled send completes when the peer's acknowledgment returns,
//!   one WQE turnaround and one propagation later, retiring the SQ
//!   slots of the unsignaled sends before it with its own.
//! * **Payload bytes** — posting copies nothing. A payload in
//!   registered memory travels as a description of its source range and
//!   is placed once, source region to destination region, when the
//!   message is delivered: every page it covers whole by reference
//!   (copied on write), the rest by copy ([`crate::mr`]). Virtual time
//!   does not see this: it is host work of the model, and the bytes are
//!   the same at post time and at delivery because the send completion
//!   — the application's licence to reuse the buffer — is always
//!   delivered after the message.
//! * **CPU timing** — each node has one simulated core ([`crate::CpuMeter`]).
//!   Application handlers run when the core is free; every verbs call,
//!   completion handling step and memory copy charges the core, with
//!   the host model's scheduling jitter applied (`jitter`). This is
//!   what makes the receiver's copy cost visible as reduced throughput
//!   and increased CPU usage, the paper's central trade-off.
//! * **Wakeups** — a burst of completions wakes the owning node's app
//!   once: a completion while a wake is pending schedules no other.
//!   Apps are expected to drain their CQs on each wake; the wakeup
//!   overhead is charged once per wake, modelling event notification
//!   rather than busy polling (the mode used by the paper's
//!   measurements). There is no arm state to renew.
//! * **Losses** — a message that cannot be placed (its link is down, or
//!   its source range is gone) is counted by cause in
//!   [`SimNet::losses`] and fails its sender's QP a retry period later.
//!
//! One file per seam: this one is the set-up, inspection and
//! fault-injection surface of [`SimNet`]; `run` is the event loop;
//! `node` is one node's runtime and the [`NodeApi`] handle on it;
//! `jitter` is what a jittered charge costs; `path` is everything a
//! message passes on its way from `post_send` to its completion.

mod jitter;
mod node;
mod path;
mod run;

pub use node::NodeApi;
pub use path::Losses;
pub use run::NodeApp;

use simnet::fabric::{FabricModel, FabricStats, FairShareFabric};
use simnet::{Link, LinkConfig, SimDuration, SimTime, Xoshiro256};

use crate::hca::{Effect, HcaConfig, HcaCore};
use crate::host::HostModel;
use crate::types::{NodeId, QpNum, Result};
use node::NodeRuntime;
use path::FabricRt;

/// The discrete-event fabric driver.
pub struct SimNet {
    nodes: Vec<NodeRuntime>,
    fabric: FabricRt,
    host_seed: u64,
    losses: Losses,
    /// What the event being handled produced; filled by the HCA, drained
    /// by `apply_effects`, and reused so the per-event path allocates
    /// nothing for it.
    effects: Vec<Effect>,
}

impl Default for SimNet {
    fn default() -> Self {
        Self::new()
    }
}

impl SimNet {
    /// An empty fabric.
    pub fn new() -> Self {
        SimNet {
            nodes: Vec::new(),
            fabric: FabricRt::fifo(),
            host_seed: 0x5EED,
            losses: Losses::default(),
            effects: Vec::new(),
        }
    }

    /// Sets the seed for host-side CPU jitter streams. Must be called
    /// before nodes are added; each node derives an independent stream.
    pub fn set_host_seed(&mut self, seed: u64) {
        assert!(self.nodes.is_empty(), "set_host_seed must precede add_node");
        self.host_seed = seed;
    }

    /// Adds a node with the given host cost model and HCA parameters.
    pub fn add_node(&mut self, host: HostModel, hca: HcaConfig) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        let rng = Xoshiro256::new(self.host_seed ^ (0x9E37_79B9 * (id.0 as u64 + 1)));
        self.nodes
            .push(NodeRuntime::new(HcaCore::new(id, hca), host, rng));
        id
    }

    /// Selects the bandwidth-contention model. Defaults to
    /// [`FabricModel::Fifo`] (private per-pair serializing links).
    /// [`FabricModel::FairShare`] runs every transfer through the
    /// flow-level max-min allocator in [`simnet::fabric`] instead:
    /// concurrent flows split NIC and core capacity and re-speed as
    /// flows arrive and leave. Must be called before any links are
    /// connected so capacities register against the chosen model.
    pub fn set_fabric(&mut self, model: FabricModel) {
        assert!(
            self.fabric.links.is_empty(),
            "set_fabric must precede connect_nodes"
        );
        self.fabric.fair = match model {
            FabricModel::Fifo => None,
            FabricModel::FairShare(cfg) => Some(FairShareFabric::new(cfg)),
        };
    }

    /// Per-flow telemetry from the fair-share allocator (achieved bps,
    /// re-speed counts, Jain fairness index). `None` in FIFO mode.
    pub fn fabric_stats(&self) -> Option<FabricStats> {
        self.fabric.fair.as_ref().map(|f| f.stats())
    }

    /// Connects two nodes with symmetric links built from `cfg`. The
    /// jitter RNG seeds are derived from `seed` per direction.
    pub fn connect_nodes(&mut self, a: NodeId, b: NodeId, cfg: LinkConfig, seed: u64) {
        self.connect_nodes_asymmetric(a, b, cfg.clone(), cfg, seed);
    }

    /// Connects two nodes with different characteristics per direction
    /// (e.g. an asymmetric WAN: fat downstream, thin upstream).
    pub fn connect_nodes_asymmetric(
        &mut self,
        a: NodeId,
        b: NodeId,
        a_to_b: LinkConfig,
        b_to_a: LinkConfig,
        seed: u64,
    ) {
        if let Some(fair) = &mut self.fabric.fair {
            fair.register_link(a.0, b.0, a_to_b.bandwidth_bps);
            fair.register_link(b.0, a.0, b_to_a.bandwidth_bps);
        }
        self.fabric
            .links
            .connect(a.0, b.0, Link::new(a_to_b, seed.wrapping_mul(2)));
        self.fabric
            .links
            .connect(b.0, a.0, Link::new(b_to_a, seed.wrapping_mul(2) + 1));
    }

    /// Messages lost so far, by cause.
    pub fn losses(&self) -> Losses {
        self.losses
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.fabric.sched.now()
    }

    /// CPU usage of `node` over the run so far.
    pub fn cpu_usage(&self, node: NodeId) -> f64 {
        self.nodes[node.index()].cpu.usage(self.fabric.sched.now())
    }

    /// Total busy time charged to `node`.
    pub fn cpu_busy_total(&self, node: NodeId) -> SimDuration {
        self.nodes[node.index()].cpu.busy_total()
    }

    /// Fault injection: takes the *directed* link `a → b` down or up.
    /// Messages in flight still arrive (they are already on the wire);
    /// messages transmitted while the link is down are lost, and after
    /// the transport retry period the sending QP fails with
    /// `RnrRetryExceeded`-style transport errors, flushing its receives
    /// — the observable behaviour of RC retry exhaustion.
    ///
    /// # Panics
    /// Panics if `a → b` was never connected.
    pub fn set_link_up(&mut self, a: NodeId, b: NodeId, up: bool) {
        self.fabric.links.expect_mut(a.0, b.0).down = !up;
    }

    /// Fault injection: fails a QP (error state + receive flush) at the
    /// current virtual time. Flushed completions wake the node's app
    /// like any other completion.
    pub fn inject_qp_error(&mut self, node: NodeId, qpn: QpNum) -> Result<()> {
        let now = self.fabric.sched.now();
        self.nodes[node.index()]
            .hca
            .fail_qp(qpn, &mut self.effects)?;
        self.apply_effects(node, now);
        Ok(())
    }

    /// Runs setup code against a node outside the event loop (time stays
    /// at the current clock; CPU is not charged). Used by harnesses to
    /// register memory and build connections before starting apps.
    pub fn with_api<R>(&mut self, node: NodeId, f: impl FnOnce(&mut NodeApi<'_>) -> R) -> R {
        f(&mut NodeApi::on(self, node))
    }
}

/// Apps and topologies the tests of all four files share.
#[cfg(test)]
mod testkit {
    use super::*;
    use crate::cm::{connect_pair, ConnHalf};
    use crate::mr::MrInfo;
    use crate::qp::QpCaps;
    use crate::types::{Access, RecvWr, SendWr, WcOpcode};

    pub fn fast_link() -> LinkConfig {
        LinkConfig::simple(100_000_000_000, SimDuration::from_micros(1))
    }

    /// Two nodes with free hosts on a fast link.
    pub fn build_pair(net: &mut SimNet) -> (NodeId, NodeId) {
        let a = net.add_node(HostModel::free(), HcaConfig::default());
        let b = net.add_node(HostModel::free(), HcaConfig::default());
        net.connect_nodes(a, b, fast_link(), 7);
        (a, b)
    }

    /// Does nothing and is done from the start.
    pub struct Idle;
    impl NodeApp for Idle {
        fn on_start(&mut self, _api: &mut NodeApi<'_>) {}
        fn on_wake(&mut self, _api: &mut NodeApi<'_>) {}
        fn is_done(&self) -> bool {
            true
        }
    }

    /// Does nothing and is never done: the run lasts until the event
    /// queue drains.
    pub struct Drain;
    impl NodeApp for Drain {
        fn on_start(&mut self, _api: &mut NodeApi<'_>) {}
        fn on_wake(&mut self, _api: &mut NodeApi<'_>) {}
    }

    /// Sends `count` 64-byte messages, one per send completion.
    pub struct Pinger {
        conn: ConnHalf,
        mr: MrInfo,
        sent: u32,
        count: u32,
        pub completions: u32,
    }

    impl Pinger {
        fn post(&mut self, api: &mut NodeApi<'_>) {
            let wr = SendWr::send(self.sent as u64, self.mr.sge(0, 64));
            api.post_send(self.conn.qpn, wr).unwrap();
            self.sent += 1;
        }
    }

    impl NodeApp for Pinger {
        fn on_start(&mut self, api: &mut NodeApi<'_>) {
            // Once, also when the run is continued by a second `run`.
            if self.sent == 0 {
                self.post(api);
            }
        }
        fn on_wake(&mut self, api: &mut NodeApi<'_>) {
            let mut cqes = Vec::new();
            api.poll_cq(self.conn.send_cq, usize::MAX, &mut cqes)
                .unwrap();
            for cqe in cqes {
                assert_eq!(cqe.opcode, WcOpcode::Send);
                self.completions += 1;
                if self.sent < self.count {
                    self.post(api);
                }
            }
        }
        fn is_done(&self) -> bool {
            self.completions == self.count
        }
    }

    /// Counts arrivals, replacing each consumed receive.
    pub struct Ponger {
        conn: ConnHalf,
        mr: MrInfo,
        pub received: u32,
        expect: u32,
    }

    impl NodeApp for Ponger {
        fn on_start(&mut self, _api: &mut NodeApi<'_>) {}
        fn on_wake(&mut self, api: &mut NodeApi<'_>) {
            let mut cqes = Vec::new();
            api.poll_cq(self.conn.recv_cq, usize::MAX, &mut cqes)
                .unwrap();
            for cqe in cqes {
                assert_eq!(cqe.opcode, WcOpcode::Recv);
                self.received += 1;
                // Replenish the receive so the sender never hits RNR.
                let wr = RecvWr::new(cqe.wr_id + 1, self.mr.sge(0, 64));
                api.post_recv(self.conn.qpn, wr).unwrap();
            }
        }
        fn is_done(&self) -> bool {
            self.received >= self.expect
        }
    }

    /// A connected [`Pinger`] on `a` and [`Ponger`] on `b`, 16 receives
    /// posted, for `count` messages.
    pub fn ping_pair(net: &mut SimNet, a: NodeId, b: NodeId, count: u32) -> (Pinger, Ponger) {
        let (ha, hb) = connect_pair(net, a, b, QpCaps::default(), 64).unwrap();
        let a_mr = net.with_api(a, |api| api.register_mr(64, Access::NONE));
        let b_mr = net.with_api(b, |api| {
            let mr = api.register_mr(64, Access::LOCAL_WRITE);
            for i in 0..16 {
                api.post_recv(hb.qpn, RecvWr::new(i, mr.sge(0, 64)))
                    .unwrap();
            }
            mr
        });
        let pinger = Pinger {
            conn: ha,
            mr: a_mr,
            sent: 0,
            count,
            completions: 0,
        };
        let ponger = Ponger {
            conn: hb,
            mr: b_mr,
            received: 0,
            expect: count,
        };
        (pinger, ponger)
    }
}

#[cfg(test)]
mod tests {
    use super::testkit::*;
    use super::*;
    use crate::cm::connect_pair;
    use crate::qp::QpCaps;
    use crate::types::{Access, SendWr};

    #[test]
    fn fifo_mode_reports_no_fabric_stats() {
        let net = SimNet::new();
        assert!(net.fabric_stats().is_none());
    }

    /// A protocol violation is a bug in the layer above: the simulator
    /// stops on it.
    #[test]
    #[should_panic(expected = "no posted RECV")]
    fn a_fatal_verbs_error_panics() {
        let mut net = SimNet::new();
        let (a, b) = build_pair(&mut net);

        // A SEND with no receive posted for it.
        let (ha, _hb) = connect_pair(&mut net, a, b, QpCaps::default(), 8).unwrap();
        net.with_api(a, |api| {
            let mr = api.register_mr(8, Access::NONE);
            api.post_send(ha.qpn, SendWr::send(1, mr.sge(0, 8)))
                .unwrap();
        });
        net.run(&mut [&mut Drain, &mut Idle], SimTime::from_secs(1));
    }
}
