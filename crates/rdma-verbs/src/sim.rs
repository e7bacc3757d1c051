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
//!   the send completion when the peer's acknowledgment returns, one
//!   WQE turnaround and one propagation later.
//! * **Payload bytes** — posting copies nothing. A payload in
//!   registered memory travels as a description of its source range and
//!   is copied once, source region to destination region, when the
//!   message is delivered. Virtual time does not see this: it is host
//!   work of the model, and the bytes are the same at post time and at
//!   delivery because the send completion — the application's licence
//!   to reuse the buffer — is always delivered after the message.
//! * **CPU timing** — each node has one simulated core ([`CpuMeter`]).
//!   Application handlers run when the core is free; every verbs call,
//!   completion handling step and memory copy charges the core. This is
//!   what makes the receiver's copy cost visible as reduced throughput
//!   and increased CPU usage, the paper's central trade-off.
//! * **Wakeups** — completions wake the owning node's app (edge
//!   triggered, like an armed completion channel). Apps are expected to
//!   drain their CQs on each wake; the wakeup overhead is charged once
//!   per wake, modelling event notification rather than busy polling
//!   (the mode used by the paper's measurements).

use simnet::fabric::{FabricModel, FabricStats, FairShareFabric, FlowKey, Transfer};
use simnet::trace::TraceRing;
use simnet::{EventId, Link, LinkConfig, Scheduler, SimDuration, SimTime, Slab, Xoshiro256};

use crate::hca::{Effect, HcaConfig, HcaCore, PreparedSend};
use crate::host::{CpuMeter, HostModel};
use crate::mr::MrInfo;
use crate::qp::QpCaps;
use crate::types::{Access, CqId, Cqe, MrKey, NodeId, QpNum, RecvWr, Result, SendWr};
use crate::wire::WireMessage;

/// Reactor interface for application logic running on a simulated node.
///
/// Handlers receive a [`NodeApi`] giving access to verbs calls, registered
/// memory, timers and the CPU meter. All work done in a handler should be
/// charged via the api so the CPU model stays honest.
pub trait NodeApp {
    /// Called once before the event loop starts (time zero).
    fn on_start(&mut self, api: &mut NodeApi<'_>);
    /// Called when completions arrived for this node. Edge-triggered:
    /// drain your CQs before returning.
    fn on_wake(&mut self, api: &mut NodeApi<'_>);
    /// Called when a timer set via [`NodeApi::set_timer`] fires.
    fn on_timer(&mut self, api: &mut NodeApi<'_>, token: u64) {
        let _ = (api, token);
    }
    /// The run loop stops early when every app reports done.
    fn is_done(&self) -> bool {
        false
    }
}

enum Ev {
    Deliver {
        msg: WireMessage,
    },
    TxDone {
        node: NodeId,
        qpn: QpNum,
        cqe: Option<Cqe>,
    },
    Wake {
        node: NodeId,
    },
    Timer {
        node: NodeId,
        token: u64,
    },
    QpFail {
        node: NodeId,
        qpn: QpNum,
    },
    /// Fair-share mode: a message cleared its HCA pipeline and is handed
    /// to the fabric allocator (the flow-level analogue of
    /// `Link::transit`).
    FabricStart {
        token: u32,
    },
    /// Fair-share mode: the head transfer of flow `src → dst` moved its
    /// last bit. Scheduled at the allocator's predicted finish time and
    /// rescheduled whenever the flow re-speeds.
    FlowHeadDone {
        src: u32,
        dst: u32,
    },
}

/// A message parked in the fabric allocator between its `FabricStart`
/// and its flow-head completion (fair-share mode only).
struct PendingTx {
    msg: WireMessage,
    cqe: Option<Cqe>,
    is_read: bool,
    owns_sq_slot: bool,
}

/// Fair-share fabric state threaded through the driver. In FIFO mode
/// (`model == FabricModel::Fifo`) everything here is inert and messages
/// take the legacy `Link::transit` path.
struct FabricRt {
    model: FabricModel,
    fair: Option<FairShareFabric>,
    /// Messages owned by the allocator; a transfer's token is its slot.
    pending: Slab<PendingTx>,
}

impl FabricRt {
    fn fifo() -> Self {
        FabricRt {
            model: FabricModel::Fifo,
            fair: None,
            pending: Slab::new(),
        }
    }
}

/// The directed link `src → dst` and the driver state kept per node
/// pair.
struct PairLink {
    link: Link,
    /// Fault injection: messages arriving over this link are lost.
    down: bool,
    /// Fair-share mode: the scheduled head-completion event of the
    /// flow on this link, `None` while the flow is idle or the event is
    /// being handled.
    head_event: Option<EventId>,
}

/// Every connected directed link, one row per source node indexed by
/// destination node.
#[derive(Default)]
struct LinkTable {
    rows: Vec<Vec<Option<PairLink>>>,
}

impl LinkTable {
    fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    fn connect(&mut self, src: u32, dst: u32, link: Link) {
        let (src, dst) = (src as usize, dst as usize);
        if self.rows.len() <= src {
            self.rows.resize_with(src + 1, Vec::new);
        }
        let row = &mut self.rows[src];
        if row.len() <= dst {
            row.resize_with(dst + 1, || None);
        }
        row[dst] = Some(PairLink {
            link,
            down: false,
            head_event: None,
        });
    }

    fn get(&self, src: u32, dst: u32) -> Option<&PairLink> {
        self.rows.get(src as usize)?.get(dst as usize)?.as_ref()
    }

    /// The link a message or flow is already travelling on.
    ///
    /// # Panics
    /// Panics if `src → dst` was never connected.
    #[inline]
    fn expect_mut(&mut self, src: u32, dst: u32) -> &mut PairLink {
        self.rows
            .get_mut(src as usize)
            .and_then(|row| row.get_mut(dst as usize))
            .and_then(Option::as_mut)
            .unwrap_or_else(|| panic!("no link from {:?} to {:?}", NodeId(src), NodeId(dst)))
    }
}

/// Cancels and reschedules head-completion events after the allocator
/// re-sped flows. `finish` can round to the past-equal instant; clamp
/// to `now` so the scheduler's monotonic contract holds.
fn apply_flow_changes(
    sched: &mut Scheduler<Ev>,
    links: &mut LinkTable,
    now: SimTime,
    changes: &[(FlowKey, SimTime)],
) {
    for &((src, dst), finish) in changes {
        let head_event = &mut links.expect_mut(src, dst).head_event;
        if let Some(ev) = head_event.take() {
            sched.cancel(ev);
        }
        *head_event = Some(sched.schedule_at(finish.max(now), Ev::FlowHeadDone { src, dst }));
    }
}

/// RC transport retry period before a lost message fails the QP
/// (7 retries × a few ms on real hardware; one representative value).
const RETRY_PERIOD: SimDuration = SimDuration::from_millis(20);

struct NodeRuntime {
    hca: HcaCore,
    cpu: CpuMeter,
    host: HostModel,
    wake_scheduled: bool,
    rng: Xoshiro256,
}

impl NodeRuntime {
    fn jittered(&mut self, work: SimDuration) -> SimDuration {
        if self.host.jitter_frac > 0.0 && !work.is_zero() {
            let u = self.rng.next_f64();
            let factor = 1.0 + self.host.jitter_frac * (2.0 * u - 1.0);
            SimDuration::from_nanos((work.as_nanos() as f64 * factor).round().max(0.0) as u64)
        } else {
            work
        }
    }

    /// Charges CPU work with the host model's scheduling jitter applied.
    fn charge(&mut self, now: SimTime, work: SimDuration) -> SimTime {
        let w = self.jittered(work);
        self.cpu.charge(now, w)
    }

    /// Computes when wake-event processing may begin: a process that was
    /// asleep pays the completion-channel wakeup latency, plus an
    /// occasional scheduling stall (heavy-tail OS noise). Neither is
    /// busy time.
    fn wake_start(&mut self, now: SimTime) -> SimTime {
        if self.host.busy_poll {
            // Spinning on the CQ: events are noticed immediately.
            return now;
        }
        if self.cpu.free_at() >= now {
            // Still (or just) busy: no sleep happened, processing
            // continues as soon as the core frees up.
            return now;
        }
        let mut delay = self.jittered(self.host.wakeup_latency);
        if self.host.stall_prob > 0.0 && self.rng.next_f64() < self.host.stall_prob {
            let extra = self.rng.next_below(self.host.stall_max.as_nanos() + 1);
            delay += SimDuration::from_nanos(extra);
        }
        now + delay
    }
}

/// Outcome of a simulation run.
#[derive(Clone, Copy, Debug)]
pub struct RunOutcome {
    /// Virtual time when the loop stopped.
    pub end: SimTime,
    /// True if every app reported done; false if the event queue drained
    /// or the time limit was hit first.
    pub completed: bool,
    /// Total events delivered.
    pub events: u64,
}

/// The discrete-event fabric driver.
pub struct SimNet {
    sched: Scheduler<Ev>,
    nodes: Vec<NodeRuntime>,
    links: LinkTable,
    fabric: FabricRt,
    fatal: Vec<String>,
    panic_on_fatal: bool,
    host_seed: u64,
    trace: TraceRing,
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
            sched: Scheduler::new(),
            nodes: Vec::new(),
            links: LinkTable::default(),
            fabric: FabricRt::fifo(),
            fatal: Vec::new(),
            panic_on_fatal: true,
            host_seed: 0x5EED,
            trace: TraceRing::disabled(),
            effects: Vec::new(),
        }
    }

    /// Enables event tracing, retaining the last `capacity` records.
    /// Dump with [`SimNet::dump_trace`]; invaluable when a protocol run
    /// misbehaves.
    pub fn enable_trace(&mut self, capacity: usize) {
        self.trace = TraceRing::new(capacity);
    }

    /// Renders the retained trace, one event per line.
    pub fn dump_trace(&self) -> String {
        self.trace.dump()
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
        self.nodes.push(NodeRuntime {
            hca: HcaCore::new(id, hca),
            cpu: CpuMeter::new(),
            host,
            wake_scheduled: false,
            rng,
        });
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
            self.links.is_empty(),
            "set_fabric must precede connect_nodes"
        );
        self.fabric.fair = match &model {
            FabricModel::Fifo => None,
            FabricModel::FairShare(cfg) => Some(FairShareFabric::new(cfg.clone())),
        };
        self.fabric.model = model;
    }

    /// The active bandwidth-contention model.
    pub fn fabric_model(&self) -> &FabricModel {
        &self.fabric.model
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
        self.links
            .connect(a.0, b.0, Link::new(a_to_b, seed.wrapping_mul(2)));
        self.links
            .connect(b.0, a.0, Link::new(b_to_a, seed.wrapping_mul(2) + 1));
    }

    /// By default a [`Effect::Fatal`] (RNR, remote access error) panics,
    /// treating it as a protocol bug. Tests that *expect* violations can
    /// turn this off and inspect [`SimNet::fatal_errors`].
    pub fn set_panic_on_fatal(&mut self, panic_on_fatal: bool) {
        self.panic_on_fatal = panic_on_fatal;
    }

    /// Fatal errors collected while `panic_on_fatal` is off.
    pub fn fatal_errors(&self) -> &[String] {
        &self.fatal
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.sched.now()
    }

    /// CPU usage of `node` over its current measurement window.
    pub fn cpu_usage(&self, node: NodeId) -> f64 {
        self.nodes[node.index()].cpu.usage(self.sched.now())
    }

    /// Resets `node`'s CPU measurement window at the current time.
    pub fn cpu_window_reset(&mut self, node: NodeId) {
        let now = self.sched.now();
        self.nodes[node.index()].cpu.window_reset(now);
    }

    /// Total busy time charged to `node`.
    pub fn cpu_busy_total(&self, node: NodeId) -> SimDuration {
        self.nodes[node.index()].cpu.busy_total()
    }

    /// Payload bytes carried so far on the directed link `a → b`.
    pub fn link_bytes(&self, a: NodeId, b: NodeId) -> u64 {
        self.links
            .get(a.0, b.0)
            .map(|l| l.link.bytes_sent())
            .unwrap_or(0)
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
        self.links.expect_mut(a.0, b.0).down = !up;
    }

    /// Fault injection: fails a QP (error state + receive flush) at the
    /// current virtual time. Flushed completions wake the node's app
    /// like any other completion.
    pub fn inject_qp_error(&mut self, node: NodeId, qpn: QpNum) -> Result<()> {
        let now = self.sched.now();
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
        let now = self.sched.now();
        let SimNet {
            sched,
            nodes,
            links,
            fabric,
            ..
        } = self;
        let rt = &mut nodes[node.index()];
        let mut api = NodeApi {
            node,
            rt,
            links,
            sched,
            fabric,
            cpu_now: now,
        };
        f(&mut api)
    }

    /// Runs the event loop until every app is done, the queue drains, or
    /// the virtual clock passes `limit`.
    ///
    /// `apps[i]` is the application for `NodeId(i)`; the slice length must
    /// match the node count.
    pub fn run(&mut self, apps: &mut [&mut dyn NodeApp], limit: SimTime) -> RunOutcome {
        assert_eq!(apps.len(), self.nodes.len(), "one app per node is required");

        // Start phase.
        for (i, app) in apps.iter_mut().enumerate() {
            let node = NodeId(i as u32);
            let SimNet {
                sched,
                nodes,
                links,
                fabric,
                ..
            } = self;
            let rt = &mut nodes[node.index()];
            let cpu_now = sched.now().max(rt.cpu.free_at());
            let mut api = NodeApi {
                node,
                rt,
                links,
                sched,
                fabric,
                cpu_now,
            };
            app.on_start(&mut api);
        }

        loop {
            if apps.iter().all(|a| a.is_done()) {
                return RunOutcome {
                    end: self.sched.now(),
                    completed: true,
                    events: self.sched.delivered(),
                };
            }
            let Some((now, ev)) = self.sched.pop() else {
                return RunOutcome {
                    end: self.sched.now(),
                    completed: apps.iter().all(|a| a.is_done()),
                    events: self.sched.delivered(),
                };
            };
            if now > limit {
                // Not this run's event: put it back for the next run
                // (dropping it would lose, say, a node's pending wake,
                // and with it every later wake of that node).
                self.sched.schedule_at(now, ev);
                return RunOutcome {
                    end: now,
                    completed: false,
                    events: self.sched.delivered(),
                };
            }
            match ev {
                Ev::Deliver { msg } => {
                    let (src, dst) = (msg.src_node(), msg.dst_node());
                    // The link is checked first: a message lost on the
                    // wire never has its source read.
                    let lost = if self.links.get(src.0, dst.0).is_some_and(|l| l.down) {
                        Some("link down")
                    } else {
                        if self.trace.is_enabled() {
                            self.trace.push(
                                now,
                                "deliver",
                                format!(
                                    "{src:?}->{dst:?} {} len={}",
                                    op_tag(&msg.op),
                                    msg.payload_len()
                                ),
                            );
                        }
                        match place(&mut self.nodes, &msg, &mut self.effects) {
                            Ok(()) => {
                                self.apply_effects(dst, now);
                                None
                            }
                            // The posted range is no longer registered:
                            // the sender is tearing down after a QP
                            // error, or broke the posted-buffer contract.
                            Err(_) => Some("source unreadable"),
                        }
                    };
                    if let Some(why) = lost {
                        // RC would retransmit and give up after the
                        // retry period: fail the sender QP.
                        if self.trace.is_enabled() {
                            self.trace.push(
                                now,
                                "dropped",
                                format!("{src:?}->{dst:?} {} ({why})", op_tag(&msg.op)),
                            );
                        }
                        self.sched.schedule_after(
                            RETRY_PERIOD,
                            Ev::QpFail {
                                node: src,
                                qpn: msg.src.1,
                            },
                        );
                    }
                }
                Ev::TxDone { node, qpn, cqe } => {
                    self.nodes[node.index()]
                        .hca
                        .tx_finished(qpn, cqe, &mut self.effects);
                    self.apply_effects(node, now);
                }
                Ev::Wake { node } => {
                    if self.trace.is_enabled() {
                        self.trace.push(now, "wake", format!("{node:?}"));
                    }
                    let SimNet {
                        sched,
                        nodes,
                        links,
                        fabric,
                        ..
                    } = self;
                    let rt = &mut nodes[node.index()];
                    rt.wake_scheduled = false;
                    // Wakeup latency (sleeping process) + the per-wake
                    // event-channel processing cost.
                    let start = rt.wake_start(now);
                    let wakeup = rt.host.event_wakeup;
                    let cpu_now = rt.charge(start, wakeup);
                    let mut api = NodeApi {
                        node,
                        rt,
                        links,
                        sched,
                        fabric,
                        cpu_now,
                    };
                    apps[node.index()].on_wake(&mut api);
                }
                Ev::Timer { node, token } => {
                    let SimNet {
                        sched,
                        nodes,
                        links,
                        fabric,
                        ..
                    } = self;
                    let rt = &mut nodes[node.index()];
                    let cpu_now = now.max(rt.cpu.free_at());
                    let mut api = NodeApi {
                        node,
                        rt,
                        links,
                        sched,
                        fabric,
                        cpu_now,
                    };
                    apps[node.index()].on_timer(&mut api, token);
                }
                Ev::QpFail { node, qpn } => {
                    // Retry exhaustion for a message lost on a downed
                    // link. The QP may already be in the error state
                    // (several losses); that is fine.
                    if self.nodes[node.index()]
                        .hca
                        .fail_qp(qpn, &mut self.effects)
                        .is_ok()
                    {
                        self.apply_effects(node, now);
                    }
                }
                Ev::FabricStart { token } => {
                    let pending = self
                        .fabric
                        .pending
                        .get(token)
                        .expect("FabricStart for unknown transfer");
                    let src = pending.msg.src_node();
                    let dst = pending.msg.dst_node();
                    let payload = pending.msg.payload_len();
                    let link = &mut self.links.expect_mut(src.0, dst.0).link;
                    // Utilisation gauges still live on the per-pair link;
                    // timing moves to the allocator.
                    link.account(payload);
                    let wire_bytes = link.config().wire_bytes(payload);
                    let fair = self.fabric.fair.as_mut().expect("fair-share mode");
                    let changes = fair.submit(
                        now,
                        src.0,
                        dst.0,
                        Transfer {
                            token: token as u64,
                            wire_bytes,
                            payload_bytes: payload,
                        },
                    );
                    apply_flow_changes(&mut self.sched, &mut self.links, now, changes);
                }
                Ev::FlowHeadDone { src, dst } => {
                    let pair = self.links.expect_mut(src, dst);
                    pair.head_event = None;
                    let link_cfg = pair.link.config();
                    let (prop, jitter) = (link_cfg.propagation, link_cfg.jitter);
                    let fair = self.fabric.fair.as_mut().expect("fair-share mode");
                    let (transfer, arrival, changes) = fair.complete(now, src, dst, prop, jitter);
                    let pending = self
                        .fabric
                        .pending
                        .remove(transfer.token as u32)
                        .expect("completed transfer has no message");
                    let (src_node, src_qpn) = pending.msg.src;
                    // Same RC ack model as the FIFO path (see `launch`,
                    // also for why delivery is scheduled first).
                    self.sched
                        .schedule_at(arrival, Ev::Deliver { msg: pending.msg });
                    if pending.owns_sq_slot && !pending.is_read {
                        let wqe_process = self.nodes[src_node.index()].hca.config().wqe_process;
                        let acked = arrival + wqe_process + prop;
                        self.sched.schedule_at(
                            acked,
                            Ev::TxDone {
                                node: src_node,
                                qpn: src_qpn,
                                cqe: pending.cqe,
                            },
                        );
                    }
                    apply_flow_changes(&mut self.sched, &mut self.links, now, changes);
                }
            }
        }
    }

    /// Applies, then clears, what the HCA of `node` left in
    /// `self.effects`.
    fn apply_effects(&mut self, node: NodeId, now: SimTime) {
        // Taken out for the loop: applying an effect needs `self`, and
        // never produces another one.
        let mut effects = std::mem::take(&mut self.effects);
        for effect in effects.drain(..) {
            match effect {
                Effect::Completion { .. } => {
                    let SimNet { sched, nodes, .. } = self;
                    schedule_wake(&mut nodes[node.index()], sched, node, now);
                }
                Effect::Transmit(msg) => {
                    // Responder-generated message (RDMA READ response):
                    // the HCA emits it without CPU involvement.
                    let SimNet {
                        sched,
                        nodes,
                        links,
                        fabric,
                        ..
                    } = self;
                    let rt = &mut nodes[node.index()];
                    launch(
                        rt,
                        links,
                        sched,
                        fabric,
                        PreparedSend {
                            msg,
                            completion: None,
                            is_read: false,
                        },
                        now,
                        // READ responses do not occupy an SQ slot.
                        false,
                    );
                }
                Effect::Fatal {
                    qpn,
                    status,
                    detail,
                } => {
                    let text = format!("node {node:?} qp {qpn:?}: {status:?}: {detail}");
                    if self.panic_on_fatal {
                        panic!("fatal verbs error: {text}");
                    }
                    self.fatal.push(text);
                }
            }
        }
        self.effects = effects;
    }
}

fn schedule_wake(rt: &mut NodeRuntime, sched: &mut Scheduler<Ev>, node: NodeId, now: SimTime) {
    if rt.wake_scheduled {
        return;
    }
    let at = now.max(rt.cpu.free_at());
    sched.schedule_at(at, Ev::Wake { node });
    rt.wake_scheduled = true;
}

/// Short label for a wire operation in trace output.
fn op_tag(op: &crate::wire::WireOp) -> &'static str {
    match op {
        crate::wire::WireOp::Send { .. } => "send",
        crate::wire::WireOp::Write { .. } => "write",
        crate::wire::WireOp::WriteImm { .. } => "write-imm",
        crate::wire::WireOp::ReadReq { .. } => "read-req",
        crate::wire::WireOp::ReadResp { .. } => "read-resp",
    }
}

/// Pushes a prepared send through the HCA pipeline and onto the fabric.
/// In FIFO mode the message serializes on its private [`Link`] here and
/// the delivery/ack events are scheduled directly; in fair-share mode
/// it is handed to the flow allocator at pipeline exit (a
/// `FabricStart` event) and the events are scheduled when its flow's
/// head completes. `owns_sq_slot` is false for HCA-originated
/// responses, which bypass the send queue.
fn launch(
    rt: &mut NodeRuntime,
    links: &mut LinkTable,
    sched: &mut Scheduler<Ev>,
    fabric: &mut FabricRt,
    prepared: PreparedSend,
    post_time: SimTime,
    owns_sq_slot: bool,
) {
    let (src_node, src_qpn) = prepared.msg.src;
    let dst_node = prepared.msg.dst_node();
    let wqe_process = rt.hca.config().wqe_process;

    // Serialize on the QP's HCA pipeline.
    let start = if owns_sq_slot {
        let qp = rt.hca.qp_mut(src_qpn).expect("launch on unknown QP");
        let start = post_time.max(qp.hca_free_at);
        qp.hca_free_at = start + wqe_process;
        start
    } else {
        post_time
    };
    let proc_done = start + wqe_process;

    if fabric.fair.is_some() {
        // Fair-share mode: the wire phase belongs to the allocator.
        let token = fabric.pending.insert(PendingTx {
            msg: prepared.msg,
            cqe: prepared.completion,
            is_read: prepared.is_read,
            owns_sq_slot,
        });
        sched.schedule_at(proc_done, Ev::FabricStart { token });
        return;
    }

    let link = &mut links.expect_mut(src_node.0, dst_node.0).link;
    let payload_len = prepared.msg.payload_len();
    let back_prop = link.config().propagation;
    let arrival = link.transit(proc_done, payload_len);

    // Delivery is scheduled before the completion so that it also runs
    // first when the two fall on the same instant (zero turnaround and
    // propagation): delivery is when the source buffer is read, and the
    // completion is what lets the application overwrite it.
    sched.schedule_at(arrival, Ev::Deliver { msg: prepared.msg });

    // Reliable-connected semantics: the send completes (and its SQ slot
    // retires) when the responder HCA's hardware acknowledgment returns
    // — one propagation after arrival plus the responder's WQE
    // turnaround. READ requests keep their slot until the response.
    if owns_sq_slot && !prepared.is_read {
        let acked = arrival + wqe_process + back_prop;
        sched.schedule_at(
            acked,
            Ev::TxDone {
                node: src_node,
                qpn: src_qpn,
                cqe: prepared.completion,
            },
        );
    }
}

/// Delivers `msg` to its destination HCA, copying the payload once:
/// straight from the source node's region when the message only
/// describes it. Fails, having placed nothing, if that range can no
/// longer be read. What the delivery produced is appended to `effects`.
fn place(nodes: &mut [NodeRuntime], msg: &WireMessage, effects: &mut Vec<Effect>) -> Result<()> {
    let (src, dst) = (msg.src_node().index(), msg.dst_node().index());
    if src == dst {
        // Loopback: one table cannot be lent out as source and
        // destination at once, so the payload is staged.
        let hca = &mut nodes[dst].hca;
        let staged = hca.capture_payload(&msg.payload)?;
        hca.handle_wire(msg, &staged, effects);
        return Ok(());
    }
    let (low, high) = nodes.split_at_mut(src.max(dst));
    let (from, to) = if src < dst {
        (&mut low[src], &mut high[0])
    } else {
        (&mut high[0], &mut low[dst])
    };
    let data = msg.payload.resolve(from.hca.mem_mut())?;
    to.hca.handle_wire(msg, data, effects);
    Ok(())
}

/// Per-node handle passed to [`NodeApp`] callbacks and
/// [`SimNet::with_api`] closures.
pub struct NodeApi<'a> {
    node: NodeId,
    rt: &'a mut NodeRuntime,
    links: &'a mut LinkTable,
    sched: &'a mut Scheduler<Ev>,
    fabric: &'a mut FabricRt,
    /// This handler's CPU-time cursor: verbs posts issued through the api
    /// are stamped at this instant, which advances as work is charged.
    cpu_now: SimTime,
}

impl NodeApi<'_> {
    /// The node this api controls.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The handler's current CPU-time cursor.
    pub fn now(&self) -> SimTime {
        self.cpu_now
    }

    /// The node's host cost model.
    pub fn host(&self) -> &HostModel {
        &self.rt.host
    }

    /// Charges CPU work (with host jitter), advancing the cursor.
    pub fn charge(&mut self, work: SimDuration) {
        self.cpu_now = self.rt.charge(self.cpu_now, work);
    }

    /// Registers a memory region (setup cost not modelled: registration
    /// happens outside the timed window in the paper's experiments).
    pub fn register_mr(&mut self, len: usize, access: Access) -> MrInfo {
        self.rt.hca.register_mr(len, access)
    }

    /// Deregisters a memory region.
    pub fn hca_deregister(&mut self, key: MrKey) -> Result<()> {
        self.rt.hca.deregister_mr(key)
    }

    /// Registers a memory region, charging the host's pin-down cost
    /// (`ibv_reg_mr` kernel transition + per-page pinning). The mempool
    /// acquire path uses this so registration churn shows up in virtual
    /// time; setup-phase registrations keep using
    /// [`NodeApi::register_mr`].
    pub fn register_mr_charged(&mut self, len: usize, access: Access) -> MrInfo {
        let cost = self.rt.host.mr_register_time(len as u64);
        self.charge(cost);
        self.rt.hca.register_mr(len, access)
    }

    /// Deregisters a memory region, charging the host's unpin cost.
    pub fn deregister_mr_charged(&mut self, key: MrKey) -> Result<()> {
        let len = self.rt.hca.mem().len_of(key).unwrap_or(0);
        let cost = self.rt.host.mr_deregister_time(len as u64);
        self.charge(cost);
        self.rt.hca.deregister_mr(key)
    }

    /// Number of live memory registrations on this node (leak checks).
    pub fn mr_count(&self) -> usize {
        self.rt.hca.mem().len()
    }

    /// Creates a completion queue.
    pub fn create_cq(&mut self, depth: usize) -> CqId {
        self.rt.hca.create_cq(depth)
    }

    /// Creates a queue pair.
    pub fn create_qp(&mut self, send_cq: CqId, recv_cq: CqId, caps: QpCaps) -> Result<QpNum> {
        self.rt.hca.create_qp(send_cq, recv_cq, caps)
    }

    /// Connects a queue pair to a remote peer.
    pub fn connect_qp(&mut self, qpn: QpNum, remote: (NodeId, QpNum)) -> Result<()> {
        self.rt.hca.connect_qp(qpn, remote)
    }

    /// Posts a send work request: charges the post overhead, validates,
    /// and launches the message through the HCA pipeline and link.
    pub fn post_send(&mut self, qpn: QpNum, wr: SendWr) -> Result<()> {
        let overhead = self.rt.host.post_overhead;
        self.charge(overhead);
        let prepared = self.rt.hca.prepare_send(qpn, wr)?;
        launch(
            self.rt,
            self.links,
            self.sched,
            self.fabric,
            prepared,
            self.cpu_now,
            true,
        );
        Ok(())
    }

    /// Posts a chain of send work requests as one postlist: the
    /// doorbell/WQE-build overhead is charged **once** for the whole
    /// chain — the point of doorbell batching — while each WQE still
    /// serializes through the QP's HCA pipeline individually. Stops at
    /// the first invalid WR and returns its error; WRs before it are
    /// already on the wire (the `ibv_post_send` `bad_wr` contract).
    pub fn post_send_list(&mut self, qpn: QpNum, wrs: Vec<SendWr>) -> Result<()> {
        if wrs.is_empty() {
            return Ok(());
        }
        let overhead = self.rt.host.post_overhead;
        self.charge(overhead);
        for wr in wrs {
            let prepared = self.rt.hca.prepare_send(qpn, wr)?;
            launch(
                self.rt,
                self.links,
                self.sched,
                self.fabric,
                prepared,
                self.cpu_now,
                true,
            );
        }
        Ok(())
    }

    /// Posts a receive work request.
    pub fn post_recv(&mut self, qpn: QpNum, wr: RecvWr) -> Result<()> {
        let overhead = self.rt.host.post_overhead;
        self.charge(overhead);
        self.rt.hca.post_recv(qpn, wr)
    }

    /// Polls completions, charging one poll overhead per call.
    pub fn poll_cq(&mut self, cq: CqId, max: usize, out: &mut Vec<Cqe>) -> Result<usize> {
        let overhead = self.rt.host.poll_overhead;
        self.charge(overhead);
        self.rt.hca.poll_cq(cq, max, out)
    }

    /// Arms a CQ for one notification.
    pub fn arm_cq(&mut self, cq: CqId) -> Result<bool> {
        self.rt.hca.arm_cq(cq)
    }

    /// Writes application data into registered memory without charging
    /// CPU (setup/fill outside the measured path).
    pub fn write_mr(&mut self, key: MrKey, addr: u64, data: &[u8]) -> Result<()> {
        self.rt.hca.mem_mut().app_write(key, addr, data)
    }

    /// Reads application data from registered memory without charging CPU.
    pub fn read_mr(&self, key: MrKey, addr: u64, buf: &mut [u8]) -> Result<()> {
        self.rt.hca.mem().app_read(key, addr, buf)
    }

    /// Copies between registered regions, charging the host memcpy cost.
    /// This is the EXS intermediate-buffer → user-buffer copy.
    pub fn copy_mr(
        &mut self,
        src_key: MrKey,
        src_addr: u64,
        dst_key: MrKey,
        dst_addr: u64,
        len: u64,
    ) -> Result<u64> {
        let cost = self.rt.host.memcpy_time(len);
        self.charge(cost);
        self.rt
            .hca
            .mem_mut()
            .local_copy(src_key, src_addr, dst_key, dst_addr, len)
    }

    /// Schedules an [`NodeApp::on_timer`] callback `delay` after the
    /// current CPU cursor.
    pub fn set_timer(&mut self, delay: SimDuration, token: u64) {
        self.sched.schedule_at(
            self.cpu_now + delay,
            Ev::Timer {
                node: self.node,
                token,
            },
        );
    }

    /// Direct read-only access to the HCA (stats, QP state).
    pub fn hca(&self) -> &HcaCore {
        &self.rt.hca
    }

    /// Number of posted, unconsumed receives on a QP.
    pub fn rq_len(&self, qpn: QpNum) -> usize {
        self.rt.hca.qp(qpn).map(|q| q.rq_len()).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{Sge, WcOpcode};

    fn quiet_host() -> HostModel {
        HostModel::free()
    }

    fn fast_link() -> LinkConfig {
        LinkConfig::simple(100_000_000_000, SimDuration::from_micros(1))
    }

    struct Idle;
    impl NodeApp for Idle {
        fn on_start(&mut self, _api: &mut NodeApi<'_>) {}
        fn on_wake(&mut self, _api: &mut NodeApi<'_>) {}
        fn is_done(&self) -> bool {
            true
        }
    }

    /// Sends `count` messages, one per send completion.
    struct Pinger {
        qpn: Option<QpNum>,
        cq: Option<CqId>,
        mr: Option<MrInfo>,
        sent: u32,
        count: u32,
        completions: u32,
    }

    impl Pinger {
        fn new(count: u32) -> Self {
            Pinger {
                qpn: None,
                cq: None,
                mr: None,
                sent: 0,
                count,
                completions: 0,
            }
        }
    }

    impl NodeApp for Pinger {
        fn on_start(&mut self, api: &mut NodeApi<'_>) {
            let sge = self.mr.unwrap().sge(0, 64);
            api.post_send(self.qpn.unwrap(), SendWr::send(0, sge))
                .unwrap();
            self.sent = 1;
        }
        fn on_wake(&mut self, api: &mut NodeApi<'_>) {
            let mut cqes = Vec::new();
            api.poll_cq(self.cq.unwrap(), usize::MAX, &mut cqes)
                .unwrap();
            for cqe in cqes {
                assert_eq!(cqe.opcode, WcOpcode::Send);
                self.completions += 1;
                if self.sent < self.count {
                    let sge = self.mr.unwrap().sge(0, 64);
                    api.post_send(self.qpn.unwrap(), SendWr::send(self.sent as u64, sge))
                        .unwrap();
                    self.sent += 1;
                }
            }
        }
        fn is_done(&self) -> bool {
            self.completions == self.count
        }
    }

    /// Posts receives and counts arrivals.
    struct Ponger {
        qpn: Option<QpNum>,
        cq: Option<CqId>,
        mr: Option<MrInfo>,
        received: u32,
        expect: u32,
    }

    impl NodeApp for Ponger {
        fn on_start(&mut self, _api: &mut NodeApi<'_>) {}
        fn on_wake(&mut self, api: &mut NodeApi<'_>) {
            let mut cqes = Vec::new();
            api.poll_cq(self.cq.unwrap(), usize::MAX, &mut cqes)
                .unwrap();
            for cqe in cqes {
                assert_eq!(cqe.opcode, WcOpcode::Recv);
                self.received += 1;
                // Replenish the receive so the sender never hits RNR.
                let sge = self.mr.unwrap().sge(0, 64);
                api.post_recv(self.qpn.unwrap(), RecvWr::new(cqe.wr_id + 1, sge))
                    .unwrap();
            }
        }
        fn is_done(&self) -> bool {
            self.received >= self.expect
        }
    }

    fn build_pair(net: &mut SimNet) -> (NodeId, NodeId) {
        let a = net.add_node(quiet_host(), HcaConfig::default());
        let b = net.add_node(quiet_host(), HcaConfig::default());
        net.connect_nodes(a, b, fast_link(), 7);
        (a, b)
    }

    #[test]
    fn ping_stream_delivers_all() {
        let mut net = SimNet::new();
        let (a, b) = build_pair(&mut net);

        let mut pinger = Pinger::new(10);
        let mut ponger = Ponger {
            qpn: None,
            cq: None,
            mr: None,
            received: 0,
            expect: 10,
        };

        // Setup outside the loop.
        let (a_qp, a_cq, a_mr) = net.with_api(a, |api| {
            let scq = api.create_cq(64);
            let rcq = api.create_cq(64);
            let qp = api.create_qp(scq, rcq, QpCaps::default()).unwrap();
            let mr = api.register_mr(64, Access::NONE);
            (qp, scq, mr)
        });
        let (b_qp, b_cq, b_mr) = net.with_api(b, |api| {
            let scq = api.create_cq(64);
            let rcq = api.create_cq(64);
            let qp = api.create_qp(scq, rcq, QpCaps::default()).unwrap();
            let mr = api.register_mr(64, Access::LOCAL_WRITE);
            (qp, rcq, mr)
        });
        net.with_api(a, |api| api.connect_qp(a_qp, (b, b_qp)).unwrap());
        net.with_api(b, |api| {
            api.connect_qp(b_qp, (a, a_qp)).unwrap();
            // Pre-post plenty of receives.
            for i in 0..16 {
                let sge = Sge::new(b_mr.addr, 64, b_mr.key);
                api.post_recv(b_qp, RecvWr::new(i, sge)).unwrap();
            }
        });
        pinger.qpn = Some(a_qp);
        pinger.cq = Some(a_cq);
        pinger.mr = Some(a_mr);
        ponger.qpn = Some(b_qp);
        ponger.cq = Some(b_cq);
        ponger.mr = Some(b_mr);

        let outcome = net.run(&mut [&mut pinger, &mut ponger], SimTime::from_secs(1));
        assert!(outcome.completed, "run did not finish: {outcome:?}");
        assert_eq!(pinger.completions, 10);
        assert_eq!(ponger.received, 10);
        assert_eq!(net.link_bytes(a, b), 640);
        // Time passed: 10 messages through a 1 us link.
        assert!(net.now() > SimTime::from_micros(1));
    }

    #[test]
    fn postlist_charges_one_doorbell_and_batch_retires_slots() {
        // One node pays 1 us per doorbell; 7 unsignaled WRITEs + 1
        // signaled WRITE posted as a single postlist must charge that
        // microsecond exactly once, and the signaled completion must
        // retire all eight SQ slots.
        let mut host = HostModel::free();
        host.post_overhead = SimDuration::from_micros(1);
        let mut net = SimNet::new();
        let a = net.add_node(host, HcaConfig::default());
        let b = net.add_node(HostModel::free(), HcaConfig::default());
        net.connect_nodes(a, b, fast_link(), 3);

        let (a_qp, a_mr) = net.with_api(a, |api| {
            let scq = api.create_cq(64);
            let rcq = api.create_cq(64);
            let qp = api.create_qp(scq, rcq, QpCaps::default()).unwrap();
            (qp, api.register_mr(64, Access::NONE))
        });
        let (b_qp, b_mr) = net.with_api(b, |api| {
            let scq = api.create_cq(64);
            let rcq = api.create_cq(64);
            let qp = api.create_qp(scq, rcq, QpCaps::default()).unwrap();
            (qp, api.register_mr(64, Access::local_remote_write()))
        });
        net.with_api(a, |api| api.connect_qp(a_qp, (b, b_qp)).unwrap());
        net.with_api(b, |api| api.connect_qp(b_qp, (a, a_qp)).unwrap());

        net.with_api(a, |api| {
            let remote = crate::types::RemoteAddr {
                addr: b_mr.addr,
                rkey: b_mr.key,
            };
            let wrs: Vec<SendWr> = (0..8)
                .map(|i| {
                    let wr = SendWr::write(i, a_mr.sge(0, 8), remote);
                    if i < 7 {
                        wr.unsignaled()
                    } else {
                        wr
                    }
                })
                .collect();
            api.post_send_list(a_qp, wrs).unwrap();
            assert_eq!(api.hca().qp(a_qp).unwrap().sq_outstanding(), 8);
        });
        assert_eq!(net.cpu_busy_total(a), SimDuration::from_micros(1));

        // Drain the event queue (never-done apps keep the loop running
        // until no events remain).
        struct Drain;
        impl NodeApp for Drain {
            fn on_start(&mut self, _api: &mut NodeApi<'_>) {}
            fn on_wake(&mut self, _api: &mut NodeApi<'_>) {}
        }
        let mut ia = Drain;
        let mut ib = Drain;
        net.run(&mut [&mut ia, &mut ib], SimTime::from_secs(1));
        net.with_api(a, |api| {
            let qp = api.hca().qp(a_qp).unwrap();
            assert_eq!(qp.sq_outstanding(), 0, "signaled CQE retires the batch");
            assert_eq!(qp.sq_deferred(), 0);
        });
    }

    #[test]
    fn fair_share_ping_delivers_all_and_accounts_bytes() {
        // The FIFO ping test, re-run under the fair-share fabric: same
        // deliveries, same per-pair byte accounting, and the allocator
        // reports one active-then-drained flow per direction used.
        let mut net = SimNet::new();
        net.set_fabric(FabricModel::FairShare(
            simnet::fabric::FairShareConfig::new(7),
        ));
        let (a, b) = build_pair(&mut net);

        let mut pinger = Pinger::new(10);
        let mut ponger = Ponger {
            qpn: None,
            cq: None,
            mr: None,
            received: 0,
            expect: 10,
        };
        let (a_qp, a_cq, a_mr) = net.with_api(a, |api| {
            let scq = api.create_cq(64);
            let rcq = api.create_cq(64);
            let qp = api.create_qp(scq, rcq, QpCaps::default()).unwrap();
            let mr = api.register_mr(64, Access::NONE);
            (qp, scq, mr)
        });
        let (b_qp, b_cq, b_mr) = net.with_api(b, |api| {
            let scq = api.create_cq(64);
            let rcq = api.create_cq(64);
            let qp = api.create_qp(scq, rcq, QpCaps::default()).unwrap();
            let mr = api.register_mr(64, Access::LOCAL_WRITE);
            (qp, rcq, mr)
        });
        net.with_api(a, |api| api.connect_qp(a_qp, (b, b_qp)).unwrap());
        net.with_api(b, |api| {
            api.connect_qp(b_qp, (a, a_qp)).unwrap();
            for i in 0..16 {
                let sge = Sge::new(b_mr.addr, 64, b_mr.key);
                api.post_recv(b_qp, RecvWr::new(i, sge)).unwrap();
            }
        });
        pinger.qpn = Some(a_qp);
        pinger.cq = Some(a_cq);
        pinger.mr = Some(a_mr);
        ponger.qpn = Some(b_qp);
        ponger.cq = Some(b_cq);
        ponger.mr = Some(b_mr);

        let outcome = net.run(&mut [&mut pinger, &mut ponger], SimTime::from_secs(1));
        assert!(outcome.completed, "run did not finish: {outcome:?}");
        assert_eq!(pinger.completions, 10);
        assert_eq!(ponger.received, 10);
        assert_eq!(net.link_bytes(a, b), 640, "gauges survive the fair path");
        let stats = net.fabric_stats().expect("fair-share telemetry");
        let fwd = stats
            .flows
            .iter()
            .find(|f| f.src == a.0 && f.dst == b.0)
            .expect("a→b flow tracked");
        assert_eq!(fwd.bytes, 640);
        assert_eq!(fwd.transfers, 10);
        assert_eq!(stats.respeeds, 0, "ping-pong never has concurrent flows");
    }

    #[test]
    fn fifo_mode_reports_no_fabric_stats() {
        let net = SimNet::new();
        assert!(net.fabric_stats().is_none());
        assert_eq!(net.fabric_model(), &FabricModel::Fifo);
    }

    #[test]
    fn idle_network_terminates() {
        let mut net = SimNet::new();
        let (_a, _b) = build_pair(&mut net);
        let mut ia = Idle;
        let mut ib = Idle;
        let outcome = net.run(&mut [&mut ia, &mut ib], SimTime::from_secs(1));
        assert!(outcome.completed);
        assert_eq!(outcome.end, SimTime::ZERO);
    }

    #[test]
    fn fatal_collection_mode() {
        let mut net = SimNet::new();
        let (a, b) = build_pair(&mut net);
        net.set_panic_on_fatal(false);

        struct SendNoRecv {
            qpn: Option<QpNum>,
            mr: Option<MrInfo>,
        }
        impl NodeApp for SendNoRecv {
            fn on_start(&mut self, api: &mut NodeApi<'_>) {
                let sge = self.mr.unwrap().sge(0, 8);
                api.post_send(self.qpn.unwrap(), SendWr::send(1, sge))
                    .unwrap();
            }
            fn on_wake(&mut self, _api: &mut NodeApi<'_>) {}
            fn is_done(&self) -> bool {
                false
            }
        }

        let (a_qp, a_mr) = net.with_api(a, |api| {
            let scq = api.create_cq(8);
            let rcq = api.create_cq(8);
            let qp = api.create_qp(scq, rcq, QpCaps::default()).unwrap();
            (qp, api.register_mr(8, Access::NONE))
        });
        let b_qp = net.with_api(b, |api| {
            let scq = api.create_cq(8);
            let rcq = api.create_cq(8);
            api.create_qp(scq, rcq, QpCaps::default()).unwrap()
        });
        net.with_api(a, |api| api.connect_qp(a_qp, (b, b_qp)).unwrap());
        net.with_api(b, |api| api.connect_qp(b_qp, (a, a_qp)).unwrap());

        let mut sender = SendNoRecv {
            qpn: Some(a_qp),
            mr: Some(a_mr),
        };
        let mut idle = Idle;
        net.run(&mut [&mut sender, &mut idle], SimTime::from_secs(1));
        assert_eq!(net.fatal_errors().len(), 1);
        assert!(net.fatal_errors()[0].contains("no posted RECV"));
    }

    #[test]
    fn cpu_charges_shape_the_timeline() {
        // A host with a large per-post cost must stretch the run.
        let mut slow = HostModel::free();
        slow.post_overhead = SimDuration::from_micros(100);

        let mut net = SimNet::new();
        let a = net.add_node(slow, HcaConfig::default());
        let b = net.add_node(HostModel::free(), HcaConfig::default());
        net.connect_nodes(a, b, fast_link(), 1);

        let (a_qp, a_cq, a_mr) = net.with_api(a, |api| {
            let scq = api.create_cq(64);
            let rcq = api.create_cq(64);
            let qp = api.create_qp(scq, rcq, QpCaps::default()).unwrap();
            (qp, scq, api.register_mr(64, Access::NONE))
        });
        let (b_qp, b_cq, b_mr) = net.with_api(b, |api| {
            let scq = api.create_cq(64);
            let rcq = api.create_cq(64);
            let qp = api.create_qp(scq, rcq, QpCaps::default()).unwrap();
            (qp, rcq, api.register_mr(64, Access::LOCAL_WRITE))
        });
        net.with_api(a, |api| api.connect_qp(a_qp, (b, b_qp)).unwrap());
        net.with_api(b, |api| {
            api.connect_qp(b_qp, (a, a_qp)).unwrap();
            for i in 0..16 {
                let sge = Sge::new(b_mr.addr, 64, b_mr.key);
                api.post_recv(b_qp, RecvWr::new(i, sge)).unwrap();
            }
        });

        let mut pinger = Pinger::new(5);
        pinger.qpn = Some(a_qp);
        pinger.cq = Some(a_cq);
        pinger.mr = Some(a_mr);
        let mut ponger = Ponger {
            qpn: Some(b_qp),
            cq: Some(b_cq),
            mr: Some(b_mr),
            received: 0,
            expect: 5,
        };

        let outcome = net.run(&mut [&mut pinger, &mut ponger], SimTime::from_secs(1));
        assert!(outcome.completed);
        // 5 posts at 100 us each dominate the timeline.
        assert!(net.now() >= SimTime::from_micros(500));
        assert!(net.cpu_busy_total(a) >= SimDuration::from_micros(500));
        assert!(net.cpu_usage(a) > 0.9);
    }

    #[test]
    fn timers_fire() {
        struct TimerApp {
            fired: Vec<u64>,
        }
        impl NodeApp for TimerApp {
            fn on_start(&mut self, api: &mut NodeApi<'_>) {
                api.set_timer(SimDuration::from_micros(5), 1);
                api.set_timer(SimDuration::from_micros(1), 2);
            }
            fn on_wake(&mut self, _api: &mut NodeApi<'_>) {}
            fn on_timer(&mut self, _api: &mut NodeApi<'_>, token: u64) {
                self.fired.push(token);
            }
            fn is_done(&self) -> bool {
                self.fired.len() == 2
            }
        }
        let mut net = SimNet::new();
        let _a = net.add_node(HostModel::free(), HcaConfig::default());
        let mut app = TimerApp { fired: Vec::new() };
        let outcome = net.run(&mut [&mut app], SimTime::from_secs(1));
        assert!(outcome.completed);
        assert_eq!(app.fired, vec![2, 1]);
        assert_eq!(net.now(), SimTime::from_micros(5));
    }

    #[test]
    fn an_event_past_the_horizon_waits_for_the_next_run() {
        struct Alarm {
            set: bool,
            fired: bool,
        }
        impl NodeApp for Alarm {
            fn on_start(&mut self, api: &mut NodeApi<'_>) {
                if !std::mem::replace(&mut self.set, true) {
                    api.set_timer(SimDuration::from_micros(5), 0);
                }
            }
            fn on_wake(&mut self, _api: &mut NodeApi<'_>) {}
            fn on_timer(&mut self, _api: &mut NodeApi<'_>, _token: u64) {
                self.fired = true;
            }
            fn is_done(&self) -> bool {
                self.fired
            }
        }
        let mut net = SimNet::new();
        let _a = net.add_node(HostModel::free(), HcaConfig::default());
        let mut app = Alarm {
            set: false,
            fired: false,
        };
        let early = net.run(&mut [&mut app], SimTime::from_micros(3));
        assert!(!early.completed && !app.fired);
        let late = net.run(&mut [&mut app], SimTime::from_secs(1));
        assert!(late.completed, "the timer was lost at the first horizon");
    }

    #[test]
    fn time_limit_stops_runaway() {
        struct Loopy;
        impl NodeApp for Loopy {
            fn on_start(&mut self, api: &mut NodeApi<'_>) {
                api.set_timer(SimDuration::from_micros(1), 0);
            }
            fn on_wake(&mut self, _api: &mut NodeApi<'_>) {}
            fn on_timer(&mut self, api: &mut NodeApi<'_>, _token: u64) {
                api.set_timer(SimDuration::from_micros(1), 0);
            }
        }
        let mut net = SimNet::new();
        let _ = net.add_node(HostModel::free(), HcaConfig::default());
        let mut app = Loopy;
        let outcome = net.run(&mut [&mut app], SimTime::from_millis(1));
        assert!(!outcome.completed);
        assert!(outcome.end >= SimTime::from_millis(1));
    }
}

#[cfg(test)]
mod wake_model_tests {
    use super::*;
    use crate::types::{Access, Sge, WcOpcode};

    fn latency_host() -> HostModel {
        HostModel {
            wakeup_latency: SimDuration::from_micros(10),
            ..HostModel::free()
        }
    }

    /// One message, event-notification host: the receiver's completion
    /// must be processed no earlier than arrival + wakeup latency.
    fn one_message_end(host_b: HostModel) -> SimTime {
        let mut net = SimNet::new();
        let a = net.add_node(HostModel::free(), HcaConfig::default());
        let b = net.add_node(host_b, HcaConfig::default());
        net.connect_nodes(
            a,
            b,
            LinkConfig::simple(10_000_000_000, SimDuration::from_micros(1)),
            0,
        );

        struct Shot {
            qpn: Option<QpNum>,
            mr: Option<MrInfo>,
        }
        impl NodeApp for Shot {
            fn on_start(&mut self, api: &mut NodeApi<'_>) {
                let sge = self.mr.unwrap().sge(0, 64);
                api.post_send(self.qpn.unwrap(), SendWr::send(1, sge))
                    .unwrap();
            }
            fn on_wake(&mut self, _api: &mut NodeApi<'_>) {}
            fn is_done(&self) -> bool {
                true
            }
        }
        struct Sink {
            cq: Option<CqId>,
            got_at: Option<SimTime>,
        }
        impl NodeApp for Sink {
            fn on_start(&mut self, _api: &mut NodeApi<'_>) {}
            fn on_wake(&mut self, api: &mut NodeApi<'_>) {
                let mut cqes = Vec::new();
                api.poll_cq(self.cq.unwrap(), usize::MAX, &mut cqes)
                    .unwrap();
                for c in cqes {
                    assert_eq!(c.opcode, WcOpcode::Recv);
                    // api.now() is the CPU cursor: it includes the
                    // wakeup latency, unlike the event timestamp.
                    self.got_at = Some(api.now());
                }
            }
            fn is_done(&self) -> bool {
                self.got_at.is_some()
            }
        }

        let (a_qp, a_mr) = net.with_api(a, |api| {
            let scq = api.create_cq(8);
            let rcq = api.create_cq(8);
            let qp = api.create_qp(scq, rcq, QpCaps::default()).unwrap();
            (qp, api.register_mr(64, Access::NONE))
        });
        let (b_qp, b_cq) = net.with_api(b, |api| {
            let scq = api.create_cq(8);
            let rcq = api.create_cq(8);
            let qp = api.create_qp(scq, rcq, QpCaps::default()).unwrap();
            let mr = api.register_mr(64, Access::LOCAL_WRITE);
            api.connect_qp(qp, (a, QpNum(1))).ok();
            api.post_recv(qp, RecvWr::new(1, Sge::new(mr.addr, 64, mr.key)))
                .unwrap();
            (qp, rcq)
        });
        // Re-connect cleanly (the b-side guess above may not match).
        net.with_api(a, |api| api.connect_qp(a_qp, (b, b_qp)).unwrap());

        let mut shot = Shot {
            qpn: Some(a_qp),
            mr: Some(a_mr),
        };
        let mut sink = Sink {
            cq: Some(b_cq),
            got_at: None,
        };
        let outcome = net.run(&mut [&mut shot, &mut sink], SimTime::from_secs(1));
        assert!(outcome.completed);
        sink.got_at.expect("completion processed")
    }

    #[test]
    fn wakeup_latency_delays_idle_receivers() {
        let with_latency = one_message_end(latency_host());
        let without = one_message_end(HostModel::free());
        let delta = with_latency.as_nanos() - without.as_nanos();
        assert!(
            (9_000..=11_000).contains(&delta),
            "expected ~10us wakeup latency, saw {delta} ns"
        );
    }

    #[test]
    fn busy_poll_skips_wakeup_latency() {
        let mut host = latency_host();
        host.busy_poll = true;
        let polled = one_message_end(host);
        let free = one_message_end(HostModel::free());
        assert_eq!(polled, free, "busy polling must see events immediately");
    }

    #[test]
    fn stalls_extend_some_wakeups() {
        let mut host = latency_host();
        host.stall_prob = 1.0; // every wake stalls
        host.stall_max = SimDuration::from_micros(100);
        let stalled = one_message_end(host);
        let base = one_message_end(latency_host());
        assert!(stalled >= base, "a certain stall cannot make things faster");
    }
}

/// The driver reads a send's source buffer when the message is
/// delivered, not when it is posted. These tests pin what makes that
/// sound — the completion never overtakes the delivery — and the fault
/// edges around a source that is gone by delivery time.
#[cfg(test)]
mod placement_tests {
    use super::*;
    use crate::cm::{connect_pair, ConnHalf};
    use crate::types::{RemoteAddr, SendOpcode};
    use simnet::fabric::FairShareConfig;

    const LEN: u32 = 256;
    const ORIGINAL: u8 = 0x5A;
    const SCRIBBLE: u8 = 0xEE;

    /// Runs until the event queue drains.
    struct Drain;
    impl NodeApp for Drain {
        fn on_start(&mut self, _api: &mut NodeApi<'_>) {}
        fn on_wake(&mut self, _api: &mut NodeApi<'_>) {}
    }

    struct Pair {
        net: SimNet,
        a: ConnHalf,
        b: ConnHalf,
        /// Two `LEN`-byte slots on `a`, filled with `ORIGINAL`.
        src: MrInfo,
        /// Two zeroed `LEN`-byte slots on `b`.
        dst: MrInfo,
    }

    fn pair_on(mut net: SimNet, hca: HcaConfig, link: LinkConfig, loopback: bool) -> Pair {
        let a = net.add_node(HostModel::free(), hca.clone());
        let b = if loopback {
            a
        } else {
            net.add_node(HostModel::free(), hca)
        };
        net.connect_nodes(a, b, link, 9);
        let (ha, hb) = connect_pair(&mut net, a, b, QpCaps::default(), 64).unwrap();
        let src = net.with_api(a, |api| {
            let mr = api.register_mr(2 * LEN as usize, Access::NONE);
            api.write_mr(mr.key, mr.addr, &[ORIGINAL; 2 * LEN as usize])
                .unwrap();
            mr
        });
        let dst = net.with_api(b, |api| {
            api.register_mr(2 * LEN as usize, Access::local_remote_write())
        });
        Pair {
            net,
            a: ha,
            b: hb,
            src,
            dst,
        }
    }

    fn pair() -> Pair {
        let link = LinkConfig::simple(100_000_000_000, SimDuration::from_micros(1));
        pair_on(SimNet::new(), HcaConfig::default(), link, false)
    }

    impl Pair {
        /// The work request moving slot `slot` of `src` to slot `slot`
        /// of `dst`; posts the receive it consumes, if any.
        fn wr(&mut self, opcode: SendOpcode, slot: u64) -> SendWr {
            let sge = self.src.sge(slot * LEN as u64, LEN);
            let remote = RemoteAddr {
                addr: self.dst.addr + slot * LEN as u64,
                rkey: self.dst.key,
            };
            let recv = match opcode {
                SendOpcode::Send => Some(RecvWr::new(slot, self.dst.sge(slot * LEN as u64, LEN))),
                SendOpcode::RdmaWriteImm => Some(RecvWr::empty(slot)),
                _ => None,
            };
            if let Some(recv) = recv {
                let qpn = self.b.qpn;
                self.net
                    .with_api(self.b.node, |api| api.post_recv(qpn, recv))
                    .unwrap();
            }
            match opcode {
                SendOpcode::Send => SendWr::send(slot, sge),
                SendOpcode::RdmaWrite => SendWr::write(slot, sge, remote),
                SendOpcode::RdmaWriteImm => SendWr::write_imm(slot, sge, remote, 7),
                SendOpcode::RdmaRead => unreachable!("not a payload-carrying send"),
            }
        }

        fn dst_bytes(&mut self) -> Vec<u8> {
            let mut buf = vec![0u8; self.dst.len];
            let dst = self.dst;
            self.net
                .with_api(self.b.node, |api| api.read_mr(dst.key, dst.addr, &mut buf))
                .unwrap();
            buf
        }

        fn bytes_copied(&mut self) -> u64 {
            let a = self
                .net
                .with_api(self.a.node, |api| api.hca().bytes_copied());
            let b = self
                .net
                .with_api(self.b.node, |api| api.hca().bytes_copied());
            if self.a.node == self.b.node {
                a
            } else {
                a + b
            }
        }
    }

    /// Posts its work requests, then polls its send CQ on every wake and
    /// on a 5 ns timer, and overwrites the whole source region the
    /// moment a completion is pollable — what the posted-buffer contract
    /// allows from then on.
    struct Scribbler {
        conn: ConnHalf,
        src: MrInfo,
        wrs: Vec<SendWr>,
        scribbled: bool,
    }

    impl Scribbler {
        fn poll(&mut self, api: &mut NodeApi<'_>) {
            let mut cqes = Vec::new();
            api.poll_cq(self.conn.send_cq, usize::MAX, &mut cqes)
                .unwrap();
            if cqes.is_empty() {
                api.set_timer(SimDuration::from_nanos(5), 0);
                return;
            }
            assert_eq!(cqes.len(), 1, "only the last work request is signaled");
            api.write_mr(self.src.key, self.src.addr, &vec![SCRIBBLE; self.src.len])
                .unwrap();
            self.scribbled = true;
        }
    }

    impl NodeApp for Scribbler {
        fn on_start(&mut self, api: &mut NodeApi<'_>) {
            api.post_send_list(self.conn.qpn, std::mem::take(&mut self.wrs))
                .unwrap();
            self.poll(api);
        }
        fn on_wake(&mut self, api: &mut NodeApi<'_>) {
            if !self.scribbled {
                self.poll(api);
            }
        }
        fn on_timer(&mut self, api: &mut NodeApi<'_>, _token: u64) {
            if !self.scribbled {
                self.poll(api);
            }
        }
        fn is_done(&self) -> bool {
            self.scribbled
        }
    }

    /// One send of `opcode` (after an unsignaled one, if asked) whose
    /// source is scribbled on at its completion: the destination must
    /// still receive the original bytes.
    fn scribble_at_completion(
        fair_share: bool,
        zero_latency: bool,
        opcode: SendOpcode,
        unsignaled_first: bool,
    ) {
        let case = format!(
            "fair share {fair_share}, zero latency {zero_latency}, {opcode:?}, \
             unsignaled first {unsignaled_first}"
        );
        let mut net = SimNet::new();
        if fair_share {
            net.set_fabric(FabricModel::FairShare(FairShareConfig::new(7)));
        }
        // Zero turnaround and propagation put the delivery and the
        // completion on the same instant: the tie must go to delivery.
        let (hca, propagation) = if zero_latency {
            let hca = HcaConfig {
                wqe_process: SimDuration::ZERO,
                ..HcaConfig::default()
            };
            (hca, SimDuration::ZERO)
        } else {
            (HcaConfig::default(), SimDuration::from_micros(1))
        };
        let link = LinkConfig::simple(100_000_000_000, propagation);
        let mut p = pair_on(net, hca, link, false);
        let mut wrs = Vec::new();
        if unsignaled_first {
            wrs.push(p.wr(opcode, 0).unsignaled());
        }
        wrs.push(p.wr(opcode, 1));
        let placed = wrs.len() * LEN as usize;
        let mut sender = Scribbler {
            conn: p.a,
            src: p.src,
            wrs,
            scribbled: false,
        };
        let outcome = p
            .net
            .run(&mut [&mut sender, &mut Drain], SimTime::from_secs(1));
        assert!(sender.scribbled, "{case}: no completion: {outcome:?}");
        let dst = p.dst_bytes();
        let (skipped, written) = dst.split_at(dst.len() - placed);
        assert!(
            written.iter().all(|&b| b == ORIGINAL),
            "{case}: the source was read after its completion"
        );
        assert!(skipped.iter().all(|&b| b == 0), "{case}");
        assert_eq!(p.bytes_copied(), placed as u64, "{case}");
    }

    #[test]
    fn send_completion_is_never_pollable_before_the_payload_is_placed() {
        for fair_share in [false, true] {
            for zero_latency in [false, true] {
                for opcode in [
                    SendOpcode::Send,
                    SendOpcode::RdmaWrite,
                    SendOpcode::RdmaWriteImm,
                ] {
                    for unsignaled_first in [false, true] {
                        scribble_at_completion(fair_share, zero_latency, opcode, unsignaled_first);
                    }
                }
            }
        }
    }

    /// Counts receive completions.
    struct RecvCounter {
        cq: CqId,
        seen: usize,
    }
    impl NodeApp for RecvCounter {
        fn on_start(&mut self, _api: &mut NodeApi<'_>) {}
        fn on_wake(&mut self, api: &mut NodeApi<'_>) {
            let mut cqes = Vec::new();
            api.poll_cq(self.cq, usize::MAX, &mut cqes).unwrap();
            self.seen += cqes.len();
        }
    }

    #[test]
    fn message_in_flight_is_lost_when_its_source_is_deregistered_after_a_qp_error() {
        let mut p = pair();
        p.net.enable_trace(64);
        let wr = p.wr(SendOpcode::RdmaWriteImm, 0);
        let (a, b) = (p.a, p.b);
        p.net
            .with_api(a.node, |api| api.post_send(a.qpn, wr))
            .unwrap();
        // The QP fails with the message on the wire; the application
        // learns of it and tears its buffers down.
        p.net.inject_qp_error(a.node, a.qpn).unwrap();
        let src = p.src;
        p.net
            .with_api(a.node, |api| api.hca_deregister(src.key))
            .unwrap();

        let mut receiver = RecvCounter {
            cq: b.recv_cq,
            seen: 0,
        };
        let outcome = p
            .net
            .run(&mut [&mut Drain, &mut receiver], SimTime::from_secs(1));
        assert!(!outcome.completed, "the queue drains; nobody is ever done");
        assert_eq!(receiver.seen, 0, "a lost message completes nothing");
        assert!(p.dst_bytes().iter().all(|&b| b == 0), "no stale bytes");
        assert_eq!(p.bytes_copied(), 0);
        assert!(p.net.fatal_errors().is_empty());
        assert!(
            p.net.dump_trace().contains("(source unreadable)"),
            "{}",
            p.net.dump_trace()
        );
        let rq_left = p.net.with_api(b.node, |api| api.rq_len(b.qpn));
        assert_eq!(rq_left, 1, "the receive was not consumed");
    }

    #[test]
    fn downed_link_drops_without_reading_the_source() {
        let mut p = pair();
        p.net.enable_trace(64);
        let (a, b) = (p.a, p.b);
        p.net.set_link_up(a.node, b.node, false);
        let wr = p.wr(SendOpcode::Send, 0);
        p.net
            .with_api(a.node, |api| api.post_send(a.qpn, wr))
            .unwrap();
        // With the source gone too, a driver that looked at it before
        // the link would report the wrong loss.
        let src = p.src;
        p.net
            .with_api(a.node, |api| api.hca_deregister(src.key))
            .unwrap();
        p.net
            .run(&mut [&mut Drain, &mut Drain], SimTime::from_secs(1));
        let trace = p.net.dump_trace();
        assert!(trace.contains("(link down)"), "{trace}");
        assert!(!trace.contains("(source unreadable)"), "{trace}");
        assert_eq!(p.bytes_copied(), 0);
        assert!(p.dst_bytes().iter().all(|&b| b == 0));
        // Retry exhaustion failed the sender QP.
        let wr = SendWr::send_inline(9, vec![1u8]);
        assert!(p
            .net
            .with_api(a.node, |api| api.post_send(a.qpn, wr))
            .is_err());
    }

    #[test]
    fn loopback_pair_delivers_byte_exact() {
        let link = LinkConfig::simple(100_000_000_000, SimDuration::from_micros(1));
        let mut p = pair_on(SimNet::new(), HcaConfig::default(), link, true);
        assert_eq!(p.a.node, p.b.node);
        let pattern: Vec<u8> = (0..2 * LEN).map(|i| (i * 7 + 3) as u8).collect();
        let src = p.src;
        p.net
            .with_api(p.a.node, |api| api.write_mr(src.key, src.addr, &pattern))
            .unwrap();
        let wrs = vec![
            p.wr(SendOpcode::RdmaWrite, 0).unsignaled(),
            p.wr(SendOpcode::Send, 1),
        ];
        let (a, b) = (p.a, p.b);
        p.net
            .with_api(a.node, |api| api.post_send_list(a.qpn, wrs))
            .unwrap();
        let mut app = RecvCounter {
            cq: b.recv_cq,
            seen: 0,
        };
        p.net.run(&mut [&mut app], SimTime::from_secs(1));
        assert_eq!(app.seen, 1);
        assert_eq!(p.dst_bytes(), pattern);
        // One table cannot be source and destination of one copy: a
        // loopback payload is staged, so it is copied twice.
        assert_eq!(p.bytes_copied(), 2 * 2 * LEN as u64);
    }
}
