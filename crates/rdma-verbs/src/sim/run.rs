//! The event loop: the [`NodeApp`] interface it drives, the events it
//! pops ([`Ev`]), and what it does with what the HCAs report back
//! (`apply_effects`).

use simnet::{Scheduler, SimTime};

use super::node::{NodeApi, NodeRuntime};
use super::SimNet;
use crate::hca::{Effect, SendDone};
use crate::types::{NodeId, QpNum};
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

/// What the scheduler carries. A message's own events are constructed
/// in [`super::path`] and nowhere else.
pub(super) enum Ev {
    /// The message reached the far end of its link.
    Deliver {
        msg: WireMessage,
    },
    /// The responder's acknowledgment of a signaled send is back at
    /// the sender: the send completes, and its SQ slot and those of the
    /// unsignaled run before it retire.
    TxDone {
        node: NodeId,
        done: SendDone,
    },
    Wake {
        node: NodeId,
    },
    Timer {
        node: NodeId,
        token: u64,
    },
    /// Retry exhaustion for a message lost on the way.
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

impl SimNet {
    /// Runs the event loop until every app is done, the queue drains, or
    /// the next event lies past `limit`. That event is not this run's:
    /// it stays queued exactly where it was, the clock stops at `limit`,
    /// and a later `run` continues as if there had been no stop.
    ///
    /// `apps[i]` is the application for `NodeId(i)`; the slice length must
    /// match the node count.
    pub fn run(&mut self, apps: &mut [&mut dyn NodeApp], limit: SimTime) -> RunOutcome {
        assert_eq!(apps.len(), self.nodes.len(), "one app per node is required");

        // Start phase.
        for (i, app) in apps.iter_mut().enumerate() {
            let mut api = NodeApi::on(self, NodeId(i as u32)).when_core_free();
            app.on_start(&mut api);
        }

        loop {
            let completed = apps.iter().all(|a| a.is_done());
            let next = if completed {
                None
            } else {
                self.fabric.sched.pop_until(limit)
            };
            let Some((now, ev)) = next else {
                let sched = &mut self.fabric.sched;
                if !completed && !sched.is_empty() {
                    // Stopped by the horizon, not by a drained queue.
                    sched.advance_to(limit.max(sched.now()));
                }
                return RunOutcome {
                    end: sched.now(),
                    completed,
                    events: sched.delivered(),
                };
            };
            match ev {
                Ev::Deliver { msg } => self.deliver(msg, now),
                Ev::TxDone { node, done } => {
                    self.nodes[node.index()]
                        .hca
                        .tx_finished(done, &mut self.effects);
                    self.apply_effects(node, now);
                }
                Ev::Wake { node } => {
                    let mut api = NodeApi::on(self, node).woken();
                    apps[node.index()].on_wake(&mut api);
                }
                Ev::Timer { node, token } => {
                    let mut api = NodeApi::on(self, node).when_core_free();
                    apps[node.index()].on_timer(&mut api, token);
                }
                Ev::QpFail { node, qpn } => {
                    // The QP may already be in the error state (several
                    // losses); that is fine.
                    if self.nodes[node.index()]
                        .hca
                        .fail_qp(qpn, &mut self.effects)
                        .is_ok()
                    {
                        self.apply_effects(node, now);
                    }
                }
                Ev::FabricStart { token } => self.fabric.fabric_start(token, now),
                Ev::FlowHeadDone { src, dst } => self.fabric.flow_head_done(src, dst, now),
            }
        }
    }

    /// Applies, then clears, what the HCA of `node` left in
    /// `self.effects`.
    pub(super) fn apply_effects(&mut self, node: NodeId, now: SimTime) {
        // Taken out for the loop: applying an effect needs `self`, and
        // never produces another one.
        let mut effects = std::mem::take(&mut self.effects);
        let rt = &mut self.nodes[node.index()];
        for effect in effects.drain(..) {
            match effect {
                Effect::Completion => schedule_wake(rt, &mut self.fabric.sched, node, now),
                Effect::Fatal {
                    qpn,
                    status,
                    detail,
                } => panic!("fatal verbs error: node {node:?} qp {qpn:?}: {status:?}: {detail}"),
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

#[cfg(test)]
mod tests {
    use super::super::testkit::*;
    use super::*;
    use crate::cm::connect_pair;
    use crate::hca::HcaConfig;
    use crate::host::HostModel;
    use crate::qp::QpCaps;
    use crate::sim::Losses;
    use crate::types::{Access, CqId, RecvWr, RemoteAddr, SendWr};
    use simnet::fabric::{FabricModel, FairShareConfig};
    use simnet::SimDuration;

    #[test]
    fn ping_stream_delivers_all() {
        let mut net = SimNet::new();
        let (a, b) = build_pair(&mut net);
        let (mut pinger, mut ponger) = ping_pair(&mut net, a, b, 10);
        let outcome = net.run(&mut [&mut pinger, &mut ponger], SimTime::from_secs(1));
        assert!(outcome.completed, "run did not finish: {outcome:?}");
        assert_eq!(pinger.completions, 10);
        assert_eq!(ponger.received, 10);
        assert_eq!(net.losses(), Losses::default());
        // Time passed: 10 messages through a 1 us link.
        assert!(net.now() > SimTime::from_micros(1));
    }

    #[test]
    fn idle_network_terminates() {
        let mut net = SimNet::new();
        let (_a, _b) = build_pair(&mut net);
        let outcome = net.run(&mut [&mut Idle, &mut Idle], SimTime::from_secs(1));
        assert!(outcome.completed);
        assert_eq!(outcome.end, SimTime::ZERO);
    }

    /// Sets its timers (µs from the start, token = position) once, and
    /// records the tokens in firing order.
    struct Alarms {
        at_us: Vec<u64>,
        set: bool,
        fired: Vec<u64>,
    }

    impl Alarms {
        fn new(at_us: &[u64]) -> Self {
            Alarms {
                at_us: at_us.to_vec(),
                set: false,
                fired: Vec::new(),
            }
        }
    }

    impl NodeApp for Alarms {
        fn on_start(&mut self, api: &mut NodeApi<'_>) {
            if !std::mem::replace(&mut self.set, true) {
                for (token, &us) in self.at_us.iter().enumerate() {
                    api.set_timer(SimDuration::from_micros(us), token as u64);
                }
            }
        }
        fn on_wake(&mut self, _api: &mut NodeApi<'_>) {}
        fn on_timer(&mut self, _api: &mut NodeApi<'_>, token: u64) {
            self.fired.push(token);
        }
        fn is_done(&self) -> bool {
            self.fired.len() == self.at_us.len()
        }
    }

    fn one_node() -> SimNet {
        let mut net = SimNet::new();
        net.add_node(HostModel::free(), HcaConfig::default());
        net
    }

    #[test]
    fn timers_fire() {
        let mut net = one_node();
        let mut app = Alarms::new(&[5, 1]);
        let outcome = net.run(&mut [&mut app], SimTime::from_secs(1));
        assert!(outcome.completed);
        assert_eq!(app.fired, vec![1, 0]);
        assert_eq!(net.now(), SimTime::from_micros(5));
    }

    #[test]
    fn an_event_past_the_horizon_waits_for_the_next_run() {
        let mut net = one_node();
        let mut app = Alarms::new(&[5]);
        let early = net.run(&mut [&mut app], SimTime::from_micros(3));
        assert!(!early.completed && app.fired.is_empty());
        let late = net.run(&mut [&mut app], SimTime::from_secs(1));
        assert!(late.completed, "the timer was lost at the first horizon");
    }

    #[test]
    fn a_horizon_stop_ends_the_run_at_the_limit() {
        let mut net = one_node();
        let mut app = Alarms::new(&[5]);
        let limit = SimTime::from_micros(3);
        let early = net.run(&mut [&mut app], limit);
        assert_eq!((early.end, early.events), (limit, 0));
        assert_eq!(net.now(), limit, "the clock ran ahead to the refused event");
        // A horizon behind the clock moves nothing either.
        let again = net.run(&mut [&mut app], SimTime::from_micros(1));
        assert_eq!((again.end, net.now()), (limit, limit));
    }

    #[test]
    fn events_of_one_instant_keep_their_order_across_a_horizon() {
        let mut net = one_node();
        let mut app = Alarms::new(&[5, 5, 5]);
        net.run(&mut [&mut app], SimTime::from_micros(3));
        net.run(&mut [&mut app], SimTime::from_secs(1));
        assert_eq!(app.fired, vec![0, 1, 2]);
    }

    #[test]
    fn a_split_run_delivers_the_events_of_the_whole_run() {
        let ping = |splits: &[u64]| {
            let mut net = SimNet::new();
            let (a, b) = build_pair(&mut net);
            let (mut pinger, mut ponger) = ping_pair(&mut net, a, b, 10);
            for &ns in splits {
                net.run(&mut [&mut pinger, &mut ponger], SimTime::from_nanos(ns));
            }
            let outcome = net.run(&mut [&mut pinger, &mut ponger], SimTime::from_secs(1));
            assert!(outcome.completed);
            outcome
        };
        let whole = ping(&[]);
        for split in (0..whole.end.as_nanos()).step_by(499) {
            let parts = ping(&[split, split + 250]);
            assert_eq!(
                (parts.events, parts.end),
                (whole.events, whole.end),
                "split at {split} ns"
            );
        }
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
        let mut net = one_node();
        let outcome = net.run(&mut [&mut Loopy], SimTime::from_millis(1));
        assert!(!outcome.completed);
        assert!(outcome.end >= SimTime::from_millis(1));
    }

    /// The message classes of DESIGN §3's event-chain table.
    #[derive(Clone, Copy, Debug)]
    enum Class {
        SignaledWwi,
        UnsignaledWwi,
        ControlSend,
        InlineSend,
    }

    /// Posts its work requests at the start, then only drains `cq`.
    struct Burst {
        qpn: QpNum,
        cq: CqId,
        wrs: Vec<SendWr>,
    }

    impl NodeApp for Burst {
        fn on_start(&mut self, api: &mut NodeApi<'_>) {
            for wr in std::mem::take(&mut self.wrs) {
                api.post_send(self.qpn, wr).unwrap();
            }
        }
        fn on_wake(&mut self, api: &mut NodeApi<'_>) {
            api.poll_cq(self.cq, usize::MAX, &mut Vec::new()).unwrap();
        }
    }

    /// Events delivered by a run of `n` 64-byte messages of `class` from
    /// one node to the other, the receiver draining its CQ on each wake.
    fn events_of(model: &FabricModel, class: Class, n: u64) -> u64 {
        let mut net = SimNet::new();
        net.set_fabric(model.clone());
        let (a, b) = build_pair(&mut net);
        let (ha, hb) = connect_pair(&mut net, a, b, QpCaps::default(), 64).unwrap();
        let src = net.with_api(a, |api| api.register_mr(64, Access::NONE));
        let remote = net.with_api(b, |api| {
            let dst = api.register_mr(64, Access::local_remote_write());
            for i in 0..n {
                let recv = match class {
                    Class::SignaledWwi | Class::UnsignaledWwi => RecvWr::empty(i),
                    Class::ControlSend | Class::InlineSend => RecvWr::new(i, dst.sge(0, 64)),
                };
                api.post_recv(hb.qpn, recv).unwrap();
            }
            RemoteAddr {
                addr: dst.addr,
                rkey: dst.key,
            }
        });
        let wrs = (0..n)
            .map(|i| match class {
                Class::SignaledWwi => SendWr::write_imm(i, src.sge(0, 64), remote, 7),
                Class::UnsignaledWwi => {
                    SendWr::write_imm(i, src.sge(0, 64), remote, 7).unsignaled()
                }
                Class::ControlSend => SendWr::send(i, src.sge(0, 64)),
                Class::InlineSend => SendWr::send_inline(i, vec![0u8; 64]),
            })
            .collect();
        let mut sender = Burst {
            qpn: ha.qpn,
            cq: ha.send_cq,
            wrs,
        };
        let mut receiver = Burst {
            qpn: hb.qpn,
            cq: hb.recv_cq,
            wrs: Vec::new(),
        };
        let outcome = net.run(&mut [&mut sender, &mut receiver], SimTime::from_secs(1));
        assert!(!outcome.completed, "ends when the queue drains");
        outcome.events
    }

    /// Work counts, exact and host-independent: what one more message of
    /// a class costs the scheduler. A change to the event chain
    /// re-baselines these eight numbers in a declared step (DESIGN §3,
    /// "The event chain of a message").
    #[test]
    fn events_per_message_by_class_and_fabric_model() {
        let fair_share = FabricModel::FairShare(FairShareConfig::new(7));
        let expected = [
            (Class::SignaledWwi, 4, 6),
            (Class::UnsignaledWwi, 2, 4),
            (Class::ControlSend, 4, 6),
            (Class::InlineSend, 4, 6),
        ];
        const N: u64 = 8;
        for (class, fifo, fair) in expected {
            for (model, per_msg) in [(&FabricModel::Fifo, fifo), (&fair_share, fair)] {
                let more = events_of(model, class, 2 * N) - events_of(model, class, N);
                assert_eq!((more / N, more % N), (per_msg, 0), "{class:?} on {model:?}");
            }
        }
    }
}
