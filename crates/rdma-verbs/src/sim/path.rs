//! The path of one message, top to bottom: **post** ([`FabricRt::launch`]
//! — the WQE waits for, then occupies, its QP's HCA pipeline), **wire**
//! (FIFO: `Link::transit` computes the arrival at once; fair share:
//! [`FabricRt::fabric_start`] hands the message to the allocator at
//! pipeline exit and [`FabricRt::flow_head_done`] takes it back when its
//! flow's head moved its last bit), **arrival** ([`arrive`] — the one
//! place a delivery and its acknowledgment are scheduled, for both
//! models), **deliver** ([`SimNet::deliver`] → [`place`], the one payload
//! copy) and **ack** (`Ev::TxDone` → `HcaCore::tx_finished`, in the
//! event loop). Everything a message needs on the way — the event queue,
//! the per-pair links, the contention model — is one value, [`FabricRt`].

use simnet::fabric::{FairShareFabric, FlowKey, Transfer};
use simnet::{EventId, Link, Scheduler, SimDuration, SimTime, Slab};

use super::node::NodeRuntime;
use super::run::Ev;
use super::SimNet;
use crate::hca::{Effect, PreparedSend};
use crate::mr::DmaSource;
use crate::types::{Cqe, NodeId, Result};
use crate::wire::WireMessage;

/// The directed link `src → dst` and the driver state kept per node
/// pair.
pub(super) struct PairLink {
    pub(super) link: Link,
    /// Fault injection: messages arriving over this link are lost.
    pub(super) down: bool,
    /// Fair-share mode: the scheduled head-completion event of the
    /// flow on this link, `None` while the flow is idle or the event is
    /// being handled.
    head_event: Option<EventId>,
}

/// Every connected directed link, one row per source node indexed by
/// destination node.
#[derive(Default)]
pub(super) struct LinkTable {
    rows: Vec<Vec<Option<PairLink>>>,
}

impl LinkTable {
    pub(super) fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    pub(super) fn connect(&mut self, src: u32, dst: u32, link: Link) {
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

    pub(super) fn get(&self, src: u32, dst: u32) -> Option<&PairLink> {
        self.rows.get(src as usize)?.get(dst as usize)?.as_ref()
    }

    /// The link a message or flow is already travelling on.
    ///
    /// # Panics
    /// Panics if `src → dst` was never connected.
    #[inline]
    pub(super) fn expect_mut(&mut self, src: u32, dst: u32) -> &mut PairLink {
        self.rows
            .get_mut(src as usize)
            .and_then(|row| row.get_mut(dst as usize))
            .and_then(Option::as_mut)
            .unwrap_or_else(|| panic!("no link from {:?} to {:?}", NodeId(src), NodeId(dst)))
    }
}

/// A message past its QP's HCA pipeline — serialising on its link, or
/// parked in the allocator until its flow's head completes — and what
/// its arrival owes the sender.
struct InFlight {
    msg: WireMessage,
    /// The send completion, if the work request was signaled.
    cqe: Option<Cqe>,
    /// The responder's WQE turnaround before its hardware
    /// acknowledgment leaves, which retires the message's SQ slot.
    ack_turnaround: SimDuration,
}

/// The fabric runtime: the event queue, the links and the
/// bandwidth-contention model, which is all that posting a message or
/// handling one of its wire events needs. [`super::NodeApi`] borrows it
/// whole.
pub(super) struct FabricRt {
    pub(super) sched: Scheduler<Ev>,
    pub(super) links: LinkTable,
    /// The flow allocator; `None` in FIFO mode, where messages take the
    /// `Link::transit` path and `pending` stays empty.
    pub(super) fair: Option<FairShareFabric>,
    /// Messages owned by the allocator; a transfer's token is its slot.
    pending: Slab<InFlight>,
}

impl FabricRt {
    pub(super) fn fifo() -> Self {
        FabricRt {
            sched: Scheduler::new(),
            links: LinkTable::default(),
            fair: None,
            pending: Slab::new(),
        }
    }

    /// Pushes a prepared send through the HCA pipeline of its node `rt`
    /// and onto the fabric. In FIFO mode the message serializes on its
    /// private [`Link`] here and arrives at the computed instant; in
    /// fair-share mode it is handed to the flow allocator at pipeline
    /// exit (a `FabricStart` event) and arrives when its flow's head
    /// completes. Every message is a posted WQE: it holds an SQ slot
    /// until its acknowledgment returns.
    pub(super) fn launch(
        &mut self,
        rt: &mut NodeRuntime,
        prepared: PreparedSend,
        post_time: SimTime,
    ) {
        let (src_node, src_qpn) = prepared.msg.src;
        let wqe_process = rt.hca.config().wqe_process;

        // Serialize on the QP's HCA pipeline.
        let qp = rt.hca.qp_mut(src_qpn).expect("launch on unknown QP");
        let start = post_time.max(qp.hca_free_at);
        qp.hca_free_at = start + wqe_process;
        let proc_done = start + wqe_process;

        let tx = InFlight {
            msg: prepared.msg,
            cqe: prepared.completion,
            ack_turnaround: wqe_process,
        };
        if self.fair.is_some() {
            // Fair-share mode: the wire phase belongs to the allocator.
            let token = self.pending.insert(tx);
            self.sched.schedule_at(proc_done, Ev::FabricStart { token });
            return;
        }
        let link = &mut self.links.expect_mut(src_node.0, tx.msg.dst_node().0).link;
        let back_prop = link.config().propagation;
        let arrival = link.transit(proc_done, tx.msg.payload_len());
        arrive(&mut self.sched, tx, arrival, back_prop);
    }

    /// Fair-share mode: message `token` cleared its HCA pipeline and
    /// joins its flow (the flow-level analogue of `Link::transit`).
    pub(super) fn fabric_start(&mut self, token: u32, now: SimTime) {
        let msg = &self
            .pending
            .get(token)
            .expect("FabricStart for unknown transfer")
            .msg;
        let (src, dst) = (msg.src_node(), msg.dst_node());
        let payload = msg.payload_len();
        let link = &self.links.expect_mut(src.0, dst.0).link;
        let wire_bytes = link.config().wire_bytes(payload);
        let fair = self.fair.as_mut().expect("fair-share mode");
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

    /// Fair-share mode: the head transfer of flow `src → dst` moved its
    /// last bit; it arrives one (jittered) propagation later, and the
    /// flows that shared a resource with it re-speed.
    pub(super) fn flow_head_done(&mut self, src: u32, dst: u32, now: SimTime) {
        let pair = self.links.expect_mut(src, dst);
        pair.head_event = None;
        let link_cfg = pair.link.config();
        let (prop, jitter) = (link_cfg.propagation, link_cfg.jitter);
        let fair = self.fair.as_mut().expect("fair-share mode");
        let (transfer, arrival, changes) = fair.complete(now, src, dst, prop, jitter);
        let tx = self
            .pending
            .remove(transfer.token as u32)
            .expect("completed transfer has no message");
        arrive(&mut self.sched, tx, arrival, prop);
        apply_flow_changes(&mut self.sched, &mut self.links, now, changes);
    }
}

/// `tx` reaches the far HCA at `arrival`, over a link whose propagation
/// delay is `back_prop` in the acknowledgment's direction too.
fn arrive(sched: &mut Scheduler<Ev>, tx: InFlight, arrival: SimTime, back_prop: SimDuration) {
    let (node, qpn) = tx.msg.src;
    // Delivery is scheduled before the completion so that it also runs
    // first when the two fall on the same instant (zero turnaround and
    // propagation): delivery is when the source buffer is read, and the
    // completion is what lets the application overwrite it.
    sched.schedule_at(arrival, Ev::Deliver { msg: tx.msg });

    // Reliable-connected semantics: the send completes (and its SQ slot
    // retires) when the responder HCA's hardware acknowledgment returns
    // — one propagation after arrival plus the responder's WQE
    // turnaround.
    let cqe = tx.cqe;
    sched.schedule_at(
        arrival + tx.ack_turnaround + back_prop,
        Ev::TxDone { node, qpn, cqe },
    );
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

simnet::stats! {
    /// Messages a [`SimNet`] lost at delivery, by cause. Each one fails
    /// its sender's QP a retry period later.
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
    pub struct Losses {
        /// Sent while fault injection had the link down.
        sum link_down: u64,
        /// The posted source range was no longer registered at
        /// delivery: the sender tore down after a QP error, or broke
        /// the posted-buffer contract.
        sum source_unreadable: u64,
    }
}

impl SimNet {
    /// `msg` is at the far end of its link: place it, or lose it and
    /// fail the sender's QP a retry period later.
    pub(super) fn deliver(&mut self, msg: WireMessage, now: SimTime) {
        let (src, dst) = (msg.src_node(), msg.dst_node());
        // The link is checked first: a message lost on the wire never
        // has its source read.
        if self.fabric.links.get(src.0, dst.0).is_some_and(|l| l.down) {
            self.losses.link_down += 1;
        } else if place(&mut self.nodes, &msg, &mut self.effects).is_ok() {
            self.apply_effects(dst, now);
            return;
        } else {
            self.losses.source_unreadable += 1;
        }
        // RC would retransmit and give up after the retry period: fail
        // the sender QP.
        let (node, qpn) = msg.src;
        self.fabric
            .sched
            .schedule_after(RETRY_PERIOD, Ev::QpFail { node, qpn });
    }
}

/// Delivers `msg` to its destination HCA, placing the payload once:
/// straight from the source node's region when the message only
/// describes it, whole pages by reference. Fails, having placed
/// nothing, if that range can no longer be read. What the delivery
/// produced is appended to `effects`.
fn place(nodes: &mut [NodeRuntime], msg: &WireMessage, effects: &mut Vec<Effect>) -> Result<()> {
    let (src, dst) = (msg.src_node().index(), msg.dst_node().index());
    if src == dst {
        // Loopback: one table cannot be lent out as source and
        // destination at once, so the payload is staged.
        let hca = &mut nodes[dst].hca;
        let staged = hca.capture_payload(&msg.payload)?;
        hca.handle_wire(msg, DmaSource::Slice(&staged), effects);
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

/// The driver reads a send's source buffer when the message is
/// delivered, not when it is posted. These tests pin what makes that
/// sound — the completion never overtakes the delivery — and the fault
/// edges around a source that is gone by delivery time.
#[cfg(test)]
mod tests {
    use super::super::testkit::*;
    use super::super::{NodeApi, NodeApp};
    use super::*;
    use crate::cm::{connect_pair, ConnHalf};
    use crate::hca::HcaConfig;
    use crate::host::HostModel;
    use crate::mr::MrInfo;
    use crate::qp::QpCaps;
    use crate::types::{Access, CqId, QpNum, RecvWr, RemoteAddr, SendOpcode, SendWr};
    use simnet::fabric::{FabricModel, FairShareConfig};
    use simnet::LinkConfig;

    #[test]
    fn fair_share_ping_delivers_all_and_accounts_bytes() {
        // The FIFO ping test, re-run under the fair-share fabric: same
        // deliveries, nothing lost, and the allocator reports one
        // active-then-drained flow per direction used.
        let mut net = SimNet::new();
        net.set_fabric(FabricModel::FairShare(FairShareConfig::new(7)));
        let (a, b) = build_pair(&mut net);
        let (mut pinger, mut ponger) = ping_pair(&mut net, a, b, 10);

        let outcome = net.run(&mut [&mut pinger, &mut ponger], SimTime::from_secs(1));
        assert!(outcome.completed, "run did not finish: {outcome:?}");
        assert_eq!(pinger.completions, 10);
        assert_eq!(ponger.received, 10);
        assert_eq!(net.losses(), Losses::default());
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

    const LEN: u32 = 256;
    const ORIGINAL: u8 = 0x5A;
    const SCRIBBLE: u8 = 0xEE;

    /// One end of a [`Pair`]: its node and connected QP.
    #[derive(Clone, Copy)]
    struct End {
        node: NodeId,
        qpn: QpNum,
        send_cq: CqId,
        recv_cq: CqId,
    }

    impl End {
        fn of(node: NodeId, half: ConnHalf) -> Self {
            End {
                node,
                qpn: half.qpn,
                send_cq: half.send_cq,
                recv_cq: half.recv_cq,
            }
        }
    }

    struct Pair {
        net: SimNet,
        a: End,
        b: End,
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
            a: End::of(a, ha),
            b: End::of(b, hb),
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
        conn: End,
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

    /// A WRITE of whole pages hands them to the receiver by reference;
    /// the sender then overwrites its buffer at the completion, and the
    /// receiver still reads the first payload.
    #[test]
    fn copy_on_write_the_receiver_keeps_a_payload_the_sender_overwrote() {
        const BYTES: usize = 2 * 4096;
        let mut net = SimNet::new();
        let a = net.add_node(HostModel::free(), HcaConfig::default());
        let b = net.add_node(HostModel::free(), HcaConfig::default());
        let link = LinkConfig::simple(100_000_000_000, SimDuration::from_micros(1));
        net.connect_nodes(a, b, link, 9);
        let (ha, _) = connect_pair(&mut net, a, b, QpCaps::default(), 64).unwrap();
        let src = net.with_api(a, |api| {
            let mr = api.register_mr(BYTES, Access::NONE);
            api.write_mr(mr.key, mr.addr, &[ORIGINAL; BYTES]).unwrap();
            mr
        });
        let dst = net.with_api(b, |api| {
            api.register_mr(BYTES, Access::local_remote_write())
        });
        let remote = RemoteAddr {
            addr: dst.addr,
            rkey: dst.key,
        };
        let mut sender = Scribbler {
            conn: End::of(a, ha),
            src,
            wrs: vec![SendWr::write(1, src.full_sge(), remote)],
            scribbled: false,
        };
        net.run(&mut [&mut sender, &mut Drain], SimTime::from_secs(1));
        assert!(sender.scribbled);
        assert_eq!(net.with_api(b, |api| api.hca().mem().pages_shared()), 2);
        let mut read = |node, mr: MrInfo| {
            let mut buf = vec![0u8; BYTES];
            net.with_api(node, |api| api.read_mr(mr.key, mr.addr, &mut buf))
                .unwrap();
            buf
        };
        assert!(read(b, dst).iter().all(|&x| x == ORIGINAL));
        assert!(read(a, src).iter().all(|&x| x == SCRIBBLE));
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
        let losses = p.net.losses();
        assert_eq!((losses.source_unreadable, losses.link_down), (1, 0));
        let rq_left = p.net.with_api(b.node, |api| api.rq_len(b.qpn));
        assert_eq!(rq_left, 1, "the receive was not consumed");
    }

    #[test]
    fn downed_link_drops_without_reading_the_source() {
        let mut p = pair();
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
        let losses = p.net.losses();
        assert_eq!((losses.link_down, losses.source_unreadable), (1, 0));
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
