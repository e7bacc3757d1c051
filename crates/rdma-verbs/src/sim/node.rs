//! One simulated node: its HCA, core and host cost model
//! ([`NodeRuntime`]), and [`NodeApi`], the handle application code drives
//! it through.

use simnet::{SimDuration, SimTime, Xoshiro256};

use super::path::FabricRt;
use super::run::Ev;
use super::SimNet;
use crate::hca::HcaCore;
use crate::host::{CpuMeter, HostModel};
use crate::mr::MrInfo;
use crate::qp::QpCaps;
use crate::types::{Access, CqId, Cqe, MrKey, NodeId, QpNum, RecvWr, Result, SendWr};

/// `x.round().max(0.0) as u64`, exactly, without the libm call `round`
/// becomes on a target without SSE4.1. Halves round away from zero;
/// NaN and everything at or below zero give 0; from 2^52 up every
/// double is an integer, and the cast saturates as the original does.
#[inline]
fn round_ns(x: f64) -> u64 {
    const EXACT: f64 = (1u64 << 52) as f64;
    if x.is_nan() || x <= 0.0 {
        0
    } else if x >= EXACT {
        x as u64
    } else {
        // `x - t` is the exact fractional part below 2^52.
        let t = x as i64;
        (t + (x - t as f64 >= 0.5) as i64) as u64
    }
}

pub(super) struct NodeRuntime {
    pub(super) hca: HcaCore,
    pub(super) cpu: CpuMeter,
    host: HostModel,
    /// A `Wake` for this node is queued and not yet handled.
    pub(super) wake_scheduled: bool,
    rng: Xoshiro256,
}

impl NodeRuntime {
    pub(super) fn new(hca: HcaCore, host: HostModel, rng: Xoshiro256) -> Self {
        NodeRuntime {
            hca,
            cpu: CpuMeter::new(),
            host,
            wake_scheduled: false,
            rng,
        }
    }

    fn jittered(&mut self, work: SimDuration) -> SimDuration {
        self.jittered_n(work, 1)
    }

    /// The sum of `n` successive [`NodeRuntime::jittered`] draws of
    /// `work`: the same draws, in the same order.
    #[inline]
    fn jittered_n(&mut self, work: SimDuration, n: u64) -> SimDuration {
        let frac = self.host.jitter_frac;
        if frac > 0.0 && !work.is_zero() {
            let ns = work.as_nanos() as f64;
            let rng = &mut self.rng;
            let mut total = 0;
            for _ in 0..n {
                let u = rng.next_f64();
                total += round_ns(ns * (1.0 + frac * (2.0 * u - 1.0)));
            }
            SimDuration::from_nanos(total)
        } else {
            work.mul_u64(n)
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

/// Per-node handle passed to [`super::NodeApp`] callbacks and
/// [`SimNet::with_api`] closures.
pub struct NodeApi<'a> {
    node: NodeId,
    rt: &'a mut NodeRuntime,
    fabric: &'a mut FabricRt,
    /// This handler's CPU-time cursor: verbs posts issued through the api
    /// are stamped at this instant, which advances as work is charged.
    cpu_now: SimTime,
}

impl<'a> NodeApi<'a> {
    /// The handle on `node` with its cursor at the current virtual
    /// time. Every handle is made here.
    pub(super) fn on(net: &'a mut SimNet, node: NodeId) -> Self {
        NodeApi {
            node,
            cpu_now: net.fabric.sched.now(),
            rt: &mut net.nodes[node.index()],
            fabric: &mut net.fabric,
        }
    }

    /// For a handler that runs on the node's core: it starts when the
    /// core is free.
    pub(super) fn when_core_free(mut self) -> Self {
        self.cpu_now = self.cpu_now.max(self.rt.cpu.free_at());
        self
    }

    /// For the handler of the node's pending `Wake`, which this
    /// consumes: it starts after the wakeup latency (sleeping process)
    /// and the per-wake event-channel processing cost.
    pub(super) fn woken(mut self) -> Self {
        self.rt.wake_scheduled = false;
        let start = self.rt.wake_start(self.cpu_now);
        let wakeup = self.rt.host.event_wakeup;
        self.cpu_now = self.rt.charge(start, wakeup);
        self
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
    pub(crate) fn connect_qp(&mut self, qpn: QpNum, remote: (NodeId, QpNum)) -> Result<()> {
        self.rt.hca.connect_qp(qpn, remote)
    }

    /// Posts a send work request: charges the post overhead, validates,
    /// and launches the message through the HCA pipeline and link.
    pub fn post_send(&mut self, qpn: QpNum, wr: SendWr) -> Result<()> {
        let overhead = self.rt.host.post_overhead;
        self.charge(overhead);
        let prepared = self.rt.hca.prepare_send(qpn, wr)?;
        self.fabric.launch(self.rt, prepared, self.cpu_now);
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
            self.fabric.launch(self.rt, prepared, self.cpu_now);
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

    /// Charges exactly what `n` calls of [`NodeApi::poll_cq`] on empty
    /// CQs would — `n` jittered poll overheads, drawn in order — without
    /// making them. One charge of the sum ends where `n` charges would:
    /// after the first, the cursor is the core's `free_at`, so each
    /// later one starts where the one before ended.
    pub fn charge_empty_polls(&mut self, n: u64) {
        if n == 0 {
            return;
        }
        let work = self.rt.jittered_n(self.rt.host.poll_overhead, n);
        self.cpu_now = self.rt.cpu.charge(self.cpu_now, work);
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

    /// Schedules an [`super::NodeApp::on_timer`] callback `delay` after the
    /// current CPU cursor.
    pub fn set_timer(&mut self, delay: SimDuration, token: u64) {
        self.fabric.sched.schedule_at(
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
    use super::super::testkit::*;
    use super::super::NodeApp;
    use super::*;
    use crate::cm::connect_pair;
    use crate::hca::HcaConfig;
    use crate::types::{RemoteAddr, WcOpcode};
    use simnet::LinkConfig;

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
        let (ha, _hb) = connect_pair(&mut net, a, b, QpCaps::default(), 64).unwrap();
        let a_mr = net.with_api(a, |api| api.register_mr(64, Access::NONE));
        let b_mr = net.with_api(b, |api| api.register_mr(64, Access::local_remote_write()));

        net.with_api(a, |api| {
            let remote = RemoteAddr {
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
            api.post_send_list(ha.qpn, wrs).unwrap();
            assert_eq!(api.hca().qp(ha.qpn).unwrap().sq_outstanding(), 8);
        });
        assert_eq!(net.cpu_busy_total(a), SimDuration::from_micros(1));

        net.run(&mut [&mut Drain, &mut Drain], SimTime::from_secs(1));
        net.with_api(a, |api| {
            let qp = api.hca().qp(ha.qpn).unwrap();
            assert_eq!(qp.sq_outstanding(), 0, "signaled CQE retires the batch");
            assert_eq!(qp.sq_deferred(), 0);
        });
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
        let (mut pinger, mut ponger) = ping_pair(&mut net, a, b, 5);

        let outcome = net.run(&mut [&mut pinger, &mut ponger], SimTime::from_secs(1));
        assert!(outcome.completed);
        // 5 posts at 100 us each dominate the timeline.
        assert!(net.now() >= SimTime::from_micros(500));
        assert!(net.cpu_busy_total(a) >= SimDuration::from_micros(500));
        assert!(net.cpu_usage(a) > 0.9);
    }

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

        struct Sink {
            cq: CqId,
            got_at: Option<SimTime>,
        }
        impl NodeApp for Sink {
            fn on_start(&mut self, _api: &mut NodeApi<'_>) {}
            fn on_wake(&mut self, api: &mut NodeApi<'_>) {
                let mut cqes = Vec::new();
                api.poll_cq(self.cq, usize::MAX, &mut cqes).unwrap();
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

        let (ha, hb) = connect_pair(&mut net, a, b, QpCaps::default(), 8).unwrap();
        net.with_api(b, |api| {
            let mr = api.register_mr(64, Access::LOCAL_WRITE);
            api.post_recv(hb.qpn, RecvWr::new(1, mr.sge(0, 64)))
                .unwrap();
        });
        net.with_api(a, |api| {
            let mr = api.register_mr(64, Access::NONE);
            api.post_send(ha.qpn, SendWr::send(1, mr.sge(0, 64)))
                .unwrap();
        });
        let mut sink = Sink {
            cq: hb.recv_cq,
            got_at: None,
        };
        let outcome = net.run(&mut [&mut Idle, &mut sink], SimTime::from_secs(1));
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

    /// One node whose core is busy past the handler's start, after `n`
    /// empty polls — made, or only charged — then 16 real ones: the
    /// cursor after the `n`, the core's busy total, the cursor after
    /// each of the 16, and the polls the HCA executed.
    fn after_empty_polls(host: &HostModel, n: u64, charged: bool) -> [Vec<u64>; 4] {
        let mut net = SimNet::new();
        net.set_host_seed(11);
        let a = net.add_node(host.clone(), HcaConfig::default());
        let cq = net.with_api(a, |api| {
            api.charge(SimDuration::from_micros(3));
            api.create_cq(16)
        });
        let mut out = Vec::new();
        let cursor = net.with_api(a, |api| {
            if charged {
                api.charge_empty_polls(n);
            } else {
                for _ in 0..n {
                    assert_eq!(api.poll_cq(cq, usize::MAX, &mut out).unwrap(), 0);
                }
            }
            api.now().as_nanos()
        });
        let busy = net.cpu_busy_total(a).as_nanos();
        let next: Vec<u64> = net.with_api(a, |api| {
            (0..16)
                .map(|_| {
                    api.poll_cq(cq, usize::MAX, &mut out).unwrap();
                    api.now().as_nanos()
                })
                .collect()
        });
        let executed = net.with_api(a, |api| api.hca().polls_executed());
        [vec![cursor], vec![busy], next, vec![executed]]
    }

    #[test]
    fn charged_empty_polls_equal_made_ones() {
        let mut wild = crate::profiles::fdr_infiniband().host;
        wild.jitter_frac = 1.5;
        let hosts = [
            HostModel::free(),
            crate::profiles::fdr_infiniband().host,
            crate::profiles::roce_10g(SimDuration::from_micros(1)).host,
            wild,
        ];
        for (h, host) in hosts.iter().enumerate() {
            for n in [0, 1, 2, 3, 127, 128] {
                let [cursor, busy, next, executed] = after_empty_polls(host, n, false);
                let charged = after_empty_polls(host, n, true);
                assert_eq!(charged[..3], [cursor, busy, next], "host {h}, n {n}");
                assert_eq!(
                    (executed[0], charged[3][0]),
                    (n + 16, 16),
                    "host {h}, n {n}"
                );
            }
        }
    }

    #[test]
    fn round_ns_equals_round_max_cast() {
        let check = |x: f64| {
            let want = x.round().max(0.0) as u64;
            assert_eq!(round_ns(x), want, "{x:e} (bits {:#x})", x.to_bits());
        };
        let two = |e: i32| 2f64.powi(e);
        let edges = [
            0.0,
            -0.0,
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 4.0,
            -f64::MIN_POSITIVE / 4.0,
            f64::from_bits(1),
            -f64::from_bits(1),
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            -0.4,
            -0.5,
            -0.6,
            -1.5,
            -1e300,
            f64::MIN,
            f64::MAX,
            two(52) - 1.0,
            two(52) - 0.5,
            two(52),
            two(52) + 1.0,
            two(53),
            two(63),
            two(64),
        ];
        edges.into_iter().for_each(check);
        for k in 0..1u64 << 20 {
            let half = k as f64 + 0.5;
            for x in [half.next_down(), half, half.next_up()] {
                check(x);
            }
        }
        let mut rng = Xoshiro256::new(7);
        for _ in 0..1_000_000 {
            check(rng.next_f64() * two(53));
        }
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
