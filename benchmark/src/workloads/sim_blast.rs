//! `sim_blast_paper` and `sim_blast_small`: the paper's 1:1 blast tool
//! on the simulated FDR fabric.
//!
//! Untraced repetitions call `blast::run_blast`. The traced pass runs
//! the benchmark's own thin client/server `NodeApp`s — the same call
//! sequence as the blast tool's, with every `exs` entry point wrapped
//! in a span and handed a [`TracedPort`] — and must reproduce
//! `run_blast`'s virtual-time results bit for bit.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use std::time::Instant;

use blast::{run_blast, BlastReport, BlastSpec, SizeDist, VerifyLevel};
use exs::{ExsEvent, StreamSocket};
use rdma_verbs::profiles::fdr_infiniband;
use rdma_verbs::{Access, FabricModel, MrInfo, NodeApi, NodeApp, NodeId, SimNet};
use simnet::{SimDuration, SimTime};

use super::{conn_cfg, conn_counts, ratio, timed, Purpose, Rep, Size, Values, Workload};
use crate::span::{in_span, Kind, Layer, Recorder};
use crate::traced_port::TracedPort;

/// Largest message of the paper's size law.
const PAPER_MAX: u64 = 4 << 20;

/// The blast configuration for one repetition, every knob written out.
pub fn spec(w: Workload, size: Size, seed: u64, purpose: Purpose) -> BlastSpec {
    let paper = w == Workload::SimBlastPaper;
    let profile = fdr_infiniband();
    // One round trip plus 20 µs of connection establishment before the
    // first send, so the server's initial ADVERTs are in flight first.
    let start_delay =
        profile.link.propagation + profile.link.propagation + SimDuration::from_micros(20);
    // Full verification touches every payload byte three times, so the
    // paper-sized check repetition (about 1 MiB per message) is shorter
    // than the timed ones.
    let check = purpose == Purpose::Check;
    let (sizes, messages) = match (paper, size) {
        (true, Size::Full) => (paper_sizes(), if check { 300 } else { 2_000 }),
        (true, Size::Quick) => (paper_sizes(), if check { 100 } else { 300 }),
        (false, Size::Full) => (SizeDist::Fixed(512), 150_000),
        (false, Size::Quick) => (SizeDist::Fixed(512), 20_000),
    };
    BlastSpec {
        profile,
        cfg: conn_cfg(),
        outstanding_sends: 4,
        outstanding_recvs: 8,
        recv_len: sizes.max_size() as u32,
        sizes,
        messages,
        waitall: false,
        verify: if check {
            VerifyLevel::Full
        } else {
            VerifyLevel::None
        },
        seed,
        start_delay: Some(start_delay),
        time_limit: SimDuration::from_secs(600),
        fabric: FabricModel::Fifo,
    }
}

/// The paper's law: exponential, mean 1 MiB, truncated at 4 MiB.
fn paper_sizes() -> SizeDist {
    SizeDist::Exponential {
        mean: 1 << 20,
        max: PAPER_MAX,
    }
}

/// Virtual-time results and exact counts of one blast report.
fn modelled(r: &BlastReport) -> Values {
    let mut v = conn_counts(&r.sender, &r.receiver, r.messages);
    v.extend([
        ("model.goodput_gbps", r.throughput_bps() / 1e9),
        ("model.rx_cpu_pct", r.cpu_receiver * 100.0),
        ("simnet.events_per_msg", r.events as f64 / r.messages as f64),
        ("simnet.fabric_offered_load_ratio", r.offered_load_ratio()),
    ]);
    v
}

/// One untraced repetition through `blast::run_blast`.
pub fn run(w: Workload, size: Size, seed: u64, purpose: Purpose) -> Rep {
    let spec = spec(w, size, seed, purpose);
    let t0 = Instant::now();
    drop(Built::new(&spec));
    let setup_s = t0.elapsed().as_secs_f64();

    let (report, wall_s, cpu_s) = timed(|| run_blast(&spec));
    let expected_bytes: u64 = spec.sizes.sample_many(seed, spec.messages).iter().sum();
    let mut delivered = report.bytes == expected_bytes
        && report.receiver.bytes_received == expected_bytes
        && report.sender.bytes_sent == expected_bytes;
    if purpose == Purpose::Check {
        delivered &= report.digest == expected_stream_digest(expected_bytes);
    }
    Rep {
        msgs: report.messages,
        failed: if delivered { 0 } else { report.messages },
        setup_s,
        wall_s,
        cpu_s,
        modelled: modelled(&report),
        real: Values::from([(
            "simnet.host_ns_per_event",
            wall_s * 1e9 / report.events as f64,
        )]),
        ..Rep::default()
    }
}

/// FNV-1a digest of the blast tool's verification pattern
/// (`offset % 251`) over `total` bytes.
fn expected_stream_digest(total: u64) -> u64 {
    let mut h = blast::fan_in::FNV_OFFSET;
    for off in 0..total {
        h = blast::fan_in::fnv1a(h, &[(off % 251) as u8]);
    }
    h
}

/// The connected, registered state a blast run starts from: what
/// `run_blast` builds before its event loop. Building and dropping one
/// is the set-up probe; the traced pass runs its apps on one.
struct Built {
    net: SimNet,
    client_node: NodeId,
    server_node: NodeId,
    client_sock: StreamSocket,
    server_sock: StreamSocket,
    client_slots: Vec<MrInfo>,
    server_slots: Vec<MrInfo>,
    msgs: Vec<u64>,
}

impl Built {
    fn new(spec: &BlastSpec) -> Built {
        let msgs = spec.sizes.sample_many(spec.seed, spec.messages);
        let max_msg = msgs.iter().copied().max().unwrap_or(1) as usize;
        let mut net = SimNet::new();
        net.set_fabric(spec.fabric.clone());
        net.set_host_seed(
            spec.seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(1),
        );
        let client_node = net.add_node(spec.profile.host.clone(), spec.profile.hca.clone());
        let server_node = net.add_node(spec.profile.host.clone(), spec.profile.hca.clone());
        net.connect_nodes(
            client_node,
            server_node,
            spec.profile.link.clone(),
            spec.seed,
        );
        let (client_sock, server_sock) =
            StreamSocket::pair(&mut net, client_node, server_node, &spec.cfg);
        let client_slots = net.with_api(client_node, |api| {
            (0..spec.outstanding_sends)
                .map(|_| api.register_mr(max_msg, Access::NONE))
                .collect()
        });
        let server_slots = net.with_api(server_node, |api| {
            (0..spec.outstanding_recvs)
                .map(|_| api.register_mr(spec.recv_len as usize, Access::local_remote_write()))
                .collect()
        });
        Built {
            net,
            client_node,
            server_node,
            client_sock,
            server_sock,
            client_slots,
            server_slots,
            msgs,
        }
    }
}

/// Runs `f` (an `exs` entry point) inside a span of `kind`, handing it
/// a traced port.
fn exs_call<R>(
    rec: &RefCell<Recorder>,
    kind: Kind,
    msg_id: u64,
    api: &mut NodeApi<'_>,
    f: impl FnOnce(&mut TracedPort<'_, NodeApi<'_>>) -> R,
) -> R {
    in_span(rec, kind, msg_id, || {
        f(&mut TracedPort::new(api, rec, msg_id))
    })
}

fn take_events(rec: &RefCell<Recorder>, msg_id: u64, sock: &mut StreamSocket) -> Vec<ExsEvent> {
    in_span(rec, Kind::TakeEvents, msg_id, || sock.take_events())
}

/// The sending application: keeps `slots.len()` sends outstanding,
/// re-sending from a slot as soon as its send completes.
struct Client {
    rec: Rc<RefCell<Recorder>>,
    sock: StreamSocket,
    slots: Vec<MrInfo>,
    free_slots: Vec<usize>,
    slot_of: Vec<usize>,
    msgs: Vec<u64>,
    next: usize,
    completed: usize,
    start_delay: SimDuration,
    started: bool,
    first_send_at: Option<SimTime>,
}

impl Client {
    fn kick(&mut self, api: &mut NodeApi<'_>) {
        if !self.started {
            return;
        }
        while self.next < self.msgs.len() {
            let Some(slot) = self.free_slots.pop() else {
                return;
            };
            let len = self.msgs[self.next];
            let mr = self.slots[slot];
            if self.first_send_at.is_none() {
                self.first_send_at = Some(api.now());
            }
            self.slot_of[self.next] = slot;
            let id = self.next as u64;
            let sock = &mut self.sock;
            exs_call(&self.rec, Kind::ExsSend, id, api, |port| {
                sock.exs_send(port, &mr, 0, len, id)
            });
            self.next += 1;
        }
    }

    fn callback(&mut self, f: impl FnOnce(&mut Self)) {
        // Not `in_span`: `f` needs all of `self`, the recorder included.
        self.rec
            .borrow_mut()
            .enter(Kind::AppCallback, self.completed as u64);
        f(self);
        self.rec.borrow_mut().exit();
    }
}

impl NodeApp for Client {
    fn on_start(&mut self, api: &mut NodeApi<'_>) {
        self.callback(|c| api.set_timer(c.start_delay, 0));
    }
    fn on_timer(&mut self, api: &mut NodeApi<'_>, _token: u64) {
        self.callback(|c| {
            c.started = true;
            c.kick(api);
        });
    }
    fn on_wake(&mut self, api: &mut NodeApi<'_>) {
        self.callback(|c| {
            let id = c.completed as u64;
            let sock = &mut c.sock;
            exs_call(&c.rec, Kind::HandleWake, id, api, |port| {
                sock.handle_wake(port)
            });
            for ev in take_events(&c.rec, id, &mut c.sock) {
                if let ExsEvent::SendComplete { id, .. } = ev {
                    c.free_slots.push(c.slot_of[id as usize]);
                    c.completed += 1;
                }
            }
            c.kick(api);
        });
    }
    fn is_done(&self) -> bool {
        self.completed == self.msgs.len()
    }
}

/// The receiving application: keeps every slot posted as a plain
/// (non-WAITALL) receive of `recv_len` until the stream's bytes are
/// all in.
struct Server {
    rec: Rc<RefCell<Recorder>>,
    sock: StreamSocket,
    slots: Vec<MrInfo>,
    free_slots: Vec<usize>,
    slot_of: HashMap<u64, usize>,
    recv_len: u32,
    expected_total: u64,
    received: u64,
    recvs_done: u64,
    next_id: u64,
    finished_at: Option<SimTime>,
}

impl Server {
    fn kick(&mut self, api: &mut NodeApi<'_>) {
        // Plain receives may complete short, so over-posting is fine:
        // the run ends on byte count.
        let mut posted_ahead = 0u64;
        while !self.free_slots.is_empty() {
            if self.received + posted_ahead >= self.expected_total {
                break;
            }
            let slot = self.free_slots.pop().expect("checked non-empty");
            let mr = self.slots[slot];
            let id = self.next_id;
            self.next_id += 1;
            self.slot_of.insert(id, slot);
            let (sock, len) = (&mut self.sock, self.recv_len);
            exs_call(&self.rec, Kind::ExsRecv, self.recvs_done, api, |port| {
                sock.exs_recv(port, &mr, 0, len, false, id)
            });
            posted_ahead += u64::from(len);
        }
    }

    fn drain(&mut self, api: &mut NodeApi<'_>) {
        self.kick(api);
        loop {
            let events = take_events(&self.rec, self.recvs_done, &mut self.sock);
            if events.is_empty() {
                break;
            }
            for ev in events {
                if let ExsEvent::RecvComplete { id, len } = ev {
                    let slot = self.slot_of.remove(&id).expect("slot of recv");
                    self.received += u64::from(len);
                    self.recvs_done += 1;
                    self.free_slots.push(slot);
                    if self.received == self.expected_total {
                        self.finished_at = Some(api.now());
                    }
                }
            }
            self.kick(api);
        }
    }

    fn callback(&mut self, f: impl FnOnce(&mut Self)) {
        self.rec
            .borrow_mut()
            .enter(Kind::AppCallback, self.recvs_done);
        f(self);
        self.rec.borrow_mut().exit();
    }
}

impl NodeApp for Server {
    fn on_start(&mut self, api: &mut NodeApi<'_>) {
        self.callback(|s| s.drain(api));
    }
    fn on_wake(&mut self, api: &mut NodeApi<'_>) {
        self.callback(|s| {
            let (sock, id) = (&mut s.sock, s.recvs_done);
            exs_call(&s.rec, Kind::HandleWake, id, api, |port| {
                sock.handle_wake(port)
            });
            s.drain(api);
        });
    }
    fn is_done(&self) -> bool {
        self.received == self.expected_total
    }
}

/// One traced repetition. `rec` collects the spans; the returned
/// `Rep`'s `modelled` block comes from the traced run itself, so the
/// caller can hold it against `run_blast`'s, and its `real` block is
/// the per-layer breakdown ([`trace_values`]).
pub fn run_traced(w: Workload, size: Size, seed: u64, rec: &Rc<RefCell<Recorder>>) -> Rep {
    let spec = spec(w, size, seed, Purpose::Timed);
    rec.borrow_mut().enter(Kind::Rep, seed);

    rec.borrow_mut().enter(Kind::Setup, seed);
    let t0 = Instant::now();
    let built = Built::new(&spec);
    let setup_s = t0.elapsed().as_secs_f64();
    rec.borrow_mut().exit();

    let Built {
        mut net,
        client_node,
        server_node,
        client_sock,
        server_sock,
        client_slots,
        server_slots,
        msgs,
    } = built;
    let total: u64 = msgs.iter().sum();
    let mut client = Client {
        rec: rec.clone(),
        sock: client_sock,
        free_slots: (0..client_slots.len()).collect(),
        slots: client_slots,
        slot_of: vec![usize::MAX; msgs.len()],
        msgs,
        next: 0,
        completed: 0,
        start_delay: spec.start_delay.expect("spec writes the delay out"),
        started: false,
        first_send_at: None,
    };
    let mut server = Server {
        rec: rec.clone(),
        sock: server_sock,
        free_slots: (0..server_slots.len()).collect(),
        slots: server_slots,
        slot_of: HashMap::new(),
        recv_len: spec.recv_len,
        expected_total: total,
        received: 0,
        recvs_done: 0,
        next_id: 0,
        finished_at: None,
    };

    rec.borrow_mut().enter(Kind::Transfer, seed);
    let (outcome, wall_s, cpu_s) = timed(|| {
        rec.borrow_mut().enter(Kind::SimRun, seed);
        let outcome = net.run(
            &mut [&mut client, &mut server],
            SimTime::ZERO + spec.time_limit,
        );
        rec.borrow_mut().exit();
        outcome
    });
    rec.borrow_mut().exit();
    assert!(outcome.completed, "traced blast deadlocked or timed out");

    rec.borrow_mut().enter(Kind::Check, seed);
    let start = client.first_send_at.expect("client sent something");
    let end = server.finished_at.expect("server finished");
    let elapsed = end.saturating_duration_since(start);
    net.with_api(client_node, |api| client.sock.sync_cq_stats(api));
    net.with_api(server_node, |api| server.sock.sync_cq_stats(api));
    let cpu = |busy: SimDuration| {
        if elapsed.is_zero() {
            0.0
        } else {
            (busy.as_secs_f64() / elapsed.as_secs_f64()).min(1.0)
        }
    };
    let sender = client.sock.stats().clone();
    let report = BlastReport {
        bytes: total,
        messages: client.msgs.len() as u64,
        start,
        end,
        cpu_sender: cpu(net.cpu_busy_total(client_node)),
        cpu_receiver: cpu(net.cpu_busy_total(server_node)),
        direct_transfers: sender.direct_transfers,
        indirect_transfers: sender.indirect_transfers,
        mode_switches: sender.mode_switches,
        adverts_discarded: sender.adverts_discarded,
        sender,
        receiver: server.sock.stats().clone(),
        digest: blast::fan_in::FNV_OFFSET,
        events: outcome.events,
        link_bandwidth_bps: spec.profile.link.bandwidth_bps,
        fabric: net.fabric_stats(),
    };
    let delivered = report.receiver.bytes_received == total && report.sender.bytes_sent == total;
    rec.borrow_mut().exit();
    rec.borrow_mut().exit();

    Rep {
        msgs: report.messages,
        failed: if delivered { 0 } else { report.messages },
        setup_s,
        wall_s,
        cpu_s,
        modelled: modelled(&report),
        real: trace_values(&rec.borrow(), report.messages, total),
        ..Rep::default()
    }
}

/// Per-layer values of the traced pass: where the transfer's wall time
/// went, per message, and what crossed the port boundary. The four
/// layer self times partition the `SimNet::run` span — each is a span
/// total minus its children — so they sum to the traced transfer's wall
/// time by construction.
fn trace_values(rec: &Recorder, msgs: u64, bytes: u64) -> Values {
    let per_msg = |n: u64| n as f64 / msgs as f64;
    let polls = rec.agg(Kind::PollCq).count;
    let c = rec.counters;
    Values::from([
        (
            "rdma-verbs.sim_run_self_ns_per_msg",
            per_msg(rec.layer_self_ns(Layer::SimRun)),
        ),
        (
            "bench.harness_self_ns_per_msg",
            per_msg(rec.layer_self_ns(Layer::Harness)),
        ),
        (
            "exs.self_ns_per_msg",
            per_msg(rec.layer_self_ns(Layer::Exs)),
        ),
        (
            "rdma-verbs.port_ns_per_msg",
            per_msg(rec.layer_self_ns(Layer::Port)),
        ),
        ("rdma-verbs.post_send_per_msg", per_msg(c.send_wqes)),
        ("rdma-verbs.poll_cq_per_msg", per_msg(polls)),
        (
            "rdma-verbs.poll_cq_empty_ratio",
            ratio(c.empty_polls as f64, polls as f64),
        ),
        (
            "rdma-verbs.copy_mr_bytes_per_byte",
            c.copy_bytes as f64 / bytes as f64,
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traced_pass_equals_run_blast_bit_for_bit() {
        for w in [Workload::SimBlastPaper, Workload::SimBlastSmall] {
            let rec = Rc::new(RefCell::new(Recorder::new(Instant::now(), 0, 1 << 12)));
            let traced = run_traced(w, Size::Quick, 5, &rec);
            let plain = run(w, Size::Quick, 5, Purpose::Timed);
            assert_eq!(traced.failed, 0);
            assert_eq!(plain.failed, 0);
            assert_eq!(traced.msgs, plain.msgs);
            assert_eq!(traced.modelled, plain.modelled, "{}", w.name());

            // Layer self times partition SimNet::run: together they are
            // the transfer's wall time, short of the timer reads around it.
            let values = &traced.real;
            let attributed: f64 = [
                "rdma-verbs.sim_run_self_ns_per_msg",
                "bench.harness_self_ns_per_msg",
                "exs.self_ns_per_msg",
                "rdma-verbs.port_ns_per_msg",
            ]
            .iter()
            .map(|name| values[name] * traced.msgs as f64)
            .sum();
            let wall_ns = traced.wall_s * 1e9;
            assert!((wall_ns - attributed).abs() < 0.05 * wall_ns);
            assert!(values["exs.self_ns_per_msg"] > 0.0);
            assert!(values["rdma-verbs.port_ns_per_msg"] > 0.0);
            assert!(values["rdma-verbs.post_send_per_msg"] > 0.0);
        }
    }

    #[test]
    fn check_rep_verifies_the_stream_digest() {
        let rep = run(Workload::SimBlastSmall, Size::Quick, 9, Purpose::Check);
        assert_eq!(rep.failed, 0);
        assert_eq!(rep.msgs, 20_000);
    }
}
