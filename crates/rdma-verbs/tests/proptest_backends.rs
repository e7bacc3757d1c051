//! Verbs-level backend equivalence.
//!
//! `SimNet` reads a send's source buffer when the message is delivered;
//! `ThreadNet` captures it when the work request is posted. For an
//! application that keeps the posted-buffer contract the two must be
//! indistinguishable: random sequences of SEND / WRITE / WRITE WITH IMM
//! with random sizes, offsets and signal flags leave the same bytes in
//! every region and the same completions, in the same order, on every
//! CQ — and both match a sequential interpretation of the sequence. On
//! both, every message is a posted WQE that frees its send-queue slot
//! once delivered, so no slot is left held at the end.

use std::time::Duration;

use proptest::prelude::*;
use rdma_verbs::{
    connect_pair, Access, ConnHalf, CqId, Cqe, HcaConfig, HostModel, MrInfo, NodeApi, NodeApp,
    QpCaps, QpNum, RecvWr, RemoteAddr, SendWr, SimNet, ThreadNet, ThreadNode, WcOpcode, WcStatus,
};
use simnet::{LinkConfig, SimDuration, SimTime};

/// Size of the requester's `local` and the responder's `remote` region.
const REGION: u32 = 32 << 10;
/// Largest payload, and the size of one receive buffer.
const MAX_LEN: u32 = 16 << 10;

#[derive(Clone, Copy, Debug, PartialEq)]
enum Kind {
    Send,
    Write,
    WriteImm,
}

#[derive(Clone, Copy, Debug)]
struct Op {
    kind: Kind,
    len: u32,
    /// Offset in the requester's `local` region (source).
    local_off: u32,
    /// Offset in the responder's `remote` region (target).
    remote_off: u32,
    signaled: bool,
}

impl Op {
    fn consumes_recv(&self) -> bool {
        matches!(self.kind, Kind::Send | Kind::WriteImm)
    }
}

fn op() -> impl Strategy<Value = Op> {
    let kind = prop_oneof![Just(Kind::Send), Just(Kind::Write), Just(Kind::WriteImm),];
    let len = prop_oneof![0u32..=64, 0u32..=MAX_LEN];
    (kind, len, any::<u32>(), any::<u32>(), any::<bool>()).prop_map(
        |(kind, len, local, remote, signaled)| Op {
            kind,
            len,
            local_off: local % (REGION - len + 1),
            remote_off: remote % (REGION - len + 1),
            signaled,
        },
    )
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(op(), 1..12).prop_map(|mut ops| {
        // The last completion vouches for everything before it.
        ops.last_mut().expect("at least one op").signaled = true;
        ops
    })
}

fn fill(seed: u8, len: u32) -> Vec<u8> {
    (0..len)
        .map(|i| (i.wrapping_mul(31) >> 3) as u8 ^ seed)
        .collect()
}

/// The three regions a run can write, both CQs' completions, and the
/// send-queue slots each QP still holds.
#[derive(Debug, PartialEq)]
struct Observed {
    local: Vec<u8>,
    remote: Vec<u8>,
    recv_bufs: Vec<u8>,
    send_cqes: Vec<CqeFields>,
    recv_cqes: Vec<CqeFields>,
    sq_outstanding: (usize, usize),
}

type CqeFields = (u64, WcStatus, WcOpcode, u32, Option<u32>, QpNum);

fn fields(c: &Cqe) -> CqeFields {
    (c.wr_id, c.status, c.opcode, c.byte_len, c.imm, c.qpn)
}

/// Both QPs are the first on their node.
const QPN: QpNum = QpNum(1);

/// What the sequence means, one operation after another.
fn interpret(ops: &[Op]) -> Observed {
    let local = fill(0xA5, REGION);
    let mut remote = fill(0x3C, REGION);
    let recvs = ops.iter().filter(|o| o.consumes_recv()).count();
    let mut recv_bufs = vec![0u8; recvs * MAX_LEN as usize];
    let (mut send_cqes, mut recv_cqes) = (Vec::new(), Vec::new());
    let mut slot = 0usize;
    for (i, op) in ops.iter().enumerate() {
        let n = op.len as usize;
        let (l, r) = (op.local_off as usize, op.remote_off as usize);
        let imm = (op.kind == Kind::WriteImm).then_some(i as u32);
        match op.kind {
            Kind::Send => {
                let at = slot * MAX_LEN as usize;
                recv_bufs[at..at + n].copy_from_slice(&local[l..l + n]);
            }
            Kind::Write | Kind::WriteImm => remote[r..r + n].copy_from_slice(&local[l..l + n]),
        }
        if op.consumes_recv() {
            let opcode = if op.kind == Kind::Send {
                WcOpcode::Recv
            } else {
                WcOpcode::RecvRdmaWithImm
            };
            recv_cqes.push((slot as u64, WcStatus::Success, opcode, op.len, imm, QPN));
            slot += 1;
        }
        if op.signaled {
            let opcode = match op.kind {
                Kind::Send => WcOpcode::Send,
                Kind::Write | Kind::WriteImm => WcOpcode::RdmaWrite,
            };
            send_cqes.push((i as u64, WcStatus::Success, opcode, op.len, None, QPN));
        }
    }
    Observed {
        local,
        remote,
        recv_bufs,
        send_cqes,
        recv_cqes,
        sq_outstanding: (0, 0),
    }
}

/// The regions of one run, registered in the same order on both
/// backends so keys and addresses agree.
#[derive(Clone, Copy)]
struct Regions {
    local: MrInfo,
    remote: MrInfo,
    recv_bufs: MrInfo,
}

fn send_wr(i: usize, op: &Op, m: &Regions) -> SendWr {
    let sge = m.local.sge(op.local_off as u64, op.len);
    let at = RemoteAddr {
        addr: m.remote.addr + op.remote_off as u64,
        rkey: m.remote.key,
    };
    let wr = match op.kind {
        Kind::Send => SendWr::send(i as u64, sge),
        Kind::Write => SendWr::write(i as u64, sge, at),
        Kind::WriteImm => SendWr::write_imm(i as u64, sge, at, i as u32),
    };
    if op.signaled {
        wr
    } else {
        wr.unsignaled()
    }
}

/// One receive per consuming operation, in order: a buffer for a SEND,
/// none for a WRITE WITH IMM.
fn recv_wrs(ops: &[Op], m: &Regions) -> Vec<RecvWr> {
    ops.iter()
        .filter(|o| o.consumes_recv())
        .enumerate()
        .map(|(slot, op)| match op.kind {
            Kind::Send => RecvWr::new(
                slot as u64,
                m.recv_bufs.sge(slot as u64 * MAX_LEN as u64, MAX_LEN),
            ),
            _ => RecvWr::empty(slot as u64),
        })
        .collect()
}

/// Posts the script in order at the start.
struct SimRequester {
    conn: ConnHalf,
    wrs: Vec<SendWr>,
    expect: usize,
    cqes: Vec<Cqe>,
}

impl NodeApp for SimRequester {
    fn on_start(&mut self, api: &mut NodeApi<'_>) {
        for wr in self.wrs.drain(..) {
            api.post_send(self.conn.qpn, wr).unwrap();
        }
    }
    fn on_wake(&mut self, api: &mut NodeApi<'_>) {
        api.poll_cq(self.conn.send_cq, usize::MAX, &mut self.cqes)
            .unwrap();
    }
    fn is_done(&self) -> bool {
        self.cqes.len() == self.expect
    }
}

struct SimResponder {
    cq: CqId,
    expect: usize,
    cqes: Vec<Cqe>,
}

impl NodeApp for SimResponder {
    fn on_start(&mut self, _api: &mut NodeApi<'_>) {}
    fn on_wake(&mut self, api: &mut NodeApi<'_>) {
        api.poll_cq(self.cq, usize::MAX, &mut self.cqes).unwrap();
    }
    fn is_done(&self) -> bool {
        self.cqes.len() == self.expect
    }
}

fn run_sim(ops: &[Op], expect: &Observed) -> Observed {
    let mut net = SimNet::new();
    let a = net.add_node(HostModel::free(), HcaConfig::default());
    let b = net.add_node(HostModel::free(), HcaConfig::default());
    let link = LinkConfig::simple(10_000_000_000, SimDuration::from_micros(1));
    net.connect_nodes(a, b, link, 5);
    let (ha, hb) = connect_pair(&mut net, a, b, QpCaps::default(), 64).unwrap();
    let local = net.with_api(a, |api| {
        let mr = api.register_mr(REGION as usize, Access::LOCAL_WRITE);
        api.write_mr(mr.key, mr.addr, &fill(0xA5, REGION)).unwrap();
        mr
    });
    let m = net.with_api(b, |api| {
        let remote = api.register_mr(REGION as usize, Access::local_remote_write());
        api.write_mr(remote.key, remote.addr, &fill(0x3C, REGION))
            .unwrap();
        let recv_bufs = api.register_mr(expect.recv_bufs.len(), Access::LOCAL_WRITE);
        Regions {
            local,
            remote,
            recv_bufs,
        }
    });
    net.with_api(b, |api| {
        for recv in recv_wrs(ops, &m) {
            api.post_recv(hb.qpn, recv).unwrap();
        }
    });
    let mut requester = SimRequester {
        conn: ha,
        wrs: ops
            .iter()
            .enumerate()
            .map(|(i, op)| send_wr(i, op, &m))
            .collect(),
        expect: expect.send_cqes.len(),
        cqes: Vec::new(),
    };
    let mut responder = SimResponder {
        cq: hb.recv_cq,
        expect: expect.recv_cqes.len(),
        cqes: Vec::new(),
    };
    let outcome = net.run(
        &mut [&mut requester, &mut responder],
        SimTime::from_secs(10),
    );
    assert!(outcome.completed, "sim run stalled: {outcome:?}");
    let read = |net: &mut SimNet, node, mr: MrInfo| {
        let mut buf = vec![0u8; mr.len];
        net.with_api(node, |api| api.read_mr(mr.key, mr.addr, &mut buf))
            .unwrap();
        buf
    };
    let mut outstanding =
        |node, qpn| net.with_api(node, |api| api.hca().qp(qpn).unwrap().sq_outstanding());
    let sq_outstanding = (outstanding(a, ha.qpn), outstanding(b, hb.qpn));
    Observed {
        local: read(&mut net, a, m.local),
        remote: read(&mut net, b, m.remote),
        recv_bufs: read(&mut net, b, m.recv_bufs),
        send_cqes: requester.cqes.iter().map(fields).collect(),
        recv_cqes: responder.cqes.iter().map(fields).collect(),
        sq_outstanding,
    }
}

/// Waits on `cq`, appending to `cqes`, until `done` holds of them.
fn collect(node: &ThreadNode, cq: CqId, cqes: &mut Vec<Cqe>, done: impl Fn(&[Cqe]) -> bool) {
    while !done(cqes) {
        let more = node.wait_cq(cq, Duration::from_secs(30));
        assert!(
            !more.is_empty(),
            "thread run stalled at {} CQEs",
            cqes.len()
        );
        cqes.extend(more);
    }
}

fn run_threads(ops: &[Op], expect: &Observed) -> Observed {
    let mut net = ThreadNet::new();
    let a = net.add_node(HcaConfig::default());
    let b = net.add_node(HcaConfig::default());
    net.connect_nodes(&a, &b, Duration::ZERO);
    let make = |node: &ThreadNode| {
        node.with_hca(|h| {
            let (send_cq, recv_cq) = (h.create_cq(64), h.create_cq(64));
            let qpn = h.create_qp(send_cq, recv_cq, QpCaps::default()).unwrap();
            (qpn, send_cq, recv_cq)
        })
    };
    let (a_qp, a_scq, _) = make(&a);
    let (b_qp, _, b_rcq) = make(&b);
    a.with_hca(|h| h.connect_qp(a_qp, (b.id(), b_qp)).unwrap());
    b.with_hca(|h| h.connect_qp(b_qp, (a.id(), a_qp)).unwrap());
    let local = a.with_hca(|h| {
        let mr = h.register_mr(REGION as usize, Access::LOCAL_WRITE);
        h.mem_mut()
            .app_write(mr.key, mr.addr, &fill(0xA5, REGION))
            .unwrap();
        mr
    });
    let m = b.with_hca(|h| {
        let remote = h.register_mr(REGION as usize, Access::local_remote_write());
        h.mem_mut()
            .app_write(remote.key, remote.addr, &fill(0x3C, REGION))
            .unwrap();
        let recv_bufs = h.register_mr(expect.recv_bufs.len(), Access::LOCAL_WRITE);
        Regions {
            local,
            remote,
            recv_bufs,
        }
    });
    for recv in recv_wrs(ops, &m) {
        b.post_recv(b_qp, recv).unwrap();
    }
    let mut send_cqes = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        net.post_send(&a, a_qp, send_wr(i, op, &m)).unwrap();
    }
    collect(&a, a_scq, &mut send_cqes, |c| {
        c.len() >= expect.send_cqes.len()
    });
    net.quiesce();
    let mut recv_cqes = Vec::new();
    collect(&b, b_rcq, &mut recv_cqes, |c| {
        c.len() >= expect.recv_cqes.len()
    });
    let read = |node: &ThreadNode, mr: MrInfo| {
        let mut buf = vec![0u8; mr.len];
        node.with_hca(|h| h.mem().app_read(mr.key, mr.addr, &mut buf))
            .unwrap();
        buf
    };
    let outstanding =
        |node: &ThreadNode, qpn| node.with_hca(|h| h.qp(qpn).unwrap().sq_outstanding());
    Observed {
        local: read(&a, m.local),
        remote: read(&b, m.remote),
        recv_bufs: read(&b, m.recv_bufs),
        send_cqes: send_cqes.iter().map(fields).collect(),
        recv_cqes: recv_cqes.iter().map(fields).collect(),
        sq_outstanding: (outstanding(&a, a_qp), outstanding(&b, b_qp)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn deferred_and_captured_gathers_are_indistinguishable(ops in ops()) {
        let expect = interpret(&ops);
        let sim = run_sim(&ops, &expect);
        prop_assert_eq!(&sim, &expect, "SimNet diverged from the script: {:?}", ops);
        let threads = run_threads(&ops, &expect);
        prop_assert_eq!(&threads, &sim, "ThreadNet diverged from SimNet: {:?}", ops);
    }
}
