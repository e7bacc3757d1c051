//! Copy amplification, asserted exactly.
//!
//! The paper's direct transfer costs the hosts no copy; this model of
//! the NIC has to move the bytes somewhere, and the budget is one copy
//! per payload byte on the simulator (source region → destination
//! region at delivery) and two on the thread backend (captured at post
//! time under the source node's lock, then placed under the
//! destination's). `bytes_copied`
//! counts every byte a node's memory table moves, so a staging copy
//! that creeps back in fails here, deterministically, not in a noisy
//! timing.

use std::time::Duration;

use rdma_verbs::{
    connect_pair, Access, HcaConfig, HostModel, MrInfo, NodeApi, NodeApp, QpCaps, RecvWr,
    RemoteAddr, SendWr, SimNet, ThreadNet,
};
use simnet::{LinkConfig, SimDuration, SimTime};

const MIB: u32 = 1 << 20;
const INLINE: usize = 64;

/// One operation moving a payload from the requester's `local` region
/// to the responder's `remote` region, or back for `Read`.
#[derive(Clone, Copy, Debug)]
enum Op {
    Send,
    Write,
    WriteImm,
    Read,
    InlineSend,
    EmptyWriteImm,
}

const OPS: [Op; 6] = [
    Op::Send,
    Op::Write,
    Op::WriteImm,
    Op::Read,
    Op::InlineSend,
    Op::EmptyWriteImm,
];

impl Op {
    fn wr(self, local: MrInfo, remote: MrInfo) -> SendWr {
        let at = RemoteAddr {
            addr: remote.addr,
            rkey: remote.key,
        };
        match self {
            Op::Send => SendWr::send(1, local.full_sge()),
            Op::Write => SendWr::write(1, local.full_sge(), at),
            Op::WriteImm => SendWr::write_imm(1, local.full_sge(), at, 7),
            Op::Read => SendWr::read(1, local.full_sge(), at),
            Op::InlineSend => SendWr::send_inline(1, vec![0xAB; INLINE]),
            Op::EmptyWriteImm => SendWr::write_imm_empty(1, at, 7),
        }
    }

    /// The receive this operation consumes at the responder.
    fn recv(self, remote: MrInfo) -> Option<RecvWr> {
        match self {
            Op::Send | Op::InlineSend => Some(RecvWr::new(1, remote.full_sge())),
            Op::WriteImm | Op::EmptyWriteImm => Some(RecvWr::empty(1)),
            Op::Write | Op::Read => None,
        }
    }

    /// `(requester, responder)` bytes copied on a backend that captures
    /// `captured` copies of a registered-memory payload at post time.
    fn budget(self, captured: u64) -> (u64, u64) {
        let mib = u64::from(MIB);
        match self {
            Op::Send | Op::Write | Op::WriteImm => (captured * mib, mib),
            // The responder captures the response (it has no completion
            // to defer behind); the requester places it.
            Op::Read => (mib, mib),
            // Inline data already travels in the work request.
            Op::InlineSend => (0, INLINE as u64),
            Op::EmptyWriteImm => (0, 0),
        }
    }
}

struct Drain;
impl NodeApp for Drain {
    fn on_start(&mut self, _api: &mut NodeApi<'_>) {}
    fn on_wake(&mut self, _api: &mut NodeApi<'_>) {}
}

fn sim_copies(op: Op) -> (u64, u64) {
    let mut net = SimNet::new();
    let a = net.add_node(HostModel::free(), HcaConfig::default());
    let b = net.add_node(HostModel::free(), HcaConfig::default());
    let link = LinkConfig::simple(100_000_000_000, SimDuration::from_micros(1));
    net.connect_nodes(a, b, link, 1);
    let (ha, hb) = connect_pair(&mut net, a, b, QpCaps::default(), 16).unwrap();
    let local = net.with_api(a, |api| api.register_mr(MIB as usize, Access::LOCAL_WRITE));
    let remote = net.with_api(b, |api| api.register_mr(MIB as usize, Access::all()));
    if let Some(recv) = op.recv(remote) {
        net.with_api(b, |api| api.post_recv(hb.qpn, recv)).unwrap();
    }
    net.with_api(a, |api| api.post_send(ha.qpn, op.wr(local, remote)))
        .unwrap();
    net.run(&mut [&mut Drain, &mut Drain], SimTime::from_secs(1));
    (
        net.with_api(a, |api| api.hca().bytes_copied()),
        net.with_api(b, |api| api.hca().bytes_copied()),
    )
}

fn thread_copies(op: Op) -> (u64, u64) {
    let mut net = ThreadNet::new();
    let a = net.add_node(HcaConfig::default());
    let b = net.add_node(HcaConfig::default());
    net.connect_nodes(&a, &b, Duration::ZERO);
    let make = |node: &rdma_verbs::ThreadNode, access| {
        node.with_hca(|h| {
            let (send_cq, recv_cq) = (h.create_cq(16), h.create_cq(16));
            let qpn = h.create_qp(send_cq, recv_cq, QpCaps::default()).unwrap();
            (qpn, send_cq, h.register_mr(MIB as usize, access))
        })
    };
    let (a_qp, a_scq, local) = make(&a, Access::LOCAL_WRITE);
    let (b_qp, _, remote) = make(&b, Access::all());
    a.with_hca(|h| h.connect_qp(a_qp, (b.id(), b_qp)).unwrap());
    b.with_hca(|h| h.connect_qp(b_qp, (a.id(), a_qp)).unwrap());
    if let Some(recv) = op.recv(remote) {
        b.post_recv(b_qp, recv).unwrap();
    }
    net.post_send(&a, a_qp, op.wr(local, remote)).unwrap();
    // A READ completes when its response has been placed; everything
    // else is placed once the fabric is quiet.
    let done = a.wait_cq(a_scq, Duration::from_secs(30));
    assert_eq!(done.len(), 1, "{op:?}");
    net.quiesce();
    (
        a.with_hca(|h| h.bytes_copied()),
        b.with_hca(|h| h.bytes_copied()),
    )
}

#[test]
fn simnet_copies_each_payload_byte_once() {
    for op in OPS {
        assert_eq!(sim_copies(op), op.budget(0), "{op:?}");
    }
}

#[test]
fn threadnet_copies_each_payload_byte_twice() {
    for op in OPS {
        assert_eq!(thread_copies(op), op.budget(1), "{op:?}");
    }
}

#[test]
fn copy_mr_copies_its_length_once() {
    let mut net = SimNet::new();
    let node = net.add_node(HostModel::free(), HcaConfig::default());
    net.with_api(node, |api| {
        let ring = api.register_mr(8192, Access::all());
        let user = api.register_mr(8192, Access::all());
        api.copy_mr(ring.key, ring.addr, user.key, user.addr + 100, 5000)
            .unwrap();
        assert_eq!(api.hca().bytes_copied(), 5000);
        // Within one region, overlapping.
        api.copy_mr(ring.key, ring.addr, ring.key, ring.addr + 1000, 3000)
            .unwrap();
        assert_eq!(api.hca().bytes_copied(), 8000);
        // A rejected copy moves nothing.
        assert!(api
            .copy_mr(ring.key, ring.addr, user.key, user.addr + 8000, 5000)
            .is_err());
        assert_eq!(api.hca().bytes_copied(), 8000);
    });
}
