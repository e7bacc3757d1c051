//! Copy amplification and placement work, asserted exactly.
//!
//! The paper's direct transfer costs the hosts no copy; this model of
//! the NIC has to move the bytes somewhere, and the budget is one placed
//! byte per payload byte on the simulator (source region → destination
//! region at delivery) and two on the thread backend (captured at post
//! time under the source node's lock, then placed under the
//! destination's). `bytes_copied` counts every byte a node's memory
//! table places or captures, so a staging copy that creeps back in fails
//! here, deterministically, not in a noisy timing.
//!
//! What the host does for a placed byte is a second count. On the
//! simulator a placement from a region takes every page it covers whole
//! — at the same offset within a page on both sides — by reference, and
//! copies the rest: `pages_shared` counts the pages so taken, 256 for a
//! page-aligned 1 MiB payload and none when the source starts one byte
//! into a page. The thread backend's payloads are captured bytes, and it
//! shares nothing.

use std::time::Duration;

use rdma_verbs::{
    connect_pair, Access, ConnHalf, HcaConfig, HostModel, MemoryTable, MrInfo, NodeApi, NodeApp,
    NodeId, QpCaps, RecvWr, RemoteAddr, SendWr, SimNet, ThreadNet,
};
use simnet::{LinkConfig, SimDuration, SimTime};

const MIB: u32 = 1 << 20;
const INLINE: usize = 64;
/// Pages of a page-aligned MiB.
const PAGES: u64 = MIB as u64 / 4096;
/// Where the requester's payload starts in its region: on a page
/// boundary, or one byte past it.
const OFFSETS: [u64; 2] = [0, 1];

/// One operation moving a payload from the requester's `local` region
/// to the responder's `remote` region.
#[derive(Clone, Copy, Debug)]
enum Op {
    Send,
    Write,
    WriteImm,
    InlineSend,
    EmptyWriteImm,
}

const OPS: [Op; 5] = [
    Op::Send,
    Op::Write,
    Op::WriteImm,
    Op::InlineSend,
    Op::EmptyWriteImm,
];

impl Op {
    /// The work request moving the MiB at `offset` of `local`.
    fn wr(self, local: MrInfo, offset: u64, remote: MrInfo) -> SendWr {
        let at = RemoteAddr {
            addr: remote.addr,
            rkey: remote.key,
        };
        let sge = local.sge(offset, MIB);
        match self {
            Op::Send => SendWr::send(1, sge),
            Op::Write => SendWr::write(1, sge, at),
            Op::WriteImm => SendWr::write_imm(1, sge, at, 7),
            Op::InlineSend => SendWr::send_inline(1, vec![0xAB; INLINE]),
            Op::EmptyWriteImm => SendWr::write_imm_empty(1, at, 7),
        }
    }

    /// The receive this operation consumes at the responder.
    fn recv(self, remote: MrInfo) -> Option<RecvWr> {
        match self {
            Op::Send | Op::InlineSend => Some(RecvWr::new(1, remote.full_sge())),
            Op::WriteImm | Op::EmptyWriteImm => Some(RecvWr::empty(1)),
            Op::Write => None,
        }
    }

    /// `(requester, responder)` bytes copied on a backend that captures
    /// `captured` copies of a registered-memory payload at post time.
    fn budget(self, captured: u64) -> (u64, u64) {
        let mib = u64::from(MIB);
        match self {
            Op::Send | Op::Write | Op::WriteImm => (captured * mib, mib),
            // Inline data already travels in the work request.
            Op::InlineSend => (0, INLINE as u64),
            Op::EmptyWriteImm => (0, 0),
        }
    }

    /// `(requester, responder)` pages placed by reference on the
    /// simulator, the requester's payload starting `offset` bytes into
    /// its region.
    fn shared(self, offset: u64) -> (u64, u64) {
        match self {
            Op::Send | Op::Write | Op::WriteImm if offset == 0 => (0, PAGES),
            _ => (0, 0),
        }
    }
}

/// What one node's memory table did: `(bytes_copied, pages_shared)`.
fn work(mem: &MemoryTable) -> (u64, u64) {
    (mem.bytes_copied(), mem.pages_shared())
}

/// Requester's and responder's `(bytes placed or captured, pages
/// shared)`, arranged as `((copied, copied), (shared, shared))`.
fn by_count(a: (u64, u64), b: (u64, u64)) -> ((u64, u64), (u64, u64)) {
    ((a.0, b.0), (a.1, b.1))
}

struct Drain;
impl NodeApp for Drain {
    fn on_start(&mut self, _api: &mut NodeApi<'_>) {}
    fn on_wake(&mut self, _api: &mut NodeApi<'_>) {}
}

/// Two free hosts on a 100 Gbit/s link, and a connected QP on each.
fn sim_pair() -> (SimNet, (NodeId, NodeId), (ConnHalf, ConnHalf)) {
    let mut net = SimNet::new();
    let a = net.add_node(HostModel::free(), HcaConfig::default());
    let b = net.add_node(HostModel::free(), HcaConfig::default());
    let link = LinkConfig::simple(100_000_000_000, SimDuration::from_micros(1));
    net.connect_nodes(a, b, link, 1);
    let halves = connect_pair(&mut net, a, b, QpCaps::default(), 16).unwrap();
    (net, (a, b), halves)
}

fn sim_copies(op: Op, offset: u64) -> ((u64, u64), (u64, u64)) {
    let (mut net, (a, b), (ha, hb)) = sim_pair();
    let len = (u64::from(MIB) + offset) as usize;
    let local = net.with_api(a, |api| api.register_mr(len, Access::LOCAL_WRITE));
    let remote = net.with_api(b, |api| {
        api.register_mr(MIB as usize, Access::local_remote_write())
    });
    if let Some(recv) = op.recv(remote) {
        net.with_api(b, |api| api.post_recv(hb.qpn, recv)).unwrap();
    }
    net.with_api(a, |api| api.post_send(ha.qpn, op.wr(local, offset, remote)))
        .unwrap();
    net.run(&mut [&mut Drain, &mut Drain], SimTime::from_secs(1));
    by_count(
        net.with_api(a, |api| work(api.hca().mem())),
        net.with_api(b, |api| work(api.hca().mem())),
    )
}

fn thread_copies(op: Op, offset: u64) -> ((u64, u64), (u64, u64)) {
    let mut net = ThreadNet::new();
    let a = net.add_node(HcaConfig::default());
    let b = net.add_node(HcaConfig::default());
    net.connect_nodes(&a, &b, Duration::ZERO);
    let make = |node: &rdma_verbs::ThreadNode, len, access| {
        node.with_hca(|h| {
            let (send_cq, recv_cq) = (h.create_cq(16), h.create_cq(16));
            let qpn = h.create_qp(send_cq, recv_cq, QpCaps::default()).unwrap();
            (qpn, send_cq, h.register_mr(len, access))
        })
    };
    let len = (u64::from(MIB) + offset) as usize;
    let (a_qp, a_scq, local) = make(&a, len, Access::LOCAL_WRITE);
    let (b_qp, _, remote) = make(&b, MIB as usize, Access::local_remote_write());
    a.with_hca(|h| h.connect_qp(a_qp, (b.id(), b_qp)).unwrap());
    b.with_hca(|h| h.connect_qp(b_qp, (a.id(), a_qp)).unwrap());
    if let Some(recv) = op.recv(remote) {
        b.post_recv(b_qp, recv).unwrap();
    }
    net.post_send(&a, a_qp, op.wr(local, offset, remote))
        .unwrap();
    let done = a.wait_cq(a_scq, Duration::from_secs(30));
    assert_eq!(done.len(), 1, "{op:?}");
    net.quiesce();
    by_count(a.with_hca(|h| work(h.mem())), b.with_hca(|h| work(h.mem())))
}

#[test]
fn simnet_copies_each_payload_byte_once_and_shares_the_aligned_pages() {
    for op in OPS {
        for offset in OFFSETS {
            let expect = (op.budget(0), op.shared(offset));
            assert_eq!(sim_copies(op, offset), expect, "{op:?} at {offset}");
        }
    }
}

/// A 4 MiB WRITE between two regions nobody has written: the span of
/// whole pages is one step that hands over empty pages, and it is still
/// counted page for page. The host copies none of the placed bytes, and
/// neither node backs a page.
#[test]
fn simnet_write_between_never_written_regions_shares_every_page_and_backs_none() {
    const LEN: u32 = 4 * MIB;
    let (mut net, (a, b), (ha, _)) = sim_pair();
    let local = net.with_api(a, |api| api.register_mr(LEN as usize, Access::LOCAL_WRITE));
    let remote = net.with_api(b, |api| {
        api.register_mr(LEN as usize, Access::local_remote_write())
    });
    let at = RemoteAddr {
        addr: remote.addr,
        rkey: remote.key,
    };
    let wr = SendWr::write(1, local.full_sge(), at);
    net.with_api(a, |api| api.post_send(ha.qpn, wr)).unwrap();
    net.run(&mut [&mut Drain, &mut Drain], SimTime::from_secs(1));
    let (copied, shared) = net.with_api(b, |api| work(api.hca().mem()));
    assert_eq!((copied, shared), (u64::from(LEN), 1024));
    assert_eq!(copied - shared * 4096, 0, "bytes the host copied");
    let mut backed = |node| net.with_api(node, |api| api.hca().mem().backed_bytes());
    assert_eq!((backed(a), backed(b)), (0, 0));
}

#[test]
fn threadnet_copies_each_payload_byte_twice_and_shares_nothing() {
    for op in OPS {
        for offset in OFFSETS {
            let expect = (op.budget(1), (0, 0));
            assert_eq!(thread_copies(op, offset), expect, "{op:?} at {offset}");
        }
    }
}

#[test]
fn copy_mr_copies_its_length_once() {
    let mut net = SimNet::new();
    let node = net.add_node(HostModel::free(), HcaConfig::default());
    net.with_api(node, |api| {
        let ring = api.register_mr(8192, Access::local_remote_write());
        let user = api.register_mr(8192, Access::local_remote_write());
        api.copy_mr(ring.key, ring.addr, user.key, user.addr + 100, 5000)
            .unwrap();
        assert_eq!(work(api.hca().mem()), (5000, 0));
        // Within one region, overlapping.
        api.copy_mr(ring.key, ring.addr, ring.key, ring.addr + 1000, 3000)
            .unwrap();
        assert_eq!(api.hca().bytes_copied(), 8000);
        // A rejected copy moves nothing.
        assert!(api
            .copy_mr(ring.key, ring.addr, user.key, user.addr + 8000, 5000)
            .is_err());
        assert_eq!(api.hca().bytes_copied(), 8000);
        // Between two regions, page for page: both pages by reference.
        api.copy_mr(ring.key, ring.addr, user.key, user.addr, 8192)
            .unwrap();
        assert_eq!(work(api.hca().mem()), (16_192, 2));
    });
}
