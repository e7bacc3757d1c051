//! Connection management helpers.
//!
//! Real deployments use the RDMA connection manager (`rdma_cm`) to
//! exchange QP numbers and transition QPs through INIT/RTR/RTS. The
//! simulator performs that exchange out of band — connection setup is
//! outside every timed window in the paper's experiments — but keeps the
//! same observable result: a pair of RTS queue pairs bound to each other,
//! each with its own send and receive completion queues.

use crate::qp::QpCaps;
use crate::sim::SimNet;
use crate::types::{CqId, NodeId, QpNum, Result};

/// One side of an established connection.
#[derive(Clone, Copy, Debug)]
pub struct ConnHalf {
    /// The node this half lives on.
    pub node: NodeId,
    /// The connected queue pair.
    pub qpn: QpNum,
    /// CQ receiving send completions.
    pub send_cq: CqId,
    /// CQ receiving receive completions.
    pub recv_cq: CqId,
}

/// Creates CQs of `cq_depth` entries and a QP on each node and connects
/// them, RTS on both sides.
pub fn connect_pair(
    net: &mut SimNet,
    a: NodeId,
    b: NodeId,
    caps: QpCaps,
    cq_depth: usize,
) -> Result<(ConnHalf, ConnHalf)> {
    connect_pair_on_cqs(net, a, b, caps, cq_depth, None)
}

/// Like [`connect_pair`], but when `b_cqs` is given, `b`'s QP completes
/// onto those existing `(send_cq, recv_cq)` instead of fresh ones.
///
/// This is the server shape of an epoll-style event loop: every accepted
/// QP shares one send and one receive CQ, so a single poller drains all
/// completions in batches and dispatches them by the CQE's `qpn` — one
/// CQ poll per wake-up instead of one per connection.
pub fn connect_pair_on_cqs(
    net: &mut SimNet,
    a: NodeId,
    b: NodeId,
    caps: QpCaps,
    cq_depth: usize,
    b_cqs: Option<(CqId, CqId)>,
) -> Result<(ConnHalf, ConnHalf)> {
    connect_pool(net, a, b, caps, cq_depth, None, b_cqs)
}

/// The most general pairwise connect: either side may complete onto
/// caller-provided `(send_cq, recv_cq)` instead of fresh ones.
///
/// This is the shape a shared-transport pool needs: *both* endpoints
/// multiplex many QPs onto one CQ pair each, so every member QP of the
/// pool is created against the pool's shared CQs on its own side.
pub fn connect_pool(
    net: &mut SimNet,
    a: NodeId,
    b: NodeId,
    caps: QpCaps,
    cq_depth: usize,
    a_cqs: Option<(CqId, CqId)>,
    b_cqs: Option<(CqId, CqId)>,
) -> Result<(ConnHalf, ConnHalf)> {
    let (a_send, a_recv, a_qp) = net.with_api(a, |api| {
        let (send_cq, recv_cq) = match a_cqs {
            Some(cqs) => cqs,
            None => (api.create_cq(cq_depth), api.create_cq(cq_depth)),
        };
        let qpn = api.create_qp(send_cq, recv_cq, caps)?;
        Ok::<_, crate::types::VerbsError>((send_cq, recv_cq, qpn))
    })?;
    let (b_send, b_recv, b_qp) = net.with_api(b, |api| {
        let (send_cq, recv_cq) = match b_cqs {
            Some(cqs) => cqs,
            None => (api.create_cq(cq_depth), api.create_cq(cq_depth)),
        };
        let qpn = api.create_qp(send_cq, recv_cq, caps)?;
        Ok::<_, crate::types::VerbsError>((send_cq, recv_cq, qpn))
    })?;
    net.with_api(a, |api| api.connect_qp(a_qp, (b, b_qp)))?;
    net.with_api(b, |api| api.connect_qp(b_qp, (a, a_qp)))?;
    Ok((
        ConnHalf {
            node: a,
            qpn: a_qp,
            send_cq: a_send,
            recv_cq: a_recv,
        },
        ConnHalf {
            node: b,
            qpn: b_qp,
            send_cq: b_send,
            recv_cq: b_recv,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hca::HcaConfig;
    use crate::host::HostModel;
    use crate::qp::QpState;
    use simnet::{LinkConfig, SimDuration};

    #[test]
    fn connect_pair_reaches_rts_both_sides() {
        let mut net = SimNet::new();
        let a = net.add_node(HostModel::free(), HcaConfig::default());
        let b = net.add_node(HostModel::free(), HcaConfig::default());
        net.connect_nodes(
            a,
            b,
            LinkConfig::simple(10_000_000_000, SimDuration::from_micros(1)),
            0,
        );
        let (ha, hb) = connect_pair(&mut net, a, b, QpCaps::default(), 128).unwrap();
        assert_eq!(ha.node, a);
        assert_eq!(hb.node, b);
        net.with_api(a, |api| {
            let qp = api.hca().qp(ha.qpn).unwrap();
            assert_eq!(qp.state(), QpState::ReadyToSend);
            assert_eq!(qp.remote(), Some((b, hb.qpn)));
        });
        net.with_api(b, |api| {
            let qp = api.hca().qp(hb.qpn).unwrap();
            assert_eq!(qp.state(), QpState::ReadyToSend);
            assert_eq!(qp.remote(), Some((a, ha.qpn)));
        });
        assert_ne!(ha.send_cq, ha.recv_cq);
    }

    #[test]
    fn connect_pool_shares_cqs_on_both_sides() {
        let mut net = SimNet::new();
        let a = net.add_node(HostModel::free(), HcaConfig::default());
        let b = net.add_node(HostModel::free(), HcaConfig::default());
        net.connect_nodes(
            a,
            b,
            LinkConfig::simple(10_000_000_000, SimDuration::from_micros(1)),
            0,
        );
        let a_cqs = net.with_api(a, |api| (api.create_cq(256), api.create_cq(256)));
        let b_cqs = net.with_api(b, |api| (api.create_cq(256), api.create_cq(256)));
        let mut halves = Vec::new();
        for _ in 0..3 {
            halves.push(
                connect_pool(
                    &mut net,
                    a,
                    b,
                    QpCaps::default(),
                    128,
                    Some(a_cqs),
                    Some(b_cqs),
                )
                .unwrap(),
            );
        }
        // Every pool member completes onto the one shared CQ pair per
        // side, and each connect yields a distinct QP.
        for (ha, hb) in &halves {
            assert_eq!((ha.send_cq, ha.recv_cq), a_cqs);
            assert_eq!((hb.send_cq, hb.recv_cq), b_cqs);
        }
        assert_ne!(halves[0].0.qpn, halves[1].0.qpn);
        assert_ne!(halves[1].1.qpn, halves[2].1.qpn);
    }
}
