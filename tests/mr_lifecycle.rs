//! Registration lifecycle: sockets must not leak pinned memory.
//!
//! Every registration a socket creates — the intermediate ring, the
//! control slots, BCopy staging regions (including ones orphaned by a
//! cancelled send) — is released by `close`, on both backends. The
//! HCA's memory table being empty after teardown is the ground truth:
//! in these tests every registration on the node went through the
//! sockets or is explicitly deregistered, so one leaked region fails
//! the count.

use std::time::Duration;

use rdma_stream::exs::{ExsConfig, ExsEvent, ProtocolMode, StreamSocket, ThreadStream};
use rdma_stream::simnet::SimTime;
use rdma_stream::verbs::{profiles, Access, MrInfo, NodeApi, NodeApp, SimNet};

/// Minimal exchange over two stream sockets between the same nodes:
/// one send on each from the client, received by the server. Each call
/// and each wake drains that socket's events into the app's queue.
struct PairApp {
    socks: Vec<StreamSocket>,
    events: Vec<(usize, ExsEvent)>,
    mr: MrInfo,
    is_client: bool,
    done: [bool; 2],
}

impl NodeApp for PairApp {
    fn on_start(&mut self, api: &mut NodeApi<'_>) {
        let mr = self.mr;
        if self.is_client {
            api.write_mr(mr.key, mr.addr, b"lifecycle-bytes!").unwrap();
        }
        for (idx, sock) in self.socks.iter_mut().enumerate() {
            let id = idx as u64 + 1;
            if self.is_client {
                sock.exs_send(api, &mr, 0, 16, id);
            } else {
                sock.exs_recv(api, &mr, 16 * idx as u64, 16, idx == 0, id);
            }
            self.events
                .extend(sock.take_events().into_iter().map(|ev| (idx, ev)));
        }
    }
    fn on_wake(&mut self, api: &mut NodeApi<'_>) {
        for (idx, sock) in self.socks.iter_mut().enumerate() {
            sock.handle_wake(api);
            self.events
                .extend(sock.take_events().into_iter().map(|ev| (idx, ev)));
        }
        for (idx, ev) in self.events.drain(..) {
            match ev {
                ExsEvent::SendComplete { .. } | ExsEvent::RecvComplete { .. } => {
                    self.done[idx] = true;
                }
                other => panic!("unexpected event {other:?} on socket {idx}"),
            }
        }
    }
    fn is_done(&self) -> bool {
        self.done == [true; 2]
    }
}

#[test]
fn sim_close_releases_every_socket_registration() {
    let profile = profiles::fdr_infiniband();
    let mut net = SimNet::new();
    let a = net.add_node(profile.host.clone(), profile.hca.clone());
    let b = net.add_node(profile.host.clone(), profile.hca.clone());
    net.connect_nodes(a, b, profile.link.clone(), 7);

    let cfg = ExsConfig::default();
    let (s_a, s_b) = StreamSocket::pair(&mut net, a, b, &cfg);
    let (t_a, t_b) = StreamSocket::pair(&mut net, a, b, &cfg);
    let mr_a = net.with_api(a, |api| api.register_mr(32, Access::NONE));
    let mr_b = net.with_api(b, |api| api.register_mr(32, Access::local_remote_write()));

    let app = |socks, mr, is_client| PairApp {
        socks,
        events: Vec::new(),
        mr,
        is_client,
        done: [false; 2],
    };
    let mut client = app(vec![s_a, t_a], mr_a, true);
    let mut server = app(vec![s_b, t_b], mr_b, false);
    let outcome = net.run(&mut [&mut client, &mut server], SimTime::from_secs(1));
    assert!(outcome.completed, "exchange stalled: {outcome:?}");

    // Teardown: close every socket, release the user regions.
    for (node, app, mr) in [(a, &mut client, mr_a), (b, &mut server, mr_b)] {
        net.with_api(node, |api| {
            for sock in &mut app.socks {
                sock.close(api);
            }
            api.hca_deregister(mr.key).unwrap();
            assert_eq!(api.mr_count(), 0, "{node:?} leaked registrations");
        });
    }
}

/// A cancelled BCopy send's staging region (which `exs_cancel` cannot
/// free itself — it has no backend handle) is reclaimed no later than
/// close.
#[test]
fn sim_cancelled_staging_region_is_reclaimed() {
    let profile = profiles::fdr_infiniband();
    let mut net = SimNet::new();
    let a = net.add_node(profile.host.clone(), profile.hca.clone());
    let b = net.add_node(profile.host.clone(), profile.hca.clone());
    net.connect_nodes(a, b, profile.link.clone(), 7);

    // Indirect-only forces staging; a 2-deep send queue keeps the
    // last send undispatched so it stays cancellable.
    let cfg = ExsConfig {
        mode: ProtocolMode::IndirectOnly,
        sq_depth: 2,
        ..ExsConfig::default()
    };
    let (mut s_a, mut s_b) = StreamSocket::pair(&mut net, a, b, &cfg);
    let mr = net.with_api(a, |api| api.register_mr(64, Access::NONE));
    net.with_api(a, |api| {
        s_a.exs_send(api, &mr, 0, 64, 1);
        s_a.exs_send(api, &mr, 0, 64, 2);
        s_a.exs_send(api, &mr, 0, 64, 3);
        assert!(s_a.exs_cancel(3), "send 3 should be cancellable");
        s_a.close(api);
        api.hca_deregister(mr.key).unwrap();
        assert_eq!(api.mr_count(), 0, "cancelled staging region leaked");
    });
    net.with_api(b, |api| {
        s_b.close(api);
        assert_eq!(api.mr_count(), 0);
    });
}

#[test]
fn threaded_close_releases_every_registration() {
    let (a, mut b) = ThreadStream::pair(&ExsConfig::default(), Duration::ZERO);
    let writer = std::thread::spawn(move || {
        a.send_bytes(b"leak check payload").unwrap();
        a
    });
    let mut buf = [0u8; 18];
    b.recv_exact(&mut buf).unwrap();
    assert_eq!(&buf, b"leak check payload");
    let mut a = writer.join().unwrap();

    // send_bytes / recv_exact staged through the per-node pools: the
    // regions are cached, not leaked, and close() releases them along
    // with the sockets' rings and control slots.
    assert!(a.pool().stats().registrations > 0);
    a.close();
    b.close();
    assert_eq!(
        a.node().with_hca(|h| h.mem().len()),
        0,
        "node a leaked registrations"
    );
    assert_eq!(
        b.node().with_hca(|h| h.mem().len()),
        0,
        "node b leaked registrations"
    );
}
