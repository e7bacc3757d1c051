//! Tests for `exs_cancel` (ES-API best-effort operation cancellation)
//! and asymmetric-link configurations.

use exs::{ExsConfig, ExsEvent, ProtocolMode, StreamSocket};
use rdma_verbs::profiles::ideal;
use rdma_verbs::{Access, NodeApp, SimNet};
use simnet::{LinkConfig, SimDuration, SimTime};

fn pair(net: &mut SimNet) -> (StreamSocket, StreamSocket) {
    let profile = ideal();
    let a = net.add_node(profile.host.clone(), profile.hca.clone());
    let b = net.add_node(profile.host.clone(), profile.hca.clone());
    net.connect_nodes(a, b, profile.link.clone(), 10);
    StreamSocket::pair(net, a, b, &ExsConfig::with_mode(ProtocolMode::DirectOnly))
}

#[test]
fn cancel_undispatched_send() {
    let mut net = SimNet::new();
    let (mut sa, _sb) = pair(&mut net);
    net.with_api(rdma_verbs::NodeId(0), |api| {
        let mr = api.register_mr(1024, Access::NONE);
        // Direct-only with no adverts: sends queue undispatched.
        sa.exs_send(api, &mr, 0, 100, 1);
        sa.exs_send(api, &mr, 100, 100, 2);
        sa.exs_send(api, &mr, 200, 100, 2);
        assert!(!sa.sends_drained());
        // Cancel the two (fully undispatched) sends with id 2: one per
        // call, however many share the id.
        assert!(sa.exs_cancel(2));
        assert!(sa.exs_cancel(2), "the second send with id 2 is pending too");
        // Cancelling again or cancelling the unknown fails.
        assert!(!sa.exs_cancel(2));
        assert!(!sa.exs_cancel(99));
    });
}

#[test]
fn cancel_unadvertised_recv_only() {
    let mut net = SimNet::new();
    // Indirect-only: receives are never advertised, so they stay
    // cancellable until data arrives.
    let profile = ideal();
    let a = net.add_node(profile.host.clone(), profile.hca.clone());
    let b = net.add_node(profile.host.clone(), profile.hca.clone());
    net.connect_nodes(a, b, profile.link.clone(), 11);
    let (_sa, mut sb) = StreamSocket::pair(
        &mut net,
        a,
        b,
        &ExsConfig::with_mode(ProtocolMode::IndirectOnly),
    );
    net.with_api(b, |api| {
        let mr = api.register_mr(4096, Access::local_remote_write());
        sb.exs_recv(api, &mr, 0, 1024, false, 7);
        assert_eq!(sb.recvs_pending(), 1);
        assert!(sb.exs_cancel(7), "un-advertised receive is cancellable");
        assert_eq!(sb.recvs_pending(), 0);
    });
}

#[test]
fn advertised_recv_is_not_cancellable() {
    let mut net = SimNet::new();
    let profile = ideal();
    let a = net.add_node(profile.host.clone(), profile.hca.clone());
    let b = net.add_node(profile.host.clone(), profile.hca.clone());
    net.connect_nodes(a, b, profile.link.clone(), 12);
    let (_sa, mut sb) =
        StreamSocket::pair(&mut net, a, b, &ExsConfig::with_mode(ProtocolMode::Dynamic));
    net.with_api(b, |api| {
        let mr = api.register_mr(4096, Access::local_remote_write());
        // Dynamic mode with an empty ring: advertised immediately.
        sb.exs_recv(api, &mr, 0, 1024, false, 7);
        assert!(!sb.exs_cancel(7), "advertised receive must not cancel");
        assert_eq!(sb.recvs_pending(), 1);
    });
}

#[test]
fn cancelled_ops_produce_no_events_and_stream_continues() {
    let mut net = SimNet::new();
    let profile = ideal();
    let a = net.add_node(profile.host.clone(), profile.hca.clone());
    let b = net.add_node(profile.host.clone(), profile.hca.clone());
    net.connect_nodes(a, b, profile.link.clone(), 13);
    let (sa, sb) = StreamSocket::pair(
        &mut net,
        a,
        b,
        &ExsConfig::with_mode(ProtocolMode::IndirectOnly),
    );

    struct Tx {
        sock: Option<StreamSocket>,
        done: bool,
    }
    impl NodeApp for Tx {
        fn on_start(&mut self, api: &mut rdma_verbs::NodeApi<'_>) {
            let mr = api.register_mr(300, Access::NONE);
            api.write_mr(mr.key, mr.addr, &[7u8; 300]).unwrap();
            let sock = self.sock.as_mut().unwrap();
            sock.exs_send(api, &mr, 0, 100, 1);
            sock.exs_send(api, &mr, 100, 100, 2);
        }
        fn on_wake(&mut self, api: &mut rdma_verbs::NodeApi<'_>) {
            self.sock.as_mut().unwrap().handle_wake(api);
            let events = self.sock.as_mut().unwrap().take_events();
            self.done |= events
                .iter()
                .filter(|e| matches!(e, ExsEvent::SendComplete { .. }))
                .count()
                > 0;
        }
        fn is_done(&self) -> bool {
            self.done && self.sock.as_ref().unwrap().sends_drained()
        }
    }
    struct Rx {
        sock: Option<StreamSocket>,
        got: u64,
    }
    impl NodeApp for Rx {
        fn on_start(&mut self, api: &mut rdma_verbs::NodeApi<'_>) {
            let mr = api.register_mr(4096, Access::local_remote_write());
            let sock = self.sock.as_mut().unwrap();
            // Post three receives, cancel the middle one before data
            // arrives; the stream must flow through receives 0 and 2.
            sock.exs_recv(api, &mr, 0, 100, true, 0);
            sock.exs_recv(api, &mr, 1000, 100, true, 1);
            sock.exs_recv(api, &mr, 2000, 100, true, 2);
            assert!(sock.exs_cancel(1));
        }
        fn on_wake(&mut self, api: &mut rdma_verbs::NodeApi<'_>) {
            self.sock.as_mut().unwrap().handle_wake(api);
            for ev in self.sock.as_mut().unwrap().take_events() {
                if let ExsEvent::RecvComplete { id, len } = ev {
                    assert_ne!(id, 1, "cancelled receive must not complete");
                    self.got += len as u64;
                }
            }
        }
        fn is_done(&self) -> bool {
            self.got == 200
        }
    }
    let mut tx = Tx {
        sock: Some(sa),
        done: false,
    };
    let mut rx = Rx {
        sock: Some(sb),
        got: 0,
    };
    let outcome = net.run(&mut [&mut tx, &mut rx], SimTime::from_secs(1));
    assert!(outcome.completed, "{outcome:?} got={}", rx.got);
}

#[test]
fn asymmetric_links_apply_per_direction() {
    // Fat a→b, thin b→a: a 1 MiB transfer a→b is fast; the same b→a is
    // ~100× slower.
    let profile = ideal();
    let fat = LinkConfig::simple(100_000_000_000, SimDuration::from_micros(1));
    let thin = LinkConfig::simple(1_000_000_000, SimDuration::from_micros(1));

    let run_one = |forward: bool| -> SimTime {
        let mut net = SimNet::new();
        let a = net.add_node(profile.host.clone(), profile.hca.clone());
        let b = net.add_node(profile.host.clone(), profile.hca.clone());
        net.connect_nodes_asymmetric(a, b, fat.clone(), thin.clone(), 14);
        let (mut sa, mut sb) = StreamSocket::pair(
            &mut net,
            a,
            b,
            &ExsConfig::with_mode(ProtocolMode::IndirectOnly),
        );
        let (tx_node, tx_sock, rx_node, rx_sock) = if forward {
            (a, &mut sa, b, &mut sb)
        } else {
            (b, &mut sb, a, &mut sa)
        };
        net.with_api(tx_node, |api| {
            let mr = api.register_mr(1 << 20, Access::NONE);
            tx_sock.exs_send(api, &mr, 0, 1 << 20, 1);
        });
        net.with_api(rx_node, |api| {
            let mr = api.register_mr(1 << 20, Access::local_remote_write());
            rx_sock.exs_recv(api, &mr, 0, 1 << 20, true, 1);
        });

        struct Drive<'s> {
            sock: &'s mut StreamSocket,
            want_recv: bool,
            done: bool,
        }
        impl NodeApp for Drive<'_> {
            fn on_start(&mut self, _api: &mut rdma_verbs::NodeApi<'_>) {}
            fn on_wake(&mut self, api: &mut rdma_verbs::NodeApi<'_>) {
                self.sock.handle_wake(api);
                for ev in self.sock.take_events() {
                    match ev {
                        ExsEvent::RecvComplete { .. } if self.want_recv => self.done = true,
                        ExsEvent::SendComplete { .. } if !self.want_recv => self.done = true,
                        _ => {}
                    }
                }
            }
            fn is_done(&self) -> bool {
                self.done
            }
        }
        let (mut da, mut db) = (
            Drive {
                sock: &mut sa,
                want_recv: !forward,
                done: false,
            },
            Drive {
                sock: &mut sb,
                want_recv: forward,
                done: false,
            },
        );
        let outcome = net.run(&mut [&mut da, &mut db], SimTime::from_secs(10));
        assert!(outcome.completed);
        outcome.end
    };

    let fast = run_one(true);
    let slow = run_one(false);
    assert!(
        slow.as_nanos() > fast.as_nanos() * 20,
        "thin direction must be much slower: {fast:?} vs {slow:?}"
    );
}

/// Sends 1000 then 2000 bytes from a to b under one caller id (5) on a
/// socket of `mode`, closes both sockets, and returns a's completions in
/// order and whether a's node still holds a registration.
fn two_sends_with_one_id(mode: ProtocolMode) -> (Vec<ExsEvent>, usize) {
    struct Tx {
        sock: StreamSocket,
        mr: Option<rdma_verbs::MrInfo>,
        done: Vec<ExsEvent>,
    }
    impl NodeApp for Tx {
        fn on_start(&mut self, api: &mut rdma_verbs::NodeApi<'_>) {
            let mr = api.register_mr(3000, Access::NONE);
            api.write_mr(mr.key, mr.addr, &[7u8; 3000]).unwrap();
            self.sock.exs_send(api, &mr, 0, 1000, 5);
            self.sock.exs_send(api, &mr, 1000, 2000, 5);
            self.mr = Some(mr);
        }
        fn on_wake(&mut self, api: &mut rdma_verbs::NodeApi<'_>) {
            self.sock.handle_wake(api);
            self.done.extend(self.sock.take_events());
        }
        fn is_done(&self) -> bool {
            self.done.len() == 2 && self.sock.sends_drained()
        }
    }
    struct Rx {
        sock: StreamSocket,
        got: u64,
    }
    impl NodeApp for Rx {
        fn on_start(&mut self, api: &mut rdma_verbs::NodeApi<'_>) {
            let mr = api.register_mr(3000, Access::local_remote_write());
            self.sock.exs_recv(api, &mr, 0, 3000, true, 0);
        }
        fn on_wake(&mut self, api: &mut rdma_verbs::NodeApi<'_>) {
            self.sock.handle_wake(api);
            for ev in self.sock.take_events() {
                if let ExsEvent::RecvComplete { len, .. } = ev {
                    self.got += len as u64;
                }
            }
        }
        fn is_done(&self) -> bool {
            self.got == 3000
        }
    }

    let mut net = SimNet::new();
    let profile = ideal();
    let a = net.add_node(profile.host.clone(), profile.hca.clone());
    let b = net.add_node(profile.host.clone(), profile.hca.clone());
    net.connect_nodes(a, b, profile.link.clone(), 15);
    let (sa, sb) = StreamSocket::pair(&mut net, a, b, &ExsConfig::with_mode(mode));
    let mut tx = Tx {
        sock: sa,
        mr: None,
        done: Vec::new(),
    };
    let mut rx = Rx { sock: sb, got: 0 };
    let outcome = net.run(&mut [&mut tx, &mut rx], SimTime::from_secs(1));
    assert!(outcome.completed, "{outcome:?} got={}", rx.got);
    let left = net.with_api(a, |api| {
        tx.sock.close(api);
        api.hca_deregister(tx.mr.expect("sent").key).unwrap();
        api.mr_count()
    });
    net.with_api(b, |api| rx.sock.close(api));
    (tx.done, left)
}

/// Two sends in flight with one caller id are two sends: each completes
/// with its own length, and a BCopy socket frees both staging regions.
#[test]
fn two_sends_with_one_id_complete_apart() {
    for mode in [ProtocolMode::Dynamic, ProtocolMode::BCopy] {
        let (done, left) = two_sends_with_one_id(mode);
        assert_eq!(
            done,
            [
                ExsEvent::SendComplete { id: 5, len: 1000 },
                ExsEvent::SendComplete { id: 5, len: 2000 },
            ],
            "{mode:?}"
        );
        assert_eq!(left, 0, "{mode:?}: a staging region stayed registered");
    }
}
