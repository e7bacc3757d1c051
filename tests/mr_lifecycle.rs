//! Registration lifecycle: sockets must not leak pinned memory.
//!
//! Every registration a socket creates — the intermediate ring, the
//! control slots, BCopy staging regions (including ones orphaned by a
//! cancelled send) — is released by `close`, on both backends. The
//! HCA's memory table being empty after teardown is the ground truth:
//! in these tests every registration on the node went through the
//! sockets or is explicitly deregistered, so one leaked region fails
//! the count.

use std::sync::Arc;
use std::time::Duration;

use rdma_stream::exs::{
    ExsConfig, ExsEvent, ProtocolMode, ReactorConfig, ShardConfig, ShardPolicy, StreamSocket,
    ThreadPort, ThreadReactorPool, ThreadStream,
};
use rdma_stream::simnet::SimTime;
use rdma_stream::verbs::threaded::ThreadNet;
use rdma_stream::verbs::{profiles, Access, HcaConfig, MrInfo, NodeApi, NodeApp, SimNet};

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

#[test]
fn thread_reactor_close_releases_registrations() {
    let cfg = ExsConfig::default();
    let mut net = ThreadNet::new();
    let server = net.add_node(HcaConfig::default());
    let peer = net.add_node(HcaConfig::default());
    net.connect_nodes(&peer, &server, Duration::ZERO);
    let reactor = ThreadReactorPool::new(
        Arc::new(net),
        server.clone(),
        ReactorConfig::default(),
        &cfg,
        2,
    );

    let (mut conn, client) = reactor.accept(&peer, &cfg);
    let t = std::thread::spawn(move || {
        client.send_bytes(b"pooled fan-in bytes").unwrap();
        client
    });
    let mut buf = [0u8; 19];
    conn.recv_exact(&mut buf).unwrap();
    assert_eq!(&buf, b"pooled fan-in bytes");
    let mut client = t.join().unwrap();

    // Teardown: each end's close releases its socket and trims its
    // staging pool (the server end's lease is back in the cache).
    conn.close();
    client.close();
    assert_eq!(
        server.with_hca(|h| h.mem().len()),
        0,
        "reactor node leaked registrations"
    );
    assert_eq!(
        peer.with_hca(|h| h.mem().len()),
        0,
        "client node leaked registrations"
    );
}

/// A server end's `close` detaches its connection under the owning
/// shard's reactor lock — the lock every post takes — with no message to
/// the service thread. On a pool of one and a pool of four, a separate
/// thread closes half the connections while the other half are
/// mid-transfer: every surviving stream still delivers its exact bytes,
/// the closes are all counted, the server node's registrations return to
/// where they started, and the pool drops.
#[test]
fn thread_pool_close_races_live_transfers_without_leaks() {
    use rdma_stream::blast::fan_in::{expected_digest, fnv1a, payload_byte, FNV_OFFSET};
    use std::sync::{mpsc, Barrier};

    const SEED: u64 = 41;
    const CONNS: usize = 8;
    const LIVE: usize = CONNS / 2;
    const MSGS: usize = 8;
    const MSG_LEN: usize = 4096;
    const TOTAL: u64 = (MSGS * MSG_LEN) as u64;

    for shards in [1usize, 4] {
        let cfg = ExsConfig {
            ring_capacity: 16 << 10,
            credits: 8,
            sq_depth: 8,
            shard: ShardConfig {
                shards,
                policy: ShardPolicy::RoundRobin,
            },
            ..ExsConfig::default()
        };
        let mut net = ThreadNet::new();
        let server = net.add_node(HcaConfig::default());
        let peers: Vec<_> = (0..2).map(|_| net.add_node(HcaConfig::default())).collect();
        for p in &peers {
            net.connect_nodes(p, &server, Duration::ZERO);
        }
        let net = Arc::new(net);
        let pool = ThreadReactorPool::new(
            net.clone(),
            server.clone(),
            ReactorConfig::default(),
            &cfg,
            CONNS,
        );
        assert_eq!(pool.shards(), shards);
        let registered_before = server.with_hca(|h| h.mem().len());

        // Even connections carry traffic; odd ones sit idle until closed.
        let mut live = Vec::new();
        let mut live_servers = Vec::new();
        let mut idle = Vec::new();
        for idx in 0..CONNS {
            let (server_end, client) = pool.accept(&peers[idx % peers.len()], &cfg);
            if idx % 2 == 0 {
                live.push((idx, client));
                live_servers.push(server_end);
            } else {
                idle.push((server_end, client));
            }
        }

        // Forced interleaving: the closer starts only once every live
        // stream has delivered its first message, and no live stream
        // sends its last message before the closer is done.
        let (started_tx, started_rx) = mpsc::channel::<()>();
        let closer_done = Barrier::new(LIVE + 1);
        let digests: Vec<u64> = std::thread::scope(|s| {
            let (pool, net, closer_done) = (&pool, &net, &closer_done);
            let consumers: Vec<_> = live_servers
                .iter()
                .map(|server_end| {
                    let started = started_tx.clone();
                    let server = server.clone();
                    s.spawn(move || {
                        let lease = server_end.acquire(MSG_LEN, Access::local_remote_write());
                        let port = ThreadPort::new(net, &server);
                        let mut buf = vec![0u8; MSG_LEN];
                        let mut digest = FNV_OFFSET;
                        let mut received = 0u64;
                        loop {
                            let id = server_end.recv(lease.info(), 0, MSG_LEN as u32, false);
                            let len = server_end
                                .wait_recv(id, Duration::from_secs(30))
                                .expect("live stream's receive completes")
                                as usize;
                            if len == 0 {
                                break;
                            }
                            lease.read(&port, 0, &mut buf[..len]).unwrap();
                            digest = fnv1a(digest, &buf[..len]);
                            if received == 0 {
                                started.send(()).unwrap();
                            }
                            received += len as u64;
                        }
                        assert_eq!(received, TOTAL);
                        digest
                    })
                })
                .collect();
            let senders: Vec<_> = live
                .into_iter()
                .map(|(idx, client)| {
                    s.spawn(move || {
                        for m in 0..MSGS {
                            if m == MSGS - 1 {
                                closer_done.wait();
                            }
                            let base = (m * MSG_LEN) as u64;
                            let data: Vec<u8> = (0..MSG_LEN as u64)
                                .map(|i| payload_byte(SEED, idx, base + i))
                                .collect();
                            client.send_bytes(&data).expect("live stream's send");
                        }
                        client.shutdown();
                        client
                    })
                })
                .collect();
            let closer = s.spawn(move || {
                for _ in 0..LIVE {
                    started_rx.recv().expect("a live stream started");
                }
                let mut clients = Vec::new();
                for (mut server_end, client) in idle {
                    server_end.close();
                    assert_eq!(server_end.wait_recv(0, Duration::from_secs(30)), None);
                    clients.push(client);
                }
                assert_eq!(pool.reactor_stats().conns_removed, (CONNS - LIVE) as u64);
                closer_done.wait();
                clients
            });

            let digests = consumers
                .into_iter()
                .map(|c| c.join().expect("consumer thread"))
                .collect();
            // Client endpoints close only after the server drained
            // their streams (`shutdown` above already sent the FIN).
            for sender in senders {
                sender.join().expect("sender thread").close();
            }
            for mut client in closer.join().expect("closer thread") {
                client.close();
            }
            digests
        });
        for (i, digest) in digests.into_iter().enumerate() {
            assert_eq!(
                digest,
                expected_digest(SEED, 2 * i, TOTAL),
                "{shards} shard(s): surviving conn {} digest moved",
                2 * i
            );
        }

        for mut server_end in live_servers {
            server_end.close();
        }
        let stats = pool.reactor_stats();
        assert_eq!(
            (stats.conns_added, stats.conns_removed),
            (CONNS as u64, CONNS as u64)
        );
        assert_eq!(
            server.with_hca(|h| h.mem().len()),
            registered_before,
            "{shards} shard(s): server node leaked registrations"
        );
        drop(pool);
    }
}
