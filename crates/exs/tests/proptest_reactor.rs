//! Property tests for the reactor's readiness contract.
//!
//! Under randomized workload shapes — connection counts, message sizes,
//! outstanding-send depth, per-poll budgets, drain batch sizes and host
//! jitter seeds (which randomize the CQE interleavings across the
//! shared CQs) — and with a pooled [`MuxEndpoint`] hosted beside the
//! sockets in the same slab, the reactor must never lose or duplicate
//! readiness for either kind:
//!
//! * what a poll reports is exactly what a walk over every hosted slot
//!   would report — the readiness of each that has any, in slab order —
//!   checked after **every** poll against that walk, done here on the
//!   test's side (so in particular an endpoint with pending completed
//!   events is reported readable in the same poll cycle), and
//!   `has_unsent` agrees with asking every endpoint, before and after
//!   the application's borrows;
//! * every posted operation completes exactly once (no lost CQEs, no
//!   duplicated completions);
//! * each stream's bytes arrive in order (pattern-verified).

use std::collections::{HashMap, HashSet};

use proptest::prelude::*;

use exs::{
    connect_mux_pair, ConnId, Endpoint, ExsConfig, MuxEndpoint, MuxEvent, Reactor, ReactorConfig,
    Readiness, StreamSocket,
};
use rdma_verbs::{profiles, Access, MrInfo, NodeApi, NodeApp, NodeId, SimNet};
use simnet::SimTime;

fn pattern(seed: u64, conn: usize, off: u64) -> u8 {
    off.wrapping_mul(31)
        .wrapping_add(conn as u64 * 7)
        .wrapping_add(seed) as u8
}

/// One outbound stream of a [`PropClient`].
struct Flow {
    /// Global stream index (pattern identity).
    idx: usize,
    /// Stream id on the client's link.
    stream: u32,
    slots: Vec<MrInfo>,
    free: Vec<usize>,
    slot_of: HashMap<u64, usize>,
    sent: usize,
    acked: usize,
    pos: u64,
    shutdown: bool,
}

/// One client node: a socket carrying one flow, or a pooled endpoint
/// carrying several.
struct PropClient {
    link: Endpoint,
    flows: Vec<Flow>,
    msgs: usize,
    msg_len: u64,
    seed: u64,
}

impl PropClient {
    fn kick(&mut self, api: &mut NodeApi<'_>) {
        for f in &mut self.flows {
            while f.sent < self.msgs {
                let Some(slot) = f.free.pop() else { break };
                let mr = f.slots[slot];
                let data: Vec<u8> = (0..self.msg_len)
                    .map(|i| pattern(self.seed, f.idx, f.pos + i))
                    .collect();
                api.write_mr(mr.key, mr.addr, &data).unwrap();
                f.slot_of.insert(f.sent as u64, slot);
                self.link
                    .send(api, f.stream, &mr, 0, self.msg_len, f.sent as u64)
                    .expect("send on an open stream");
                f.pos += self.msg_len;
                f.sent += 1;
            }
            if f.sent == self.msgs && f.acked == self.msgs && !f.shutdown {
                self.link.shutdown(api, f.stream);
                f.shutdown = true;
            }
        }
    }
}

impl NodeApp for PropClient {
    fn on_start(&mut self, api: &mut NodeApi<'_>) {
        self.kick(api);
    }
    fn on_wake(&mut self, api: &mut NodeApi<'_>) {
        self.link.handle_wake(api);
        for ev in self.link.take_events() {
            if let MuxEvent::SendComplete { stream, id, .. } = ev {
                let f = self
                    .flows
                    .iter_mut()
                    .find(|f| f.stream == stream)
                    .expect("flow of the completed send");
                f.free.push(f.slot_of.remove(&id).expect("send slot"));
                f.acked += 1;
            }
        }
        self.kick(api);
    }
    fn is_done(&self) -> bool {
        self.flows.iter().all(|f| f.shutdown)
    }
}

/// One inbound stream at the server: where it lives and how far it got.
struct Inbound {
    host: ConnId,
    stream: u32,
    mr: MrInfo,
    received: u64,
    eof: bool,
    outstanding: bool,
}

struct PropServer {
    reactor: Reactor,
    /// Indexed by global stream index.
    streams: Vec<Inbound>,
    by_key: HashMap<(ConnId, u32), usize>,
    recv_len: u32,
    expected: u64,
    /// Every completed receive id ever observed (duplicate detection).
    seen_recv_ids: HashSet<u64>,
    posted_recvs: u64,
    completed_recvs: u64,
    seed: u64,
    next_id: u64,
}

impl PropServer {
    fn handle_host(&mut self, api: &mut NodeApi<'_>, host: ConnId) -> bool {
        let events = self.reactor.conn_mut(host).take_events();
        let mut progressed = !events.is_empty();
        for ev in events {
            match ev {
                MuxEvent::RecvComplete { stream, id, len } => {
                    let idx = self.by_key[&(host, stream)];
                    let s = &mut self.streams[idx];
                    assert!(
                        self.seen_recv_ids.insert(id),
                        "receive {id} completed twice on stream {idx}"
                    );
                    assert!(s.outstanding, "completion without a posted recv");
                    s.outstanding = false;
                    self.completed_recvs += 1;
                    if len > 0 {
                        let mut buf = vec![0u8; len as usize];
                        api.read_mr(s.mr.key, s.mr.addr, &mut buf).unwrap();
                        for (i, &b) in buf.iter().enumerate() {
                            assert_eq!(
                                b,
                                pattern(self.seed, idx, s.received + i as u64),
                                "stream {idx} out of order at {}",
                                s.received + i as u64
                            );
                        }
                        s.received += len as u64;
                    }
                }
                MuxEvent::StreamClosed { stream } => {
                    self.streams[self.by_key[&(host, stream)]].eof = true
                }
                MuxEvent::TransportError { slot } => panic!("host {host:?} slot {slot} broke"),
                MuxEvent::SendComplete { .. } => {}
            }
        }
        for s in self.streams.iter_mut().filter(|s| s.host == host) {
            if !s.eof && !s.outstanding && s.received < self.expected {
                let id = self.next_id;
                self.next_id += 1;
                self.reactor
                    .conn_mut(host)
                    .recv(api, s.stream, &s.mr, 0, self.recv_len, false, id)
                    .expect("receive on an open stream");
                s.outstanding = true;
                self.posted_recvs += 1;
                progressed = true;
            }
        }
        progressed
    }

    /// The report of the full walk the reactor used to make: every
    /// live slot's readiness, in slab order.
    fn full_scan(&self) -> Vec<(ConnId, Readiness)> {
        let all = self.reactor.conn_ids().into_iter();
        all.map(|c| (c, self.reactor.conn(c).readiness()))
            .filter(|(_, r)| r.any())
            .collect()
    }

    /// `has_unsent` against asking every endpoint.
    fn assert_unsent_agrees(&self) {
        let ids = self.reactor.conn_ids();
        let any = ids.iter().any(|&c| self.reactor.conn(c).has_unsent());
        assert_eq!(self.reactor.has_unsent(), any);
    }

    fn service(&mut self, api: &mut NodeApi<'_>) {
        loop {
            let ready = self.reactor.poll(api);
            // THE readiness invariant: a poll reports what walking
            // every slot would — nothing lost (an endpoint holding
            // undelivered events is reported readable by this very
            // poll), nothing stale, same order.
            assert_eq!(ready, self.full_scan(), "poll report vs full scan");
            self.assert_unsent_agrees();
            let mut progressed = false;
            for (conn, _) in ready {
                progressed |= self.handle_host(api, conn);
            }
            self.assert_unsent_agrees();
            if !progressed && !self.reactor.has_backlog() {
                break;
            }
        }
    }
}

impl NodeApp for PropServer {
    fn on_start(&mut self, api: &mut NodeApi<'_>) {
        for conn in self.reactor.conn_ids() {
            self.handle_host(api, conn);
        }
    }
    fn on_wake(&mut self, api: &mut NodeApi<'_>) {
        self.service(api);
    }
    fn is_done(&self) -> bool {
        self.streams
            .iter()
            .all(|s| s.eof && s.received == self.expected)
    }
}

/// Runs one randomized fan-in through the reactor — `conns` sockets
/// and, when `mux_streams > 0`, one pooled endpoint carrying that many
/// streams from one more client node, hosted in the same reactor;
/// panics on any invariant violation. Returns (reactor deferrals, cqes
/// dispatched).
#[allow(clippy::too_many_arguments)]
fn run_case(
    conns: usize,
    mux_streams: usize,
    msgs: usize,
    msg_len: u64,
    outstanding: usize,
    budget: usize,
    drain: usize,
    seed: u64,
) -> (u64, u64) {
    let profile = profiles::fdr_infiniband();
    let cfg = ExsConfig {
        ring_capacity: 4096,
        credits: 8,
        sq_depth: 8,
        ..ExsConfig::default()
    };
    let recv_len = msg_len.clamp(1, 2048) as u32;
    let expected = msgs as u64 * msg_len;
    let nodes = conns + usize::from(mux_streams > 0);

    let mut net = SimNet::new();
    net.set_host_seed(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let server_node = net.add_node(profile.host.clone(), profile.hca.clone());
    let client_nodes: Vec<NodeId> = (0..nodes)
        .map(|_| net.add_node(profile.host.clone(), profile.hca.clone()))
        .collect();
    for (i, &c) in client_nodes.iter().enumerate() {
        net.connect_nodes(
            c,
            server_node,
            profile.link.clone(),
            seed.wrapping_add(i as u64),
        );
    }

    let cq_depth = cfg.cq_depth(conns) + MuxEndpoint::shared_cq_depth(&cfg);
    let (send_cq, recv_cq) = net.with_api(server_node, |api| {
        (api.create_cq(cq_depth), api.create_cq(cq_depth))
    });
    let mut reactor = Reactor::new(
        send_cq,
        recv_cq,
        ReactorConfig {
            cqe_budget: budget,
            drain_batch: drain,
        },
    );

    let mut clients: Vec<PropClient> = Vec::new();
    let mut streams: Vec<Inbound> = Vec::new();
    let flow = |net: &mut SimNet, cnode: NodeId, idx: usize, stream: u32| Flow {
        idx,
        stream,
        slots: net.with_api(cnode, |api| {
            (0..outstanding)
                .map(|_| api.register_mr(msg_len as usize, Access::NONE))
                .collect()
        }),
        free: (0..outstanding).collect(),
        slot_of: HashMap::new(),
        sent: 0,
        acked: 0,
        pos: 0,
        shutdown: false,
    };
    let inbound = |net: &mut SimNet, host: ConnId, stream: u32| Inbound {
        host,
        stream,
        mr: net.with_api(server_node, |api| {
            api.register_mr(recv_len as usize, Access::local_remote_write())
        }),
        received: 0,
        eof: false,
        outstanding: false,
    };
    for (idx, &cnode) in client_nodes.iter().enumerate().take(conns) {
        let (csock, ssock) =
            StreamSocket::pair_shared(&mut net, cnode, server_node, send_cq, recv_cq, &cfg);
        let host = reactor.accept(ssock);
        streams.push(inbound(&mut net, host, 0));
        clients.push(PropClient {
            link: csock.into(),
            flows: vec![flow(&mut net, cnode, idx, 0)],
            msgs,
            msg_len,
            seed,
        });
    }
    if mux_streams > 0 {
        let cnode = client_nodes[conns];
        let mut cep = MuxEndpoint::new(cnode, &cfg);
        let mut sep = MuxEndpoint::new(server_node, &cfg);
        sep.set_cqs(send_cq, recv_cq);
        for sid in 0..mux_streams as u32 {
            cep.open_stream(sid).unwrap();
            sep.open_stream(sid).unwrap();
        }
        connect_mux_pair(&mut net, &mut cep, &mut sep);
        let host = reactor.accept(sep);
        let flows = (0..mux_streams as u32)
            .map(|sid| {
                streams.push(inbound(&mut net, host, sid));
                flow(&mut net, cnode, conns + sid as usize, sid)
            })
            .collect();
        clients.push(PropClient {
            link: cep.into(),
            flows,
            msgs,
            msg_len,
            seed,
        });
    }
    assert_eq!(reactor.len(), nodes, "one slab counts both kinds");

    let mut server = PropServer {
        reactor,
        by_key: streams
            .iter()
            .enumerate()
            .map(|(i, s)| ((s.host, s.stream), i))
            .collect(),
        streams,
        recv_len,
        expected,
        seen_recv_ids: HashSet::new(),
        posted_recvs: 0,
        completed_recvs: 0,
        seed,
        next_id: 0,
    };

    let mut apps: Vec<&mut dyn NodeApp> = Vec::with_capacity(1 + nodes);
    apps.push(&mut server);
    for c in clients.iter_mut() {
        apps.push(c);
    }
    let outcome = net.run(&mut apps, SimTime::from_secs(600));
    assert!(outcome.completed, "reactor workload stalled: {outcome:?}");

    // No lost completions: every posted receive completed (the final
    // one via the zero-length EOF path), each exactly once.
    assert_eq!(server.posted_recvs, server.completed_recvs);
    assert_eq!(server.seen_recv_ids.len() as u64, server.completed_recvs);
    let stats = server.reactor.stats().clone();
    assert_eq!(stats.orphan_cqes, 0);
    (stats.deferrals, stats.cqes_dispatched)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Randomized CQE interleavings never lose or duplicate readiness,
    /// with or without a pooled endpoint hosted beside the sockets.
    #[test]
    fn readiness_no_loss_no_dup(
        (conns, mux_streams, msgs, msg_len) in (2usize..6, 0usize..4, 1usize..5, 1u64..5000),
        (outstanding, budget, drain) in (1usize..4, 1usize..9, 1usize..65),
        seed in 0u64..10_000,
    ) {
        run_case(conns, mux_streams, msgs, msg_len, outstanding, budget, drain, seed);
    }
}

/// A budget of 1 with chunked multi-CQE traffic must exercise (and
/// count) fairness deferrals — the deferred completions are then picked
/// up without any new wake edge, which is what `has_backlog` guards.
#[test]
fn budget_one_defers_and_still_drains() {
    // Sockets only, sockets beside a pooled endpoint, a pooled endpoint
    // with a single socket: one budget, one `deferrals` counter.
    for (conns, mux_streams) in [(3, 0), (2, 3), (1, 4)] {
        let (deferrals, dispatched) = run_case(conns, mux_streams, 4, 8192, 2, 1, 4, 42);
        assert!(dispatched > 0);
        assert!(
            deferrals > 0,
            "budget=1 over chunked traffic should have deferred at least once \
             ({conns} sockets, {mux_streams} pooled streams)"
        );
    }
}

/// A slab id outlives what it named: once the slot is recycled by the
/// other kind of endpoint, the typed views answer `None` — never a
/// panic, never the wrong endpoint.
#[test]
fn an_id_recycled_by_the_other_kind_is_stale_to_typed_access() {
    let profile = profiles::ideal();
    let cfg = ExsConfig::default();
    let mut net = SimNet::new();
    let a = net.add_node(profile.host.clone(), profile.hca.clone());
    let b = net.add_node(profile.host.clone(), profile.hca.clone());
    net.connect_nodes(a, b, profile.link.clone(), 1);
    let depth = cfg.cq_depth(1) + MuxEndpoint::shared_cq_depth(&cfg);
    let (scq, rcq) = net.with_api(b, |api| (api.create_cq(depth), api.create_cq(depth)));
    let mut reactor = Reactor::new(scq, rcq, ReactorConfig::default());
    let pooled = |net: &mut SimNet| {
        let (mut cep, mut sep) = (MuxEndpoint::new(a, &cfg), MuxEndpoint::new(b, &cfg));
        sep.set_cqs(scq, rcq);
        cep.open_stream(0).unwrap();
        sep.open_stream(0).unwrap();
        connect_mux_pair(net, &mut cep, &mut sep);
        sep
    };

    // Socket, then a pool in its slot.
    let (_c, s) = StreamSocket::pair_shared(&mut net, a, b, scq, rcq, &cfg);
    let id = reactor.accept(s);
    assert!(reactor.conn(id).as_mux().is_none());
    let sock = reactor.remove(id);
    assert!(reactor.is_empty() && reactor.try_conn(id).is_none());
    assert_eq!(
        reactor.accept(pooled(&mut net)),
        id,
        "slab ids are recycled"
    );
    assert!(
        !reactor.is_empty(),
        "a reactor hosting only a pool is not empty"
    );
    assert!(reactor.conn_mut(id).as_socket_mut().is_none());
    assert_eq!(
        reactor.conn(id).as_mux().map(MuxEndpoint::streams_open),
        Some(1)
    );

    // And a socket in the pool's slot: the pooled view of the id is
    // gone, so no stream id can be opened through it.
    drop(reactor.remove(id));
    assert_eq!(reactor.accept(sock), id);
    assert!(reactor
        .try_conn_mut(id)
        .and_then(Endpoint::as_mux_mut)
        .is_none());
    assert_eq!((reactor.len(), reactor.stats().conns_added), (1, 3));
}
