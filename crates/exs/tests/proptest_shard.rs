//! Property tests for the sharded server: one `Reactor` per shard and a
//! `Placement`.
//!
//! Under randomized shapes — shard counts, connection counts, message
//! sizes, receive-split sizes and host jitter seeds — the server must
//! behave exactly like N independent reactors behind a router:
//!
//! * every stream's bytes arrive **in order** (pattern-verified on
//!   every delivered byte) and nothing is dropped or duplicated,
//!   regardless of which shard the rotation picked;
//! * a connection's traffic only ever surfaces on the shard it was
//!   assigned to at accept (readiness for a foreign handle would be a
//!   routing bug);
//! * placement accounting stays consistent: connection `i` lands on
//!   shard `i % shards`, assignments sum to the accept count and every
//!   handle's shard is in range;
//! * merged statistics equal the sum of the per-shard rows.

use std::collections::{HashMap, HashSet};

use proptest::prelude::*;

use exs::{
    ConnId, ExsConfig, ExsEvent, MuxEvent, Placement, Reactor, ReactorConfig, ReactorStats,
    ShardStats, StreamSocket,
};
use rdma_verbs::{profiles, Access, MrInfo, NodeApi, NodeApp, NodeId, SimNet};
use simnet::stats::merged;
use simnet::SimTime;

fn pattern(seed: u64, conn: usize, off: u64) -> u8 {
    off.wrapping_mul(31)
        .wrapping_add(conn as u64 * 7)
        .wrapping_add(seed) as u8
}

struct PropClient {
    sock: StreamSocket,
    idx: usize,
    slots: Vec<MrInfo>,
    free: Vec<usize>,
    slot_of: HashMap<u64, usize>,
    sent: usize,
    acked: usize,
    pos: u64,
    shutdown: bool,
    msgs: usize,
    msg_len: u64,
    seed: u64,
}

impl PropClient {
    fn kick(&mut self, api: &mut NodeApi<'_>) {
        while self.sent < self.msgs {
            let Some(slot) = self.free.pop() else { break };
            let mr = self.slots[slot];
            let data: Vec<u8> = (0..self.msg_len)
                .map(|i| pattern(self.seed, self.idx, self.pos + i))
                .collect();
            api.write_mr(mr.key, mr.addr, &data).unwrap();
            self.slot_of.insert(self.sent as u64, slot);
            self.sock
                .exs_send(api, &mr, 0, self.msg_len, self.sent as u64);
            self.pos += self.msg_len;
            self.sent += 1;
        }
        if self.sent == self.msgs && self.acked == self.msgs && !self.shutdown {
            self.sock.exs_shutdown(api);
            self.shutdown = true;
        }
    }
}

impl NodeApp for PropClient {
    fn on_start(&mut self, api: &mut NodeApi<'_>) {
        self.kick(api);
    }
    fn on_wake(&mut self, api: &mut NodeApi<'_>) {
        self.sock.handle_wake(api);
        for ev in self.sock.take_events() {
            if let ExsEvent::SendComplete { id, .. } = ev {
                self.free.push(self.slot_of.remove(&id).expect("send slot"));
                self.acked += 1;
            }
        }
        self.kick(api);
    }
    fn is_done(&self) -> bool {
        self.shutdown
    }
}

struct PropPoolServer {
    shards: Vec<Reactor>,
    placement: Placement,
    /// Global connection index → server-wide key: the owning shard and
    /// the slot in its reactor (a bare `ConnId` is only shard-local).
    handles: Vec<(u32, ConnId)>,
    /// Server-wide key → global connection index.
    idx_of: HashMap<(u32, ConnId), usize>,
    mrs: Vec<MrInfo>,
    recv_len: u32,
    expected: u64,
    received: Vec<u64>,
    eof: Vec<bool>,
    outstanding: Vec<bool>,
    seen_recv_ids: HashSet<u64>,
    posted_recvs: u64,
    completed_recvs: u64,
    seed: u64,
    next_id: u64,
    /// One readiness buffer per shard.
    ready: Vec<Vec<(ConnId, exs::Readiness)>>,
}

impl PropPoolServer {
    fn shard_rows(&self) -> Vec<ShardStats> {
        (self.shards.iter().enumerate())
            .map(|(s, r)| self.placement.row(s, r.stats()))
            .collect()
    }

    fn handle_conn(&mut self, api: &mut NodeApi<'_>, idx: usize) -> bool {
        let (shard, conn) = self.handles[idx];
        let events = self.shards[shard as usize].conn_mut(conn).take_events();
        let mut progressed = !events.is_empty();
        for ev in events {
            match ev {
                MuxEvent::RecvComplete { id, len, .. } => {
                    assert!(
                        self.seen_recv_ids.insert(id),
                        "receive {id} completed twice on conn {idx}"
                    );
                    assert!(self.outstanding[idx], "completion without a posted recv");
                    self.outstanding[idx] = false;
                    self.completed_recvs += 1;
                    if len > 0 {
                        let mr = self.mrs[idx];
                        let mut buf = vec![0u8; len as usize];
                        api.read_mr(mr.key, mr.addr, &mut buf).unwrap();
                        for (i, &b) in buf.iter().enumerate() {
                            assert_eq!(
                                b,
                                pattern(self.seed, idx, self.received[idx] + i as u64),
                                "conn {idx} (shard {shard}) out of order at {}",
                                self.received[idx] + i as u64
                            );
                        }
                        self.received[idx] += len as u64;
                    }
                }
                MuxEvent::StreamClosed { .. } => self.eof[idx] = true,
                MuxEvent::TransportError { .. } => panic!("conn {idx} broke"),
                MuxEvent::SendComplete { .. } => {}
            }
        }
        if !self.eof[idx] && !self.outstanding[idx] && self.received[idx] < self.expected {
            let mr = self.mrs[idx];
            let id = self.next_id;
            self.next_id += 1;
            self.shards[shard as usize]
                .conn_mut(conn)
                .recv(api, 0, &mr, 0, self.recv_len, false, id)
                .expect("receive on the socket's stream");
            self.outstanding[idx] = true;
            self.posted_recvs += 1;
            progressed = true;
        }
        progressed
    }

    fn service(&mut self, api: &mut NodeApi<'_>) {
        let mut ready = std::mem::take(&mut self.ready);
        loop {
            // Every shard is polled, in shard order, and then what is
            // ready is handled in that order.
            for (reactor, ready) in self.shards.iter_mut().zip(&mut ready) {
                reactor.poll_into(api, ready);
            }
            let mut progressed = false;
            for (s, ready) in ready.iter().enumerate() {
                for &(conn, r) in ready {
                    // Routing invariant: everything a poll reports must
                    // be a handle this server accepted, on the shard it
                    // was accepted on — a foreign or mis-sharded handle
                    // is a dispatch bug.
                    let h = (s as u32, conn);
                    let idx = *self
                        .idx_of
                        .get(&h)
                        .unwrap_or_else(|| panic!("poll reported unknown handle {h:?}"));
                    assert_eq!(self.handles[idx], h);
                    if r.readable || r.closed || r.error {
                        progressed |= self.handle_conn(api, idx);
                    }
                }
            }
            if !progressed && !self.shards.iter().any(Reactor::has_backlog) {
                break;
            }
        }
        self.ready = ready;
    }
}

impl NodeApp for PropPoolServer {
    fn on_start(&mut self, api: &mut NodeApi<'_>) {
        for idx in 0..self.handles.len() {
            self.handle_conn(api, idx);
        }
    }
    fn on_wake(&mut self, api: &mut NodeApi<'_>) {
        self.service(api);
    }
    fn is_done(&self) -> bool {
        self.eof.iter().all(|&e| e) && self.received.iter().all(|&r| r == self.expected)
    }
}

/// Runs one randomized fan-in through a sharded server; panics on any
/// invariant violation.
fn run_case(
    shards: usize,
    conns: usize,
    msgs: usize,
    msg_len: u64,
    recv_len: u32,
    outstanding: usize,
    seed: u64,
) {
    let profile = profiles::fdr_infiniband();
    let cfg = ExsConfig {
        ring_capacity: 4096,
        credits: 8,
        sq_depth: 8,
        ..ExsConfig::default()
    };
    let recv_len = recv_len.clamp(1, 2048);
    let expected = msgs as u64 * msg_len;

    let mut net = SimNet::new();
    net.set_host_seed(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let server_node = net.add_node(profile.host.clone(), profile.hca.clone());
    let client_nodes: Vec<NodeId> = (0..conns)
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

    let mut reactors: Vec<Reactor> = (0..shards)
        .map(|_| {
            let depth = cfg.cq_depth(conns);
            let (send_cq, recv_cq) = net.with_api(server_node, |api| {
                (api.create_cq(depth), api.create_cq(depth))
            });
            Reactor::new(send_cq, recv_cq, ReactorConfig::default())
        })
        .collect();
    let mut placement = Placement::new(shards);

    let mut clients = Vec::new();
    let mut mrs = Vec::new();
    let mut handles = Vec::new();
    let mut idx_of = HashMap::new();
    for (idx, &cnode) in client_nodes.iter().enumerate() {
        let shard = placement.pick();
        assert_eq!(shard as usize, idx % shards, "the rotation");
        let reactor = &mut reactors[shard as usize];
        let (send_cq, recv_cq) = (reactor.send_cq(), reactor.recv_cq());
        let (csock, ssock) =
            StreamSocket::pair_shared(&mut net, cnode, server_node, send_cq, recv_cq, &cfg);
        let handle = (shard, reactor.accept(ssock));
        assert!((shard as usize) < shards);
        handles.push(handle);
        idx_of.insert(handle, idx);
        let slots: Vec<MrInfo> = net.with_api(cnode, |api| {
            (0..outstanding)
                .map(|_| api.register_mr(msg_len as usize, Access::NONE))
                .collect()
        });
        let free = (0..slots.len()).collect();
        clients.push(PropClient {
            sock: csock,
            idx,
            slots,
            free,
            slot_of: HashMap::new(),
            sent: 0,
            acked: 0,
            pos: 0,
            shutdown: false,
            msgs,
            msg_len,
            seed,
        });
        mrs.push(net.with_api(server_node, |api| {
            api.register_mr(recv_len as usize, Access::local_remote_write())
        }));
    }

    let mut server = PropPoolServer {
        ready: vec![Vec::new(); shards],
        shards: reactors,
        placement,
        handles,
        idx_of,
        mrs,
        recv_len,
        expected,
        received: vec![0; conns],
        eof: vec![false; conns],
        outstanding: vec![false; conns],
        seen_recv_ids: HashSet::new(),
        posted_recvs: 0,
        completed_recvs: 0,
        seed,
        next_id: 0,
    };

    // Placement accounting before any traffic: assignments sum to the
    // accept count and live conns match.
    let stats = server.shard_rows();
    assert_eq!(stats.iter().map(|s| s.assigned).sum::<u64>(), conns as u64);
    assert_eq!(stats.iter().map(|s| s.conns).sum::<u64>(), conns as u64);
    for (s, row) in stats.iter().enumerate() {
        assert_eq!(row.shard_id as usize, s);
        assert_eq!(row.conns, server.shards[s].stats().live_conns());
    }

    let mut apps: Vec<&mut dyn NodeApp> = Vec::with_capacity(1 + conns);
    apps.push(&mut server);
    for c in clients.iter_mut() {
        apps.push(c);
    }
    let outcome = net.run(&mut apps, SimTime::from_secs(600));
    assert!(outcome.completed, "sharded workload stalled: {outcome:?}");

    // Nothing dropped, nothing duplicated: every posted receive
    // completed exactly once and every stream delivered in full (the
    // per-byte pattern asserts ordered delivery along the way).
    assert_eq!(server.posted_recvs, server.completed_recvs);
    assert_eq!(server.seen_recv_ids.len() as u64, server.completed_recvs);
    assert!(server.received.iter().all(|&r| r == expected));

    // Merged stats are the sum of the per-shard rows.
    let merged: ReactorStats = merged(server.shards.iter().map(Reactor::stats));
    assert_eq!(merged.orphan_cqes, 0);
    let rows = server.shard_rows();
    assert_eq!(
        merged.polls,
        rows.iter().map(|s| s.polls).sum::<u64>(),
        "merged polls must sum the shards"
    );
    assert_eq!(
        merged.cqes_dispatched,
        rows.iter().map(|s| s.cqes_dispatched).sum::<u64>(),
        "merged dispatch count must sum the shards"
    );
}

/// Shard counts 1–4, with the server of one — the single-reactor server,
/// which has no implementation of its own — weighted so that every run
/// samples it.
fn any_shards() -> impl Strategy<Value = usize> {
    prop_oneof![Just(1usize), 1usize..5]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// Random shard counts × conn counts × recv splits never reorder
    /// or drop a byte.
    #[test]
    fn sharding_never_reorders_or_drops(
        shards in any_shards(),
        (conns, msgs, msg_len) in (2usize..6, 1usize..4, 1u64..4000),
        recv_len in 1u32..2048,
        outstanding in 1usize..3,
        seed in 0u64..10_000,
    ) {
        run_case(shards, conns, msgs, msg_len, recv_len, outstanding, seed);
    }
}
