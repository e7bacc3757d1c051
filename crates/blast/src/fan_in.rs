//! Fan-in workload: M client streams blast into **one** server node.
//!
//! Where [`crate::runner`] reproduces the paper's 1:1 blast tool, this
//! module measures the server-scalability question the reactor
//! subsystem exists for: how one node multiplexes hundreds or thousands
//! of EXS connections through a single [`Reactor`] over shared
//! completion queues, instead of polling per-connection CQs.
//!
//! One [`FanInSpec`] runs on either backend and yields one
//! [`FanInReport`]: [`run_fan_in`] on the deterministic simulator,
//! [`run_fan_in_threaded`] on real threads. The run reports aggregate
//! ingress throughput, the per-connection direct:indirect split, and
//! the reactor's event-loop counters (CQ drain batch sizes, fairness
//! deferrals). At [`VerifyLevel::Full`] per-connection delivery is
//! digested with FNV-1a in arrival order so the two backends running
//! the same spec can be compared byte-for-byte; at [`VerifyLevel::None`]
//! the harness counts bytes and touches no payload, so a timed run
//! measures the stack and not its own checking.

use std::collections::VecDeque;
use std::future::Future;
use std::ops::Range;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::ScopedJoinHandle;
use std::time::{Duration, Instant};

use std::cell::RefCell;
use std::rc::Rc;

use exs::threaded::connect_sockets_shared;
use exs::{
    connect_mux_pair, AioHandle, AioStats, AsyncStream, ConnId, ConnStats, DirectPolicy, Endpoint,
    Executor, ExsConfig, ExsError, MemPool, MemPoolConfig, MrLease, MuxEndpoint, MuxEvent,
    Placement, PoolStats, Reactor, ReactorConfig, ReactorStats, ShardPolicy, ShardStats,
    SimShardDriver, StreamSocket, ThreadPort, VerbsPort,
};
use rdma_verbs::{
    Access, CqId, FabricModel, FabricStats, HcaConfig, HwProfile, MrInfo, NodeApi, NodeApp, NodeId,
    SimNet, ThreadNet, ThreadNode,
};
use simnet::stats::merged;
use simnet::{IntMap, SimDuration, SimTime};

use crate::runner::VerifyLevel;

/// FNV-1a 64-bit offset basis (digest seed).
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `bytes` into an FNV-1a 64-bit digest.
pub fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// The byte every backend writes at stream `offset` of connection
/// `conn` for workload seed `seed` — shared so the `SimNet` and
/// `ThreadNet` runs produce comparable streams.
pub fn payload_byte(seed: u64, conn: usize, offset: u64) -> u8 {
    offset
        .wrapping_mul(31)
        .wrapping_add(conn as u64 * 7)
        .wrapping_add(seed) as u8
}

/// The digest a connection's full stream must hash to.
pub fn expected_digest(seed: u64, conn: usize, total: u64) -> u64 {
    let mut h = FNV_OFFSET;
    for off in 0..total {
        h = fnv1a(h, &[payload_byte(seed, conn, off)]);
    }
    h
}

/// An [`ExsConfig`] sized for many concurrent connections on one node:
/// the defaults (16 MiB ring, 1024 credits) are per-connection resource
/// budgets a thousand-way fan-in cannot afford. Adaptive direct-mode
/// re-entry is on — a sender with ≥ 4 KiB left pauses for the server's
/// pre-posted advert queue instead of paying the indirect memcpy.
pub fn fan_in_cfg() -> ExsConfig {
    ExsConfig {
        ring_capacity: 64 << 10,
        credits: 16,
        sq_depth: 16,
        direct: DirectPolicy {
            min_direct_size: 4 << 10,
            ..DirectPolicy::default()
        },
        ..ExsConfig::default()
    }
}

/// One fan-in experiment configuration, for either backend;
/// [`run_fan_in_threaded`] ignores the simulated hardware (`profile`,
/// `fabric`, `time_limit`), refuses `mux` and requires `aio`.
#[derive(Clone, Debug)]
pub struct FanInSpec {
    /// Hardware model for every node and link (simulator only).
    pub profile: HwProfile,
    /// Per-connection EXS configuration (see [`fan_in_cfg`]).
    pub cfg: ExsConfig,
    /// Reactor tunables (budget, drain batch).
    pub reactor: ReactorConfig,
    /// Concurrent connections into the server.
    pub conns: usize,
    /// Client nodes the connections are spread over (round-robin;
    /// clamped to `1..=conns`).
    pub client_nodes: usize,
    /// Messages each connection sends.
    pub msgs_per_conn: usize,
    /// Bytes per message.
    pub msg_len: u64,
    /// Simultaneously outstanding `exs_send`s per connection.
    pub outstanding_sends: usize,
    /// Posted receive length (0 ⇒ `msg_len`).
    pub recv_len: u32,
    /// Receive buffers each server connection keeps posted ahead of the
    /// data (clamped to ≥ 1). Depth > 1 is what keeps the Fig. 3 advert
    /// gate open: when a receive completes, the next buffers are already
    /// advertised, so the sender's next transfer decision sees a usable
    /// ADVERT instead of falling back to the intermediate ring.
    pub prepost_recvs: usize,
    /// Payload verification level. [`VerifyLevel::Full`]: clients fill
    /// every byte with [`payload_byte`], the server reads every
    /// delivered byte back, checks it and folds it into the stream's
    /// digest. [`VerifyLevel::None`]: no payload is generated, nothing
    /// is read back or digested — delivery is checked by byte count
    /// alone and [`FanInReport::digests`] is empty.
    pub verify: VerifyLevel,
    /// Source buffers through registered-memory pools: clients lease a
    /// send buffer per message from their node's pin-down cache (first
    /// uses register, later ones hit), and the server's receive buffers
    /// are pool leases. Off: every buffer is registered up front and
    /// held for the whole run. Delivered bytes are identical either
    /// way; only registration traffic and CPU cost differ.
    pub pooled: bool,
    /// Shared-transport mode: instead of one private QP per connection,
    /// every connection becomes a **stream** on a pooled-QP
    /// [`MuxEndpoint`] pair per client node (`cfg.mux.qp_pool_size` QPs
    /// each, stream ids in the WWI immediate). Delivered bytes and
    /// digests are identical to the QP-per-connection path; only the
    /// transport resource model changes. Ignores `pooled`. Simulator
    /// only: thread executors host sockets.
    pub mux: bool,
    /// Async server mode: instead of the callback `ReactorServer`
    /// loop, the server runs one async task per stream on one
    /// [`exs::aio`] executor per shard (a `recv_some` loop that counts,
    /// and when verifying checks and digests, exactly as the callback
    /// loop does). Delivered bytes and digests are identical to the
    /// callback path; only the consumption model changes. Ignores
    /// `pooled` on the server side (the executor's readahead buffers
    /// are always pool leases). Required on threads, where executors
    /// are the one serving front-end.
    pub aio: bool,
    /// Reactor shards at the server (0/1 ⇒ one reactor, the classic
    /// single-loop server). With N > 1 the server runs one [`Reactor`]
    /// per shard: each shard gets its own CQ pair, endpoints (a
    /// connection's socket; in `mux` mode a client node's whole pooled
    /// endpoint) are routed once at accept by the rotation, and the
    /// sim driver interleaves the shards deterministically — delivered
    /// bytes and digests are identical to the single-shard run.
    pub shards: usize,
    /// Placement policy for `shards > 1`: the rotation, the one policy.
    pub shard_policy: ShardPolicy,
    /// Workload seed: the payload pattern on both backends, and on the
    /// simulator the host jitter and link seeds.
    pub seed: u64,
    /// Bandwidth-contention model for the simulated fabric (simulator
    /// only).
    /// [`FabricModel::Fifo`] (default) gives every node pair a private
    /// serializing link — aggregate ingress can exceed the server NIC's
    /// line rate. [`FabricModel::FairShare`] makes concurrent flows
    /// split NIC/core capacity max-min fairly, capping the aggregate at
    /// the bottleneck and exposing incast contention.
    pub fabric: FabricModel,
    /// Abort threshold for the virtual clock (simulator only).
    pub time_limit: SimDuration,
}

impl FanInSpec {
    /// A spec with scale-friendly defaults for `conns` connections.
    pub fn new(profile: HwProfile, conns: usize) -> FanInSpec {
        FanInSpec {
            profile,
            cfg: fan_in_cfg(),
            reactor: ReactorConfig::default(),
            conns,
            client_nodes: conns.min(8),
            msgs_per_conn: 8,
            msg_len: 16 << 10,
            outstanding_sends: 2,
            recv_len: 0,
            prepost_recvs: 4,
            verify: VerifyLevel::None,
            pooled: false,
            mux: false,
            aio: false,
            shards: 1,
            shard_policy: ShardPolicy::RoundRobin,
            seed: 1,
            fabric: FabricModel::Fifo,
            time_limit: SimDuration::from_secs(600),
        }
    }

    fn effective_recv_len(&self) -> u32 {
        if self.recv_len != 0 {
            self.recv_len
        } else {
            self.msg_len.min(u32::MAX as u64) as u32
        }
    }

    fn effective_prepost(&self) -> usize {
        self.prepost_recvs.max(1)
    }

    fn effective_shards(&self) -> usize {
        self.shards.max(1)
    }

    /// Bytes each connection sends.
    fn stream_len(&self) -> u64 {
        self.msgs_per_conn as u64 * self.msg_len
    }
}

/// The result of one fan-in run.
#[derive(Clone, Debug, Default)]
pub struct FanInReport {
    /// Connections that ran.
    pub conns: usize,
    /// Total bytes delivered across all connections.
    pub bytes: u64,
    /// Virtual time from start to the last byte's delivery; zero on a
    /// thread run, which has no virtual clock.
    pub elapsed: SimDuration,
    /// Each connection's server-side protocol counters.
    pub per_conn: Vec<ConnStats>,
    /// FNV-1a digest of each connection's delivered stream, in delivery
    /// order. Empty at [`VerifyLevel::None`], which digests nothing.
    pub digests: Vec<u64>,
    /// Sum of the per-connection counters at the server (receiver
    /// side: copies out of the ring, receives completed, ADVERTs sent).
    pub aggregate: ConnStats,
    /// Sum of the per-connection counters at the clients (sender side:
    /// direct/indirect transfer split, resync attempts, ADVERTs
    /// consumed) — the half the server-side aggregate cannot see.
    pub aggregate_tx: ConnStats,
    /// The server reactor's event-loop counters.
    pub reactor: ReactorStats,
    /// Merged memory-pool counters (server + every client node) for a
    /// pooled run; `None` when the run registered buffers directly.
    pub pool: Option<PoolStats>,
    /// The configured per-link bandwidth (bps) — the server NIC's line
    /// rate, i.e. the physical ceiling on aggregate ingress. 0 on the
    /// ideal (unlimited) profile and on a thread run. Capacity context
    /// for the throughput number: without it an over-capacity result
    /// looks plausible.
    pub link_bandwidth_bps: u64,
    /// Fair-share fabric telemetry (per-flow achieved rates, re-speed
    /// counts, Jain fairness index); `None` on the FIFO model and on a
    /// thread run.
    pub fabric: Option<FabricStats>,
    /// Wall-clock time spent on connection establishment (QP creation,
    /// MR registration, parameter exchange) before the timed transfer —
    /// the setup-latency axis of the QP-per-stream vs pooled comparison.
    pub setup_wall: Duration,
    /// Wall-clock time of the transfer itself: `SimNet::run` on the
    /// simulator (the host's cost of the model); on threads, from
    /// starting the connections' threads until the last has read its
    /// peer's end of stream (the stack's real speed).
    pub transfer_wall: Duration,
    /// Server-side modeled pinned/context memory in mux mode, captured
    /// at full stream fan-out (every stream open, every pool transport
    /// established); `None` on the QP-per-connection path.
    pub mux_footprint: Option<u64>,
    /// The same memory model applied to a QP-per-stream baseline
    /// carrying this run's stream count; `None` outside mux mode.
    pub mux_baseline: Option<u64>,
    /// Async-executor counters (tasks, wakeups, polls, timers,
    /// cancellations) for an aio-mode run; `None` on the callback
    /// paths.
    pub aio: Option<AioStats>,
    /// Per-shard service-loop telemetry (placement, poll and
    /// dispatch volume). Present
    /// on every sharded-capable path — a single-shard run reports one
    /// entry, so reports across shard counts stay row-for-row
    /// comparable. `None` in mux mode: the rows count hosted endpoints,
    /// and a mux run hosts one per client node, not one per connection.
    pub shard_stats: Option<Vec<ShardStats>>,
    /// Per-shard async-executor counters for a sharded aio run.
    pub aio_per_shard: Option<Vec<AioStats>>,
    /// Simulator events processed; zero on a thread run.
    pub events: u64,
    /// `poll_cq` calls the client nodes executed on the simulator
    /// ([`rdma_verbs::HcaCore::polls_executed`]); zero on a thread run.
    /// A count of host work, not of the model's: a poll the model
    /// charged but the client skipped (a quiet link with empty CQs) is
    /// not in it.
    pub client_polls: u64,
}

impl FanInReport {
    /// Aggregate ingress throughput in Mbit/s of virtual time (0 on a
    /// thread run).
    pub fn throughput_mbps(&self) -> f64 {
        if self.elapsed.is_zero() {
            0.0
        } else {
            self.bytes as f64 * 8.0 / self.elapsed.as_secs_f64() / 1e6
        }
    }

    /// Aggregate ingress throughput in Mbit/s of [`FanInReport::transfer_wall`]:
    /// what a thread run moved per real second. On the simulator it is
    /// the model's host speed, not the fabric's.
    pub fn wall_mbps(&self) -> f64 {
        let secs = self.transfer_wall.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.bytes as f64 * 8.0 / secs / 1e6
        }
    }

    /// The checks every run must pass, whichever backend ran it — every
    /// stream delivered in full and sent in full, no completion
    /// unrouted, every aio task done — and the digests `delivered`
    /// folded.
    fn finish(mut self, delivered: Delivered) -> FanInReport {
        let per_stream = self.bytes / self.conns as u64;
        for (idx, &r) in delivered.received.iter().enumerate() {
            assert_eq!(r, per_stream, "stream {idx} delivered short");
        }
        assert_eq!(self.reactor.orphan_cqes, 0, "no completion went unrouted");
        let (rx, tx) = (self.aggregate.bytes_received, self.aggregate_tx.bytes_sent);
        assert_eq!(
            (rx, tx),
            (self.bytes, self.bytes),
            "every stream fully received and sent"
        );
        let tasks = self.aio.as_ref().map(|aio| aio.tasks_completed);
        assert!(
            tasks.is_none_or(|t| t == self.conns as u64),
            "an aio task did not finish"
        );
        self.digests = delivered.digests;
        self
    }

    /// Direct share of all transfers into the server. Transfer-mode
    /// counters live on the *sending* half, so this reads the
    /// client-side aggregate (the server-side block used to report a
    /// vacuous 0/0 here).
    pub fn direct_ratio(&self) -> f64 {
        self.aggregate_tx.direct_ratio()
    }

    /// Direct share of all bytes into the server (sender-side
    /// counters, like [`FanInReport::direct_ratio`]).
    pub fn direct_byte_ratio(&self) -> f64 {
        self.aggregate_tx.direct_byte_ratio()
    }

    /// Aggregate ingress throughput as a fraction of the bottleneck
    /// link's capacity. A value above ~1.0 is self-evidently bogus —
    /// more payload delivered per second than the server NIC can carry
    /// (the FIFO model produces exactly this at high fan-in). 0.0 when
    /// the profile's bandwidth is unlimited.
    pub fn offered_load_ratio(&self) -> f64 {
        if self.link_bandwidth_bps == 0 {
            0.0
        } else {
            self.throughput_mbps() * 1e6 / self.link_bandwidth_bps as f64
        }
    }

    /// Modeled pinned/context bytes per stream in mux mode (`None`
    /// elsewhere): the acceptance gate divides this against
    /// [`FanInReport::mux_baseline`]`/conns`.
    pub fn memory_per_stream(&self) -> Option<u64> {
        self.mux_footprint.map(|f| f / self.conns.max(1) as u64)
    }
}

/// What a range of the run's streams has delivered so far: byte
/// counts, and at [`VerifyLevel::Full`] the running FNV-1a digests.
/// Every server on either backend — the callback receive cycle and the
/// aio server tasks — accounts through here, so all of them verify and
/// digest identically. At [`VerifyLevel::None`] only
/// the counts exist: no payload byte is compared or folded and
/// `digests` stays empty.
struct Delivered {
    /// Global index of the first stream accounted here.
    first: usize,
    /// One running digest per stream; empty at [`VerifyLevel::None`].
    digests: Vec<u64>,
    received: Vec<u64>,
    seed: u64,
}

impl Delivered {
    fn new(spec: &FanInSpec, streams: Range<usize>) -> Delivered {
        let digested = match spec.verify {
            VerifyLevel::Full => streams.len(),
            VerifyLevel::None => 0,
        };
        Delivered {
            first: streams.start,
            digests: vec![FNV_OFFSET; digested],
            received: vec![0; streams.len()],
            seed: spec.seed,
        }
    }

    /// Bytes of stream `idx` accounted so far.
    fn received(&self, idx: usize) -> u64 {
        self.received[idx - self.first]
    }

    /// Takes over stream `idx` as `part` accounted it: how the parts a
    /// thread run's servers kept merge by connection index.
    fn take(&mut self, idx: usize, part: &Delivered) {
        self.received[idx - self.first] = part.received(idx);
        if let Some(digest) = self.digests.get_mut(idx - self.first) {
            *digest = part.digests[idx - part.first];
        }
    }

    /// True when delivered payload must be handed to
    /// [`Delivered::absorb`]; otherwise [`Delivered::count`] is enough.
    fn verifies(&self) -> bool {
        !self.digests.is_empty()
    }

    /// Accounts `len` more bytes of stream `idx` without looking at
    /// them.
    fn count(&mut self, idx: usize, len: u64) {
        self.received[idx - self.first] += len;
    }

    /// Accounts the next chunk of stream `idx`, in arrival order; when
    /// verifying, checks every byte against the pattern and folds it
    /// into the stream's digest. FNV-1a folds chunk by chunk into the
    /// same value however the stream is sliced.
    fn absorb(&mut self, idx: usize, bytes: &[u8]) {
        let at = self.received(idx);
        if let Some(digest) = self.digests.get_mut(idx - self.first) {
            for (i, &b) in bytes.iter().enumerate() {
                assert_eq!(
                    b,
                    payload_byte(self.seed, idx, at + i as u64),
                    "stream {idx} corrupted at offset {}",
                    at + i as u64
                );
            }
            *digest = fnv1a(*digest, bytes);
        }
        self.count(idx, bytes.len() as u64);
    }
}

/// Sets `table[row][col] = value` in a two-level index table, growing
/// it as needed (an entry never set reads `usize::MAX`).
fn place(table: &mut Vec<Vec<usize>>, row: usize, col: usize, value: usize) {
    if table.len() <= row {
        table.resize_with(row + 1, Vec::new);
    }
    let row = &mut table[row];
    if row.len() <= col {
        row.resize(col + 1, usize::MAX);
    }
    row[col] = value;
}

/// One outbound stream's send-slot cycle: up to `max_outstanding`
/// message buffers in flight, each reusable once its send completes.
struct SendCycle {
    /// Global connection index (pattern + digest identity).
    idx: usize,
    /// The endpoint in [`FanInClient::links`] carrying this stream, and
    /// the stream's id on it.
    link: usize,
    stream: u32,
    /// Up-front registered send slots (empty when pooled).
    slots: Vec<MrInfo>,
    free: Vec<usize>,
    slot_of: IntMap<u64, usize>,
    /// Outstanding-send cap (slot count when not pooled).
    max_outstanding: usize,
    /// Live send leases by operation id (pooled mode); dropping one on
    /// completion returns the buffer to the node's pin-down cache.
    leases: IntMap<u64, MrLease>,
    sent: usize,
    acked: usize,
    pos: u64,
    shutdown: bool,
}

impl SendCycle {
    /// Send `id` completed: its slot (or lease) is free for the next
    /// kick.
    fn on_send_complete(&mut self, id: u64) {
        if let Some(slot) = self.slot_of.remove(&id) {
            self.free.push(slot);
        }
        self.leases.remove(&id);
        self.acked += 1;
    }
}

/// One client node driving several outbound streams.
///
/// A wake walks the links in order. The model charges a poll of every
/// private CQ on every wake, but the host makes only the polls that can
/// find work: a link that ended its last turn quiet (the rule in
/// [`StreamSocket::handle_wake`]) and whose two CQs are still empty is
/// charged those two polls and skipped. That is exact: a socket's state
/// moves only on a completion or an application call, and this client
/// calls into link `li` only during `li`'s turn, so the skipped turn
/// would have polled two empty CQs and done nothing else.
struct FanInClient {
    /// What carries this node's streams to the server, each driven by
    /// its own `handle_wake`: one private-QP socket per stream with its
    /// own CQs (the conventional per-connection pattern the server-side
    /// reactor is measured against), or in mux mode a single pooled-QP
    /// endpoint carrying them all.
    links: Vec<Endpoint>,
    /// Per link, [`Endpoint::quiet_cqs`] as the link's last turn left
    /// it (`None` before its first wake).
    quiet: Vec<Option<(CqId, CqId)>>,
    conns: Vec<SendCycle>,
    /// Index in `conns`, by link and then by stream id.
    by_stream: Vec<Vec<usize>>,
    /// Reusable event buffer for the wake loop.
    events: Vec<MuxEvent>,
    msgs: usize,
    msg_len: u64,
    verify: VerifyLevel,
    /// This node's pin-down cache (pooled mode).
    pool: Option<MemPool>,
    seed: u64,
    scratch: Vec<u8>,
}

impl FanInClient {
    /// The node's one link in mux mode, for the set-up only a pooled
    /// endpoint has (opening stream ids, connecting pool transports).
    fn pooled_link(&mut self) -> &mut MuxEndpoint {
        self.links[0]
            .as_mux_mut()
            .expect("a mux-mode client's one link is a pooled endpoint")
    }

    fn kick(&mut self, api: &mut NodeApi<'_>, ci: usize) {
        let msgs = self.msgs;
        let msg_len = self.msg_len;
        let c = &mut self.conns[ci];
        let link = &mut self.links[c.link];
        while c.sent < msgs {
            let id = c.sent as u64;
            let mr = match &self.pool {
                Some(pool) => {
                    if c.leases.len() >= c.max_outstanding {
                        break;
                    }
                    let lease = pool.acquire(api, msg_len as usize, Access::NONE);
                    let info = *lease.info();
                    c.leases.insert(id, lease);
                    info
                }
                None => {
                    let Some(slot) = c.free.pop() else {
                        break;
                    };
                    c.slot_of.insert(id, slot);
                    c.slots[slot]
                }
            };
            if self.verify == VerifyLevel::Full {
                self.scratch.clear();
                self.scratch
                    .extend((0..msg_len).map(|i| payload_byte(self.seed, c.idx, c.pos + i)));
                api.write_mr(mr.key, mr.addr, &self.scratch).unwrap();
            }
            link.send(api, c.stream, &mr, 0, msg_len, id)
                .expect("send on an open stream");
            c.pos += msg_len;
            c.sent += 1;
        }
        if c.sent == msgs && c.acked == msgs && !c.shutdown {
            link.shutdown(api, c.stream);
            c.shutdown = true;
        }
    }
}

impl NodeApp for FanInClient {
    fn on_start(&mut self, api: &mut NodeApi<'_>) {
        self.quiet = vec![None; self.links.len()];
        for ci in 0..self.conns.len() {
            self.kick(api, ci);
        }
    }
    fn on_wake(&mut self, api: &mut NodeApi<'_>) {
        let mut events = std::mem::take(&mut self.events);
        let empty = |api: &NodeApi<'_>, cq| api.hca().cq(cq).expect("a link's CQ").is_empty();
        for li in 0..self.links.len() {
            if let Some((send_cq, recv_cq)) = self.quiet[li] {
                if empty(api, send_cq) && empty(api, recv_cq) {
                    api.charge_empty_polls(2);
                    continue;
                }
            }
            let link = &mut self.links[li];
            link.handle_wake(api);
            link.take_events_into(&mut events);
            for ev in &events {
                match *ev {
                    MuxEvent::SendComplete { stream, id, .. } => {
                        let ci = self.by_stream[li][stream as usize];
                        self.conns[ci].on_send_complete(id);
                    }
                    MuxEvent::TransportError { slot } => panic!(
                        "fan-in client link {li} transport slot {slot} failed: {:?}",
                        link.last_error()
                    ),
                    // The server's FIN answering ours; nothing left to do.
                    MuxEvent::StreamClosed { .. } | MuxEvent::RecvComplete { .. } => {}
                }
            }
            // A stream without a completion has no free slot to send
            // from: only the others can move, once per completion.
            for ev in events.drain(..) {
                if let MuxEvent::SendComplete { stream, .. } = ev {
                    self.kick(api, self.by_stream[li][stream as usize]);
                }
            }
            self.quiet[li] = self.links[li].quiet_cqs();
        }
        self.events = events;
    }
    fn is_done(&self) -> bool {
        self.conns.iter().all(|c| c.shutdown)
    }
}

/// The callback server's pre-posted receive cycle, for every stream it
/// carries: `prepost_recvs` buffers per stream, each re-posted as soon
/// as its completion is consumed.
struct RecvCycle {
    /// Per-stream pre-posted receive slots.
    mrs: Vec<Vec<MrInfo>>,
    /// Posted-but-uncompleted `(recv id, slot)` pairs per stream, in
    /// posting order — receives complete FIFO, so the front is always
    /// the completing slot.
    posted: Vec<VecDeque<(u64, usize)>>,
    /// Slot indices currently free to re-post, per stream.
    free: Vec<Vec<usize>>,
    recv_len: u32,
    /// Expected bytes per stream.
    expected: u64,
    eof: Vec<bool>,
    delivered: Delivered,
    next_id: u64,
    scratch: Vec<u8>,
}

impl RecvCycle {
    /// Receive `id` of stream `idx` completed with `len` bytes: account
    /// them (read back, checked and digested only when verifying), and
    /// free the slot.
    fn on_recv_complete(&mut self, api: &mut NodeApi<'_>, idx: usize, id: u64, len: u32) {
        let (pid, slot) = self.posted[idx]
            .pop_front()
            .expect("completion without a posted receive");
        assert_eq!(pid, id, "receives must complete in posting order");
        if !self.delivered.verifies() {
            self.delivered.count(idx, len as u64);
        } else if len > 0 {
            let mr = self.mrs[idx][slot];
            self.scratch.resize(len as usize, 0);
            api.read_mr(mr.key, mr.addr, &mut self.scratch).unwrap();
            self.delivered.absorb(idx, &self.scratch);
        }
        self.free[idx].push(slot);
    }

    /// The next buffer and receive id to post on stream `idx`, while it
    /// still owes bytes and has a free slot. Refilling to depth sends
    /// every freed slot straight back out, so the advert queue never
    /// drains below depth at the sender's next decision point. Receives
    /// left over at end-of-stream complete with zero bytes.
    fn next_post(&mut self, idx: usize) -> Option<(MrInfo, u64)> {
        if self.eof[idx] || self.delivered.received(idx) >= self.expected {
            return None;
        }
        let slot = self.free[idx].pop()?;
        let id = self.next_id;
        self.next_id += 1;
        self.posted[idx].push_back((id, slot));
        Some((self.mrs[idx][slot], id))
    }

    fn is_done(&self) -> bool {
        self.eof.iter().all(|&e| e) && self.delivered.received.iter().all(|&r| r == self.expected)
    }
}

/// One endpoint the server hosts and the connections it carries.
struct Host {
    /// The owning shard, and the endpoint's slot in its reactor.
    shard: u32,
    conn: ConnId,
    /// Stream `s` of this endpoint is global connection `first + s`: a
    /// socket's one stream (id 0) is its own connection, a pooled
    /// endpoint numbers its streams by global index (`first` = 0).
    first: usize,
    /// Global indices of the connections carried, ascending.
    carried: std::iter::StepBy<std::ops::Range<usize>>,
}

/// The callback server: everything it accepted — private-QP sockets,
/// or in mux mode one [`MuxEndpoint`] per client node — multiplexed
/// through one [`Reactor`] per shard (one shard ⇒ the classic single
/// reactor over shared CQs) and serviced to quiescence on each wake.
/// The shards are interleaved in shard order, so a sharded run is
/// exactly as deterministic as a single-loop run.
struct ReactorServer<'a> {
    shards: Vec<Reactor>,
    hosts: &'a [Host],
    /// Index in `hosts`, by shard and then by slot in the shard's
    /// reactor.
    host_of: Vec<Vec<usize>>,
    /// Close our unused sending half of a stream when the peer's half
    /// ends, so a pooled endpoint retires the stream's state
    /// ([`FanInSpec::mux`]); a private-QP socket's stays open.
    close_on_eof: bool,
    /// Reusable readiness (one buffer per shard) and event buffers for
    /// the service loop.
    ready: Vec<Vec<(ConnId, exs::Readiness)>>,
    events: Vec<MuxEvent>,
    cycle: RecvCycle,
    finished_at: Option<SimTime>,
}

impl ReactorServer<'_> {
    /// Consumes one hosted endpoint's events and refills the
    /// pre-posted receive queue of every stream it carries to full
    /// depth. Returns true if anything was consumed or posted
    /// (progress).
    fn handle_host(&mut self, api: &mut NodeApi<'_>, hi: usize) -> bool {
        let ReactorServer {
            shards,
            hosts,
            cycle,
            close_on_eof,
            events,
            ..
        } = self;
        let host = &hosts[hi];
        let ep = shards[host.shard as usize].conn_mut(host.conn);
        ep.take_events_into(events);
        let mut progressed = !events.is_empty();
        for ev in events.drain(..) {
            match ev {
                MuxEvent::RecvComplete { stream, id, len } => {
                    cycle.on_recv_complete(api, host.first + stream as usize, id, len)
                }
                MuxEvent::StreamClosed { stream } => {
                    cycle.eof[host.first + stream as usize] = true;
                    if *close_on_eof {
                        ep.shutdown(api, stream);
                    }
                }
                MuxEvent::TransportError { slot } => panic!(
                    "fan-in server endpoint {hi} transport slot {slot} failed: {:?}",
                    ep.last_error()
                ),
                MuxEvent::SendComplete { .. } => {}
            }
        }
        for idx in host.carried.clone() {
            while let Some((mr, id)) = cycle.next_post(idx) {
                let stream = (idx - host.first) as u32;
                ep.recv(api, stream, &mr, 0, cycle.recv_len, false, id)
                    .expect("receive on an open stream");
                progressed = true;
            }
        }
        progressed
    }

    /// Polls every shard until quiescent: nothing hosted made progress
    /// and no CQ/budget backlog remains on any shard. Bounded because
    /// each iteration consumes queued completions and each stream
    /// posts at most `prepost_recvs` receives per iteration.
    fn service(&mut self, api: &mut NodeApi<'_>) {
        let mut ready = std::mem::take(&mut self.ready);
        loop {
            // Service order is behaviour: every shard is polled, in
            // shard order, before anything ready is handled.
            for (reactor, ready) in self.shards.iter_mut().zip(&mut ready) {
                reactor.poll_into(api, ready);
            }
            let mut progressed = false;
            for (shard, ready) in ready.iter().enumerate() {
                for &(conn, r) in ready {
                    if r.readable || r.closed || r.error {
                        let hi = self.host_of[shard][conn.0 as usize];
                        progressed |= self.handle_host(api, hi);
                    }
                }
            }
            if self.finished_at.is_none() && self.cycle.is_done() {
                self.finished_at = Some(api.now());
            }
            if !progressed && !self.shards.iter().any(Reactor::has_backlog) {
                break;
            }
        }
        self.ready = ready;
    }
}

impl NodeApp for ReactorServer<'_> {
    fn on_start(&mut self, api: &mut NodeApi<'_>) {
        // Post the initial receives on every stream (none is "readable"
        // yet, so prime directly rather than via poll).
        for hi in 0..self.hosts.len() {
            self.handle_host(api, hi);
        }
    }
    fn on_wake(&mut self, api: &mut NodeApi<'_>) {
        self.service(api);
    }
    fn is_done(&self) -> bool {
        self.cycle.is_done()
    }
}

/// The aio-mode server node: a [`SimShardDriver`] pumping one async
/// executor per shard, one `recv_some` task per connection, plus a
/// completion-time probe ([`ReactorServer`] records `finished_at` the
/// same way, so the two modes' elapsed times are comparable).
struct AioServer {
    drv: SimShardDriver,
    /// Shared with the server tasks (single-threaded executors, so a
    /// plain `RefCell`).
    delivered: Rc<RefCell<Delivered>>,
    finished_at: Option<SimTime>,
}

impl AioServer {
    fn note(&mut self, api: &mut NodeApi<'_>) {
        if self.finished_at.is_none() && self.drv.is_done() {
            self.finished_at = Some(api.now());
        }
    }
}

impl NodeApp for AioServer {
    fn on_start(&mut self, api: &mut NodeApi<'_>) {
        self.drv.on_start(api);
        self.note(api);
    }
    fn on_wake(&mut self, api: &mut NodeApi<'_>) {
        self.drv.on_wake(api);
        self.note(api);
    }
    fn on_timer(&mut self, api: &mut NodeApi<'_>, token: u64) {
        self.drv.on_timer(api, token);
        self.note(api);
    }
    fn is_done(&self) -> bool {
        self.drv.is_done()
    }
}

/// The server front-end a run selected ([`FanInSpec::aio`]); both host
/// one [`Reactor`] per shard.
enum Server<'a> {
    Callback(Box<ReactorServer<'a>>),
    Aio(AioServer),
}

impl Server<'_> {
    fn app(&mut self) -> &mut dyn NodeApp {
        match self {
            Server::Callback(s) => s.as_mut(),
            Server::Aio(s) => s,
        }
    }

    fn finished_at(&self) -> Option<SimTime> {
        match self {
            Server::Callback(s) => s.finished_at,
            Server::Aio(s) => s.finished_at,
        }
    }

    fn with_shard<R>(&mut self, shard: u32, f: impl FnOnce(&mut Reactor) -> R) -> R {
        match self {
            Server::Callback(s) => f(&mut s.shards[shard as usize]),
            Server::Aio(s) => s.drv.executor(shard as usize).with_reactor(f),
        }
    }

    fn with_delivered<R>(&self, f: impl FnOnce(&Delivered) -> R) -> R {
        match self {
            Server::Callback(s) => f(&s.cycle.delivered),
            Server::Aio(s) => f(&s.delivered.borrow()),
        }
    }

    fn into_delivered(self) -> Delivered {
        match self {
            Server::Callback(s) => s.cycle.delivered,
            Server::Aio(s) => last_ref(s.delivered),
        }
    }
}

/// The accounting the aio server tasks shared, once they have all
/// completed and dropped their references.
fn last_ref(delivered: Rc<RefCell<Delivered>>) -> Delivered {
    Rc::try_unwrap(delivered)
        .ok()
        .expect("all tasks completed, so the harness holds the last ref")
        .into_inner()
}

/// The aio server's task for connection `idx`, spawned by both
/// backends: read the stream to its end in `recv_some` chunks, each
/// accounted through `delivered` (checked and digested when verifying),
/// then half-close ours if `shutdown_at_eof`.
async fn serve_stream(
    stream: AsyncStream,
    idx: usize,
    chunk: usize,
    delivered: Rc<RefCell<Delivered>>,
    shutdown_at_eof: bool,
) {
    loop {
        match stream.recv_some(chunk).await {
            Ok(bytes) => delivered.borrow_mut().absorb(idx, &bytes),
            Err(ExsError::Eof) => break,
            Err(e) => panic!("aio fan-in conn {idx} failed: {e}"),
        }
    }
    if shutdown_at_eof {
        stream.shutdown().await.expect("close our half at EOF");
    }
}

/// An aio server shard's staging pool, which carries its `streams`
/// streams' readahead leases for the whole run: budgeted for them up
/// front, so a 10k-way fan-in never churns the pin-down cache, and
/// registered now, during setup, through the uncharged path — the
/// callback server's up-front `register_mr` calls are setup-cost-free
/// by the same rule, and the timed window must compare consumption
/// models. Without this, conns × prepost pin-down misses (~35 µs each,
/// serialized on the server core at time zero) masquerade as an 8×
/// async slowdown on the simulator.
fn readahead_pool(spec: &FanInSpec, streams: usize, port: &mut impl VerbsPort) -> MemPool {
    let recv_len = spec.effective_recv_len();
    let prepost = spec.effective_prepost();
    let class = (recv_len as u64).next_power_of_two().max(4096);
    let pool = MemPool::new(MemPoolConfig {
        pinned_budget: (streams as u64 * prepost as u64 * class).max(spec.cfg.pool.pinned_budget),
        ..spec.cfg.pool.clone()
    });
    pool.prewarm(
        port,
        streams * prepost,
        recv_len as usize,
        Access::local_remote_write(),
    );
    pool
}

/// Runs one fan-in experiment on the simulated fabric: build the
/// topology, build the clients and connect every stream, stand up the
/// server front-end the spec selects, run, and assemble the report.
///
/// * Default: the callback `ReactorServer` over private-QP sockets.
/// * [`FanInSpec::aio`]: one async task per stream on one
///   [`exs::aio`] executor per shard. Clients are the same callback
///   `FanInClient`s, so any digest difference against the default is
///   attributable to the server's consumption model — and there must be
///   none.
/// * [`FanInSpec::mux`]: connection `idx` becomes stream `idx` on the
///   endpoint pair of client node `idx % client_nodes`; delivered bytes
///   and digests are comparable one-to-one with the QP-per-connection
///   path.
///
/// The three switches and `shards` combine freely: every front-end
/// serves `(hosted endpoint, stream id)` pairs and does not ask which
/// kind of endpoint it is.
///
/// # Panics
/// Panics on deadlock/timeout, payload corruption (with
/// [`VerifyLevel::Full`]), or any connection or transport error — all
/// protocol bugs.
pub fn run_fan_in(spec: &FanInSpec) -> FanInReport {
    assert!(spec.conns >= 1, "need at least one connection");
    let expected = spec.stream_len();
    let recv_len = spec.effective_recv_len();
    let prepost = spec.effective_prepost();
    let max_outstanding = spec.outstanding_sends.max(1);
    // Mux mode registers every buffer up front.
    let pooled = spec.pooled && !spec.mux;

    let mut net = SimNet::new();
    net.set_fabric(spec.fabric.clone());
    net.set_host_seed(
        spec.seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(3),
    );
    let server_node = net.add_node(spec.profile.host.clone(), spec.profile.hca.clone());
    let nclients = spec.client_nodes.clamp(1, spec.conns);
    let client_nodes: Vec<NodeId> = (0..nclients)
        .map(|_| net.add_node(spec.profile.host.clone(), spec.profile.hca.clone()))
        .collect();
    for (i, &c) in client_nodes.iter().enumerate() {
        net.connect_nodes(
            c,
            server_node,
            spec.profile.link.clone(),
            spec.seed.wrapping_add(i as u64),
        );
    }

    // One reactor per shard, each over its own CQ pair sized for every
    // stream's worst case — full size per shard: the rotation puts at
    // most a shard's share on it, but CQ overflow is fatal, so the depth
    // does not lean on the placement rule.
    let setup_start = std::time::Instant::now();
    let cq_depth = if spec.mux {
        nclients * MuxEndpoint::shared_cq_depth(&spec.cfg)
    } else {
        spec.cfg.cq_depth(spec.conns)
    };
    let mut shards: Vec<Reactor> = (0..spec.effective_shards())
        .map(|_| {
            let (send_cq, recv_cq) = net.with_api(server_node, |api| {
                (api.create_cq(cq_depth), api.create_cq(cq_depth))
            });
            Reactor::new(send_cq, recv_cq, spec.reactor)
        })
        .collect();
    // Placement happens once, before the endpoint exists: the choice
    // binds it to the shard's CQ pair.
    let mut placement = Placement::new(shards.len());
    let mut pick = |shards: &[Reactor]| {
        let shard = placement.pick();
        let reactor = &shards[shard as usize];
        (shard, reactor.send_cq(), reactor.recv_cq())
    };

    // One pool per node in pooled mode: each client node's connections
    // share a pin-down cache, as does the callback server behind the
    // reactor. (The aio server's executors always lease; see below.)
    let mut server_pools: Vec<MemPool> = Vec::new();
    if pooled && !spec.aio {
        server_pools.push(MemPool::new(spec.cfg.pool.clone()));
    }
    let mut clients: Vec<FanInClient> = client_nodes
        .iter()
        .map(|_| FanInClient {
            links: Vec::new(),
            quiet: Vec::new(),
            conns: Vec::new(),
            by_stream: Vec::new(),
            events: Vec::new(),
            msgs: spec.msgs_per_conn,
            msg_len: spec.msg_len,
            verify: spec.verify,
            pool: pooled.then(|| MemPool::new(spec.cfg.pool.clone())),
            seed: spec.seed,
            scratch: Vec::new(),
        })
        .collect();
    // Mux mode: one endpoint pair per client node, its server end placed
    // on a shard like any accepted endpoint and hosted once every stream
    // is open.
    let mut server_eps: Vec<(u32, MuxEndpoint)> = Vec::new();
    if spec.mux {
        for (c, &cnode) in clients.iter_mut().zip(&client_nodes) {
            c.links.push(MuxEndpoint::new(cnode, &spec.cfg).into());
            let (shard, send_cq, recv_cq) = pick(&shards);
            let mut ep = MuxEndpoint::new(server_node, &spec.cfg);
            ep.set_cqs(send_cq, recv_cq);
            server_eps.push((shard, ep));
        }
    }

    let mut hosts: Vec<Host> = Vec::new();
    let mut server_mrs: Vec<Vec<MrInfo>> = Vec::new();
    // Server-side receive leases: held for the whole run (the reactor
    // re-posts into the same buffer), released together at the end.
    let mut server_leases: Vec<MrLease> = Vec::new();
    for idx in 0..spec.conns {
        let ci = idx % nclients;
        let cnode = client_nodes[ci];
        let (link, stream) = if spec.mux {
            for ep in [clients[ci].pooled_link(), &mut server_eps[ci].1] {
                ep.open_stream(idx as u32).expect("stream id fits");
            }
            (0, idx as u32)
        } else {
            let (shard, send_cq, recv_cq) = pick(&shards);
            let (csock, ssock) = StreamSocket::pair_shared(
                &mut net,
                cnode,
                server_node,
                send_cq,
                recv_cq,
                &spec.cfg,
            );
            hosts.push(Host {
                shard,
                conn: shards[shard as usize].accept(ssock),
                first: idx,
                carried: (idx..idx + 1).step_by(1),
            });
            clients[ci].links.push(csock.into());
            (clients[ci].links.len() - 1, 0)
        };
        let slots: Vec<MrInfo> = if pooled {
            Vec::new()
        } else {
            net.with_api(cnode, |api| {
                (0..max_outstanding)
                    .map(|_| api.register_mr(spec.msg_len as usize, Access::NONE))
                    .collect()
            })
        };
        let nth = clients[ci].conns.len();
        place(&mut clients[ci].by_stream, link, stream as usize, nth);
        clients[ci].conns.push(SendCycle {
            idx,
            link,
            stream,
            free: (0..slots.len()).collect(),
            slots,
            slot_of: IntMap::default(),
            max_outstanding,
            leases: IntMap::default(),
            sent: 0,
            acked: 0,
            pos: 0,
            shutdown: false,
        });
        if !spec.aio {
            server_mrs.push(net.with_api(server_node, |api| {
                (0..prepost)
                    .map(|_| match server_pools.first() {
                        Some(pool) => {
                            let lease =
                                pool.acquire(api, recv_len as usize, Access::local_remote_write());
                            let info = *lease.info();
                            server_leases.push(lease);
                            info
                        }
                        None => api.register_mr(recv_len as usize, Access::local_remote_write()),
                    })
                    .collect()
            }));
        }
    }
    let mut mux_footprint = 0;
    for (ci, (shard, mut sep)) in server_eps.into_iter().enumerate() {
        connect_mux_pair(&mut net, clients[ci].pooled_link(), &mut sep);
        // Capture the memory model at full fan-out: every stream open,
        // every pool transport up (streams retire as they close).
        mux_footprint += sep.memory_footprint();
        hosts.push(Host {
            shard,
            conn: shards[shard as usize].accept(sep),
            first: 0,
            carried: (ci..spec.conns).step_by(nclients),
        });
    }

    let delivered = Delivered::new(spec, 0..spec.conns);
    let mut server = if spec.aio {
        let mut executors = Vec::with_capacity(shards.len());
        for (shard, reactor) in shards.into_iter().enumerate() {
            let streams: usize = hosts
                .iter()
                .filter(|h| h.shard as usize == shard)
                .map(|h| h.carried.len())
                .sum();
            let mpool = net.with_api(server_node, |api| readahead_pool(spec, streams, api));
            executors.push(Executor::with_pool(reactor, mpool.clone()));
            server_pools.push(mpool);
        }
        let delivered = Rc::new(RefCell::new(delivered));
        for host in &hosts {
            let handle = executors[host.shard as usize].handle();
            for idx in host.carried.clone() {
                let sid = (idx - host.first) as u32;
                let stream = handle.stream_of(host.conn, sid, recv_len, prepost);
                let task = serve_stream(
                    stream,
                    idx,
                    recv_len as usize,
                    Rc::clone(&delivered),
                    spec.mux,
                );
                handle.spawn(task);
            }
        }
        Server::Aio(AioServer {
            drv: SimShardDriver::new(executors),
            delivered,
            finished_at: None,
        })
    } else {
        let mut host_of = Vec::new();
        for (hi, h) in hosts.iter().enumerate() {
            place(&mut host_of, h.shard as usize, h.conn.0 as usize, hi);
        }
        Server::Callback(Box::new(ReactorServer {
            ready: vec![Vec::new(); shards.len()],
            shards,
            host_of,
            hosts: &hosts,
            close_on_eof: spec.mux,
            events: Vec::new(),
            cycle: RecvCycle {
                mrs: server_mrs,
                posted: (0..spec.conns).map(|_| VecDeque::new()).collect(),
                free: (0..spec.conns).map(|_| (0..prepost).collect()).collect(),
                recv_len,
                expected,
                eof: vec![false; spec.conns],
                delivered,
                next_id: 0,
                scratch: Vec::new(),
            },
            finished_at: None,
        }))
    };
    let setup_wall = setup_start.elapsed();

    let mut apps: Vec<&mut dyn NodeApp> = Vec::with_capacity(1 + nclients);
    apps.push(server.app());
    for c in clients.iter_mut() {
        apps.push(c);
    }
    let transfer_start = Instant::now();
    let outcome = net.run(&mut apps, SimTime::ZERO + spec.time_limit);
    let transfer_wall = transfer_start.elapsed();
    if !outcome.completed {
        let mut dump = String::new();
        for (hi, h) in hosts.iter().enumerate() {
            let summary = server.with_shard(h.shard, |r| {
                r.conn(h.conn).as_mux().map(MuxEndpoint::debug_summary)
            });
            if let Some(summary) = summary {
                dump.push_str(&format!("server ep {hi}:\n{summary}"));
            }
        }
        for (ci, c) in clients.iter().enumerate() {
            for ep in c.links.iter().filter_map(Endpoint::as_mux) {
                dump.push_str(&format!("client ep {ci}:\n{}", ep.debug_summary()));
            }
        }
        let (done, bytes) = server.with_delivered(|d| {
            (
                d.received.iter().filter(|&&r| r == expected).count(),
                d.received.iter().sum::<u64>(),
            )
        });
        panic!(
            "fan-in deadlocked or timed out: {done} of {} streams fully delivered, \
             {bytes} bytes received, ended {:?}\n{dump}",
            spec.conns, outcome.end,
        );
    }
    let end = server.finished_at().unwrap_or(outcome.end);
    let fabric_stats = net.fabric_stats();
    let client_polls = (client_nodes.iter())
        .map(|&cnode| net.with_api(cnode, |api| api.hca().polls_executed()))
        .sum();
    // One counter block per hosted endpoint, in accept order regardless
    // of which shard each landed on — reports across shard counts must
    // stay row-for-row comparable — with the shared CQs' pressure gauges
    // folded in (overflow here would mean the CQ sizing above was
    // wrong). That is one per connection in global index order, or in
    // mux mode one per client node: the pool aggregates its streams,
    // which is the point of the mode.
    let mut per_conn: Vec<ConnStats> = net.with_api(server_node, |api| {
        hosts
            .iter()
            .map(|h| {
                server.with_shard(h.shard, |r| {
                    let ep = r.conn_mut(h.conn);
                    ep.sync_cq_stats(api);
                    ep.stats().clone()
                })
            })
            .collect()
    });
    // The per-shard telemetry rows, and the event-loop and protocol
    // counters merged across shards.
    let mut shard_stats: Vec<ShardStats> = Vec::new();
    let mut per_shard: Vec<(ReactorStats, ConnStats)> = Vec::new();
    for s in 0..spec.effective_shards() {
        server.with_shard(s as u32, |r| {
            shard_stats.push(placement.row(s, r.stats()));
            per_shard.push((r.stats().clone(), r.aggregate_conn_stats()));
        });
    }
    let reactor_stats: ReactorStats = merged(per_shard.iter().map(|(reactor, _)| reactor));
    let mut aggregate: ConnStats = merged(per_shard.iter().map(|(_, conns)| conns));
    if let Some(fs) = &fabric_stats {
        // Annotate every snapshot with its carrying flow's telemetry
        // (connections round-robin over client nodes; the flow is the
        // client→server node pair).
        for (i, stats) in per_conn.iter_mut().enumerate() {
            let cnode = client_nodes[i % nclients];
            if let Some(flow) = fs
                .flows
                .iter()
                .find(|f| f.src == cnode.0 && f.dst == server_node.0)
            {
                stats.fabric_respeeds = flow.respeeds;
                stats.record_fabric_flow(flow.achieved_mbps());
            }
        }
        aggregate.fabric_respeeds = fs.respeeds;
        for flow in fs.flows.iter() {
            aggregate.record_fabric_flow(flow.achieved_mbps());
        }
    }
    let (aio, aio_per_shard) = match &server {
        Server::Aio(s) => (Some(s.drv.merged_stats()), Some(s.drv.per_shard_stats())),
        Server::Callback(_) => (None, None),
    };

    // Sender-side counters live at the clients — fold the CQ gauges in
    // and merge them so direct/indirect accounting is auditable end to
    // end (the server-side aggregate only ever sees the receive half).
    for (c, &cnode) in clients.iter_mut().zip(&client_nodes) {
        net.with_api(cnode, |api| {
            c.links.iter_mut().for_each(|l| l.sync_cq_stats(api))
        });
    }
    let aggregate_tx: ConnStats = merged(
        clients
            .iter()
            .flat_map(|c| &c.links)
            .map(|link| link.stats()),
    );

    let pool_stats = pooled.then(|| {
        let pools = server_pools
            .iter()
            .chain(clients.iter().flat_map(|c| &c.pool));
        merged(pools.map(MemPool::stats))
    });
    drop(server_leases);

    FanInReport {
        conns: spec.conns,
        bytes: expected * spec.conns as u64,
        elapsed: end.saturating_duration_since(SimTime::ZERO),
        per_conn,
        digests: Vec::new(),
        aggregate,
        aggregate_tx,
        reactor: reactor_stats,
        pool: pool_stats,
        link_bandwidth_bps: spec.profile.link.bandwidth_bps,
        fabric: fabric_stats,
        setup_wall,
        transfer_wall,
        mux_footprint: spec.mux.then_some(mux_footprint),
        mux_baseline: spec
            .mux
            .then(|| MuxEndpoint::baseline_footprint(&spec.cfg, spec.conns as u64)),
        aio,
        shard_stats: (!spec.mux).then_some(shard_stats),
        aio_per_shard,
        events: outcome.events,
        client_polls,
    }
    .finish(server.into_delivered())
}

/// Runs `spec` on the real-thread fabric (a [`ThreadNet`] node per
/// client node and one for the server, zero-delay links) with the
/// connections, payload, front-end and placement of [`run_fan_in`], and
/// returns the same report: one spec, one workload, both backends.
///
/// The spec must select [`FanInSpec::aio`]: each shard is an
/// [`Executor`] on a thread of its own running the simulator's server
/// task, and each client node's streams are tasks on one client
/// executor, so a run starts `shards + client_nodes` threads. Once every
/// executor has drained, each closes the endpoints it hosted and trims
/// its staging pool: the report's reactor counters show every
/// connection removed, and no node keeps a registration. A thread run
/// has no virtual time: `elapsed`, `events` and `link_bandwidth_bps`
/// are zero and `fabric` is `None`.
///
/// # Panics
/// Panics on a [`FanInSpec::mux`] spec or one without
/// [`FanInSpec::aio`], on payload corruption (with
/// [`VerifyLevel::Full`]), on any connection error, and on a
/// registration left on a node after the teardown.
pub fn run_fan_in_threaded(spec: &FanInSpec) -> FanInReport {
    assert!(
        !spec.mux,
        "FanInSpec::mux is simulator-only: thread executors host sockets"
    );
    assert!(
        spec.aio,
        "a thread run serves with executors: set FanInSpec::aio"
    );
    assert!(spec.conns >= 1, "need at least one connection");
    let mut net = ThreadNet::new();
    let server = net.add_node(HcaConfig::default());
    let clients: Vec<Arc<ThreadNode>> = (0..spec.client_nodes.clamp(1, spec.conns))
        .map(|_| net.add_node(HcaConfig::default()))
        .collect();
    for c in &clients {
        net.connect_nodes(c, &server, Duration::ZERO);
    }
    let (net, server) = (&Arc::new(net), &server);

    let setup_start = Instant::now();
    let reactor_on = |node: &ThreadNode, conns: usize, cfg: ReactorConfig| {
        let depth = spec.cfg.cq_depth(conns);
        let (send_cq, recv_cq) = node.with_hca(|h| (h.create_cq(depth), h.create_cq(depth)));
        Reactor::new(send_cq, recv_cq, cfg)
    };
    // Full-size CQs per shard: the rotation puts at most a shard's share
    // on it, but CQ overflow is fatal, so the depth does not lean on the
    // placement rule.
    let mut shards: Vec<Reactor> = (0..spec.effective_shards())
        .map(|_| reactor_on(server, spec.conns, spec.reactor))
        .collect();
    let per_client = spec.conns.div_ceil(clients.len());
    let mut senders: Vec<Reactor> = (clients.iter())
        .map(|c| reactor_on(c, per_client, ReactorConfig::default()))
        .collect();
    let mut placement = Placement::new(shards.len());
    let mut served: Vec<Vec<(ConnId, usize)>> = vec![Vec::new(); shards.len()];
    let mut sent: Vec<Vec<(ConnId, usize)>> = vec![Vec::new(); clients.len()];
    for idx in 0..spec.conns {
        let ci = idx % clients.len();
        let node = &clients[ci];
        let shard = placement.pick() as usize;
        let cqs = |r: &Reactor| Some((r.send_cq(), r.recv_cq()));
        let (csock, ssock) = connect_sockets_shared(
            node,
            server,
            &spec.cfg,
            cqs(&senders[ci]),
            cqs(&shards[shard]),
        );
        served[shard].push((shards[shard].accept(ssock), idx));
        sent[ci].push((senders[ci].accept(csock), idx));
    }
    let mut port = ThreadPort::new(net, server);
    let server_pools: Vec<MemPool> = (served.iter())
        .map(|conns| readahead_pool(spec, conns.len(), &mut port))
        .collect();
    let client_pools: Vec<MemPool> = (clients.iter())
        .map(|_| MemPool::new(spec.cfg.pool.clone()))
        .collect();
    let setup_wall = setup_start.elapsed();

    let transfer_start = Instant::now();
    let teardown = &Teardown::new(shards.len() + clients.len());
    let (runs, tx): (Vec<_>, Vec<_>) = std::thread::scope(|s| {
        let shard_threads: Vec<_> = (shards.into_iter().zip(served).zip(&server_pools))
            .map(|((reactor, conns), pool)| {
                let ex = (reactor, pool.clone());
                s.spawn(move || serve_shard(spec, (net, server), ex, conns, teardown))
            })
            .collect();
        let client_threads: Vec<_> = (senders.into_iter().zip(sent))
            .zip(clients.iter().zip(&client_pools))
            .map(|((reactor, conns), (node, pool))| {
                let ex = (reactor, pool.clone());
                s.spawn(move || send_from_node(spec, (net, node), ex, conns, teardown))
            })
            .collect();
        let tx: Vec<Drained> = client_threads.into_iter().map(joined).collect();
        let runs: Vec<(Drained, Delivered)> = shard_threads.into_iter().map(joined).collect();
        (runs, tx)
    });
    let drained = runs
        .iter()
        .map(|(run, _)| run.at)
        .chain(tx.iter().map(|run| run.at));
    let transfer_wall = drained.max().expect("a run has threads") - transfer_start;
    for node in clients.iter().chain([server]) {
        let kept = node.with_hca(|h| h.mem().len());
        assert!(kept == 0, "{:?} kept {kept} registrations", node.id());
    }

    let mut delivered = Delivered::new(spec, 0..spec.conns);
    let mut per_conn = vec![ConnStats::default(); spec.conns];
    for (run, part) in &runs {
        for (idx, stats) in &run.per_conn {
            delivered.take(*idx, part);
            per_conn[*idx] = stats.clone();
        }
    }
    let aio_per_shard: Vec<AioStats> = runs.iter().map(|(run, _)| run.aio.clone()).collect();
    let pools = server_pools.iter().chain(&client_pools);
    FanInReport {
        conns: spec.conns,
        bytes: spec.stream_len() * spec.conns as u64,
        per_conn,
        aggregate: merged(runs.iter().map(|(run, _)| &run.aggregate)),
        aggregate_tx: merged(tx.iter().map(|run| &run.aggregate)),
        reactor: merged(runs.iter().map(|(run, _)| &run.closed)),
        pool: spec.pooled.then(|| merged(pools.map(MemPool::stats))),
        setup_wall,
        transfer_wall,
        aio: Some(merged(&aio_per_shard)),
        shard_stats: Some(
            (runs.iter().enumerate())
                .map(|(s, (run, _))| placement.row(s, &run.hosting))
                .collect(),
        ),
        aio_per_shard: Some(aio_per_shard),
        ..FanInReport::default()
    }
    .finish(delivered)
}

/// A harness thread's result; its panic, a failed check, is the run's.
fn joined<T>(thread: ScopedJoinHandle<'_, T>) -> T {
    thread.join().expect("a fan-in thread failed a check")
}

/// Holds the executor threads of a thread run until every one of them
/// has drained, before any closes an endpoint: a close releases the
/// ring and control slots its peer may still write into.
struct Teardown {
    left: Mutex<usize>,
    all_in: Condvar,
}

impl Teardown {
    fn new(threads: usize) -> Teardown {
        Teardown {
            left: Mutex::new(threads),
            all_in: Condvar::new(),
        }
    }

    /// Waits until every thread has arrived.
    fn wait(&self) {
        // An `Arrival` only decrements the count, so no thread panics
        // holding it.
        let left = self.left.lock().expect("the count is never poisoned");
        let all_in = self.all_in.wait_while(left, |left| *left > 0);
        drop(all_in.expect("the count is never poisoned"));
    }
}

/// One thread's arrival at the [`Teardown`]. Dropping it counts the
/// thread in, on a panic too, so a failed thread fails the run instead
/// of holding the others for ever.
struct Arrival<'a>(&'a Teardown);

impl Drop for Arrival<'_> {
    fn drop(&mut self) {
        *self.0.left.lock().unwrap_or_else(|e| e.into_inner()) -= 1;
        self.0.all_in.notify_all();
    }
}

/// What an executor thread hands back once it has closed its endpoints.
struct Drained {
    /// When the executor drained: the end of its share of the transfer.
    at: Instant,
    /// `(connection index, counters)` in accept order, CQ gauges folded
    /// in.
    per_conn: Vec<(usize, ConnStats)>,
    /// The hosted endpoints' counters, summed.
    aggregate: ConnStats,
    /// The reactor's counters while it hosted the connections, and
    /// after it closed them.
    hosting: ReactorStats,
    closed: ReactorStats,
    aio: AioStats,
}

/// Runs an executor over `reactor` and `pool` on `node` on the calling
/// thread, with the task `task` builds for each `(conn, idx)` of
/// `conns`, until it is drained. Then, once every thread of the run has
/// drained too, closes each hosted endpoint and trims `pool`.
fn run_executor<F: Future<Output = ()> + 'static>(
    (net, node): (&ThreadNet, &Arc<ThreadNode>),
    (reactor, pool): (Reactor, MemPool),
    conns: &[(ConnId, usize)],
    teardown: &Teardown,
    task: impl Fn(&AioHandle, ConnId, usize) -> F,
) -> Drained {
    let arrival = Arrival(teardown);
    let mut ex = Executor::with_pool(reactor, pool.clone());
    let handle = ex.handle();
    for &(conn, idx) in conns {
        handle.spawn(task(&handle, conn, idx));
    }
    drop(handle);
    ex.run_threaded(net, node);
    let at = Instant::now();
    let (aggregate, hosting) = ex.with_reactor(|r| (r.aggregate_conn_stats(), r.stats().clone()));
    drop(arrival);
    teardown.wait();
    let mut port = ThreadPort::new(net, node);
    let (per_conn, closed) = ex.with_reactor(|r| {
        let per_conn = (conns.iter())
            .map(|&(conn, idx)| {
                let mut ep = r.remove(conn);
                ep.sync_cq_stats(&port);
                let stats = ep.stats().clone();
                ep.close(&mut port);
                (idx, stats)
            })
            .collect();
        (per_conn, r.stats().clone())
    });
    let aio = ex.stats();
    // The executor's readahead leases go back to the pool with it.
    drop(ex);
    pool.trim(&mut port);
    Drained {
        at,
        per_conn,
        aggregate,
        hosting,
        closed,
        aio,
    }
}

/// One aio server shard on its own thread: [`serve_stream`] for each
/// of its connections. Returns what it drained with, and what it
/// delivered.
fn serve_shard(
    spec: &FanInSpec,
    at: (&ThreadNet, &Arc<ThreadNode>),
    ex: (Reactor, MemPool),
    conns: Vec<(ConnId, usize)>,
    teardown: &Teardown,
) -> (Drained, Delivered) {
    let (chunk, depth) = (spec.effective_recv_len(), spec.effective_prepost());
    let delivered = Rc::new(RefCell::new(Delivered::new(spec, 0..spec.conns)));
    let run = run_executor(at, ex, &conns, teardown, |handle, conn, idx| {
        let stream = handle.stream_of(conn, 0, chunk, depth);
        serve_stream(stream, idx, chunk as usize, Rc::clone(&delivered), true)
    });
    (run, last_ref(delivered))
}

/// One client node's executor on its own thread: per connection, a task
/// that sends the messages one at a time, shuts down and reads the
/// server's end of stream.
fn send_from_node(
    spec: &FanInSpec,
    at: (&ThreadNet, &Arc<ThreadNode>),
    ex: (Reactor, MemPool),
    conns: Vec<(ConnId, usize)>,
    teardown: &Teardown,
) -> Drained {
    let (msgs, len, seed, verify) = (spec.msgs_per_conn, spec.msg_len, spec.seed, spec.verify);
    run_executor(at, ex, &conns, teardown, |handle, conn, idx| {
        // One small receive: the client reads only the end of stream.
        let stream = handle.stream_with(conn, 64, 1);
        async move {
            for pos in (0..msgs as u64).map(|m| m * len) {
                let data = match verify {
                    VerifyLevel::Full => {
                        (0..len).map(|i| payload_byte(seed, idx, pos + i)).collect()
                    }
                    VerifyLevel::None => vec![0; len as usize],
                };
                stream.send_all(data).await.expect("client send");
            }
            stream.shutdown().await.expect("client shutdown");
            let end = stream.recv_some(1).await;
            assert!(
                matches!(end, Err(ExsError::Eof)),
                "conn {idx}: got {end:?}, not the end of stream"
            );
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdma_verbs::profiles;

    fn small_spec(f: fn(&mut FanInSpec)) -> FanInSpec {
        let mut spec = FanInSpec {
            msgs_per_conn: 2,
            msg_len: 8 << 10,
            client_nodes: 2,
            ..FanInSpec::new(profiles::fdr_infiniband(), 4)
        };
        f(&mut spec);
        spec
    }

    /// Each kind of run reports the counter blocks it has and no
    /// others: a pool iff pooled, fabric telemetry iff fair share,
    /// executor counters iff aio, a memory model iff mux, shard rows
    /// iff not mux.
    #[test]
    fn each_kind_of_run_has_its_blocks() {
        let specs = [
            small_spec(|_| {}),
            small_spec(|s| s.mux = true),
            small_spec(|s| s.pooled = true),
            small_spec(|s| s.fabric = FabricModel::FairShare(simnet::FairShareConfig::new(1))),
            small_spec(|s| {
                s.aio = true;
                s.shards = 2;
            }),
        ];
        for spec in &specs {
            let r = run_fan_in(spec);
            let what = format!(
                "mux {} pooled {} aio {} fabric {:?}",
                spec.mux, spec.pooled, spec.aio, spec.fabric
            );
            let fair_share = matches!(spec.fabric, FabricModel::FairShare(_));
            assert_eq!(r.pool.is_some(), spec.pooled, "{what}");
            assert_eq!(r.fabric.is_some(), fair_share, "{what}");
            assert_eq!(r.aio.is_some(), spec.aio, "{what}");
            assert_eq!(r.mux_footprint.is_some(), spec.mux, "{what}");
            assert_eq!(r.mux_baseline.is_some(), spec.mux, "{what}");
            assert_eq!(r.shard_stats.is_some(), !spec.mux, "{what}");
        }
    }

    /// Transfer-mode counters live on the sending half: the server-side
    /// aggregate saw no transfer leave, so its split reads 0, while the
    /// client-side aggregate and the report's own ratios are defined. On
    /// the FIFO fabric no flow rate is sampled on either side.
    #[test]
    fn the_server_side_aggregate_has_no_transfer_split() {
        let report = run_fan_in(&small_spec(|_| {}));
        let (rx, tx) = (&report.aggregate, &report.aggregate_tx);
        assert_eq!(rx.total_transfers(), 0);
        assert_eq!((rx.direct_ratio(), rx.direct_byte_ratio()), (0.0, 0.0));
        assert!(tx.total_transfers() > 0);
        assert!(tx.direct_ratio() > 0.0 && tx.direct_byte_ratio() > 0.0);
        assert!(report.direct_ratio() > 0.0 && report.direct_byte_ratio() > 0.0);
        assert_eq!((rx.fabric_flow_samples, tx.fabric_flow_samples), (0, 0));
        for row in report.shard_stats.as_ref().expect("rows") {
            assert!(row.cqes_dispatched > 0);
        }
    }

    /// A thread run has no virtual time: its report is a simulator
    /// run's without elapsed time, events, client polls, link bandwidth
    /// and fabric telemetry, and with the same counter blocks. Both
    /// time the transfer on the wall clock.
    #[test]
    fn a_thread_report_is_the_sim_report_without_virtual_time() {
        let spec = FanInSpec {
            aio: true,
            verify: VerifyLevel::Full,
            ..small_spec(|_| {})
        };
        let thread = run_fan_in_threaded(&spec);
        let sim = run_fan_in(&spec);
        assert!(thread.elapsed.is_zero());
        let zeros = (
            thread.events,
            thread.client_polls,
            thread.link_bandwidth_bps,
        );
        assert_eq!(zeros, (0, 0, 0));
        assert_eq!(thread.throughput_mbps(), 0.0);
        assert!(thread.fabric.is_none() && sim.fabric.is_none());
        assert!(!sim.elapsed.is_zero() && sim.events > 0 && sim.client_polls > 0);
        assert!(!thread.transfer_wall.is_zero() && !sim.transfer_wall.is_zero());
        assert_eq!(thread.pool.is_some(), sim.pool.is_some());
        assert!(thread.aio.is_some() && sim.aio.is_some());
        let rows = |r: &FanInReport| r.shard_stats.as_ref().map(Vec::len);
        assert_eq!(rows(&thread), rows(&sim));
        assert!(thread.mux_footprint.is_none() && sim.mux_footprint.is_none());
        assert_eq!(thread.digests, sim.digests);
    }

    #[test]
    #[should_panic(expected = "FanInSpec::mux is simulator-only")]
    fn a_thread_run_refuses_a_mux_spec() {
        run_fan_in_threaded(&FanInSpec {
            mux: true,
            ..FanInSpec::new(profiles::fdr_infiniband(), 2)
        });
    }

    /// Executors are the one way a thread run serves: a spec for the
    /// callback server has no front-end there.
    #[test]
    #[should_panic(expected = "a thread run serves with executors")]
    fn a_thread_run_refuses_a_callback_spec() {
        run_fan_in_threaded(&FanInSpec::new(profiles::fdr_infiniband(), 2));
    }

    /// A client wake polls only the links with work: the CQ polls the
    /// client nodes execute per message stay a small constant from 64
    /// to 512 connections (before, every wake polled every private CQ:
    /// 31 per message at 64 connections, 172 at 512). The spec is the
    /// repo benchmark's `sim_fanin_reactor` with fewer messages.
    #[test]
    fn client_polls_per_message_do_not_grow_with_connections() {
        for conns in [64, 512] {
            let spec = FanInSpec {
                cfg: fan_in_cfg(),
                reactor: ReactorConfig {
                    cqe_budget: 64,
                    drain_batch: 4096,
                },
                client_nodes: 8,
                msgs_per_conn: 8,
                msg_len: 16 << 10,
                recv_len: 16 << 10,
                fabric: FabricModel::FairShare(simnet::FairShareConfig {
                    oversubscription: 1.0,
                    seed: 1,
                }),
                ..FanInSpec::new(profiles::fdr_infiniband(), conns)
            };
            let report = run_fan_in(&spec);
            let per_msg = report.client_polls as f64 / (conns * spec.msgs_per_conn) as f64;
            assert!(
                per_msg <= 8.0,
                "{conns} conns: {per_msg:.2} client polls per message"
            );
        }
    }

    #[test]
    fn digest_matches_expected_pattern() {
        let mut h = FNV_OFFSET;
        let bytes: Vec<u8> = (0..100).map(|i| payload_byte(7, 3, i)).collect();
        h = fnv1a(h, &bytes);
        assert_eq!(h, expected_digest(7, 3, 100));
        assert_ne!(h, expected_digest(7, 4, 100), "digests separate streams");
    }

    #[test]
    fn small_fan_in_runs_and_verifies() {
        let spec = FanInSpec {
            msgs_per_conn: 4,
            msg_len: 8 << 10,
            verify: VerifyLevel::Full,
            ..FanInSpec::new(profiles::fdr_infiniband(), 4)
        };
        let report = run_fan_in(&spec);
        assert_eq!(report.bytes, 4 * 4 * (8 << 10));
        assert!(report.throughput_mbps() > 0.0);
        assert_eq!(report.reactor.conns_added, 4);
        for (i, &d) in report.digests.iter().enumerate() {
            assert_eq!(d, expected_digest(spec.seed, i, 4 * (8 << 10)));
        }
        assert_eq!(report.per_conn.len(), 4);
    }

    #[test]
    fn digests_exist_only_when_verifying_on_every_front_end() {
        for (mux, aio) in [(false, false), (false, true), (true, false)] {
            let spec = |verify| FanInSpec {
                msgs_per_conn: 3,
                msg_len: 8 << 10,
                client_nodes: 2,
                verify,
                mux,
                aio,
                ..FanInSpec::new(profiles::fdr_infiniband(), 4)
            };
            let unchecked = run_fan_in(&spec(VerifyLevel::None));
            assert!(unchecked.digests.is_empty(), "mux {mux} aio {aio}");
            let checked = run_fan_in(&spec(VerifyLevel::Full));
            assert_eq!(checked.digests.len(), 4, "mux {mux} aio {aio}");
            for (i, &d) in checked.digests.iter().enumerate() {
                assert_eq!(
                    d,
                    expected_digest(1, i, 3 * (8 << 10)),
                    "mux {mux} aio {aio}"
                );
            }
            // Checking touches payload only: the model cannot tell.
            assert_eq!(unchecked.bytes, checked.bytes);
            assert_eq!(unchecked.elapsed, checked.elapsed);
            assert_eq!(unchecked.events, checked.events);
        }
    }

    #[test]
    fn mux_fan_in_matches_plain_digests_on_a_fraction_of_the_qps() {
        let base = FanInSpec {
            msgs_per_conn: 4,
            msg_len: 8 << 10,
            verify: VerifyLevel::Full,
            client_nodes: 2,
            ..FanInSpec::new(profiles::fdr_infiniband(), 6)
        };
        let mux_spec = FanInSpec {
            mux: true,
            ..base.clone()
        };
        let plain = run_fan_in(&base);
        let mux = run_fan_in(&mux_spec);
        // Stream identity: multiplexing changes the transport layer,
        // never the bytes a stream carries or their order.
        assert_eq!(plain.digests, mux.digests);
        assert_eq!(plain.bytes, mux.bytes);
        for (i, &d) in mux.digests.iter().enumerate() {
            assert_eq!(d, expected_digest(base.seed, i, 4 * (8 << 10)));
        }
        // One counter block per pooled endpoint, not per stream.
        assert_eq!(mux.per_conn.len(), 2);
        assert_eq!(mux.aggregate.mux_streams_peak, 3, "3 streams per pool");
        // 6 conns over 2 client nodes ride 2 pools of ≤ 4 QPs instead
        // of 6 private QPs, and the memory model must show the win.
        let footprint = mux.mux_footprint.expect("mux run models memory");
        let baseline = mux.mux_baseline.expect("mux run models baseline");
        assert!(
            footprint < baseline,
            "pooled transports must beat QP-per-conn: {footprint} vs {baseline}"
        );
    }

    #[test]
    fn aio_fan_in_matches_callback_digests() {
        let base = FanInSpec {
            msgs_per_conn: 4,
            msg_len: 8 << 10,
            verify: VerifyLevel::Full,
            client_nodes: 2,
            ..FanInSpec::new(profiles::fdr_infiniband(), 4)
        };
        let aio_spec = FanInSpec {
            aio: true,
            ..base.clone()
        };
        let plain = run_fan_in(&base);
        let aio = run_fan_in(&aio_spec);
        // Consumption-model identity: tasks awaiting `recv_some` must
        // deliver the same bytes in the same order as the callback
        // loop (FNV-1a folds chunk-by-chunk, so slicing can't hide).
        assert_eq!(plain.digests, aio.digests);
        assert_eq!(plain.bytes, aio.bytes);
        for (i, &d) in aio.digests.iter().enumerate() {
            assert_eq!(d, expected_digest(base.seed, i, 4 * (8 << 10)));
        }
        let stats = aio.aio.as_ref().expect("aio run reports executor stats");
        assert_eq!(stats.tasks_spawned, 4);
        assert_eq!(stats.tasks_completed, 4);
        assert!(stats.wakeups > 0, "recv completions must wake tasks");
    }

    #[test]
    fn pooled_fan_in_delivers_identical_bytes_and_hits_the_cache() {
        let base = FanInSpec {
            msgs_per_conn: 4,
            msg_len: 8 << 10,
            verify: VerifyLevel::Full,
            ..FanInSpec::new(profiles::fdr_infiniband(), 4)
        };
        let pooled_spec = FanInSpec {
            pooled: true,
            ..base.clone()
        };
        let plain = run_fan_in(&base);
        let pooled = run_fan_in(&pooled_spec);
        // Byte identity: pooling changes where buffers come from, never
        // what the streams carry.
        assert_eq!(plain.digests, pooled.digests);
        assert_eq!(plain.bytes, pooled.bytes);
        let pool = pooled
            .pool
            .clone()
            .expect("pooled run reports pool counters");
        // Each client's lease cycle: outstanding_sends buffers miss
        // once, every later message hits the pin-down cache. The server
        // holds conns × prepost_recvs receive leases for the whole run.
        assert!(pool.hits > 0, "no cache reuse: {pool:?}");
        let client_misses = 4 * base.outstanding_sends as u64;
        let server_leases = 4 * base.effective_prepost() as u64;
        assert!(
            pool.registrations <= client_misses + server_leases,
            "pool registered nearly per-message: {pool:?}"
        );
    }
}
