//! Connection configuration.

use rdma_verbs::QpCaps;

use crate::mempool::MemPoolConfig;
use crate::messages::MAX_WWI_LEN;

/// Which transfer policy the connection uses (paper §IV-B).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProtocolMode {
    /// The paper's contribution: switch dynamically between direct and
    /// indirect transfers based on whether the sender or receiver is
    /// ahead.
    Dynamic,
    /// Baseline: the sender always waits for an ADVERT; the intermediate
    /// buffer is never used.
    DirectOnly,
    /// Baseline: the receiver never sends ADVERTs; every transfer goes
    /// through the intermediate buffer.
    IndirectOnly,
    /// Related-work baseline modelling rsockets' BCopy mode: "the
    /// rsend() and rrecv() calls are blocking and perform buffer copies
    /// on both the send and receive side on all transfers" (paper
    /// §II-A). Like [`ProtocolMode::IndirectOnly`] plus a send-side
    /// staging copy charged to the sender's CPU.
    BCopy,
}

impl ProtocolMode {
    /// Short label used in benchmark output.
    pub fn label(self) -> &'static str {
        match self {
            ProtocolMode::Dynamic => "dynamic",
            ProtocolMode::DirectOnly => "direct-only",
            ProtocolMode::IndirectOnly => "indirect-only",
            ProtocolMode::BCopy => "bcopy",
        }
    }

    /// True for modes that never use ADVERTs (all data goes through the
    /// intermediate buffer).
    pub fn buffered_only(self) -> bool {
        matches!(self, ProtocolMode::IndirectOnly | ProtocolMode::BCopy)
    }
}

/// How RDMA WRITE WITH IMM is realized on the wire.
///
/// WWI "exists in InfiniBand, RoCE, and newer versions of iWARP. The
/// operation can be simulated on older iWARP hardware by following an
/// RDMA WRITE with a small SEND" (paper §II-B).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WwiMode {
    /// Hardware RDMA WRITE WITH IMM (InfiniBand / RoCE / new iWARP).
    Native,
    /// Old-iWARP emulation: an unacknowledged-to-the-app RDMA WRITE
    /// followed by a small SEND carrying the notification. Costs one
    /// extra wire message and one extra completion per transfer.
    WritePlusSend,
}

/// Sender-side policy for *adaptive direct-mode re-entry*
/// (`ExsConfig::direct`).
///
/// Fig. 2's matching algorithm falls back to the intermediate buffer
/// whenever no usable ADVERT is queued — so a sender that streams
/// continuously never gives the Fig. 4–5 resynchronization a chance to
/// happen and every byte pays the indirect memcpy. This policy lets the
/// sender *pause* a large send instead of going indirect, betting one
/// round-trip that the receiver's pre-posted receive queue will deliver
/// a fresh ADVERT (see `DESIGN.md` §13). All fields default to the
/// conservative zero values; `min_direct_size == 0` disables the policy
/// entirely, which leaves the paper's Fig. 2 matching rule as it is.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DirectPolicy {
    /// Smallest send (remaining bytes) worth pausing for a resync
    /// round-trip. `0` disables adaptive re-entry entirely: the sender
    /// never waits for an ADVERT while the intermediate buffer has room
    /// (Fig. 2 as the paper states it, and the default).
    pub min_direct_size: u64,
    /// While in an indirect phase, pause only when at most this many
    /// un-ACKed bytes sit in the intermediate buffer — a deep backlog
    /// means the receiver is behind and the resync bet would stall the
    /// stream. `0` ⇒ the peer's ring capacity (backlog never vetoes the
    /// pause; the wait simply rides the drain).
    pub resync_backlog: u64,
    /// Consecutive failed waits (ring fully drained and ACKed, still no
    /// usable ADVERT) tolerated before the sender latches back to pure
    /// indirect sending until the next successful direct transfer —
    /// the hysteresis that keeps bursty small-message workloads from
    /// thrashing mode switches. `0` ⇒ 2.
    pub max_resync_rtts: u32,
}

impl DirectPolicy {
    /// True when adaptive re-entry is switched on.
    pub fn enabled(&self) -> bool {
        self.min_direct_size > 0
    }

    /// Effective backlog veto threshold for a peer ring of the given
    /// capacity (0 ⇒ the full capacity).
    pub fn effective_resync_backlog(&self, ring_capacity: u64) -> u64 {
        if self.resync_backlog == 0 {
            ring_capacity
        } else {
            self.resync_backlog
        }
    }

    /// Effective failed-wait budget (0 ⇒ 2).
    pub fn effective_max_resync_rtts(&self) -> u32 {
        if self.max_resync_rtts == 0 {
            2
        } else {
            self.max_resync_rtts
        }
    }
}

/// How stream ids map onto the QPs of a shared-transport pool (both
/// sides derive the slot purely from the id, so no coordination
/// message is needed). There is one rule; the type stays so configs
/// can name it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum MuxAssignment {
    /// `id % qp_pool_size` — even spread for sequentially allocated ids.
    #[default]
    RoundRobin,
}

impl MuxAssignment {
    /// The transport slot carrying the given stream.
    pub fn slot(self, stream: u32, pool: usize) -> usize {
        stream as usize % pool
    }
}

/// Shared-transport multiplexing tunables (`ExsConfig::mux`): many EXS
/// streams ride a small pool of QPs per peer-node pair instead of one
/// RC QP each — the escape from the classic RDMA scalability wall
/// (per-QP SQ/RQ rings, CQ slots and pinned buffers growing linearly
/// with stream count).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MuxConfig {
    /// Whether endpoints on this config multiplex streams over a shared
    /// pool (used by workloads that support both shapes).
    pub enabled: bool,
    /// QPs in the pool per peer-node pair (1..=8). Each is established
    /// lazily, when the first stream assigned to its slot appears.
    pub qp_pool_size: usize,
    /// Stream-to-QP assignment policy.
    pub assignment: MuxAssignment,
    /// Per-stream cap on un-ACKed indirect bytes in flight through the
    /// shared ring, so one firehose stream cannot starve its siblings.
    /// `0` ⇒ `max(ring_capacity / 16, 4096)`.
    pub stream_window: u64,
}

impl Default for MuxConfig {
    fn default() -> Self {
        MuxConfig {
            enabled: false,
            qp_pool_size: 4,
            assignment: MuxAssignment::RoundRobin,
            stream_window: 0,
        }
    }
}

impl MuxConfig {
    /// Effective per-stream indirect window for the given shared ring.
    pub fn effective_stream_window(&self, ring_capacity: u64) -> u64 {
        if self.stream_window == 0 {
            (ring_capacity / 16).max(4096).min(ring_capacity)
        } else {
            self.stream_window.min(ring_capacity)
        }
    }
}

/// How accepted connections (and mux endpoints) are assigned to the
/// shards of a sharded server ([`crate::shard::Placement`] applies it
/// on both backends). There is one rule; the type stays so configs can
/// name it.
///
/// Assignment happens exactly once, at accept time; per-connection
/// state then stays shard-local for the connection's whole life, so
/// the data path never takes a cross-shard lock.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ShardPolicy {
    /// Strict rotation over the shards — even spread for uniform
    /// workloads, and independent of load timing, so cross-backend runs
    /// place identically.
    #[default]
    RoundRobin,
}

/// Sharded-reactor tunables (`ExsConfig::shard`): how many independent
/// reactor shards a pool spreads its connections over. Each shard owns
/// its own CQ pair and (on the thread backend) its own service thread,
/// so aggregate throughput scales with cores instead of saturating one
/// service thread.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardConfig {
    /// Number of reactor shards. `0` or `1` ⇒ a single shard (the
    /// pre-sharding behaviour). Bounded by [`ShardConfig::MAX_SHARDS`].
    pub shards: usize,
    /// Connection-to-shard assignment: the rotation, the one policy.
    pub policy: ShardPolicy,
}

impl ShardConfig {
    /// Upper bound on the shard count — far above any sane core count,
    /// low enough to catch a garbage config before it allocates CQs.
    pub const MAX_SHARDS: usize = 256;

    /// Effective shard count (`0` ⇒ 1).
    pub fn effective_shards(&self) -> usize {
        self.shards.max(1)
    }
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig {
            shards: 1,
            policy: ShardPolicy::RoundRobin,
        }
    }
}

/// Tunables for one EXS connection.
#[derive(Clone, Debug)]
pub struct ExsConfig {
    /// Transfer policy.
    pub mode: ProtocolMode,
    /// WWI realization.
    pub wwi_mode: WwiMode,
    /// Intermediate (hidden) receive buffer capacity in bytes.
    pub ring_capacity: u64,
    /// Receive WQEs each side pre-posts; also the peer's send credit
    /// budget (paper §II-B).
    pub credits: u32,
    /// Bytes freed from the intermediate buffer before an ACK is sent
    /// (0 ⇒ `ring_capacity / 8`). The buffer-empty transition always
    /// ACKs.
    pub ack_threshold: u64,
    /// Re-posted receives accumulated before a standalone CREDIT message
    /// is sent (0 ⇒ `credits / 4`). Credit returns also piggyback on
    /// every ADVERT and ACK.
    pub credit_return_threshold: u32,
    /// Largest single WWI chunk. Large transfers are split into chunks of
    /// at most this size (and at ring wrap points for indirect
    /// transfers).
    pub max_wwi_chunk: u32,
    /// Send-queue depth for the underlying QP.
    pub sq_depth: usize,
    /// Largest postlist flushed in one doorbell. `1` disables transmit
    /// batching entirely (every WQE pays its own doorbell, every data
    /// WQE is signaled, no coalescing) — the pre-batching behaviour,
    /// kept as the bench baseline. `0` ⇒ default (min(sq_depth, 64)).
    pub tx_batch_limit: usize,
    /// Signal every Nth data WQE; the ones in between complete
    /// unsignaled and their SQ slots are reclaimed in a batch by the
    /// next signaled CQE. A signal is forced when the SQ nears full or
    /// a flush drains the TX queue, so the interval may safely exceed
    /// the SQ depth. `0` ⇒ default (min(sq_depth / 4, 16), at least 1).
    pub signal_interval: usize,
    /// Adjacent indirect (buffered) sends no larger than this are
    /// coalesced into one staged WWI until the staging run reaches
    /// `max_wwi_chunk`, the ring wraps, or the sender flushes. `0`
    /// disables coalescing; ignored when `tx_batch_limit` is 1.
    pub coalesce_threshold: u64,
    /// Registered-memory pool tunables (pinned-bytes budget, minimum
    /// slab class) for endpoints that stage user data through a
    /// [`crate::mempool::MemPool`] on this connection's node.
    pub pool: MemPoolConfig,
    /// Adaptive direct-mode re-entry policy for the sender half
    /// (disabled by default — see [`DirectPolicy`]).
    pub direct: DirectPolicy,
    /// Shared-transport multiplexing tunables (see [`MuxConfig`];
    /// disabled by default — every stream gets a private QP).
    pub mux: MuxConfig,
    /// Sharded-reactor tunables (see [`ShardConfig`]; a single shard by
    /// default — the pre-sharding behaviour).
    pub shard: ShardConfig,
}

impl Default for ExsConfig {
    fn default() -> Self {
        ExsConfig {
            mode: ProtocolMode::Dynamic,
            wwi_mode: WwiMode::Native,
            ring_capacity: 16 << 20,
            credits: 1024,
            ack_threshold: 0,
            credit_return_threshold: 0,
            max_wwi_chunk: MAX_WWI_LEN,
            sq_depth: 4096,
            tx_batch_limit: 0,
            signal_interval: 0,
            coalesce_threshold: 256,
            pool: MemPoolConfig::default(),
            direct: DirectPolicy::default(),
            mux: MuxConfig::default(),
            shard: ShardConfig::default(),
        }
    }
}

/// A configuration problem detected by [`ExsConfig::validate`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ConfigError {
    /// The intermediate buffer must hold at least one control slot's
    /// worth of data to make progress.
    RingTooSmall,
    /// At least four credits are needed: one reserved for CREDIT
    /// returns, plus working room for ADVERTs, ACKs and data.
    TooFewCredits,
    /// The send queue must admit at least two WQEs (data + control).
    SqTooShallow,
    /// max_wwi_chunk must be positive and encodable in the immediate.
    BadChunkLimit,
    /// The mux QP pool must hold between 1 and 8 QPs.
    BadMuxPool,
    /// Multiplexing needs native WRITE WITH IMM: the immediate carries
    /// the stream id, which the WritePlusSend emulation cannot also
    /// squeeze a length into.
    MuxNeedsNativeWwi,
    /// The shard count must stay within 0..=[`ShardConfig::MAX_SHARDS`].
    BadShardCount,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::RingTooSmall => write!(f, "ring_capacity below 64 bytes"),
            ConfigError::TooFewCredits => write!(f, "fewer than 4 credits"),
            ConfigError::SqTooShallow => write!(f, "sq_depth below 2"),
            ConfigError::BadChunkLimit => write!(f, "max_wwi_chunk out of range"),
            ConfigError::BadMuxPool => write!(f, "mux qp_pool_size outside 1..=8"),
            ConfigError::MuxNeedsNativeWwi => {
                write!(
                    f,
                    "mux requires WwiMode::Native (imm carries the stream id)"
                )
            }
            ConfigError::BadShardCount => {
                write!(f, "shard count above {}", ShardConfig::MAX_SHARDS)
            }
        }
    }
}

impl std::error::Error for ConfigError {}

impl ExsConfig {
    /// Checks the configuration for values that cannot make progress.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.ring_capacity < 64 {
            return Err(ConfigError::RingTooSmall);
        }
        if self.credits < 4 {
            return Err(ConfigError::TooFewCredits);
        }
        if self.sq_depth < 2 {
            return Err(ConfigError::SqTooShallow);
        }
        if self.max_wwi_chunk == 0 || self.max_wwi_chunk > MAX_WWI_LEN {
            return Err(ConfigError::BadChunkLimit);
        }
        if self.mux.enabled {
            if self.mux.qp_pool_size == 0 || self.mux.qp_pool_size > 8 {
                return Err(ConfigError::BadMuxPool);
            }
            if self.wwi_mode == WwiMode::WritePlusSend {
                return Err(ConfigError::MuxNeedsNativeWwi);
            }
        }
        if self.shard.shards > ShardConfig::MAX_SHARDS {
            return Err(ConfigError::BadShardCount);
        }
        Ok(())
    }

    /// A config with the given mode and defaults otherwise.
    pub fn with_mode(mode: ProtocolMode) -> Self {
        ExsConfig {
            mode,
            ..ExsConfig::default()
        }
    }

    /// Depth of a completion queue that `qps` QPs of this shape
    /// complete onto: room for `2 × sq_depth` send and `2 × credits`
    /// receive completions per QP. CQ overflow is fatal, so every CQ in
    /// the crate — a socket's private pair, a reactor shard's shared
    /// pair, a mux pool's pair — is sized by this one rule.
    pub fn cq_depth(&self, qps: usize) -> usize {
        qps * (self.sq_depth * 2 + self.credits as usize * 2)
    }

    /// Capabilities of every QP the crate creates under this config —
    /// a socket's private QP, a reactor connection's, a mux pool
    /// member's: the iWARP WWI emulation posts two WQEs per transfer,
    /// so the send queue reserves headroom beyond the pump's
    /// `sq_depth` gate; the receive queue holds the `credits`
    /// pre-posted control slots; control messages travel inline.
    pub fn qp_caps(&self) -> QpCaps {
        QpCaps {
            max_send_wr: self.sq_depth * 2 + 8,
            max_recv_wr: self.credits as usize + 8,
            max_inline: 256,
        }
    }

    /// Effective ACK threshold.
    pub fn effective_ack_threshold(&self) -> u64 {
        if self.ack_threshold == 0 {
            (self.ring_capacity / 8).max(1)
        } else {
            self.ack_threshold
        }
    }

    /// Effective credit-return threshold.
    pub fn effective_credit_threshold(&self) -> u32 {
        if self.credit_return_threshold == 0 {
            (self.credits / 4).max(1)
        } else {
            self.credit_return_threshold
        }
    }

    /// Effective postlist limit (0 ⇒ min(sq_depth, 64)).
    pub fn effective_tx_batch_limit(&self) -> usize {
        if self.tx_batch_limit == 0 {
            self.sq_depth.min(64)
        } else {
            self.tx_batch_limit
        }
    }

    /// Effective signaling interval (0 ⇒ min(sq_depth / 4, 16), at
    /// least 1). A limit-1 batch config also forces interval 1: without
    /// postlists there is no batch retirement to amortize, and the
    /// unbatched baseline should behave exactly like the pre-batching
    /// code.
    pub fn effective_signal_interval(&self) -> usize {
        if self.effective_tx_batch_limit() == 1 {
            return 1;
        }
        if self.signal_interval == 0 {
            (self.sq_depth / 4).clamp(1, 16)
        } else {
            self.signal_interval
        }
    }

    /// Effective coalescing threshold (bytes; 0 when batching is off).
    pub fn effective_coalesce_threshold(&self) -> u64 {
        if self.effective_tx_batch_limit() == 1 {
            0
        } else {
            self.coalesce_threshold
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = ExsConfig::default();
        assert_eq!(c.mode, ProtocolMode::Dynamic);
        assert!(c.ring_capacity >= 1 << 20);
        assert!(c.credits >= 64);
        assert_eq!(c.effective_ack_threshold(), c.ring_capacity / 8);
        assert_eq!(c.effective_credit_threshold(), c.credits / 4);
    }

    #[test]
    fn explicit_thresholds_override() {
        let c = ExsConfig {
            ack_threshold: 7,
            credit_return_threshold: 3,
            ..ExsConfig::default()
        };
        assert_eq!(c.effective_ack_threshold(), 7);
        assert_eq!(c.effective_credit_threshold(), 3);
    }

    #[test]
    fn validation_catches_degenerate_configs() {
        assert!(ExsConfig::default().validate().is_ok());
        let bad = ExsConfig {
            ring_capacity: 8,
            ..ExsConfig::default()
        };
        assert_eq!(bad.validate(), Err(ConfigError::RingTooSmall));
        let bad = ExsConfig {
            credits: 2,
            ..ExsConfig::default()
        };
        assert_eq!(bad.validate(), Err(ConfigError::TooFewCredits));
        let bad = ExsConfig {
            sq_depth: 1,
            ..ExsConfig::default()
        };
        assert_eq!(bad.validate(), Err(ConfigError::SqTooShallow));
        let bad = ExsConfig {
            max_wwi_chunk: 0,
            ..ExsConfig::default()
        };
        assert_eq!(bad.validate(), Err(ConfigError::BadChunkLimit));
    }

    #[test]
    fn tx_batching_defaults_and_unbatched_override() {
        let c = ExsConfig::default();
        assert_eq!(c.effective_tx_batch_limit(), 64);
        assert_eq!(c.effective_signal_interval(), 16);
        assert_eq!(c.effective_coalesce_threshold(), 256);

        // tx_batch_limit = 1 means "the old unbatched path": per-WQE
        // doorbells, per-WQE signaling, no coalescing.
        let unbatched = ExsConfig {
            tx_batch_limit: 1,
            signal_interval: 8,
            coalesce_threshold: 512,
            ..ExsConfig::default()
        };
        assert_eq!(unbatched.effective_tx_batch_limit(), 1);
        assert_eq!(unbatched.effective_signal_interval(), 1);
        assert_eq!(unbatched.effective_coalesce_threshold(), 0);

        let shallow = ExsConfig {
            sq_depth: 8,
            ..ExsConfig::default()
        };
        assert_eq!(shallow.effective_tx_batch_limit(), 8);
        assert_eq!(shallow.effective_signal_interval(), 2);
    }

    #[test]
    fn direct_policy_defaults_off_and_effective_values() {
        let c = ExsConfig::default();
        assert!(!c.direct.enabled(), "adaptive re-entry must default off");
        assert_eq!(c.direct, DirectPolicy::default());

        let p = DirectPolicy {
            min_direct_size: 4096,
            ..DirectPolicy::default()
        };
        assert!(p.enabled());
        assert_eq!(p.effective_resync_backlog(1 << 16), 1 << 16);
        assert_eq!(p.effective_max_resync_rtts(), 2);

        let p = DirectPolicy {
            min_direct_size: 4096,
            resync_backlog: 512,
            max_resync_rtts: 5,
        };
        assert_eq!(p.effective_resync_backlog(1 << 16), 512);
        assert_eq!(p.effective_max_resync_rtts(), 5);
    }

    #[test]
    fn mux_config_validation_and_assignment() {
        let c = ExsConfig::default();
        assert!(!c.mux.enabled, "mux must default off");
        assert_eq!(c.mux.qp_pool_size, 4);

        let bad = ExsConfig {
            mux: MuxConfig {
                enabled: true,
                qp_pool_size: 9,
                ..MuxConfig::default()
            },
            ..ExsConfig::default()
        };
        assert_eq!(bad.validate(), Err(ConfigError::BadMuxPool));
        let bad = ExsConfig {
            mux: MuxConfig {
                enabled: true,
                ..MuxConfig::default()
            },
            wwi_mode: WwiMode::WritePlusSend,
            ..ExsConfig::default()
        };
        assert_eq!(bad.validate(), Err(ConfigError::MuxNeedsNativeWwi));
        let good = ExsConfig {
            mux: MuxConfig {
                enabled: true,
                ..MuxConfig::default()
            },
            ..ExsConfig::default()
        };
        assert!(good.validate().is_ok());

        // The slot stays inside the pool and is derived purely from the
        // id (both ends agree with no coordination).
        for id in 0..1000u32 {
            assert_eq!(MuxAssignment::RoundRobin.slot(id, 4), id as usize % 4);
        }

        // Window default scales with the ring but never exceeds it.
        let m = MuxConfig::default();
        assert_eq!(m.effective_stream_window(16 << 20), 1 << 20);
        assert_eq!(m.effective_stream_window(1 << 10), 1 << 10);
        let m = MuxConfig {
            stream_window: 1 << 30,
            ..MuxConfig::default()
        };
        assert_eq!(m.effective_stream_window(1 << 16), 1 << 16);
    }

    #[test]
    fn shard_config_validation() {
        let c = ExsConfig::default();
        assert_eq!(c.shard.effective_shards(), 1, "sharding must default off");
        assert_eq!(c.shard.policy, ShardPolicy::RoundRobin);

        let zero = ShardConfig {
            shards: 0,
            ..ShardConfig::default()
        };
        assert_eq!(zero.effective_shards(), 1);

        let bad = ExsConfig {
            shard: ShardConfig {
                shards: ShardConfig::MAX_SHARDS + 1,
                ..ShardConfig::default()
            },
            ..ExsConfig::default()
        };
        assert_eq!(bad.validate(), Err(ConfigError::BadShardCount));
        let good = ExsConfig {
            shard: ShardConfig {
                shards: ShardConfig::MAX_SHARDS,
                ..ShardConfig::default()
            },
            ..ExsConfig::default()
        };
        assert!(good.validate().is_ok());
    }

    #[test]
    fn labels() {
        assert_eq!(ProtocolMode::Dynamic.label(), "dynamic");
        assert_eq!(ProtocolMode::DirectOnly.label(), "direct-only");
        assert_eq!(ProtocolMode::IndirectOnly.label(), "indirect-only");
    }
}
