//! Identifier newtypes, access flags, work-request descriptors, completion
//! entries, and the error type shared by all verbs objects.
//!
//! The shapes deliberately mirror the OFA verbs API that the UNH EXS
//! library was written against: work requests carry scatter/gather entries
//! expressed as `(virtual address, length, lkey)`, RDMA operations carry
//! `(remote address, rkey)`, and completions are reported as work
//! completions (`Cqe`) holding the work-request id, opcode, byte length
//! and optional immediate data.

use std::fmt;

use bytes::Bytes;

/// Identifies a simulated host (one HCA per node).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Index form for vectors keyed by node.
    #[inline]
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }
}

/// Queue pair number, unique per node.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct QpNum(pub u32);

/// Completion queue id, unique per node.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct CqId(pub u32);

/// Memory key. The simulator hands out a single key per region that acts
/// as both lkey and rkey, as Mellanox HCAs commonly do.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct MrKey(pub u32);

/// Application-chosen work-request identifier, returned in completions.
pub type WrId = u64;

/// Memory-region access permissions.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct Access(u8);

impl Access {
    /// Local read is always implied; this grants local write (needed for
    /// receive buffers).
    pub const LOCAL_WRITE: Access = Access(0b001);
    /// Remote peers may RDMA WRITE into the region.
    pub const REMOTE_WRITE: Access = Access(0b010);

    /// No remote access, no local write: a send-only source buffer.
    pub const NONE: Access = Access(0);

    /// Union of flags.
    #[inline]
    pub const fn union(self, other: Access) -> Access {
        Access(self.0 | other.0)
    }

    /// True if every flag in `flags` is present.
    #[inline]
    pub const fn contains(self, flags: Access) -> bool {
        self.0 & flags.0 == flags.0
    }

    /// The typical flags for an EXS buffer: locally writable and remotely
    /// writable (direct transfers land here).
    pub const fn local_remote_write() -> Access {
        Access(Self::LOCAL_WRITE.0 | Self::REMOTE_WRITE.0)
    }
}

impl std::ops::BitOr for Access {
    type Output = Access;
    fn bitor(self, rhs: Access) -> Access {
        self.union(rhs)
    }
}

/// One scatter/gather element: a span of registered local memory.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Sge {
    /// Virtual address inside a registered region.
    pub addr: u64,
    /// Length in bytes.
    pub len: u32,
    /// Local key of the registered region.
    pub lkey: MrKey,
}

impl Sge {
    /// Convenience constructor.
    pub fn new(addr: u64, len: u32, lkey: MrKey) -> Self {
        Sge { addr, len, lkey }
    }
}

/// Remote target of an RDMA operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RemoteAddr {
    /// Remote virtual address (as advertised by the peer).
    pub addr: u64,
    /// Remote key authorizing the access.
    pub rkey: MrKey,
}

/// Send-queue operation codes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SendOpcode {
    /// Channel-semantics SEND, consuming a posted RECV at the peer.
    Send,
    /// One-sided RDMA WRITE; the peer application is passive.
    RdmaWrite,
    /// RDMA WRITE WITH IMM ("WWI" in the paper): one-sided placement plus
    /// a notification consuming a posted RECV at the peer.
    RdmaWriteImm,
}

/// A send-queue work request.
#[derive(Clone, Debug)]
pub struct SendWr {
    /// Application identifier, echoed in the completion.
    pub(crate) wr_id: WrId,
    /// Operation.
    pub(crate) opcode: SendOpcode,
    /// Gather entry naming registered source memory (exclusive with
    /// `inline`).
    pub(crate) sge: Option<Sge>,
    /// Inline payload: data copied into the WQE at post time, so the
    /// source buffer is reusable immediately. Only for small messages
    /// (see `QpCaps::max_inline`); the EXS library uses this for ADVERTs
    /// and ACKs as the paper recommends (§II-A).
    pub(crate) inline: Option<Bytes>,
    /// Immediate data for `Send` (optional) and `RdmaWriteImm` (required).
    pub(crate) imm: Option<u32>,
    /// Remote target, required for RDMA operations.
    pub(crate) remote: Option<RemoteAddr>,
    /// Whether a send completion should be generated. Unsignaled sends
    /// complete silently (their buffers must be managed by a later
    /// signaled WQE, exactly as with real verbs).
    pub signaled: bool,
}

impl SendWr {
    /// A signaled SEND from registered memory.
    pub fn send(wr_id: WrId, sge: Sge) -> Self {
        SendWr {
            wr_id,
            opcode: SendOpcode::Send,
            sge: Some(sge),
            inline: None,
            imm: None,
            remote: None,
            signaled: true,
        }
    }

    /// A signaled SEND of inline data.
    pub fn send_inline(wr_id: WrId, data: impl Into<Bytes>) -> Self {
        SendWr {
            wr_id,
            opcode: SendOpcode::Send,
            sge: None,
            inline: Some(data.into()),
            imm: None,
            remote: None,
            signaled: true,
        }
    }

    /// A signaled RDMA WRITE from registered memory.
    pub fn write(wr_id: WrId, sge: Sge, remote: RemoteAddr) -> Self {
        SendWr {
            wr_id,
            opcode: SendOpcode::RdmaWrite,
            sge: Some(sge),
            inline: None,
            imm: None,
            remote: Some(remote),
            signaled: true,
        }
    }

    /// A signaled RDMA WRITE WITH IMM from registered memory.
    pub fn write_imm(wr_id: WrId, sge: Sge, remote: RemoteAddr, imm: u32) -> Self {
        SendWr {
            wr_id,
            opcode: SendOpcode::RdmaWriteImm,
            sge: Some(sge),
            inline: None,
            imm: Some(imm),
            remote: Some(remote),
            signaled: true,
        }
    }

    /// A signaled zero-length RDMA WRITE WITH IMM (pure notification).
    pub fn write_imm_empty(wr_id: WrId, remote: RemoteAddr, imm: u32) -> Self {
        SendWr {
            wr_id,
            opcode: SendOpcode::RdmaWriteImm,
            sge: None,
            inline: Some(Bytes::new()),
            imm: Some(imm),
            remote: Some(remote),
            signaled: true,
        }
    }

    /// Marks the request unsignaled (no send-side completion).
    pub fn unsignaled(mut self) -> Self {
        self.signaled = false;
        self
    }
}

/// A receive-queue work request.
#[derive(Clone, Copy, Debug)]
pub struct RecvWr {
    /// Application identifier, echoed in the completion.
    pub(crate) wr_id: WrId,
    /// Target registered memory. `None` posts a zero-length RECV that can
    /// only absorb pure notifications.
    pub(crate) sge: Option<Sge>,
}

impl RecvWr {
    /// A RECV into registered memory.
    pub fn new(wr_id: WrId, sge: Sge) -> Self {
        RecvWr {
            wr_id,
            sge: Some(sge),
        }
    }

    /// A zero-length RECV for immediate-only notifications.
    pub fn empty(wr_id: WrId) -> Self {
        RecvWr { wr_id, sge: None }
    }
}

/// Completion opcodes (work-completion side).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WcOpcode {
    /// A SEND finished locally.
    Send,
    /// An RDMA WRITE (with or without IMM) finished locally.
    RdmaWrite,
    /// A RECV was consumed by an incoming SEND.
    Recv,
    /// A RECV was consumed by an incoming RDMA WRITE WITH IMM.
    RecvRdmaWithImm,
}

/// Completion status.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WcStatus {
    /// The operation completed successfully.
    Success,
    /// The remote side rejected the access (bad rkey, bounds, permission).
    RemoteAccessError,
    /// Receiver-not-ready: the peer had no posted RECV. Real RC retries a
    /// configured number of times and then fails the QP; the simulator
    /// fails fast because the EXS credit protocol must prevent this
    /// entirely.
    RnrRetryExceeded,
    /// A local check failed while processing the WQE.
    LocalProtectionError,
    /// The WQE was flushed because the QP entered the error state.
    WrFlushError,
}

/// A work completion.
#[derive(Clone, Copy, Debug)]
pub struct Cqe {
    /// Work-request id from the originating WQE.
    pub wr_id: WrId,
    /// Completion status.
    pub status: WcStatus,
    /// What completed.
    pub opcode: WcOpcode,
    /// Bytes transferred (receive side: bytes placed).
    pub byte_len: u32,
    /// Immediate data, for `Recv`/`RecvRdmaWithImm`.
    pub imm: Option<u32>,
    /// The QP this completion belongs to.
    pub qpn: QpNum,
}

/// Errors returned synchronously by verbs calls.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum VerbsError {
    /// The QP number does not exist on this node.
    UnknownQp(QpNum),
    /// The CQ id does not exist on this node.
    UnknownCq(CqId),
    /// The memory key does not name a registered region.
    UnknownKey(MrKey),
    /// The QP is not in a state that allows the operation.
    InvalidQpState,
    /// The QP is not connected to a peer.
    NotConnected,
    /// An SGE points outside its registered region.
    OutOfBounds {
        /// Requested virtual address.
        addr: u64,
        /// Requested length.
        len: u64,
    },
    /// The region does not permit the requested access.
    AccessViolation,
    /// Inline data exceeds the QP's `max_inline`.
    InlineTooLarge {
        /// Requested inline size.
        len: usize,
        /// Allowed maximum.
        max: usize,
    },
    /// The send queue is full.
    SqFull,
    /// The receive queue is full.
    RqFull,
    /// Work request shape invalid for its opcode (e.g. RDMA without a
    /// remote address).
    MalformedWr(&'static str),
}

impl fmt::Display for VerbsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerbsError::UnknownQp(q) => write!(f, "unknown queue pair {q:?}"),
            VerbsError::UnknownCq(c) => write!(f, "unknown completion queue {c:?}"),
            VerbsError::UnknownKey(k) => write!(f, "unknown memory key {k:?}"),
            VerbsError::InvalidQpState => write!(f, "queue pair in wrong state"),
            VerbsError::NotConnected => write!(f, "queue pair not connected"),
            VerbsError::OutOfBounds { addr, len } => {
                write!(f, "memory access out of bounds: addr={addr:#x} len={len}")
            }
            VerbsError::AccessViolation => write!(f, "memory access violates permissions"),
            VerbsError::InlineTooLarge { len, max } => {
                write!(f, "inline data of {len} bytes exceeds max_inline {max}")
            }
            VerbsError::SqFull => write!(f, "send queue full"),
            VerbsError::RqFull => write!(f, "receive queue full"),
            VerbsError::MalformedWr(why) => write!(f, "malformed work request: {why}"),
        }
    }
}

impl std::error::Error for VerbsError {}

/// Result alias for verbs calls.
pub type Result<T> = std::result::Result<T, VerbsError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn access_flags_compose() {
        let a = Access::LOCAL_WRITE | Access::REMOTE_WRITE;
        assert!(a.contains(Access::LOCAL_WRITE));
        assert!(a.contains(Access::REMOTE_WRITE));
        assert_eq!(Access::local_remote_write(), a);
        assert!(a.contains(Access::NONE));
    }

    #[test]
    fn unsignaled_clears_flag() {
        let sge = Sge::new(0, 1, MrKey(0));
        let wr = SendWr::send(9, sge).unsignaled();
        assert!(!wr.signaled);
        assert_eq!(wr.wr_id, 9);
    }

    #[test]
    fn error_display_is_informative() {
        let e = VerbsError::OutOfBounds {
            addr: 0x10,
            len: 32,
        };
        let s = e.to_string();
        assert!(s.contains("0x10"));
        assert!(s.contains("32"));
        assert!(VerbsError::SqFull.to_string().contains("send queue"));
    }
}
