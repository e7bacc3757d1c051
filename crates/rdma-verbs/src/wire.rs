//! Simulated wire messages.
//!
//! A [`WireMessage`] is the unit the fabric carries between HCAs: one RDMA
//! operation's worth of payload plus its routing and operation descriptor.
//! Packetization below this level is a timing concern handled by the link
//! model (`simnet::link`); reliable-connected channels deliver operations
//! in order, so simulating at operation granularity preserves every
//! ordering property the protocol layer can observe.

use bytes::Bytes;

use crate::mr::{DmaSource, MemoryTable};
use crate::types::{Access, MrKey, NodeId, QpNum, Result, Sge};

/// The operation carried by a wire message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireOp {
    /// Channel-semantics SEND (consumes a RECV at the destination).
    Send {
        /// Optional immediate data.
        imm: Option<u32>,
    },
    /// One-sided RDMA WRITE.
    Write {
        /// Destination virtual address.
        raddr: u64,
        /// Authorizing remote key.
        rkey: MrKey,
    },
    /// RDMA WRITE WITH IMM: placement plus notification (consumes a RECV).
    WriteImm {
        /// Destination virtual address.
        raddr: u64,
        /// Authorizing remote key.
        rkey: MrKey,
        /// Immediate data delivered with the notification.
        imm: u32,
    },
}

/// Where an in-flight message's payload bytes are.
///
/// A real HCA reads the source buffer as it transmits. The driver of
/// this model decides when that read happens, and this type carries the
/// decision: `SimNet` leaves registered-memory payloads as `Source` and
/// places them once, source region to destination region (by page
/// reference where the pages line up), when the message is delivered;
/// `ThreadNet` delivers under the destination
/// node's lock alone, where the source node's memory is out of reach,
/// so it turns every `Source` into `Owned` under the source node's lock
/// at post time ([`crate::hca::HcaCore::capture_payload`]).
#[derive(Clone, Debug)]
pub enum Payload {
    /// Bytes the message owns: inline data, or a payload captured at
    /// post time.
    Owned(Bytes),
    /// A range of the source node's registered memory, validated when
    /// the work request was posted and read when the message is
    /// delivered. Sound because the application may not touch or
    /// deregister a posted buffer before its completion, and the send
    /// completion is never delivered before the message is.
    Source(Sge),
}

impl Payload {
    /// Payload length in bytes.
    pub(crate) fn len(&self) -> usize {
        match self {
            Payload::Owned(bytes) => bytes.len(),
            Payload::Source(sge) => sge.len as usize,
        }
    }

    /// The payload as a placement's source, copying nothing: the
    /// message's own bytes, or a view of the range a `Source` names in
    /// `src_mem`, the source node's table — lent mutably, because the
    /// placement shares the pages it takes (see [`crate::mr`]). Fails if
    /// that range is no longer registered (the application broke the
    /// posted-buffer contract, or is tearing down after a QP error).
    pub(crate) fn resolve<'a>(&'a self, src_mem: &'a mut MemoryTable) -> Result<DmaSource<'a>> {
        match self {
            Payload::Owned(bytes) => Ok(DmaSource::Slice(bytes)),
            Payload::Source(sge) => src_mem
                .dma_view(sge.lkey, sge.addr, sge.len as u64, Access::NONE)
                .map(DmaSource::Region),
        }
    }
}

/// One operation in flight between two HCAs.
#[derive(Clone, Debug)]
pub struct WireMessage {
    /// Originating node and QP.
    pub(crate) src: (NodeId, QpNum),
    /// Destination node and QP.
    pub(crate) dst: (NodeId, QpNum),
    /// Operation descriptor.
    pub(crate) op: WireOp,
    /// Payload (empty for pure notifications).
    pub(crate) payload: Payload,
}

impl WireMessage {
    /// Payload length in bytes.
    pub(crate) fn payload_len(&self) -> u64 {
        self.payload.len() as u64
    }

    /// Destination node.
    pub(crate) fn dst_node(&self) -> NodeId {
        self.dst.0
    }

    /// Source node.
    pub(crate) fn src_node(&self) -> NodeId {
        self.src.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors() {
        let m = WireMessage {
            src: (NodeId(0), QpNum(1)),
            dst: (NodeId(1), QpNum(2)),
            op: WireOp::Send { imm: Some(5) },
            payload: Payload::Owned(Bytes::from_static(b"abc")),
        };
        assert_eq!(m.payload_len(), 3);
        assert_eq!(m.src_node(), NodeId(0));
        assert_eq!(m.dst_node(), NodeId(1));
        let described = Payload::Source(Sge::new(0x1000, 64, MrKey(1)));
        assert_eq!(described.len(), 64);
        assert_eq!(Payload::Owned(Bytes::new()).len(), 0);
    }
}
