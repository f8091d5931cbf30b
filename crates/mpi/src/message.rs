//! Wire messages.
//!
//! Everything that crosses a link is a [`WireMsg`]: eager payloads,
//! rendezvous control packets (RTS/CTS), and RDMA payload deliveries.
//! Payloads carry real bytes in `DataMode::Full` runs so end-to-end
//! correctness is testable, held by the cluster's copy engine and named by
//! a [`PayloadHandle`]; in `ModelOnly` runs they are empty.

use crate::cluster::{PayloadHandle, RankId};
use crate::sendrecv::{RecvId, SendId};

/// Message kinds. `Eager` and `Rts` participate in tag matching; `Cts` and
/// `RdmaData` are addressed to an existing operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireKind {
    /// Small-message eager data: packed payload inline.
    Eager { send_id: SendId, packed_bytes: u64 },
    /// Rendezvous Request-To-Send. In the RPUT protocol the paper's design
    /// sends this *before* packing completes, overlapping the handshake
    /// with the packing kernel (§IV-B1). For intra-node peers under the
    /// fusion scheme, `ipc_origin` carries the sender's device address so
    /// the receiver can fuse a zero-copy DirectIPC request instead of
    /// answering with a CTS.
    Rts {
        send_id: SendId,
        packed_bytes: u64,
        ipc_origin: Option<u64>,
        /// RGET protocol: the data is already packed and the receiver
        /// should pull it with an RDMA READ (§IV-B1). Under RPUT this is
        /// false and the receiver answers with a CTS instead.
        rget: bool,
    },
    /// Clear-To-Send: the receiver's staging buffer is ready.
    Cts {
        send_id: SendId,
        recv_id: RecvId,
        staging_addr: u64,
        /// Staging is in host memory (hybrid CPU path / naive libraries).
        host_staging: bool,
    },
    /// RDMA WRITE payload landing in the receiver's staging buffer.
    RdmaData { send_id: SendId, recv_id: RecvId },
    /// RGET: the receiver's RDMA READ request arriving at the sender's
    /// NIC. Served by hardware — no sender CPU involvement.
    RdmaReadReq { send_id: SendId, recv_id: RecvId },
    /// Completion notification back to the sender: the receiver's fused
    /// DirectIPC kernel finished, or its RGET read drained the buffer.
    Fin { send_id: SendId },
}

/// A message in flight.
#[derive(Debug, PartialEq, Eq)]
pub struct WireMsg {
    pub src: RankId,
    pub dst: RankId,
    /// MPI tag; meaningful for `Eager` and `Rts` (matching), zero otherwise.
    pub tag: u32,
    pub kind: WireKind,
    /// The payload, held by the copy engine (empty in model-only mode and
    /// for control packets).
    pub payload: PayloadHandle,
}

impl WireMsg {
    /// Is this a message that participates in MPI tag matching?
    pub fn is_matchable(&self) -> bool {
        matches!(self.kind, WireKind::Eager { .. } | WireKind::Rts { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matchable_kinds() {
        let base = WireMsg {
            src: RankId(0),
            dst: RankId(1),
            tag: 3,
            kind: WireKind::Rts {
                send_id: SendId(0),
                packed_bytes: 128,
                ipc_origin: None,
                rget: false,
            },
            payload: PayloadHandle::default(),
        };
        assert!(base.is_matchable());
        let cts = WireMsg {
            kind: WireKind::Cts {
                send_id: SendId(0),
                recv_id: RecvId(0),
                staging_addr: 0,
                host_staging: false,
            },
            ..base
        };
        assert!(!cts.is_matchable());
    }
}
