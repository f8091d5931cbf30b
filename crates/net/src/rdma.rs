//! RDMA verbs over the modelled fabric.
//!
//! The rendezvous protocols in `fusedpack-mpi` are built on one-sided
//! operations: **RPUT** uses `RDMA WRITE` from the sender after receiving a
//! CTS, **RGET** uses `RDMA READ` issued by the receiver after an RTS. Both
//! can source/target GPU memory directly (GPUDirect RDMA), in which case
//! the wire bandwidth is capped by the NIC↔GPU path.

use crate::error::NetError;
use crate::nic::Nic;
use crate::topology::{RouteKey, TopoNet};
use fusedpack_sim::Time;

/// Size of a control packet (RTS/CTS/FIN) on the wire.
pub const CTRL_BYTES: u64 = 64;

/// Which one-sided verb.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RdmaVerb {
    Write,
    Read,
}

/// Timing of one RDMA operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RdmaOp {
    /// When the verb was posted.
    pub posted: Time,
    /// When the payload has fully arrived at its destination memory.
    pub data_delivered: Time,
    /// When the initiator observes completion (CQE). For writes this is the
    /// remote ACK; for reads it coincides with data delivery.
    pub initiator_completion: Time,
}

/// Stateless RDMA engine: computes operation timings against the NICs'
/// FIFO state.
pub struct RdmaEngine;

impl RdmaEngine {
    /// `RDMA WRITE`: push `bytes` from the initiator's memory to the
    /// target's. Data flows over the initiator's NIC.
    pub fn write(initiator: &mut Nic, now: Time, bytes: u64, gdr: bool) -> RdmaOp {
        let (_, delivered) = if gdr {
            initiator.post_send_gdr(now, bytes)
        } else {
            initiator.post_send(now, bytes)
        };
        // Hardware ACK returns after one wire latency.
        let completion = delivered + initiator.wire().latency;
        RdmaOp {
            posted: now,
            data_delivered: delivered,
            initiator_completion: completion,
        }
    }

    /// `RDMA READ`: the initiator pulls `bytes` from the responder's
    /// memory. A request packet crosses the fabric first, then the payload
    /// flows over the *responder's* NIC.
    pub fn read(
        initiator: &mut Nic,
        responder: &mut Nic,
        now: Time,
        bytes: u64,
        gdr: bool,
    ) -> RdmaOp {
        let (_, request_arrived) = initiator.post_send(now, CTRL_BYTES);
        let (_, delivered) = if gdr {
            responder.post_send_gdr(request_arrived, bytes)
        } else {
            responder.post_send(request_arrived, bytes)
        };
        RdmaOp {
            posted: now,
            data_delivered: delivered,
            initiator_completion: delivered,
        }
    }

    /// `RDMA WRITE` over a routed topology: the payload crosses every hop
    /// of `key`'s route, and the hardware ACK returns after the final
    /// hop's latency.
    pub fn write_routed(
        initiator: &mut Nic,
        net: &mut TopoNet,
        key: RouteKey,
        now: Time,
        bytes: u64,
        gdr: bool,
    ) -> Result<RdmaOp, NetError> {
        let t = initiator.post_send_routed(net, key, now, bytes, gdr)?;
        Ok(RdmaOp {
            posted: now,
            data_delivered: t.delivered,
            initiator_completion: t.delivered + t.tail_latency,
        })
    }

    /// `RDMA READ` over a routed topology: the request packet crosses the
    /// route forward, the payload flows back over the reverse route
    /// through the responder's NIC.
    pub fn read_routed(
        initiator: &mut Nic,
        responder: &mut Nic,
        net: &mut TopoNet,
        key: RouteKey,
        now: Time,
        bytes: u64,
        gdr: bool,
    ) -> Result<RdmaOp, NetError> {
        let request = initiator.post_send_routed(net, key, now, CTRL_BYTES, false)?;
        let back = (key.1, key.0);
        let t = responder.post_send_routed(net, back, request.delivered, bytes, gdr)?;
        Ok(RdmaOp {
            posted: now,
            data_delivered: t.delivered,
            initiator_completion: t.delivered,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkSpec;
    use fusedpack_sim::Duration;

    fn nic() -> Nic {
        Nic::new(LinkSpec::ib_edr_dual(), Duration::from_nanos(400), 21.0e9)
    }

    #[test]
    fn write_completion_trails_delivery_by_ack() {
        let mut n = nic();
        let op = RdmaEngine::write(&mut n, Time(0), 1 << 20, true);
        assert_eq!(
            op.initiator_completion,
            op.data_delivered + n.wire().latency
        );
        assert!(op.data_delivered > op.posted);
    }

    #[test]
    fn read_pays_an_extra_round_trip() {
        let mut req_w = nic();
        let write = RdmaEngine::write(&mut req_w, Time(0), 1 << 20, true);

        let mut req_r = nic();
        let mut resp_r = nic();
        let read = RdmaEngine::read(&mut req_r, &mut resp_r, Time(0), 1 << 20, true);

        assert!(
            read.data_delivered > write.data_delivered,
            "READ {:?} must be slower than WRITE {:?} (request trip)",
            read.data_delivered,
            write.data_delivered
        );
    }

    #[test]
    fn gdr_read_capped_by_gpu_path() {
        let mut a1 = nic();
        let mut b1 = nic();
        let host = RdmaEngine::read(&mut a1, &mut b1, Time(0), 256 << 20, false);
        let mut a2 = nic();
        let mut b2 = nic();
        let gdr = RdmaEngine::read(&mut a2, &mut b2, Time(0), 256 << 20, true);
        assert!(gdr.data_delivered > host.data_delivered);
    }

    #[test]
    fn routed_verbs_mirror_scalar_semantics() {
        use crate::topology::{Endpoint, Hierarchy, TopoNet};
        use std::sync::Arc;

        let mut net = TopoNet::new(Arc::new(Hierarchy::lassen_like(32)));
        let key = (Endpoint::new(0, 0), Endpoint::new(31, 0));
        let mut a = nic();
        let mut b = nic();

        let write =
            RdmaEngine::write_routed(&mut a, &mut net, key, Time(0), 1 << 20, true).unwrap();
        assert!(write.initiator_completion > write.data_delivered);

        let read =
            RdmaEngine::read_routed(&mut a, &mut b, &mut net, key, Time(0), 1 << 20, true).unwrap();
        assert!(
            read.data_delivered > write.data_delivered,
            "READ pays the request trip and queues behind the write"
        );
        assert_eq!(read.initiator_completion, read.data_delivered);

        // Self-routes are typed errors, never panics.
        let self_key = (Endpoint::new(0, 0), Endpoint::new(0, 0));
        assert!(RdmaEngine::write_routed(&mut a, &mut net, self_key, Time(0), 1, false).is_err());
    }

    #[test]
    fn back_to_back_writes_share_the_wire() {
        let mut n = nic();
        let first = RdmaEngine::write(&mut n, Time(0), 25_000_000, false);
        let second = RdmaEngine::write(&mut n, Time(0), 25_000_000, false);
        assert!(second.data_delivered >= first.data_delivered);
        let gap = second.data_delivered - first.data_delivered;
        // Serialization of 25 MB at 25 GB/s = 1 ms.
        assert!((gap.as_millis_f64() - 1.0).abs() < 0.1, "gap {gap}");
    }
}
