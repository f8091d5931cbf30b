//! Host channel adapters (NICs).
//!
//! Each node owns one NIC. A NIC charges a fixed injection overhead per
//! posted work request (doorbell, WQE processing) and then hands the
//! message to the inter-node link. Send and receive directions are
//! independent engines, so full-duplex traffic overlaps.

use crate::error::NetError;
use crate::link::{Link, LinkSpec};
use crate::topology::{RouteKey, RouteTiming, TopoNet};
use fusedpack_sim::{Duration, Time};
use fusedpack_telemetry::{Lane, Payload, Telemetry};

/// Identifies a node in the cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

/// One node's host channel adapter.
#[derive(Debug)]
pub struct Nic {
    /// Outbound wire (this node → fabric).
    tx: Link,
    /// Per-work-request injection overhead.
    injection: Duration,
    /// Effective bandwidth cap for GPUDirect transfers (NIC↔GPU path).
    gdr_bw_cap: f64,
    posted: u64,
    telemetry: Telemetry,
}

impl Nic {
    pub fn new(wire: LinkSpec, injection: Duration, gdr_bw_cap: f64) -> Self {
        Nic {
            tx: Link::new(wire),
            injection,
            gdr_bw_cap,
            posted: 0,
            telemetry: Telemetry::disabled(),
        }
    }

    /// Attach a telemetry recorder (tagged with the node's representative
    /// rank).
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// Post a send of host-resident data at `now`.
    /// Returns `(wire_start, delivered_at_peer)`.
    pub fn post_send(&mut self, now: Time, bytes: u64) -> (Time, Time) {
        self.posted += 1;
        let (start, delivered) = self.tx.transmit(now + self.injection, bytes);
        self.telemetry
            .instant(Lane::Nic, now, || Payload::RdmaPost { bytes, gdr: false });
        self.telemetry
            .span(Lane::Nic, start, delivered, || Payload::WireTransfer {
                bytes,
            });
        (start, delivered)
    }

    /// Post a send that sources GPU memory via GPUDirect RDMA: same wire,
    /// but bandwidth capped by the NIC↔GPU path (PCIe peer-to-peer on ABCI).
    pub fn post_send_gdr(&mut self, now: Time, bytes: u64) -> (Time, Time) {
        self.posted += 1;
        let (start, delivered) =
            self.tx
                .transmit_capped(now + self.injection, bytes, self.gdr_bw_cap);
        self.telemetry
            .instant(Lane::Nic, now, || Payload::RdmaPost { bytes, gdr: true });
        self.telemetry
            .span(Lane::Nic, start, delivered, || Payload::WireTransfer {
                bytes,
            });
        (start, delivered)
    }

    /// Post a send whose payload is dropped (or corrupted) on the wire:
    /// charges the injection overhead and full wire occupancy but delivers
    /// nothing. Returns `(wire_start, wire_clear)` — the retry protocol
    /// schedules the retransmission after its loss-detection timeout.
    pub fn post_send_wasted(&mut self, now: Time, bytes: u64, gdr: bool) -> (Time, Time) {
        self.posted += 1;
        let cap = gdr.then_some(self.gdr_bw_cap);
        let (start, wire_clear) = self.tx.transmit_wasted(now + self.injection, bytes, cap);
        self.telemetry
            .instant(Lane::Nic, now, || Payload::RdmaPost { bytes, gdr });
        self.telemetry
            .span(Lane::Nic, start, wire_clear, || Payload::WireTransfer {
                bytes,
            });
        (start, wire_clear)
    }

    /// Post a send that resolves a route through `net` instead of using
    /// this NIC's scalar wire: injection overhead and GPUDirect capping
    /// are charged exactly as in [`Nic::post_send`]/[`Nic::post_send_gdr`],
    /// but occupancy lands on every hop of the route. The work request is
    /// only counted as posted if the route resolves.
    pub fn post_send_routed(
        &mut self,
        net: &mut TopoNet,
        key: RouteKey,
        now: Time,
        bytes: u64,
        gdr: bool,
    ) -> Result<RouteTiming, NetError> {
        self.post_send_routed_keyed(net, key, now, bytes, gdr, 0)
    }

    /// [`Nic::post_send_routed`] carrying the transfer's canonical event
    /// key through to [`TopoNet::transmit_keyed`], so an armed fabric
    /// fault domain draws its per-hop decisions from coordinates that are
    /// invariant across event-loop shard counts.
    pub fn post_send_routed_keyed(
        &mut self,
        net: &mut TopoNet,
        key: RouteKey,
        now: Time,
        bytes: u64,
        gdr: bool,
        event_key: u64,
    ) -> Result<RouteTiming, NetError> {
        let cap = gdr.then_some(self.gdr_bw_cap);
        let timing = net.transmit_keyed(now + self.injection, key, bytes, cap, event_key)?;
        self.posted += 1;
        self.telemetry
            .instant(Lane::Nic, now, || Payload::RdmaPost { bytes, gdr });
        self.telemetry
            .span(Lane::Nic, timing.start, timing.delivered, || {
                Payload::WireTransfer { bytes }
            });
        Ok(timing)
    }

    /// Routed analogue of [`Nic::post_send_wasted`]: occupies every hop of
    /// the route with a payload that never delivers. Returns
    /// `(wire_start, last_hop_clear)`.
    pub fn post_send_routed_wasted(
        &mut self,
        net: &mut TopoNet,
        key: RouteKey,
        now: Time,
        bytes: u64,
        gdr: bool,
    ) -> Result<(Time, Time), NetError> {
        let cap = gdr.then_some(self.gdr_bw_cap);
        let (start, wire_clear) = net.transmit_wasted(now + self.injection, key, bytes, cap)?;
        self.posted += 1;
        self.telemetry
            .instant(Lane::Nic, now, || Payload::RdmaPost { bytes, gdr });
        self.telemetry
            .span(Lane::Nic, start, wire_clear, || Payload::WireTransfer {
                bytes,
            });
        Ok((start, wire_clear))
    }

    /// Injection overhead per work request.
    pub fn injection(&self) -> Duration {
        self.injection
    }

    /// Effective GPUDirect bandwidth.
    pub fn gdr_bw(&self) -> f64 {
        self.gdr_bw_cap.min(self.tx.spec().bw)
    }

    pub fn wire(&self) -> &LinkSpec {
        self.tx.spec()
    }

    pub fn posted(&self) -> u64 {
        self.posted
    }

    pub fn bytes_sent(&self) -> u64 {
        self.tx.bytes_carried()
    }

    /// Bytes that occupied the wire but were dropped before delivery.
    pub fn bytes_wasted(&self) -> u64 {
        self.tx.bytes_wasted()
    }

    pub fn reset(&mut self) {
        self.tx.reset();
        self.posted = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nic() -> Nic {
        Nic::new(LinkSpec::ib_edr_dual(), Duration::from_nanos(400), 21.0e9)
    }

    #[test]
    fn injection_overhead_delays_wire_start() {
        let mut n = nic();
        let (start, _) = n.post_send(Time(0), 1024);
        assert_eq!(start, Time(400));
    }

    #[test]
    fn gdr_send_is_slower_for_large_messages() {
        let mut a = nic();
        let mut b = nic();
        let (_, host) = a.post_send(Time(0), 64 << 20);
        let (_, gdr) = b.post_send_gdr(Time(0), 64 << 20);
        assert!(gdr > host);
    }

    #[test]
    fn sends_serialize_on_the_wire() {
        let mut n = nic();
        let (_, d1) = n.post_send(Time(0), 25_000_000); // 1ms serialization
        let (s2, _) = n.post_send(Time(0), 1024);
        assert!(
            s2 >= d1 - n.wire().latency,
            "second send queues behind first"
        );
        assert_eq!(n.posted(), 2);
        assert_eq!(n.bytes_sent(), 25_001_024);
    }

    #[test]
    fn wasted_post_charges_wire_but_counts_separately() {
        let mut n = nic();
        let (start, clear) = n.post_send_wasted(Time(0), 25_000_000, false);
        assert_eq!(start, Time(400));
        assert!(clear > start);
        // A real send afterwards queues behind the doomed occupancy.
        let (s2, _) = n.post_send(clear, 1024);
        assert!(s2 >= clear);
        assert_eq!(n.posted(), 2);
        assert_eq!(n.bytes_wasted(), 25_000_000);
    }

    #[test]
    fn routed_send_on_flat_topology_matches_scalar_send() {
        use crate::topology::{Endpoint, FlatLink, TopoNet};
        use std::sync::Arc;

        let mut scalar = nic();
        let (s_start, s_delivered) = scalar.post_send_gdr(Time(0), 1 << 20);

        let mut routed = nic();
        let mut net = TopoNet::new(Arc::new(FlatLink::new(
            LinkSpec::nvlink2_75(),
            LinkSpec::ib_edr_dual(),
            2,
            4,
        )));
        let key = (Endpoint::new(0, 0), Endpoint::new(1, 0));
        let t = routed
            .post_send_routed(&mut net, key, Time(0), 1 << 20, true)
            .unwrap();
        assert_eq!((t.start, t.delivered), (s_start, s_delivered));
        assert_eq!(routed.posted(), 1);

        // A failed resolution is a typed error and does not count a post.
        let bad = (Endpoint::new(9, 0), Endpoint::new(0, 0));
        assert!(routed
            .post_send_routed(&mut net, bad, Time(0), 1, false)
            .is_err());
        assert_eq!(routed.posted(), 1);
    }

    #[test]
    fn gdr_bw_reported_as_min_of_paths() {
        let n = nic();
        assert_eq!(n.gdr_bw(), 21.0e9);
        let wide = Nic::new(LinkSpec::ib_edr_dual(), Duration(1), 99.0e9);
        assert_eq!(wide.gdr_bw(), 25.0e9);
    }
}
