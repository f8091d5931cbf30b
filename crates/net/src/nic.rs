//! Host channel adapters (NICs).
//!
//! Each node owns one NIC. A NIC charges a fixed injection overhead per
//! posted work request (doorbell, WQE processing) and caps GPUDirect
//! transfers at the NIC↔GPU path's bandwidth; the payload then crosses
//! the route [`TopoNet`] resolves for it. Send and receive directions are
//! independent engines, so full-duplex traffic overlaps.

use crate::error::NetError;
use crate::link::LinkSpec;
use crate::topology::{Attempt, RouteKey, RouteTiming, TopoNet};
use fusedpack_sim::{Duration, Time};
use fusedpack_telemetry::{Lane, Payload, Telemetry};

/// Identifies a node in the cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

/// One node's host channel adapter.
#[derive(Debug)]
pub struct Nic {
    /// The wire this adapter drives (its bandwidth bounds GPUDirect).
    wire: LinkSpec,
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
            wire,
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

    /// Post a send through `net`: the injection overhead delays the
    /// head, GPUDirect sources (`gdr`) cap the stream at the NIC↔GPU
    /// path, and occupancy lands on every hop of `key`'s route. Each
    /// hop's span goes to `on_hop` (see [`TopoNet::transmit_with`]). The
    /// wire span ends at delivery, or at wire clear for a lost `attempt`,
    /// which delivers nothing. The work request is only counted as posted
    /// if the route resolves.
    #[allow(clippy::too_many_arguments)]
    pub fn post_send(
        &mut self,
        net: &mut TopoNet,
        key: RouteKey,
        now: Time,
        bytes: u64,
        gdr: bool,
        attempt: Attempt,
        on_hop: impl FnMut(u32, Time, Time),
    ) -> Result<RouteTiming, NetError> {
        let cap = gdr.then_some(self.gdr_bw_cap);
        let timing = net.transmit_with(now + self.injection, key, bytes, cap, attempt, on_hop)?;
        self.posted += 1;
        self.telemetry
            .instant(Lane::Nic, now, || Payload::RdmaPost { bytes, gdr });
        let end = if attempt == Attempt::Lost {
            timing.wire_clear()
        } else {
            timing.delivered
        };
        self.telemetry
            .span(Lane::Nic, timing.start, end, || Payload::WireTransfer {
                bytes,
            });
        Ok(timing)
    }

    /// Injection overhead per work request.
    pub fn injection(&self) -> Duration {
        self.injection
    }

    /// Effective GPUDirect bandwidth.
    pub fn gdr_bw(&self) -> f64 {
        self.gdr_bw_cap.min(self.wire.bw)
    }

    pub fn posted(&self) -> u64 {
        self.posted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::Link;
    use crate::topology::{Endpoint, FlatLink, TopoNet};
    use std::sync::Arc;

    fn nic() -> Nic {
        Nic::new(LinkSpec::ib_edr_dual(), Duration::from_nanos(400), 21.0e9)
    }

    fn flat_net() -> TopoNet {
        TopoNet::new(Arc::new(FlatLink::new(
            LinkSpec::nvlink2_75(),
            LinkSpec::ib_edr_dual(),
            2,
            4,
        )))
    }

    const KEY: RouteKey = (Endpoint { node: 0, gpu: 0 }, Endpoint { node: 1, gpu: 0 });

    fn send(n: &mut Nic, net: &mut TopoNet, now: Time, bytes: u64, gdr: bool) -> RouteTiming {
        n.post_send(
            net,
            KEY,
            now,
            bytes,
            gdr,
            Attempt::Delivered(0),
            |_, _, _| {},
        )
        .unwrap()
    }

    #[test]
    fn injection_delays_the_wire_and_gdr_caps_the_stream() {
        let mut n = nic();
        let mut net = flat_net();
        let t = send(&mut n, &mut net, Time(0), 1 << 20, true);
        // On the flat fabric a send is one α–β crossing of the node's
        // wire, started after the injection overhead.
        let (start, delivered) =
            Link::new(LinkSpec::ib_edr_dual()).transmit(Time(400), 1 << 20, 21.0e9, false);
        assert_eq!((t.start, t.delivered), (start, delivered));
        assert_eq!(t.tail_latency, LinkSpec::ib_edr_dual().latency);
        let host = send(&mut nic(), &mut flat_net(), Time(0), 64 << 20, false);
        let gdr = send(&mut nic(), &mut flat_net(), Time(0), 64 << 20, true);
        assert!(gdr.delivered > host.delivered);
    }

    #[test]
    fn sends_serialize_on_the_wire() {
        let mut n = nic();
        let mut net = flat_net();
        let first = send(&mut n, &mut net, Time(0), 25_000_000, false); // 1ms
        let second = send(&mut n, &mut net, Time(0), 1024, false);
        assert!(
            second.start >= first.delivered - first.tail_latency,
            "second send queues behind first"
        );
        assert_eq!(n.posted(), 2);
        let hop_bytes: u64 = net.hop_stats().iter().map(|h| h.bytes).sum();
        assert_eq!(hop_bytes, 25_001_024);
    }

    #[test]
    fn wasted_post_charges_wire_but_counts_separately() {
        let mut n = nic();
        let mut net = flat_net();
        let lost = n
            .post_send(
                &mut net,
                KEY,
                Time(0),
                25_000_000,
                false,
                Attempt::Lost,
                |_, _, _| {},
            )
            .unwrap();
        let (start, clear) = (lost.start, lost.wire_clear());
        assert_eq!(start, Time(400));
        assert!(clear > start);
        // A real send afterwards queues behind the doomed occupancy.
        let t = send(&mut n, &mut net, clear, 1024, false);
        assert!(t.start >= clear);
        assert_eq!(n.posted(), 2);
        let wasted: u64 = net.hop_stats().iter().map(|h| h.wasted).sum();
        assert_eq!(wasted, 25_000_000);
    }

    #[test]
    fn failed_resolution_is_typed_and_posts_nothing() {
        let mut n = nic();
        let mut net = flat_net();
        let bad = (Endpoint::new(9, 0), Endpoint::new(0, 0));
        assert!(n
            .post_send(
                &mut net,
                bad,
                Time(0),
                1,
                false,
                Attempt::Delivered(0),
                |_, _, _| {}
            )
            .is_err());
        assert_eq!(n.posted(), 0);
    }

    #[test]
    fn gdr_bw_reported_as_min_of_paths() {
        let n = nic();
        assert_eq!(n.gdr_bw(), 21.0e9);
        let wide = Nic::new(LinkSpec::ib_edr_dual(), Duration(1), 99.0e9);
        assert_eq!(wide.gdr_bw(), 25.0e9);
    }
}
