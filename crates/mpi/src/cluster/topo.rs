//! The network path: every transfer resolves a route through the
//! cluster's [`TopoNet`] — [`FlatLink`] unless the builder attached
//! another topology — and occupies each hop on it.
//!
//! Intra-node transfers bypass the NIC (no injection, no GPUDirect cap,
//! completion coincides with delivery); inter-node transfers charge NIC
//! injection and complete one tail latency after delivery. A pair the
//! fabric has severed is forced over its pre-fault route by the network
//! itself (DESIGN.md §12, "Self-healing"); the cluster counts the forced
//! delivery. Route errors are impossible for endpoints validated at build
//! time, so one is a bug and panics with the pair and the typed error.
//!
//! [`FlatLink`]: fusedpack_net::FlatLink

use super::Cluster;
use fusedpack_net::topology::{FabricEvent, RouteKey};
use fusedpack_net::{Attempt, HopStats, NetError, RouteTiming, TopoNet};
use fusedpack_sim::{FaultSite, Time};
use fusedpack_telemetry::{Lane, Payload, Telemetry};

impl Cluster {
    pub(super) fn route_key(&self, src: usize, dst: usize) -> RouteKey {
        (self.endpoints[src], self.endpoints[dst])
    }

    /// Transport `bytes` from rank `src` to rank `dst`. Returns the route
    /// timing and the initiator's completion time. `gdr` caps inter-node
    /// bandwidth by the NIC↔GPU path; intra-node transfers ride the
    /// GPU↔GPU hop. A delivered `attempt` carries the transfer's canonical
    /// event key — the coordinate an armed fabric fault domain keys its
    /// per-hop draws by; a lost one occupies every hop of the route and
    /// delivers nothing, its wire span ending at wire clear.
    pub(crate) fn transport(
        &mut self,
        src: usize,
        dst: usize,
        at: Time,
        bytes: u64,
        gdr: bool,
        attempt: Attempt,
    ) -> (RouteTiming, Time) {
        let key = self.route_key(src, dst);
        // Disjoint field borrows: the network and the rank state are used
        // side by side without moving the network out of its slot.
        let Cluster {
            topo: net,
            nics,
            ranks,
            fault_stats,
            ..
        } = self;
        let tele = &ranks[src].tele;
        let on_hop = |hop, start, wire_done| {
            tele.span(Lane::Nic, start, wire_done, || Payload::HopTransfer {
                hop,
                bytes,
            })
        };
        let (timing, completion) = if key.0.node == key.1.node {
            let t = net
                .transmit_with(at, key, bytes, None, attempt, on_hop)
                .unwrap_or_else(|e| unroutable(src, dst, key, e));
            // The NIC emits the wire span for inter-node sends;
            // intra-node sends emit it here.
            let end = if attempt == Attempt::Lost {
                t.wire_clear()
            } else {
                t.delivered
            };
            tele.span(Lane::Nic, t.start, end, || Payload::WireTransfer { bytes });
            (t, t.delivered)
        } else {
            let t = nics[key.0.node as usize]
                .post_send(net, key, at, bytes, gdr, attempt, on_hop)
                .unwrap_or_else(|e| unroutable(src, dst, key, e));
            (t, t.delivered + t.tail_latency)
        };
        if timing.forced {
            // Last rung of the degradation ladder: the failures severed
            // every surviving route for this pair, and the network forced
            // the transfer over its pre-fault route — absorbed, counted,
            // visible.
            fault_stats.degraded += 1;
            tele.instant(Lane::Host, at, || Payload::Degraded {
                site: FaultSite::HopDown,
                action: "forced-delivery",
            });
        }
        emit_fabric_events(net, tele);
        (timing, completion)
    }

    /// Per-hop congestion counters of the cluster's network (reports,
    /// reconciliation tests). Always `Some`: the `Option` stays only
    /// because the `fpbench` benchmark package unwraps it and changes only
    /// with the benchmark.
    pub fn topo_hop_stats(&self) -> Option<Vec<HopStats>> {
        Some(self.topo.hop_stats())
    }
}

/// Drain fabric state transitions from `net` and emit them as telemetry
/// instants on the triggering sender's timeline.
fn emit_fabric_events(net: &mut TopoNet, tele: &Telemetry) {
    for ev in net.drain_fabric_events() {
        match ev {
            FabricEvent::HopDown { hop, at } => {
                tele.instant(Lane::Nic, at, || Payload::HopDown { hop });
            }
            FabricEvent::Rerouted { src, dst, at } => {
                tele.instant(Lane::Nic, at, || Payload::Rerouted { src, dst });
            }
            FabricEvent::RailFailover { hop, at } => {
                tele.instant(Lane::Nic, at, || Payload::RailFailover { hop });
            }
        }
    }
}

/// Every endpoint was validated against the topology when the cluster
/// was built, so a route error is a simulator bug, not a fault to absorb.
fn unroutable(src: usize, dst: usize, key: RouteKey, e: NetError) -> ! {
    panic!(
        "rank {src} -> rank {dst} ({:?} -> {:?}) has no route after build-time validation: {e:?}",
        key.0, key.1
    )
}

#[cfg(test)]
mod tests {
    use crate::{ClusterBuilder, Program, SchemeKind};
    use fusedpack_net::{Attempt, Platform};
    use fusedpack_sim::Time;

    #[test]
    #[should_panic(expected = "rank 1 -> rank 1 (Endpoint { node: 1, gpu: 0 } -> \
                               Endpoint { node: 1, gpu: 0 }) has no route after \
                               build-time validation: SelfRoute { node: 1 }")]
    fn a_route_error_panics_naming_the_pair_and_the_error() {
        let mut cluster = ClusterBuilder::new(Platform::lassen(), SchemeKind::GpuSync)
            .add_rank(0, Program::new())
            .add_rank(1, Program::new())
            .build();
        cluster.transport(1, 1, Time::ZERO, 64, false, Attempt::Delivered(0));
    }
}
