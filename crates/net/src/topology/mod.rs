//! Topology-aware network models.
//!
//! The paper's central cross-machine result (Table II) is a *topology*
//! contrast: NVLink-dense nodes behind a fat fabric (Lassen) vs PCIe nodes
//! behind a flatter one (ABCI) change where kernel fusion pays off. Every
//! cluster's network is a pluggable [`Topology`]: every send resolves a
//! **route** — a sequence of hops, each an α–β link with its own FIFO —
//! and concurrent transfers crossing a shared hop serialize on it
//! deterministically. [`TopoNet`] is the one network path; there is no
//! other transport.
//!
//! Three models ship:
//!
//! * [`FlatLink`] — the default when a cluster is built without an
//!   explicit topology: one shared intra-node crossbar per node and one
//!   outbound wire per node, from the platform's link constants. Every
//!   paper figure runs on it.
//! * [`Hierarchy`] with a [`FatTree`] fabric — NVLink islands inside the
//!   node, multi-rail IB up to leaf switches, spines between leaves
//!   (Lassen-like).
//! * [`Hierarchy`] with a [`Dragonfly`] fabric — NVLink islands, one
//!   router per group, all-to-all global links (ABCI-like).
//!
//! Routes come from static shortest-path tables ([`route::Router`], BFS
//! over the fabric graph with deterministic ECMP tie-breaking); congestion
//! state lives in [`TopoNet`], which owns one [`crate::link::Link`] per
//! hop.

mod congestion;
mod flat;
mod hierarchy;
pub mod route;

pub use congestion::{
    FabricEvent, FabricHealth, HopState, HopStats, RouteTiming, TopoNet, DEGRADE_BW_FACTOR,
    FLAP_DOWN_STREAK, HEAL_STREAK,
};
pub use flat::FlatLink;
pub use hierarchy::{Dragonfly, Fabric, FatTree, Hierarchy, NvlinkIsland};

use crate::error::NetError;
use crate::link::LinkSpec;
use fusedpack_sim::Duration;
use std::sync::Arc;

/// One communication endpoint: a GPU slot on a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Endpoint {
    pub node: u32,
    /// GPU index within the node's island.
    pub gpu: u32,
}

impl Endpoint {
    pub fn new(node: u32, gpu: u32) -> Self {
        Endpoint { node, gpu }
    }
}

/// Index of one hop in a topology's hop table (and of its live
/// [`crate::link::Link`] inside [`TopoNet`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct HopId(pub u32);

/// What kind of physical link a hop models. Carries the static display
/// name (link specs want `&'static str`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HopKind {
    /// Intra-node GPU↔GPU crossbar segment (NVLink).
    NvlinkXbar,
    /// Intra-node host bounce path (PCIe / CPU NVLink).
    HostPath,
    /// The flat model's per-node outbound wire.
    TxWire,
    /// One rail between a node's NIC and its first switch/router.
    Rail,
    /// Fat-tree leaf↔spine link.
    LeafSpine,
    /// Dragonfly global (router↔router) link.
    Global,
}

impl HopKind {
    pub fn name(self) -> &'static str {
        match self {
            HopKind::NvlinkXbar => "nvlink-xbar",
            HopKind::HostPath => "host-path",
            HopKind::TxWire => "tx-wire",
            HopKind::Rail => "ib-rail",
            HopKind::LeafSpine => "leaf-spine",
            HopKind::Global => "global",
        }
    }
}

/// Static description of one hop: its kind plus α–β parameters.
#[derive(Debug, Clone)]
pub struct HopSpec {
    pub kind: HopKind,
    /// One-way bandwidth, bytes/s.
    pub bw: f64,
    /// Per-hop first-byte latency.
    pub latency: Duration,
}

impl HopSpec {
    pub fn from_link(kind: HopKind, spec: &LinkSpec) -> Self {
        HopSpec {
            kind,
            bw: spec.bw,
            latency: spec.latency,
        }
    }

    /// The equivalent link spec (hops are realised as live
    /// [`crate::link::Link`]s inside [`TopoNet`]).
    pub fn link_spec(&self) -> LinkSpec {
        LinkSpec {
            name: self.kind.name(),
            bw: self.bw,
            latency: self.latency,
        }
    }
}

/// A network topology: a hop table plus a route resolver.
///
/// Implementations must be **deterministic** (the same `(src, dst)` pair
/// always yields the same hop sequence, on any thread) and **symmetric**
/// (`route(a, b)` is the reverse of `route(b, a)` over the same undirected
/// hops — except [`FlatLink`], whose per-node outbound wire is inherently
/// directed; see [`Topology::is_flat`]).
pub trait Topology: Send + Sync + std::fmt::Debug {
    /// Display name (report rows, diagnostics).
    fn name(&self) -> &'static str;

    /// Nodes this topology contains.
    fn num_nodes(&self) -> u32;

    /// GPUs per node island.
    fn gpus_per_node(&self) -> u32;

    /// The static hop table. [`HopId`]s returned by
    /// [`Topology::route`] index into it.
    fn hops(&self) -> &[HopSpec];

    /// Resolve the hop sequence from `src` to `dst`.
    fn route(&self, src: Endpoint, dst: Endpoint) -> Result<Vec<HopId>, NetError>;

    /// Resolve a route that never traverses a hop in the sorted `dead`
    /// list (indices into [`Topology::hops`]). The default ignores the
    /// dead set — correct for topologies with no path diversity (the flat
    /// model's single wire has nothing to fail over to); fabrics with ECMP
    /// ([`Hierarchy`]) override this to re-resolve around failures.
    fn route_avoiding(
        &self,
        src: Endpoint,
        dst: Endpoint,
        dead: &[u32],
    ) -> Result<Vec<HopId>, NetError> {
        let route = self.route(src, dst)?;
        if route.iter().any(|h| dead.binary_search(&h.0).is_ok()) {
            return Err(NetError::Disconnected {
                src: src.node,
                dst: dst.node,
            });
        }
        Ok(route)
    }

    /// `true` only for [`FlatLink`], whose inter-node routes cross a
    /// directed per-node wire instead of shared undirected fabric hops.
    fn is_flat(&self) -> bool {
        false
    }
}

/// Shared handle to a topology, as threaded through the cluster builder.
pub type TopologyHandle = Arc<dyn Topology>;

/// A directed endpoint pair, the key routes are resolved and cached by.
pub type RouteKey = (Endpoint, Endpoint);

/// Validate that an endpoint exists in `topo`.
pub fn validate_endpoint(topo: &dyn Topology, ep: Endpoint) -> Result<(), NetError> {
    if ep.node >= topo.num_nodes() {
        return Err(NetError::NodeOutOfRange {
            node: ep.node,
            num_nodes: topo.num_nodes(),
        });
    }
    if ep.gpu >= topo.gpus_per_node() {
        return Err(NetError::GpuOutOfRange {
            gpu: ep.gpu,
            gpus_per_node: topo.gpus_per_node(),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hop_kinds_have_static_names() {
        for kind in [
            HopKind::NvlinkXbar,
            HopKind::HostPath,
            HopKind::TxWire,
            HopKind::Rail,
            HopKind::LeafSpine,
            HopKind::Global,
        ] {
            assert!(!kind.name().is_empty());
        }
    }

    #[test]
    fn hop_spec_round_trips_through_link_spec() {
        let spec = HopSpec::from_link(HopKind::Rail, &LinkSpec::ib_edr_dual());
        let link = spec.link_spec();
        assert_eq!(link.name, "ib-rail");
        assert_eq!(link.bw, LinkSpec::ib_edr_dual().bw);
        assert_eq!(link.latency, LinkSpec::ib_edr_dual().latency);
    }

    #[test]
    fn endpoint_validation_catches_both_axes() {
        let topo = FlatLink::new(LinkSpec::nvlink2_75(), LinkSpec::ib_edr_dual(), 2, 4);
        assert!(validate_endpoint(&topo, Endpoint::new(1, 3)).is_ok());
        assert!(matches!(
            validate_endpoint(&topo, Endpoint::new(2, 0)),
            Err(NetError::NodeOutOfRange { node: 2, .. })
        ));
        assert!(matches!(
            validate_endpoint(&topo, Endpoint::new(0, 4)),
            Err(NetError::GpuOutOfRange { gpu: 4, .. })
        ));
    }
}
