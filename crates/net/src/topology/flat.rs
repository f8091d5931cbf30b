//! The flat fabric: the default topology of every cluster.
//!
//! One shared GPU↔GPU crossbar hop per node and one outbound wire hop per
//! node, built from a platform's scalar link constants. Routes are one
//! hop long, so the cut-through timing of [`super::TopoNet`] degenerates
//! to a single α–β `Link::transmit` — the timing every paper figure is
//! pinned to (the goldens under `results/golden/`).

use super::{Endpoint, HopId, HopKind, HopSpec, Topology};
use crate::error::NetError;
use crate::link::LinkSpec;

/// One intra-node crossbar per node and one outbound wire per node. Hop
/// table layout: `[xbar(node 0..n), tx(node 0..n)]`.
#[derive(Debug, Clone)]
pub struct FlatLink {
    num_nodes: u32,
    gpus_per_node: u32,
    hops: Vec<HopSpec>,
}

impl FlatLink {
    pub fn new(gpu_gpu: LinkSpec, internode: LinkSpec, num_nodes: u32, gpus_per_node: u32) -> Self {
        assert!(num_nodes >= 1 && gpus_per_node >= 1);
        let mut hops = Vec::with_capacity(2 * num_nodes as usize);
        for _ in 0..num_nodes {
            hops.push(HopSpec::from_link(HopKind::NvlinkXbar, &gpu_gpu));
        }
        for _ in 0..num_nodes {
            hops.push(HopSpec::from_link(HopKind::TxWire, &internode));
        }
        FlatLink {
            num_nodes,
            gpus_per_node,
            hops,
        }
    }

    /// The flat topology matching a platform's scalar link constants.
    pub fn for_platform(platform: &crate::platform::Platform, num_nodes: u32) -> Self {
        FlatLink::new(
            platform.gpu_gpu.clone(),
            platform.internode.clone(),
            num_nodes,
            platform.gpus_per_node,
        )
    }

    fn xbar(&self, node: u32) -> HopId {
        HopId(node)
    }

    fn tx(&self, node: u32) -> HopId {
        HopId(self.num_nodes + node)
    }
}

impl Topology for FlatLink {
    fn name(&self) -> &'static str {
        "flat"
    }

    fn num_nodes(&self) -> u32 {
        self.num_nodes
    }

    fn gpus_per_node(&self) -> u32 {
        self.gpus_per_node
    }

    fn hops(&self) -> &[HopSpec] {
        &self.hops
    }

    fn route(&self, src: Endpoint, dst: Endpoint) -> Result<Vec<HopId>, NetError> {
        super::validate_endpoint(self, src)?;
        super::validate_endpoint(self, dst)?;
        if src == dst {
            return Err(NetError::SelfRoute { node: src.node });
        }
        if src.node == dst.node {
            Ok(vec![self.xbar(src.node)])
        } else {
            // Only the sender's outbound wire is charged.
            Ok(vec![self.tx(src.node)])
        }
    }

    fn is_flat(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::Platform;

    fn flat() -> FlatLink {
        FlatLink::for_platform(&Platform::lassen(), 4)
    }

    #[test]
    fn intra_node_is_one_shared_xbar_hop() {
        let t = flat();
        let r01 = t.route(Endpoint::new(2, 0), Endpoint::new(2, 1)).unwrap();
        let r23 = t.route(Endpoint::new(2, 2), Endpoint::new(2, 3)).unwrap();
        assert_eq!(r01.len(), 1);
        // Every GPU pair on a node shares the node's single crossbar hop.
        assert_eq!(r01, r23);
        assert_eq!(t.hops()[r01[0].0 as usize].kind, HopKind::NvlinkXbar);
    }

    #[test]
    fn inter_node_is_the_senders_wire() {
        let t = flat();
        let ab = t.route(Endpoint::new(0, 0), Endpoint::new(3, 1)).unwrap();
        let ba = t.route(Endpoint::new(3, 1), Endpoint::new(0, 0)).unwrap();
        assert_eq!(ab.len(), 1);
        assert_eq!(t.hops()[ab[0].0 as usize].kind, HopKind::TxWire);
        // Directed: each node sends on its own wire.
        assert_ne!(ab, ba);
        assert!(t.is_flat());
    }

    #[test]
    fn bad_endpoints_are_typed_errors_not_panics() {
        let t = flat();
        assert!(t.route(Endpoint::new(9, 0), Endpoint::new(0, 0)).is_err());
        assert!(t.route(Endpoint::new(0, 9), Endpoint::new(1, 0)).is_err());
        assert!(matches!(
            t.route(Endpoint::new(1, 1), Endpoint::new(1, 1)),
            Err(NetError::SelfRoute { node: 1 })
        ));
    }
}
