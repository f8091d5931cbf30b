//! Hierarchical topologies: NVLink islands composed with inter-node
//! fabrics.
//!
//! A [`Hierarchy`] is an intra-node model ([`NvlinkIsland`]) stacked on an
//! inter-node fabric ([`FatTree`] or [`Dragonfly`]) reached over
//! multi-rail IB. The hop table is laid out as
//!
//! ```text
//! [ xbar(node 0, pair 0..P) .. xbar(node N-1, pair 0..P)   per-pair NVLink
//! | host(node 0) .. host(node N-1)                         optional PCIe path
//! | fabric hops in graph-construction order ]              rails + switches
//! ```
//!
//! Intra-node routes are a single per-GPU-pair crossbar hop; inter-node
//! routes are the fabric shortest path (deterministic ECMP over rails and
//! spines, see [`super::route`]), bracketed by the host-bounce hop on
//! machines whose NIC sits behind the PCIe complex (ABCI-like).

use super::route::{FabricGraph, Router};
use super::{Endpoint, HopId, HopKind, HopSpec, Topology};
use crate::error::NetError;
use crate::link::LinkSpec;
use fusedpack_sim::Duration;

/// Intra-node model: a GPU↔GPU crossbar segment per pair, plus an
/// optional shared host path (the PCIe complex the NIC hangs off).
#[derive(Debug, Clone)]
pub struct NvlinkIsland {
    /// Per-pair GPU↔GPU link.
    pub gpu_gpu: LinkSpec,
    /// Shared host-bounce path crossed by inter-node traffic when the NIC
    /// is PCIe-attached. `None` models an NVLink-attached NIC (POWER9).
    pub host_path: Option<LinkSpec>,
}

impl NvlinkIsland {
    /// Lassen-like island: NVLink2 crossbar, NVLink-attached NIC (no
    /// host bounce on the inter-node path).
    pub fn nvlink_dense() -> Self {
        NvlinkIsland {
            gpu_gpu: LinkSpec::nvlink2_75(),
            host_path: None,
        }
    }

    /// ABCI-like island: slower NVLink crossbar and a PCIe-switched host
    /// complex that all inter-node traffic from the node's GPUs shares.
    pub fn pcie_switched() -> Self {
        NvlinkIsland {
            gpu_gpu: LinkSpec::nvlink2_50(),
            host_path: Some(LinkSpec {
                name: "host-path",
                // PCIe Gen3 x16 through the switch, effective.
                bw: 16.0e9,
                latency: Duration::from_nanos(900),
            }),
        }
    }
}

/// Fat-tree fabric descriptor: nodes under leaf switches, every leaf
/// wired to every spine.
#[derive(Debug, Clone)]
pub struct FatTree {
    /// Nodes attached to one leaf switch.
    pub nodes_per_leaf: u32,
    /// Spine switches (each leaf has one uplink to each).
    pub spines: u32,
    /// Leaf↔spine link parameters.
    pub leaf_spine: LinkSpec,
}

impl FatTree {
    /// A modest non-blocking EDR core.
    pub fn ib_edr(nodes_per_leaf: u32, spines: u32) -> Self {
        FatTree {
            nodes_per_leaf,
            spines,
            leaf_spine: LinkSpec {
                name: "leaf-spine",
                bw: 25.0e9,
                latency: Duration::from_nanos(500),
            },
        }
    }

    fn build(
        &self,
        num_nodes: u32,
        rails: u32,
        rail_spec: &LinkSpec,
        hops: &mut Vec<HopSpec>,
    ) -> FabricGraph {
        assert!(self.nodes_per_leaf >= 1 && self.spines >= 1 && rails >= 1);
        let mut g = FabricGraph::new(num_nodes);
        let leaves: Vec<_> = (0..num_nodes.div_ceil(self.nodes_per_leaf))
            .map(|_| g.add_switch())
            .collect();
        let spines: Vec<_> = (0..self.spines).map(|_| g.add_switch()).collect();
        for n in 0..num_nodes {
            let leaf = leaves[(n / self.nodes_per_leaf) as usize];
            for _ in 0..rails {
                let hop = HopId(hops.len() as u32);
                hops.push(HopSpec::from_link(HopKind::Rail, rail_spec));
                g.add_edge(n, leaf, hop);
            }
        }
        for &leaf in &leaves {
            for &spine in &spines {
                let hop = HopId(hops.len() as u32);
                hops.push(HopSpec::from_link(HopKind::LeafSpine, &self.leaf_spine));
                g.add_edge(leaf, spine, hop);
            }
        }
        g
    }
}

/// Dragonfly fabric descriptor: one router per group, groups joined
/// all-to-all by global links.
#[derive(Debug, Clone)]
pub struct Dragonfly {
    /// Nodes attached to one group router.
    pub nodes_per_group: u32,
    /// Router↔router global link parameters.
    pub global: LinkSpec,
}

impl Dragonfly {
    pub fn ib_edr(nodes_per_group: u32) -> Self {
        Dragonfly {
            nodes_per_group,
            global: LinkSpec {
                name: "global",
                bw: 25.0e9,
                latency: Duration::from_nanos(900),
            },
        }
    }

    fn build(
        &self,
        num_nodes: u32,
        rails: u32,
        rail_spec: &LinkSpec,
        hops: &mut Vec<HopSpec>,
    ) -> FabricGraph {
        assert!(self.nodes_per_group >= 1 && rails >= 1);
        let mut g = FabricGraph::new(num_nodes);
        let routers: Vec<_> = (0..num_nodes.div_ceil(self.nodes_per_group))
            .map(|_| g.add_switch())
            .collect();
        for n in 0..num_nodes {
            let router = routers[(n / self.nodes_per_group) as usize];
            for _ in 0..rails {
                let hop = HopId(hops.len() as u32);
                hops.push(HopSpec::from_link(HopKind::Rail, rail_spec));
                g.add_edge(n, router, hop);
            }
        }
        for (i, &a) in routers.iter().enumerate() {
            for &b in &routers[i + 1..] {
                let hop = HopId(hops.len() as u32);
                hops.push(HopSpec::from_link(HopKind::Global, &self.global));
                g.add_edge(a, b, hop);
            }
        }
        g
    }
}

/// The inter-node fabric of a [`Hierarchy`].
#[derive(Debug, Clone)]
pub enum Fabric {
    FatTree(FatTree),
    Dragonfly(Dragonfly),
}

/// An intra-node island stacked on an inter-node fabric.
#[derive(Debug)]
pub struct Hierarchy {
    name: &'static str,
    num_nodes: u32,
    gpus_per_node: u32,
    hops: Vec<HopSpec>,
    router: Router,
    /// Hop-table offset of the per-node host-path hops, if modelled.
    host_base: Option<u32>,
    /// Hop-table offset of the fabric hops, the last block of the table.
    fabric_base: u32,
}

impl Hierarchy {
    /// Compose `island` and `fabric` over `rails` rails per node, each
    /// carrying `1/rails` of `internode`'s aggregate bandwidth.
    pub fn new(
        name: &'static str,
        island: NvlinkIsland,
        fabric: Fabric,
        internode: LinkSpec,
        num_nodes: u32,
        gpus_per_node: u32,
        rails: u32,
    ) -> Self {
        assert!(num_nodes >= 1 && gpus_per_node >= 1 && rails >= 1);
        let pairs = gpu_pairs(gpus_per_node);
        let mut hops = Vec::new();
        for _ in 0..num_nodes {
            for _ in 0..pairs {
                hops.push(HopSpec::from_link(HopKind::NvlinkXbar, &island.gpu_gpu));
            }
        }
        let host_base = island.host_path.as_ref().map(|spec| {
            let base = hops.len() as u32;
            for _ in 0..num_nodes {
                hops.push(HopSpec::from_link(HopKind::HostPath, spec));
            }
            base
        });
        let rail_spec = LinkSpec {
            name: "ib-rail",
            bw: internode.bw / rails as f64,
            latency: internode.latency,
        };
        let fabric_base = hops.len() as u32;
        let graph = match &fabric {
            Fabric::FatTree(ft) => ft.build(num_nodes, rails, &rail_spec, &mut hops),
            Fabric::Dragonfly(df) => df.build(num_nodes, rails, &rail_spec, &mut hops),
        };
        Hierarchy {
            name,
            num_nodes,
            gpus_per_node,
            hops,
            router: Router::new(graph),
            host_base,
            fabric_base,
        }
    }

    /// Lassen-like machine: dense NVLink islands, NVLink-attached NICs,
    /// dual-rail EDR into a leaf/spine fat tree.
    pub fn lassen_like(num_nodes: u32) -> Self {
        Hierarchy::new(
            "lassen-like",
            NvlinkIsland::nvlink_dense(),
            Fabric::FatTree(FatTree::ib_edr(16, 4)),
            LinkSpec::ib_edr_dual(),
            num_nodes,
            4,
            2,
        )
    }

    /// ABCI-like machine: PCIe-switched islands (inter-node traffic
    /// bounces through the shared host complex), dual-rail EDR into a
    /// one-router-per-group dragonfly.
    pub fn abci_like(num_nodes: u32) -> Self {
        Hierarchy::new(
            "abci-like",
            NvlinkIsland::pcie_switched(),
            Fabric::Dragonfly(Dragonfly::ib_edr(16)),
            LinkSpec::ib_edr_dual(),
            num_nodes,
            4,
            2,
        )
    }

    fn xbar(&self, node: u32, a: u32, b: u32) -> HopId {
        let (lo, hi) = (a.min(b), a.max(b));
        let g = self.gpus_per_node;
        let pair = lo * (2 * g - lo - 1) / 2 + (hi - lo - 1);
        HopId(node * gpu_pairs(g) + pair)
    }

    fn host(&self, node: u32) -> Option<HopId> {
        self.host_base.map(|base| HopId(base + node))
    }
}

/// Room for an inter-node route on either preset without a regrow: the
/// host bracket plus a fabric path of up to four hops.
const ROUTE_CAPACITY: usize = 6;

/// Unordered GPU pairs in an island of `g`.
fn gpu_pairs(g: u32) -> u32 {
    g * (g - 1) / 2
}

impl Topology for Hierarchy {
    fn name(&self) -> &'static str {
        self.name
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
        self.route_avoiding(src, dst, &[])
    }

    fn route_avoiding(
        &self,
        src: Endpoint,
        dst: Endpoint,
        dead: &[u32],
    ) -> Result<Vec<HopId>, NetError> {
        super::validate_endpoint(self, src)?;
        super::validate_endpoint(self, dst)?;
        if src == dst {
            return Err(NetError::SelfRoute { node: src.node });
        }
        let disconnected = || NetError::Disconnected {
            src: src.node,
            dst: dst.node,
        };
        if src.node == dst.node {
            // A GPU pair owns exactly one crossbar segment; there is no
            // alternate intra-node path to fail over to.
            let xbar = self.xbar(src.node, src.gpu, dst.gpu);
            if dead.binary_search(&xbar.0).is_ok() {
                return Err(disconnected());
            }
            return Ok(vec![xbar]);
        }
        // The host bracket is likewise unavoidable where modelled: a dead
        // host complex strands the whole island.
        for node in [src.node, dst.node] {
            if let Some(h) = self.host(node) {
                if dead.binary_search(&h.0).is_ok() {
                    return Err(disconnected());
                }
            }
        }
        // Fabric hops carry the path diversity (multi-rail ECMP, multiple
        // spines/routers): resolve a surviving shortest path. The router
        // sees only the fabric tail of the sorted set, so dead crossbars
        // and host paths leave its tables in use (the healthy ones while
        // no fabric hop is dead). PCIe-attached NICs bounce through the
        // host complex on both ends; the bracket keeps routes symmetric
        // (reverse(A→B) == B→A).
        let fabric_dead = &dead[dead.partition_point(|&h| h < self.fabric_base)..];
        let mut hops = Vec::with_capacity(ROUTE_CAPACITY);
        hops.extend(self.host(src.node));
        self.router
            .append_path(src.node, dst.node, fabric_dead, &mut hops)?;
        hops.extend(self.host(dst.node));
        Ok(hops)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fat_tree_route_lengths() {
        let t = Hierarchy::lassen_like(32); // 2 leaves of 16
        let same_leaf = t.route(Endpoint::new(0, 0), Endpoint::new(1, 0)).unwrap();
        let cross_leaf = t.route(Endpoint::new(0, 0), Endpoint::new(31, 0)).unwrap();
        assert_eq!(same_leaf.len(), 2, "rail up, rail down");
        assert_eq!(cross_leaf.len(), 4, "rail, leaf-spine, leaf-spine, rail");
        for &h in &cross_leaf {
            assert!(matches!(
                t.hops()[h.0 as usize].kind,
                HopKind::Rail | HopKind::LeafSpine
            ));
        }
    }

    #[test]
    fn dragonfly_route_lengths_include_host_bounce() {
        let t = Hierarchy::abci_like(32); // 2 groups of 16
        let intra_group = t.route(Endpoint::new(0, 0), Endpoint::new(1, 0)).unwrap();
        let inter_group = t.route(Endpoint::new(0, 0), Endpoint::new(31, 0)).unwrap();
        // host + rail + rail + host / host + rail + global + rail + host
        assert_eq!(intra_group.len(), 4);
        assert_eq!(inter_group.len(), 5);
        assert_eq!(t.hops()[intra_group[0].0 as usize].kind, HopKind::HostPath);
        assert_eq!(t.hops()[inter_group[2].0 as usize].kind, HopKind::Global);
    }

    #[test]
    fn intra_node_pairs_get_distinct_crossbar_segments() {
        let t = Hierarchy::lassen_like(4);
        let r01 = t.route(Endpoint::new(2, 0), Endpoint::new(2, 1)).unwrap();
        let r23 = t.route(Endpoint::new(2, 2), Endpoint::new(2, 3)).unwrap();
        let r10 = t.route(Endpoint::new(2, 1), Endpoint::new(2, 0)).unwrap();
        assert_eq!(r01.len(), 1);
        assert_ne!(r01, r23, "distinct pairs ride distinct NVLink segments");
        assert_eq!(r01, r10, "a pair's segment is shared both ways");
        assert_eq!(t.hops()[r01[0].0 as usize].kind, HopKind::NvlinkXbar);
    }

    #[test]
    fn routes_are_symmetric_across_both_presets() {
        for t in [Hierarchy::lassen_like(33), Hierarchy::abci_like(33)] {
            for (a, b) in [(0u32, 1u32), (0, 17), (5, 32), (16, 31)] {
                let fwd = t.route(Endpoint::new(a, 1), Endpoint::new(b, 2)).unwrap();
                let mut rev = t.route(Endpoint::new(b, 2), Endpoint::new(a, 1)).unwrap();
                rev.reverse();
                assert_eq!(fwd, rev, "{a}<->{b} on {}", t.name());
            }
        }
    }

    #[test]
    fn dual_rail_failover_survives_one_dead_rail() {
        let t = Hierarchy::lassen_like(8);
        let healthy = t.route(Endpoint::new(0, 0), Endpoint::new(7, 0)).unwrap();
        // Kill the first rail the healthy route rides: the dual-rail NIC
        // must fail over to its sibling rail and still connect.
        let first_rail = healthy
            .iter()
            .find(|h| t.hops()[h.0 as usize].kind == HopKind::Rail)
            .copied()
            .unwrap();
        let dead = vec![first_rail.0];
        let rerouted = t
            .route_avoiding(Endpoint::new(0, 0), Endpoint::new(7, 0), &dead)
            .unwrap();
        assert_eq!(rerouted.len(), healthy.len(), "failover stays shortest");
        assert!(rerouted.iter().all(|h| h.0 != first_rail.0));
        let mut rev = t
            .route_avoiding(Endpoint::new(7, 0), Endpoint::new(0, 0), &dead)
            .unwrap();
        rev.reverse();
        assert_eq!(rerouted, rev, "failover routes stay symmetric");
    }

    #[test]
    fn dead_crossbar_and_severed_node_report_disconnected() {
        let t = Hierarchy::lassen_like(8);
        let xbar = t.route(Endpoint::new(2, 0), Endpoint::new(2, 1)).unwrap()[0];
        assert!(matches!(
            t.route_avoiding(Endpoint::new(2, 0), Endpoint::new(2, 1), &[xbar.0]),
            Err(NetError::Disconnected { .. })
        ));
        // Killing both of node 0's rails severs it from the fabric.
        let mut rails: Vec<u32> = t
            .route(Endpoint::new(0, 0), Endpoint::new(7, 0))
            .unwrap()
            .iter()
            .map(|h| h.0)
            .filter(|&h| t.hops()[h as usize].kind == HopKind::Rail)
            .collect();
        let sibling: Vec<u32> = t
            .route_avoiding(Endpoint::new(0, 0), Endpoint::new(7, 0), &{
                rails.sort_unstable();
                rails.clone()
            })
            .map(|r| {
                r.iter()
                    .map(|h| h.0)
                    .filter(|&h| t.hops()[h as usize].kind == HopKind::Rail)
                    .collect()
            })
            .unwrap_or_default();
        rails.extend(sibling);
        rails.sort_unstable();
        rails.dedup();
        // With every rail touching node 0 or node 7 down, no route exists.
        assert!(matches!(
            t.route_avoiding(Endpoint::new(0, 0), Endpoint::new(7, 0), &rails),
            Err(NetError::Disconnected { .. })
        ));
    }

    #[test]
    fn rails_split_aggregate_bandwidth() {
        let t = Hierarchy::lassen_like(8);
        let rail = t
            .hops()
            .iter()
            .find(|h| h.kind == HopKind::Rail)
            .expect("fat tree has rails");
        assert_eq!(rail.bw, LinkSpec::ib_edr_dual().bw / 2.0);
    }
}
