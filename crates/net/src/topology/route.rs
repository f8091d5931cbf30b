//! Static shortest-path routing over an explicit fabric graph.
//!
//! Fabrics (fat tree, dragonfly) are undirected multigraphs: vertices are
//! nodes and switches, edges carry [`HopId`]s, and parallel edges model
//! multi-rail attachments. [`Router`] builds one BFS distance table per
//! destination node (lazily, cached) and extracts paths by walking
//! downhill, breaking equal-cost ties **deterministically and
//! symmetrically**: at every branching point the candidate edges are
//! sorted by `(neighbor, hop)` and the pick is indexed by the unordered
//! endpoint pair, so `path(a, b)` load-spreads across rails and spines
//! (ECMP) while `path(b, a)` is always its exact reverse.

use super::HopId;
use crate::error::NetError;
use std::sync::{Mutex, OnceLock};

/// Index of a vertex in a [`FabricGraph`] (nodes first, then switches).
pub type Vertex = u32;

/// An undirected multigraph of nodes and switches.
#[derive(Debug, Default)]
pub struct FabricGraph {
    /// Number of leading vertices that are compute nodes.
    num_nodes: u32,
    /// Adjacency: per vertex, `(neighbor, hop)` in insertion order until a
    /// [`Router`] sorts it.
    adj: Vec<Vec<(Vertex, HopId)>>,
}

impl FabricGraph {
    pub fn new(num_nodes: u32) -> Self {
        FabricGraph {
            num_nodes,
            adj: vec![Vec::new(); num_nodes as usize],
        }
    }

    /// Add a switch/router vertex, returning its index.
    pub fn add_switch(&mut self) -> Vertex {
        self.adj.push(Vec::new());
        (self.adj.len() - 1) as Vertex
    }

    /// Add an undirected edge carrying `hop`. Parallel edges (multi-rail)
    /// are allowed and kept distinct.
    pub fn add_edge(&mut self, a: Vertex, b: Vertex, hop: HopId) {
        assert!((a as usize) < self.adj.len() && (b as usize) < self.adj.len());
        assert_ne!(a, b, "fabric links join distinct vertices");
        self.adj[a as usize].push((b, hop));
        self.adj[b as usize].push((a, hop));
    }

    /// Fill `dist` with the BFS distance to `root` of every vertex,
    /// crossing only edges whose hop is `alive`. Distances do not depend
    /// on the order in which a vertex's edges are visited.
    fn bfs_into(&self, root: Vertex, alive: impl Fn(HopId) -> bool, dist: &mut Vec<u32>) {
        dist.clear();
        dist.resize(self.adj.len(), u32::MAX);
        let mut queue = std::collections::VecDeque::new();
        dist[root as usize] = 0;
        queue.push_back(root);
        while let Some(v) = queue.pop_front() {
            let d = dist[v as usize];
            for &(n, h) in &self.adj[v as usize] {
                if dist[n as usize] == u32::MAX && alive(h) {
                    dist[n as usize] = d + 1;
                    queue.push_back(n);
                }
            }
        }
    }
}

/// Distance tables that avoid one set of dead hops, the *cut*, indexed
/// by destination node.
#[derive(Debug)]
struct DeadTables {
    /// The sorted cut.
    cut: Vec<u32>,
    /// Per hop id on the graph: whether it is in the cut.
    mask: Vec<bool>,
    /// Per destination node, its table; empty until first used.
    dist: Vec<Vec<u32>>,
}

impl DeadTables {
    /// Make `cut` the set the tables avoid. A different set drops every
    /// table of the old one (keeping the buffers) and resets the mask.
    fn retarget(&mut self, cut: &[u32]) {
        if self.cut == cut {
            return;
        }
        for &h in &self.cut {
            self.mask[h as usize] = false;
        }
        for &h in cut {
            self.mask[h as usize] = true;
        }
        self.cut.clear();
        self.cut.extend_from_slice(cut);
        for table in &mut self.dist {
            table.clear();
        }
    }
}

/// Shortest-path resolver over one fabric graph.
///
/// A resolution neither hashes nor allocates beyond the path it returns.
/// Healthy-fabric tables are built once per destination on first use and
/// read without a lock. Tables that avoid dead hops exist for one dead set
/// at a time, the one last asked for: a fabric's dead set only grows
/// during a run, so a new set replaces the old tables rather than joining
/// them, and memory stays at one table per destination.
#[derive(Debug)]
pub struct Router {
    /// The fabric, each adjacency list sorted by `(neighbor, hop)`: the
    /// order in which the walk's ECMP pick indexes candidates.
    graph: FabricGraph,
    /// Per destination node, its distance table on the healthy fabric.
    healthy: Box<[OnceLock<Box<[u32]>>]>,
    /// The tables of the dead set last asked for. The lock is held for a
    /// whole resolution, table build included.
    faulted: Mutex<DeadTables>,
}

impl Router {
    pub fn new(mut graph: FabricGraph) -> Self {
        for edges in &mut graph.adj {
            edges.sort_unstable();
        }
        let hop_span = graph
            .adj
            .iter()
            .flatten()
            .map(|&(_, h)| h.0 as usize + 1)
            .max();
        let nodes = graph.num_nodes as usize;
        Router {
            graph,
            healthy: (0..nodes).map(|_| OnceLock::new()).collect(),
            faulted: Mutex::new(DeadTables {
                cut: Vec::new(),
                mask: vec![false; hop_span.unwrap_or(0)],
                dist: vec![Vec::new(); nodes],
            }),
        }
    }

    /// Hop sequence of a shortest path from node `a` to node `b`.
    ///
    /// Computed canonically for the unordered pair `(min, max)` and
    /// reversed when `a > b`, which makes symmetry structural rather than
    /// a property to hope for.
    pub fn path(&self, a: Vertex, b: Vertex) -> Result<Vec<HopId>, NetError> {
        let mut hops = Vec::new();
        self.append_path(a, b, &[], &mut hops)?;
        Ok(hops)
    }

    /// Append to `out` the hops of a shortest path from node `a` to node
    /// `b` that never traverses a hop in the sorted `dead` list (the
    /// [`path`](Self::path) for an empty one), so a caller bracketing the
    /// fabric path with hops of its own builds the route in one
    /// allocation. Returns [`NetError::Disconnected`] when the failures
    /// partition the fabric.
    ///
    /// An empty `dead` walks the healthy table of the destination. Any
    /// other set walks the tables of that set; when it differs from the
    /// set last asked for, those tables are dropped, and the destination's
    /// table is rebuilt by a BFS that skips dead hops through a per-hop
    /// mask. Both directions share the canonical `(lo, hi)` walk, so paths
    /// stay symmetric under any dead set.
    pub fn append_path(
        &self,
        a: Vertex,
        b: Vertex,
        dead: &[u32],
        out: &mut Vec<HopId>,
    ) -> Result<(), NetError> {
        debug_assert!(dead.windows(2).all(|w| w[0] < w[1]), "dead set is sorted");
        let nodes = self.graph.num_nodes;
        for v in [a, b] {
            if v >= nodes {
                return Err(NetError::NodeOutOfRange {
                    node: v,
                    num_nodes: nodes,
                });
            }
        }
        if a == b {
            return Err(NetError::SelfRoute { node: a });
        }
        let (lo, hi) = (a.min(b), a.max(b));
        let from = out.len();
        if dead.is_empty() {
            let dist = self.healthy[hi as usize].get_or_init(|| {
                let mut dist = Vec::new();
                self.graph.bfs_into(hi, |_| true, &mut dist);
                dist.into_boxed_slice()
            });
            self.walk(lo, hi, dist, |_| true, out)?;
        } else {
            let mut set = self.faulted.lock().expect("router table lock");
            // Ids past every edge's cut nothing.
            let cut = dead.partition_point(|&h| (h as usize) < set.mask.len());
            set.retarget(&dead[..cut]);
            let DeadTables { mask, dist, .. } = &mut *set;
            let mask = &*mask;
            let alive = |h: HopId| !mask[h.0 as usize];
            let table = &mut dist[hi as usize];
            if table.is_empty() {
                self.graph.bfs_into(hi, alive, table);
            }
            self.walk(lo, hi, table, alive, out)?;
        }
        if a > b {
            out[from..].reverse();
        }
        Ok(())
    }

    /// Walk downhill from `lo` toward `hi` over `hi`'s distance table
    /// `dist`, crossing only `alive` hops, appending each hop to `out`.
    fn walk(
        &self,
        lo: Vertex,
        hi: Vertex,
        dist: &[u32],
        alive: impl Fn(HopId) -> bool,
        out: &mut Vec<HopId>,
    ) -> Result<(), NetError> {
        if dist[lo as usize] == u32::MAX {
            return Err(NetError::Disconnected { src: lo, dst: hi });
        }
        // The ECMP selector: one index for the whole unordered pair, so
        // distinct pairs spread over parallel rails/spines while the same
        // pair always takes the same path.
        let spread = (lo as u64)
            .wrapping_mul(0x9e37_79b9)
            .wrapping_add(hi as u64);
        let mut at = lo;
        while at != hi {
            // `at` is reachable and is not `hi`, so `d >= 1`.
            let d = dist[at as usize];
            let downhill = |&&(n, h): &&(Vertex, HopId)| dist[n as usize] == d - 1 && alive(h);
            let edges = &self.graph.adj[at as usize];
            let candidates = edges.iter().filter(downhill).count();
            debug_assert!(candidates > 0, "BFS table admits a next hop");
            let Some(&(next, hop)) = edges
                .iter()
                .filter(downhill)
                .nth((spread % candidates.max(1) as u64) as usize)
            else {
                return Err(NetError::Disconnected { src: lo, dst: hi });
            };
            out.push(hop);
            at = next;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path_avoiding(
        r: &Router,
        a: Vertex,
        b: Vertex,
        dead: &[u32],
    ) -> Result<Vec<HopId>, NetError> {
        let mut hops = Vec::new();
        r.append_path(a, b, dead, &mut hops).map(|()| hops)
    }

    /// 4 nodes on 2 leaf switches, 2 spines — a miniature fat tree.
    fn mini_fat_tree() -> Router {
        let mut g = FabricGraph::new(4);
        let l0 = g.add_switch();
        let l1 = g.add_switch();
        let s0 = g.add_switch();
        let s1 = g.add_switch();
        let mut hop = 0u32;
        let mut next = || {
            hop += 1;
            HopId(hop - 1)
        };
        for n in 0..2 {
            g.add_edge(n, l0, next());
        }
        for n in 2..4 {
            g.add_edge(n, l1, next());
        }
        for l in [l0, l1] {
            for s in [s0, s1] {
                g.add_edge(l, s, next());
            }
        }
        Router::new(g)
    }

    #[test]
    fn same_leaf_is_two_hops_cross_leaf_is_four() {
        let r = mini_fat_tree();
        assert_eq!(r.path(0, 1).unwrap().len(), 2);
        assert_eq!(r.path(0, 3).unwrap().len(), 4);
    }

    #[test]
    fn paths_are_symmetric_by_construction() {
        let r = mini_fat_tree();
        for a in 0..4u32 {
            for b in 0..4u32 {
                if a == b {
                    continue;
                }
                let fwd = r.path(a, b).unwrap();
                let mut rev = r.path(b, a).unwrap();
                rev.reverse();
                assert_eq!(fwd, rev, "{a}->{b}");
            }
        }
    }

    #[test]
    fn ecmp_spreads_distinct_pairs_across_spines() {
        let r = mini_fat_tree();
        let spine_hops: std::collections::HashSet<HopId> = (0..2)
            .flat_map(|a| (2..4).map(move |b| (a, b)))
            .map(|(a, b)| r.path(a, b).unwrap()[1])
            .collect();
        assert!(
            spine_hops.len() > 1,
            "4 cross-leaf pairs should not all pick the same spine uplink"
        );
    }

    #[test]
    fn avoiding_reroutes_around_dead_hops_and_stays_symmetric() {
        let r = mini_fat_tree();
        let healthy = r.path(0, 3).unwrap();
        // Kill the spine uplink the healthy path picked: the reroute must
        // avoid it and still connect, symmetrically.
        let dead = vec![healthy[1].0];
        let fwd = path_avoiding(&r, 0, 3, &dead).unwrap();
        let mut rev = path_avoiding(&r, 3, 0, &dead).unwrap();
        rev.reverse();
        assert_eq!(fwd, rev);
        assert_eq!(fwd.len(), 4, "reroute stays shortest");
        assert!(fwd.iter().all(|h| h.0 != dead[0]), "dead hop is avoided");
    }

    #[test]
    fn avoiding_every_uplink_reports_disconnected() {
        let r = mini_fat_tree();
        // Hops 0..4 are the node->leaf rails; cutting node 0's only rail
        // (hop 0) severs it from everything.
        assert!(matches!(
            path_avoiding(&r, 0, 3, &[0]),
            Err(NetError::Disconnected { .. })
        ));
        // The fault-free path is unaffected by the cached avoiding table.
        assert_eq!(r.path(0, 3).unwrap().len(), 4);
    }

    #[test]
    fn errors_are_typed() {
        let r = mini_fat_tree();
        assert!(matches!(
            r.path(0, 9),
            Err(NetError::NodeOutOfRange { node: 9, .. })
        ));
        assert!(matches!(r.path(2, 2), Err(NetError::SelfRoute { node: 2 })));

        // A node with no edges is disconnected, not a panic.
        let mut g = FabricGraph::new(2);
        let s = g.add_switch();
        g.add_edge(0, s, HopId(0));
        let r = Router::new(g);
        assert!(matches!(
            r.path(0, 1),
            Err(NetError::Disconnected { src: 0, dst: 1 })
        ));
    }
}
