//! Typed network errors.
//!
//! Route resolution used to be infallible because there was nothing to
//! resolve: one scalar link per node pair. With hierarchical topologies a
//! lookup can genuinely fail — an endpoint outside the fabric, a GPU index
//! beyond the node's island, a node with no path to its peer — and those
//! states are classified here instead of panicking: reachable bad states
//! get a variant. The cluster validates every endpoint when it is built,
//! so on its hot path an error is a bug and panics with the variant; a
//! severed pair ([`NetError::Disconnected`]) is no error there — the
//! network forces the transfer over its pre-fault route instead.

use std::fmt;

/// Why a route could not be resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetError {
    /// An endpoint names a node the topology does not contain.
    NodeOutOfRange {
        /// The offending node id.
        node: u32,
        /// Nodes the topology actually has.
        num_nodes: u32,
    },
    /// An endpoint names a GPU beyond the node's island.
    GpuOutOfRange {
        /// The offending GPU index.
        gpu: u32,
        /// GPUs per node in this topology.
        gpus_per_node: u32,
    },
    /// No path between two nodes survives: dead hops severed every route
    /// (transmits then force the pair's pre-fault route), or the topology
    /// is misbuilt (every shipped preset is connected by construction).
    Disconnected {
        /// Source node.
        src: u32,
        /// Destination node.
        dst: u32,
    },
    /// A route was requested between an endpoint and itself; transfers
    /// need two distinct endpoints.
    SelfRoute {
        /// The endpoint's node.
        node: u32,
    },
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::NodeOutOfRange { node, num_nodes } => {
                write!(f, "node {node} outside topology of {num_nodes} node(s)")
            }
            NetError::GpuOutOfRange { gpu, gpus_per_node } => {
                write!(f, "gpu {gpu} outside island of {gpus_per_node} gpu(s)")
            }
            NetError::Disconnected { src, dst } => {
                write!(f, "no fabric path from node {src} to node {dst}")
            }
            NetError::SelfRoute { node } => {
                write!(f, "route requested from node {node} to itself")
            }
        }
    }
}

impl std::error::Error for NetError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_failure() {
        let e = NetError::NodeOutOfRange {
            node: 9,
            num_nodes: 4,
        };
        let s = e.to_string();
        assert!(s.contains('9') && s.contains('4'), "{s}");
        let d = NetError::Disconnected { src: 1, dst: 2 };
        assert!(d.to_string().contains("no fabric path"));
    }
}
