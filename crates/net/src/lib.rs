//! # fusedpack-net
//!
//! Interconnect models for the simulated GPU cluster: α–β links with FIFO
//! serialization, routed topologies that realise every hop as such a link
//! ([`TopoNet`]), NICs with per-message injection overhead, and the
//! [`platform::Platform`] descriptions of the paper's two evaluation systems
//! (Table II): LLNL **Lassen** (POWER9 + V100, NVLink2 everywhere) and
//! **ABCI** (Xeon + V100, PCIe Gen3 to the host).

pub mod error;
pub mod link;
pub mod nic;
pub mod platform;
pub mod rdma;
pub mod topology;

pub use error::NetError;
pub use link::{Link, LinkSpec};
pub use nic::{Nic, NodeId};
pub use platform::Platform;
pub use topology::{
    Dragonfly, Endpoint, FabricEvent, FabricHealth, FatTree, FlatLink, Hierarchy, HopId, HopKind,
    HopSpec, HopState, HopStats, NvlinkIsland, RouteKey, RouteTiming, TopoNet, Topology,
    TopologyHandle,
};
