//! RDMA protocol constants.
//!
//! The rendezvous protocols in `fusedpack-mpi` are built on one-sided
//! operations (RPUT: `RDMA WRITE` after a CTS; RGET: `RDMA READ` after an
//! RTS). Their payloads and control packets all cross the routed fabric
//! through [`crate::Nic`] and [`crate::TopoNet`]; this module only fixes
//! the control packet size.

/// Size of a control packet (RTS/CTS/FIN) on the wire.
pub const CTRL_BYTES: u64 = 64;
