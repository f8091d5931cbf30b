//! # fusedpack
//!
//! A from-scratch reproduction of **"Dynamic Kernel Fusion for Bulk
//! Non-contiguous Data Transfer on GPU Clusters"** (Chu, Shafie Khorassani,
//! Zhou, Subramoni, Panda — IEEE CLUSTER 2020) as a Rust workspace: the
//! fusion framework itself, every substrate it needs (a calibrated GPU
//! model, an MPI derived-datatype engine, interconnect models, a GPU-aware
//! MPI-like middleware), every baseline it is evaluated against, the
//! application workloads, and a harness that regenerates every table and
//! figure of the paper's evaluation.
//!
//! This facade crate re-exports the workspace's public API under one roof:
//!
//! * [`core`] — the paper's contribution: request list, fusion scheduler,
//!   threshold heuristics and model-based prediction (`fusedpack-core`);
//! * [`mpi`] — the communication middleware with the pluggable
//!   datatype-processing schemes (`fusedpack-mpi`);
//! * [`datatype`] — MPI derived datatypes, flattening, layout cache
//!   (`fusedpack-datatype`);
//! * [`gpu`] — the device model: kernels, streams, fused launches, GDRCopy
//!   (`fusedpack-gpu`);
//! * [`net`] — links, NICs, RDMA, and the Lassen/ABCI platforms
//!   (`fusedpack-net`);
//! * [`workloads`] — specfem3D / MILC / NAS_MG generators and the one
//!   exchange driver, whose config runs a two-rank lap schedule or a halo
//!   over a process grid (`fusedpack-workloads`);
//! * [`sim`] — the deterministic discrete-event engine (`fusedpack-sim`);
//! * [`telemetry`] — the typed event timeline, metrics aggregation, and
//!   Chrome-trace / Perfetto export (`fusedpack-telemetry`).
//!
//! ## Quickstart
//!
//! Run one bulk halo exchange under the proposed design and a baseline:
//!
//! ```
//! use fusedpack::prelude::*;
//!
//! let workload = fusedpack::workloads::specfem::specfem3d_cm(1000);
//! let fusion = run_exchange(&ExchangeConfig::new(
//!     Platform::lassen(), SchemeKind::fusion_default(), workload.clone(), 16,
//! ));
//! let sync = run_exchange(&ExchangeConfig::new(
//!     Platform::lassen(), SchemeKind::GpuSync, workload, 16,
//! ));
//! assert!(fusion.latency < sync.latency);
//! ```

pub use fusedpack_core as core;
pub use fusedpack_datatype as datatype;
pub use fusedpack_gpu as gpu;
pub use fusedpack_mpi as mpi;
pub use fusedpack_net as net;
pub use fusedpack_sim as sim;
pub use fusedpack_telemetry as telemetry;
pub use fusedpack_workloads as workloads;

/// The README's Rust examples, compiled as doc-tests (and run, unless
/// marked `no_run`), so they keep up with the API.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
pub struct ReadmeDoctests;

/// The names most programs need.
pub mod prelude {
    pub use fusedpack_core::{FusionConfig, Scheduler};
    pub use fusedpack_datatype::{CompiledLayout, TypeBuilder};
    pub use fusedpack_gpu::DataMode;
    pub use fusedpack_mpi::{
        AppOp, BufId, BufInit, Cluster, ClusterBuilder, Program, RankId, SchemeKind, TypeSlot,
    };
    pub use fusedpack_net::Platform;
    pub use fusedpack_sim::{Duration, Time};
    pub use fusedpack_telemetry::Telemetry;
    pub use fusedpack_workloads::{run_exchange, ExchangeConfig, ExchangeOutcome, Workload};
}
