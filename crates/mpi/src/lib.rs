//! # fusedpack-mpi
//!
//! A GPU-aware, MPI-like communication middleware running on the simulated
//! cluster: non-blocking point-to-point operations with tag matching, eager
//! and rendezvous (RPUT) protocols over the modelled fabric, a per-rank
//! progress engine, and — the point of the whole exercise — *pluggable
//! derived-datatype processing schemes* for GPU-resident buffers:
//!
//! | scheme | paper name | mechanism |
//! |---|---|---|
//! | [`SchemeKind::GpuSync`] | GPU-Sync \[8,22\] | pack kernel + `cudaStreamSynchronize` per message |
//! | [`SchemeKind::GpuAsync`] | GPU-Async \[23\] | pack kernel + event record/query per message, multi-stream |
//! | [`SchemeKind::CpuGpuHybrid`] | CPU-GPU-Hybrid \[24\] | GDRCopy CPU path for dense/small, cached-layout kernels otherwise |
//! | [`SchemeKind::Fusion`] | Proposed | dynamic kernel fusion via `fusedpack-core` |
//! | [`SchemeKind::FusionAdaptive`] | Proposed-Adaptive | fusion + online threshold control + cost-guided partitioning |
//! | [`SchemeKind::NaiveCopy`] | SpectrumMPI / OpenMPI | one `cudaMemcpyAsync` per contiguous block |
//! | [`SchemeKind::Adaptive`] | MVAPICH2-GDR | per-message choice between Hybrid and GpuSync |
//!
//! Applications are little per-rank programs ([`program::AppOp`]) executed
//! by the deterministic event loop in [`cluster::Cluster`]. Each rank's
//! host thread is a *sequential* resource — kernel launches, MPI calls and
//! scheduler work all advance the same virtual CPU clock, which is what
//! makes launch overhead non-hidable and reproduces the paper's bottleneck.

pub mod breakdown;
pub mod cluster;
pub mod lifecycle;
pub mod message;
pub mod program;
pub mod registry;
pub mod scheme;
pub mod sendrecv;

pub use breakdown::Breakdown;
pub use cluster::{
    Cluster, ClusterBuilder, CopyStats, LaneStats, PayloadHandle, RankId, RndvProtocol, RunReport,
};
pub use lifecycle::{LifecycleEvent, RequestLifecycle, RequeueLadder, Role, Stage};
pub use program::{AppOp, BufId, BufInit, Program, TypeSlot};
pub use registry::{SchemeDescriptor, SchemeRegistry};
pub use scheme::{NaiveFlavor, SchemeKind};
