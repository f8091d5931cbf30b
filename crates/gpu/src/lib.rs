//! # fusedpack-gpu
//!
//! A calibrated model of an NVIDIA GPU as seen by a communication runtime:
//! device memory (real bytes, so packing correctness is testable), CUDA-like
//! streams and events, a kernel *cost model* (launch overhead, startup time,
//! strided-access memory efficiency, SM occupancy), fused kernels that
//! partition thread blocks across many requests via cooperative groups, a
//! DMA copy engine, and a GDRCopy-style CPU load/store window.
//!
//! ## What is modelled vs. real
//!
//! * **Bytes are real.** [`mem::MemPool`] holds actual memory; its
//!   gather/scatter execute a compiled layout's copy plan through the same
//!   kernels as host `pack`/`unpack`, so the bytes really move (unless
//!   [`mem::DataMode::ModelOnly`] is selected for timing-only runs, where
//!   a copy only reports its byte count).
//! * **Time is modelled.** Kernel durations come from [`kernel`]'s cost
//!   model, whose constants (in [`arch::GpuArch`]) are calibrated against the
//!   paper's Fig. 1 (kernel launch ≈ 5–10 µs dominating µs-scale packing
//!   kernels) and public V100/P100/K80 specifications.
//!
//! The model is *passive*: every method takes the current virtual time and
//! returns completion times; the cluster driver in `fusedpack-mpi` owns the
//! event loop and schedules the returned instants.

pub mod arch;
pub mod copy;
pub mod device;
pub mod fused;
pub mod gdr;
pub mod kernel;
pub mod mem;
pub mod staging;
pub mod stream;

pub use arch::GpuArch;
pub use copy::{CopyPath, HostLink};
pub use device::{Gpu, KernelTiming};
pub use fused::{FusedLaunch, FusedTiming, FusedWork, PartitionPolicy};
pub use gdr::GdrWindow;
pub use kernel::SegmentStats;
pub use mem::{DataMode, DevPtr, Elements, MemPool};
pub use staging::{BufferPool, PoolStats};
pub use stream::{EventRecord, Stream, StreamId};
