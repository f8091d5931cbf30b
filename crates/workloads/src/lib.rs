//! # fusedpack-workloads
//!
//! The application kernels of the paper's evaluation (§V-A), re-created in
//! the style of ddtbench \[32\] and LLNL Comb \[33\]:
//!
//! * [`specfem::specfem3d_oc`] — `MPI_Type_indexed`, *sparse* (thousands of
//!   tiny blocks), Geophysical Science;
//! * [`specfem::specfem3d_cm`] — struct-on-indexed, *sparse*, Geophysics;
//! * [`milc::milc_su3_zdown`] — nested vectors, *dense* (small/medium
//!   blocks), Quantum Chromodynamics;
//! * [`nas::nas_mg_y`] (and x/z faces) — vectors, *dense* (large blocks),
//!   Fluid Dynamics.
//!
//! Plus the communication drivers: [`pair_programs`], two ranks exchanging
//! N buffers each way per lap of a lap schedule (Figs. 9/10, the adapt
//! phase shift, the serve replay), [`halo::halo_programs`], the halo over a
//! Cartesian grid (`reproduce topo`), and one entry point for every run the
//! benchmark harness makes: [`run_exchange`] of an [`ExchangeConfig`]. Its
//! outcome carries the run's [`fusedpack_mpi::RunReport`].
//!
//! A [`Workload`] is a committed type: [`Workload::new`] compiles it once,
//! and the program builders and every cluster [`run_exchange`] builds
//! reuse that layout, so a run compiles nothing.

pub mod approaches;
pub mod bulk;
pub mod driver;
pub mod extra;
pub mod halo;
pub mod milc;
pub mod nas;
pub mod serve;
pub mod specfem;

pub use bulk::{bulk_exchange_programs, pair_programs, Lap};
pub use driver::{run_exchange, ExchangeConfig, ExchangeOutcome};
pub use halo::HaloGrid;

use fusedpack_datatype::{CompiledLayout, TypeDesc};
use std::sync::Arc;

/// One benchmark workload: a committed type and an element count.
#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    /// The type tree; [`Workload::layout`] is its compiled form, so the
    /// tree must not be replaced after construction.
    pub desc: Arc<TypeDesc>,
    pub count: u64,
    layout: Arc<CompiledLayout>,
}

impl Workload {
    /// Commit `desc`: compile it once and keep the layout beside it.
    pub fn new(name: &'static str, desc: Arc<TypeDesc>, count: u64) -> Self {
        let layout = Arc::new(CompiledLayout::of(&desc));
        Workload {
            name,
            desc,
            count,
            layout,
        }
    }

    /// The compiled layout of [`Workload::desc`].
    pub fn layout(&self) -> &Arc<CompiledLayout> {
        &self.layout
    }

    /// The committed type as [`fusedpack_mpi::ClusterBuilder::layouts`]
    /// takes it, so a cluster reuses this compile.
    pub fn committed(&self) -> (Arc<TypeDesc>, Arc<CompiledLayout>) {
        (Arc::clone(&self.desc), Arc::clone(&self.layout))
    }

    /// Packed payload bytes per message.
    pub fn packed_bytes(&self) -> u64 {
        self.desc.size() * self.count
    }

    /// Contiguous blocks per message (before coalescing).
    pub fn blocks(&self) -> u64 {
        self.layout.total_blocks(self.count)
    }

    /// Memory footprint of one message's user buffer.
    pub fn footprint(&self) -> u64 {
        self.layout.footprint(self.count)
    }

    /// Average contiguous-block size in bytes — the input of
    /// [`fusedpack_core::predict_threshold`] (`reproduce --threshold auto`).
    pub fn avg_block_bytes(&self) -> f64 {
        self.packed_bytes() as f64 / self.blocks().max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_classes_match_paper_taxonomy() {
        // Sparse workloads: thousands of blocks; dense: under a thousand.
        let oc = specfem::specfem3d_oc(4000);
        assert!(oc.blocks() >= 1000, "{} blocks", oc.blocks());

        let cm = specfem::specfem3d_cm(2000);
        assert!(cm.blocks() >= 1000);

        let milc = milc::milc_su3_zdown(8);
        assert!(milc.blocks() < 1000, "{} blocks", milc.blocks());

        let nas = nas::nas_mg_y(128);
        assert!(nas.blocks() < 1000);
    }

    #[test]
    fn sparse_blocks_are_small_dense_blocks_are_big() {
        let oc = specfem::specfem3d_oc(2000);
        let nas = nas::nas_mg_y(128);
        let oc_avg = oc.packed_bytes() as f64 / oc.blocks() as f64;
        let nas_avg = nas.packed_bytes() as f64 / nas.blocks() as f64;
        assert!(oc_avg < 64.0, "sparse avg block {oc_avg}B");
        assert!(nas_avg > 512.0, "dense avg block {nas_avg}B");
    }
}
