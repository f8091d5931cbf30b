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
//! Plus the communication drivers: [`bulk::bulk_exchange_programs`] (N buffers per
//! neighbor, Figs. 9/10), the 3-D halo exchange with 32 non-blocking
//! operations (Figs. 12/13), and one entry point per shape the benchmark
//! harness runs: [`run_exchange`], [`run_halo`], [`run_phase_shift`] and
//! [`run_serve`]. Each outcome carries the run's
//! [`fusedpack_mpi::RunReport`].

pub mod approaches;
pub mod bulk;
pub mod driver;
pub mod extra;
pub mod halo;
pub mod milc;
pub mod nas;
pub mod serve;
pub mod specfem;

pub use bulk::{bulk_exchange_programs, phase_shift_programs};
pub use driver::{
    run_exchange, run_phase_shift, ExchangeConfig, ExchangeOutcome, PhaseShiftOutcome,
};
pub use halo::{run_halo, HaloConfig, HaloGrid, HaloOutcome};
pub use serve::{run_serve, ServeConfig, ServeOutcome};

use fusedpack_datatype::TypeDesc;
use std::sync::Arc;

/// Sparse vs. dense, as the paper classifies its workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LayoutClass {
    /// "more than thousands of small blocks" (indexed, struct-on-indexed).
    Sparse,
    /// "less than thousand of blocks" (vector, nested vector).
    Dense,
}

/// One benchmark workload: a datatype, an element count, and metadata.
#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub class: LayoutClass,
    pub desc: Arc<TypeDesc>,
    pub count: u64,
}

impl Workload {
    /// Packed payload bytes per message.
    pub fn packed_bytes(&self) -> u64 {
        self.desc.size() * self.count
    }

    /// Contiguous blocks per message (before coalescing).
    pub fn blocks(&self) -> u64 {
        fusedpack_datatype::CompiledLayout::of(&self.desc).total_blocks(self.count)
    }

    /// Memory footprint of one message's user buffer.
    pub fn footprint(&self) -> u64 {
        fusedpack_datatype::CompiledLayout::of(&self.desc).footprint(self.count)
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
        assert_eq!(oc.class, LayoutClass::Sparse);
        assert!(oc.blocks() >= 1000, "{} blocks", oc.blocks());

        let cm = specfem::specfem3d_cm(2000);
        assert_eq!(cm.class, LayoutClass::Sparse);
        assert!(cm.blocks() >= 1000);

        let milc = milc::milc_su3_zdown(8);
        assert_eq!(milc.class, LayoutClass::Dense);
        assert!(milc.blocks() < 1000, "{} blocks", milc.blocks());

        let nas = nas::nas_mg_y(128);
        assert_eq!(nas.class, LayoutClass::Dense);
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
