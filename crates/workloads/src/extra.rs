//! Additional ddtbench-style workloads beyond the paper's four, for the
//! "more application workloads" direction its future-work section names.
//!
//! * **WRF** (Weather Research & Forecasting): halo slabs of a 3-D grid
//!   expressed as `MPI_Type_create_subarray` — dense, medium blocks.
//! * **LAMMPS** (molecular dynamics): per-atom property exchange gathered
//!   through index lists — sparse-ish with small fixed-size blocks.

use crate::Workload;
use fusedpack_datatype::TypeBuilder;
use fusedpack_sim::Pcg32;

/// WRF x-direction halo: a slab of thickness `halo` from an `n×n×n`
/// double-precision grid, as a 3-D subarray. The innermost dimension is
/// contiguous, so blocks are `n` doubles long.
pub fn wrf_x_slab(n: u64, halo: u64) -> Workload {
    assert!(n >= 2 && halo >= 1 && halo < n);
    Workload::new(
        "WRF_x",
        TypeBuilder::subarray(&[n, n, n], &[halo, n, n], &[0, 0, 0], TypeBuilder::double()),
        1,
    )
}

/// WRF y-direction halo: interior slab along the middle dimension —
/// `n·halo` blocks of `n` contiguous doubles.
pub fn wrf_y_slab(n: u64, halo: u64) -> Workload {
    assert!(n >= 2 && halo >= 1 && halo < n);
    Workload::new(
        "WRF_y",
        TypeBuilder::subarray(&[n, n, n], &[n, halo, n], &[0, 0, 0], TypeBuilder::double()),
        1,
    )
}

/// LAMMPS-style atom exchange: `atoms` boundary atoms, each contributing a
/// fixed-size property record (position + velocity + charge + type ≈ 8
/// doubles), gathered from an unsorted atom array via an index list.
pub fn lammps_full(atoms: u64) -> Workload {
    assert!(atoms >= 1);
    const DOUBLES_PER_ATOM: u64 = 8;
    // Deterministic irregular selection: every 2nd-4th atom is a boundary
    // atom.
    let mut rng = Pcg32::seeded(0x1a33);
    let mut disp = 0u64;
    let disps: Vec<u64> = (0..atoms)
        .map(|_| {
            let d = disp;
            disp += 2 + rng.next_below(3) as u64;
            d
        })
        .collect();
    let atom = TypeBuilder::contiguous(DOUBLES_PER_ATOM, TypeBuilder::double());
    Workload::new(
        "LAMMPS_full",
        TypeBuilder::indexed_block(&disps, 1, atom),
        1,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_exchange, ExchangeConfig};
    use fusedpack_mpi::SchemeKind;
    use fusedpack_net::Platform;

    #[test]
    fn wrf_x_slab_is_one_contiguous_run_per_plane() {
        // Thickness-1 x-slab of a cube: one fully contiguous n*n plane.
        let w = wrf_x_slab(32, 1);
        assert_eq!(w.blocks(), 1, "innermost dims coalesce");
        assert_eq!(w.packed_bytes(), 32 * 32 * 8);
    }

    #[test]
    fn wrf_y_slab_has_one_block_per_outer_row() {
        let w = wrf_y_slab(16, 2);
        assert_eq!(w.blocks(), 16, "one run of halo*n per outer index");
        assert_eq!(w.packed_bytes(), 16 * 2 * 16 * 8);
    }

    #[test]
    fn lammps_records_are_fixed_size_blocks() {
        let w = lammps_full(500);
        assert_eq!(w.blocks(), 500);
        assert_eq!(w.packed_bytes(), 500 * 64);
        let avg = w.packed_bytes() / w.blocks();
        assert_eq!(avg, 64, "one 8-double record per boundary atom");
    }

    #[test]
    fn fusion_wins_bulk_on_both_new_workloads() {
        for w in [wrf_y_slab(32, 2), lammps_full(800)] {
            let fusion = run_exchange(&ExchangeConfig::new(
                Platform::lassen(),
                SchemeKind::fusion_default(),
                w.clone(),
                16,
            ));
            let sync = run_exchange(&ExchangeConfig::new(
                Platform::lassen(),
                SchemeKind::GpuSync,
                w.clone(),
                16,
            ));
            assert!(
                fusion.latency < sync.latency,
                "{}: {} vs {}",
                w.name,
                fusion.latency,
                sync.latency
            );
        }
    }

    #[test]
    fn lammps_generation_is_deterministic() {
        assert_eq!(lammps_full(100).desc, lammps_full(100).desc);
    }
}
