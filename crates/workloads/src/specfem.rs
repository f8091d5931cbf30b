//! SPECFEM3D_GLOBE boundary-exchange layouts (sparse).
//!
//! SPECFEM3D simulates seismic wave propagation with spectral elements; the
//! boundary data it exchanges is a *gather of scattered grid points* —
//! ddtbench models it with `MPI_Type_indexed` over thousands of tiny
//! blocks. Two variants appear in the paper (§V-A):
//!
//! * `specfem3D_oc` — the outer-core field: plain indexed type over single
//!   floats (one value per boundary point);
//! * `specfem3D_cm` — the crust-mantle field: a struct-on-indexed layout
//!   (three displacement components per boundary point, gathered from
//!   separate field arrays).

use crate::{LayoutClass, Workload};
use fusedpack_datatype::TypeBuilder;
use fusedpack_sim::Pcg32;

/// Deterministic boundary-point displacement pattern: `n` strictly
/// increasing element displacements with irregular small gaps — the
/// signature of an unstructured spectral-element boundary.
fn boundary_displacements(n: u64, seed: u64) -> Vec<u64> {
    let mut rng = Pcg32::new(seed, 0x5eef);
    let mut disp = 0u64;
    (0..n)
        .map(|_| {
            let d = disp;
            // Gap of 2-4 elements between consecutive boundary points, so
            // blocks never abut (abutting blocks would coalesce and the
            // layout would lose its sparse character).
            disp += 2 + rng.next_below(3) as u64;
            d
        })
        .collect()
}

/// `specfem3D_oc`: indexed type over `points` single-float boundary values.
///
/// Sparse: `points` blocks of 4 bytes each. The paper's Fig. 12/13 x-axis
/// ("dimension size") maps to the boundary point count.
pub fn specfem3d_oc(points: u64) -> Workload {
    assert!(points >= 1);
    let disps = boundary_displacements(points, 0x0c);
    let desc = TypeBuilder::indexed_block(&disps, 1, TypeBuilder::float());
    Workload {
        name: "specfem3D_oc",
        class: LayoutClass::Sparse,
        desc,
        count: 1,
    }
}

/// `specfem3D_cm`: struct of three indexed fields (x/y/z displacement
/// components), each gathering `points` boundary values from its own field
/// array — the "struct-on-indexed" layout of §V-A.
pub fn specfem3d_cm(points: u64) -> Workload {
    assert!(points >= 1);
    let disps = boundary_displacements(points, 0xc3);
    let field = TypeBuilder::indexed_block(&disps, 1, TypeBuilder::float());
    // Field arrays are spaced by the footprint of one field.
    let field_extent = field.extent();
    let stride = (field_extent + 63) & !63;
    let desc = TypeBuilder::structure(&[
        (0, 1, field.clone()),
        (stride, 1, field.clone()),
        (2 * stride, 1, field),
    ]);
    Workload {
        name: "specfem3D_cm",
        class: LayoutClass::Sparse,
        desc,
        count: 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oc_has_one_block_per_point() {
        let w = specfem3d_oc(1500);
        assert_eq!(w.blocks(), 1500);
        assert_eq!(w.packed_bytes(), 1500 * 4);
    }

    #[test]
    fn cm_triples_the_payload() {
        let w = specfem3d_cm(1000);
        assert_eq!(w.blocks(), 3000);
        assert_eq!(w.packed_bytes(), 3 * 1000 * 4);
    }

    #[test]
    fn displacements_are_strictly_increasing_and_deterministic() {
        let a = boundary_displacements(500, 7);
        let b = boundary_displacements(500, 7);
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn different_seeds_give_different_patterns() {
        assert_ne!(
            boundary_displacements(100, 1),
            boundary_displacements(100, 2)
        );
    }

    #[test]
    fn both_variants_take_the_indexed_copy_rung() {
        use fusedpack_datatype::{CompiledLayout, CopyPlan};
        for w in [specfem3d_oc(512), specfem3d_cm(512)] {
            let l = CompiledLayout::of(&w.desc);
            assert_eq!(
                l.plan_for(w.count),
                CopyPlan::IndexedRuns { width: 4 },
                "{}",
                w.name
            );
        }
    }

    #[test]
    fn workloads_scale_with_points() {
        let small = specfem3d_oc(100);
        let large = specfem3d_oc(10_000);
        assert!(large.packed_bytes() > 50 * small.packed_bytes());
        assert!(
            large.footprint() > large.packed_bytes(),
            "gaps make footprint larger"
        );
    }
}
