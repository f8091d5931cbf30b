//! MILC lattice-QCD boundary layout (dense, nested vectors).
//!
//! MILC operates on a 4-D space-time lattice of su3 matrices. Exchanging
//! the z-"down" face gathers, for each (t, y) pair, a contiguous run of x
//! sites — ddtbench models it as *nested vectors* over the su3 element
//! type. Block sizes are hundreds of bytes and block counts stay well
//! under a thousand for practical local volumes: the paper's "dense"
//! class with small messages (the Fig. 10/12(c) regime where the
//! CPU-GPU-Hybrid GDRCopy path shines on Lassen).

use crate::Workload;
use fusedpack_datatype::TypeBuilder;

/// Bytes of one su3 "site" worth of data on the face: a 3×3 complex-double
/// matrix is 144 bytes; ddtbench's su3_zdown moves half-matrices in places,
/// we keep the full matrix as 9 complex doubles.
const SU3_COMPLEX: u64 = 9;

/// `MILC_su3_zdown` for a local lattice of extent `l` per dimension: for
/// each of the `l` t-slices, a vector over `l` y-rows of `l/2` contiguous
/// even-site su3 matrices (checkerboarded x-dimension).
pub fn milc_su3_zdown(l: u64) -> Workload {
    assert!(l >= 2, "lattice extent must be at least 2");
    let half_x = (l / 2).max(1);
    // One su3 matrix: 9 complex doubles, contiguous.
    let su3 = TypeBuilder::contiguous(SU3_COMPLEX, TypeBuilder::complex());
    // One z-plane of the face: l y-rows, each a run of half_x contiguous
    // even-site matrices out of a full x-row of l matrices.
    let plane = TypeBuilder::vector(l, half_x, l, su3.clone());
    // t-slices: l planes, each one z-extent (l*l sites) apart in bytes.
    let site_bytes = su3.extent();
    let desc = TypeBuilder::hvector(l, 1, l * l * site_bytes, plane);
    Workload::new("MILC", desc, 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_structure_is_dense() {
        let w = milc_su3_zdown(8);
        // l*l rows of half_x contiguous matrices: 64 blocks.
        assert_eq!(w.blocks(), 64);
        let avg = w.packed_bytes() as f64 / w.blocks() as f64;
        // half_x=4 matrices * 144B = 576B per block.
        assert_eq!(avg as u64, 4 * SU3_COMPLEX * 16);
    }

    #[test]
    fn payload_scales_with_lattice_volume() {
        let small = milc_su3_zdown(4);
        let big = milc_su3_zdown(16);
        // Face volume scales as l^2 * l/2 = l^3/2: 16^3/4^3 = 64x.
        assert_eq!(big.packed_bytes(), 64 * small.packed_bytes());
    }

    #[test]
    fn small_lattice_is_in_hybrid_sweet_spot() {
        // The Fig. 12(c) regime: small dense message.
        let w = milc_su3_zdown(4);
        assert!(w.packed_bytes() < 64 * 1024);
        assert!(w.blocks() < 512);
    }
}
