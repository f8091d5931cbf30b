//! NAS MG face-exchange layouts (dense, vectors, large blocks).
//!
//! The NAS multigrid benchmark exchanges the six faces of a 3-D `n³`
//! double-precision grid. Depending on the face orientation the layout is
//! anywhere from fully contiguous to a strided vector:
//!
//! * **x face** (`i = const`): `n²` doubles, one contiguous slab;
//! * **y face** (`j = const`): `n` blocks of `n` doubles, stride `n²` —
//!   the classic dense vector the paper's NAS_MG workload uses;
//! * **z face** (`k = const`): `n²` blocks of a single double, stride `n` —
//!   the pathological fine-grained vector.

use crate::Workload;
use fusedpack_datatype::TypeBuilder;

/// Contiguous x-face of an `n³` grid of doubles.
pub fn nas_mg_x(n: u64) -> Workload {
    assert!(n >= 2);
    Workload::new(
        "NAS_MG_x",
        TypeBuilder::contiguous(n * n, TypeBuilder::double()),
        1,
    )
}

/// Strided y-face: `n` blocks of `n` contiguous doubles, stride `n²` —
/// the paper's headline NAS workload (Fig. 12(d)/13(d)).
pub fn nas_mg_y(n: u64) -> Workload {
    assert!(n >= 2);
    Workload::new(
        "NAS_MG",
        TypeBuilder::vector(n, n, n * n, TypeBuilder::double()),
        1,
    )
}

/// Fine-grained z-face: `n²` single-double blocks with stride `n`.
pub fn nas_mg_z(n: u64) -> Workload {
    assert!(n >= 2);
    Workload::new(
        "NAS_MG_z",
        TypeBuilder::vector(n * n, 1, n, TypeBuilder::double()),
        1,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_faces_move_the_same_bytes() {
        let n = 64;
        let (x, y, z) = (nas_mg_x(n), nas_mg_y(n), nas_mg_z(n));
        assert_eq!(x.packed_bytes(), n * n * 8);
        assert_eq!(x.packed_bytes(), y.packed_bytes());
        assert_eq!(y.packed_bytes(), z.packed_bytes());
    }

    #[test]
    fn block_granularity_ordering() {
        let n = 64;
        assert_eq!(nas_mg_x(n).blocks(), 1);
        assert_eq!(nas_mg_y(n).blocks(), n);
        assert_eq!(nas_mg_z(n).blocks(), n * n);
    }

    #[test]
    fn y_face_blocks_are_fat() {
        let w = nas_mg_y(256);
        let avg = w.packed_bytes() / w.blocks();
        assert_eq!(avg, 256 * 8, "each block is one grid line");
        // Large dimension: megabyte-scale messages (Fig. 12(d) right edge).
        assert!(w.packed_bytes() >= 512 * 1024);
    }
}
