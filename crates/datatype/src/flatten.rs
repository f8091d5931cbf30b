//! Flattening a datatype tree into contiguous segments.
//!
//! "Flattening on the fly" (Träff et al., the paper's ref \[35\]): a committed
//! type is lowered to an ordered list of `(byte offset, byte length)`
//! segments describing one element. Segments are emitted in *traversal*
//! order — the order MPI packs bytes — and adjacent segments that happen to
//! be contiguous in memory are coalesced as they are emitted, so a
//! `vector(count, blocklen=stride, ...)` collapses to a single segment.
//!
//! [`CompiledLayout::of`](crate::CompiledLayout::of) routes through the
//! canonical IR ([`crate::ir`]): the tree is normalized once (which
//! already coalesces everything the rewrite rules can see) and the leaf
//! runs are emitted here through the coalescing [`Emitter`], which mops up
//! any cross-node adjacency the node-local rules could not. The pre-IR
//! direct tree walk lives on in the crate's property tests as the
//! independent ground truth they compare against.

use crate::ir::LayoutIr;
use crate::layout::Segment;

/// Emit the coalesced segment list of a normalized IR. The IR's exact
/// post-rewrite run count sizes the buffer precisely (coalescing can only
/// shrink it), so pathological nested types (e.g. a deeply nested
/// `contiguous` that flattens to one run) are never over-reserved by
/// their pre-coalesce leaf count.
pub(crate) fn emit_ir_segments(ir: &LayoutIr) -> Vec<Segment> {
    let cap = usize::try_from(ir.run_count()).unwrap_or(usize::MAX);
    let mut out = Vec::with_capacity(cap.min(1 << 16));
    let mut emitter = Emitter { out: &mut out };
    ir.for_each_run(|offset, len| emitter.emit(offset, len));
    out
}

struct Emitter<'a> {
    out: &'a mut Vec<Segment>,
}

impl Emitter<'_> {
    /// Emit a segment, coalescing with the previous one when contiguous.
    fn emit(&mut self, offset: u64, len: u64) {
        if len == 0 {
            return;
        }
        if let Some(last) = self.out.last_mut() {
            if last.offset + last.len == offset {
                last.len += len;
                return;
            }
        }
        self.out.push(Segment { offset, len });
    }
}

#[cfg(test)]
mod tests {
    use crate::builder::TypeBuilder;
    use crate::layout::Segment;
    use crate::typedesc::TypeDesc;
    use crate::CompiledLayout;

    /// One element's segments, as the layout compiler emits them.
    fn flatten(desc: &TypeDesc) -> Vec<Segment> {
        CompiledLayout::of(desc).segments().to_vec()
    }

    fn segs(v: &[(u64, u64)]) -> Vec<Segment> {
        v.iter()
            .map(|&(offset, len)| Segment { offset, len })
            .collect()
    }

    #[test]
    fn primitive_is_one_segment() {
        assert_eq!(flatten(&TypeBuilder::double()), segs(&[(0, 8)]));
    }

    #[test]
    fn contiguous_coalesces_to_one_segment() {
        let t = TypeBuilder::contiguous(100, TypeBuilder::int());
        assert_eq!(flatten(&t), segs(&[(0, 400)]));
    }

    #[test]
    fn vector_emits_count_blocks() {
        // 3 blocks of 2 ints, stride 4 ints.
        let t = TypeBuilder::vector(3, 2, 4, TypeBuilder::int());
        assert_eq!(flatten(&t), segs(&[(0, 8), (16, 8), (32, 8)]));
    }

    #[test]
    fn unit_stride_vector_coalesces() {
        let t = TypeBuilder::vector(5, 2, 2, TypeBuilder::int());
        assert_eq!(flatten(&t), segs(&[(0, 40)]));
    }

    #[test]
    fn hvector_uses_byte_stride() {
        let t = TypeBuilder::hvector(2, 1, 100, TypeBuilder::double());
        assert_eq!(flatten(&t), segs(&[(0, 8), (100, 8)]));
    }

    #[test]
    fn indexed_respects_displacements() {
        let t = TypeBuilder::indexed(&[(0, 2), (5, 1), (8, 3)], TypeBuilder::int());
        assert_eq!(flatten(&t), segs(&[(0, 8), (20, 4), (32, 12)]));
    }

    #[test]
    fn adjacent_indexed_blocks_coalesce() {
        let t = TypeBuilder::indexed(&[(0, 2), (2, 3)], TypeBuilder::int());
        assert_eq!(flatten(&t), segs(&[(0, 20)]));
    }

    #[test]
    fn indexed_block_constant_length() {
        let t = TypeBuilder::indexed_block(&[0, 4, 8], 2, TypeBuilder::float());
        assert_eq!(flatten(&t), segs(&[(0, 8), (16, 8), (32, 8)]));
    }

    #[test]
    fn struct_on_indexed_nests() {
        // specfem3D_cm-style: struct of two indexed fields.
        let idx = TypeBuilder::indexed(&[(0, 1), (3, 1)], TypeBuilder::float());
        let t = TypeBuilder::structure(&[(0, 1, idx.clone()), (64, 1, idx)]);
        assert_eq!(flatten(&t), segs(&[(0, 4), (12, 4), (64, 4), (76, 4)]));
    }

    #[test]
    fn nested_vector_of_vector() {
        // Outer: 2 elements of inner, stride 2 inner-extents.
        // Inner: 2 blocks of 1 int, stride 3 ints (extent 16B... compute).
        let inner = TypeBuilder::vector(2, 1, 3, TypeBuilder::int()); // ext (1*3+1-3)->((2-1)*3+1)*4=16
        let outer = TypeBuilder::vector(2, 1, 2, inner);
        // inner segments: (0,4),(12,4); outer tiles at 0 and 32.
        assert_eq!(flatten(&outer), segs(&[(0, 4), (12, 4), (32, 4), (44, 4)]));
    }

    #[test]
    fn subarray_2d_rows() {
        // 4x6 ints, subarray 2x3 at (1,2): rows at elements 8..11 and 14..17.
        let t = TypeBuilder::subarray(&[4, 6], &[2, 3], &[1, 2], TypeBuilder::int());
        assert_eq!(flatten(&t), segs(&[(32, 12), (56, 12)]));
    }

    #[test]
    fn subarray_3d_planes() {
        // 3x3x3 doubles, 1x2x2 subarray at (1,0,1).
        let t = TypeBuilder::subarray(&[3, 3, 3], &[1, 2, 2], &[1, 0, 1], TypeBuilder::double());
        // plane k=1: rows (1,0,1..3) elem 9*1+0+... elements: (1*3+0)*3+1=10 len2; (1*3+1)*3+1=13 len2
        assert_eq!(flatten(&t), segs(&[(80, 16), (104, 16)]));
    }

    #[test]
    fn full_subarray_coalesces_fully() {
        let t = TypeBuilder::subarray(&[4, 4], &[4, 4], &[0, 0], TypeBuilder::int());
        assert_eq!(flatten(&t), segs(&[(0, 64)]));
    }

    #[test]
    fn total_flattened_bytes_equals_type_size() {
        let layouts = [
            TypeBuilder::vector(7, 3, 5, TypeBuilder::double()),
            TypeBuilder::indexed(&[(0, 2), (4, 1), (9, 5)], TypeBuilder::float()),
            TypeBuilder::subarray(&[5, 7, 3], &[2, 3, 2], &[1, 2, 0], TypeBuilder::int()),
            TypeBuilder::structure(&[
                (0, 4, TypeBuilder::float()),
                (32, 1, TypeBuilder::vector(2, 1, 3, TypeBuilder::int())),
            ]),
        ];
        for t in layouts {
            let total: u64 = flatten(&t).iter().map(|s| s.len).sum();
            assert_eq!(total, t.size(), "{t:?}");
        }
    }

    #[test]
    fn resized_does_not_change_segments() {
        let inner = TypeBuilder::vector(2, 1, 4, TypeBuilder::int());
        let t = TypeBuilder::resized(256, inner.clone());
        assert_eq!(flatten(&t), flatten(&inner));
    }
}
