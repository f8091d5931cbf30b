//! Plain-data pieces of a committed layout.
//!
//! The committed form of a datatype is
//! [`CompiledLayout`](crate::compile::CompiledLayout): the product of
//! normalizing a [`TypeDesc`](crate::typedesc::TypeDesc) tree into the
//! canonical IR ([`crate::ir`]) and lowering it once ([`crate::compile`]).
//! It is the unit the paper's layout cache stores and the fusion request
//! objects reference ("data layout: the cached data layout entry, follow
//! the scheme proposed in \[24\]"). This module keeps the plain-data types
//! it is built from and resolves to — [`Segment`] and [`UniformPlan`].

/// One contiguous run of bytes within an element: `(offset, len)` relative
/// to the element base address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Segment {
    pub offset: u64,
    pub len: u64,
}

/// A resolved fixed-stride copy plan for `count` elements: `runs` copies of
/// `len` bytes whose source offsets start at `first` (relative to the
/// element-base address) and advance by `stride`. The middle tiers between
/// "one memcpy" and the generic segment walk — see
/// [`CompiledLayout::uniform_for`](crate::compile::CompiledLayout::uniform_for)
/// and [`CompiledLayout::plan_for`](crate::compile::CompiledLayout::plan_for).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UniformPlan {
    /// Offset of the first run relative to the base address.
    pub first: u64,
    /// Constant distance between consecutive run starts.
    pub stride: u64,
    /// Bytes per run.
    pub len: u64,
    /// Total runs across all `count` elements.
    pub runs: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::TypeBuilder;
    use crate::compile::CompiledLayout;

    #[test]
    fn layout_of_vector() {
        let t = TypeBuilder::vector(3, 2, 4, TypeBuilder::int());
        let l = CompiledLayout::of(&t);
        assert_eq!(l.num_blocks(), 3);
        assert_eq!(l.size(), 24);
        assert_eq!(l.extent(), ((3 - 1) * 4 + 2) * 4);
        assert!(!l.is_contiguous());
    }

    #[test]
    fn contiguous_layout_detected() {
        let l = CompiledLayout::of(&TypeBuilder::contiguous(16, TypeBuilder::double()));
        assert!(l.is_contiguous());
        assert_eq!(l.shape(4), (512, 4));
    }

    #[test]
    fn absolute_segments_tile_by_extent() {
        let t = TypeBuilder::vector(2, 1, 3, TypeBuilder::int()); // segs (0,4),(12,4), extent 16
        let l = CompiledLayout::of(&t);
        let abs = l.absolute_segments(1000, 2);
        assert_eq!(abs, vec![(1000, 4), (1012, 4), (1016, 4), (1028, 4)]);
    }

    #[test]
    fn shape_scales_with_count() {
        let t = TypeBuilder::indexed(&[(0, 1), (4, 2), (9, 1)], TypeBuilder::float());
        let l = CompiledLayout::of(&t);
        assert_eq!(l.shape(1), (16, 3));
        assert_eq!(l.shape(10), (160, 30));
    }

    #[test]
    fn footprint_covers_all_segments() {
        let t = TypeBuilder::vector(2, 1, 3, TypeBuilder::int());
        let l = CompiledLayout::of(&t);
        // extent 16, reach 16 -> 2 elements: 32 bytes.
        assert_eq!(l.footprint(2), 32);
        assert_eq!(l.footprint(0), 0);
        // Every absolute segment must fall inside the footprint.
        for count in [1u64, 2, 5] {
            let fp = l.footprint(count);
            for (addr, len) in l.absolute_segments(0, count) {
                assert!(addr + len <= fp, "segment ({addr},{len}) outside {fp}");
            }
        }
    }

    #[test]
    fn contiguous_for_count_requires_gapless_tiling() {
        // One element of a 1x1 subarray of a 3x3 grid is contiguous, but
        // its extent (the full grid) leaves gaps between elements.
        let t = TypeBuilder::subarray(&[3, 3], &[1, 1], &[0, 0], TypeBuilder::int());
        let l = CompiledLayout::of(&t);
        assert!(l.is_contiguous());
        assert!(l.is_contiguous_for(1));
        assert!(!l.is_contiguous_for(2), "extent 36 != size 4");

        let packed = CompiledLayout::of(&TypeBuilder::contiguous(4, TypeBuilder::int()));
        assert!(packed.is_contiguous_for(10));
    }

    #[test]
    fn packed_offsets_are_prefix_sums() {
        let t = TypeBuilder::indexed(&[(0, 1), (4, 2), (9, 1)], TypeBuilder::float());
        let l = CompiledLayout::of(&t);
        assert_eq!(l.packed_offsets(), &[0, 4, 12]);
        assert_eq!(l.packed_offsets().len(), l.segments().len());
        let contig = CompiledLayout::of(&TypeBuilder::contiguous(16, TypeBuilder::double()));
        assert_eq!(contig.packed_offsets(), &[0]);
    }

    #[test]
    fn uniform_plan_covers_vectors_and_rejects_irregular() {
        // vector(3, 2, 4, int): runs of 8 bytes every 16, extent 40 — the
        // canonical fixed-stride shape, but trailing-gap-free extent means
        // tiling breaks (extent 40 != 3*16).
        let v = CompiledLayout::of(&TypeBuilder::vector(3, 2, 4, TypeBuilder::int()));
        let one = v.uniform_for(1).expect("vector is uniform");
        assert_eq!((one.first, one.stride, one.len, one.runs), (0, 16, 8, 3));
        assert!(v.uniform_for(2).is_none(), "extent 40 breaks the stride");

        // A subarray column: rows of 4 bytes every 12, and the extent (36)
        // continues the stride across elements — uniform for any count.
        let col = CompiledLayout::of(&TypeBuilder::subarray(
            &[3, 3],
            &[3, 1],
            &[0, 0],
            TypeBuilder::int(),
        ));
        let p = col.uniform_for(4).expect("column tiles uniformly");
        assert_eq!((p.first, p.stride, p.len, p.runs), (0, 12, 4, 12));

        // Irregular indexed layout: unequal lengths, no plan.
        let irr = CompiledLayout::of(&TypeBuilder::indexed(
            &[(0, 1), (4, 2), (9, 1)],
            TypeBuilder::float(),
        ));
        assert!(irr.uniform_for(1).is_none());

        // Regular indexed layout: equal lengths at constant spacing.
        let reg = CompiledLayout::of(&TypeBuilder::indexed(
            &[(0, 1), (3, 1), (6, 1)],
            TypeBuilder::float(),
        ));
        let p = reg.uniform_for(1).expect("evenly spaced blocks");
        assert_eq!((p.first, p.stride, p.len, p.runs), (0, 12, 4, 3));
    }

    #[test]
    fn uniform_plan_enumerates_exactly_the_absolute_segments() {
        let t = TypeBuilder::subarray(&[4, 4], &[4, 2], &[0, 0], TypeBuilder::double());
        let l = CompiledLayout::of(&t);
        for count in [1u64, 2, 3] {
            let Some(p) = l.uniform_for(count) else {
                panic!("subarray columns are uniform");
            };
            let walked: Vec<(u64, u64)> = (0..p.runs)
                .map(|i| (1000 + p.first + i * p.stride, p.len))
                .collect();
            assert_eq!(walked, l.absolute_segments(1000, count), "count={count}");
        }
    }

    #[test]
    fn from_segments_roundtrip() {
        let l = CompiledLayout::from_segments(
            vec![
                Segment { offset: 4, len: 8 },
                Segment { offset: 20, len: 8 },
            ],
            32,
        );
        assert_eq!(l.size(), 16);
        assert_eq!(l.extent(), 32);
        assert_eq!(l.num_blocks(), 2);
        assert!(!l.is_contiguous());
    }
}
