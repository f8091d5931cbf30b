//! Random datatype trees for property tests, shared by the datatype
//! crate's tests and by the GPU pool's differential copy test (which
//! includes this file by path).

use fusedpack_datatype::{TypeBuilder, TypeDesc};
use proptest::prelude::*;
use std::sync::Arc;

/// A random valid datatype tree of bounded depth. Every constructor in
/// the algebra appears, children recurse, and all builder invariants
/// (sorted disjoint blocks, non-overlapping strides) hold by
/// construction.
pub fn arb_type(depth: u32) -> BoxedStrategy<Arc<TypeDesc>> {
    let prim = prop_oneof![
        Just(TypeBuilder::byte()),
        Just(TypeBuilder::int()),
        Just(TypeBuilder::float()),
        Just(TypeBuilder::double()),
        Just(TypeBuilder::complex()),
    ]
    .boxed();
    if depth == 0 {
        return prim;
    }
    prop_oneof![
        prim,
        (1u64..6, arb_type(depth - 1)).prop_map(|(n, c)| TypeBuilder::contiguous(n, c)),
        (1u64..5, 1u64..4, 0u64..6, arb_type(depth - 1)).prop_map(|(count, blocklen, pad, c)| {
            TypeBuilder::vector(count, blocklen, blocklen + pad, c)
        }),
        (1u64..4, 1u64..3, 0u64..40, arb_type(depth - 1)).prop_map(|(count, blocklen, gap, c)| {
            let stride_bytes = blocklen * c.extent() + gap;
            TypeBuilder::hvector(count, blocklen, stride_bytes, c)
        }),
        (
            prop::collection::vec((0u64..4, 1u64..4), 1..5),
            arb_type(depth - 1)
        )
            .prop_map(|(raw, c)| {
                let mut disp = 0;
                let blocks: Vec<(u64, u64)> = raw
                    .into_iter()
                    .map(|(gap, len)| {
                        let d = disp + gap;
                        disp = d + len;
                        (d, len)
                    })
                    .collect();
                TypeBuilder::indexed(&blocks, c)
            }),
        (
            prop::collection::vec(0u64..5, 1..5),
            1u64..3,
            arb_type(depth - 1)
        )
            .prop_map(|(gaps, blocklen, c)| {
                let mut disp = 0;
                let ds: Vec<u64> = gaps
                    .into_iter()
                    .map(|gap| {
                        let d = disp + gap;
                        disp = d + blocklen;
                        d
                    })
                    .collect();
                TypeBuilder::indexed_block(&ds, blocklen, c)
            }),
        (
            arb_type(depth - 1),
            1u64..3,
            arb_type(depth - 1),
            1u64..3,
            0u64..16
        )
            .prop_map(|(a, ca, b, cb, gap)| {
                let second = ca * a.extent() + gap;
                TypeBuilder::structure(&[(0, ca, a), (second, cb, b)])
            }),
        (2u64..5, 2u64..5, arb_type(depth - 1)).prop_flat_map(|(rows, cols, c)| {
            (1..=rows, 1..=cols).prop_map(move |(sr, sc)| {
                TypeBuilder::subarray(&[rows, cols], &[sr, sc], &[rows - sr, cols - sc], c.clone())
            })
        }),
        (0u64..48, arb_type(depth - 1))
            .prop_map(|(pad, c)| { TypeBuilder::resized(c.extent() + pad, c) }),
    ]
    .boxed()
}
