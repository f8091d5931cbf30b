//! Random datatype trees for property tests, shared by the datatype
//! crate's tests and by the GPU pool's differential copy test (which
//! includes this file by path), plus the pre-IR tree walk
//! ([`flatten_reference`]) those tests use as an independent oracle.

// Each including test binary uses a different subset of these helpers.
#![allow(dead_code)]

use fusedpack_datatype::{Segment, TypeBuilder, TypeDesc};
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

/// Equal-width byte runs — the shape the indexed copy rung serves —
/// returned with their width. Widths cover 1–32 bytes, so both the const
/// arms (2/4/8/16/32) and the variable-width loop run. The 1–40 runs
/// start at offset 0–7 and sit at irregular gaps of 1–23 bytes, or at one
/// repeated gap (a constant stride). The extent is padded 0–15 bytes past
/// the last run, so multi-element copies tile with and without slack.
pub fn arb_equal_width_runs() -> BoxedStrategy<(Arc<TypeDesc>, u64)> {
    (
        1u64..=32,
        prop::collection::vec(1u64..24, 1..40),
        0u64..8,
        0u64..16,
        any::<bool>(),
    )
        .prop_map(|(width, gaps, first, pad, strided)| {
            let mut disp = first;
            let blocks: Vec<(u64, u64)> = gaps
                .iter()
                .map(|&gap| {
                    let d = disp;
                    disp += width + if strided { gaps[0] } else { gap };
                    (d, width)
                })
                .collect();
            let runs = TypeBuilder::hindexed(&blocks, TypeBuilder::byte());
            (TypeBuilder::resized(runs.extent() + pad, runs), width)
        })
        .boxed()
}

/// Flatten one element of `desc` by walking the constructor tree directly
/// (the pre-IR implementation of `flatten`), coalescing adjacent segments
/// as they are emitted. An independently derived ground truth for the
/// canonical-IR path production uses.
pub fn flatten_reference(desc: &TypeDesc) -> Vec<Segment> {
    let mut out = Vec::with_capacity(leaf_block_upper_bound(desc).min(1 << 16) as usize);
    walk(desc, 0, &mut out);
    out
}

/// Number of leaf contiguous blocks one element flattens into, *before*
/// adjacent-segment coalescing (an upper bound). Saturating: deeply nested
/// constructors can overflow a product of counts long before they describe
/// a representable layout, and this bound must stay a bound, not a panic.
pub fn leaf_block_upper_bound(desc: &TypeDesc) -> u64 {
    match desc {
        TypeDesc::Named(_) => 1,
        TypeDesc::Contiguous { count, child } => {
            count.saturating_mul(leaf_block_upper_bound(child))
        }
        TypeDesc::Vector {
            count,
            blocklen,
            child,
            ..
        }
        | TypeDesc::Hvector {
            count,
            blocklen,
            child,
            ..
        } => count
            .saturating_mul(*blocklen)
            .saturating_mul(leaf_block_upper_bound(child)),
        TypeDesc::Indexed { blocks, child } | TypeDesc::Hindexed { blocks, child } => blocks
            .iter()
            .map(|&(_, len)| len)
            .fold(0u64, u64::saturating_add)
            .saturating_mul(leaf_block_upper_bound(child)),
        TypeDesc::IndexedBlock {
            displacements,
            blocklen,
            child,
        } => (displacements.len() as u64)
            .saturating_mul(*blocklen)
            .saturating_mul(leaf_block_upper_bound(child)),
        TypeDesc::Struct { fields } => fields
            .iter()
            .map(|(_, count, child)| count.saturating_mul(leaf_block_upper_bound(child)))
            .fold(0u64, u64::saturating_add),
        TypeDesc::Subarray {
            subsizes, child, ..
        } => subsizes
            .iter()
            .fold(1u64, |acc, &s| acc.saturating_mul(s))
            .saturating_mul(leaf_block_upper_bound(child)),
        TypeDesc::Resized { child, .. } => leaf_block_upper_bound(child),
    }
}

/// Emit a segment, coalescing with the previous one when contiguous.
fn emit(out: &mut Vec<Segment>, offset: u64, len: u64) {
    if len == 0 {
        return;
    }
    if let Some(last) = out.last_mut() {
        if last.offset + last.len == offset {
            last.len += len;
            return;
        }
    }
    out.push(Segment { offset, len });
}

fn walk(desc: &TypeDesc, base: u64, out: &mut Vec<Segment>) {
    match desc {
        TypeDesc::Named(p) => emit(out, base, p.size()),
        TypeDesc::Contiguous { count, child } => walk_block(child, base, *count, out),
        TypeDesc::Vector {
            count,
            blocklen,
            stride,
            child,
        } => {
            let stride_bytes = stride * child.extent();
            for i in 0..*count {
                walk_block(child, base + i * stride_bytes, *blocklen, out);
            }
        }
        TypeDesc::Hvector {
            count,
            blocklen,
            stride_bytes,
            child,
        } => {
            for i in 0..*count {
                walk_block(child, base + i * stride_bytes, *blocklen, out);
            }
        }
        TypeDesc::Indexed { blocks, child } => {
            let ext = child.extent();
            for &(disp, len) in blocks.iter() {
                walk_block(child, base + disp * ext, len, out);
            }
        }
        TypeDesc::Hindexed { blocks, child } => {
            for &(disp, len) in blocks.iter() {
                walk_block(child, base + disp, len, out);
            }
        }
        TypeDesc::IndexedBlock {
            displacements,
            blocklen,
            child,
        } => {
            let ext = child.extent();
            for &disp in displacements.iter() {
                walk_block(child, base + disp * ext, *blocklen, out);
            }
        }
        TypeDesc::Struct { fields } => {
            for (disp, count, child) in fields.iter() {
                walk_block(child, base + disp, *count, out);
            }
        }
        TypeDesc::Subarray {
            sizes,
            subsizes,
            starts,
            child,
        } => walk_subarray(sizes, subsizes, starts, child, base, 0, 0, out),
        TypeDesc::Resized { child, .. } => walk(child, base, out),
    }
}

/// One run of `count` consecutive children at `base`. A child that tiles
/// gaplessly (`size == extent`) is one segment; otherwise (e.g. a `resized`
/// child's padding) the copies stay separate.
fn walk_block(child: &TypeDesc, base: u64, count: u64, out: &mut Vec<Segment>) {
    let ext = child.extent();
    if child.is_contiguous() && child.size() == ext {
        emit(out, base, count * child.size());
    } else {
        for i in 0..count {
            walk(child, base + i * ext, out);
        }
    }
}

/// Row-major traversal of an n-dimensional subarray.
#[allow(clippy::too_many_arguments)]
fn walk_subarray(
    sizes: &[u64],
    subsizes: &[u64],
    starts: &[u64],
    child: &TypeDesc,
    base: u64,
    dim: usize,
    index_offset: u64,
    out: &mut Vec<Segment>,
) {
    if dim == sizes.len() - 1 {
        // Innermost dimension: one contiguous run of `subsizes[dim]` children.
        let elem = index_offset * sizes[dim] + starts[dim];
        walk_block(child, base + elem * child.extent(), subsizes[dim], out);
        return;
    }
    for i in 0..subsizes[dim] {
        let index = index_offset * sizes[dim] + starts[dim] + i;
        walk_subarray(sizes, subsizes, starts, child, base, dim + 1, index, out);
    }
}
