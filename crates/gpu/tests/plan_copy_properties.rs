//! Differential test of the plan-driven pool copies.
//!
//! `MemPool`'s copies between elements and a packed image — within one
//! pool (`copy_within` to or from a contiguous run of bytes, the explicit
//! pack and unpack) and to or from a buffer outside it (`gather_into`,
//! `scatter_from`) — execute a compiled layout's copy plan through the
//! host pack kernels.
//! For random datatype trees at counts 1–3, and for equal-width run
//! layouts (the indexed rung) of every width 1–32 at counts 1–4, they must
//! produce exactly the bytes of the generic segment walk
//! (`pack_into_generic`/`unpack_generic`), leave every byte outside the
//! copy (the layout's gaps, the rest of the pool) untouched, and in
//! `ModelOnly` mode return `total_bytes(count)` without writing anything.

#[path = "../../datatype/tests/common/mod.rs"]
mod common;

use common::{arb_equal_width_runs, arb_type};
use fusedpack_datatype::pack::{pack_into_generic, unpack_generic};
use fusedpack_datatype::{CompiledLayout, CopyPlan, TypeBuilder};
use fusedpack_gpu::{DataMode, DevPtr, Elements, MemPool};
use fusedpack_sim::Pcg32;
use proptest::prelude::*;

const SENTINEL: u8 = 0xEE;

fn random_bytes(rng: &mut Pcg32, len: u64) -> Vec<u8> {
    let mut bytes = vec![0u8; len as usize];
    rng.fill_bytes(&mut bytes);
    bytes
}

/// A sentinel-filled pool holding an element region of `fp` bytes and a
/// packed region of `total` bytes, in either order, with a few bytes of
/// slack around both. The slack is allocated too, so the whole capacity
/// is backed and checked. Returns `(pool, elements, packed)`.
fn pool_with_regions(fp: u64, total: u64, packed_first: bool) -> (MemPool, DevPtr, DevPtr) {
    let mut pool = MemPool::new(fp + total + 16, DataMode::Full);
    pool.alloc(3, 1);
    let (elems, packed) = if packed_first {
        let packed = pool.alloc(total, 1);
        (pool.alloc(fp, 1), packed)
    } else {
        let elems = pool.alloc(fp, 1);
        (elems, pool.alloc(total, 1))
    };
    pool.alloc(pool.capacity() - pool.allocated(), 1);
    let all = DevPtr {
        addr: 0,
        len: pool.capacity(),
    };
    pool.write(all, &vec![SENTINEL; all.len as usize]);
    (pool, elems, packed)
}

/// Every byte of the pool, for before/after comparisons.
fn image(pool: &MemPool) -> Vec<u8> {
    pool.read(DevPtr {
        addr: 0,
        len: pool.capacity(),
    })
    .to_vec()
}

/// `after` equals `before` except inside `region`, which holds `want`.
fn assert_only_region_changed(before: &[u8], after: &[u8], region: DevPtr, want: &[u8]) {
    let (lo, hi) = (region.addr as usize, region.end() as usize);
    assert_eq!(&after[lo..hi], want, "copied bytes differ from host");
    assert_eq!(&after[..lo], &before[..lo], "bytes before the copy moved");
    assert_eq!(&after[hi..], &before[hi..], "bytes after the copy moved");
}

/// Copy `count` elements of `layout` into a packed image and back within
/// one pool, the packed region before or after the elements, against the
/// generic walk.
fn check_pool_copies(layout: &CompiledLayout, count: u64, seed: u64, packed_first: bool) {
    let (fp, total) = (layout.footprint(count), layout.total_bytes(count));
    let mut rng = Pcg32::seeded(seed);
    // The packed side: `total` elements of one byte, the contiguous
    // layout the cluster gives every packed buffer.
    let bytes = CompiledLayout::of(&TypeBuilder::byte());
    let mut scratch = Vec::new();

    // Gather.
    let elements = random_bytes(&mut rng, fp);
    let mut packed_want = vec![0u8; total as usize];
    pack_into_generic(&elements, layout, count, &mut packed_want);
    let (mut pool, elems, packed) = pool_with_regions(fp, total, packed_first);
    pool.write(elems, &elements);
    let before = image(&pool);
    let (from, to) = (
        Elements::new(layout, elems.addr, count),
        Elements::new(&bytes, packed.addr, total),
    );
    assert_eq!(pool.copy_within(from, to, &mut scratch), total);
    assert_only_region_changed(&before, &image(&pool), packed, &packed_want);

    // Scatter a fresh packed image into sentinel-filled elements.
    let payload = random_bytes(&mut rng, total);
    let mut elements_want = vec![SENTINEL; fp as usize];
    unpack_generic(&payload, layout, count, &mut elements_want);
    let (mut pool, elems, packed) = pool_with_regions(fp, total, packed_first);
    pool.write(packed, &payload);
    let before = image(&pool);
    let (from, to) = (
        Elements::new(&bytes, packed.addr, total),
        Elements::new(layout, elems.addr, count),
    );
    assert_eq!(pool.copy_within(from, to, &mut scratch), total);
    assert_only_region_changed(&before, &image(&pool), elems, &elements_want);
}

/// `gather_into` a buffer outside the pool and `scatter_from` one back,
/// against the generic walk.
fn check_cross_pool_copies(layout: &CompiledLayout, count: u64, seed: u64) {
    let (fp, total) = (layout.footprint(count), layout.total_bytes(count));
    let mut rng = Pcg32::seeded(seed);

    let elements = random_bytes(&mut rng, fp);
    let mut packed_want = vec![0u8; total as usize];
    pack_into_generic(&elements, layout, count, &mut packed_want);
    let (mut dev, elems, _) = pool_with_regions(fp, 0, false);
    dev.write(elems, &elements);
    let dev_before = image(&dev);
    // A few sentinel bytes of slack past the packed image stay untouched.
    let mut out = vec![SENTINEL; total as usize + 3];
    let n = dev.gather_into(layout, elems.addr, count, &mut out);
    assert_eq!(n, total);
    assert_eq!(image(&dev), dev_before);
    assert_eq!(&out[..total as usize], &packed_want[..]);
    assert!(out[total as usize..].iter().all(|&b| b == SENTINEL));

    let payload = random_bytes(&mut rng, total);
    let mut elements_want = vec![SENTINEL; fp as usize];
    unpack_generic(&payload, layout, count, &mut elements_want);
    let (mut dev, elems, _) = pool_with_regions(fp, 0, false);
    let before = image(&dev);
    let n = dev.scatter_from(&payload, layout, elems.addr, count);
    assert_eq!(n, total);
    assert_only_region_changed(&before, &image(&dev), elems, &elements_want);
}

proptest! {
    // Cheap cases (small pools), so run more of them than the default.
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Within one pool: a copy into a packed image equals the generic
    /// pack walk, one out of it equals the generic unpack walk (gap bytes
    /// keep their sentinel), nothing else moves.
    #[test]
    fn pool_copies_match_host_pack(
        t in arb_type(2),
        count in 1u64..4,
        seed in 0u64..500,
        packed_first in any::<bool>(),
    ) {
        check_pool_copies(&CompiledLayout::of(&t), count, seed, packed_first);
    }

    /// The same within-pool and cross-pool checks on the indexed rung,
    /// across every run width and padded extents.
    #[test]
    fn indexed_runs_pool_copies_match_generic_walk(
        (t, width) in arb_equal_width_runs(),
        count in 1u64..=4,
        seed in 0u64..500,
        packed_first in any::<bool>(),
    ) {
        let layout = CompiledLayout::of(&t);
        let plan = layout.plan_for(count);
        prop_assert!(
            plan == CopyPlan::IndexedRuns { width } || matches!(plan, CopyPlan::Memcpy { .. }),
            "unexpected plan {:?} for width {}", plan, width
        );
        check_pool_copies(&layout, count, seed, packed_first);
        check_cross_pool_copies(&layout, count, seed);
    }

    /// Across the pool boundary: `gather_into` an outside buffer and
    /// `scatter_from` one back agree with the generic walk byte for byte.
    #[test]
    fn cross_pool_copies_match_host_pack(
        t in arb_type(2),
        count in 1u64..4,
        seed in 0u64..500,
    ) {
        check_cross_pool_copies(&CompiledLayout::of(&t), count, seed);
    }

    /// Timing-only pools count bytes in O(1) and write nothing.
    #[test]
    fn model_only_copies_count_without_writing(t in arb_type(2), count in 1u64..4) {
        let layout = CompiledLayout::of(&t);
        let total = layout.total_bytes(count);
        let mut pool = MemPool::new(1 << 40, DataMode::ModelOnly);
        let elems = pool.alloc(layout.footprint(count), 64);
        let packed = pool.alloc(total, 64);
        let bytes = CompiledLayout::of(&TypeBuilder::byte());
        let (at, image) = (
            Elements::new(&layout, elems.addr, count),
            Elements::new(&bytes, packed.addr, total),
        );
        prop_assert_eq!(pool.copy_within(at, image, &mut Vec::new()), total);
        prop_assert_eq!(pool.copy_within(image, at, &mut Vec::new()), total);
        let mut out = vec![SENTINEL; total as usize];
        prop_assert_eq!(pool.gather_into(&layout, elems.addr, count, &mut out), total);
        prop_assert!(out.iter().all(|&b| b == SENTINEL), "ModelOnly gather wrote bytes");
        prop_assert_eq!(pool.scatter_from(&out, &layout, elems.addr, count), total);
        prop_assert!(pool.read(elems).is_empty());
    }
}
