//! Property tests for the layout compiler pipeline.
//!
//! Two independent implementations exist on purpose: the canonical-IR
//! path (`normalize` → rewrite → `compile`) that production uses, and the
//! pre-IR direct tree walk kept here as `common::flatten_reference`. These tests
//! generate random nested type trees — including shapes none of the unit
//! tests cover — and require the two to agree byte-for-byte, both on the
//! segment lists and on the packed images every copy tier produces.
//!
//! Also here: the law that sharing one layout table between caches
//! changes nothing they model.

mod common;

use common::{arb_type, flatten_reference, leaf_block_upper_bound};
use fusedpack_datatype::cache::{LayoutCache, LayoutTable};
use fusedpack_datatype::ir::LayoutIr;
use fusedpack_datatype::pack::{pack_into, pack_into_generic, unpack, unpack_generic};
use fusedpack_datatype::{CompiledLayout, TypeBuilder, TypeDesc};
use proptest::prelude::*;
use std::sync::Arc;

/// The leaf-block bound counts pre-coalesce primitives.
#[test]
fn leaf_block_bound_counts_blocks() {
    let t = TypeBuilder::vector(4, 2, 5, TypeBuilder::double());
    // 4 blocks x 2 doubles each = 8 leaf primitives max.
    assert_eq!(leaf_block_upper_bound(&t), 8);
    let nested = TypeBuilder::vector(3, 1, 2, t);
    assert_eq!(leaf_block_upper_bound(&nested), 24);
}

proptest! {
    /// The IR-routed compile and the legacy tree walk emit identical
    /// segment lists on arbitrary nested trees.
    #[test]
    fn ir_flatten_matches_reference(t in arb_type(2)) {
        let compiled = CompiledLayout::of(&t);
        prop_assert_eq!(compiled.segments(), &flatten_reference(&t)[..]);
    }

    /// normalize → compile → execute produces byte-identical packed
    /// images to the legacy flatten + generic segment walk, across every
    /// copy tier the plan dispatch can select.
    #[test]
    fn compiled_plans_pack_byte_equal_to_legacy(
        t in arb_type(2),
        count in 1u64..4,
        seed in 0u64..500,
    ) {
        let compiled = CompiledLayout::of(&t);
        let legacy = CompiledLayout::from_segments(flatten_reference(&t), t.extent());
        prop_assert_eq!(compiled.segments(), legacy.segments());

        let fp = compiled.footprint(count) as usize;
        let mut rng = fusedpack_sim::Pcg32::seeded(seed);
        let mut src = vec![0u8; fp];
        rng.fill_bytes(&mut src);

        let total = compiled.total_bytes(count) as usize;
        let mut via_plan = vec![0u8; total];
        let mut via_legacy = vec![0u8; total];
        pack_into(&src, &compiled, count, &mut via_plan);
        pack_into_generic(&src, &legacy, count, &mut via_legacy);
        prop_assert_eq!(&via_plan, &via_legacy);

        // And back out: the plan-dispatched unpack scatters exactly like
        // the legacy generic loop, gaps untouched.
        let mut scat_plan = vec![0xEE; fp];
        let mut scat_legacy = vec![0xEE; fp];
        unpack(&via_plan, &compiled, count, &mut scat_plan);
        unpack_generic(&via_legacy, &legacy, count, &mut scat_legacy);
        prop_assert_eq!(&scat_plan, &scat_legacy);
    }

    /// The IR's exact run count really is exact: at least the coalesced
    /// segment count, at most the legacy upper bound, and the runs carry
    /// exactly the type's payload bytes in pack order.
    #[test]
    fn run_count_is_tight(t in arb_type(2)) {
        let ir = LayoutIr::normalize(&t);
        let segs = CompiledLayout::of(&t).segments().len();
        prop_assert!(ir.run_count() >= segs as u64);
        prop_assert!(ir.run_count() <= leaf_block_upper_bound(&t));
        let mut bytes = 0u64;
        ir.for_each_run(|_, len| bytes += len);
        prop_assert_eq!(bytes, t.size());
        prop_assert_eq!(ir.size(), t.size());
        prop_assert_eq!(ir.extent(), t.extent());
    }

    /// Sharing is invisible to the model: caches on one shared table and
    /// caches on private tables, driven through the same commits and
    /// per-message acquires, return equal costs and layouts and report
    /// identical stats. Every cache on the shared table gets the one `Arc`
    /// the table holds for a descriptor, and the shared table compiles each
    /// distinct descriptor exactly once.
    #[test]
    fn shared_table_is_invisible_to_the_model(
        types in prop::collection::vec(arb_type(2), 1..6),
        ops in prop::collection::vec((0u8..2, 0usize..3, 0usize..64), 1..80),
    ) {
        const K: usize = 3;
        let table = Arc::new(LayoutTable::new());
        let mut shared: Vec<LayoutCache> = (0..K)
            .map(|_| LayoutCache::with_table(Arc::clone(&table)))
            .collect();
        let mut private: Vec<LayoutCache> = (0..K).map(|_| LayoutCache::new()).collect();
        // Per cache: (shared layout, private layout, type index) per commit.
        type Committed = (Arc<CompiledLayout>, Arc<CompiledLayout>, usize);
        let mut committed: Vec<Vec<Committed>> = (0..K).map(|_| Vec::new()).collect();
        for (op, k, pick) in ops {
            match op {
                0 => {
                    let t = pick % types.len();
                    let (ls, cs) = shared[k].commit(&types[t]);
                    let (lp, cp) = private[k].commit(&types[t]);
                    prop_assert_eq!(cs, cp);
                    prop_assert_eq!(&*ls, &*lp);
                    for (other, _, ot) in committed.iter().flatten() {
                        prop_assert_eq!(Arc::ptr_eq(other, &ls), types[*ot] == types[t]);
                    }
                    committed[k].push((ls, lp, t));
                }
                _ if !committed[k].is_empty() => {
                    let (ls, lp, t) = &committed[k][pick % committed[k].len()];
                    let (ls, lp) = (shared[k].acquire(ls), private[k].acquire(lp));
                    let want = CompiledLayout::of(&types[*t]);
                    prop_assert_eq!(&*ls, &want);
                    prop_assert_eq!(&*lp, &want);
                }
                _ => {}
            }
            for c in 0..K {
                prop_assert_eq!(shared[c].layout_stats(), private[c].layout_stats());
            }
        }
        let mut distinct: Vec<&TypeDesc> = Vec::new();
        for &(_, _, t) in committed.iter().flatten() {
            if !distinct.contains(&&*types[t]) {
                distinct.push(&types[t]);
            }
        }
        prop_assert_eq!(table.compiles(), distinct.len() as u64);
    }
}
