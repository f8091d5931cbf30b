//! Differential test of the indexed copy rung.
//!
//! Layouts of equal-width runs up to `FIXED_RUN_WIDTH_MAX` bytes compile
//! to `CopyPlan::IndexedRuns`, whose kernels walk a `u32` offset table
//! instead of the segment list. For every width 1–32 and counts 1–4 over
//! padded extents, they must produce exactly the bytes of the generic
//! segment walk, and unpack must leave every gap byte untouched.

mod common;

use common::arb_equal_width_runs;
use fusedpack_datatype::pack::{pack_into, pack_into_generic, unpack, unpack_generic};
use fusedpack_datatype::{CompiledLayout, CopyPlan};
use fusedpack_sim::Pcg32;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn indexed_runs_match_the_generic_walk(
        (t, width) in arb_equal_width_runs(),
        count in 1u64..=4,
        seed in 0u64..1000,
    ) {
        let l = CompiledLayout::of(&t);
        let plan = l.plan_for(count);
        // Normalization may fold a lone run at offset 0 into a memcpy;
        // everything else must take the indexed rung at its width.
        prop_assert!(
            plan == CopyPlan::IndexedRuns { width } || matches!(plan, CopyPlan::Memcpy { .. }),
            "unexpected plan {:?} for width {}", plan, width
        );
        let mut rng = Pcg32::seeded(seed);

        let mut src = vec![0u8; l.footprint(count) as usize];
        rng.fill_bytes(&mut src);
        let mut fast = vec![0u8; l.total_bytes(count) as usize];
        let mut generic = vec![0xAB; fast.len()];
        pack_into(&src, &l, count, &mut fast);
        pack_into_generic(&src, &l, count, &mut generic);
        prop_assert_eq!(&fast, &generic);

        let mut packed = vec![0u8; fast.len()];
        rng.fill_bytes(&mut packed);
        let mut fast = vec![0xEE; l.footprint(count) as usize];
        let mut generic = fast.clone();
        unpack(&packed, &l, count, &mut fast);
        unpack_generic(&packed, &l, count, &mut generic);
        prop_assert_eq!(&fast, &generic);
        let mut gap = vec![true; fast.len()];
        for (addr, len) in l.absolute_segments(0, count) {
            gap[addr as usize..(addr + len) as usize].fill(false);
        }
        prop_assert!(fast.iter().zip(&gap).all(|(&b, &g)| !g || b == 0xEE), "gap byte written");
    }
}
