//! Differential test of the layout-to-layout copy.
//!
//! `pack::copy` moves elements of one layout straight into elements of
//! another, with no packed image between them. For pairs of equal packed
//! size drawn from the shared generators — one tree on both sides, a tree
//! against `contiguous` bytes of its size (either way round), two
//! unrelated trees, and two equal-width run layouts (the offset-table
//! zip) — at counts above 1, it must leave the destination exactly as host
//! `pack` → `unpack` does, and so must the general run-list zip
//! (`pack::copy_zip`) whichever path `copy` takes. The destination starts
//! filled with a sentinel, and every byte outside its layout's segments
//! must still hold it.

mod common;

use common::{arb_equal_width_runs, arb_type};
use fusedpack_datatype::pack::{copy, copy_zip, pack, unpack};
use fusedpack_datatype::{CompiledLayout, TypeBuilder, TypeDesc};
use fusedpack_sim::Pcg32;
use proptest::prelude::*;
use std::sync::Arc;

const SENTINEL: u8 = 0xA5;
/// Largest buffer either side may span.
const MAX_FOOTPRINT: u64 = 512 * 1024;

/// A send type and count, and a receive type and count, of one packed
/// size.
type Pair = (Arc<TypeDesc>, u64, Arc<TypeDesc>, u64);

/// `k` times the least common multiple of the two element sizes, as
/// element counts of each side (each at least `k`).
fn with_counts(send: Arc<TypeDesc>, recv: Arc<TypeDesc>, k: u64) -> Pair {
    let (ss, rs) = (send.size(), recv.size());
    let (mut a, mut b) = (ss, rs);
    while b != 0 {
        (a, b) = (b, a % b);
    }
    let lcm = ss / a * rs;
    (send, k * lcm / ss, recv, k * lcm / rs)
}

/// One run of `width` bytes per entry of `gaps`, each followed by its
/// gap, the extent padded by `pad`.
fn runs_of_width(width: u64, gaps: &[u64], pad: u64) -> Arc<TypeDesc> {
    let mut disp = 0;
    let blocks: Vec<(u64, u64)> = gaps
        .iter()
        .map(|&gap| {
            let d = disp;
            disp += width + gap;
            (d, width)
        })
        .collect();
    let runs = TypeBuilder::hindexed(&blocks, TypeBuilder::byte());
    TypeBuilder::resized(runs.extent() + pad, runs)
}

fn arb_pair() -> BoxedStrategy<Pair> {
    prop_oneof![
        (arb_type(2), 2u64..5).prop_map(|(t, c)| (t.clone(), c, t, c)),
        (arb_type(2), 2u64..5, any::<bool>()).prop_map(|(t, c, flip)| {
            let flat = TypeBuilder::contiguous(t.size(), TypeBuilder::byte());
            if flip {
                (flat, c, t, c)
            } else {
                (t, c, flat, c)
            }
        }),
        (arb_type(2), arb_type(2), 2u64..4).prop_map(|(a, b, k)| with_counts(a, b, k)),
        (
            arb_equal_width_runs(),
            prop::collection::vec(1u64..24, 1..40),
            0u64..16,
            2u64..4,
        )
            .prop_map(|((a, width), gaps, pad, k)| {
                with_counts(a, runs_of_width(width, &gaps, pad), k)
            }),
    ]
    .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn copy_matches_pack_then_unpack(
        (send_ty, send_count, recv_ty, recv_count) in arb_pair(),
        seed in 0u64..1000,
    ) {
        let (send, recv) = (CompiledLayout::of(&send_ty), CompiledLayout::of(&recv_ty));
        prop_assume!(send.footprint(send_count) <= MAX_FOOTPRINT);
        prop_assume!(recv.footprint(recv_count) <= MAX_FOOTPRINT);
        prop_assert_eq!(send.total_bytes(send_count), recv.total_bytes(recv_count));

        let mut src = vec![0u8; send.footprint(send_count) as usize];
        Pcg32::seeded(seed).fill_bytes(&mut src);
        let len = recv.footprint(recv_count) as usize;
        let mut want = vec![SENTINEL; len];
        unpack(&pack(&src, &send, send_count), &recv, recv_count, &mut want);

        let mut got = vec![SENTINEL; len];
        copy(&src, &send, send_count, &mut got, &recv, recv_count);
        prop_assert!(got == want, "copy differs from pack -> unpack");
        let mut zipped = vec![SENTINEL; len];
        copy_zip(&src, &send, send_count, &mut zipped, &recv, recv_count);
        prop_assert!(zipped == want, "copy_zip differs from pack -> unpack");

        let mut covered = vec![false; len];
        for (addr, n) in recv.absolute_segments(0, recv_count) {
            covered[addr as usize..(addr + n) as usize].fill(true);
        }
        for (i, (&b, &c)) in got.iter().zip(&covered).enumerate() {
            prop_assert!(c || b == SENTINEL, "gap byte {} overwritten", i);
        }

        // One layout object on both sides, the halo's case, for every shape.
        let mut want = vec![SENTINEL; src.len()];
        unpack(&pack(&src, &send, send_count), &send, send_count, &mut want);
        let mut got = vec![SENTINEL; src.len()];
        copy(&src, &send, send_count, &mut got, &send, send_count);
        prop_assert!(got == want, "same-layout copy differs from pack -> unpack");
    }
}

#[test]
#[should_panic(expected = "packed size mismatch")]
fn copy_refuses_unequal_packed_sizes() {
    let t = CompiledLayout::of(&TypeBuilder::contiguous(4, TypeBuilder::byte()));
    copy(&[0; 8], &t, 2, &mut [0; 8], &t, 1);
}
