//! Release-mode guard: a DirectIPC copy moves each byte once.
//!
//! A same-node DirectIPC receive copies the sender's elements straight
//! into its own layout ([`MemPool::copy_to`]), where it used to gather
//! them into a bounce buffer and scatter them back out: 2|X| of memory
//! traffic against 4|X|. The guard copies one specfem3D_cm(512) element
//! (three fields of 4-byte boundary values at irregular offsets, the
//! layout of the halo benchmark) from one pool into another, and times
//! each copy against gather → buffer → scatter of the same pair of
//! layouts, interleaved in one process so host-speed drift hits both
//! sides, medians compared:
//!
//! * the halo's case, one layout on both sides: at least 1.1x (measured
//!   1.35–1.42x on a 2-vCPU Xeon VM). A copy that packs into a buffer
//!   and unpacks from it read 0.88x;
//! * a receive layout of the same signature at other offsets: at least
//!   1.05x (measured 1.17–1.41x).
//!
//! Both are indexed runs of width 4, so both zip the two offset tables
//! with fixed-width moves. The general run-list zip
//! ([`fusedpack_datatype::pack::copy_zip`]) read 0.13x here, so losing
//! the fixed-width zip trips either check.
//!
//! A third row sends a generic tree (blocks of one and two floats, the
//! same packed size) into the specfem element. No table zip applies, so
//! the copy packs the tree into the caller's scratch and unpacks it into
//! the element, each side through its own plan: the same work as gather
//! → buffer → scatter, so at least 0.9x of it (measured 0.97–1.01x, where
//! a fresh packed image per copy read 0.95–0.96x). Zipping the two run
//! lists instead read 0.46x (10.6 µs against 4.5 µs).
//!
//! The layout is rebuilt here with the same recipe as
//! `fusedpack_workloads::specfem::specfem3d_cm` (this crate cannot depend
//! on the workloads crate); the guard needs its shape, not its exact
//! displacements.
//!
//! Debug builds skip the guard — unoptimised timing proves nothing.

#![cfg(not(debug_assertions))]

use fusedpack_datatype::{CompiledLayout, CopyPlan, TypeBuilder, TypeDesc};
use fusedpack_gpu::{DataMode, DevPtr, Elements, MemPool};
use fusedpack_sim::Pcg32;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

const POINTS: u64 = 512;
const COPIES_PER_SAMPLE: u32 = 200;
const ROUNDS: usize = 21;

/// Three indexed fields of `POINTS` single floats, displacements 2–4
/// floats apart (drawn from `seed`), the fields spaced by their
/// 64-byte-rounded footprint.
fn specfem_cm(seed: u64) -> Arc<TypeDesc> {
    let mut rng = Pcg32::new(seed, 0x5eef);
    let mut disp = 0u64;
    let disps: Vec<u64> = (0..POINTS)
        .map(|_| {
            let d = disp;
            disp += 2 + rng.next_below(3) as u64;
            d
        })
        .collect();
    let field = TypeBuilder::indexed_block(&disps, 1, TypeBuilder::float());
    let stride = (field.extent() + 63) & !63;
    TypeBuilder::structure(&[
        (0, 1, field.clone()),
        (stride, 1, field.clone()),
        (2 * stride, 1, field),
    ])
}

/// A generic tree of the same packed size as [`specfem_cm`]: `POINTS`
/// blocks of one and two floats in turn, 2–4 floats apart.
fn mixed_runs(seed: u64) -> Arc<TypeDesc> {
    let mut rng = Pcg32::new(seed, 0x5eef);
    let mut disp = 0u64;
    let blocks: Vec<(u64, u64)> = (0..POINTS)
        .map(|i| {
            let block = (disp, 1 + i % 2);
            disp += block.1 + 1 + rng.next_below(3) as u64;
            block
        })
        .collect();
    let field = TypeBuilder::indexed(&blocks, TypeBuilder::float());
    TypeBuilder::structure(&[(0, 1, field.clone()), (field.extent(), 1, field)])
}

/// A Full pool holding one random element of `layout`.
fn pool_with(layout: &CompiledLayout, seed: u64) -> (MemPool, DevPtr) {
    let len = layout.footprint(1);
    let mut pool = MemPool::new(len, DataMode::Full);
    let ptr = pool.alloc(len, 1);
    pool.write_with(ptr, |bytes| Pcg32::seeded(seed).fill_bytes(bytes));
    (pool, ptr)
}

fn sample(f: &mut impl FnMut()) -> f64 {
    let start = Instant::now();
    for _ in 0..COPIES_PER_SAMPLE {
        f();
    }
    start.elapsed().as_nanos() as f64 / f64::from(COPIES_PER_SAMPLE)
}

fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    samples[samples.len() / 2]
}

/// Median ns per copy of one element of `send` into one of `recv`: the
/// one-pass copy, and gather → buffer → scatter. Both must leave the
/// receive pool with the same bytes.
fn time_pair(send: &CompiledLayout, recv: &CompiledLayout) -> (f64, f64) {
    let (peer, src) = pool_with(send, 7);
    let (mut one, dst) = pool_with(recv, 8);
    let mut two = one.clone();
    let from = Elements::new(send, src.addr, 1);
    let to = Elements::new(recv, dst.addr, 1);
    let mut bounce = vec![0u8; send.total_bytes(1) as usize];
    let mut scratch = Vec::new();
    let mut copy = || {
        black_box(&peer).copy_to(from, &mut one, to, &mut scratch);
    };
    let mut staged = || {
        black_box(&peer).gather_into(send, src.addr, 1, &mut bounce);
        two.scatter_from(&bounce, recv, dst.addr, 1);
    };
    sample(&mut copy);
    sample(&mut staged);
    let (mut copy_ns, mut staged_ns) = (Vec::new(), Vec::new());
    for _ in 0..ROUNDS {
        copy_ns.push(sample(&mut copy));
        staged_ns.push(sample(&mut staged));
    }
    assert_eq!(
        one.read(dst),
        two.read(dst),
        "both paths move the same bytes"
    );
    (median(copy_ns), median(staged_ns))
}

#[test]
fn one_pass_copies_beat_gather_buffer_scatter() {
    let send = CompiledLayout::of(&specfem_cm(0xc3));
    let other = (1..)
        .map(|seed| CompiledLayout::of(&specfem_cm(seed)))
        .find(|l| l.plan_for(1) == send.plan_for(1) && *l != send)
        .expect("an IndexedRuns layout with other offsets");
    assert_eq!(send.plan_for(1), CopyPlan::IndexedRuns { width: 4 });
    assert_eq!(send.num_blocks(), 3 * POINTS);
    assert_ne!(send, other);
    assert_eq!(send.total_bytes(1), other.total_bytes(1));

    let mixed = CompiledLayout::of(&mixed_runs(0xc3));
    assert_eq!(mixed.plan_for(1), CopyPlan::Generic);
    assert_eq!(mixed.total_bytes(1), send.total_bytes(1));

    let (same_ns, staged_same_ns) = time_pair(&send, &send);
    let (zip_ns, staged_zip_ns) = time_pair(&send, &other);
    let (tree_ns, staged_tree_ns) = time_pair(&mixed, &send);
    let (same, zip) = (staged_same_ns / same_ns, staged_zip_ns / zip_ns);
    let tree = staged_tree_ns / tree_ns;
    assert!(
        same >= 1.1,
        "shared-layout copy took {same_ns:.0} ns vs {staged_same_ns:.0} ns through a bounce \
         buffer ({same:.2}x < 1.1x)"
    );
    assert!(
        zip >= 1.05,
        "offset-table zip took {zip_ns:.0} ns vs {staged_zip_ns:.0} ns through a bounce buffer \
         ({zip:.2}x < 1.05x)"
    );
    assert!(
        tree >= 0.9,
        "generic-tree copy took {tree_ns:.0} ns vs {staged_tree_ns:.0} ns through a bounce \
         buffer ({tree:.2}x < 0.9x)"
    );
}
