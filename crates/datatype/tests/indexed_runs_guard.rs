//! Release-mode guard: the indexed copy rung must beat the segment walk.
//!
//! specfem3D_cm, the paper's hardest sparse layout (§V-A), is three
//! fields of 4-byte boundary values at irregular offsets: no constant
//! stride, so before the indexed rung every copy took the generic
//! per-segment walk. The guard packs one 512-point element through
//! `pack_into` (4-byte moves over the compiled offset table) and through
//! `pack_into_generic`, interleaved in one process so host-speed drift
//! hits both sides, and requires the plan to be at least 2x faster by
//! median. Measured on a 2-vCPU Xeon VM: 6.5–7x.
//!
//! The layout is rebuilt here with the same recipe as
//! `fusedpack_workloads::specfem::specfem3d_cm` (this crate cannot depend
//! on the workloads crate); the guard needs its shape, not its exact
//! displacements.
//!
//! Debug builds skip the guard — unoptimised timing proves nothing.

#![cfg(not(debug_assertions))]

use fusedpack_datatype::pack::{pack_into, pack_into_generic};
use fusedpack_datatype::{CompiledLayout, CopyPlan, TypeBuilder, TypeDesc};
use fusedpack_sim::Pcg32;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

const POINTS: u64 = 512;
const PACKS_PER_SAMPLE: u32 = 200;
const ROUNDS: usize = 21;

/// Three indexed fields of `POINTS` single floats, displacements 2–4
/// floats apart, the fields spaced by their 64-byte-rounded footprint.
fn specfem_cm() -> Arc<TypeDesc> {
    let mut rng = Pcg32::new(0xc3, 0x5eef);
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

fn sample(f: &mut impl FnMut()) -> f64 {
    let start = Instant::now();
    for _ in 0..PACKS_PER_SAMPLE {
        f();
    }
    start.elapsed().as_nanos() as f64 / f64::from(PACKS_PER_SAMPLE)
}

fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    samples[samples.len() / 2]
}

#[test]
fn indexed_runs_pack_is_at_least_twice_the_generic_walk() {
    let layout = CompiledLayout::of(&specfem_cm());
    assert_eq!(layout.plan_for(1), CopyPlan::IndexedRuns { width: 4 });
    assert_eq!(layout.num_blocks(), 3 * POINTS);

    let mut src = vec![0u8; layout.footprint(1) as usize];
    Pcg32::seeded(7).fill_bytes(&mut src);
    let mut fast = vec![0u8; layout.total_bytes(1) as usize];
    let mut generic = vec![0u8; fast.len()];
    pack_into(&src, &layout, 1, &mut fast);
    pack_into_generic(&src, &layout, 1, &mut generic);
    assert_eq!(fast, generic, "the rung must move the generic walk's bytes");

    let mut plan = || pack_into(black_box(&src), &layout, 1, &mut fast);
    let mut walk = || pack_into_generic(black_box(&src), &layout, 1, &mut generic);
    sample(&mut plan);
    sample(&mut walk);
    let mut plan_ns = Vec::new();
    let mut walk_ns = Vec::new();
    for _ in 0..ROUNDS {
        plan_ns.push(sample(&mut plan));
        walk_ns.push(sample(&mut walk));
    }
    let (plan_ns, walk_ns) = (median(plan_ns), median(walk_ns));
    assert!(
        walk_ns >= 2.0 * plan_ns,
        "indexed-runs pack took {plan_ns:.0} ns vs {walk_ns:.0} ns for the \
         generic walk ({:.2}x < 2x)",
        walk_ns / plan_ns
    );
}
