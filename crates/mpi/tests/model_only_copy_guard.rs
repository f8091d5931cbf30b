//! Release-mode guard: a timing-only copy costs O(1) per message.
//!
//! The fused kernel is modelled from each request's shape (bytes and block
//! count), so a `DataMode::ModelOnly` run never needs a datatype's segment
//! list after commit: the pools' plan-driven gather and scatter answer with
//! `total_bytes(count)`. If a per-message segment walk creeps back in, host
//! time grows with the segment count even though no byte moves.
//!
//! The guard runs two 2-rank Proposed exchanges that differ only in segment
//! count: equal packed bytes, both rendezvous, one type with 64x the
//! segments of the other. The few-segment type has 1 KB runs (Generic);
//! the many-segment type has 16-byte runs, so it compiles to the indexed
//! rung, whose Full-mode copies walk an offset table — a ModelOnly copy
//! must touch neither table. Same protocol path, so the
//! simulations process the same number of events; interleaved same-process
//! timing then requires the many-segment run to stay within 1.5x of the
//! few-segment one. Measured on a 2-vCPU VM: 1.09x with O(1) copies (the
//! remainder is the one-time commit of the larger type), 5.9x with the
//! earlier per-message segment walk.
//!
//! Debug builds skip the guard — unoptimised timing proves nothing.

#![cfg(not(debug_assertions))]

use fusedpack_datatype::{CompiledLayout, LayoutClass, TypeBuilder, TypeDesc};
use fusedpack_gpu::DataMode;
use fusedpack_mpi::{AppOp, BufInit, ClusterBuilder, Program, RankId, SchemeKind, TypeSlot};
use fusedpack_net::Platform;
use std::sync::Arc;
use std::time::Instant;

const PACKED_BYTES: u64 = 64 * 1024;
const MSGS: u32 = 16;
const LAPS: usize = 160;

/// `blocks` runs of equal length carrying `PACKED_BYTES` in total, with
/// gaps cycling through 1, 2 and 3 floats so no constant stride exists.
/// Runs wider than `FIXED_RUN_WIDTH_MAX` classify Generic; narrower ones
/// IndexedRuns.
fn irregular(blocks: u64) -> Arc<TypeDesc> {
    let blocklen = PACKED_BYTES / 4 / blocks;
    let mut disp = 0;
    let disps: Vec<u64> = (0..blocks)
        .map(|i| {
            let d = disp;
            disp += blocklen + 1 + i % 3;
            d
        })
        .collect();
    TypeBuilder::indexed_block(&disps, blocklen, TypeBuilder::float())
}

/// Each rank posts `MSGS` receives and `MSGS` sends of one element per
/// lap, one buffer per message, then waits.
fn program(desc: &Arc<TypeDesc>, peer: RankId) -> Program {
    let len = CompiledLayout::of(desc).footprint(1);
    let mut p = Program::new();
    let rbufs: Vec<_> = (0..MSGS).map(|_| p.buffer(len, BufInit::Zero)).collect();
    let sbufs: Vec<_> = (0..MSGS).map(|_| p.buffer(len, BufInit::Zero)).collect();
    p.push(AppOp::Commit {
        slot: TypeSlot(0),
        desc: desc.clone(),
    });
    for _ in 0..LAPS {
        for (tag, &buf) in (0..MSGS).zip(&rbufs) {
            p.push(AppOp::Irecv {
                buf,
                ty: TypeSlot(0),
                count: 1,
                src: peer,
                tag,
            });
        }
        for (tag, &buf) in (0..MSGS).zip(&sbufs) {
            p.push(AppOp::Isend {
                buf,
                ty: TypeSlot(0),
                count: 1,
                dst: peer,
                tag,
            });
        }
        p.push(AppOp::Waitall);
    }
    p
}

/// One timed exchange between ranks on two nodes: `(events, ns)`.
fn exchange(programs: &(Program, Program)) -> (u64, f64) {
    let (p0, p1) = programs.clone();
    let start = Instant::now();
    let mut cluster = ClusterBuilder::new(Platform::lassen(), SchemeKind::fusion_default())
        .data_mode(DataMode::ModelOnly)
        .add_rank(0, p0)
        .add_rank(1, p1)
        .build();
    let events = cluster.run().events_processed;
    (events, start.elapsed().as_nanos() as f64)
}

fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    samples[samples.len() / 2]
}

#[test]
fn model_only_copy_cost_is_independent_of_segment_count() {
    let few = irregular(64);
    let many = irregular(64 * 64);
    let (lf, lm) = (CompiledLayout::of(&few), CompiledLayout::of(&many));
    assert_eq!(lf.size(), lm.size(), "equal packed bytes");
    assert!(PACKED_BYTES > Platform::lassen().eager_limit, "rendezvous");
    assert_eq!(lf.class(), LayoutClass::Generic, "1 KB irregular runs");
    assert_eq!(lm.class(), LayoutClass::IndexedRuns, "16 B irregular runs");
    assert_eq!(lm.num_blocks(), 64 * lf.num_blocks());

    // Same protocol path: the simulations differ only in virtual time.
    let few = (program(&few, RankId(1)), program(&few, RankId(0)));
    let many = (program(&many, RankId(1)), program(&many, RankId(0)));
    let (events_few, _) = exchange(&few);
    let (events_many, _) = exchange(&many);
    assert_eq!(events_few, events_many, "events_processed must match");

    // Interleave the two so machine-speed drift hits both sides equally.
    let mut few_ns = Vec::new();
    let mut many_ns = Vec::new();
    for _ in 0..15 {
        few_ns.push(exchange(&few).1);
        many_ns.push(exchange(&many).1);
    }
    let (few_ns, many_ns) = (median(few_ns), median(many_ns));
    assert!(
        many_ns < 1.5 * few_ns,
        "ModelOnly exchange with 64x the segments took {many_ns:.0} ns vs \
         {few_ns:.0} ns ({:.2}x >= 1.5x): a per-message segment walk is back",
        many_ns / few_ns
    );
}
