//! Datatype commits at cluster scope.
//!
//! Every rank's layout cache is modelled separately, so a type committed
//! by N ranks counts N misses in `RunReport::layout_cache`. The host work
//! behind those misses is shared: one table per cluster compiles each
//! distinct descriptor once, and `RunReport::layout_compiles` counts those
//! compiles. Both counts are exact, so these gates carry no timing noise.

use fusedpack_datatype::{CompiledLayout, TypeBuilder, TypeDesc};
use fusedpack_gpu::DataMode;
use fusedpack_mpi::{
    AppOp, BufInit, ClusterBuilder, Program, RankId, RunReport, SchemeKind, TypeSlot,
};
use fusedpack_net::{Hierarchy, Platform};
use fusedpack_workloads::halo::halo_programs;
use fusedpack_workloads::specfem::specfem3d_cm;
use fusedpack_workloads::HaloGrid;
use std::sync::Arc;

/// One lap of a 4³ torus halo (64 ranks, 16 Lassen-like nodes), timing
/// only, every rank committing the same specfem3D_cm type: one shared
/// descriptor `Arc`, or with `own_arcs` an equal tree in an `Arc` of its
/// own per rank.
fn halo_report_with(shards: u32, own_arcs: bool) -> RunReport {
    let grid = HaloGrid::new_3d(4, 4, 4);
    let platform = Platform::lassen();
    let gpus_per_node = platform.gpus_per_node;
    let nodes = grid.ranks().div_ceil(gpus_per_node);
    let mut builder = ClusterBuilder::new(platform, SchemeKind::fusion_default())
        .data_mode(DataMode::ModelOnly)
        .shards(shards)
        .topology(Arc::new(Hierarchy::lassen_like(nodes)));
    for (rank, (mut program, _)) in halo_programs(&grid, &specfem3d_cm(64), 1, 1, 7)
        .into_iter()
        .enumerate()
    {
        for op in &mut program.ops {
            if let AppOp::Commit { desc, .. } = op {
                if own_arcs {
                    *desc = Arc::new(TypeDesc::clone(desc));
                }
            }
        }
        builder = builder.add_rank(rank as u32 / gpus_per_node, program);
    }
    builder.build().run()
}

fn halo_report(shards: u32) -> RunReport {
    halo_report_with(shards, false)
}

/// The table finds a descriptor `Arc` it has seen by its address, and an
/// equal tree in another `Arc` by its structure: ranks that each commit
/// their own copy still share one compile, and the model counts exactly
/// what it counts when they share one `Arc`.
#[test]
fn equal_trees_in_distinct_arcs_share_one_layout() {
    for shards in [1, 2] {
        let shared = halo_report_with(shards, false);
        let own = halo_report_with(shards, true);
        assert_eq!(own.layout_compiles, 1, "shards {shards}");
        assert_eq!(own.layout_cache, shared.layout_cache, "shards {shards}");
        assert_eq!(own.laps, shared.laps, "shards {shards}");
    }
}

#[test]
fn halo_compiles_its_type_once_per_cluster() {
    for shards in [1, 2] {
        let report = halo_report(shards);
        if shards > 1 {
            assert_eq!(report.shard.shards, shards, "the sharded loop ran");
        }
        assert_eq!(report.layout_compiles, 1, "shards {shards}");
        assert_eq!(report.layout_cache.misses(), 64, "shards {shards}");
    }
}

/// The 4³ halo's merged cache counters, pinned: one miss and one
/// commit-time lookup hit per rank, one acquire hit per message (12 per
/// rank), and one specfem3D_cm(64) layout resident per rank. These are the
/// values the earlier sharded LRU cache reported, at either shard count.
#[test]
fn halo_cache_counters_are_pinned_at_any_shard_count() {
    for shards in [1, 2] {
        let lc = halo_report(shards).layout_cache;
        assert_eq!(lc.hits(), 832, "shards {shards}");
        assert_eq!(lc.misses(), 64, "shards {shards}");
        assert_eq!(lc.resident_bytes(), 302_080, "shards {shards}");
        assert_eq!((lc.commits(), lc.lookups()), (64, 64), "shards {shards}");
    }
}

/// A 2-rank request/response loop in the shape of `reproduce serve`:
/// batches of sends and receives of one committed type.
#[test]
fn serve_pair_compiles_once_and_misses_per_rank() {
    let desc = TypeBuilder::vector(64, 2, 3, TypeBuilder::float());
    let len = CompiledLayout::of(&desc).footprint(1);
    let program = |peer: RankId| {
        let mut p = Program::new();
        let sbuf = p.buffer(len, BufInit::Zero);
        let rbuf = p.buffer(len, BufInit::Zero);
        p.push(AppOp::Commit {
            slot: TypeSlot(0),
            desc: desc.clone(),
        });
        for _ in 0..4 {
            for tag in 0..8 {
                p.push(AppOp::Irecv {
                    buf: rbuf,
                    ty: TypeSlot(0),
                    count: 1,
                    src: peer,
                    tag,
                });
                p.push(AppOp::Isend {
                    buf: sbuf,
                    ty: TypeSlot(0),
                    count: 1,
                    dst: peer,
                    tag,
                });
            }
            p.push(AppOp::Waitall);
        }
        p
    };
    let report = ClusterBuilder::new(Platform::lassen(), SchemeKind::fusion_default())
        .data_mode(DataMode::ModelOnly)
        .add_rank(0, program(RankId(1)))
        .add_rank(1, program(RankId(0)))
        .build()
        .run();
    assert_eq!(report.layout_compiles, 1);
    assert_eq!(report.layout_cache.misses(), 2);
}

/// A message on a slot the program never committed is a program bug; it
/// must not borrow the type of whichever slot was committed last.
#[test]
#[should_panic(expected = "uncommitted type slot 0 on rank 0")]
fn send_on_an_uncommitted_slot_panics() {
    let mut p0 = Program::new();
    let buf = p0.buffer(64, BufInit::Zero);
    p0.push(AppOp::Commit {
        slot: TypeSlot(2),
        desc: TypeBuilder::contiguous(4, TypeBuilder::int()),
    });
    p0.push(AppOp::Isend {
        buf,
        ty: TypeSlot(0),
        count: 1,
        dst: RankId(1),
        tag: 0,
    });
    p0.push(AppOp::Waitall);
    ClusterBuilder::new(Platform::lassen(), SchemeKind::fusion_default())
        .add_rank(0, p0)
        .add_rank(1, Program::new())
        .build()
        .run();
}
