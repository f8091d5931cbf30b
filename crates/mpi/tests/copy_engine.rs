//! The copy engine owns every byte a `DataMode::Full` run moves.
//!
//! A single-queue `Full` run hands its copy jobs to a worker thread beside
//! the event loop; each shard of a sharded run runs them as they are
//! submitted; a timing-only run submits none. These checks guard that:
//!
//! * a deterministic work counter: a `Full` halo on a 4³ torus runs
//!   exactly one pack and one unpack per staged message and one
//!   layout-to-layout copy per DirectIPC message, the same jobs on the
//!   worker (`shards(1)`) as inline (`shards(2)`), and none when timing
//!   only;
//! * a job that panics on the worker surfaces from `Cluster::run` with its
//!   own message instead of hanging the run;
//! * a panic on the event loop surfaces with its own message while the
//!   worker still holds jobs, instead of hanging on a worker that waits
//!   for more.

use fusedpack_datatype::TypeBuilder;
use fusedpack_gpu::DataMode;
use fusedpack_mpi::{
    AppOp, BufId, BufInit, Cluster, ClusterBuilder, CopyStats, Program, RankId, RunReport,
    SchemeKind, TypeSlot,
};
use fusedpack_net::{Hierarchy, Platform};
use fusedpack_workloads::halo::halo_programs;
use fusedpack_workloads::specfem::specfem3d_cm;
use fusedpack_workloads::HaloGrid;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// One lap of a 4³ torus halo (64 ranks on 16 Lassen-like nodes) of
/// specfem3D_cm(64) through the fused scheme, with its count of staged
/// (off-node) and DirectIPC (on-node) messages.
fn halo(mode: DataMode, shards: u32) -> (RunReport, u64, u64) {
    let grid = HaloGrid::new_3d(4, 4, 4);
    let platform = Platform::lassen();
    let gpus_per_node = platform.gpus_per_node;
    let nodes = grid.ranks().div_ceil(gpus_per_node);
    let node = |rank: u32| rank / gpus_per_node;
    let mut builder = ClusterBuilder::new(platform, SchemeKind::fusion_default())
        .data_mode(mode)
        .shards(shards)
        .topology(Arc::new(Hierarchy::lassen_like(nodes)));
    let (mut staged, mut direct) = (0, 0);
    for (rank, (program, _)) in halo_programs(&grid, &specfem3d_cm(64), 1, 1, 7)
        .into_iter()
        .enumerate()
    {
        let rank = rank as u32;
        for op in &program.ops {
            if let AppOp::Isend { dst, .. } = op {
                if node(rank) == node(dst.0) {
                    direct += 1;
                } else {
                    staged += 1;
                }
            }
        }
        builder = builder.add_rank(node(rank), program);
    }
    (builder.build().run(), staged, direct)
}

/// The deterministic part of a run's copy counters.
fn jobs_only(stats: CopyStats) -> CopyStats {
    CopyStats {
        busy_wall_ns: 0,
        blocked_wall_ns: 0,
        ..stats
    }
}

#[test]
fn a_full_halo_runs_one_job_per_data_movement_on_the_worker_or_inline() {
    let (worker, staged, direct) = halo(DataMode::Full, 1);
    assert!(staged > 0 && direct > 0);
    let want = CopyStats {
        packs: staged,
        unpacks: staged,
        copies: direct,
        ..CopyStats::default()
    };
    assert_eq!(jobs_only(worker.copy), want);
    assert_eq!(worker.copy.jobs(), 2 * staged + direct);
    assert!(worker.copy.busy_wall_ns > 0, "the worker ran the jobs");

    let (inline, ..) = halo(DataMode::Full, 2);
    assert_eq!(inline.shard.shards, 2, "the sharded loop ran");
    assert_eq!(jobs_only(inline.copy), want);
    assert_eq!(inline.copy.blocked_wall_ns, 0, "inline jobs never queue");
    assert_eq!(inline.laps, worker.laps);

    let (model, ..) = halo(DataMode::ModelOnly, 1);
    assert_eq!(
        model.copy,
        CopyStats::default(),
        "timing-only runs copy nothing"
    );
    assert_eq!(model.laps, worker.laps);
}

/// The message of a caught panic.
fn message(panic: Box<dyn std::any::Any + Send>) -> String {
    match panic.downcast::<String>() {
        Ok(s) => *s,
        Err(panic) => panic
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .unwrap_or_default(),
    }
}

/// A single rank that explicitly packs 16 strided ints (64 packed bytes)
/// into an 8-byte buffer, the last in its pool: the copy runs off the end
/// of the pool.
fn overflowing_pack(mode: DataMode) -> Cluster {
    let mut p = Program::new();
    let src = p.buffer(128, BufInit::Random(3));
    let dst = p.buffer(8, BufInit::Zero);
    p.push(AppOp::Commit {
        slot: TypeSlot(0),
        desc: TypeBuilder::vector(16, 1, 2, TypeBuilder::int()),
    });
    p.push(AppOp::Pack {
        src,
        ty: TypeSlot(0),
        count: 1,
        dst,
    });
    ClusterBuilder::new(Platform::lassen(), SchemeKind::GpuSync)
        .data_mode(mode)
        .add_rank(0, p)
        .build()
}

#[test]
fn a_job_that_panics_on_the_worker_fails_the_run_with_its_message() {
    // Timing only, nothing moves, so nothing fails.
    overflowing_pack(DataMode::ModelOnly).run();
    let mut cluster = overflowing_pack(DataMode::Full);
    let panic = catch_unwind(AssertUnwindSafe(|| cluster.run())).expect_err("the copy overran");
    let msg = message(panic);
    assert!(
        msg.contains("out of range for slice of length 8"),
        "the worker's own message, got {msg:?}"
    );
}

#[test]
fn a_panic_on_the_event_loop_surfaces_while_the_worker_holds_jobs() {
    // Rank 0 packs 64 strided messages first; rank 1 then sends on a slot
    // it never committed, which the event loop refuses.
    let desc = TypeBuilder::vector(512, 1, 2, TypeBuilder::int());
    let mut p0 = Program::new();
    let buf = p0.buffer(4096, BufInit::Random(5));
    p0.push(AppOp::Commit {
        slot: TypeSlot(0),
        desc,
    });
    for tag in 0..64 {
        p0.push(AppOp::Isend {
            buf,
            ty: TypeSlot(0),
            count: 1,
            dst: RankId(1),
            tag,
        });
    }
    p0.push(AppOp::Waitall);
    let mut p1 = Program::new();
    p1.buffer(64, BufInit::Zero);
    p1.push(AppOp::Isend {
        buf: BufId(0),
        ty: TypeSlot(0),
        count: 1,
        dst: RankId(0),
        tag: 0,
    });
    let mut cluster = ClusterBuilder::new(Platform::lassen(), SchemeKind::GpuSync)
        .add_rank(0, p0)
        .add_rank(1, p1)
        .build();
    let panic = catch_unwind(AssertUnwindSafe(|| cluster.run())).expect_err("rank 1 is wrong");
    assert_eq!(message(panic), "uncommitted type slot 0 on rank 1");
}
