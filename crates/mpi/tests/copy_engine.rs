//! The copy engines own every byte a `DataMode::Full` run moves.
//!
//! A `Full` run splits its copy jobs into two lanes by node: the event
//! loop runs one lane's at submit, a worker thread beside it the other's.
//! It keeps one event queue whatever shard count it asks for; a
//! timing-only run submits no job. These checks guard that:
//!
//! * a deterministic work counter: a `Full` halo on a 4³ torus runs
//!   exactly one pack and one unpack per staged message and one
//!   layout-to-layout copy per DirectIPC message, with the same jobs and
//!   lane handoffs on each lane when it asks for two shards (and gets
//!   one queue), and none when timing only, sharded or not;
//! * a byte-verified lane run: two laps of that halo across 16 nodes,
//!   where both lanes run jobs and payloads cross between them, deliver
//!   host `pack` of every matched send into every receive, the same bytes
//!   when the run asks for two shards, with the same payload-buffer
//!   counters every time;
//! * one-way traffic between the lanes keeps every freelist within its
//!   lane's peak in flight;
//! * a job that panics on either lane surfaces from `Cluster::run` with its
//!   own message instead of hanging the run or surfacing as another
//!   failure;
//! * a panic on the event loop surfaces with its own message while the
//!   worker still holds jobs, instead of hanging on a worker that waits
//!   for more.

use fusedpack_datatype::pack::{pack, unpack};
use fusedpack_datatype::{CompiledLayout, TypeBuilder};
use fusedpack_gpu::{DataMode, PoolStats};
use fusedpack_mpi::{
    AppOp, BufId, BufInit, Cluster, ClusterBuilder, CopyStats, LaneStats, Program, RankId,
    RunReport, SchemeKind, TypeSlot,
};
use fusedpack_net::{Hierarchy, Platform};
use fusedpack_workloads::halo::{halo_programs, HaloBuffers};
use fusedpack_workloads::specfem::specfem3d_cm;
use fusedpack_workloads::HaloGrid;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// A 4³ torus halo (64 ranks on 16 Lassen-like nodes) of specfem3D_cm(64)
/// through the fused scheme, run for `laps` laps: the cluster, its report,
/// each rank's buffers, and its count of staged (off-node) and DirectIPC
/// (on-node) messages.
fn halo(mode: DataMode, shards: u32, laps: usize) -> Halo {
    let grid = HaloGrid::new_3d(4, 4, 4);
    let platform = Platform::lassen();
    let gpus_per_node = platform.gpus_per_node;
    let nodes = grid.ranks().div_ceil(gpus_per_node);
    let node = |rank: u32| rank / gpus_per_node;
    let mut builder = ClusterBuilder::new(platform, SchemeKind::fusion_default())
        .data_mode(mode)
        .shards(shards)
        .topology(Arc::new(Hierarchy::lassen_like(nodes)));
    let (mut staged, mut direct, mut bufs) = (0, 0, Vec::new());
    for (rank, (program, rank_bufs)) in halo_programs(&grid, &specfem3d_cm(64), 1, laps, 7)
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
        bufs.push(rank_bufs);
    }
    let mut cluster = builder.build();
    let report = cluster.run();
    Halo {
        grid,
        cluster,
        report,
        bufs,
        staged,
        direct,
    }
}

struct Halo {
    grid: HaloGrid,
    cluster: Cluster,
    report: RunReport,
    bufs: Vec<HaloBuffers>,
    staged: u64,
    direct: u64,
}

impl Halo {
    /// Every receive buffer, rank by rank.
    fn received(&self) -> Vec<Vec<u8>> {
        let mut out = Vec::new();
        for (rank, bufs) in self.bufs.iter().enumerate() {
            for &buf in bufs.recv.iter().flatten() {
                out.push(self.cluster.rank_buffer(RankId(rank as u32), buf));
            }
        }
        out
    }

    /// Every receive equals host `pack` of its matched send (the peer's
    /// send in the opposite direction) → `unpack` into zeros.
    fn assert_delivered(&self) {
        let workload = specfem3d_cm(64);
        let layout = CompiledLayout::of(&workload.desc);
        for (rank, bufs) in self.bufs.iter().enumerate() {
            let rank = rank as u32;
            for (k, (dir, peer)) in self.grid.neighbors(rank).into_iter().enumerate() {
                let back = self
                    .grid
                    .neighbors(peer)
                    .iter()
                    .position(|&(d, r)| d == dir ^ 1 && r == rank)
                    .expect("the peer sends back");
                let sent = self
                    .cluster
                    .rank_bytes(RankId(peer), self.bufs[peer as usize].send[back][0]);
                let got = self.cluster.rank_bytes(RankId(rank), bufs.recv[k][0]);
                let mut want = vec![0; got.len()];
                let packed = pack(sent, &layout, workload.count);
                unpack(&packed, &layout, workload.count, &mut want);
                assert!(got == want, "rank {rank} from {peer}");
            }
        }
    }
}

/// The deterministic part of a run's copy counters.
fn jobs_only(stats: CopyStats) -> CopyStats {
    CopyStats {
        lanes: stats.lanes.map(|lane| LaneStats {
            busy_wall_ns: 0,
            ..lane
        }),
        ..CopyStats::default()
    }
}

/// A run that asked for two shards ran on one queue, with both lanes.
fn assert_one_queue_two_lanes(report: &RunReport) {
    assert_eq!(report.shard.shards, 1, "a byte-moving run keeps one queue");
    assert_eq!(report.shard.barriers, 0);
    let copy = report.copy;
    for (i, lane) in copy.lanes.iter().enumerate() {
        assert!(lane.jobs() > 0, "lane {i} ran jobs: {copy:?}");
    }
}

#[test]
fn a_full_halo_runs_one_job_per_data_movement_on_its_lane() {
    let lanes = halo(DataMode::Full, 1, 1);
    let (staged, direct) = (lanes.staged, lanes.direct);
    assert!(staged > 0 && direct > 0);
    let total = lanes.report.copy.total();
    let want = LaneStats {
        packs: staged,
        unpacks: staged,
        copies: direct,
        handoffs: total.handoffs,
        busy_wall_ns: total.busy_wall_ns,
        ..LaneStats::default()
    };
    assert_eq!(total, want);
    assert_eq!(lanes.report.copy.jobs(), 2 * staged + direct);

    let asked = halo(DataMode::Full, 2, 1);
    assert_one_queue_two_lanes(&asked.report);
    assert_eq!(
        jobs_only(asked.report.copy),
        jobs_only(lanes.report.copy),
        "each lane's jobs and handoffs are the same at any requested shard count"
    );
    assert_eq!(asked.report.laps, lanes.report.laps);

    // The timing-only twin runs the sharded loop and times every lap the
    // same.
    for shards in [1, 2] {
        let model = halo(DataMode::ModelOnly, shards, 1);
        assert_eq!(model.report.shard.barriers > 0, shards > 1);
        assert_eq!(
            model.report.copy,
            CopyStats::default(),
            "timing-only runs copy nothing"
        );
        assert_eq!(model.report.laps, lanes.report.laps);
    }
}

#[test]
fn a_two_lane_halo_delivers_the_sent_bytes_at_any_requested_shard_count() {
    let lanes = halo(DataMode::Full, 1, 2);
    let copy = lanes.report.copy;
    for (i, lane) in copy.lanes.iter().enumerate() {
        assert!(lane.jobs() > 0, "lane {i} ran jobs: {copy:?}");
        assert!(lane.busy_wall_ns > 0, "lane {i} ran them itself: {copy:?}");
        assert!(
            lane.handoffs > 0,
            "lane {i} took payloads from the other: {copy:?}"
        );
    }
    assert!(
        copy.fetch_wall_ns > 0,
        "the loop fetched the worker's payloads"
    );
    lanes.assert_delivered();

    let asked = halo(DataMode::Full, 2, 2);
    assert_one_queue_two_lanes(&asked.report);
    assert!(
        lanes.received() == asked.received(),
        "the same bytes when asking for two shards"
    );

    // The loop keeps each engine's freelist accounting in job order, so
    // the counters repeat exactly. Every staged message takes one buffer,
    // and each lane allocates only in the first lap.
    let pool = lanes.cluster.staging_pool_stats();
    assert_eq!(pool.hits + pool.misses, lanes.staged, "{pool:?}");
    assert_eq!(
        pool,
        PoolStats {
            hits: 256,
            misses: 256,
            released: 512,
            dropped: 0,
        }
    );
    assert_eq!(
        halo(DataMode::Full, 1, 2).cluster.staging_pool_stats(),
        pool
    );
}

/// `laps` laps of `per_lap` strided messages (16 ints, 64 packed bytes)
/// from a rank on node `from` to one on the other of two nodes, which
/// never sends back: one lane produces every payload and the other
/// consumes it.
fn one_way(from: u32, laps: usize, per_lap: u32) -> Cluster {
    let desc = TypeBuilder::vector(16, 1, 2, TypeBuilder::int());
    let (mut sender, mut receiver) = (Program::new(), Program::new());
    let send = sender.buffer(128, BufInit::Random(9));
    let recv = receiver.buffer(128, BufInit::Zero);
    for p in [&mut sender, &mut receiver] {
        p.push(AppOp::Commit {
            slot: TypeSlot(0),
            desc: desc.clone(),
        });
    }
    let (me, peer) = (RankId(from), RankId(1 - from));
    for _ in 0..laps {
        for tag in 0..per_lap {
            sender.push(AppOp::Isend {
                buf: send,
                ty: TypeSlot(0),
                count: 1,
                dst: peer,
                tag,
            });
            receiver.push(AppOp::Irecv {
                buf: recv,
                ty: TypeSlot(0),
                count: 1,
                src: me,
                tag,
            });
        }
        sender.push(AppOp::Waitall);
        receiver.push(AppOp::Waitall);
    }
    let mut programs = [Program::new(), Program::new()];
    programs[from as usize] = sender;
    programs[1 - from as usize] = receiver;
    let [p0, p1] = programs;
    ClusterBuilder::new(Platform::lassen(), SchemeKind::GpuSync)
        .add_rank(0, p0)
        .add_rank(1, p1)
        .build()
}

#[test]
fn one_way_traffic_between_lanes_does_not_grow_a_freelist() {
    // Every payload is taken on the producing lane and returned to the
    // consuming lane's freelist, which the producer never takes from. The
    // consumer holds one payload at a time, so its freelist keeps one
    // buffer and frees the rest; the producer allocates every payload.
    // Memory stays bounded by the peak in flight, whatever the number of
    // laps, where keeping every returned buffer would grow the consumer's
    // freelist by one per message.
    for from in [0, 1] {
        let mut cluster = one_way(from, 4, 8);
        let report = cluster.run();
        let copy = report.copy;
        let (producer, consumer) = (copy.lanes[from as usize], copy.lanes[1 - from as usize]);
        assert_eq!((producer.packs, consumer.unpacks), (32, 32), "{copy:?}");
        assert_eq!((producer.handoffs, consumer.handoffs), (0, 32), "{copy:?}");
        let pool = cluster.staging_pool_stats();
        assert_eq!(
            pool,
            PoolStats {
                hits: 0,
                misses: 32,
                released: 32,
                dropped: 31,
            },
            "from node {from}"
        );
        let resting = pool.released - pool.hits - pool.dropped;
        assert_eq!(resting, 1, "from node {from}");
    }
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

/// Two ranks on two nodes, one per lane: rank 0 on node 0 (the loop's
/// lane) and rank 1 on node 1 (the worker's). The rank on `node`
/// explicitly packs 16 strided ints (64 packed bytes) into an 8-byte
/// buffer, the last in its pool: the copy runs off the end of the pool.
fn overflowing_pack(mode: DataMode, node: u32) -> Cluster {
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
    let mut programs = [Program::new(), Program::new()];
    programs[node as usize] = p;
    let [p0, p1] = programs;
    ClusterBuilder::new(Platform::lassen(), SchemeKind::GpuSync)
        .data_mode(mode)
        .add_rank(0, p0)
        .add_rank(1, p1)
        .build()
}

#[test]
fn a_job_that_panics_on_either_lane_fails_the_run_with_its_message() {
    for node in [0, 1] {
        // Timing only, nothing moves, so nothing fails.
        overflowing_pack(DataMode::ModelOnly, node).run();
        let mut cluster = overflowing_pack(DataMode::Full, node);
        let panic = catch_unwind(AssertUnwindSafe(|| cluster.run())).expect_err("the copy overran");
        let msg = message(panic);
        assert!(
            msg.contains("out of range for slice of length 8"),
            "the lane's own message on node {node}, got {msg:?}"
        );
    }
}

#[test]
fn a_panic_on_the_event_loop_surfaces_while_the_worker_holds_jobs() {
    // Rank 0, on the worker's lane (node 1), packs 64 strided messages
    // first; rank 1, on the loop's (node 0), then sends on a slot it never
    // committed, which the event loop refuses.
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
        .add_rank(1, p0)
        .add_rank(0, p1)
        .build();
    let panic = catch_unwind(AssertUnwindSafe(|| cluster.run())).expect_err("rank 1 is wrong");
    assert_eq!(message(panic), "uncommitted type slot 0 on rank 1");
}
