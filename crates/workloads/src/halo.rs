//! 2-D/3-D stencil halo-exchange programs at cluster scale.
//!
//! Every rank owns one cell of a Cartesian grid and exchanges `n_msgs`
//! non-contiguous buffers with each face neighbor per iteration — the
//! neighbor pattern of Eijkhout's DDT study and LLNL Comb, and the shape
//! of the paper's §V-C stress test generalized from 2 ranks to thousands.
//! On a periodic (torus) grid every rank sends and receives
//! `2 × active_dims × n_msgs` messages per lap, which is what makes
//! shared fabric hops contend and the topology contrast visible.
//!
//! Tag scheme: a sender tags direction `d` traffic `d * n_msgs + i`; the
//! receiver posting toward its direction-`d'` neighbor listens for the tag
//! of the *opposite* direction (`d' ^ 1`). On a periodic dimension of
//! size 2 the +/- neighbors are the same rank, and the opposite-direction
//! tags are exactly what keeps those two streams apart.

use crate::{driver, Workload};
use fusedpack_gpu::DataMode;
use fusedpack_mpi::program::BufInit;
use fusedpack_mpi::{AppOp, BufId, Program, RankId, RunReport, SchemeKind, TypeSlot};
use fusedpack_net::{Platform, TopologyHandle};
use fusedpack_sim::{Duration, FaultPlan};
use fusedpack_telemetry::Telemetry;

/// A Cartesian process grid. Dimensions of size 1 are inactive (a 2-D
/// grid is `[x, y, 1]`).
#[derive(Debug, Clone, Copy)]
pub struct HaloGrid {
    pub dims: [u32; 3],
    /// Torus wrap-around. Non-periodic boundary ranks simply have fewer
    /// neighbors.
    pub periodic: bool,
}

impl HaloGrid {
    pub fn new_2d(x: u32, y: u32) -> Self {
        HaloGrid {
            dims: [x, y, 1],
            periodic: true,
        }
    }

    pub fn new_3d(x: u32, y: u32, z: u32) -> Self {
        HaloGrid {
            dims: [x, y, z],
            periodic: true,
        }
    }

    pub fn ranks(&self) -> u32 {
        self.dims.iter().product()
    }

    /// Row-major coordinates of a rank (x fastest).
    pub fn coords(&self, rank: u32) -> [u32; 3] {
        debug_assert!(rank < self.ranks());
        let [x, y, _] = self.dims;
        [rank % x, (rank / x) % y, rank / (x * y)]
    }

    pub fn rank_at(&self, c: [u32; 3]) -> u32 {
        let [x, y, _] = self.dims;
        c[0] + c[1] * x + c[2] * x * y
    }

    /// The face neighbor of `rank` along `dim` (`positive` picks the +
    /// face). `None` for inactive dimensions and non-periodic boundaries;
    /// never the rank itself.
    pub fn neighbor(&self, rank: u32, dim: usize, positive: bool) -> Option<u32> {
        let size = self.dims[dim];
        if size < 2 {
            return None;
        }
        let mut c = self.coords(rank);
        c[dim] = if positive {
            match (c[dim] + 1 < size, self.periodic) {
                (true, _) => c[dim] + 1,
                (false, true) => 0,
                (false, false) => return None,
            }
        } else {
            match (c[dim] > 0, self.periodic) {
                (true, _) => c[dim] - 1,
                (false, true) => size - 1,
                (false, false) => return None,
            }
        };
        Some(self.rank_at(c))
    }

    /// Active `(direction, neighbor)` pairs of a rank. Direction index:
    /// `dim * 2` for the negative face, `dim * 2 + 1` for the positive;
    /// `d ^ 1` is the opposite direction.
    pub fn neighbors(&self, rank: u32) -> Vec<(u32, u32)> {
        let mut out = Vec::new();
        for dim in 0..3 {
            for (bit, positive) in [(0u32, false), (1u32, true)] {
                if let Some(n) = self.neighbor(rank, dim, positive) {
                    out.push((dim as u32 * 2 + bit, n));
                }
            }
        }
        out
    }
}

/// Buffer handles of one rank's halo program (tests).
#[derive(Debug, Clone)]
pub struct HaloBuffers {
    /// `send[k][i]`: message `i` toward the k-th active neighbor.
    pub send: Vec<Vec<BufId>>,
    pub recv: Vec<Vec<BufId>>,
}

/// Build one program per rank of the grid: `laps` iterations of post all
/// receives, post all sends, `Waitall`.
pub fn halo_programs(
    grid: &HaloGrid,
    workload: &Workload,
    n_msgs: usize,
    laps: usize,
    seed_base: u64,
) -> Vec<(Program, HaloBuffers)> {
    assert!(n_msgs >= 1 && laps >= 1);
    assert!(grid.ranks() >= 2, "a halo needs at least two ranks");
    let buf_len = workload.footprint().max(1);
    let n = n_msgs as u32;

    (0..grid.ranks())
        .map(|rank| {
            let neighbors = grid.neighbors(rank);
            let mut p = Program::new();
            let send: Vec<Vec<BufId>> = neighbors
                .iter()
                .enumerate()
                .map(|(k, _)| {
                    (0..n_msgs)
                        .map(|i| {
                            p.buffer(
                                buf_len,
                                BufInit::Random(
                                    seed_base + (rank as u64 * 64 + k as u64) * 31 + i as u64,
                                ),
                            )
                        })
                        .collect()
                })
                .collect();
            let recv: Vec<Vec<BufId>> = neighbors
                .iter()
                .map(|_| {
                    (0..n_msgs)
                        .map(|_| p.buffer(buf_len, BufInit::Zero))
                        .collect()
                })
                .collect();
            p.push(AppOp::Commit {
                slot: TypeSlot(0),
                desc: workload.desc.clone(),
            });
            for _ in 0..laps {
                p.push(AppOp::ResetTimer);
                for (k, &(d, peer)) in neighbors.iter().enumerate() {
                    for (i, &rbuf) in recv[k].iter().enumerate() {
                        p.push(AppOp::Irecv {
                            buf: rbuf,
                            ty: TypeSlot(0),
                            count: workload.count,
                            src: RankId(peer),
                            // The peer sent this in the opposite direction.
                            tag: (d ^ 1) * n + i as u32,
                        });
                    }
                }
                for (k, &(d, peer)) in neighbors.iter().enumerate() {
                    for (i, &sbuf) in send[k].iter().enumerate() {
                        p.push(AppOp::Isend {
                            buf: sbuf,
                            ty: TypeSlot(0),
                            count: workload.count,
                            dst: RankId(peer),
                            tag: d * n + i as u32,
                        });
                    }
                }
                p.push(AppOp::Waitall);
                p.push(AppOp::RecordLap);
            }
            (p, HaloBuffers { send, recv })
        })
        .collect()
}

/// Configuration of one halo-exchange measurement.
#[derive(Clone)]
pub struct HaloConfig {
    pub platform: Platform,
    pub scheme: SchemeKind,
    pub workload: Workload,
    pub grid: HaloGrid,
    /// Buffers per neighbor per iteration.
    pub n_msgs: usize,
    pub warmup_laps: usize,
    pub measured_laps: usize,
    /// `ModelOnly` for timing sweeps, `Full` when bytes must be real (the
    /// outcome's checksum covers them).
    pub mode: DataMode,
    /// Route transfers through a topology; `None` runs the cluster's
    /// default flat fabric ([`fusedpack_net::FlatLink`]).
    pub topology: Option<TopologyHandle>,
    /// Worker shards for the event loop (clamped by the cluster; 1 =
    /// single-queue). Reports are byte-identical at any shard count —
    /// armed fault plans included.
    pub shards: u32,
    /// Fault plan armed on the cluster (the chaos harness). `None` runs
    /// fault-free.
    pub fault_plan: Option<FaultPlan>,
    /// Live recorder the cluster's events land in (tagged per rank);
    /// `None` records nothing.
    pub telemetry: Option<Telemetry>,
}

impl HaloConfig {
    /// One warm-up and one measured lap, timing-only memory on the flat
    /// fabric, single-queue, no faults, no recorder.
    pub fn new(
        platform: Platform,
        scheme: SchemeKind,
        workload: Workload,
        grid: HaloGrid,
        n_msgs: usize,
    ) -> Self {
        HaloConfig {
            platform,
            scheme,
            workload,
            grid,
            n_msgs,
            warmup_laps: 1,
            measured_laps: 1,
            mode: DataMode::ModelOnly,
            topology: None,
            shards: 1,
            fault_plan: None,
            telemetry: None,
        }
    }

    pub fn with_topology(mut self, topo: TopologyHandle) -> Self {
        self.topology = Some(topo);
        self
    }

    pub fn with_shards(mut self, shards: u32) -> Self {
        self.shards = shards.max(1);
        self
    }
}

/// Results of one halo measurement.
#[derive(Debug, Clone)]
pub struct HaloOutcome {
    /// Mean makespan of the measured iterations across all ranks.
    pub latency: Duration,
    pub lap_latencies: Vec<Duration>,
    /// Busiest hop's total occupancy.
    pub busiest_hop_busy: Duration,
    /// Bytes summed over every hop of the fabric (the flat one when no
    /// topology is attached).
    pub hop_bytes: u64,
    /// Hop-level start-time order violations observed by the network
    /// (must stay zero under sharding).
    pub order_violations: u64,
    /// Digest of every rank's receive buffers in (rank, neighbor, message)
    /// order; `Some` only in `DataMode::Full`. A faulty run recovered
    /// correctly iff its checksum equals the fault-free run's.
    pub checksum: Option<u64>,
    /// The whole run's report.
    pub report: RunReport,
}

/// Run one halo-exchange measurement.
pub fn run_halo(cfg: &HaloConfig) -> HaloOutcome {
    let laps = cfg.warmup_laps + cfg.measured_laps;
    let programs = halo_programs(&cfg.grid, &cfg.workload, cfg.n_msgs, laps, 7);
    let gpus_per_node = cfg.platform.gpus_per_node.max(1);
    let mut builder = driver::builder(
        &cfg.platform,
        &cfg.scheme,
        cfg.mode,
        cfg.fault_plan.as_ref(),
        cfg.telemetry.as_ref(),
    )
    .shards(cfg.shards);
    if let Some(topo) = &cfg.topology {
        builder = builder.topology(topo.clone());
    }
    let mut recv = Vec::new();
    for (rank, (program, bufs)) in programs.into_iter().enumerate() {
        let rank = rank as u32;
        builder = builder.add_rank(rank / gpus_per_node, program);
        recv.extend(bufs.recv.into_iter().flatten().map(|b| (RankId(rank), b)));
    }
    let mut cluster = builder.build();
    let m = driver::measure(&mut cluster, cfg.warmup_laps..laps, recv);

    let hops = cluster.topo_hop_stats().unwrap_or_default();
    HaloOutcome {
        latency: m.latency,
        lap_latencies: m.laps,
        busiest_hop_busy: hops.iter().map(|h| h.busy).max().unwrap_or(Duration::ZERO),
        hop_bytes: hops.iter().map(|h| h.bytes).sum(),
        order_violations: cluster.topo_order_violations().unwrap_or(0),
        checksum: m.checksum,
        report: m.report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::specfem::specfem3d_cm;
    use fusedpack_net::Hierarchy;
    use std::sync::Arc;

    #[test]
    fn torus_neighbors_are_complete_and_never_self() {
        let grid = HaloGrid::new_3d(4, 2, 2);
        for r in 0..grid.ranks() {
            let ns = grid.neighbors(r);
            assert_eq!(ns.len(), 6, "3 active dims, 2 faces each");
            assert!(ns.iter().all(|&(_, n)| n != r));
        }
        // Size-2 periodic dims fold both faces onto the same neighbor.
        let [_, dy, _] = grid.coords(0);
        assert_eq!(dy, 0);
        assert_eq!(
            grid.neighbor(0, 1, true),
            grid.neighbor(0, 1, false),
            "size-2 dim: +y and -y are the same rank"
        );
    }

    #[test]
    fn open_boundaries_trim_neighbor_lists() {
        let mut grid = HaloGrid::new_2d(3, 3);
        grid.periodic = false;
        // Corner rank: one +x and one +y neighbor only.
        assert_eq!(grid.neighbors(0).len(), 2);
        // Center rank keeps all four.
        assert_eq!(grid.neighbors(4).len(), 4);
        // z is inactive everywhere.
        assert!(grid.neighbor(4, 2, true).is_none());
    }

    #[test]
    fn coords_round_trip() {
        let grid = HaloGrid::new_3d(4, 3, 2);
        for r in 0..grid.ranks() {
            assert_eq!(grid.rank_at(grid.coords(r)), r);
        }
    }

    #[test]
    fn halo_runs_on_a_small_torus_and_matches_all_messages() {
        let cfg = HaloConfig::new(
            Platform::lassen(),
            SchemeKind::fusion_default(),
            specfem3d_cm(200),
            HaloGrid::new_3d(2, 2, 2),
            2,
        );
        let out = run_halo(&cfg);
        assert_eq!(out.report.laps.len(), 8);
        assert!(out.latency.as_nanos() > 0);
        assert!(out.hop_bytes > 0, "the default flat fabric accounts hops");
    }

    #[test]
    fn topology_attached_halo_accounts_hop_traffic() {
        let cfg = HaloConfig::new(
            Platform::lassen(),
            SchemeKind::fusion_default(),
            specfem3d_cm(200),
            HaloGrid::new_3d(2, 2, 2),
            1,
        )
        .with_topology(Arc::new(Hierarchy::lassen_like(2)));
        let out = run_halo(&cfg);
        assert!(out.hop_bytes > 0);
        assert!(out.busiest_hop_busy.as_nanos() > 0);
    }

    #[test]
    fn sharded_halo_matches_single_queue_exactly() {
        for topo in [false, true] {
            let mut cfg = HaloConfig::new(
                Platform::lassen(),
                SchemeKind::fusion_default(),
                specfem3d_cm(200),
                HaloGrid::new_3d(2, 2, 2),
                2,
            );
            if topo {
                cfg = cfg.with_topology(Arc::new(Hierarchy::lassen_like(2)));
            }
            let single = run_halo(&cfg);
            let sharded = run_halo(&cfg.clone().with_shards(2));
            assert!(
                sharded.report.shard.barriers > 0,
                "sharding engaged (topo={topo})"
            );
            assert_eq!(single.latency, sharded.latency, "topo={topo}");
            assert_eq!(single.lap_latencies, sharded.lap_latencies, "topo={topo}");
            assert_eq!(
                single.report.events_processed, sharded.report.events_processed,
                "topo={topo}"
            );
            assert_eq!(single.hop_bytes, sharded.hop_bytes, "topo={topo}");
            assert_eq!(
                single.busiest_hop_busy, sharded.busiest_hop_busy,
                "topo={topo}"
            );
            assert_eq!(sharded.order_violations, 0, "topo={topo}");
        }
    }

    /// A byte-moving halo keeps one event queue and both copy lanes when
    /// it asks for two shards, with the same checksum and lap times. Its
    /// timing-only twin runs the sharded loop in
    /// `sharded_halo_matches_single_queue_exactly`.
    #[test]
    fn full_mode_checksum_is_equal_at_one_and_two_shards() {
        let mut cfg = HaloConfig::new(
            Platform::lassen(),
            SchemeKind::fusion_default(),
            specfem3d_cm(200),
            HaloGrid::new_3d(2, 2, 2),
            2,
        );
        let model = run_halo(&cfg);
        assert_eq!(model.checksum, None, "ModelOnly moves no bytes");
        cfg.mode = DataMode::Full;
        let single = run_halo(&cfg);
        let asked = run_halo(&cfg.clone().with_shards(2));
        let shard = asked.report.shard;
        assert_eq!((shard.shards, shard.barriers), (1, 0), "one queue");
        let copy = asked.report.copy;
        assert!(copy.lanes.iter().all(|lane| lane.jobs() > 0), "{copy:?}");
        assert!(single.checksum.is_some());
        assert_eq!(single.checksum, asked.checksum);
        assert_eq!(single.lap_latencies, asked.lap_latencies);
        assert_eq!(model.lap_latencies, asked.lap_latencies);
    }
}
