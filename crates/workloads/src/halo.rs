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

use crate::Workload;
use fusedpack_mpi::program::BufInit;
use fusedpack_mpi::{AppOp, BufId, Program, RankId, TypeSlot};

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{run_exchange, ExchangeConfig};
    use crate::specfem::specfem3d_cm;
    use fusedpack_gpu::DataMode;
    use fusedpack_mpi::SchemeKind;
    use fusedpack_net::{Hierarchy, Platform};
    use std::sync::Arc;

    /// A halo of specfem3D_cm(200) on the 2×2×2 torus, `n_msgs` per
    /// neighbor, on the flat fabric.
    fn small_halo(n_msgs: usize) -> ExchangeConfig {
        ExchangeConfig::new(
            Platform::lassen(),
            SchemeKind::fusion_default(),
            specfem3d_cm(200),
            n_msgs,
        )
        .with_grid(HaloGrid::new_3d(2, 2, 2))
    }

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
        let out = run_exchange(&small_halo(2));
        assert_eq!(out.report.laps.len(), 8);
        assert!(out.latency.as_nanos() > 0);
        assert!(out.hop_bytes > 0, "the default flat fabric accounts hops");
    }

    #[test]
    fn topology_attached_halo_accounts_hop_traffic() {
        let cfg = small_halo(1).with_topology(Arc::new(Hierarchy::lassen_like(2)));
        let out = run_exchange(&cfg);
        assert!(out.hop_bytes > 0);
        assert!(out.busiest_hop_busy.as_nanos() > 0);
    }

    /// Two runs of one halo agree on every timing and hop counter, on the
    /// flat fabric and a routed one, and no hop ever starts a transmit
    /// before the one it queued behind.
    #[test]
    fn halo_repeats_exactly_with_no_order_violations() {
        for topo in [false, true] {
            let mut cfg = small_halo(2);
            if topo {
                cfg = cfg.with_topology(Arc::new(Hierarchy::lassen_like(2)));
            }
            let (a, b) = (run_exchange(&cfg), run_exchange(&cfg));
            assert_eq!(a.lap_latencies, b.lap_latencies, "topo={topo}");
            assert_eq!(
                a.report.events_processed, b.report.events_processed,
                "topo={topo}"
            );
            assert_eq!(a.hop_bytes, b.hop_bytes, "topo={topo}");
            assert_eq!(a.busiest_hop_busy, b.busiest_hop_busy, "topo={topo}");
            assert_eq!(a.order_violations, 0, "topo={topo}");
        }
    }

    /// A byte-moving halo runs its copies in both lanes and has the lap
    /// times of its timing-only twin.
    #[test]
    fn full_mode_checksum_moves_bytes_at_model_only_timing() {
        let mut cfg = small_halo(2);
        let model = run_exchange(&cfg);
        assert_eq!(model.checksum, None, "ModelOnly moves no bytes");
        cfg.mode = DataMode::Full;
        let full = run_exchange(&cfg);
        let copy = full.report.copy;
        assert!(copy.lanes.iter().all(|lane| lane.jobs() > 0), "{copy:?}");
        assert!(full.checksum.is_some());
        assert_eq!(model.lap_latencies, full.lap_latencies);
    }

    /// `ClusterBuilder::shards` is accepted and ignored: a timing-only
    /// halo on two nodes reports the same run with and without it, on one
    /// event queue.
    #[test]
    fn shards_request_changes_nothing() {
        let grid = HaloGrid::new_3d(2, 2, 2);
        let run = |shards: Option<u32>| {
            let mut builder = fusedpack_mpi::ClusterBuilder::new(
                Platform::lassen(),
                SchemeKind::fusion_default(),
            )
            .data_mode(DataMode::ModelOnly);
            if let Some(n) = shards {
                builder = builder.shards(n);
            }
            let programs = halo_programs(&grid, &specfem3d_cm(200), 2, 2, 7);
            for (rank, (program, _)) in programs.into_iter().enumerate() {
                builder = builder.add_rank(rank as u32 / 4, program);
            }
            builder.build().run()
        };
        let (plain, asked) = (run(None), run(Some(4)));
        assert_eq!(
            asked.shard,
            fusedpack_mpi::ShardStats {
                shards: 1,
                ..Default::default()
            }
        );
        assert_eq!(format!("{plain:?}"), format!("{asked:?}"));
        assert!(plain.events_processed > 0);
    }

    /// A grid run is `halo_programs` with its ranks packed
    /// `gpus_per_node` to a node: the driver reports, by `Debug`, the run
    /// of that cluster built by hand and handed the workload's layout.
    #[test]
    fn grid_runs_pack_ranks_gpus_per_node_to_a_node() {
        let workload = specfem3d_cm(200);
        let mut builder =
            fusedpack_mpi::ClusterBuilder::new(Platform::lassen(), SchemeKind::fusion_default())
                .data_mode(DataMode::ModelOnly)
                .layouts([workload.committed()]);
        let grid = HaloGrid::new_3d(2, 2, 2);
        for (rank, (program, _)) in halo_programs(&grid, &workload, 2, 2, 7)
            .into_iter()
            .enumerate()
        {
            builder = builder.add_rank(rank as u32 / 4, program);
        }
        let by_hand = builder.build().run();
        let out = run_exchange(&small_halo(2));
        assert_eq!(format!("{:?}", out.report), format!("{by_hand:?}"));
    }

    /// `halo_programs` runs one lap shape, so a grid refuses a mixed
    /// schedule instead of running some other one.
    #[test]
    #[should_panic(expected = "a halo grid repeats one lap")]
    fn grid_refuses_a_mixed_schedule() {
        run_exchange(&small_halo(2).serve(64, &[1, 2], 0));
    }
}
