//! Window-sharding properties: random small halo tori run through the
//! time-window sharded event loop must be *observably identical* to the
//! single-queue run.
//!
//! Two invariants pin the conservative-window protocol down (DESIGN.md
//! §11):
//!
//! - **Per-hop transmit order.** The topology network records the start
//!   time of every transmit per hop and counts regressions; a sharded
//!   run must replay deferred transmits in canonical `(time, key, seq)`
//!   order, so the violation counter stays zero exactly as it does
//!   single-queue.
//! - **Exact reconciliation.** Per-hop byte/wasted/busy totals, event
//!   counts, and every lap makespan are compared field-for-field — not
//!   within a tolerance. The sharded loop is a decomposition of the same
//!   simulation, not an approximation of it.
//!
//! The grids are chosen to span ≥ 2 nodes (Lassen packs 4 ranks per
//! node) so the coordinator actually engages — every case asserts that
//! at least one window barrier ran.

use fusedpack_gpu::DataMode;
use fusedpack_mpi::{ClusterBuilder, SchemeKind};
use fusedpack_net::{Hierarchy, Platform};
use fusedpack_sim::Duration;
use fusedpack_workloads::halo::halo_programs;
use fusedpack_workloads::specfem::specfem3d_cm;
use fusedpack_workloads::HaloGrid;
use proptest::prelude::*;
use std::sync::Arc;

/// Iterations per program: two laps so window boundaries interleave with
/// the Waitall barrier at least once.
const LAPS: usize = 2;

/// Everything sharding must not change.
#[derive(Debug, PartialEq)]
struct Observed {
    events: u64,
    laps: Vec<Duration>,
    /// `(bytes, wasted, busy ns)` per hop, in hop-table order (the flat
    /// fabric's hops without a topology).
    per_hop: Vec<(u64, u64, u64)>,
}

/// Run one periodic halo on `shards` workers; returns the observables,
/// the topology's hop-order violation count, and the barrier count.
fn run_grid(
    grid: HaloGrid,
    n_msgs: usize,
    points: u64,
    shards: u32,
    topo: bool,
) -> (Observed, u64, u64) {
    let platform = Platform::lassen();
    let gpus_per_node = platform.gpus_per_node.max(1);
    let nodes = grid.ranks().div_ceil(gpus_per_node);
    let programs = halo_programs(&grid, &specfem3d_cm(points), n_msgs, LAPS, 7);
    let mut builder = ClusterBuilder::new(platform, SchemeKind::fusion_default())
        .data_mode(DataMode::ModelOnly)
        .shards(shards);
    if topo {
        builder = builder.topology(Arc::new(Hierarchy::lassen_like(nodes)));
    }
    for (rank, (program, _)) in programs.into_iter().enumerate() {
        builder = builder.add_rank(rank as u32 / gpus_per_node, program);
    }
    let mut cluster = builder.build();
    let report = cluster.run();
    let per_hop = cluster
        .topo_hop_stats()
        .map(|stats| {
            stats
                .iter()
                .map(|h| (h.bytes, h.wasted, h.busy.as_nanos()))
                .collect()
        })
        .unwrap_or_default();
    (
        Observed {
            events: report.events_processed,
            laps: (0..LAPS).map(|i| report.lap_makespan(i)).collect(),
            per_hop,
        },
        cluster.topo_order_violations().unwrap_or(0),
        report.shard.barriers,
    )
}

/// Multi-node tori: every grid spans at least 2 Lassen nodes (8+ ranks)
/// so the requested shard count survives the per-node clamp.
fn arb_grid() -> impl Strategy<Value = HaloGrid> {
    prop_oneof![
        Just(HaloGrid::new_3d(2, 2, 2)),
        Just(HaloGrid::new_2d(4, 2)),
        Just(HaloGrid::new_2d(3, 3)),
        Just(HaloGrid::new_3d(4, 2, 2)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Sharded and single-queue runs agree on every observable — event
    /// count, each lap's makespan, and (with a topology attached) the
    /// full per-hop byte/wasted/busy table — and the sharded run's
    /// per-hop transmit starts never regress.
    #[test]
    fn sharded_run_is_observably_identical_to_single_queue(
        grid in arb_grid(),
        shards in 2u32..5,
        n_msgs in 1usize..3,
        topo in any::<bool>(),
    ) {
        let (single, single_viol, _) = run_grid(grid, n_msgs, 200, 1, topo);
        let (sharded, sharded_viol, barriers) = run_grid(grid, n_msgs, 200, shards, topo);
        prop_assert!(
            barriers > 0,
            "coordinator must engage on a {}-rank grid at {} shards",
            grid.ranks(),
            shards
        );
        prop_assert_eq!(single_viol, 0);
        prop_assert_eq!(sharded_viol, 0, "per-hop transmit starts regressed under sharding");
        prop_assert_eq!(single, sharded);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Topology-routed runs specifically: sharded per-hop *byte* totals
    /// reconcile exactly with the single queue, hop by hop — no transmit
    /// lost between a shard and its barrier, none double-applied.
    #[test]
    fn per_hop_byte_totals_reconcile_exactly(
        grid in arb_grid(),
        shards in 2u32..5,
    ) {
        let (single, _, _) = run_grid(grid, 1, 300, 1, true);
        let (sharded, violations, barriers) = run_grid(grid, 1, 300, shards, true);
        prop_assert!(barriers > 0);
        prop_assert_eq!(violations, 0);
        prop_assert!(!sharded.per_hop.is_empty(), "topology must expose hop stats");
        prop_assert_eq!(sharded.per_hop.len(), single.per_hop.len());
        let mut total = 0u64;
        for (hop, (a, b)) in single.per_hop.iter().zip(&sharded.per_hop).enumerate() {
            prop_assert_eq!(a.0, b.0, "hop {} bytes diverged", hop);
            total += b.0;
        }
        prop_assert!(total > 0, "halo traffic must cross the fabric");
    }
}
