//! `reproduce topo`: the Table II machine contrast at scale, on real
//! topologies.
//!
//! A 3-D halo exchange over an 8×8×8 torus (512 ranks, 128 nodes × 4
//! GPUs) runs on two machine models: a Lassen-like fat tree (dense NVLink
//! islands, NVLink-attached NICs, dual-rail EDR into leaf/spine) and an
//! ABCI-like dragonfly (PCIe-switched islands whose inter-node traffic
//! bounces through the shared host complex). The schemes are the paper's
//! proposed fused design, its adaptive variant, and the GPU-based
//! baseline. The qualitative Table II claim this recovers: fusion wins on
//! *both* machines, but its relative win is larger on the ABCI-like one,
//! whose costlier launches and host-bounce hops punish the per-block
//! baseline harder.

use crate::exec::{self, Cell};
use crate::figs::RunConfig;
use crate::table::{us, Table};
use fusedpack_mpi::SchemeKind;
use fusedpack_net::{Hierarchy, Platform, TopologyHandle};
use fusedpack_workloads::specfem::specfem3d_cm;
use fusedpack_workloads::{run_exchange, ExchangeConfig, ExchangeOutcome, HaloGrid};
use std::sync::Arc;

/// Torus extent per dimension: 8×8×8 = 512 ranks.
pub const GRID: u32 = 8;

/// Buffers per neighbor per iteration (6 neighbors → 12 non-blocking
/// operations each way per rank per lap).
pub const N_MSGS: usize = 2;

/// specfem3D_cm boundary points per message. Sparse and small: tiny
/// scattered blocks keep per-block launch overhead (what fusion removes)
/// in front of wire time, which congested shared hops would otherwise
/// dominate at this scale.
pub const POINTS: u64 = 512;

/// One machine model: a platform's node/GPU parameters plus the fabric
/// those nodes hang off.
pub struct Machine {
    pub label: &'static str,
    pub platform: Platform,
    pub topology: TopologyHandle,
}

/// The two Table II machines, sized for the 512-rank torus.
pub fn machines() -> Vec<Machine> {
    let nodes = GRID * GRID * GRID / 4; // 4 GPUs per node on both
    vec![
        Machine {
            label: "Lassen-like",
            platform: Platform::lassen(),
            topology: Arc::new(Hierarchy::lassen_like(nodes)),
        },
        Machine {
            label: "ABCI-like",
            platform: Platform::abci(),
            topology: Arc::new(Hierarchy::abci_like(nodes)),
        },
    ]
}

/// The scheme column set: `(label, scheme)`.
pub fn schemes() -> Vec<(&'static str, SchemeKind)> {
    vec![
        ("Proposed", SchemeKind::fusion_default()),
        ("Proposed-Adaptive", SchemeKind::fusion_adaptive()),
        ("GPU-based", SchemeKind::GpuSync),
    ]
}

/// Run the 512-rank halo for one machine × scheme cell.
pub fn measure(machine: &Machine, scheme: SchemeKind) -> ExchangeOutcome {
    run_exchange(
        &ExchangeConfig::new(
            machine.platform.clone(),
            scheme,
            specfem3d_cm(POINTS),
            N_MSGS,
        )
        .with_grid(HaloGrid::new_3d(GRID, GRID, GRID))
        .with_topology(machine.topology.clone()),
    )
}

pub fn run(cfg: &RunConfig) -> Table {
    let mut t = Table::new(
        format!(
            "Topo: 3-D halo exchange, {}^3 torus ({} ranks), Lassen-like fat tree vs ABCI-like dragonfly",
            GRID,
            GRID * GRID * GRID
        ),
        &[
            "machine",
            "scheme",
            "latency (us)",
            "speedup",
            "busiest hop busy (us)",
            "hop bytes (MB)",
        ],
    )
    .with_note(
        "speedup is vs the GPU-based baseline on the same machine; the paper's Table II \
         contrast is the larger fused-design win on the ABCI-like machine",
    );

    let mut cells: Vec<Cell<ExchangeOutcome>> = Vec::new();
    for machine in machines() {
        let machine = Arc::new(machine);
        for (label, scheme) in schemes() {
            let machine = machine.clone();
            cells.push(Cell::new(format!("{}/{label}", machine.label), move || {
                measure(&machine, scheme)
            }));
        }
    }
    let outcomes = exec::sweep(cfg, "topo", cells);

    let per_machine = schemes().len();
    for (mi, machine) in machines().iter().enumerate() {
        let rows = &outcomes[mi * per_machine..(mi + 1) * per_machine];
        let baseline = rows.last().expect("GPU-based row").latency;
        for ((label, _), out) in schemes().iter().zip(rows) {
            t.push_row(vec![
                machine.label.into(),
                (*label).into(),
                us(out.latency),
                format!(
                    "{:.1}x",
                    baseline.as_nanos() as f64 / out.latency.as_nanos().max(1) as f64
                ),
                us(out.busiest_hop_busy),
                format!("{:.1}", out.hop_bytes as f64 / 1.0e6),
            ]);
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The Table II qualitative contrast, end to end on the full 512-rank
    /// torus: fusion wins on both machines, and its relative win is
    /// larger on the ABCI-like machine.
    #[test]
    fn fusion_wins_on_both_machines_and_wins_bigger_on_abci() {
        let mut speedups = Vec::new();
        for machine in machines() {
            let fused = measure(&machine, SchemeKind::fusion_default());
            let gpu = measure(&machine, SchemeKind::GpuSync);
            assert!(
                fused.latency < gpu.latency,
                "{}: Proposed {} should beat GPU-based {}",
                machine.label,
                fused.latency,
                gpu.latency
            );
            assert_eq!(fused.report.laps.len(), 512);
            assert!(fused.hop_bytes > 0, "topology traffic accounted");
            speedups.push(gpu.latency.as_nanos() as f64 / fused.latency.as_nanos() as f64);
        }
        assert!(
            speedups[1] > speedups[0],
            "ABCI-like speedup {:.2}x should exceed Lassen-like {:.2}x",
            speedups[1],
            speedups[0]
        );
    }

    /// The report itself is deterministic across worker counts — the CI
    /// determinism job diffs `--jobs 1` vs `--jobs 4` output; this is the
    /// in-process version of that check.
    #[test]
    fn report_is_identical_across_jobs() {
        let sequential = run(&RunConfig {
            jobs: 1,
            ..RunConfig::default()
        });
        let parallel = run(&RunConfig {
            jobs: 4,
            ..RunConfig::default()
        });
        assert_eq!(sequential.render(), parallel.render());
    }
}
