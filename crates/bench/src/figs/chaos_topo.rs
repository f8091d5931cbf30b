//! `reproduce chaos-topo`: the fabric fault-domain grid — seeded per-hop
//! fault injection on the 512-rank torus halo.
//!
//! For each scheme ({Proposed, Proposed-Adaptive}), a fault-free baseline
//! on the Lassen-like fat tree establishes the reference latency and the
//! receive-buffer checksum; then one cell per fabric fault profile re-runs
//! the same 8×8×8 halo exchange with that profile armed and reports
//! latency inflation, whether the delivered bytes still match the
//! fault-free run, and the fabric's self-healing counters: hops flapped /
//! degraded / downed, ECMP reroutes, dual-rail failovers, and
//! forced-delivery disconnects (the last rung, where no surviving route
//! exists and the transfer is forced over its pre-fault route, queueing
//! behind live traffic on the same hops).
//!
//! Every plan is derived from the master `--seed` and the cell's grid
//! coordinates (never from execution order), so the table is
//! byte-identical across runs and `--jobs` counts; the CI `chaos-topo` job
//! diffs both.

use crate::exec::{self, Cell};
use crate::figs::RunConfig;
use crate::table::{ratio, us, Table};
use fusedpack_gpu::DataMode;
use fusedpack_mpi::SchemeKind;
use fusedpack_net::{Hierarchy, Platform, TopologyHandle};
use fusedpack_sim::{FaultPlan, FaultSite, FaultSpec};
use fusedpack_workloads::specfem::specfem3d_cm;
use fusedpack_workloads::{run_exchange, ExchangeConfig, ExchangeOutcome, HaloGrid};
use std::sync::Arc;

/// Torus extent per dimension (matches `reproduce topo`).
pub const GRID: u32 = 8;

/// Buffers per neighbor per iteration.
pub const N_MSGS: usize = 2;

/// specfem3D_cm boundary points per message.
pub const POINTS: u64 = 512;

/// Fabric fault profiles: `(label, site, per-transit probability)`. Rates
/// are per hop crossing; at 512 ranks a lap crosses tens of thousands of
/// hops, so even the hop-down trickle kills rails and forces reroutes.
const PROFILES: &[(&str, FaultSite, f64)] = &[
    ("hop-flap", FaultSite::HopFlap, 0.02),
    ("rail-degrade", FaultSite::RailDegrade, 0.01),
    ("hop-down", FaultSite::HopDown, 0.002),
];

/// The scheme rows of the grid.
pub fn schemes() -> Vec<(&'static str, SchemeKind)> {
    vec![
        ("Proposed", SchemeKind::fusion_default()),
        ("Proposed-Adaptive", SchemeKind::fusion_adaptive()),
    ]
}

/// Derive one cell's plan seed from the master seed and its grid
/// coordinates (splitmix-style mixing; stable across jobs counts).
fn cell_seed(master: u64, scheme: usize, profile: usize) -> u64 {
    let mut x = master
        .wrapping_add((scheme as u64) << 32)
        .wrapping_add(profile as u64 + 1);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// One grid cell: the torus halo with real bytes on the Lassen-like fat
/// tree with an optional fabric fault plan, at `grid`^3 ranks.
pub fn measure(grid: u32, scheme: SchemeKind, plan: Option<FaultPlan>) -> ExchangeOutcome {
    run_exchange(&cell_config(grid, scheme, plan))
}

/// The configuration of a [`measure`] cell.
fn cell_config(grid: u32, scheme: SchemeKind, plan: Option<FaultPlan>) -> ExchangeConfig {
    let nodes = grid * grid * grid / 4;
    let topo: TopologyHandle = Arc::new(Hierarchy::lassen_like(nodes));
    let mut cfg = ExchangeConfig::new(Platform::lassen(), scheme, specfem3d_cm(POINTS), N_MSGS)
        .with_grid(HaloGrid::new_3d(grid, grid, grid))
        .with_topology(topo);
    cfg.mode = DataMode::Full;
    cfg.fault_plan = plan;
    cfg
}

pub fn run(cfg: &RunConfig) -> Table {
    let master = cfg.chaos_seed;
    let mut t = Table::new(
        format!(
            "Chaos-topo: per-hop fault profiles on the {GRID}^3 torus halo, \
             Lassen-like fat tree, checksum vs fault-free run (seed {master})"
        ),
        &[
            "scheme",
            "faults",
            "latency (us)",
            "inflation",
            "data",
            "flap",
            "degr",
            "down",
            "reroute",
            "failover",
            "forced",
        ],
    )
    .with_note(
        "data: ok = receive-buffer checksum identical to the fault-free baseline; \
         flap/degr/down: hop fault injections; reroute/failover: ECMP re-resolutions \
         around dead hops and dual-rail NIC failovers; forced: transfers whose every \
         surviving route died, forced over their pre-fault route",
    );

    let mut cells: Vec<Cell<ExchangeOutcome>> = Vec::new();
    for (si, (sname, scheme)) in schemes().into_iter().enumerate() {
        let s = scheme.clone();
        cells.push(Cell::new(format!("{sname}/baseline"), move || {
            measure(GRID, s.clone(), None)
        }));
        for (pi, &(pname, site, rate)) in PROFILES.iter().enumerate() {
            let plan = FaultPlan::new(cell_seed(master, si, pi))
                .with(site, FaultSpec::with_probability(rate));
            let s = scheme.clone();
            cells.push(Cell::new(format!("{sname}/{pname}"), move || {
                measure(GRID, s.clone(), Some(plan.clone()))
            }));
        }
    }
    let outcomes = exec::sweep(cfg, "chaos-topo", cells);

    let mut it = outcomes.into_iter();
    for (sname, _) in schemes() {
        let base = it.next().expect("baseline outcome");
        let report = &base.report;
        assert!(
            report.event_clamps.count == 0,
            "chaos-topo baseline for {sname} is not clamp-free: {:?} — \
             the fault-free reference cannot be trusted",
            report.event_clamps
        );
        assert!(
            report.fault_summary.is_clean() && report.fabric.injected() == 0,
            "fault-free baseline recorded fault activity: {:?} / {}",
            report.fault_summary,
            report.fabric
        );
        t.push_row(vec![
            sname.into(),
            "none".into(),
            us(base.latency),
            "1.00x".into(),
            "ref".into(),
            "0".into(),
            "0".into(),
            "0".into(),
            "0".into(),
            "0".into(),
            "0".into(),
        ]);
        for &(pname, _, _) in PROFILES {
            let out = it.next().expect("chaos-topo outcome");
            let fabric = &out.report.fabric;
            t.push_row(vec![
                sname.into(),
                pname.into(),
                us(out.latency),
                ratio(out.latency, base.latency),
                if out.checksum == base.checksum {
                    "ok".into()
                } else {
                    "DIFF".into()
                },
                fabric.flaps.to_string(),
                fabric.degrades.to_string(),
                fabric.downs.to_string(),
                fabric.reroutes.to_string(),
                fabric.rail_failovers.to_string(),
                out.report.fault_summary.degraded.to_string(),
            ]);
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One representative cell end to end, on a 4^3 torus to keep the
    /// suite fast: a seeded hop-down profile must kill hops, reroute
    /// around them, and reproduce the fault-free checksum.
    #[test]
    fn hop_down_cell_reroutes_and_preserves_bytes() {
        let base = measure(4, SchemeKind::fusion_default(), None);
        let report = &base.report;
        assert_eq!(report.event_clamps.count, 0, "{:?}", report.event_clamps);
        assert!(report.fault_summary.is_clean() && report.fabric.injected() == 0);
        assert!(base.checksum.is_some(), "the chaos grid moves real bytes");
        let plan = FaultPlan::new(cell_seed(42, 0, 2))
            .with(FaultSite::HopDown, FaultSpec::with_probability(0.02));
        let out = measure(4, SchemeKind::fusion_default(), Some(plan));
        let fabric = &out.report.fabric;
        assert!(fabric.downs > 0, "{fabric}");
        assert!(fabric.reroutes > 0, "{fabric}");
        assert_eq!(out.checksum, base.checksum, "reroute corrupted data");
        assert!(out.latency >= base.latency, "faults cannot speed a run up");
    }

    /// The configuration of a flapping, hop-killing cell on the 4^3 torus.
    fn faulted_config() -> ExchangeConfig {
        let plan = FaultPlan::new(cell_seed(42, 0, 0))
            .with(FaultSite::HopFlap, FaultSpec::with_probability(0.05))
            .with(FaultSite::HopDown, FaultSpec::with_probability(0.02));
        cell_config(4, SchemeKind::fusion_default(), Some(plan))
    }

    /// The same seeded cell replays exactly from run to run: its latency,
    /// fault counters and delivered bytes, with both copy lanes working.
    #[test]
    fn faulted_cell_replays_exactly() {
        let (a, b) = (
            run_exchange(&faulted_config()),
            run_exchange(&faulted_config()),
        );
        assert!(a.report.fabric.injected() > 0, "faults fired");
        let copy = a.report.copy;
        assert!(copy.lanes.iter().all(|lane| lane.jobs() > 0), "{copy:?}");
        assert_eq!(a.latency, b.latency);
        assert_eq!(a.report.fault_summary, b.report.fault_summary);
        assert_eq!(a.report.fabric, b.report.fabric);
        assert_eq!(a.checksum, b.checksum);
    }

    /// The timing-only twin of that cell draws the same hop faults and
    /// reports the byte-moving run's latency and fabric counters exactly.
    #[test]
    fn faulted_cell_timing_only_matches_full() {
        let full = run_exchange(&faulted_config());
        let mut cfg = faulted_config();
        cfg.mode = DataMode::ModelOnly;
        let model = run_exchange(&cfg);
        assert!(model.report.fabric.injected() > 0, "faults fired");
        assert_eq!(model.latency, full.latency);
        assert_eq!(model.report.fault_summary, full.report.fault_summary);
        assert_eq!(model.report.fabric, full.report.fabric);
    }
}
