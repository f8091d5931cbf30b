//! Chaos experiment: seeded fault-injection grid over the paper's
//! workloads.
//!
//! For each (workload × scheme) pair, a fault-free baseline establishes
//! the reference latency and the receive-buffer checksum, then every
//! (fault-site profile × injection rate) cell re-runs the same exchange
//! under a deterministic [`FaultPlan`] and reports latency inflation and
//! whether the delivered bytes still match the fault-free run — the
//! end-to-end evidence that the retry protocol and degradation ladders
//! recover without corrupting data. The adaptive scheme's
//! `threshold_adjusts` column shows the online controller reacting to the
//! fault-induced bandwidth collapse.
//!
//! Every plan is derived from the master `--seed` and the cell's grid
//! coordinates (never from execution order), so the table is
//! byte-identical across runs and `--jobs` counts.

use crate::exec::{self, Cell};
use crate::figs::RunConfig;
use crate::table::{ratio, us, Table};
use fusedpack_gpu::DataMode;
use fusedpack_mpi::SchemeKind;
use fusedpack_net::Platform;
use fusedpack_sim::{FaultPlan, FaultSite, FaultSpec};
use fusedpack_workloads::{
    nas::nas_mg_y, run_exchange, specfem::specfem3d_oc, ExchangeConfig, ExchangeOutcome,
};

/// Fault-site groups, one table row per (profile, rate).
const PROFILES: &[(&str, &[FaultSite])] = &[
    (
        "wire",
        &[
            FaultSite::LinkDrop,
            FaultSite::LinkCorrupt,
            FaultSite::LinkDelay,
        ],
    ),
    ("nic", &[FaultSite::NicTimeout, FaultSite::NicDupCompletion]),
    (
        "gpu",
        &[FaultSite::FusedLaunchFail, FaultSite::FusedFlagLost],
    ),
    (
        "pressure",
        &[FaultSite::RingExhausted, FaultSite::IpcMapFail],
    ),
];

/// Per-decision injection probabilities swept per profile.
const RATES: &[f64] = &[0.02, 0.10];

/// Messages each way per iteration (the paper's §V-C stress level).
const N_MSGS: usize = 16;

/// Derive one cell's plan seed from the master seed and its grid
/// coordinates (splitmix-style mixing; stable across jobs counts).
fn cell_seed(master: u64, w: usize, s: usize, p: usize, r: usize) -> u64 {
    let mut x = master
        .wrapping_add((w as u64) << 48)
        .wrapping_add((s as u64) << 32)
        .wrapping_add((p as u64) << 16)
        .wrapping_add(r as u64 + 1);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

fn config(
    scheme: SchemeKind,
    workload: fusedpack_workloads::Workload,
    plan: Option<FaultPlan>,
) -> ExchangeConfig {
    let mut cfg = ExchangeConfig::new(Platform::lassen(), scheme, workload, N_MSGS);
    // Real bytes: the checksum is the point of this experiment.
    cfg.mode = DataMode::Full;
    cfg.fault_plan = plan;
    cfg
}

pub fn run(cfg: &RunConfig) -> Table {
    let master = cfg.chaos_seed;
    let mut t = Table::new(
        format!(
            "Chaos: fault-site x drop-rate grid, checksum vs fault-free run (Lassen, x{N_MSGS}, seed {master})"
        ),
        &[
            "workload",
            "scheme",
            "faults",
            "rate",
            "latency (us)",
            "inflation",
            "data",
            "inj",
            "retry",
            "degr",
            "adjusts",
        ],
    )
    .with_note(
        "data: ok = receive-buffer checksum identical to the fault-free baseline; \
         inj/retry/degr: injected faults, retransmissions, degradations survived",
    );

    let workloads = [
        ("specfem3D_oc", specfem3d_oc(2400)),
        ("NAS_MG_y", nas_mg_y(64)),
    ];
    let schemes: Vec<(&str, SchemeKind)> = fusedpack_mpi::SchemeRegistry::global()
        .by_names(&["proposed", "proposed-adaptive"])
        .into_iter()
        .map(|scheme| (scheme.label(), scheme))
        .collect();

    // Flat cell list: for each (workload, scheme) a fault-free baseline,
    // then every (profile, rate) cell. The sweep executor reassembles in
    // this order regardless of --jobs.
    let mut cells: Vec<Cell<ExchangeOutcome>> = Vec::new();
    for (wname, w) in &workloads {
        for (sname, scheme) in &schemes {
            let exchange = config(scheme.clone(), w.clone(), None);
            cells.push(Cell::new(format!("{wname}/{sname}/baseline"), move || {
                run_exchange(&exchange)
            }));
            for (pi, (pname, sites)) in PROFILES.iter().enumerate() {
                for (ri, &rate) in RATES.iter().enumerate() {
                    let wi = workloads
                        .iter()
                        .position(|(n, _)| n == wname)
                        .expect("workload in grid");
                    let si = schemes
                        .iter()
                        .position(|(n, _)| n == sname)
                        .expect("scheme in grid");
                    let seed = cell_seed(master, wi, si, pi, ri);
                    let mut plan = FaultPlan::new(seed);
                    for &site in *sites {
                        plan = plan.with(site, FaultSpec::with_probability(rate));
                    }
                    let exchange = config(scheme.clone(), w.clone(), Some(plan));
                    cells.push(Cell::new(
                        format!("{wname}/{sname}/{pname}@{rate}"),
                        move || run_exchange(&exchange),
                    ));
                }
            }
        }
    }

    let outcomes = exec::sweep(cfg, "chaos", cells);

    // Walk the outcomes in the same construction order.
    let mut it = outcomes.into_iter();
    for (wname, _) in &workloads {
        for (sname, _) in &schemes {
            let base = it.next().expect("baseline outcome");
            assert!(
                base.report.event_clamps.count == 0,
                "chaos baseline for {wname}/{sname} is not clamp-free: {:?} — \
                 the fault-free reference cannot be trusted",
                base.report.event_clamps
            );
            assert!(
                base.report.fault_summary.is_clean(),
                "fault-free baseline recorded fault activity: {:?}",
                base.report.fault_summary
            );
            t.push_row(vec![
                (*wname).into(),
                (*sname).into(),
                "none".into(),
                "0".into(),
                us(base.latency),
                "1.00x".into(),
                "ref".into(),
                "0".into(),
                "0".into(),
                "0".into(),
                adjusts(&base),
            ]);
            for (pname, _) in PROFILES {
                for &rate in RATES {
                    let out = it.next().expect("chaos outcome");
                    let faults = out.report.fault_summary;
                    t.push_row(vec![
                        (*wname).into(),
                        (*sname).into(),
                        (*pname).into(),
                        format!("{rate}"),
                        us(out.latency),
                        ratio(out.latency, base.latency),
                        if out.checksum == base.checksum {
                            "ok".into()
                        } else {
                            "DIFF".into()
                        },
                        faults.injected.to_string(),
                        faults.retried.to_string(),
                        faults.degraded.to_string(),
                        adjusts(&out),
                    ]);
                }
            }
        }
    }
    t
}

/// Rank 0's committed threshold adjustments, `-` for a scheme without a
/// fusion scheduler.
fn adjusts(out: &ExchangeOutcome) -> String {
    out.report.sched_stats[0].map_or_else(|| "-".into(), |s| s.threshold_adjusts.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_seeds_depend_on_every_coordinate() {
        let base = cell_seed(42, 0, 0, 0, 0);
        assert_ne!(base, cell_seed(43, 0, 0, 0, 0));
        assert_ne!(base, cell_seed(42, 1, 0, 0, 0));
        assert_ne!(base, cell_seed(42, 0, 1, 0, 0));
        assert_ne!(base, cell_seed(42, 0, 0, 1, 0));
        assert_ne!(base, cell_seed(42, 0, 0, 0, 1));
    }

    #[test]
    fn wire_faults_recover_with_identical_bytes() {
        // One representative cell end to end: a seeded wire profile must
        // inject, recover, and reproduce the fault-free checksum.
        let base = run_exchange(&config(
            SchemeKind::fusion_default(),
            specfem3d_oc(800),
            None,
        ));
        assert_eq!(base.report.event_clamps.count, 0);
        assert!(base.checksum.is_some(), "the chaos grid moves real bytes");
        let mut plan = FaultPlan::new(cell_seed(42, 0, 0, 0, 1));
        for site in [
            FaultSite::LinkDrop,
            FaultSite::LinkCorrupt,
            FaultSite::LinkDelay,
        ] {
            plan = plan.with(site, FaultSpec::with_probability(0.1));
        }
        let out = run_exchange(&config(
            SchemeKind::fusion_default(),
            specfem3d_oc(800),
            Some(plan),
        ));
        let faults = out.report.fault_summary;
        assert!(faults.injected > 0, "{faults:?}");
        assert_eq!(out.checksum, base.checksum, "recovery corrupted data");
        assert!(out.latency >= base.latency, "faults cannot speed a run up");
    }

    #[test]
    fn adaptive_controller_reacts_to_fault_induced_collapse() {
        // Degraded serial-kernel flushes feed the controller measured
        // bandwidth it would never see fault-free; it must move.
        let w = specfem3d_oc(1200);
        let mut plan = FaultPlan::new(cell_seed(42, 0, 1, 2, 1));
        // Launch-fail draws happen once per flush — far fewer than flag
        // draws (once per request) — so they need a high rate for the
        // degraded path to fire reliably on the per-(site, rank) streams.
        plan = plan.with(FaultSite::FusedLaunchFail, FaultSpec::with_probability(0.6));
        plan = plan.with(FaultSite::FusedFlagLost, FaultSpec::with_probability(0.3));
        let out = run_exchange(&config(
            SchemeKind::fusion_adaptive(),
            w.clone(),
            Some(plan),
        ));
        let faults = out.report.fault_summary;
        assert!(faults.degraded > 0, "{faults:?}");
        let base = run_exchange(&config(SchemeKind::fusion_adaptive(), w, None));
        let adjusts = |o: &ExchangeOutcome| {
            o.report.sched_stats[0]
                .expect("adaptive stats")
                .threshold_adjusts
        };
        let (faulty, clean) = (adjusts(&out), adjusts(&base));
        assert!(
            faulty >= clean,
            "fault-induced collapse should move the controller at least as much: {faulty} vs {clean}"
        );
        assert_eq!(out.checksum, base.checksum, "degradation corrupted data");
    }
}
