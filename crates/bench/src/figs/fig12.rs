//! Fig. 12: 3-D halo exchange (32 non-blocking ops per rank) across the
//! four application workloads on Lassen, sweeping the input size.

use crate::exec::{self, Cell};
use crate::figs::{gpu_driven_schemes, latency, proposed, tuned_fusion, RunConfig, HALO_MSGS};
use crate::table::{us, Table};
#[cfg(test)]
use fusedpack_mpi::SchemeKind;
use fusedpack_net::Platform;
use fusedpack_workloads::{
    milc::milc_su3_zdown,
    nas::nas_mg_y,
    specfem::{specfem3d_cm, specfem3d_oc},
    Workload,
};

/// The four panels of Figs. 12/13 with their size sweeps.
pub fn panels() -> Vec<(&'static str, Vec<(String, Workload)>)> {
    use crate::figs::sizes;
    let spec = |f: fn(u64) -> Workload| {
        sizes::SPECFEM
            .iter()
            .map(move |&p| (format!("{p}pt"), f(p)))
            .collect::<Vec<_>>()
    };
    vec![
        ("(a) specfem3D_oc (sparse)", spec(specfem3d_oc)),
        ("(b) specfem3D_cm (sparse)", spec(specfem3d_cm)),
        (
            "(c) MILC (dense, small)",
            sizes::MILC
                .iter()
                .map(|&l| (format!("L{l}"), milc_su3_zdown(l)))
                .collect(),
        ),
        (
            "(d) NAS_MG (dense, large)",
            sizes::NAS
                .iter()
                .map(|&n| (format!("{n}^2"), nas_mg_y(n)))
                .collect(),
        ),
    ]
}

/// Run the full figure on `platform`, labelled `fig_name`.
///
/// Every (panel, size) row is one sweep cell; the tuned-threshold grid
/// search stays sequential *inside* its row's cell, so the executor sees a
/// flat list of 24 equally-shaped jobs.
pub fn run_on(cfg: &RunConfig, platform: &Platform, fig_name: &str) -> Vec<Table> {
    let schemes = gpu_driven_schemes();
    let experiment = if fig_name.contains("13") {
        "fig13"
    } else {
        "fig12"
    };

    let all_panels = panels();
    let mut cells: Vec<Cell<Vec<String>>> = Vec::new();
    for (panel, workloads) in &all_panels {
        for (label, w) in workloads {
            let platform = platform.clone();
            let mut schemes = schemes.clone();
            // Honour `reproduce --threshold` for the Proposed column.
            schemes[0] = proposed(cfg, &platform, w);
            let label = label.clone();
            let w = w.clone();
            cells.push(Cell::new(format!("{panel}/{label}"), move || {
                let mut row = vec![label, format!("{}KB", w.packed_bytes() / 1024)];
                let (_threshold, tuned) = tuned_fusion(&platform, &w, HALO_MSGS);
                row.push(us(tuned));
                for s in &schemes {
                    row.push(us(latency(&platform, s.clone(), &w, HALO_MSGS)));
                }
                row
            }));
        }
    }
    let mut rows = exec::sweep(cfg, experiment, cells).into_iter();

    let mut tables = Vec::new();
    for (panel, workloads) in &all_panels {
        let mut headers: Vec<String> = vec!["size".into(), "packed".into()];
        headers.push("Proposed-Tuned (us)".into());
        headers.extend(schemes.iter().map(|s| format!("{} (us)", s.label())));
        let headers_ref: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
        let mut t = Table::new(
            format!("{fig_name} {panel} on {} (lower is better)", platform.name),
            &headers_ref,
        );
        for _ in workloads {
            t.push_row(rows.next().expect("one row per workload cell"));
        }
        tables.push(t);
    }
    tables
}

pub fn run(cfg: &RunConfig) -> Vec<Table> {
    run_on(cfg, &Platform::lassen(), "Fig. 12")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparse_panels_proposed_wins_on_lassen() {
        let platform = Platform::lassen();
        for w in [specfem3d_oc(4096), specfem3d_cm(4096)] {
            let fusion = latency(&platform, SchemeKind::fusion_default(), &w, HALO_MSGS);
            let sync = latency(&platform, SchemeKind::GpuSync, &w, HALO_MSGS);
            let asyn = latency(&platform, SchemeKind::GpuAsync, &w, HALO_MSGS);
            let hybrid = latency(&platform, SchemeKind::CpuGpuHybrid, &w, HALO_MSGS);
            assert!(
                fusion < sync && fusion < asyn && fusion < hybrid,
                "{}",
                w.name
            );
            // The paper reports multi-x improvements on sparse layouts.
            assert!(
                sync.as_nanos() as f64 / fusion.as_nanos() as f64 > 3.0,
                "{}: expected >3x vs GPU-Sync",
                w.name
            );
        }
    }

    #[test]
    fn nas_large_proposed_beats_hybrid() {
        // Fig. 12(d): dense but large — the hybrid CPU path no longer
        // applies and the fused kernels win.
        let platform = Platform::lassen();
        let w = nas_mg_y(384);
        let fusion = latency(&platform, SchemeKind::fusion_default(), &w, HALO_MSGS);
        let hybrid = latency(&platform, SchemeKind::CpuGpuHybrid, &w, HALO_MSGS);
        let sync = latency(&platform, SchemeKind::GpuSync, &w, HALO_MSGS);
        assert!(fusion < hybrid);
        assert!(fusion < sync);
    }

    #[test]
    fn tuned_is_no_worse_than_default() {
        let platform = Platform::lassen();
        let w = specfem3d_cm(2048);
        let (threshold, t) = tuned_fusion(&platform, &w, HALO_MSGS);
        let tuned = SchemeKind::fusion_with_threshold(threshold);
        assert_eq!(
            t,
            latency(&platform, tuned, &w, HALO_MSGS),
            "the sweep's own point"
        );
        let d = latency(&platform, SchemeKind::fusion_default(), &w, HALO_MSGS);
        assert!(t <= d, "tuned {t} must be <= default {d}");
    }
}
