//! Fig. 14: comparison with production communication libraries on Lassen,
//! normalized to SpectrumMPI (higher is better).

use crate::exec::{self, Cell};
use crate::figs::RunConfig;
use crate::figs::{latency, HALO_MSGS};
use crate::table::Table;
use fusedpack_mpi::SchemeKind;
use fusedpack_net::Platform;
use fusedpack_workloads::{nas::nas_mg_y, specfem::specfem3d_cm, Workload};

/// The production-library lineup of Fig. 14.
pub fn libraries() -> Vec<SchemeKind> {
    fusedpack_mpi::SchemeRegistry::global().by_names(&[
        "spectrum-mpi",
        "open-mpi",
        "mvapich2-gdr",
        "proposed",
    ])
}

/// The two representative layouts the figure covers.
pub fn workloads() -> Vec<Workload> {
    vec![specfem3d_cm(2048), nas_mg_y(128)]
}

pub fn run(cfg: &RunConfig) -> Table {
    let libs = libraries();

    let mut headers: Vec<String> = vec!["workload".into(), "size".into()];
    headers.extend(libs.iter().map(|s| s.label().to_string()));
    let headers_ref: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    let mut t = Table::new(
        "Fig. 14: production libraries on Lassen (normalized to SpectrumMPI; higher is better)",
        &headers_ref,
    )
    .with_note("paper: Proposed is orders of magnitude faster than SpectrumMPI/OpenMPI and several-x faster than MVAPICH2-GDR");

    // One cell per (workload, library), row-major by workload. The
    // SpectrumMPI baseline is each row's first cell, so normalization
    // happens after reassembly with no cross-cell coupling.
    let mut cells = Vec::new();
    for w in workloads() {
        for s in &libs {
            let scheme = s.clone();
            let w = w.clone();
            cells.push(Cell::new(format!("{}/{}", w.name, s.label()), move || {
                let platform = Platform::lassen();
                latency(&platform, scheme, &w, HALO_MSGS)
            }));
        }
    }
    let all = exec::sweep(cfg, "fig14", cells);

    for (lats, w) in all.chunks(libs.len()).zip(workloads()) {
        let base = lats[0];
        let mut row = vec![w.name.to_string(), format!("{}KB", w.packed_bytes() / 1024)];
        for &l in lats {
            row.push(format!(
                "{:.1}",
                base.as_nanos() as f64 / l.as_nanos() as f64
            ));
        }
        t.push_row(row);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use fusedpack_mpi::NaiveFlavor;

    #[test]
    fn proposed_is_orders_of_magnitude_faster_than_naive_on_sparse() {
        let platform = Platform::lassen();
        let w = specfem3d_cm(2048);
        let spectrum = latency(
            &platform,
            SchemeKind::NaiveCopy(NaiveFlavor::SpectrumMpi),
            &w,
            HALO_MSGS,
        );
        let proposed = latency(&platform, SchemeKind::fusion_default(), &w, HALO_MSGS);
        let speedup = spectrum.as_nanos() as f64 / proposed.as_nanos() as f64;
        assert!(
            speedup > 50.0,
            "sparse: expected a huge gap vs SpectrumMPI, got {speedup:.0}x"
        );
    }

    #[test]
    fn proposed_beats_mvapich_gdr() {
        let platform = Platform::lassen();
        for w in workloads() {
            let mvapich = latency(&platform, SchemeKind::Adaptive, &w, HALO_MSGS);
            let proposed = latency(&platform, SchemeKind::fusion_default(), &w, HALO_MSGS);
            assert!(
                proposed < mvapich,
                "{}: proposed {proposed} should beat MVAPICH2-GDR {mvapich}",
                w.name
            );
        }
    }

    #[test]
    fn openmpi_and_spectrum_are_comparable() {
        let platform = Platform::lassen();
        let w = specfem3d_cm(2048);
        let spectrum = latency(
            &platform,
            SchemeKind::NaiveCopy(NaiveFlavor::SpectrumMpi),
            &w,
            HALO_MSGS,
        );
        let openmpi = latency(
            &platform,
            SchemeKind::NaiveCopy(NaiveFlavor::OpenMpi),
            &w,
            HALO_MSGS,
        );
        let ratio = spectrum.as_nanos() as f64 / openmpi.as_nanos() as f64;
        assert!(
            (0.5..=2.0).contains(&ratio),
            "the two naive libraries should be the same order: {ratio:.2}"
        );
    }
}
