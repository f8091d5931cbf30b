//! Fig. 8: performance effects of the fused-kernel threshold
//! (specfem3D_cm, 32 back-to-back Isend/Irecv pairs) — the under-fused /
//! over-fused U-shape of §IV-C.

use crate::exec::{self, Cell};
use crate::figs::latency;
use crate::figs::RunConfig;
use crate::table::{us, Table};
use fusedpack_core::ThresholdTuner;
use fusedpack_mpi::SchemeKind;
use fusedpack_net::Platform;
use fusedpack_workloads::specfem::specfem3d_cm;

/// Boundary point counts giving small / medium / large input sizes.
pub const INPUT_SIZES: &[u64] = &[1024, 4096, 16384];

/// 32 continuous Isend/Irecv operations per rank, as in the paper's Fig. 8.
pub const N_MSGS: usize = 32;

pub fn run(cfg: &RunConfig) -> Table {
    let thresholds = ThresholdTuner::default_grid();

    let mut headers: Vec<String> = vec!["threshold".into()];
    for &pts in INPUT_SIZES {
        headers.push(format!("{}pt (us)", pts));
    }
    let headers_ref: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    let mut t = Table::new(
        "Fig. 8: fused-kernel threshold sweep (specfem3D_cm, 32 ops, Lassen)",
        &headers_ref,
    )
    .with_note("too-low thresholds under-fuse (frequent launches); too-high over-fuse (delayed communication)");

    // One cell per (threshold, input size); row-major so chunking the flat
    // result list by INPUT_SIZES.len() reassembles the rows.
    let mut cells = Vec::new();
    for &threshold in &thresholds {
        for &pts in INPUT_SIZES {
            cells.push(Cell::new(
                format!("{}KB/{}pt", threshold / 1024, pts),
                move || {
                    let platform = Platform::lassen();
                    let w = specfem3d_cm(pts);
                    latency(
                        &platform,
                        SchemeKind::fusion_with_threshold(threshold),
                        &w,
                        N_MSGS,
                    )
                },
            ));
        }
    }
    // One extra row: the online adaptive controller, which should land at
    // or near the best static threshold without being told it.
    for &pts in INPUT_SIZES {
        cells.push(Cell::new(format!("adaptive/{}pt", pts), move || {
            let platform = Platform::lassen();
            let w = specfem3d_cm(pts);
            latency(&platform, SchemeKind::fusion_adaptive(), &w, N_MSGS)
        }));
    }
    let lats = exec::sweep(cfg, "fig8", cells);

    for (row_lats, &threshold) in lats.chunks(INPUT_SIZES.len()).zip(&thresholds) {
        let mut row = vec![format!("{}KB", threshold / 1024)];
        row.extend(row_lats.iter().map(|&l| us(l)));
        t.push_row(row);
    }
    let adaptive_lats = &lats[thresholds.len() * INPUT_SIZES.len()..];
    let mut row = vec!["adaptive".to_string()];
    row.extend(adaptive_lats.iter().map(|&l| us(l)));
    t.push_row(row);
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_shows_under_and_over_fused_regimes() {
        let platform = Platform::lassen();
        let w = specfem3d_cm(4096);
        let tiny = latency(
            &platform,
            SchemeKind::fusion_with_threshold(16 * 1024),
            &w,
            N_MSGS,
        );
        let mid = latency(
            &platform,
            SchemeKind::fusion_with_threshold(512 * 1024),
            &w,
            N_MSGS,
        );
        assert!(
            mid < tiny,
            "mid threshold {mid} should beat under-fused {tiny}"
        );
    }

    #[test]
    fn table_has_full_grid_plus_adaptive() {
        let t = run(&RunConfig::default());
        assert_eq!(t.rows.len(), ThresholdTuner::default_grid().len() + 1);
        assert_eq!(t.headers.len(), 1 + INPUT_SIZES.len());
        assert_eq!(t.rows.last().expect("rows")[0], "adaptive");
    }
}
