//! Fig. 9: bulk non-contiguous inter-node transfer, sparse layout
//! (specfem3D_cm) on Lassen, sweeping the number of exchanged buffers.

use crate::exec::{self, Cell};
use crate::figs::{gpu_driven_schemes, latency, proposed, RunConfig};
use crate::table::{ratio, us, Table};
use fusedpack_net::Platform;
use fusedpack_workloads::specfem::specfem3d_cm;

/// Buffer counts of the paper's sweep.
pub const BUFFER_COUNTS: &[usize] = &[1, 2, 4, 8, 16];

/// Boundary points per message (sparse, thousands of blocks).
pub const POINTS: u64 = 2000;

pub fn run(cfg: &RunConfig) -> Table {
    let mut schemes = gpu_driven_schemes();
    // Honour `reproduce --threshold` for the Proposed column.
    schemes[0] = proposed(cfg, &Platform::lassen(), &specfem3d_cm(POINTS));

    let mut headers: Vec<String> = vec!["#buffers".into()];
    headers.extend(schemes.iter().map(|s| format!("{} (us)", s.label())));
    headers.push("best-base/Proposed".into());
    let headers_ref: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();

    let mut t = Table::new(
        "Fig. 9: bulk sparse exchange (specfem3D_cm, Lassen; lower is better)",
        &headers_ref,
    )
    .with_note("paper: Proposed beats every baseline at every buffer count, up to ~5.9x");

    // One cell per (buffer count, scheme), row-major by buffer count.
    let mut cells = Vec::new();
    for &n in BUFFER_COUNTS {
        for s in &schemes {
            let scheme = s.clone();
            cells.push(Cell::new(format!("n{}/{}", n, s.label()), move || {
                let platform = Platform::lassen();
                let w = specfem3d_cm(POINTS);
                latency(&platform, scheme, &w, n)
            }));
        }
    }
    let all = exec::sweep(cfg, "fig9", cells);

    for (lats, &n) in all.chunks(schemes.len()).zip(BUFFER_COUNTS) {
        let mut row = vec![n.to_string()];
        row.extend(lats.iter().map(|&l| us(l)));
        let best_baseline = lats[1..].iter().copied().min().expect("baselines");
        row.push(ratio(best_baseline, lats[0]));
        t.push_row(row);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proposed_wins_at_every_buffer_count() {
        let platform = Platform::lassen();
        let w = specfem3d_cm(POINTS);
        for &n in BUFFER_COUNTS {
            let schemes = gpu_driven_schemes();
            let lats: Vec<_> = schemes
                .iter()
                .map(|s| latency(&platform, s.clone(), &w, n))
                .collect();
            let proposed = lats[0];
            for (s, &l) in schemes.iter().zip(&lats).skip(1) {
                assert!(
                    proposed < l,
                    "n={n}: Proposed {proposed} should beat {} {l}",
                    s.label()
                );
            }
        }
    }

    #[test]
    fn speedup_grows_with_bulk() {
        // More buffers -> more launches amortized -> bigger win.
        let platform = Platform::lassen();
        let w = specfem3d_cm(POINTS);
        let schemes = gpu_driven_schemes();
        let speedup = |n: usize| {
            let f = latency(&platform, schemes[0].clone(), &w, n);
            let s = latency(&platform, schemes[1].clone(), &w, n);
            s.as_nanos() as f64 / f.as_nanos() as f64
        };
        assert!(speedup(16) > speedup(1));
        assert!(speedup(16) > 2.0, "bulk speedup should be substantial");
    }
}
