//! Fig. 10: bulk non-contiguous inter-node transfer, dense layout (MILC)
//! on Lassen, sweeping the number of exchanged buffers.
//!
//! The paper's twist: for small dense messages the CPU-GPU-Hybrid GDRCopy
//! path wins outright (no kernel launch at all), while the proposed design
//! still beats both kernel-driven baselines.

use crate::exec::{self, Cell};
use crate::figs::{gpu_driven_schemes, latency, proposed, RunConfig};
use crate::table::{us, Table};
use fusedpack_net::Platform;
use fusedpack_workloads::milc::milc_su3_zdown;

pub const BUFFER_COUNTS: &[usize] = &[1, 2, 4, 8, 16];

/// Small local lattice: dense layout, small messages (the hybrid sweet
/// spot).
pub const LATTICE: u64 = 4;

pub fn run(cfg: &RunConfig) -> Table {
    let mut schemes = gpu_driven_schemes();
    // Honour `reproduce --threshold` for the Proposed column.
    schemes[0] = proposed(cfg, &Platform::lassen(), &milc_su3_zdown(LATTICE));

    let mut headers: Vec<String> = vec!["#buffers".into()];
    headers.extend(schemes.iter().map(|s| format!("{} (us)", s.label())));
    let headers_ref: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();

    let mut t = Table::new(
        "Fig. 10: bulk dense exchange (MILC, Lassen; lower is better)",
        &headers_ref,
    )
    .with_note(
        "paper: CPU-GPU-Hybrid wins small dense on Lassen; Proposed still beats GPU-Sync/GPU-Async",
    );

    // One cell per (buffer count, scheme), row-major by buffer count.
    let mut cells = Vec::new();
    for &n in BUFFER_COUNTS {
        for s in &schemes {
            let scheme = s.clone();
            cells.push(Cell::new(format!("n{}/{}", n, s.label()), move || {
                let platform = Platform::lassen();
                let w = milc_su3_zdown(LATTICE);
                latency(&platform, scheme, &w, n)
            }));
        }
    }
    let all = exec::sweep(cfg, "fig10", cells);

    for (lats, &n) in all.chunks(schemes.len()).zip(BUFFER_COUNTS) {
        let mut row = vec![n.to_string()];
        row.extend(lats.iter().map(|&l| us(l)));
        t.push_row(row);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use fusedpack_mpi::SchemeKind;

    #[test]
    fn hybrid_wins_and_proposed_beats_kernel_baselines() {
        let platform = Platform::lassen();
        let w = milc_su3_zdown(LATTICE);
        for &n in &[4usize, 16] {
            let fusion = latency(&platform, SchemeKind::fusion_default(), &w, n);
            let sync = latency(&platform, SchemeKind::GpuSync, &w, n);
            let asyn = latency(&platform, SchemeKind::GpuAsync, &w, n);
            let hybrid = latency(&platform, SchemeKind::CpuGpuHybrid, &w, n);
            assert!(
                hybrid < fusion,
                "n={n}: hybrid {hybrid} < proposed {fusion}"
            );
            assert!(fusion < sync, "n={n}: proposed {fusion} < sync {sync}");
            assert!(fusion < asyn, "n={n}: proposed {fusion} < async {asyn}");
        }
    }

    #[test]
    fn gpu_async_not_better_than_sync_on_lassen() {
        // Fig. 10's secondary observation: the extra event overheads make
        // GPU-Async lose to GPU-Sync on Lassen's fast interconnect.
        let platform = Platform::lassen();
        let w = milc_su3_zdown(LATTICE);
        let sync = latency(&platform, SchemeKind::GpuSync, &w, 16);
        let asyn = latency(&platform, SchemeKind::GpuAsync, &w, 16);
        assert!(
            asyn.as_nanos() as f64 >= 0.95 * sync.as_nanos() as f64,
            "async {asyn} should not meaningfully beat sync {sync} on Lassen"
        );
    }
}
