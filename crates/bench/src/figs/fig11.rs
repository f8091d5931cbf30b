//! Fig. 11: cost breakdown of the GPU-driven designs (MILC, 16 transfers,
//! two nodes, ABCI): (Un)Pack / Launching / Scheduling / Sync. / Comm.

use crate::exec::{self, Cell};
use crate::figs::RunConfig;
use crate::table::{us, Table};
use fusedpack_mpi::{Breakdown, SchemeKind};
use fusedpack_net::Platform;
use fusedpack_telemetry::Telemetry;
use fusedpack_workloads::{milc::milc_su3_zdown, run_exchange, ExchangeConfig};

/// Medium MILC lattice: enough work that every bucket is visible.
pub const LATTICE: u64 = 8;
pub const N_MSGS: usize = 16;

/// The GPU-driven designs the paper breaks down.
pub fn schemes() -> Vec<SchemeKind> {
    fusedpack_mpi::SchemeRegistry::global().by_names(&["gpu-sync", "gpu-async", "proposed"])
}

/// The configuration of one Fig. 11 cell.
pub fn config(scheme: SchemeKind) -> ExchangeConfig {
    ExchangeConfig::new(Platform::abci(), scheme, milc_su3_zdown(LATTICE), N_MSGS)
}

/// Measure the per-iteration breakdown for one scheme.
pub fn breakdown_for(scheme: SchemeKind) -> Breakdown {
    run_exchange(&config(scheme)).breakdown
}

/// Run the fusion-scheme Fig. 11 cell with a live typed-event recorder.
///
/// Returns the recorder, whose timeline covers the whole run, together
/// with each rank's whole-run [`Breakdown`] — the independent ledger the
/// timeline can be reconciled against with [`fusedpack_telemetry::reconcile`](fn@fusedpack_telemetry::reconcile).
pub fn traced_run() -> (Telemetry, Vec<Breakdown>) {
    let telemetry = Telemetry::enabled();
    let mut cfg = config(SchemeKind::fusion_default());
    cfg.telemetry = Some(telemetry.clone());
    (telemetry, run_exchange(&cfg).report.breakdowns)
}

pub fn run(cfg: &RunConfig) -> Table {
    let mut t = Table::new(
        "Fig. 11: cost breakdown of GPU-driven designs (MILC x16, ABCI; us per iteration, both ranks)",
        &[
            "scheme",
            "(Un)Pack",
            "Launching",
            "Scheduling",
            "Sync.",
            "Comm.",
            "total",
        ],
    )
    .with_note("paper: Proposed has the lowest launch+sync; GPU-Sync the highest sync; scheduling ~2us/msg");

    // One cell per scheme: each runs its own two-rank simulation.
    let cells: Vec<Cell<Breakdown>> = schemes()
        .into_iter()
        .map(|scheme| {
            let label = scheme.label();
            Cell::new(label, move || breakdown_for(scheme))
        })
        .collect();
    let breakdowns = exec::sweep(cfg, "fig11", cells);

    for (scheme, b) in schemes().into_iter().zip(breakdowns) {
        t.push_row(vec![
            scheme.label().into(),
            us(b.pack),
            us(b.launch),
            us(b.scheduling),
            us(b.sync),
            us(b.comm),
            us(b.total()),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proposed_minimizes_launch_and_sync() {
        let sync = breakdown_for(SchemeKind::GpuSync);
        let asyn = breakdown_for(SchemeKind::GpuAsync);
        let fused = breakdown_for(SchemeKind::fusion_default());

        assert!(fused.launch < sync.launch, "{fused:?} vs {sync:?}");
        assert!(fused.launch < asyn.launch);
        assert!(fused.sync < sync.sync);
        assert!(fused.sync < asyn.sync);
        // GPU-Sync always has the highest synchronization cost.
        assert!(sync.sync > asyn.sync);
    }

    #[test]
    fn scheduling_is_roughly_two_us_per_message() {
        let fused = breakdown_for(SchemeKind::fusion_default());
        // 16 packs + 16 unpacks per rank, both ranks: 64 scheduled requests.
        let per_msg = fused.scheduling.as_micros_f64() / 64.0;
        assert!(
            (0.5..=3.0).contains(&per_msg),
            "scheduling {per_msg:.2}us/msg should be ~2us as the paper reports"
        );
    }

    #[test]
    fn every_bucket_is_populated_for_fusion() {
        let fused = breakdown_for(SchemeKind::fusion_default());
        assert!(fused.pack.as_nanos() > 0);
        assert!(fused.launch.as_nanos() > 0);
        assert!(fused.scheduling.as_nanos() > 0);
        assert!(fused.sync.as_nanos() > 0);
    }
}
