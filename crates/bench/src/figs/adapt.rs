//! `reproduce adapt`: online adaptive threshold control on a
//! phase-changing workload (not in the paper — the §IV-C/§VII future-work
//! loop, closed).
//!
//! Scenario: two ranks exchange a *sparse* seismic halo (specfem3D_cm) for
//! the first half of the run, then the datatype shifts to a *dense*
//! stencil face (NAS_MG) for the second half. No single static threshold
//! from the Fig. 8 grid is right for both phases; the adaptive controller
//! re-converges after the shift and should match (or beat) the best static
//! choice end-to-end.

use crate::exec::{self, Cell};
use crate::figs::RunConfig;
use crate::table::{us, Table};
use fusedpack_core::ThresholdTuner;
use fusedpack_mpi::SchemeKind;
use fusedpack_net::Platform;
use fusedpack_sim::Duration;
use fusedpack_workloads::nas::nas_mg_y;
use fusedpack_workloads::specfem::specfem3d_cm;
use fusedpack_workloads::{run_exchange, ExchangeConfig, ExchangeOutcome, Workload};

/// Buffers exchanged each way per iteration.
pub const N_MSGS: usize = 16;

/// Iterations per phase (sparse first, then dense).
pub const LAPS_PER_PHASE: usize = 6;

/// The sparse first phase. Sized so over-fusing genuinely hurts (~96 KB
/// packed per message: a too-high threshold defers every flush to the
/// sync point and loses pack/communication overlap), creating real
/// tension with the dense phase, which wants the largest threshold.
pub fn phase_a() -> Workload {
    specfem3d_cm(8192)
}

/// The dense second phase.
pub fn phase_b() -> Workload {
    nas_mg_y(384)
}

/// The phase-shift scenario under one scheme.
pub fn config(scheme: SchemeKind) -> ExchangeConfig {
    ExchangeConfig::new(Platform::lassen(), scheme, phase_a(), N_MSGS)
        .phase_shift(phase_b(), LAPS_PER_PHASE)
}

/// Run the phase-shift scenario under one scheme.
pub fn measure(scheme: SchemeKind) -> ExchangeOutcome {
    run_exchange(&config(scheme))
}

/// The end-to-end cost of the whole run and of each phase: the sums of
/// their laps' makespans.
fn phase_totals(out: &ExchangeOutcome) -> [Duration; 3] {
    let sum = |laps: &[Duration]| laps.iter().copied().sum::<Duration>();
    let (p1, p2) = out.lap_latencies.split_at(LAPS_PER_PHASE);
    [sum(&out.lap_latencies), sum(p1), sum(p2)]
}

pub fn run(cfg: &RunConfig) -> Table {
    let thresholds = ThresholdTuner::default_grid();
    let mut t = Table::new(
        "Adaptive fusion: sparse->dense phase shift (specfem3D_cm -> NAS_MG, 16 ops, Lassen)",
        &[
            "threshold",
            "total (us)",
            "sparse phase (us)",
            "dense phase (us)",
            "adjustments",
        ],
    )
    .with_note(
        "the adaptive row starts at the 512KB default and retunes online; \
         it should match the best static row without a sweep",
    );

    let mut cells: Vec<Cell<ExchangeOutcome>> = Vec::new();
    for &threshold in &thresholds {
        cells.push(Cell::new(
            format!("static/{}KB", threshold / 1024),
            move || measure(SchemeKind::fusion_with_threshold(threshold)),
        ));
    }
    cells.push(Cell::new("adaptive", || {
        measure(SchemeKind::fusion_adaptive())
    }));
    let outcomes = exec::sweep(cfg, "adapt", cells);

    for (out, &threshold) in outcomes.iter().zip(&thresholds) {
        let [total, p1, p2] = phase_totals(out);
        t.push_row(vec![
            format!("{}KB", threshold / 1024),
            us(total),
            us(p1),
            us(p2),
            "-".into(),
        ]);
    }
    let adaptive = outcomes.last().expect("adaptive row");
    let [total, p1, p2] = phase_totals(adaptive);
    t.push_row(vec![
        "adaptive".into(),
        us(total),
        us(p1),
        us(p2),
        adaptive.report.sched_stats[0]
            .map(|s| s.threshold_adjusts.to_string())
            .unwrap_or_else(|| "-".into()),
    ]);
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use fusedpack_telemetry::{Payload, Telemetry};

    #[test]
    fn adaptive_matches_best_static_on_phase_change() {
        let grid = ThresholdTuner::default_grid();
        let statics: Vec<Duration> = grid
            .iter()
            .map(|&b| phase_totals(&measure(SchemeKind::fusion_with_threshold(b)))[0])
            .collect();
        let adaptive = phase_totals(&measure(SchemeKind::fusion_adaptive()))[0];

        let best = statics.iter().copied().min().expect("grid");
        assert!(
            adaptive <= best,
            "adaptive {adaptive} must not lose to the best static threshold {best}"
        );
        let first = statics[0];
        let last = *statics.last().expect("grid");
        assert!(
            adaptive < first || adaptive < last,
            "adaptive {adaptive} must strictly beat a grid endpoint \
             (16KB: {first}, 4MB: {last})"
        );
    }

    #[test]
    fn threshold_adjust_instants_reconcile_with_sched_stats() {
        let telemetry = Telemetry::enabled();
        let out = run_exchange(&ExchangeConfig {
            telemetry: Some(telemetry.clone()),
            ..config(SchemeKind::fusion_adaptive())
        });
        let stats = out.report.sched_stats[0].expect("adaptive sched stats");
        let snap = telemetry.snapshot();
        let rank0_adjusts = snap
            .events
            .iter()
            .filter(|e| e.rank == 0 && matches!(e.payload, Payload::ThresholdAdjust { .. }))
            .count() as u64;
        assert_eq!(
            rank0_adjusts, stats.threshold_adjusts,
            "every committed adjustment must appear as exactly one telemetry instant"
        );
        assert!(
            stats.threshold_adjusts > 0,
            "controller moved at least once"
        );
        let flushes = stats.flushes_sync + stats.flushes_threshold + stats.flushes_pressure;
        assert!(
            stats.threshold_adjusts <= flushes,
            "at most one adjustment per flush ({} adjusts, {} flushes)",
            stats.threshold_adjusts,
            flushes
        );
        assert_eq!(flushes, stats.kernels_launched);
    }
}
