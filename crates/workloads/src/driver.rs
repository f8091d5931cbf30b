//! The benchmark drivers: one call per (platform, scheme, workload) cell.
//!
//! Every driver takes the same path: build a cluster from its config, run
//! it, and measure the run through one helper. An outcome keeps only what
//! it derives — lap latencies and their mean, averaged breakdowns,
//! percentiles, hop totals, the receive digest — and carries the run's
//! [`RunReport`] for everything else (events, scheduler statistics,
//! faults, clamps, fabric health, shard barriers, per-rank breakdowns).

use crate::bulk::{bulk_exchange_programs, phase_shift_programs};
use crate::Workload;
use fusedpack_gpu::DataMode;
use fusedpack_mpi::{Breakdown, BufId, Cluster, ClusterBuilder, RankId, RunReport, SchemeKind};
use fusedpack_net::Platform;
use fusedpack_sim::{digest, Duration, FaultPlan};
use fusedpack_telemetry::Telemetry;
use std::ops::Range;

/// Configuration of one exchange measurement.
#[derive(Clone)]
pub struct ExchangeConfig {
    pub platform: Platform,
    pub scheme: SchemeKind,
    pub workload: Workload,
    /// Buffers exchanged each way per iteration.
    pub n_msgs: usize,
    /// Iterations discarded for warm-up (layout caches, allocator).
    pub warmup_laps: usize,
    /// Iterations measured.
    pub measured_laps: usize,
    /// `ModelOnly` for timing sweeps, `Full` when bytes must be real (the
    /// outcome's checksum covers them).
    pub mode: DataMode,
    /// Fault plan armed on the cluster (the chaos harness). `None` runs
    /// fault-free.
    pub fault_plan: Option<FaultPlan>,
    /// Live recorder the cluster's events land in (tagged per rank);
    /// `None` records nothing.
    pub telemetry: Option<Telemetry>,
}

impl ExchangeConfig {
    /// The defaults used by the figure harnesses: one warm-up iteration,
    /// one measured iteration (the simulation is deterministic, so the
    /// paper's 500-iteration averaging collapses to a single warm lap),
    /// timing-only memory, no faults, no recorder.
    pub fn new(platform: Platform, scheme: SchemeKind, workload: Workload, n_msgs: usize) -> Self {
        ExchangeConfig {
            platform,
            scheme,
            workload,
            n_msgs,
            warmup_laps: 1,
            measured_laps: 1,
            mode: DataMode::ModelOnly,
            fault_plan: None,
            telemetry: None,
        }
    }
}

/// Results of one exchange measurement.
#[derive(Debug, Clone)]
pub struct ExchangeOutcome {
    /// Mean makespan of the measured iterations — the paper's reported
    /// latency.
    pub latency: Duration,
    /// Individual measured-iteration makespans.
    pub lap_latencies: Vec<Duration>,
    /// Per-iteration cost buckets, summed over both ranks and averaged
    /// over measured iterations (Fig. 11).
    pub breakdown: Breakdown,
    /// Digest of both ranks' receive buffers (rank 0's first); `Some` only
    /// in `DataMode::Full`. A faulty run recovered correctly iff its
    /// checksum equals the fault-free run's.
    pub checksum: Option<u64>,
    /// The whole run's report.
    pub report: RunReport,
}

/// Run one bulk-exchange measurement.
pub fn run_exchange(cfg: &ExchangeConfig) -> ExchangeOutcome {
    let laps = cfg.warmup_laps + cfg.measured_laps;
    let ((p0, b0), (p1, b1)) = bulk_exchange_programs(&cfg.workload, cfg.n_msgs, laps, 7);
    let mut cluster = builder(
        &cfg.platform,
        &cfg.scheme,
        cfg.mode,
        cfg.fault_plan.as_ref(),
        cfg.telemetry.as_ref(),
    )
    .add_rank(0, p0)
    .add_rank(1, p1)
    .build();
    let recv = [(RankId(0), b0.recv), (RankId(1), b1.recv)]
        .into_iter()
        .flat_map(|(rank, bufs)| bufs.into_iter().map(move |buf| (rank, buf)));
    let m = measure(&mut cluster, cfg.warmup_laps..laps, recv);

    // Sum both ranks' per-lap breakdowns over the measured laps, averaged.
    let mut sum = Breakdown::default();
    for rank_laps in &m.report.lap_breakdowns {
        for lap in rank_laps.iter().skip(cfg.warmup_laps) {
            sum += *lap;
        }
    }
    let div = cfg.measured_laps.max(1) as u64;
    let breakdown = Breakdown {
        pack: sum.pack / div,
        launch: sum.launch / div,
        scheduling: sum.scheduling / div,
        sync: sum.sync / div,
        comm: sum.comm / div,
    };
    ExchangeOutcome {
        latency: m.latency,
        lap_latencies: m.laps,
        breakdown,
        checksum: m.checksum,
        report: m.report,
    }
}

/// Results of one phase-changing measurement ([`run_phase_shift`]).
#[derive(Debug, Clone)]
pub struct PhaseShiftOutcome {
    /// Sum of every lap's makespan — the end-to-end cost of the whole
    /// phase-changing run (no warm-up discard: adapting through the cold
    /// start and the phase change is exactly what is being measured).
    pub total: Duration,
    /// Per-lap makespans, phase 1 laps first.
    pub lap_latencies: Vec<Duration>,
    /// The whole run's report.
    pub report: RunReport,
}

/// Run a bulk exchange whose datatype shifts from workload `a` to workload
/// `b` after `laps_per_phase` iterations (see
/// [`crate::bulk::phase_shift_programs`]), recording into `telemetry` when
/// one is given.
pub fn run_phase_shift(
    platform: Platform,
    scheme: SchemeKind,
    a: &Workload,
    b: &Workload,
    n_msgs: usize,
    laps_per_phase: usize,
    telemetry: Option<&Telemetry>,
) -> PhaseShiftOutcome {
    let (p0, p1) = phase_shift_programs(a, b, n_msgs, laps_per_phase, 7);
    let mut cluster = builder(&platform, &scheme, DataMode::ModelOnly, None, telemetry)
        .add_rank(0, p0)
        .add_rank(1, p1)
        .build();
    let m = measure(&mut cluster, 0..2 * laps_per_phase, []);
    PhaseShiftOutcome {
        total: m.laps.iter().copied().sum(),
        lap_latencies: m.laps,
        report: m.report,
    }
}

/// A cluster builder armed with the settings the driver configs share.
pub(crate) fn builder(
    platform: &Platform,
    scheme: &SchemeKind,
    mode: DataMode,
    fault_plan: Option<&FaultPlan>,
    telemetry: Option<&Telemetry>,
) -> ClusterBuilder {
    let mut builder = ClusterBuilder::new(platform.clone(), scheme.clone()).data_mode(mode);
    if let Some(plan) = fault_plan {
        builder = builder.fault_plan(plan.clone());
    }
    if let Some(t) = telemetry {
        builder = builder.telemetry(t.clone());
    }
    builder
}

/// What [`measure`] reads off one run.
pub(crate) struct Measured {
    /// Mean of `laps`.
    pub latency: Duration,
    /// Makespans of the measured laps, in order.
    pub laps: Vec<Duration>,
    /// Digest of the receive buffers; `None` in `DataMode::ModelOnly`.
    pub checksum: Option<u64>,
    pub report: RunReport,
}

/// Run `cluster` and measure it: the makespans of the laps in `measured`
/// and their mean, and in `DataMode::Full` the digest of the `recv`
/// buffers, read in place in the order given.
pub(crate) fn measure(
    cluster: &mut Cluster,
    measured: Range<usize>,
    recv: impl IntoIterator<Item = (RankId, BufId)>,
) -> Measured {
    let report = cluster.run();
    if report.event_clamps.count > 0 {
        // A clamp means the simulator rewrote a computed timestamp —
        // harmless for liveness but a red flag for timing fidelity. Shout
        // on stderr so table/CSV bytes stay stable.
        eprintln!(
            "WARNING: {} event clamp(s) (total skew {}) — timing fidelity is degraded",
            report.event_clamps.count, report.event_clamps.total_skew
        );
    }
    let laps: Vec<Duration> = measured.map(|i| report.lap_makespan(i)).collect();
    let latency = if laps.is_empty() {
        Duration::ZERO
    } else {
        laps.iter().copied().sum::<Duration>() / laps.len() as u64
    };
    let checksum = (cluster.mode() == DataMode::Full).then(|| {
        let cluster = &*cluster;
        digest(
            recv.into_iter()
                .map(|(rank, buf)| cluster.rank_bytes(rank, buf)),
        )
    });
    Measured {
        latency,
        laps,
        checksum,
        report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::milc::milc_su3_zdown;
    use crate::nas::nas_mg_y;
    use crate::specfem::{specfem3d_cm, specfem3d_oc};

    fn run(scheme: SchemeKind, workload: Workload, n: usize) -> ExchangeOutcome {
        run_exchange(&ExchangeConfig::new(
            Platform::lassen(),
            scheme,
            workload,
            n,
        ))
    }

    #[test]
    fn fusion_wins_bulk_sparse_exchange() {
        // The Fig. 9 headline at 16 buffers.
        let fusion = run(SchemeKind::fusion_default(), specfem3d_cm(1200), 16);
        let sync = run(SchemeKind::GpuSync, specfem3d_cm(1200), 16);
        let async_ = run(SchemeKind::GpuAsync, specfem3d_cm(1200), 16);
        let hybrid = run(SchemeKind::CpuGpuHybrid, specfem3d_cm(1200), 16);
        assert!(fusion.latency < sync.latency);
        assert!(fusion.latency < async_.latency);
        assert!(fusion.latency < hybrid.latency);
        let speedup = sync.latency.as_nanos() as f64 / fusion.latency.as_nanos() as f64;
        assert!(speedup > 2.0, "expected a solid speedup, got {speedup:.2}x");
    }

    #[test]
    fn hybrid_wins_small_dense_on_lassen() {
        // The Fig. 10 / Fig. 12(c) exception: small dense MILC messages on
        // NVLink-attached POWER9.
        let w = milc_su3_zdown(4);
        let hybrid = run(SchemeKind::CpuGpuHybrid, w.clone(), 16);
        let fusion = run(SchemeKind::fusion_default(), w, 16);
        assert!(
            hybrid.latency < fusion.latency,
            "hybrid {:?} should beat fusion {:?} for small dense on Lassen",
            hybrid.latency,
            fusion.latency
        );
    }

    #[test]
    fn fusion_wins_large_dense() {
        // Fig. 12(d): large NAS messages leave the hybrid sweet spot.
        let w = nas_mg_y(384);
        let fusion = run(SchemeKind::fusion_default(), w.clone(), 16);
        let hybrid = run(SchemeKind::CpuGpuHybrid, w, 16);
        assert!(fusion.latency < hybrid.latency);
    }

    #[test]
    fn single_message_latencies_are_microseconds() {
        // Sanity on absolute scale: a single sparse message should cost
        // tens of microseconds, not milliseconds.
        let out = run(SchemeKind::fusion_default(), specfem3d_oc(2000), 1);
        assert!(out.latency.as_micros_f64() > 5.0, "{}", out.latency);
        assert!(out.latency.as_micros_f64() < 200.0, "{}", out.latency);
    }

    #[test]
    fn adaptive_scheme_runs_and_adjusts_on_phase_shift() {
        let out = run_phase_shift(
            Platform::lassen(),
            SchemeKind::fusion_adaptive(),
            &specfem3d_cm(1200),
            &nas_mg_y(384),
            16,
            6,
            None,
        );
        let stats = out.report.sched_stats[0].expect("adaptive fusion keeps sched stats");
        assert!(stats.kernels_launched > 0);
        assert!(
            stats.threshold_adjusts > 0,
            "the controller should move at least once across a sparse→dense shift"
        );
        assert!(
            stats.threshold_adjusts <= stats.kernels_launched,
            "at most one adjustment per flush"
        );
        assert_eq!(out.lap_latencies.len(), 12);
    }

    #[test]
    fn static_fusion_never_adjusts() {
        let out = run_phase_shift(
            Platform::lassen(),
            SchemeKind::fusion_default(),
            &specfem3d_cm(1200),
            &nas_mg_y(384),
            8,
            2,
            None,
        );
        assert_eq!(
            out.report.sched_stats[0]
                .expect("fusion stats")
                .threshold_adjusts,
            0
        );
    }

    #[test]
    fn outcome_carries_diagnostics() {
        let out = run(SchemeKind::fusion_default(), specfem3d_oc(500), 8);
        let stats = out.report.sched_stats[0].expect("fusion stats");
        assert!(stats.enqueued >= 16, "8 packs + 8 unpacks per rank");
        assert!(out.report.kernels_launched.iter().sum::<u64>() > 0);
        assert!(out.breakdown.total().as_nanos() > 0);
    }

    #[test]
    fn checksum_is_reported_only_for_real_bytes() {
        let mut cfg = ExchangeConfig::new(
            Platform::lassen(),
            SchemeKind::fusion_default(),
            specfem3d_oc(200),
            4,
        );
        assert_eq!(
            run_exchange(&cfg).checksum,
            None,
            "ModelOnly moves no bytes"
        );
        cfg.mode = DataMode::Full;
        let full = run_exchange(&cfg);
        assert!(full.checksum.is_some());
        assert_eq!(full.checksum, run_exchange(&cfg).checksum, "deterministic");
    }
}
