//! The benchmark driver: one call per (platform, scheme, workload) cell.
//!
//! Every experiment runs one pattern — post the receives and the sends to
//! each neighbor, `Waitall`, repeat — so one config describes every run:
//! a two-rank exchange of any lap schedule (a bulk exchange, the adapt
//! figure's phase shift, serve's size-mixed replay), or, given a
//! [`HaloGrid`], a halo over every rank of the grid. [`run_exchange`]
//! builds the cluster, handing it the workloads' compiled layouts, runs
//! it and measures it. Its outcome keeps only what it derives — lap
//! latencies and their mean, the averaged breakdown, hop totals, the
//! receive digest — and carries the run's [`RunReport`] for everything
//! else (events, scheduler statistics, faults, clamps, fabric health,
//! per-rank breakdowns).

use crate::bulk::{pair_programs, Lap};
use crate::halo::{halo_programs, HaloGrid};
use crate::Workload;
use fusedpack_gpu::DataMode;
use fusedpack_mpi::{Breakdown, ClusterBuilder, RankId, RunReport, SchemeKind};
use fusedpack_net::{Platform, TopologyHandle};
use fusedpack_sim::{digest, Duration, FaultPlan};
use fusedpack_telemetry::Telemetry;

/// Configuration of one exchange measurement.
#[derive(Clone)]
pub struct ExchangeConfig {
    pub platform: Platform,
    pub scheme: SchemeKind,
    /// The committed types, in slot order; each lap names one by index.
    pub workloads: Vec<Workload>,
    /// Buffers exchanged each way per neighbor per lap.
    pub n_msgs: usize,
    /// The lap schedule, warm-up laps first.
    pub laps: Vec<Lap>,
    /// Leading laps left out of the latency, the lap latencies and the
    /// breakdown (cold layout caches, allocator).
    pub warmup_laps: usize,
    /// `ModelOnly` for timing sweeps, `Full` when bytes must be real (the
    /// outcome's checksum covers them).
    pub mode: DataMode,
    /// Run a halo over every rank of this grid, `gpus_per_node` ranks to a
    /// node, through [`halo_programs`]; its schedule must repeat one lap of
    /// the first workload. `None` runs two ranks on nodes 0 and 1.
    pub grid: Option<HaloGrid>,
    /// Route transfers through a topology; `None` runs the cluster's
    /// default flat fabric ([`fusedpack_net::FlatLink`]).
    pub topology: Option<TopologyHandle>,
    /// Fault plan armed on the cluster (the chaos harness). `None` runs
    /// fault-free.
    pub fault_plan: Option<FaultPlan>,
    /// Live recorder the cluster's events land in (tagged per rank);
    /// `None` records nothing.
    pub telemetry: Option<Telemetry>,
}

impl ExchangeConfig {
    /// The defaults used by the figure harnesses: two ranks, one warm-up
    /// lap and one measured lap of `workload` (the simulation is
    /// deterministic, so the paper's 500-iteration averaging collapses to a
    /// single warm lap), timing-only memory on the flat fabric, no faults,
    /// no recorder.
    pub fn new(platform: Platform, scheme: SchemeKind, workload: Workload, n_msgs: usize) -> Self {
        ExchangeConfig {
            platform,
            scheme,
            laps: vec![Lap::of(0, &workload); 2],
            workloads: vec![workload],
            n_msgs,
            warmup_laps: 1,
            mode: DataMode::ModelOnly,
            grid: None,
            topology: None,
            fault_plan: None,
            telemetry: None,
        }
    }

    /// Run the schedule as a halo over every rank of `grid`.
    pub fn with_grid(mut self, grid: HaloGrid) -> Self {
        self.grid = Some(grid);
        self
    }

    pub fn with_topology(mut self, topo: TopologyHandle) -> Self {
        self.topology = Some(topo);
        self
    }

    /// Shift the datatype mid-run: `laps_per_phase` laps of the first
    /// workload, then as many of `b` (e.g. a sparse seismic halo followed
    /// by a dense stencil face). This is the stress case for the online
    /// adaptive threshold controller — a single static threshold cannot be
    /// right for both phases. Every lap is measured: adapting through the
    /// cold start and the phase change is exactly what is being measured.
    pub fn phase_shift(mut self, b: Workload, laps_per_phase: usize) -> Self {
        let a = Lap::of(0, &self.workloads[0]);
        self.laps = vec![a; laps_per_phase];
        self.laps.extend(vec![Lap::of(1, &b); laps_per_phase]);
        self.workloads.truncate(1);
        self.workloads.push(b);
        self.warmup_laps = 0;
        self
    }
}

/// Results of one exchange measurement.
#[derive(Debug, Clone)]
pub struct ExchangeOutcome {
    /// Mean makespan of the measured laps — the paper's reported latency.
    pub latency: Duration,
    /// Makespans of the measured laps, in order, each the maximum over
    /// ranks.
    pub lap_latencies: Vec<Duration>,
    /// Per-lap cost buckets, summed over every rank and averaged over the
    /// measured laps (Fig. 11).
    pub breakdown: Breakdown,
    /// Digest of every rank's receive buffers in (rank, neighbor, message)
    /// order; `Some` only in `DataMode::Full`. A faulty run recovered
    /// correctly iff its checksum equals the fault-free run's.
    pub checksum: Option<u64>,
    /// Busiest hop's total occupancy.
    pub busiest_hop_busy: Duration,
    /// Bytes summed over every hop of the fabric (the flat one when no
    /// topology is attached).
    pub hop_bytes: u64,
    /// Hop-level start-time order violations observed by the network
    /// (must stay zero).
    pub order_violations: u64,
    /// The whole run's report.
    pub report: RunReport,
}

/// Run one exchange measurement.
pub fn run_exchange(cfg: &ExchangeConfig) -> ExchangeOutcome {
    let laps = cfg.laps.len();
    let mut builder = ClusterBuilder::new(cfg.platform.clone(), cfg.scheme.clone())
        .data_mode(cfg.mode)
        .layouts(cfg.workloads.iter().map(Workload::committed));
    if let Some(plan) = &cfg.fault_plan {
        builder = builder.fault_plan(plan.clone());
    }
    if let Some(t) = &cfg.telemetry {
        builder = builder.telemetry(t.clone());
    }
    if let Some(topo) = &cfg.topology {
        builder = builder.topology(topo.clone());
    }
    let mut recv = Vec::new();
    match &cfg.grid {
        None => {
            let ((p0, b0), (p1, b1)) = pair_programs(&cfg.workloads, &cfg.laps, cfg.n_msgs, 7);
            builder = builder.add_rank(0, p0).add_rank(1, p1);
            recv.extend(b0.recv.into_iter().map(|b| (RankId(0), b)));
            recv.extend(b1.recv.into_iter().map(|b| (RankId(1), b)));
        }
        Some(grid) => {
            let workload = &cfg.workloads[0];
            assert!(
                cfg.laps.iter().all(|&lap| lap == Lap::of(0, workload)),
                "a halo grid repeats one lap of its first workload"
            );
            let gpus_per_node = cfg.platform.gpus_per_node.max(1);
            let programs = halo_programs(grid, workload, cfg.n_msgs, laps, 7);
            for (rank, (program, bufs)) in programs.into_iter().enumerate() {
                let rank = rank as u32;
                builder = builder.add_rank(rank / gpus_per_node, program);
                recv.extend(bufs.recv.into_iter().flatten().map(|b| (RankId(rank), b)));
            }
        }
    }
    let mut cluster = builder.build();
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

    let lap_latencies: Vec<Duration> = (cfg.warmup_laps..laps)
        .map(|i| report.lap_makespan(i))
        .collect();
    let div = lap_latencies.len().max(1) as u64;
    let latency = lap_latencies.iter().copied().sum::<Duration>() / div;
    // Sum every rank's per-lap breakdowns over the measured laps, averaged.
    let mut sum = Breakdown::default();
    for rank_laps in &report.lap_breakdowns {
        for lap in rank_laps.iter().skip(cfg.warmup_laps) {
            sum += *lap;
        }
    }
    let breakdown = Breakdown {
        pack: sum.pack / div,
        launch: sum.launch / div,
        scheduling: sum.scheduling / div,
        sync: sum.sync / div,
        comm: sum.comm / div,
    };
    let checksum = (cfg.mode == DataMode::Full).then(|| {
        digest(
            recv.iter()
                .map(|&(rank, buf)| cluster.rank_bytes(rank, buf)),
        )
    });
    let hops = cluster.topo_hop_stats().unwrap_or_default();
    ExchangeOutcome {
        latency,
        lap_latencies,
        breakdown,
        checksum,
        busiest_hop_busy: hops.iter().map(|h| h.busy).max().unwrap_or(Duration::ZERO),
        hop_bytes: hops.iter().map(|h| h.bytes).sum(),
        order_violations: cluster.topo_order_violations().unwrap_or(0),
        report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::milc::milc_su3_zdown;
    use crate::nas::nas_mg_y;
    use crate::specfem::{specfem3d_cm, specfem3d_oc};
    use fusedpack_datatype::pack::{pack, unpack};

    fn run(scheme: SchemeKind, workload: Workload, n: usize) -> ExchangeOutcome {
        run_exchange(&ExchangeConfig::new(
            Platform::lassen(),
            scheme,
            workload,
            n,
        ))
    }

    fn phase_shift(scheme: SchemeKind, n_msgs: usize, laps_per_phase: usize) -> ExchangeOutcome {
        run_exchange(
            &ExchangeConfig::new(Platform::lassen(), scheme, specfem3d_cm(1200), n_msgs)
                .phase_shift(nas_mg_y(384), laps_per_phase),
        )
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
        let out = phase_shift(SchemeKind::fusion_adaptive(), 16, 6);
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
        let out = phase_shift(SchemeKind::fusion_default(), 8, 2);
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
        assert!(out.hop_bytes > 0, "the default flat fabric accounts hops");
        assert_eq!(out.order_violations, 0);
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

    /// A size-mixed, gapped two-rank schedule moves real bytes: after the
    /// run each receive buffer, gaps included, holds host `pack` →
    /// `unpack` of its peer's send at the last lap's count (the largest,
    /// so it covers what every earlier lap wrote), and the driver's
    /// checksum is the digest of exactly those bytes.
    #[test]
    fn mixed_gapped_schedule_delivers_host_pack_unpack_bytes() {
        let workload = specfem3d_oc(64);
        let mix = [1, 3, 2, 1, 4];
        let mut cfg = ExchangeConfig::new(
            Platform::lassen(),
            SchemeKind::fusion_default(),
            workload.clone(),
            3,
        )
        // 18 requests are 3 batches of 3 each way, after 2 warm-up laps.
        .serve(18, &mix, 1_500);
        cfg.mode = DataMode::Full;
        let last = cfg.laps.last().expect("laps").count;
        assert_eq!(cfg.laps.len(), mix.len());
        assert_eq!(last, 4, "the last lap has the largest count");
        assert!(cfg.laps.iter().all(|lap| lap.think_ns == 1_500));

        let ((p0, b0), (p1, b1)) = pair_programs(&cfg.workloads, &cfg.laps, cfg.n_msgs, 7);
        let mut cluster = ClusterBuilder::new(cfg.platform.clone(), cfg.scheme.clone())
            .data_mode(DataMode::Full)
            .add_rank(0, p0)
            .add_rank(1, p1)
            .build();
        cluster.run();
        let layout = workload.layout();
        let mut want = Vec::new();
        for (rank, bufs, peer, peer_bufs) in [(0, &b0, 1, &b1), (1, &b1, 0, &b0)] {
            for (&recv, &send) in bufs.recv.iter().zip(&peer_bufs.send) {
                let packed = pack(cluster.rank_bytes(RankId(peer), send), layout, last);
                let got = cluster.rank_bytes(RankId(rank), recv);
                let mut expect = vec![0u8; got.len()];
                unpack(&packed, layout, last, &mut expect);
                assert!(got == expect, "rank {rank} buffer {}", recv.0);
                want.push(expect);
            }
        }
        let out = run_exchange(&cfg);
        assert_eq!(out.checksum, Some(digest(want.iter().map(Vec::as_slice))));
    }

    /// Handing the cluster the workloads' layouts changes only the host
    /// compile count. A plain build of the same programs commits bare
    /// descriptors: two equal trees in distinct `Arc`s, compiled once,
    /// model the same laps and cache counters, a miss then a hit per rank.
    #[test]
    fn handed_layouts_change_only_the_compile_count() {
        let cfg = ExchangeConfig::new(
            Platform::lassen(),
            SchemeKind::fusion_default(),
            specfem3d_cm(300),
            4,
        )
        .phase_shift(specfem3d_cm(300), 2);
        let handed = run_exchange(&cfg).report;
        let ((p0, _), (p1, _)) = pair_programs(&cfg.workloads, &cfg.laps, cfg.n_msgs, 7);
        let bare = ClusterBuilder::new(cfg.platform.clone(), cfg.scheme.clone())
            .data_mode(cfg.mode)
            .add_rank(0, p0)
            .add_rank(1, p1)
            .build()
            .run();
        assert_eq!(handed.laps, bare.laps);
        assert_eq!(handed.layout_cache, bare.layout_cache);
        let lc = bare.layout_cache;
        assert_eq!((lc.commits(), lc.misses()), (4, 2));
        assert_eq!((handed.layout_compiles, bare.layout_compiles), (0, 1));
    }
}
