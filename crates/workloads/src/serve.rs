//! Sustained-load serving: replay a long stream of exchange requests
//! through one long-lived cluster.
//!
//! The figure harnesses measure a handful of laps with cold-to-warm
//! transitions; this driver instead keeps a two-rank cluster alive while
//! hundreds of thousands of requests flow through it, which is what
//! exposes steady-state behaviour the short runs cannot: event-queue
//! growth, wire-message allocator churn, staging-pool recycling, and the
//! tail of the per-batch latency distribution.
//!
//! Requests arrive in deterministic batches: each lap, every rank spends
//! `gap_ns` of application think time ([`AppOp::Compute`]), then posts
//! `batch` receives and `batch` sends and waits for all of them. The lap
//! timer starts *after* the think time, so a lap's duration is pure
//! service latency and the percentiles read straight off the recorded
//! laps. Everything is virtual-time deterministic: the same config yields
//! byte-identical outcomes on any host and any `--jobs` count.

use crate::{driver, Workload};
use fusedpack_gpu::DataMode;
use fusedpack_mpi::program::BufInit;
use fusedpack_mpi::{AppOp, BufId, Program, RankId, RunReport, SchemeKind, TypeSlot};
use fusedpack_net::{Platform, TopologyHandle};
use fusedpack_sim::Duration;

/// Configuration of one sustained-load run.
#[derive(Clone)]
pub struct ServeConfig {
    pub platform: Platform,
    pub scheme: SchemeKind,
    pub workload: Workload,
    /// Total exchange requests (Isends summed over both ranks) to replay.
    /// Rounded up to a whole number of batches.
    pub requests: u64,
    /// Requests posted per rank per lap.
    pub batch: usize,
    /// Deterministic think time before each batch, in nanoseconds —
    /// the arrival-rate knob (0 = saturating, back-to-back batches).
    pub gap_ns: u64,
    /// Leading laps excluded from the latency distribution (cold caches).
    pub warmup_laps: usize,
    /// Deterministic per-lap element counts, cycled lap by lap — the
    /// request-size mix of the replay. Empty means every lap uses
    /// `workload.count`. Mixing sizes is what gives the latency
    /// distribution a real tail (identical laps collapse p50 = p999) and
    /// what stresses the staging pool's varied-capacity recycling.
    pub size_mix: Vec<u64>,
    /// Route transfers through a topology; `None` runs the flat model.
    pub topology: Option<TopologyHandle>,
}

impl ServeConfig {
    pub fn new(platform: Platform, scheme: SchemeKind, workload: Workload, requests: u64) -> Self {
        ServeConfig {
            platform,
            scheme,
            workload,
            requests,
            batch: 16,
            gap_ns: 0,
            warmup_laps: 2,
            size_mix: Vec::new(),
            topology: None,
        }
    }

    pub fn with_gap_ns(mut self, gap_ns: u64) -> Self {
        self.gap_ns = gap_ns;
        self
    }

    pub fn with_size_mix(mut self, mix: Vec<u64>) -> Self {
        assert!(mix.iter().all(|&c| c > 0), "mix counts must be positive");
        self.size_mix = mix;
        self
    }

    /// The per-lap element-count cycle (resolved default).
    fn counts(&self) -> Vec<u64> {
        if self.size_mix.is_empty() {
            vec![self.workload.count]
        } else {
            self.size_mix.clone()
        }
    }

    pub fn with_topology(mut self, topo: TopologyHandle) -> Self {
        self.topology = Some(topo);
        self
    }

    /// Laps needed to serve `requests` (both ranks post `batch` each lap).
    pub fn laps(&self) -> usize {
        let per_lap = 2 * self.batch as u64;
        (self.requests.div_ceil(per_lap)).max(1) as usize + self.warmup_laps
    }
}

/// Results of one sustained-load run.
#[derive(Debug, Clone)]
pub struct ServeOutcome {
    /// Requests actually served (laps × batch × 2 ranks, warm-up included).
    pub requests: u64,
    /// Measured laps (after warm-up discard).
    pub laps: usize,
    /// Sustained request throughput over the whole run, requests per
    /// virtual second (think time included — this is offered-load
    /// throughput, not peak service rate).
    pub throughput_rps: f64,
    /// Batch service-latency percentiles over the measured laps.
    pub p50: Duration,
    pub p99: Duration,
    pub p999: Duration,
    pub max: Duration,
    /// The whole run's report: wheel health, wire high-water, layout
    /// cache (after the single commit per rank every per-message acquire
    /// hits, so the hit rate converges to ~100% under sustained load).
    pub report: RunReport,
}

/// Nearest-rank percentile of an ascending-sorted slice: the smallest
/// element with at least `num/den` of the distribution at or below it.
/// Integer-only, so identical everywhere.
fn percentile(sorted: &[Duration], num: u64, den: u64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let n = sorted.len() as u64;
    let rank = (n * num).div_ceil(den).clamp(1, n);
    sorted[(rank - 1) as usize]
}

/// Build one rank's serve program: `laps` batches, each preceded by the
/// arrival gap, timed individually.
fn serve_program(cfg: &ServeConfig, seed: u64, peer: RankId) -> Program {
    let counts = cfg.counts();
    let layout = fusedpack_datatype::CompiledLayout::of(&cfg.workload.desc);
    let max_count = counts.iter().copied().max().unwrap_or(1);
    let buf_len = layout.footprint(max_count).max(1);
    let mut p = Program::new();
    let send: Vec<BufId> = (0..cfg.batch)
        .map(|i| p.buffer(buf_len, BufInit::Random(seed + i as u64)))
        .collect();
    let recv: Vec<BufId> = (0..cfg.batch)
        .map(|_| p.buffer(buf_len, BufInit::Zero))
        .collect();
    p.push(AppOp::Commit {
        slot: TypeSlot(0),
        desc: cfg.workload.desc.clone(),
    });
    for lap in 0..cfg.laps() {
        // Both ranks cycle the same mix, so signatures stay matched.
        let count = counts[lap % counts.len()];
        if cfg.gap_ns > 0 {
            p.push(AppOp::Compute { ns: cfg.gap_ns });
        }
        p.push(AppOp::ResetTimer);
        for (i, &rbuf) in recv.iter().enumerate() {
            p.push(AppOp::Irecv {
                buf: rbuf,
                ty: TypeSlot(0),
                count,
                src: peer,
                tag: i as u32,
            });
        }
        for (i, &sbuf) in send.iter().enumerate() {
            p.push(AppOp::Isend {
                buf: sbuf,
                ty: TypeSlot(0),
                count,
                dst: peer,
                tag: i as u32,
            });
        }
        p.push(AppOp::Waitall);
        p.push(AppOp::RecordLap);
    }
    p
}

/// Run one sustained-load measurement.
pub fn run_serve(cfg: &ServeConfig) -> ServeOutcome {
    assert!(cfg.batch >= 1 && cfg.requests >= 1);
    let p0 = serve_program(cfg, 7, RankId(1));
    let p1 = serve_program(cfg, 1007, RankId(0));
    let mut builder = driver::builder(&cfg.platform, &cfg.scheme, DataMode::ModelOnly, None, None)
        .add_rank(0, p0)
        .add_rank(1, p1);
    if let Some(topo) = &cfg.topology {
        builder = builder.topology(topo.clone());
    }
    let mut cluster = builder.build();
    let laps = cfg.laps();
    let m = driver::measure(&mut cluster, cfg.warmup_laps..laps, []);
    let mut measured = m.laps;
    measured.sort_unstable();

    let elapsed_ns = m.report.end_time.0;
    let served = 2 * cfg.batch as u64 * laps as u64;
    let throughput_rps = if elapsed_ns == 0 {
        0.0
    } else {
        served as f64 / (elapsed_ns as f64 / 1.0e9)
    };

    ServeOutcome {
        requests: served,
        laps: measured.len(),
        throughput_rps,
        p50: percentile(&measured, 50, 100),
        p99: percentile(&measured, 99, 100),
        p999: percentile(&measured, 999, 1000),
        max: measured.last().copied().unwrap_or(Duration::ZERO),
        report: m.report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::milc::milc_su3_zdown;
    use crate::specfem::specfem3d_oc;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<Duration> = (1..=100).map(Duration).collect();
        assert_eq!(percentile(&v, 50, 100), Duration(50));
        assert_eq!(percentile(&v, 99, 100), Duration(99));
        assert_eq!(percentile(&v, 999, 1000), Duration(100));
        assert_eq!(percentile(&v[..1], 50, 100), Duration(1));
        assert_eq!(percentile(&[], 50, 100), Duration::ZERO);
    }

    #[test]
    fn serve_reports_throughput_and_tails() {
        let cfg = ServeConfig::new(
            Platform::lassen(),
            SchemeKind::fusion_default(),
            specfem3d_oc(200),
            2_000,
        );
        let out = run_serve(&cfg);
        assert!(out.requests >= 2_000);
        assert!(out.laps > 10);
        assert!(out.throughput_rps > 0.0);
        assert!(out.p50 <= out.p99 && out.p99 <= out.p999 && out.p999 <= out.max);
        assert!(out.p50.as_nanos() > 0);
        assert!(out.report.events_processed > 0);
        assert!(
            out.report.wheel.slab_high_water > 0,
            "a long run must exercise the event slab"
        );
    }

    #[test]
    fn think_time_slows_offered_load_not_service_latency() {
        let base = ServeConfig::new(
            Platform::lassen(),
            SchemeKind::fusion_default(),
            milc_su3_zdown(8),
            1_000,
        );
        let hot = run_serve(&base);
        let paced = run_serve(&base.clone().with_gap_ns(50_000));
        assert!(
            paced.throughput_rps < hot.throughput_rps,
            "pacing must lower offered-load throughput: {} vs {}",
            paced.throughput_rps,
            hot.throughput_rps
        );
        // The lap timer starts after the gap, so service latency stays in
        // the same ballpark (the paced run may even be quicker per batch).
        assert!(paced.p50 <= hot.p50 * 2);
    }

    #[test]
    fn serve_is_deterministic() {
        let cfg = ServeConfig::new(
            Platform::abci(),
            SchemeKind::fusion_adaptive(),
            specfem3d_oc(300),
            1_500,
        )
        .with_gap_ns(2_000);
        let a = run_serve(&cfg);
        let b = run_serve(&cfg);
        assert_eq!(a.report.end_time, b.report.end_time);
        assert_eq!(a.p50, b.p50);
        assert_eq!(a.p999, b.p999);
        assert_eq!(a.report.wire_high_water, b.report.wire_high_water);
        assert_eq!(
            a.report.wheel.slab_high_water,
            b.report.wheel.slab_high_water
        );
        assert_eq!(a.report.events_processed, b.report.events_processed);
        let (a, b) = (&a.report.layout_cache, &b.report.layout_cache);
        assert_eq!(a.hits(), b.hits());
        assert_eq!(a.misses(), b.misses());
        assert_eq!(a.resident_bytes(), b.resident_bytes());
    }

    #[test]
    fn serve_amortizes_layout_compilation() {
        let cfg = ServeConfig::new(
            Platform::lassen(),
            SchemeKind::fusion_default(),
            specfem3d_oc(200),
            2_000,
        );
        let out = run_serve(&cfg);
        let lc = &out.report.layout_cache;
        // One commit-miss per rank, then every per-message acquire hits.
        assert_eq!(lc.misses(), 2, "one modelled miss per rank");
        assert!(lc.hits() >= out.requests, "each message acquires");
        assert!(
            lc.hit_rate() >= 0.99,
            "sustained load must amortize compilation: {}",
            lc.hit_rate()
        );
        assert!(lc.resident_bytes() > 0);
    }

    #[test]
    fn steady_state_recycles_instead_of_growing() {
        // The whole point of the slab/pool plumbing: a 10x longer run must
        // not grow the in-flight high-water marks (steady state reached).
        let short = run_serve(&ServeConfig::new(
            Platform::lassen(),
            SchemeKind::fusion_default(),
            specfem3d_oc(200),
            600,
        ));
        let long = run_serve(&ServeConfig::new(
            Platform::lassen(),
            SchemeKind::fusion_default(),
            specfem3d_oc(200),
            6_000,
        ));
        let (long, short) = (&long.report, &short.report);
        assert_eq!(
            long.wire_high_water, short.wire_high_water,
            "wire-slab peak must not scale with run length"
        );
        assert!(
            long.wheel.slab_high_water <= short.wheel.slab_high_water * 2,
            "event-slab peak must not scale with run length: {} vs {}",
            long.wheel.slab_high_water,
            short.wheel.slab_high_water
        );
    }
}
