//! Sustained-load serving: replay a long stream of exchange requests
//! through one long-lived cluster.
//!
//! The figure harnesses measure a handful of laps with cold-to-warm
//! transitions; a serve schedule instead keeps a two-rank cluster alive
//! while hundreds of thousands of requests flow through it, which is what
//! exposes steady-state behaviour the short runs cannot: event-queue
//! growth, wire-message allocator churn, staging-pool recycling, and the
//! tail of the per-batch latency distribution.
//!
//! Requests arrive in deterministic batches: each lap, every rank spends
//! `gap_ns` of application think time ([`fusedpack_mpi::AppOp::Compute`]),
//! then posts `n_msgs` receives and `n_msgs` sends and waits for all of
//! them. The lap timer starts *after* the think time, so a lap's duration
//! is pure service latency and the percentiles read straight off the
//! measured laps. Everything is virtual-time deterministic: the same
//! config yields byte-identical outcomes on any host and any `--jobs`
//! count.

use crate::bulk::Lap;
use crate::driver::{ExchangeConfig, ExchangeOutcome};
use fusedpack_sim::Duration;

/// Leading laps of a serve schedule left out of the latency distribution
/// (cold caches).
const SERVE_WARMUP_LAPS: usize = 2;

impl ExchangeConfig {
    /// Replay `requests` exchange requests (Isends summed over both ranks),
    /// `n_msgs` per rank per lap, rounded up to whole laps, after two
    /// warm-up laps. Lap `i` exchanges
    /// `size_mix[i % len]` elements — the request-size mix, which gives
    /// the latency distribution a real tail (identical laps collapse p50 =
    /// p999) and stresses the staging pool's varied-capacity recycling; an
    /// empty mix keeps the workload's count. Each lap thinks `gap_ns`
    /// first — the arrival-rate knob (0 = saturating, back-to-back
    /// batches).
    pub fn serve(mut self, requests: u64, size_mix: &[u64], gap_ns: u64) -> Self {
        assert!(requests >= 1, "serve at least one request");
        assert!(
            size_mix.iter().all(|&c| c > 0),
            "mix counts must be positive"
        );
        let workload = &self.workloads[0];
        let counts = if size_mix.is_empty() {
            &[workload.count][..]
        } else {
            size_mix
        };
        let per_lap = 2 * self.n_msgs as u64;
        let laps = requests.div_ceil(per_lap).max(1) as usize + SERVE_WARMUP_LAPS;
        self.laps = (0..laps)
            .map(|lap| Lap {
                ty: 0,
                count: counts[lap % counts.len()],
                think_ns: gap_ns,
            })
            .collect();
        self.workloads.truncate(1);
        self.warmup_laps = SERVE_WARMUP_LAPS;
        self
    }
}

impl ExchangeOutcome {
    /// Nearest-rank percentile of the measured laps: the smallest lap
    /// latency with at least `num/den` of them at or below it.
    /// Integer-only, so identical everywhere.
    pub fn percentile(&self, num: u64, den: u64) -> Duration {
        let mut sorted = self.lap_latencies.clone();
        sorted.sort_unstable();
        percentile(&sorted, num, den)
    }

    /// Sustained throughput over the whole run, messages per virtual
    /// second, when every lap sends `per_lap` messages summed over ranks
    /// (warm-up and think time included — offered-load throughput, not
    /// peak service rate).
    pub fn throughput(&self, per_lap: u64) -> f64 {
        let elapsed_ns = self.report.end_time.0;
        if elapsed_ns == 0 {
            return 0.0;
        }
        let sent = per_lap * self.report.lap_count() as u64;
        sent as f64 / (elapsed_ns as f64 / 1.0e9)
    }
}

/// Nearest-rank percentile of an ascending-sorted slice.
fn percentile(sorted: &[Duration], num: u64, den: u64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let n = sorted.len() as u64;
    let rank = (n * num).div_ceil(den).clamp(1, n);
    sorted[(rank - 1) as usize]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::run_exchange;
    use crate::milc::milc_su3_zdown;
    use crate::specfem::specfem3d_oc;
    use crate::Workload;
    use fusedpack_mpi::SchemeKind;
    use fusedpack_net::Platform;

    /// A 16-wide serve config of `requests` requests.
    fn serve(
        platform: Platform,
        scheme: SchemeKind,
        workload: Workload,
        requests: u64,
        gap_ns: u64,
    ) -> ExchangeConfig {
        ExchangeConfig::new(platform, scheme, workload, 16).serve(requests, &[], gap_ns)
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<Duration> = (1..=100).map(Duration).collect();
        assert_eq!(percentile(&v, 50, 100), Duration(50));
        assert_eq!(percentile(&v, 99, 100), Duration(99));
        assert_eq!(percentile(&v, 999, 1000), Duration(100));
        assert_eq!(percentile(&v, 100, 100), Duration(100), "the max");
        assert_eq!(percentile(&v[..1], 50, 100), Duration(1));
        assert_eq!(percentile(&[], 50, 100), Duration::ZERO);
    }

    #[test]
    fn serve_schedule_rounds_requests_up_to_whole_laps() {
        let cfg = serve(
            Platform::lassen(),
            SchemeKind::fusion_default(),
            specfem3d_oc(200),
            2_001,
            700,
        );
        // 2001 requests at 32 per lap need 63 laps, after 2 warm-up laps.
        assert_eq!(cfg.laps.len(), 63 + SERVE_WARMUP_LAPS);
        assert_eq!(cfg.warmup_laps, SERVE_WARMUP_LAPS);
        let lap = Lap {
            ty: 0,
            count: cfg.workloads[0].count,
            think_ns: 700,
        };
        assert!(cfg.laps.iter().all(|&l| l == lap));
        let mixed = cfg.clone().serve(100, &[2, 5, 1], 0);
        let counts: Vec<u64> = mixed.laps.iter().map(|l| l.count).collect();
        assert_eq!(counts, [2, 5, 1, 2, 5, 1]);
    }

    #[test]
    fn serve_reports_throughput_and_tails() {
        let cfg = serve(
            Platform::lassen(),
            SchemeKind::fusion_default(),
            specfem3d_oc(200),
            2_000,
            0,
        );
        let out = run_exchange(&cfg);
        let served = 32 * out.report.lap_count() as u64;
        assert!(served >= 2_000);
        assert!(out.lap_latencies.len() > 10);
        assert!(out.throughput(32) > 0.0);
        let (p50, p99, p999) = (
            out.percentile(50, 100),
            out.percentile(99, 100),
            out.percentile(999, 1000),
        );
        assert!(p50 <= p99 && p99 <= p999 && p999 <= out.percentile(100, 100));
        assert!(p50.as_nanos() > 0);
        assert!(out.report.events_processed > 0);
        assert!(
            out.report.wheel.slab_high_water > 0,
            "a long run must exercise the event slab"
        );
    }

    #[test]
    fn think_time_slows_offered_load_not_service_latency() {
        let run = |gap_ns| {
            run_exchange(&serve(
                Platform::lassen(),
                SchemeKind::fusion_default(),
                milc_su3_zdown(8),
                1_000,
                gap_ns,
            ))
        };
        let (hot, paced) = (run(0), run(50_000));
        assert!(
            paced.throughput(32) < hot.throughput(32),
            "pacing must lower offered-load throughput: {} vs {}",
            paced.throughput(32),
            hot.throughput(32)
        );
        // The lap timer starts after the gap, so service latency stays in
        // the same ballpark (the paced run may even be quicker per batch).
        assert!(paced.percentile(50, 100) <= hot.percentile(50, 100) * 2);
    }

    #[test]
    fn serve_is_deterministic() {
        let cfg = serve(
            Platform::abci(),
            SchemeKind::fusion_adaptive(),
            specfem3d_oc(300),
            1_500,
            2_000,
        );
        let a = run_exchange(&cfg);
        let b = run_exchange(&cfg);
        assert_eq!(a.report.end_time, b.report.end_time);
        assert_eq!(a.percentile(50, 100), b.percentile(50, 100));
        assert_eq!(a.percentile(999, 1000), b.percentile(999, 1000));
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
    fn fused_completions_cost_one_event_per_launch() {
        // A deterministic work counter for what the fusion path adds to
        // the event loop: Proposed processes GPU-based's events plus one
        // completion event per completion instant. Every request of a
        // serve batch has one shape, so a fused launch finishes all of
        // its requests at one instant and costs one event, however many
        // requests it fused.
        let run = |scheme| {
            run_exchange(&serve(
                Platform::lassen(),
                scheme,
                specfem3d_oc(200),
                2_000,
                0,
            ))
            .report
        };
        let (fused, gpu) = (run(SchemeKind::fusion_default()), run(SchemeKind::GpuSync));
        let stats = fused.sched_stats.iter().flatten();
        let launches: u64 = stats.clone().map(|s| s.kernels_launched).sum();
        let requests: u64 = stats.map(|s| s.requests_fused).sum();
        assert!(
            requests >= 8 * launches,
            "batches fuse many requests: {requests} in {launches} launches"
        );
        assert_eq!(fused.events_processed, gpu.events_processed + launches);
    }

    #[test]
    fn serve_amortizes_layout_compilation() {
        let out = run_exchange(&serve(
            Platform::lassen(),
            SchemeKind::fusion_default(),
            specfem3d_oc(200),
            2_000,
            0,
        ));
        let lc = &out.report.layout_cache;
        // One commit-miss per rank, then every per-message acquire hits.
        assert_eq!(lc.misses(), 2, "one modelled miss per rank");
        let served = 32 * out.report.lap_count() as u64;
        assert!(lc.hits() >= served, "each message acquires");
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
        let run = |requests| {
            run_exchange(&serve(
                Platform::lassen(),
                SchemeKind::fusion_default(),
                specfem3d_oc(200),
                requests,
                0,
            ))
        };
        let (short, long) = (run(600), run(6_000));
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
