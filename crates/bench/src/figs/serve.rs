//! `reproduce serve`: sustained-load serving through a long-lived cluster.
//!
//! Unlike the figure harnesses (a handful of laps each), this experiment
//! replays hundreds of thousands of exchange requests through one
//! long-lived two-rank cluster per cell and reports what only steady
//! state reveals: sustained throughput, the p50/p99/p999 tail of the
//! per-batch service latency, and allocator churn (the wire-message and
//! event-slab occupancy high-water marks, which must not scale with run
//! length). The grid crosses the proposed fused scheme against the
//! GPU-based baseline at three deterministic arrival rates; every cell is
//! virtual-time deterministic, so the table is byte-identical across
//! `--jobs` counts — the CI smoke job diffs `--jobs 1` vs `--jobs 4`.

use crate::exec::{self, Cell};
use crate::figs::RunConfig;
use crate::table::{us, Table};
use fusedpack_mpi::SchemeKind;
use fusedpack_net::Platform;
use fusedpack_workloads::specfem::specfem3d_oc;
use fusedpack_workloads::{run_exchange, ExchangeConfig, ExchangeOutcome};

/// specfem3D_oc boundary points per request — sparse, the regime where
/// fusion's launch-overhead savings dominate.
pub const POINTS: u64 = 512;

/// Requests per rank per batch (paper's §V-C stress width).
pub const BATCH: usize = 16;

/// Deterministic request-size mix, cycled batch by batch: element-count
/// multipliers over the nominal message (mostly 1x with 2x and 4x
/// excursions), so the latency distribution has a real tail and the
/// staging pool sees varied capacities.
pub const SIZE_MIX: [u64; 8] = [1, 1, 2, 1, 1, 4, 1, 2];

/// The scheme rows: `(label, scheme)`.
pub fn schemes() -> Vec<(&'static str, SchemeKind)> {
    vec![
        ("Proposed", SchemeKind::fusion_default()),
        ("GPU-based", SchemeKind::GpuSync),
    ]
}

/// The arrival-rate columns: `(label, think-time ns before each batch)`.
/// 0 = saturating back-to-back load; the others pace request arrivals.
pub fn gaps() -> Vec<(&'static str, u64)> {
    vec![("saturating", 0), ("2us", 2_000), ("20us", 20_000)]
}

/// Run one (scheme, gap) cell replaying `requests` requests.
pub fn measure(scheme: SchemeKind, gap_ns: u64, requests: u64) -> ExchangeOutcome {
    run_exchange(
        &ExchangeConfig::new(Platform::lassen(), scheme, specfem3d_oc(POINTS), BATCH)
            .serve(requests, &SIZE_MIX, gap_ns),
    )
}

/// The main service table plus the queue-health and layout-cache
/// companions. Every table is byte-identical across runs and `--jobs`.
pub fn run(cfg: &RunConfig) -> Vec<Table> {
    let requests = cfg.serve_requests;
    let mut t = Table::new(
        format!(
            "Serve: sustained load, {requests} requests through a long-lived cluster \
             (specfem3D_oc x{POINTS}, {BATCH}/batch each way, Lassen)"
        ),
        &[
            "scheme",
            "arrival gap",
            "throughput (req/s)",
            "p50 (us)",
            "p99 (us)",
            "p999 (us)",
            "max (us)",
        ],
    )
    .with_note(
        "latency percentiles are per-batch service time (think time excluded); \
         byte-identical across --jobs",
    );
    let mut health = Table::new(
        format!("Serve queue health: in-flight high-water marks ({requests} requests)"),
        &[
            "scheme",
            "arrival gap",
            "wire peak",
            "event-slab peak",
            "overflow hits",
        ],
    )
    .with_note("host-process diagnostics: peaks must not scale with request count");

    let mut cache = Table::new(
        format!("Serve layout cache: compile-once amortization ({requests} requests)"),
        &[
            "scheme",
            "arrival gap",
            "hits",
            "misses",
            "hit rate (%)",
            "resident (B)",
        ],
    )
    .with_note(
        "commit and acquire counters of each rank's layout cache, merged over ranks; \
         cost-free in virtual time and byte-identical across --jobs",
    );

    let mut cells: Vec<Cell<ExchangeOutcome>> = Vec::new();
    for (slabel, scheme) in schemes() {
        for (glabel, gap) in gaps() {
            let scheme = scheme.clone();
            cells.push(Cell::new(format!("{slabel}/{glabel}"), move || {
                measure(scheme, gap, requests)
            }));
        }
    }
    let outcomes = exec::sweep(cfg, "serve", cells);

    let per_scheme = gaps().len();
    for (si, (slabel, _)) in schemes().iter().enumerate() {
        for ((glabel, _), out) in gaps().iter().zip(&outcomes[si * per_scheme..]) {
            t.push_row(vec![
                (*slabel).into(),
                (*glabel).into(),
                format!("{:.0}", out.throughput(2 * BATCH as u64)),
                us(out.percentile(50, 100)),
                us(out.percentile(99, 100)),
                us(out.percentile(999, 1000)),
                // The 100th nearest-rank percentile is the slowest batch.
                us(out.percentile(100, 100)),
            ]);
            health.push_row(vec![
                (*slabel).into(),
                (*glabel).into(),
                out.report.wire_high_water.to_string(),
                out.report.wheel.slab_high_water.to_string(),
                out.report.wheel.overflow_hits.to_string(),
            ]);
            let lc = &out.report.layout_cache;
            cache.push_row(vec![
                (*slabel).into(),
                (*glabel).into(),
                lc.hits().to_string(),
                lc.misses().to_string(),
                format!("{:.3}", lc.hit_rate() * 100.0),
                lc.resident_bytes().to_string(),
            ]);
        }
    }
    vec![t, health, cache]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Small-request in-process version of the CI smoke job: the rendered
    /// report (both tables) is identical across worker counts.
    #[test]
    fn report_is_identical_across_jobs() {
        let sequential = run(&RunConfig {
            jobs: 1,
            serve_requests: 2_000,
            ..RunConfig::default()
        });
        let parallel = run(&RunConfig {
            jobs: 4,
            serve_requests: 2_000,
            ..RunConfig::default()
        });
        assert_eq!(sequential.len(), parallel.len());
        for (a, b) in sequential.iter().zip(&parallel) {
            assert_eq!(a.render(), b.render());
        }
    }

    /// Steady state amortizes layout compilation: the cache table's hit
    /// rate is ≥ 99% once warmup's single compile per rank is behind it.
    #[test]
    fn layout_cache_hit_rate_exceeds_99_percent() {
        let out = measure(SchemeKind::fusion_default(), 0, 2_000);
        let lc = &out.report.layout_cache;
        assert!(lc.hit_rate() >= 0.99, "hit rate {}", lc.hit_rate());
    }

    /// Fusion's throughput advantage survives sustained load.
    #[test]
    fn fusion_sustains_higher_throughput_when_saturated() {
        let fused = measure(SchemeKind::fusion_default(), 0, 2_000);
        let gpu = measure(SchemeKind::GpuSync, 0, 2_000);
        let (fused_rps, gpu_rps) = (
            fused.throughput(2 * BATCH as u64),
            gpu.throughput(2 * BATCH as u64),
        );
        assert!(
            fused_rps > gpu_rps,
            "fused {fused_rps:.0} req/s should beat GPU-based {gpu_rps:.0} req/s"
        );
        assert!(fused.percentile(99, 100) < gpu.percentile(99, 100));
    }

    /// The size mix gives the latency distribution a real spread: the big
    /// 2048-point batches must show up above the median.
    #[test]
    fn mixed_sizes_produce_a_latency_tail() {
        let out = measure(SchemeKind::fusion_default(), 0, 4_000);
        let (p50, p999) = (out.percentile(50, 100), out.percentile(999, 1000));
        assert!(
            p999 > p50,
            "mixed sizes should spread the tail: p50 {p50} vs p999 {p999}"
        );
        assert!(out.percentile(100, 100) >= p999);
    }
}
