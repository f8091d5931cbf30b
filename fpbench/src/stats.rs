//! Metric definitions, order statistics, and the A/B verdict rule.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// An end-to-end metric: what a user of the simulator sees, measured with
/// tracing off, with the share of the baseline median by which it may
/// worsen before a change counts as a regression.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

/// The two times are scaled to nominal host speed (see [`crate::yardstick`]).
pub const END_TO_END: [EndToEnd; 3] = [
    // Simulated point-to-point messages (Isends) per host second of
    // `Cluster::run`.
    EndToEnd {
        name: "msgs_per_s",
        unit: "msg/s",
        better: Better::Higher,
        bound: 0.20,
    },
    // Input generation plus `ClusterBuilder::build`. The largest bound:
    // set-up is allocator- and page-fault-bound, the noisiest phase.
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    // The process's VmHWM.
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.05,
    },
];

/// A per-layer metric, named `layer.metric` after the module it measures,
/// with the end-to-end metric (and workload) it should move.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
    }
}

use Better::{Higher, Lower};

const SETUP: &str = "setup_s on every workload; build dominates on halo-bytes and halo-faults";
const RUN: &str = "msgs_per_s and peak_rss_mb on every workload";
const WHEEL: &str = "msgs_per_s on every workload";
const HOLD: &str = "msgs_per_s on serve-flat (shallow queue) and halo-model (deep queue)";
const SHARD: &str = "msgs_per_s on halo-faults";
const CACHE: &str = "msgs_per_s on serve-flat";
const COPY: &str = "msgs_per_s on halo-bytes and halo-faults; no change on ModelOnly workloads";
const POOL: &str = "msgs_per_s and peak_rss_mb on halo-bytes";
const SCHED: &str = "msgs_per_s on serve-flat; threshold_adjusts nonzero only on halo-faults";
const FABRIC: &str = "msgs_per_s on halo-faults";
const ROUTE: &str = "msgs_per_s on halo-model";
const TRACE: &str = "msgs_per_s, if telemetry is ever on by default";
const HOST: &str = "none: the host's speed, not the simulator's; a raw time divided by it is \
                    the time at nominal speed";

pub const PER_LAYER: &[PerLayer] = &[
    layer("workloads.programs_s", "s", Lower, SETUP),
    layer("mpi.build_s", "s", Lower, SETUP),
    layer("mpi.run_s", "s", Lower, RUN),
    layer("mpi.kernels", "count", Lower, RUN),
    layer("mpi.wire_high_water", "count", Lower, RUN),
    layer("verify_s", "s", Lower, COPY),
    layer("sim.events", "count", Lower, WHEEL),
    layer("sim.events_per_s", "1/s", Higher, WHEEL),
    layer("sim.wheel.cascades", "count", Lower, WHEEL),
    layer("sim.wheel.overflow_hits", "count", Lower, WHEEL),
    layer("sim.wheel.slots_drained", "count", Lower, WHEEL),
    layer("sim.wheel.slab_high_water", "count", Lower, WHEEL),
    layer("sim.hold_ns", "ns", Lower, HOLD),
    layer("sim.shard.barriers", "count", Lower, SHARD),
    layer("sim.shard.admitted", "count", Lower, SHARD),
    layer("sim.shard.deferred", "count", Lower, SHARD),
    layer("sim.shard.barrier_share", "fraction", Lower, SHARD),
    layer("sim.shard.stall_share", "fraction", Lower, SHARD),
    layer("datatype.compile_us", "us", Lower, CACHE),
    layer("datatype.cache.hits", "count", Higher, CACHE),
    layer("datatype.cache.misses", "count", Lower, CACHE),
    layer("datatype.cache.hit_ratio", "fraction", Higher, CACHE),
    layer("datatype.pack_GBps", "GB/s", Higher, COPY),
    layer("datatype.unpack_GBps", "GB/s", Higher, COPY),
    layer("datatype.plan_class", "class", Lower, COPY),
    layer("gpu.bytes_moved", "B", Lower, POOL),
    layer("gpu.pool.hits", "count", Higher, POOL),
    layer("gpu.pool.misses", "count", Lower, POOL),
    layer("gpu.pool.hit_ratio", "fraction", Higher, POOL),
    layer("core.enqueued", "count", Lower, SCHED),
    layer("core.fused_launches", "count", Lower, SCHED),
    layer("core.fusion_degree", "req/launch", Higher, SCHED),
    layer("core.flushes_sync", "count", Lower, SCHED),
    layer("core.flushes_threshold", "count", Lower, SCHED),
    layer("core.flushes_pressure", "count", Lower, SCHED),
    layer("core.threshold_adjusts", "count", Lower, SCHED),
    layer("core.cycle_ns_per_req", "ns", Lower, SCHED),
    layer("net.hop_bytes", "B", Lower, FABRIC),
    layer("net.order_violations", "count", Lower, FABRIC),
    layer("net.fabric.flaps", "count", Lower, FABRIC),
    layer("net.fabric.degrades", "count", Lower, FABRIC),
    layer("net.fabric.downs", "count", Lower, FABRIC),
    layer("net.fabric.reroutes", "count", Lower, FABRIC),
    layer("net.fabric.rail_failovers", "count", Lower, FABRIC),
    layer("net.fabric.disconnects", "count", Lower, FABRIC),
    layer("net.fabric.route_epoch", "count", Lower, FABRIC),
    layer("net.resolve_cold_us", "us", Lower, ROUTE),
    layer("net.resolve_warm_ns", "ns", Lower, ROUTE),
    layer("net.transmit_ns", "ns", Lower, ROUTE),
    layer("host.slowdown", "ratio", Lower, HOST),
    layer("telemetry.overhead", "ratio", Lower, TRACE),
    layer("telemetry.events", "count", Lower, TRACE),
    layer("telemetry.dropped", "count", Lower, TRACE),
    layer("telemetry.events_per_msg", "event/msg", Lower, TRACE),
    layer("trace.sim", "count", Lower, TRACE),
    layer("trace.core", "count", Lower, TRACE),
    layer("trace.gpu", "count", Lower, TRACE),
    layer("trace.mpi", "count", Lower, TRACE),
    layer("trace.net", "count", Lower, TRACE),
    layer("trace.datatype", "count", Lower, TRACE),
];

/// Median of `xs` (mean of the middle two for an even count); 0 when
/// empty.
pub fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(f64::total_cmp);
    match xs.len() {
        0 => 0.0,
        n if n % 2 == 1 => xs[n / 2],
        n => (xs[n / 2 - 1] + xs[n / 2]) / 2.0,
    }
}

/// First and third quartiles by Python's `statistics.quantiles(xs, n=4)`
/// (the default "exclusive" method). Fewer than two samples have no
/// spread: both quartiles are the lone value.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let mut d = xs.to_vec();
    d.sort_by(f64::total_cmp);
    let ld = d.len();
    if ld < 2 {
        let v = d.first().copied().unwrap_or(0.0);
        return (v, v);
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (d[j - 1] * (4.0 - delta) + d[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// Interquartile range as a share of the median.
pub fn spread(xs: &[f64]) -> f64 {
    let (q1, q3) = quartiles(xs);
    let med = median(&mut xs.to_vec());
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

/// The outcome of comparing one metric between two sets of runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Same,
    Better,
    Worse,
    /// A set's spread is wider than the bound and the runs do not fully
    /// separate, so the difference cannot be told apart from noise.
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Signed improvement of `b`'s median over `a`'s, as a share of `a`'s
/// (positive = better).
pub fn improvement(a: &[f64], b: &[f64], better: Better) -> f64 {
    let (ma, mb) = (median(&mut a.to_vec()), median(&mut b.to_vec()));
    let rel = if ma == 0.0 { 0.0 } else { (mb - ma) / ma.abs() };
    match better {
        Better::Higher => rel,
        Better::Lower => -rel,
    }
}

/// Judge set `b` against baseline set `a`. Worse (better) when `b`'s median
/// is worse (better) than `a`'s by more than `bound`; unresolved when
/// either set spreads wider than `bound` and not every run of one side
/// beats every run of the other.
pub fn verdict(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    let beats = |x: f64, y: f64| match better {
        Better::Higher => x > y,
        Better::Lower => x < y,
    };
    let separated = b.iter().all(|&y| a.iter().all(|&x| beats(y, x)))
        || a.iter().all(|&x| b.iter().all(|&y| beats(x, y)));
    let gain = improvement(a, b, better);
    if (spread(a) > bound || spread(b) > bound) && !separated {
        Verdict::Unresolved
    } else if gain < -bound {
        Verdict::Worse
    } else if gain > bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn verdict_rule() {
        let base = [100.0, 101.0, 99.0, 100.5, 99.5];
        let shift = |k: f64| base.map(|x| x * k);
        // Within the bound either way: same.
        assert_eq!(
            verdict(&base, &shift(1.04), Better::Higher, 0.10),
            Verdict::Same
        );
        assert_eq!(
            verdict(&base, &shift(0.96), Better::Higher, 0.10),
            Verdict::Same
        );
        // Beyond the bound: the direction decides.
        assert_eq!(
            verdict(&base, &shift(0.85), Better::Higher, 0.10),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&base, &shift(1.20), Better::Higher, 0.10),
            Verdict::Better
        );
        assert_eq!(
            verdict(&base, &shift(0.85), Better::Lower, 0.10),
            Verdict::Better
        );
        assert_eq!(
            verdict(&base, &shift(1.20), Better::Lower, 0.10),
            Verdict::Worse
        );
        // Spread wider than the bound and overlapping runs: unresolved,
        // whatever the medians say.
        let noisy = [60.0, 100.0, 140.0, 80.0, 120.0];
        assert_eq!(
            verdict(&base, &noisy, Better::Higher, 0.10),
            Verdict::Unresolved
        );
        let noisy_low = noisy.map(|x| x * 0.8);
        assert_eq!(
            verdict(&noisy, &noisy_low, Better::Higher, 0.10),
            Verdict::Unresolved
        );
        // Noisy but fully separated: the medians decide.
        let far = [300.0, 500.0, 400.0, 350.0, 450.0];
        assert_eq!(verdict(&noisy, &far, Better::Higher, 0.10), Verdict::Better);
        assert_eq!(verdict(&far, &noisy, Better::Higher, 0.10), Verdict::Worse);
    }
}
