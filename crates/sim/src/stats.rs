//! Statistics accumulators for benchmark harnesses.
//!
//! The paper reports the *average of 500 iterations, excluding 50 warm-up
//! iterations*; [`Accumulator`] supports exactly that protocol, plus the
//! usual summary statistics used when printing table rows.

use crate::clock::Duration;

/// Collects duration samples and produces summary statistics.
#[derive(Debug, Clone, Default)]
pub struct Accumulator {
    samples: Vec<f64>, // nanoseconds
    warmup_remaining: usize,
    warmup_skipped: usize,
}

/// Summary of a sample set, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub count: usize,
    pub mean_ns: f64,
    pub min_ns: f64,
    pub max_ns: f64,
    pub stddev_ns: f64,
    pub p50_ns: f64,
    pub p99_ns: f64,
}

impl Accumulator {
    pub fn new() -> Self {
        Self::default()
    }

    /// Discard the first `n` recorded samples as warm-up.
    pub fn with_warmup(n: usize) -> Self {
        Accumulator {
            samples: Vec::new(),
            warmup_remaining: n,
            warmup_skipped: 0,
        }
    }

    pub fn record(&mut self, d: Duration) {
        if self.warmup_remaining > 0 {
            self.warmup_remaining -= 1;
            self.warmup_skipped += 1;
            return;
        }
        self.samples.push(d.as_nanos() as f64);
    }

    pub fn len(&self) -> usize {
        self.samples.len()
    }

    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    pub fn warmup_skipped(&self) -> usize {
        self.warmup_skipped
    }

    pub fn mean(&self) -> Duration {
        if self.samples.is_empty() {
            return Duration::ZERO;
        }
        let mean = self.samples.iter().sum::<f64>() / self.samples.len() as f64;
        Duration(mean.round() as u64)
    }

    pub fn summary(&self) -> Summary {
        if self.samples.is_empty() {
            return Summary {
                count: 0,
                mean_ns: 0.0,
                min_ns: 0.0,
                max_ns: 0.0,
                stddev_ns: 0.0,
                p50_ns: 0.0,
                p99_ns: 0.0,
            };
        }
        let n = self.samples.len() as f64;
        let mean = self.samples.iter().sum::<f64>() / n;
        let var = self
            .samples
            .iter()
            .map(|s| (s - mean) * (s - mean))
            .sum::<f64>()
            / n;
        let mut sorted = self.samples.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("durations are finite"));
        Summary {
            count: self.samples.len(),
            mean_ns: mean,
            min_ns: sorted[0],
            max_ns: *sorted.last().expect("non-empty"),
            stddev_ns: var.sqrt(),
            p50_ns: percentile(&sorted, 0.50),
            p99_ns: percentile(&sorted, 0.99),
        }
    }
}

/// Nearest-rank percentile on a pre-sorted slice.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    debug_assert!(!sorted.is_empty());
    debug_assert!((0.0..=1.0).contains(&q));
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warmup_samples_are_dropped() {
        let mut acc = Accumulator::with_warmup(2);
        acc.record(Duration(1_000_000)); // dropped
        acc.record(Duration(1_000_000)); // dropped
        acc.record(Duration(100));
        acc.record(Duration(300));
        assert_eq!(acc.len(), 2);
        assert_eq!(acc.warmup_skipped(), 2);
        assert_eq!(acc.mean(), Duration(200));
    }

    #[test]
    fn empty_summary_is_zeroed() {
        let acc = Accumulator::new();
        let s = acc.summary();
        assert_eq!(s.count, 0);
        assert_eq!(s.mean_ns, 0.0);
        assert_eq!(acc.mean(), Duration::ZERO);
    }

    #[test]
    fn summary_statistics_are_correct() {
        let mut acc = Accumulator::new();
        for v in [10u64, 20, 30, 40, 50] {
            acc.record(Duration(v));
        }
        let s = acc.summary();
        assert_eq!(s.count, 5);
        assert_eq!(s.mean_ns, 30.0);
        assert_eq!(s.min_ns, 10.0);
        assert_eq!(s.max_ns, 50.0);
        assert_eq!(s.p50_ns, 30.0);
        assert_eq!(s.p99_ns, 50.0);
        assert!((s.stddev_ns - 200.0f64.sqrt()).abs() < 1e-9);
    }

    #[test]
    fn percentile_nearest_rank() {
        let sorted = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&sorted, 0.25), 1.0);
        assert_eq!(percentile(&sorted, 0.5), 2.0);
        assert_eq!(percentile(&sorted, 1.0), 4.0);
    }
}
