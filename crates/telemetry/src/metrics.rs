//! Aggregation layer: counters and histograms derived from a timeline,
//! rendered as aligned text or CSV.

use crate::event::{FlushReasonTag, Payload};
use crate::recorder::TimelineSnapshot;
use std::fmt::Write as _;

/// A power-of-two-bucketed histogram of `u64` samples with exact count /
/// sum / min / max. Good enough for requests-per-launch and bytes-per-flush
/// distributions without keeping every sample.
#[derive(Debug, Clone)]
pub struct Histogram {
    pub name: &'static str,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    /// `buckets[i]` counts samples with `ilog2(sample.max(1)) == i`.
    buckets: [u64; 64],
}

impl Histogram {
    pub fn new(name: &'static str) -> Self {
        Histogram {
            name,
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: [0; 64],
        }
    }

    pub fn record(&mut self, sample: u64) {
        self.count += 1;
        self.sum += sample;
        self.min = self.min.min(sample);
        self.max = self.max.max(sample);
        self.buckets[sample.max(1).ilog2() as usize] += 1;
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    pub fn max(&self) -> u64 {
        self.max
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Approximate median: the upper edge of the bucket containing the
    /// middle sample.
    pub fn approx_p50(&self) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let mut seen = 0;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen * 2 >= self.count {
                return 1u64 << (i + 1).min(63);
            }
        }
        self.max
    }

    fn row(&self) -> Vec<String> {
        vec![
            self.name.to_string(),
            self.count.to_string(),
            self.min().to_string(),
            format!("{:.1}", self.mean()),
            format!("<={}", self.approx_p50()),
            self.max.to_string(),
        ]
    }
}

/// Everything the metrics exporter reports for one run.
#[derive(Debug, Clone)]
pub struct MetricsSummary {
    pub events: u64,
    pub kernels: u64,
    pub fused_launches: u64,
    pub requests_fused: u64,
    pub bytes_fused: u64,
    pub enqueues: u64,
    pub rejected: u64,
    pub queries: u64,
    pub flushes_sync: u64,
    pub flushes_threshold: u64,
    pub flushes_pressure: u64,
    pub requests_per_launch: Histogram,
    pub bytes_per_flush: Histogram,
    pub ring_occupancy: Histogram,
    pub wire_bytes: u64,
}

impl MetricsSummary {
    pub fn from_snapshot(snap: &TimelineSnapshot) -> Self {
        let mut m = MetricsSummary {
            events: snap.events.len() as u64,
            kernels: 0,
            fused_launches: 0,
            requests_fused: 0,
            bytes_fused: 0,
            enqueues: 0,
            rejected: 0,
            queries: 0,
            flushes_sync: 0,
            flushes_threshold: 0,
            flushes_pressure: 0,
            requests_per_launch: Histogram::new("requests/fused-launch"),
            bytes_per_flush: Histogram::new("bytes/flush"),
            ring_occupancy: Histogram::new("ring occupancy"),
            wire_bytes: 0,
        };
        for e in &snap.events {
            match e.payload {
                Payload::KernelExec { .. } => m.kernels += 1,
                Payload::FusedExec {
                    requests, bytes, ..
                } => {
                    m.fused_launches += 1;
                    m.requests_fused += requests as u64;
                    m.bytes_fused += bytes;
                    m.requests_per_launch.record(requests as u64);
                    m.bytes_per_flush.record(bytes);
                }
                Payload::Enqueue { .. } => m.enqueues += 1,
                Payload::EnqueueRejected { .. } => m.rejected += 1,
                Payload::Query { .. } => m.queries += 1,
                Payload::FlushDecision { reason, .. } => match reason {
                    FlushReasonTag::SyncPoint => m.flushes_sync += 1,
                    FlushReasonTag::ThresholdReached => m.flushes_threshold += 1,
                    FlushReasonTag::RingPressure => m.flushes_pressure += 1,
                },
                Payload::WireTransfer { bytes, .. } => m.wire_bytes += bytes,
                _ => {}
            }
        }
        for c in &snap.counters {
            if c.name == "ring_occupancy" {
                m.ring_occupancy.record(c.value.max(0.0) as u64);
            }
        }
        m
    }

    /// Mean requests per fused launch (the paper's fusion degree).
    pub fn fusion_degree(&self) -> f64 {
        self.requests_per_launch.mean()
    }

    /// Aligned plain-text rendering.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "## telemetry metrics");
        let counters: [(&str, u64); 11] = [
            ("events", self.events),
            ("single kernels", self.kernels),
            ("fused launches", self.fused_launches),
            ("requests fused", self.requests_fused),
            ("bytes fused", self.bytes_fused),
            ("enqueues", self.enqueues),
            ("enqueue rejections", self.rejected),
            ("completion queries", self.queries),
            ("flushes: sync-point", self.flushes_sync),
            ("flushes: threshold", self.flushes_threshold),
            ("flushes: ring-pressure", self.flushes_pressure),
        ];
        let w = counters.iter().map(|(n, _)| n.len()).max().unwrap_or(0);
        for (name, v) in counters {
            let _ = writeln!(out, "  {name:<w$}  {v}");
        }
        let _ = writeln!(out);
        let headers = ["histogram", "count", "min", "mean", "~p50", "max"];
        let rows: Vec<Vec<String>> = [
            &self.requests_per_launch,
            &self.bytes_per_flush,
            &self.ring_occupancy,
        ]
        .iter()
        .map(|h| h.row())
        .collect();
        let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
        for row in &rows {
            for (w, c) in widths.iter_mut().zip(row) {
                *w = (*w).max(c.len());
            }
        }
        let line = |cells: &[String]| -> String {
            cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let hdr: Vec<String> = headers.iter().map(|s| s.to_string()).collect();
        let _ = writeln!(out, "  {}", line(&hdr));
        for row in &rows {
            let _ = writeln!(out, "  {}", line(row));
        }
        out
    }

    /// CSV rendering: one `metric,value` pair per line, then histogram
    /// rows.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("metric,count,min,mean,p50,max\n");
        let scalar = |name: &str, v: u64| format!("{name},{v},,,,\n");
        out.push_str(&scalar("events", self.events));
        out.push_str(&scalar("single_kernels", self.kernels));
        out.push_str(&scalar("fused_launches", self.fused_launches));
        out.push_str(&scalar("requests_fused", self.requests_fused));
        out.push_str(&scalar("bytes_fused", self.bytes_fused));
        out.push_str(&scalar("enqueues", self.enqueues));
        out.push_str(&scalar("enqueue_rejections", self.rejected));
        out.push_str(&scalar("completion_queries", self.queries));
        out.push_str(&scalar("flushes_sync", self.flushes_sync));
        out.push_str(&scalar("flushes_threshold", self.flushes_threshold));
        out.push_str(&scalar("flushes_pressure", self.flushes_pressure));
        out.push_str(&scalar("wire_bytes", self.wire_bytes));
        for h in [
            &self.requests_per_launch,
            &self.bytes_per_flush,
            &self.ring_occupancy,
        ] {
            let _ = writeln!(
                out,
                "{},{},{},{:.2},{},{}",
                h.name.replace([' ', '/'], "_"),
                h.count(),
                h.min(),
                h.mean(),
                h.approx_p50(),
                h.max()
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Bucket, FlushReasonTag, Lane};
    use crate::recorder::Telemetry;
    use fusedpack_sim::Time;

    #[test]
    fn histogram_tracks_moments() {
        let mut h = Histogram::new("t");
        for s in [1u64, 2, 3, 4, 100] {
            h.record(s);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 100);
        assert!((h.mean() - 22.0).abs() < 1e-9);
        assert!(h.approx_p50() <= 8);
    }

    #[test]
    fn summary_counts_fused_launches() {
        let t = Telemetry::enabled();
        for i in 0..3u64 {
            t.span(Lane::Stream(0), Time(i * 10), Time(i * 10 + 5), || {
                Payload::FusedExec {
                    requests: 4,
                    bytes: 1024,
                    reason: FlushReasonTag::ThresholdReached,
                }
            });
            t.instant(Lane::Host, Time(i * 10), || Payload::FlushDecision {
                reason: FlushReasonTag::ThresholdReached,
                requests: 4,
                bytes: 1024,
            });
        }
        t.instant(Lane::Host, Time(50), || Payload::BucketCharge {
            bucket: Bucket::Launch,
            label: "launch",
        });
        let m = MetricsSummary::from_snapshot(&t.snapshot());
        assert_eq!(m.fused_launches, 3);
        assert_eq!(m.requests_fused, 12);
        assert_eq!(m.flushes_threshold, 3);
        assert!((m.fusion_degree() - 4.0).abs() < 1e-9);
        assert!(m.render().contains("fused launches"));
        assert!(m.to_csv().contains("requests_fused,12"));
    }
}
