//! Time-breakdown accounting — the five buckets of the paper's Fig. 11.
//!
//! 1. **(Un)Pack** — device (or GDRCopy CPU) time spent actually moving
//!    non-contiguous bytes;
//! 2. **Launching** — CPU driver time spent launching kernels / issuing
//!    async copies;
//! 3. **Scheduling** — GPU-Async's event records and the fusion scheduler's
//!    enqueue/complete work;
//! 4. **Sync.** — CPU↔GPU completion detection: blocked
//!    `cudaStreamSynchronize` waits, `cudaEventQuery` polls, fusion status
//!    queries;
//! 5. **Comm.** — *observed* communication: time a rank spends blocked with
//!    no local kernel or CPU work outstanding, waiting on the wire.

use fusedpack_sim::Duration;
use std::ops::AddAssign;

/// Accumulated per-rank cost buckets.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Breakdown {
    pub pack: Duration,
    pub launch: Duration,
    pub scheduling: Duration,
    pub sync: Duration,
    pub comm: Duration,
}

impl Breakdown {
    pub fn total(&self) -> Duration {
        self.pack + self.launch + self.scheduling + self.sync + self.comm
    }

    /// Fraction of the total in each bucket, in Fig. 11 order.
    pub fn fractions(&self) -> [f64; 5] {
        let total = self.total().as_nanos() as f64;
        if total == 0.0 {
            return [0.0; 5];
        }
        [
            self.pack.as_nanos() as f64 / total,
            self.launch.as_nanos() as f64 / total,
            self.scheduling.as_nanos() as f64 / total,
            self.sync.as_nanos() as f64 / total,
            self.comm.as_nanos() as f64 / total,
        ]
    }

    /// Bucket labels in Fig. 11 order.
    pub const LABELS: [&'static str; 5] = ["(Un)Pack", "Launching", "Scheduling", "Sync.", "Comm."];

    /// Values in Fig. 11 order.
    pub fn values(&self) -> [Duration; 5] {
        [
            self.pack,
            self.launch,
            self.scheduling,
            self.sync,
            self.comm,
        ]
    }
}

impl Breakdown {
    /// Difference of two snapshots (`self` taken after `earlier`).
    pub fn delta_since(&self, earlier: &Breakdown) -> Breakdown {
        Breakdown {
            pack: self.pack.saturating_sub(earlier.pack),
            launch: self.launch.saturating_sub(earlier.launch),
            scheduling: self.scheduling.saturating_sub(earlier.scheduling),
            sync: self.sync.saturating_sub(earlier.sync),
            comm: self.comm.saturating_sub(earlier.comm),
        }
    }
}

impl AddAssign for Breakdown {
    fn add_assign(&mut self, rhs: Breakdown) {
        self.pack += rhs.pack;
        self.launch += rhs.launch;
        self.scheduling += rhs.scheduling;
        self.sync += rhs.sync;
        self.comm += rhs.comm;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_and_fractions() {
        let b = Breakdown {
            pack: Duration(100),
            launch: Duration(300),
            scheduling: Duration(50),
            sync: Duration(250),
            comm: Duration(300),
        };
        assert_eq!(b.total(), Duration(1000));
        let f = b.fractions();
        assert!((f[0] - 0.1).abs() < 1e-12);
        assert!((f[1] - 0.3).abs() < 1e-12);
        assert!((f.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_breakdown_has_zero_fractions() {
        assert_eq!(Breakdown::default().fractions(), [0.0; 5]);
    }

    #[test]
    fn add_assign_accumulates() {
        let mut a = Breakdown {
            pack: Duration(10),
            ..Default::default()
        };
        a += Breakdown {
            pack: Duration(5),
            comm: Duration(7),
            ..Default::default()
        };
        assert_eq!(a.pack, Duration(15));
        assert_eq!(a.comm, Duration(7));
    }

    #[test]
    fn labels_align_with_values() {
        assert_eq!(Breakdown::LABELS.len(), Breakdown::default().values().len());
    }
}
