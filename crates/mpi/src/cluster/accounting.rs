//! Cost accounting: the Fig.-11 breakdown buckets and the charge helpers
//! every path — control plane and data plane alike — funnels through.

use super::Cluster;
use fusedpack_sim::{Duration, Time};
use fusedpack_telemetry::{Bucket, Lane, Payload, WaitKindTag};

impl Cluster {
    /// Charge CPU time to a rank and a breakdown bucket.
    pub(crate) fn charge(&mut self, r: usize, cost: Duration, bucket: Bucket) {
        self.ranks[r].cpu += cost;
        self.bucket_add(r, bucket, cost);
    }

    /// Charge starting from an explicit instant (event handlers).
    pub(crate) fn charge_at(&mut self, r: usize, at: Time, cost: Duration, bucket: Bucket) {
        let rank = &mut self.ranks[r];
        rank.cpu = rank.cpu.max(at) + cost;
        self.bucket_add(r, bucket, cost);
    }

    /// Charge `d` to a bucket with the charge interval ending at the rank's
    /// current CPU clock (the common case: the work just finished).
    pub(crate) fn bucket_add(&mut self, r: usize, bucket: Bucket, d: Duration) {
        let end = self.ranks[r].cpu;
        let start = Time(end.0.saturating_sub(d.as_nanos()));
        self.bucket_add_at(r, bucket, start, d);
    }

    /// Charge `d` to a bucket with an explicit start instant. EVERY
    /// breakdown mutation goes through here, so the emitted
    /// [`Payload::BucketCharge`] spans sum to exactly the breakdown — the
    /// invariant the reconciliation check relies on.
    pub(crate) fn bucket_add_at(&mut self, r: usize, bucket: Bucket, start: Time, d: Duration) {
        {
            let b = &mut self.ranks[r].breakdown;
            match bucket {
                Bucket::Pack => b.pack += d,
                Bucket::Launch => b.launch += d,
                Bucket::Scheduling => b.scheduling += d,
                Bucket::Sync => b.sync += d,
                Bucket::Comm => b.comm += d,
            }
        }
        if d > Duration::ZERO {
            self.ranks[r]
                .tele
                .span(Lane::Accounting, start, start + d, || {
                    Payload::BucketCharge {
                        bucket,
                        label: bucket.label(),
                    }
                });
        }
    }

    /// Attribute a blocked rank's wait interval up to `up_to`: network
    /// waits land in the `Comm.` bucket, local-kernel waits are already
    /// counted in `pack`.
    pub(crate) fn account_wait(&mut self, r: usize, up_to: Time) {
        let anchor = self.ranks[r].wait_anchor;
        if let Some((kind, delta)) = self.ranks[r].take_wait(up_to) {
            if kind == WaitKindTag::Network {
                self.bucket_add_at(r, Bucket::Comm, anchor, delta);
            }
        }
    }
}
