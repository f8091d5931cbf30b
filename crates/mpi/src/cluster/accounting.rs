//! Cost accounting: the Fig.-11 breakdown buckets and the charge helpers
//! every path — control plane and data plane alike — funnels through.
//!
//! Byte accounting too: the run-end conservation check. For every
//! directed rank pair, the packed bytes of the sends that completed must
//! equal the bytes delivered to receives. Each rank keeps one wrapping sum
//! (a completed send adds `key(src → dst) · bytes`, a delivery subtracts
//! `key(src → dst) · bytes`), so counting is O(1) per message, needs no
//! per-pair table, and does not depend on event order. At run end the ranks' sums must add to zero. Keys are odd,
//! so a byte difference on any one pair never vanishes from the total
//! (differences on several pairs cancel only by a hash coincidence).

use super::{Cluster, RankState};
use crate::lifecycle::LifecycleEvent;
use crate::sendrecv::SendId;
use crate::RankId;
use fusedpack_sim::{splitmix64, Duration, Time};
use fusedpack_telemetry::{Bucket, Lane, Payload, WaitKindTag};

/// The conservation key of the directed pair `src → dst`.
fn pair_key(src: RankId, dst: RankId) -> u64 {
    splitmix64(u64::from(src.0) << 32 | u64::from(dst.0)) | 1
}

impl RankState {
    /// Count `bytes` sent by this rank to `dst` (a completed send).
    pub(crate) fn count_sent(&mut self, dst: RankId, bytes: u64) {
        let term = pair_key(self.id, dst).wrapping_mul(bytes);
        self.conservation = self.conservation.wrapping_add(term);
    }

    /// Count `bytes` from `src` delivered to this rank.
    pub(crate) fn count_delivered(&mut self, src: RankId, bytes: u64) {
        let term = pair_key(src, self.id).wrapping_mul(bytes);
        self.conservation = self.conservation.wrapping_sub(term);
    }
}

impl Cluster {
    /// Complete send `sid` of rank `r`, counting its packed bytes as sent.
    pub(crate) fn complete_send(&mut self, r: usize, sid: SendId) {
        let rank = &mut self.ranks[r];
        let send = &mut rank.sends[sid.0];
        send.lifecycle.apply(LifecycleEvent::Completed);
        let (dst, bytes) = (send.dst, send.packed_bytes);
        rank.count_sent(dst, bytes);
    }

    /// The conservation sums of every rank, added: zero when bytes were
    /// conserved on every directed pair.
    pub(crate) fn conservation_imbalance(&self) -> u64 {
        self.ranks
            .iter()
            .fold(0, |sum, rank| sum.wrapping_add(rank.conservation))
    }

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
