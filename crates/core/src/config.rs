//! Fusion framework configuration.

use fusedpack_gpu::PartitionPolicy;
use fusedpack_sim::Duration;

/// CPU cost of enqueueing one request (create the request object, fill the
/// entry, bump Tail). Together with `COMPLETE_COST` this is the
/// "scheduling" bucket of Fig. 11 — ~2 µs per message in the paper.
pub(crate) const ENQUEUE_COST: Duration = Duration::from_nanos(1_200);
/// CPU cost of completing/retiring one request on the host side.
pub(crate) const COMPLETE_COST: Duration = Duration::from_nanos(700);
/// CPU cost of one status query (compare request vs response status).
pub(crate) const QUERY_COST: Duration = Duration::from_nanos(120);

/// Tunables of the fusion scheduler.
#[derive(Debug, Clone)]
pub struct FusionConfig {
    /// Launch a fused kernel once this many payload bytes are pending —
    /// the heuristic threshold of §IV-C. The paper observes ~512 KB to be
    /// near-optimal across its workloads and systems (Fig. 8).
    pub threshold_bytes: u64,
    /// Capacity of the circular request list.
    pub ring_capacity: usize,
    /// Maximum requests fused into a single kernel (bounds the kernel's
    /// argument array).
    pub max_fused: usize,
    /// Use fused DirectIPC requests (zero-copy load/store over NVLink/PCIe,
    /// the scheme of \[24\]) for intra-node peers instead of
    /// pack-transfer-unpack.
    pub enable_direct_ipc: bool,
    /// How the fused kernel partitions its thread-block budget across the
    /// batched requests (see [`fusedpack_gpu::PartitionPolicy`]). The
    /// default reproduces the paper's work-proportional split; the
    /// adaptive scheme uses the cost-guided variant.
    pub partition: PartitionPolicy,
}

impl Default for FusionConfig {
    fn default() -> Self {
        FusionConfig {
            threshold_bytes: 512 * 1024,
            ring_capacity: 256,
            max_fused: 64,
            enable_direct_ipc: true,
            partition: PartitionPolicy::default(),
        }
    }
}

impl FusionConfig {
    /// A config with a specific byte threshold (Fig. 8 sweeps this).
    pub fn with_threshold(threshold_bytes: u64) -> Self {
        FusionConfig {
            threshold_bytes,
            ..Self::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_optimum() {
        let c = FusionConfig::default();
        assert_eq!(c.threshold_bytes, 512 * 1024);
        // Scheduling cost per message (enqueue + complete) ~ 2us (Fig. 11).
        let per_msg = ENQUEUE_COST + COMPLETE_COST;
        assert!((1.5..=2.5).contains(&per_msg.as_micros_f64()));
    }

    #[test]
    fn with_threshold_overrides_only_threshold() {
        let c = FusionConfig::with_threshold(16 * 1024);
        assert_eq!(c.threshold_bytes, 16 * 1024);
        assert_eq!(c.ring_capacity, FusionConfig::default().ring_capacity);
    }
}
