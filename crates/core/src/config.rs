//! Fusion framework configuration.

use fusedpack_gpu::PartitionPolicy;
use fusedpack_sim::Duration;

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
    /// CPU cost of enqueueing one request (create the request object, fill
    /// the entry, bump Tail). Together with completion handling this is the
    /// "scheduling" bucket of Fig. 11 — ~2 µs per message in the paper.
    pub enqueue_cost: Duration,
    /// CPU cost of completing/retiring one request on the host side.
    pub complete_cost: Duration,
    /// CPU cost of one status query (compare request vs response status).
    pub query_cost: Duration,
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
            enqueue_cost: Duration::from_nanos(1_200),
            complete_cost: Duration::from_nanos(700),
            query_cost: Duration::from_nanos(120),
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

    /// A config whose threshold comes from the model-based prediction the
    /// paper sketches as future work (§IV-C): invert the kernel cost model
    /// so the fused kernel always outlives one launch overhead. See
    /// [`crate::tuner::predict_threshold`].
    pub fn predicted(arch: &fusedpack_gpu::GpuArch, avg_block_bytes: f64) -> Self {
        Self::with_threshold(crate::tuner::predict_threshold(arch, avg_block_bytes))
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
        let per_msg = c.enqueue_cost + c.complete_cost;
        assert!((1.5..=2.5).contains(&per_msg.as_micros_f64()));
    }

    #[test]
    fn with_threshold_overrides_only_threshold() {
        let c = FusionConfig::with_threshold(16 * 1024);
        assert_eq!(c.threshold_bytes, 16 * 1024);
        assert_eq!(c.ring_capacity, FusionConfig::default().ring_capacity);
    }

    #[test]
    fn predicted_config_uses_the_cost_model() {
        let arch = fusedpack_gpu::GpuArch::v100();
        let sparse = FusionConfig::predicted(&arch, 4.0);
        let dense = FusionConfig::predicted(&arch, 64.0 * 1024.0);
        assert!(sparse.threshold_bytes < dense.threshold_bytes);
        assert!(sparse.threshold_bytes.is_power_of_two());
    }
}
