//! One module per reproduced table/figure.

pub mod ablation;
pub mod adapt;
pub mod approaches;
pub mod chaos;
pub mod chaos_topo;
pub mod fig1;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig8;
pub mod fig9;
pub mod ipc;
pub mod serve;
pub mod table2;
pub mod topo;

use fusedpack_mpi::SchemeKind;
use fusedpack_net::Platform;
use fusedpack_sim::Duration;
use fusedpack_workloads::{run_exchange, ExchangeConfig, Workload};
use std::sync::atomic::{AtomicU64, Ordering};

/// The paper's §V-C stress level: 16 buffers each way = 32 non-blocking
/// operations per rank.
pub const HALO_MSGS: usize = 16;

/// How the *Proposed* scheme's fusion threshold is chosen for the figure
/// harnesses (the `reproduce --threshold` flag).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThresholdMode {
    /// The paper's 512 KB default.
    Default,
    /// Resolve per workload with [`fusedpack_core::predict_threshold`]
    /// from the workload's average contiguous-block size.
    Auto,
    /// A fixed byte count for every workload.
    Fixed(u64),
}

// Encoded in one atomic so sweep worker threads see a consistent value:
// 0 = default, u64::MAX = auto, anything else = fixed bytes.
static THRESHOLD_MODE: AtomicU64 = AtomicU64::new(0);

/// Set the process-wide threshold mode (called once by the `reproduce`
/// binary before any experiment runs).
pub fn set_threshold_mode(mode: ThresholdMode) {
    let enc = match mode {
        ThresholdMode::Default => 0,
        ThresholdMode::Auto => u64::MAX,
        ThresholdMode::Fixed(b) => {
            assert!(b != 0 && b != u64::MAX, "unrepresentable threshold {b}");
            b
        }
    };
    THRESHOLD_MODE.store(enc, Ordering::SeqCst);
}

/// The currently selected threshold mode.
pub fn threshold_mode() -> ThresholdMode {
    match THRESHOLD_MODE.load(Ordering::SeqCst) {
        0 => ThresholdMode::Default,
        u64::MAX => ThresholdMode::Auto,
        b => ThresholdMode::Fixed(b),
    }
}

/// Master seed for the chaos experiment's fault plans (the `reproduce
/// --seed` flag). Per-cell plans are derived deterministically from this
/// and the cell's grid coordinates, so the report is byte-identical across
/// runs and `--jobs` counts for a given seed.
static CHAOS_SEED: AtomicU64 = AtomicU64::new(42);

/// Set the chaos master seed (called once by the `reproduce` binary).
pub fn set_chaos_seed(seed: u64) {
    CHAOS_SEED.store(seed, Ordering::SeqCst);
}

/// The current chaos master seed.
pub fn chaos_seed() -> u64 {
    CHAOS_SEED.load(Ordering::SeqCst)
}

/// Default request count for the serve experiment: enough steady-state
/// laps for a stable p999 without making `reproduce all` crawl.
pub const SERVE_REQUESTS_DEFAULT: u64 = 200_000;

/// Total requests the serve experiment replays per cell (the `reproduce
/// --requests` flag).
static SERVE_REQUESTS: AtomicU64 = AtomicU64::new(SERVE_REQUESTS_DEFAULT);

/// Set the serve request count (called once by the `reproduce` binary).
pub fn set_serve_requests(requests: u64) {
    assert!(requests > 0, "serve needs at least one request");
    SERVE_REQUESTS.store(requests, Ordering::SeqCst);
}

/// The current serve request count.
pub fn serve_requests() -> u64 {
    SERVE_REQUESTS.load(Ordering::SeqCst)
}

/// Event-loop worker shards per simulation for the cluster-scale
/// experiments (the `reproduce --shards` flag). Each cluster clamps the
/// request to what its layout supports; reports are byte-identical at any
/// value — the CI smoke job diffs `--shards 1` vs `--shards 4` CSVs.
static SHARDS: AtomicU64 = AtomicU64::new(1);

/// Set the per-simulation shard count (called once by the `reproduce`
/// binary before any experiment runs).
pub fn set_shards(shards: u32) {
    assert!(shards >= 1, "at least one shard");
    SHARDS.store(shards as u64, Ordering::SeqCst);
}

/// The current per-simulation shard count.
pub fn shards() -> u32 {
    SHARDS.load(Ordering::SeqCst) as u32
}

/// Serializes the unit tests that change the process-wide settings above.
/// `cargo test` runs tests on parallel threads, so without it one test's
/// reset can land between another test's two runs.
#[cfg(test)]
pub(crate) fn lock_settings() -> std::sync::MutexGuard<'static, ()> {
    static SETTINGS: std::sync::Mutex<()> = std::sync::Mutex::new(());
    // A test that panicked while holding the lock leaves only `()` behind.
    SETTINGS
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The *Proposed* scheme for one (platform, workload) cell, honouring the
/// CLI threshold mode: the 512 KB default, a fixed `--threshold BYTES`, or
/// `--threshold auto` (model-predicted from the workload's average block
/// size on this platform's GPU).
pub fn proposed(platform: &Platform, workload: &Workload) -> SchemeKind {
    match threshold_mode() {
        ThresholdMode::Default => SchemeKind::fusion_default(),
        ThresholdMode::Fixed(b) => SchemeKind::fusion_with_threshold(b),
        ThresholdMode::Auto => SchemeKind::fusion_with_threshold(
            fusedpack_core::predict_threshold(&platform.arch, workload.avg_block_bytes()),
        ),
    }
}

/// One latency measurement with the standard protocol (1 warm-up lap,
/// 1 measured lap, timing-only memory).
pub fn latency(
    platform: &Platform,
    scheme: SchemeKind,
    workload: &Workload,
    n_msgs: usize,
) -> Duration {
    run_exchange(&ExchangeConfig::new(
        platform.clone(),
        scheme,
        workload.clone(),
        n_msgs,
    ))
    .latency
}

/// The GPU-driven comparison set of Figs. 9/10/12/13 in paper legend order.
pub fn gpu_driven_schemes() -> Vec<SchemeKind> {
    fusedpack_mpi::SchemeRegistry::global().by_names(&[
        "proposed",
        "gpu-sync",
        "gpu-async",
        "cpu-gpu-hybrid",
    ])
}

/// Tune the fusion threshold for one workload on one platform by sweeping
/// the Fig. 8 grid and keeping the argmin — the evaluation's
/// *Proposed-Tuned* configuration.
pub fn tuned_fusion(platform: &Platform, workload: &Workload, n_msgs: usize) -> (SchemeKind, u64) {
    let mut tuner = fusedpack_core::ThresholdTuner::new();
    for threshold in fusedpack_core::ThresholdTuner::default_grid() {
        let lat = latency(
            platform,
            SchemeKind::fusion_with_threshold(threshold),
            workload,
            n_msgs,
        );
        tuner.record(threshold, lat);
    }
    let best = tuner.best().expect("grid is non-empty");
    (SchemeKind::fusion_with_threshold(best), best)
}

/// Standard size sweeps per workload family (the x-axes of Figs. 12/13).
pub mod sizes {
    /// specfem3D boundary point counts (sparse).
    pub const SPECFEM: &[u64] = &[512, 1024, 2048, 4096, 8192, 16384];
    /// MILC local lattice extents (dense, small→medium).
    pub const MILC: &[u64] = &[4, 6, 8, 12, 16, 24];
    /// NAS_MG grid extents (dense, medium→large).
    pub const NAS: &[u64] = &[64, 128, 192, 256, 384, 512];
}
