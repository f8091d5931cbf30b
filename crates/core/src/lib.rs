//! # fusedpack-core
//!
//! The paper's primary contribution: **dynamic kernel fusion** for bulk
//! non-contiguous GPU data transfer (Chu et al., CLUSTER 2020, §IV).
//!
//! Three pieces, mirroring the paper's framework (Fig. 5):
//!
//! 1. [`request::FusionRequest`] — one entry of the request list: UID,
//!    requested operation (*Packing*, *Unpacking* or *DirectIPC*), the
//!    shape of its elements, resolved once from the cached data layout at
//!    enqueue, and separate *request status* / *response status* fields
//!    (the response side is only ever advanced by kernel completions,
//!    standing in for the GPU-written device flags of the CUDA
//!    implementation). The copy engine moves the bytes, so a request
//!    holds no buffer pointers and no reference to the layout.
//! 2. [`ring::RequestRing`] — the bounded request list, O(1) per request.
//!    Enqueueing into a full ring is *rejected* (the paper returns a
//!    negative UID) so the progress engine can fall back to a non-fused
//!    path.
//! 3. [`scheduler::Scheduler`] — enqueues requests from the progress
//!    engine, decides when to launch a fused kernel (the two scenarios of
//!    §IV-C: a synchronization point was reached, or enough bytes have
//!    accumulated), hands batches to the GPU, completes requests as their
//!    cooperative groups signal, and answers status queries.
//!
//! [`tuner`] adds the threshold machinery: the paper's heuristic sweep
//! (Fig. 8) and the closed-form model-based predictor of §IV-C/§VII.
//! [`adapt`] takes the predictor online: an [`adapt::AdaptiveThreshold`]
//! controller observes per-flush feedback and retunes
//! [`config::FusionConfig::threshold_bytes`] between flushes, so phase-
//! changing workloads track the best static threshold without a sweep.

pub mod adapt;
pub mod config;
pub mod request;
pub mod ring;
pub mod scheduler;
pub mod tuner;

pub use adapt::{AdaptiveThreshold, FlushFeedback};
pub use config::FusionConfig;
pub use request::{FusionOp, FusionRequest, Status, Uid};
pub use ring::{EnqueueError, RequestRing};
pub use scheduler::{FlushReason, FlushedBatch, SchedStats, Scheduler};
pub use tuner::{predict_threshold, ThresholdTuner};
