//! # fusedpack-telemetry
//!
//! Typed, zero-cost-when-disabled observability for the whole fusedpack
//! stack: a structured event timeline (spans + instants keyed by rank /
//! lane / request UID), an aggregation layer (counters and histograms),
//! and two exporters — Chrome Trace Event JSON loadable in Perfetto, and
//! aligned-text / CSV metrics summaries.
//!
//! ## Model
//!
//! Every event carries a **rank** (simulated MPI process), a [`Lane`]
//! (host CPU, a GPU stream, or the NIC — rendered as threads in Perfetto),
//! a virtual-time stamp, and a typed [`Payload`] describing what happened:
//! kernel launches, fused dispatches with request count + bytes + flush
//! reason, per-request pack/unpack lifecycles, scheduler decisions,
//! eager/rendezvous protocol phases, RDMA verbs, and sync waits.
//!
//! ## Zero cost when disabled
//!
//! The [`Telemetry`] handle is a thin wrapper over
//! `Option<Arc<Mutex<Recorder>>>`. A disabled handle is `None`: every
//! record call is one branch, and payload closures are never evaluated
//! (verified by `disabled_recorder_never_evaluates_payloads` in the test
//! suite). A live recorder has no cap: it keeps every event, so
//! [`TimelineSnapshot::dropped`] always reads 0.
//!
//! ## Reconciliation
//!
//! [`reconcile`](fn@reconcile) cross-checks telemetry-derived per-bucket time against
//! the independent `mpi::breakdown` accounting (the paper's Fig. 11
//! buckets), so the two systems validate each other; `reproduce
//! --trace-out` runs this check on every traced experiment.

pub mod chrome;
pub mod event;
pub mod json;
pub mod metrics;
pub mod reconcile;
pub mod recorder;

pub use event::{
    Bucket, CounterSample, Event, FlushReasonTag, Lane, Payload, RndvPhaseTag, SpanId, WaitKindTag,
};
pub use metrics::{Histogram, MetricsSummary};
pub use reconcile::{reconcile, RankDelta, ReconcileReport};
pub use recorder::{Telemetry, TimelineSnapshot};
