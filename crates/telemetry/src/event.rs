//! The typed event model: lanes, payloads, spans, instants, counters.

use fusedpack_sim::{Duration, FaultSite, Time};

/// Where an event happened within a rank; rendered as a Perfetto thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Lane {
    /// Host CPU (MPI library + scheduler code).
    Host,
    /// The NIC / wire.
    Nic,
    /// A GPU stream.
    Stream(u32),
    /// Accounting records ([`Payload::BucketCharge`]): durations charged to
    /// cost buckets, kept off the wall-clock lanes so they don't clutter
    /// the execution timeline.
    Accounting,
}

impl Lane {
    /// Stable Perfetto `tid` for this lane. Host and NIC come first so
    /// streams sort after them in the UI; accounting sorts last.
    pub fn tid(self) -> u32 {
        match self {
            Lane::Host => 0,
            Lane::Nic => 1,
            Lane::Stream(s) => 2 + s,
            Lane::Accounting => 99,
        }
    }

    pub fn label(self) -> String {
        match self {
            Lane::Host => "host".to_string(),
            Lane::Nic => "nic".to_string(),
            Lane::Stream(s) => format!("stream {s}"),
            Lane::Accounting => "accounting".to_string(),
        }
    }
}

/// Mirror of `fusedpack_core::FlushReason`, defined here so the telemetry
/// crate sits below `core` in the dependency graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlushReasonTag {
    SyncPoint,
    ThresholdReached,
    RingPressure,
}

impl FlushReasonTag {
    pub fn label(self) -> &'static str {
        match self {
            FlushReasonTag::SyncPoint => "sync-point",
            FlushReasonTag::ThresholdReached => "threshold",
            FlushReasonTag::RingPressure => "ring-pressure",
        }
    }
}

/// What a blocked rank is waiting on: the mpi crate's wait
/// classification, which decides the Fig. 11 `Comm.` bucket.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitKindTag {
    /// A local kernel / DMA is still running — its time is already
    /// accounted in the `pack` bucket.
    LocalKernel,
    /// Pure network wait: observed communication time.
    Network,
}

impl WaitKindTag {
    pub fn label(self) -> &'static str {
        match self {
            WaitKindTag::LocalKernel => "local-kernel",
            WaitKindTag::Network => "network",
        }
    }
}

/// Rendezvous protocol phases.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RndvPhaseTag {
    Rts,
    Cts,
    /// RGET's RDMA READ request (plays the CTS role in that sub-protocol).
    ReadReq,
    Data,
    Fin,
}

impl RndvPhaseTag {
    pub fn label(self) -> &'static str {
        match self {
            RndvPhaseTag::Rts => "RTS",
            RndvPhaseTag::Cts => "CTS",
            RndvPhaseTag::ReadReq => "READ-REQ",
            RndvPhaseTag::Data => "DATA",
            RndvPhaseTag::Fin => "FIN",
        }
    }
}

/// The paper's Fig. 11 cost buckets, extended with `Comm` so the whole
/// breakdown is expressible. Mirrors `mpi::breakdown::Breakdown` fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Bucket {
    Pack,
    Launch,
    Scheduling,
    Sync,
    Comm,
}

impl Bucket {
    pub const ALL: [Bucket; 5] = [
        Bucket::Pack,
        Bucket::Launch,
        Bucket::Scheduling,
        Bucket::Sync,
        Bucket::Comm,
    ];

    pub fn label(self) -> &'static str {
        match self {
            Bucket::Pack => "(Un)Pack",
            Bucket::Launch => "Launching",
            Bucket::Scheduling => "Scheduling",
            Bucket::Sync => "Sync.",
            Bucket::Comm => "Comm.",
        }
    }

    pub fn index(self) -> usize {
        match self {
            Bucket::Pack => 0,
            Bucket::Launch => 1,
            Bucket::Scheduling => 2,
            Bucket::Sync => 3,
            Bucket::Comm => 4,
        }
    }
}

/// What happened. Every variant is a self-contained structured record —
/// no string formatting on the hot path.
#[derive(Debug, Clone, PartialEq)]
pub enum Payload {
    /// A single (non-fused) pack/unpack kernel executing on a stream.
    KernelExec { bytes: u64, blocks: u64 },
    /// A fused kernel executing on a stream on behalf of many requests.
    FusedExec {
        requests: u32,
        bytes: u64,
        reason: FlushReasonTag,
    },
    /// Host CPU cost of launching a kernel (driver call).
    KernelLaunch { fused: bool },
    /// An async device copy (H2D/D2H staging, GDRCopy, IPC).
    Memcpy { bytes: u64, kind: &'static str },
    /// A request entered the scheduler ring.
    Enqueue {
        uid: u64,
        bytes: u64,
        ring_occupancy: u32,
    },
    /// The ring was full; the request was rejected.
    EnqueueRejected { bytes: u64 },
    /// The scheduler decided to flush pending requests.
    FlushDecision {
        reason: FlushReasonTag,
        requests: u32,
        bytes: u64,
    },
    /// The adaptive controller moved the fusion threshold between flushes.
    ThresholdAdjust {
        /// Threshold in effect for the flush that produced the feedback.
        old_bytes: u64,
        /// Threshold that governs subsequent flush decisions.
        new_bytes: u64,
    },
    /// Host-side completion query against a request.
    Query { uid: u64, ready: bool },
    /// A request left the ring.
    Retire { uid: u64, ring_occupancy: u32 },
    /// Pack (or unpack) lifecycle of one request on the GPU.
    PackSpan { uid: u64, bytes: u64, unpack: bool },
    /// Eager-protocol send issued.
    EagerSend { peer: u32, tag: u32, bytes: u64 },
    /// A rendezvous control/data phase.
    Rndv {
        peer: u32,
        tag: u32,
        phase: RndvPhaseTag,
        bytes: u64,
    },
    /// RDMA verb posted to the NIC. Recorded by the NIC itself, which does
    /// not know the destination rank — routing context lives in the
    /// surrounding [`Payload::Rndv`]/[`Payload::EagerSend`] instants.
    RdmaPost { bytes: u64, gdr: bool },
    /// A message (ctrl or data) arrived from the wire.
    Deliver { peer: u32, tag: u32, bytes: u64 },
    /// Payload bytes in flight on a link.
    WireTransfer { bytes: u64 },
    /// Payload bytes crossing one hop of a routed (topology-aware)
    /// transfer; `hop` indexes the topology's hop table.
    HopTransfer { hop: u32, bytes: u64 },
    /// Host blocked in a sync wait (waitall / device sync).
    SyncWait { kind: WaitKindTag },
    /// Time charged to a Fig. 11 accounting bucket. The reconciliation
    /// check sums these against `mpi::breakdown`.
    BucketCharge { bucket: Bucket, label: &'static str },
    /// Free-form marker for experiment phases (warmup, lap boundaries).
    Marker { label: &'static str },
    /// The simulator clamped a past-scheduled event to `now` (release
    /// builds only — debug builds panic). `skew_ns` is how far in the past
    /// the rewritten timestamp was.
    ClampedEvent { skew_ns: u64 },
    /// End-of-run allocator/queue health snapshot: timing-wheel counters
    /// and slab occupancy high-water marks (`events / slots_drained` is
    /// the events-per-wheel-tick figure).
    QueueHealth {
        event_slab_high_water: u32,
        wire_slab_high_water: u32,
        overflow_hits: u64,
        slots_drained: u64,
        events: u64,
    },
    /// End-of-run layout-compiler cache snapshot, aggregated over every
    /// rank's cache: commit and acquire hits, first-commit misses, and
    /// resident compiled bytes.
    LayoutCacheHealth {
        hits: u64,
        misses: u64,
        resident_bytes: u64,
    },
    /// Never emitted: every run drains one event queue, so no run
    /// crosses a shard barrier. The variant stays only because the
    /// `fpbench` benchmark package matches on it and changes only with
    /// the benchmark.
    ShardBarrier,
    /// One cell of a parallel experiment sweep executed by the bench
    /// driver; `index` is the cell's position in the deterministic cell
    /// list, `worker` the pool thread that ran it.
    SweepCell { index: u64, worker: u32 },
    /// The fault plan injected a fault at a named site.
    FaultInjected { site: FaultSite },
    /// The transfer protocol retransmitted after a detected loss/NACK.
    Retry {
        site: FaultSite,
        attempt: u32,
        backoff_ns: u64,
    },
    /// A degradation ladder was taken instead of the fast path.
    Degraded {
        site: FaultSite,
        action: &'static str,
    },
    /// The fabric health monitor marked a hop permanently down.
    HopDown { hop: u32 },
    /// A pair's route was re-resolved around dead hops (self-healing
    /// ECMP reroute).
    Rerouted { src: u32, dst: u32 },
    /// A reroute failed over a dead NIC rail to a sibling rail.
    RailFailover { hop: u32 },
}

impl Payload {
    /// Short event name shown in the Perfetto timeline.
    pub fn name(&self) -> &'static str {
        match self {
            Payload::KernelExec { .. } => "kernel",
            Payload::FusedExec { .. } => "fused-kernel",
            Payload::KernelLaunch { fused: false } => "launch",
            Payload::KernelLaunch { fused: true } => "launch-fused",
            Payload::Memcpy { kind, .. } => kind,
            Payload::Enqueue { .. } => "enqueue",
            Payload::EnqueueRejected { .. } => "enqueue-rejected",
            Payload::FlushDecision { .. } => "flush",
            Payload::ThresholdAdjust { .. } => "threshold-adjust",
            Payload::Query { .. } => "query",
            Payload::Retire { .. } => "retire",
            Payload::PackSpan { unpack: false, .. } => "pack",
            Payload::PackSpan { unpack: true, .. } => "unpack",
            Payload::EagerSend { .. } => "eager-send",
            Payload::Rndv { phase, .. } => phase.label(),
            Payload::RdmaPost { .. } => "rdma-post",
            Payload::Deliver { .. } => "deliver",
            Payload::WireTransfer { .. } => "wire",
            Payload::HopTransfer { .. } => "hop",
            Payload::SyncWait { kind } => kind.label(),
            Payload::BucketCharge { label, .. } => label,
            Payload::Marker { label } => label,
            Payload::ClampedEvent { .. } => "past-event-clamp",
            Payload::QueueHealth { .. } => "queue-health",
            Payload::LayoutCacheHealth { .. } => "layout-cache-health",
            Payload::ShardBarrier => "shard-barrier",
            Payload::SweepCell { .. } => "sweep-cell",
            Payload::FaultInjected { .. } => "fault-injected",
            Payload::Retry { .. } => "retry",
            Payload::Degraded { .. } => "degraded",
            Payload::HopDown { .. } => "hop-down",
            Payload::Rerouted { .. } => "rerouted",
            Payload::RailFailover { .. } => "rail-failover",
        }
    }

    /// Perfetto category, used for filtering in the UI.
    pub fn category(&self) -> &'static str {
        match self {
            Payload::KernelExec { .. }
            | Payload::FusedExec { .. }
            | Payload::KernelLaunch { .. }
            | Payload::Memcpy { .. } => "gpu",
            Payload::Enqueue { .. }
            | Payload::EnqueueRejected { .. }
            | Payload::FlushDecision { .. }
            | Payload::ThresholdAdjust { .. }
            | Payload::Query { .. }
            | Payload::Retire { .. } => "sched",
            Payload::PackSpan { .. } => "pack",
            Payload::EagerSend { .. }
            | Payload::Rndv { .. }
            | Payload::RdmaPost { .. }
            | Payload::Deliver { .. }
            | Payload::WireTransfer { .. }
            | Payload::HopTransfer { .. } => "net",
            Payload::SyncWait { .. } => "sync",
            Payload::BucketCharge { .. } => "bucket",
            Payload::Marker { .. } => "marker",
            Payload::ClampedEvent { .. }
            | Payload::QueueHealth { .. }
            | Payload::LayoutCacheHealth { .. }
            | Payload::ShardBarrier => "sim",
            Payload::SweepCell { .. } => "sweep",
            Payload::FaultInjected { .. }
            | Payload::Retry { .. }
            | Payload::Degraded { .. }
            | Payload::HopDown { .. }
            | Payload::Rerouted { .. }
            | Payload::RailFailover { .. } => "fault",
        }
    }

    /// Structured args for the Chrome exporter.
    pub fn args(&self) -> Vec<(&'static str, ArgValue)> {
        match *self {
            Payload::KernelExec { bytes, blocks } => vec![
                ("bytes", ArgValue::U64(bytes)),
                ("blocks", ArgValue::U64(blocks)),
            ],
            Payload::FusedExec {
                requests,
                bytes,
                reason,
            } => vec![
                ("requests", ArgValue::U64(requests as u64)),
                ("bytes", ArgValue::U64(bytes)),
                ("reason", ArgValue::Str(reason.label())),
            ],
            Payload::KernelLaunch { fused } => vec![("fused", ArgValue::Bool(fused))],
            Payload::Memcpy { bytes, .. } => vec![("bytes", ArgValue::U64(bytes))],
            Payload::Enqueue {
                uid,
                bytes,
                ring_occupancy,
            } => vec![
                ("uid", ArgValue::U64(uid)),
                ("bytes", ArgValue::U64(bytes)),
                ("ring_occupancy", ArgValue::U64(ring_occupancy as u64)),
            ],
            Payload::EnqueueRejected { bytes } => vec![("bytes", ArgValue::U64(bytes))],
            Payload::FlushDecision {
                reason,
                requests,
                bytes,
            } => vec![
                ("reason", ArgValue::Str(reason.label())),
                ("requests", ArgValue::U64(requests as u64)),
                ("bytes", ArgValue::U64(bytes)),
            ],
            Payload::ThresholdAdjust {
                old_bytes,
                new_bytes,
            } => vec![
                ("old_bytes", ArgValue::U64(old_bytes)),
                ("new_bytes", ArgValue::U64(new_bytes)),
            ],
            Payload::Query { uid, ready } => vec![
                ("uid", ArgValue::U64(uid)),
                ("ready", ArgValue::Bool(ready)),
            ],
            Payload::Retire {
                uid,
                ring_occupancy,
            } => vec![
                ("uid", ArgValue::U64(uid)),
                ("ring_occupancy", ArgValue::U64(ring_occupancy as u64)),
            ],
            Payload::PackSpan { uid, bytes, unpack } => vec![
                ("uid", ArgValue::U64(uid)),
                ("bytes", ArgValue::U64(bytes)),
                ("unpack", ArgValue::Bool(unpack)),
            ],
            Payload::EagerSend { peer, tag, bytes } => vec![
                ("peer", ArgValue::U64(peer as u64)),
                ("tag", ArgValue::U64(tag as u64)),
                ("bytes", ArgValue::U64(bytes)),
            ],
            Payload::Rndv {
                peer, tag, bytes, ..
            } => vec![
                ("peer", ArgValue::U64(peer as u64)),
                ("tag", ArgValue::U64(tag as u64)),
                ("bytes", ArgValue::U64(bytes)),
            ],
            Payload::RdmaPost { bytes, gdr } => vec![
                ("bytes", ArgValue::U64(bytes)),
                ("gdr", ArgValue::Bool(gdr)),
            ],
            Payload::Deliver { peer, tag, bytes } => vec![
                ("peer", ArgValue::U64(peer as u64)),
                ("tag", ArgValue::U64(tag as u64)),
                ("bytes", ArgValue::U64(bytes)),
            ],
            Payload::WireTransfer { bytes } => vec![("bytes", ArgValue::U64(bytes))],
            Payload::HopTransfer { hop, bytes } => vec![
                ("hop", ArgValue::U64(hop as u64)),
                ("bytes", ArgValue::U64(bytes)),
            ],
            Payload::SyncWait { kind } => vec![("kind", ArgValue::Str(kind.label()))],
            Payload::BucketCharge { bucket, .. } => {
                vec![("bucket", ArgValue::Str(bucket.label()))]
            }
            Payload::Marker { .. } | Payload::ShardBarrier => vec![],
            Payload::ClampedEvent { skew_ns } => vec![("skew_ns", ArgValue::U64(skew_ns))],
            Payload::QueueHealth {
                event_slab_high_water,
                wire_slab_high_water,
                overflow_hits,
                slots_drained,
                events,
            } => vec![
                (
                    "event_slab_high_water",
                    ArgValue::U64(event_slab_high_water as u64),
                ),
                (
                    "wire_slab_high_water",
                    ArgValue::U64(wire_slab_high_water as u64),
                ),
                ("overflow_hits", ArgValue::U64(overflow_hits)),
                ("slots_drained", ArgValue::U64(slots_drained)),
                (
                    "events_per_tick",
                    ArgValue::F64(if slots_drained == 0 {
                        0.0
                    } else {
                        events as f64 / slots_drained as f64
                    }),
                ),
            ],
            Payload::LayoutCacheHealth {
                hits,
                misses,
                resident_bytes,
            } => vec![
                ("hits", ArgValue::U64(hits)),
                ("misses", ArgValue::U64(misses)),
                ("resident_bytes", ArgValue::U64(resident_bytes)),
            ],
            Payload::SweepCell { index, worker } => vec![
                ("index", ArgValue::U64(index)),
                ("worker", ArgValue::U64(worker as u64)),
            ],
            Payload::FaultInjected { site } => vec![("site", ArgValue::Str(site.label()))],
            Payload::Retry {
                site,
                attempt,
                backoff_ns,
            } => vec![
                ("site", ArgValue::Str(site.label())),
                ("attempt", ArgValue::U64(attempt as u64)),
                ("backoff_ns", ArgValue::U64(backoff_ns)),
            ],
            Payload::Degraded { site, action } => vec![
                ("site", ArgValue::Str(site.label())),
                ("action", ArgValue::Str(action)),
            ],
            Payload::HopDown { hop } => vec![("hop", ArgValue::U64(hop as u64))],
            Payload::Rerouted { src, dst } => vec![
                ("src", ArgValue::U64(src as u64)),
                ("dst", ArgValue::U64(dst as u64)),
            ],
            Payload::RailFailover { hop } => vec![("hop", ArgValue::U64(hop as u64))],
        }
    }
}

/// A typed argument value for trace export.
#[derive(Debug, Clone, PartialEq)]
pub enum ArgValue {
    U64(u64),
    F64(f64),
    Bool(bool),
    Str(&'static str),
}

/// Identifier of an open span returned by [`crate::Telemetry::open`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpanId(pub u64);

/// One recorded timeline entry. `dur == None` means an instant.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    pub rank: u32,
    pub lane: Lane,
    pub start: Time,
    pub dur: Option<Duration>,
    pub payload: Payload,
}

impl Event {
    pub fn end(&self) -> Time {
        match self.dur {
            Some(d) => self.start + d,
            None => self.start,
        }
    }
}

/// A sampled counter value (ring occupancy, queue depth, ...).
#[derive(Debug, Clone, PartialEq)]
pub struct CounterSample {
    pub rank: u32,
    pub at: Time,
    pub name: &'static str,
    pub value: f64,
}
