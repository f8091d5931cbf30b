//! Per-rank runtime state.

use crate::breakdown::Breakdown;
use crate::cluster::RankId;
use crate::lifecycle::{RequeueLadder, Stage};
use crate::message::WireMsg;
use crate::program::{Program, TypeSlot};
use crate::sendrecv::{PackState, RecvOp, SendOp};
use fusedpack_core::{Scheduler, Uid};
use fusedpack_datatype::{CompiledLayout, LayoutCache, LayoutTable};
use fusedpack_gpu::DevPtr;
use fusedpack_sim::{Duration, IntMap, Time};
use fusedpack_telemetry::{SpanId, Telemetry, WaitKindTag};
use std::sync::Arc;

/// One request of the fused kernel: the three operation kinds that share
/// the fusion ring (§IV-A2). It names the operation a fusion UID belongs
/// to, and an operation parked by the ring-exhaustion backpressure ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FusedOp {
    /// Pack of send index `.0`.
    Pack(usize),
    /// Unpack of recv index `.0`.
    Unpack(usize),
    /// DirectIPC load for recv index `rid` (origin: sender's device
    /// address advertised in the RTS).
    DirectIpc { rid: usize, origin: u64 },
}

/// One rank's full runtime state: its program cursor, virtual CPU clock,
/// MPI request lists, matching queues, scheme state, and accounting.
pub(crate) struct RankState {
    pub id: RankId,
    pub node: u32,
    pub program: Program,
    pub pc: usize,
    /// The host thread's clock: when the CPU next becomes free. Every MPI
    /// call, kernel launch, and scheduler action advances it — one thread
    /// runs application, progress engine, and scheduler, the deployment
    /// the paper evaluates (§IV-A2).
    pub cpu: Time,
    pub blocked: bool,
    pub done: bool,
    /// Buffer id → device pointer in the rank's user pool.
    pub bufs: Vec<DevPtr>,
    /// Type slot → committed compiled layout (`None`: never committed).
    /// Each message resolves its layout through [`RankState::layout`]
    /// (cost-free, counts a cache hit).
    pub types: Vec<Option<Arc<CompiledLayout>>>,
    /// This rank's modelled layout cache; it interns through the
    /// cluster's shared [`LayoutTable`].
    pub ddt_cache: LayoutCache,
    pub sends: Vec<SendOp>,
    pub recvs: Vec<RecvOp>,
    /// Unexpected-message queue (RTS/eager that arrived before the recv).
    pub unexpected: Vec<WireMsg>,
    /// Fusion UID → owning operation.
    pub uid_map: IntMap<Uid, FusedOp>,
    /// Operations refused by a full request ring, re-enqueued in FIFO order
    /// as retirements free slots (the backpressure ladder).
    pub fusion_requeue: RequeueLadder<FusedOp>,
    /// Fusion scheduler — installed by the engine's `make_scheduler` hook,
    /// so it exists exactly for the fusion schemes (`Fusion` and
    /// `FusionAdaptive`) and is `None` for every other design.
    pub sched: Option<Scheduler>,
    /// Round-robin stream cursor for the GPU-Async scheme.
    pub next_stream: u32,
    /// Completion horizon of application-launched kernels (Algorithm 2's
    /// `DeviceSync` waits for this).
    pub app_kernels_done: Time,
    pub breakdown: Breakdown,
    pub laps: Vec<Duration>,
    pub lap_start: Time,
    /// Breakdown snapshot at the last `ResetTimer` (for per-lap deltas).
    pub breakdown_at_reset: Breakdown,
    /// Per-lap breakdown deltas, aligned with `laps`.
    pub lap_breakdowns: Vec<Breakdown>,
    /// Anchor for attributing blocked-wait intervals.
    pub wait_anchor: Time,
    /// Telemetry handle tagged with this rank.
    pub tele: Telemetry,
    /// Open `SyncWait` span while blocked in Waitall.
    pub wait_span: Option<SpanId>,
    /// Next canonical event-key counter for events this rank originates.
    /// Keys are `(rank << 42) | counter`, giving every cluster event a
    /// globally unique, mode-independent tiebreaker (see
    /// [`super::Cluster::next_key`]).
    pub key_counter: u64,
    /// This rank's term of the run-end conservation check: completed
    /// sends add, deliveries subtract, each keyed by its directed pair
    /// (see the `accounting` module).
    pub conservation: u64,
}

impl RankState {
    pub fn new(id: RankId, node: u32, program: Program, layouts: Arc<LayoutTable>) -> Self {
        // Lap records are sized from the program, so a run never grows
        // them one lap at a time.
        let laps = program.lap_count();
        RankState {
            id,
            node,
            program,
            pc: 0,
            cpu: Time::ZERO,
            blocked: false,
            done: false,
            bufs: Vec::new(),
            types: Vec::new(),
            ddt_cache: LayoutCache::with_table(layouts),
            sends: Vec::new(),
            recvs: Vec::new(),
            unexpected: Vec::new(),
            uid_map: IntMap::default(),
            fusion_requeue: RequeueLadder::new(),
            sched: None,
            next_stream: 0,
            app_kernels_done: Time::ZERO,
            breakdown: Breakdown::default(),
            laps: Vec::with_capacity(laps),
            lap_start: Time::ZERO,
            breakdown_at_reset: Breakdown::default(),
            lap_breakdowns: Vec::with_capacity(laps),
            wait_anchor: Time::ZERO,
            tele: Telemetry::disabled(),
            wait_span: None,
            key_counter: 0,
            conservation: 0,
        }
    }

    /// The compiled layout committed to `slot`, acquired for one message.
    ///
    /// Panics if the program never committed that slot.
    pub fn layout(&mut self, slot: TypeSlot) -> Arc<CompiledLayout> {
        let layout = self
            .types
            .get(slot.0)
            .and_then(Option::as_ref)
            .unwrap_or_else(|| panic!("uncommitted type slot {} on rank {}", slot.0, self.id.0));
        self.ddt_cache.acquire(layout)
    }

    /// Are all outstanding requests finished (Waitall condition)?
    pub fn all_requests_complete(&self) -> bool {
        self.sends.iter().all(|s| s.lifecycle.is_done())
            && self.recvs.iter().all(|r| r.is_complete())
    }

    /// Classify what a blocked rank is waiting on *right now*.
    pub fn classify_wait(&self) -> WaitKindTag {
        let kernel_in_flight = self
            .sends
            .iter()
            .any(|s| !s.lifecycle.is_done() && s.lifecycle.pack() == PackState::InFlight)
            || self.recvs.iter().any(|r| {
                r.lifecycle.stage() == Stage::Active && r.lifecycle.pack() == PackState::InFlight
            });
        if kernel_in_flight {
            WaitKindTag::LocalKernel
        } else {
            WaitKindTag::Network
        }
    }

    /// Take the blocked interval since the last anchor (classified at the
    /// current instant), then move the anchor to `up_to`. The caller
    /// ([`super::Cluster::account_wait`]) charges the breakdown bucket so
    /// the charge also lands in telemetry.
    pub fn take_wait(&mut self, up_to: Time) -> Option<(WaitKindTag, Duration)> {
        let taken = if self.blocked && up_to > self.wait_anchor {
            Some((self.classify_wait(), up_to.since(self.wait_anchor)))
        } else {
            None
        };
        self.wait_anchor = self.wait_anchor.max(up_to);
        taken
    }

    /// Are any receives still waiting for their payload to arrive? (Used by
    /// the fusion scheduler's receiver-side linger policy.)
    pub fn recvs_awaiting_data(&self) -> bool {
        self.recvs.iter().any(|r| r.lifecycle.pre_data())
    }
}
