//! The simulated cluster: ranks, GPUs, NICs, and the deterministic event
//! loop that drives them.
//!
//! Construction goes through [`ClusterBuilder`]: pick a platform
//! (Table II), a datatype-processing scheme, add one program per rank, and
//! `build()`. [`Cluster::run`] executes every program to completion and
//! returns a [`RunReport`] with per-rank lap times, Fig.-11 breakdowns, and
//! scheduler statistics.

mod accounting;
mod copy;
mod exec;
mod fill;
mod handoff;
mod protocol;
mod rank;
pub(crate) mod schemes;
mod topo;

use crate::message::{WireKind, WireMsg};
use crate::program::Program;
use crate::scheme::SchemeKind;
use crate::sendrecv::{RecvId, SendId};
use fusedpack_core::{SchedStats, Scheduler, Uid};
use fusedpack_datatype::{CompiledLayout, LayoutTable, TypeDesc};
use fusedpack_gpu::{DataMode, Gpu, MemPool};
use fusedpack_net::platform::Platform;
use fusedpack_net::topology::{validate_endpoint, Endpoint};
use fusedpack_net::{FabricHealth, FlatLink, Nic, TopoNet, TopologyHandle};
use fusedpack_sim::{
    ClampStats, Duration, EventQueue, FaultPlan, FaultSite, FaultSummary, Slab, Time, WheelStats,
};
use fusedpack_telemetry::{Lane, Payload, Telemetry};
use std::collections::HashMap;
use std::sync::Arc;

pub(crate) use copy::CopyQueue;
pub use copy::{CopyStats, LaneStats, PayloadHandle};
use fill::RankFill;
pub(crate) use rank::RankState;
pub(crate) use schemes::SchemeEngine;

/// Bit position of the originating rank in a canonical event key: the low
/// 42 bits count events the rank originated, the high bits name the rank.
/// Keys are globally unique and drawn in each rank's program order, so
/// they break ties between same-time events the same way on every run and
/// key the fault draws (see [`Cluster::next_key`]).
pub(crate) const KEY_RANK_SHIFT: u32 = 42;

/// Rendezvous sub-protocol for large messages (§IV-B1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RndvProtocol {
    /// Sender RDMA-WRITEs after receiving a CTS; the RTS can overlap with
    /// packing — the sub-protocol the paper's design prefers (default).
    #[default]
    Rput,
    /// Sender announces packed data with the RTS; the receiver pulls it
    /// with an RDMA READ. No handshake/packing overlap.
    Rget,
}

/// A rank (one process driving one GPU).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RankId(pub u32);

/// Internal simulation events.
#[derive(Debug)]
pub(crate) enum Event {
    /// (Re)start executing a rank's program.
    Wake(RankId),
    /// An asynchronous pack (kernel or staged copies) finished on the
    /// sender.
    PackDone(RankId, SendId),
    /// An asynchronous unpack finished on the receiver.
    UnpackDone(RankId, RecvId),
    /// A fused-kernel cooperative group signalled one request's completion.
    FusionDone(RankId, Uid),
    /// A wire message reached its destination. The key indexes
    /// [`Cluster::wire_slab`]: in-flight messages live in a slab and the
    /// event carries a `u32` instead of a boxed node, so steady-state
    /// traffic recycles message storage without touching the allocator.
    Deliver(u32),
    /// The initiator-side completion (CQE) of an RDMA write.
    SendComplete(RankId, SendId),
}

/// Builder for a simulated cluster run.
pub struct ClusterBuilder {
    platform: Platform,
    scheme: SchemeKind,
    data_mode: DataMode,
    gdrcopy: bool,
    telemetry: Option<Telemetry>,
    rndv: RndvProtocol,
    faults: Option<FaultPlan>,
    topology: Option<TopologyHandle>,
    ranks: Vec<(u32, Program)>,
    /// The cluster's one layout table, shared by every rank's cache.
    layout_table: Arc<LayoutTable>,
}

impl ClusterBuilder {
    pub fn new(platform: Platform, scheme: SchemeKind) -> Self {
        ClusterBuilder {
            platform,
            scheme,
            data_mode: DataMode::Full,
            gdrcopy: true,
            telemetry: None,
            rndv: RndvProtocol::default(),
            faults: None,
            topology: None,
            ranks: Vec::new(),
            layout_table: Arc::default(),
        }
    }

    /// Accepted and ignored: every run drains one event queue. It stays
    /// only because the `fpbench` benchmark package compiles against it
    /// and changes only with the benchmark.
    pub fn shards(self, _n: u32) -> Self {
        self
    }

    /// Route every transfer through `topo`: each send resolves a hop
    /// sequence and occupies every hop on it ([`fusedpack_net::TopoNet`]).
    /// Without this call the cluster runs on
    /// [`FlatLink::for_platform`] — one crossbar hop per node and one
    /// outbound wire hop per node, built from the platform's link
    /// constants.
    pub fn topology(mut self, topo: TopologyHandle) -> Self {
        self.topology = Some(topo);
        self
    }

    /// Select the rendezvous sub-protocol (default: RPUT, which lets the
    /// handshake overlap with packing).
    pub fn rendezvous(mut self, rndv: RndvProtocol) -> Self {
        self.rndv = rndv;
        self
    }

    /// Arm deterministic fault injection: every decision the plan makes is
    /// drawn from its own seeded streams, so the same plan over the same
    /// programs reproduces the same faults. A plan whose every site has
    /// probability zero leaves the run bit-identical to a fault-free one.
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Attach an external telemetry recorder: every layer of the stack
    /// (scheduler, GPUs, NICs, protocol engine, accounting) records typed
    /// events into it.
    pub fn telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = Some(telemetry);
        self
    }

    /// Simulate a system without the GDRCopy kernel module (the paper notes
    /// it "may not be available in all HPC systems"): the hybrid/adaptive
    /// schemes must fall back to GPU kernels for every message.
    pub fn without_gdrcopy(mut self) -> Self {
        self.gdrcopy = false;
        self
    }

    /// Select whether buffers carry real bytes (`Full`, default: tests) or
    /// only timing is simulated (`ModelOnly`: benchmark sweeps).
    pub fn data_mode(mut self, mode: DataMode) -> Self {
        self.data_mode = mode;
        self
    }

    /// Hand the cluster types compiled before it was built: a rank that
    /// commits one of these descriptors, or an equal tree, reuses its
    /// layout. Modelled costs and counters stay as they are; only
    /// [`RunReport::layout_compiles`], the host compiles, drops.
    pub fn layouts(
        self,
        compiled: impl IntoIterator<Item = (Arc<TypeDesc>, Arc<CompiledLayout>)>,
    ) -> Self {
        for (desc, layout) in compiled {
            self.layout_table.insert(&desc, &layout);
        }
        self
    }

    /// Add a rank running `program` on `node`.
    pub fn add_rank(mut self, node: u32, program: Program) -> Self {
        self.ranks.push((node, program));
        self
    }

    /// Instantiate the cluster: allocate GPU/host pools sized from the
    /// programs' declarations, initialize buffers, and seed the event loop.
    ///
    /// The build runs in two phases. The calling thread first makes every
    /// allocation: each rank's GPU, its state, and one reservation of its
    /// pool's backing for all of its declared buffers
    /// ([`MemPool::reserve_for`]). Then every declared buffer is
    /// initialised, random bytes from `Pcg32::new(seed, rank)` and zero
    /// buffers zero-filled, with the ranks split into contiguous chunks of
    /// about equal declared bytes, one chunk per core that
    /// [`std::thread::available_parallelism`] reports: the calling thread
    /// fills the first chunk and scoped threads the others. The fill
    /// threads allocate nothing, and each rank's bytes depend only on its
    /// seeds and its index, so every split writes the same bytes. A
    /// `ModelOnly` build, or one that declares less than 1 MiB per extra
    /// thread, starts no thread.
    pub fn build(self) -> Cluster {
        assert!(!self.ranks.is_empty(), "need at least one rank");
        let num_nodes = self.ranks.iter().map(|&(n, _)| n).max().expect("ranks") + 1;
        let telemetry = self.telemetry.unwrap_or_else(Telemetry::disabled);
        // The single construction-time dispatch: scheme → strategy object.
        let engine = crate::registry::engine_for(&self.scheme, &self.platform);

        let mut ranks = Vec::new();
        let mut gpus = Vec::new();
        let mut staging_mems = Vec::new();
        let mut host_mems = Vec::new();
        // Each rank occupies the next GPU slot on its node, in add order.
        let mut endpoints = Vec::new();
        let mut node_slots: HashMap<u32, u32> = HashMap::new();
        let layout_table = self.layout_table;

        for (idx, (node, program)) in self.ranks.into_iter().enumerate() {
            let slot = node_slots.entry(node).or_insert(0);
            endpoints.push(Endpoint::new(node, *slot));
            *slot += 1;
            let user_bytes: u64 = program.buffers.iter().map(|b| b.len + 256).sum::<u64>() + 4096;
            // Staging address-space bound: every comm op may need a packed
            // buffer simultaneously within one Waitall epoch; programs
            // over-declare via their buffer sizes, so size generously.
            let staging_bytes = 2 * user_bytes + (1 << 20);

            let mut gpu = self.platform.make_gpu(user_bytes, self.data_mode);
            if !self.gdrcopy {
                gpu.gdr = fusedpack_gpu::GdrWindow::unavailable();
            }
            let mut rank =
                RankState::new(RankId(idx as u32), node, program, Arc::clone(&layout_table));
            // Reserve every buffer's backing in one allocation, and room
            // for its address; the fill below allocates nothing.
            gpu.mem
                .reserve_for(rank.program.buffers.iter().map(|decl| decl.len), 64);
            rank.bufs.reserve_exact(rank.program.buffers.len());
            let tele_r = telemetry.for_rank(idx as u32);
            gpu.set_telemetry(tele_r.clone());
            if let Some(sched) = engine.make_scheduler(&gpu, tele_r.clone()) {
                rank.sched = Some(sched);
            }
            rank.tele = tele_r;
            ranks.push(rank);
            gpus.push(gpu);
            // Staging pools are address allocators in either data mode:
            // packed bytes travel in payloads the copy engine holds (see
            // the `copy` module), so the pools back nothing.
            staging_mems.push(MemPool::new(staging_bytes, DataMode::ModelOnly));
            host_mems.push(MemPool::new(staging_bytes, DataMode::ModelOnly));
        }

        // Initialise every declared buffer, on every core (the `fill`
        // module).
        let mut fills: Vec<RankFill<'_>> = ranks
            .iter_mut()
            .zip(&mut gpus)
            .enumerate()
            .map(|(idx, (rank, gpu))| RankFill {
                rank: idx as u64,
                mem: &mut gpu.mem,
                decls: &rank.program.buffers,
                bufs: &mut rank.bufs,
            })
            .collect();
        let threads = fill::fill_threads(self.data_mode, &fills);
        fill::fill(&mut fills, threads);

        // NIC events are tagged with the lowest rank on the NIC's node so
        // they appear under that rank's process in the Perfetto view.
        let nics: Vec<Nic> = (0..num_nodes)
            .map(|node| {
                let mut nic = self.platform.make_nic();
                let owner = ranks
                    .iter()
                    .position(|r| r.node == node)
                    .unwrap_or(node as usize) as u32;
                nic.set_telemetry(telemetry.for_rank(owner));
                nic
            })
            .collect();
        let mut events = EventQueue::new();
        for (r, rank) in ranks.iter_mut().enumerate() {
            // The seed Wake is the rank's first canonical key draw.
            let key = (r as u64) << KEY_RANK_SHIFT;
            rank.key_counter = 1;
            events.push_at_key(Time::ZERO, key, Event::Wake(RankId(r as u32)));
        }

        // A misconfigured topology (too few nodes, more ranks on a node
        // than its island holds) is a build-time error, not a runtime
        // fault: fail loudly with the typed error's message.
        let faults = self.faults;
        let topo = self
            .topology
            .unwrap_or_else(|| Arc::new(FlatLink::for_platform(&self.platform, num_nodes)));
        for &ep in &endpoints {
            if let Err(e) = validate_endpoint(topo.as_ref(), ep) {
                panic!("cluster does not fit topology '{}': {e}", topo.name());
            }
        }
        let mut net = TopoNet::new(topo);
        // Arm the fabric fault domain when the plan carries per-hop
        // sites. Flat topologies have no path diversity (nothing to
        // reroute around), so their single wire stays fault-free at the
        // hop level — the link-scoped sites still apply.
        if let Some(plan) = faults.as_ref() {
            if plan.is_fabric_armed() && !net.topology().is_flat() {
                net.arm_faults(plan.clone());
            }
        }

        Cluster {
            platform: self.platform,
            engine,
            data_mode: self.data_mode,
            events,
            ranks,
            gpus,
            staging_mems,
            host_mems,
            nics,
            rndv: self.rndv,
            topo: net,
            endpoints,
            copies: CopyQueue::default(),
            wire_slab: Slab::new(),
            telemetry,
            faults,
            fault_stats: FaultSummary::default(),
            layout_table,
        }
    }
}

/// The running cluster.
pub struct Cluster {
    pub(crate) platform: Platform,
    /// The data-plane strategy object for the selected scheme (the only
    /// remnant of the `SchemeKind` the cluster was built with).
    pub(crate) engine: Arc<dyn SchemeEngine>,
    pub(crate) data_mode: DataMode,
    pub(crate) events: EventQueue<Event>,
    /// Per-rank state, indexed by rank id.
    pub(crate) ranks: Vec<RankState>,
    pub(crate) gpus: Vec<Gpu>,
    /// Device staging address spaces, reset at each Waitall exit. They
    /// hand out the addresses a CTS advertises and enforce the capacity;
    /// they hold no bytes.
    pub(crate) staging_mems: Vec<MemPool>,
    /// Host staging address spaces (hybrid CPU path, naive libraries),
    /// reset with the device ones.
    pub(crate) host_mems: Vec<MemPool>,
    /// One NIC per node, indexed by node id.
    pub(crate) nics: Vec<Nic>,
    /// Rendezvous sub-protocol.
    pub(crate) rndv: RndvProtocol,
    /// Live network state every transfer crosses.
    pub(crate) topo: TopoNet,
    /// Per-rank (node, gpu-slot) endpoints, validated against the
    /// topology at build time.
    pub(crate) endpoints: Vec<Endpoint>,
    /// The event loop's side of the copy engine, which owns every byte a
    /// `Full` run moves: jobs go through it, and it hands out the payload
    /// handles the protocol carries (see the `copy` module).
    pub(crate) copies: CopyQueue,
    /// In-flight wire messages, keyed by the `u32` inside
    /// [`Event::Deliver`]; recycled indices keep per-message storage off
    /// the global allocator.
    pub(crate) wire_slab: Slab<WireMsg>,
    /// Root telemetry handle (disabled unless the builder attached one).
    pub(crate) telemetry: Telemetry,
    /// Deterministic fault plan (None: the hot paths take a single
    /// untaken-branch hit and behave bit-identically to the pre-fault code).
    pub(crate) faults: Option<FaultPlan>,
    /// Injection/recovery accounting for the final [`RunReport`].
    pub(crate) fault_stats: FaultSummary,
    /// The compile-once layout table every rank's cache shares.
    pub(crate) layout_table: Arc<LayoutTable>,
}

/// Results of a completed run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Lap durations recorded by each rank (`RecordLap` ops).
    pub laps: Vec<Vec<Duration>>,
    /// Per-rank Fig.-11 cost buckets (cumulative over the whole run).
    pub breakdowns: Vec<crate::breakdown::Breakdown>,
    /// Per-rank, per-lap breakdown deltas (aligned with `laps`).
    pub lap_breakdowns: Vec<Vec<crate::breakdown::Breakdown>>,
    /// Fusion scheduler statistics per rank (None for other schemes).
    pub sched_stats: Vec<Option<SchedStats>>,
    /// Kernel launches per rank's GPU.
    pub kernels_launched: Vec<u64>,
    /// Virtual end time of the whole run.
    pub end_time: Time,
    /// Events processed (diagnostics).
    pub events_processed: u64,
    /// Release-mode past-event clamps in the event queue (a determinism
    /// hazard; always zero in debug builds, which panic instead).
    pub event_clamps: ClampStats,
    /// Event-queue timing-wheel health: overflow-bucket hits, cascades,
    /// slots drained (`events_processed / slots_drained` ≈ events per
    /// wheel tick), and the event slab's occupancy high-water mark.
    pub wheel: WheelStats,
    /// Peak simultaneously in-flight wire messages in the message slab —
    /// allocator churn under sustained load is `high_water ×
    /// size_of::<WireMsg>()`, not one heap node per message.
    pub wire_high_water: u32,
    /// Fault-injection and recovery accounting. All-zero (`is_clean`) on
    /// fault-free runs with no ring backpressure.
    pub fault_summary: FaultSummary,
    /// Fabric-level fault-domain accounting (per-hop injections, health
    /// transitions, reroutes, rail failovers, forced deliveries). All-zero
    /// unless the fabric's fault domain is armed.
    pub fabric: FabricHealth,
    /// Always `shards: 1` and zero elsewhere: every run drains one event
    /// queue. The field stays only because the `fpbench` benchmark
    /// package reads it and changes only with the benchmark.
    pub shard: ShardStats,
    /// Layout-compiler cache health, aggregated over every rank's cache:
    /// commit/acquire hit counts, first-commit misses, and resident
    /// compiled-plan bytes. Acquires are cost-free in virtual time, so
    /// these counters never perturb timing — they report how much flatten
    /// work the cache amortized.
    pub layout_cache: fusedpack_datatype::LayoutCacheStats,
    /// Host compiles behind those caches: `CompiledLayout::of` calls made
    /// by the cluster's shared layout table, one per distinct committed
    /// descriptor that [`ClusterBuilder::layouts`] did not hand it
    /// compiled. Unlike `layout_cache.misses()`, which the model counts
    /// per rank, this is real host work; no report renders it.
    pub layout_compiles: u64,
    /// Copy-engine work: jobs run by kind (all zero in timing-only
    /// runs), the engine's busy host time, and the time the event loop
    /// waited for room in its job queue.
    pub copy: CopyStats,
}

/// Event-loop shard counters. Every run drains one event queue, so every
/// run reports one shard and zero barriers, transfers and wall-clock time.
/// The type stays only for [`RunReport::shard`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardStats {
    pub shards: u32,
    pub barriers: u64,
    pub admitted_msgs: u64,
    pub deferred_transmits: u64,
    pub barrier_wall_ns: u64,
    pub stall_wall_ns: u64,
}

impl RunReport {
    /// Max lap `i` across ranks — the iteration's makespan, the paper's
    /// reported latency.
    pub fn lap_makespan(&self, i: usize) -> Duration {
        self.laps
            .iter()
            .filter_map(|laps| laps.get(i).copied())
            .max()
            .unwrap_or(Duration::ZERO)
    }

    /// Number of laps recorded by every rank.
    pub fn lap_count(&self) -> usize {
        self.laps.iter().map(|l| l.len()).min().unwrap_or(0)
    }

    /// Makespan of the final lap (warm caches) — the headline number.
    pub fn final_lap(&self) -> Duration {
        let n = self.lap_count();
        if n == 0 {
            Duration::ZERO
        } else {
            self.lap_makespan(n - 1)
        }
    }
}

impl Cluster {
    /// Run every rank's program to completion on the event queue.
    pub fn run(&mut self) -> RunReport {
        self.with_copy_worker(|cl| {
            cl.drain_queue();
            cl.recycle_unexpected();
        });
        self.finish_report()
    }

    /// The event loop: dispatch every event in (time, key) order. Stops
    /// early only when the copy worker has stopped, whose panic the caller
    /// re-raises.
    fn drain_queue(&mut self) {
        let mut clamps_seen = self.events.clamp_stats();
        while let Some((t, ev)) = self.events.pop() {
            self.dispatch(t, ev);
            if !self.copies.running() {
                return;
            }
            // Surface any past-event clamp the dispatch just caused: it
            // rewrote a computed timestamp, which deserves a visible mark
            // on the timeline, not a silent repair.
            let clamps_now = self.events.clamp_stats();
            if clamps_now.count > clamps_seen.count {
                let skew = clamps_now.total_skew - clamps_seen.total_skew;
                self.telemetry
                    .instant(Lane::Host, self.events.now(), || Payload::ClampedEvent {
                        skew_ns: skew.as_nanos(),
                    });
                clamps_seen = clamps_now;
            }
        }
    }

    /// A message no receive ever matched (an erroneous program, not a
    /// leak) still holds its payload: recycle it, before the copy engine
    /// stops. An unmatched eager message's send completed, and its bytes
    /// did reach the destination: count them as delivered there.
    fn recycle_unexpected(&mut self) {
        for rank in self.ranks.iter_mut() {
            for msg in std::mem::take(&mut rank.unexpected) {
                if let WireKind::Eager { packed_bytes, .. } = msg.kind {
                    rank.count_delivered(msg.src, packed_bytes);
                }
                self.copies.recycle(msg.payload);
            }
        }
    }

    /// Post-run assertions, the end-of-run health snapshot, and report
    /// assembly.
    fn finish_report(&mut self) -> RunReport {
        let end_time = self.events.now();
        let events_processed = self.events.processed();
        let event_clamps = self.events.clamp_stats();
        let wheel = self.events.wheel_stats();
        let wire_high_water = self.wire_slab.high_water();
        // A clean chaos run must not clamp: fold the queue counter into the
        // fault summary so `FaultSummary::is_clean` covers timeline repairs.
        self.fault_stats.event_clamps += event_clamps.count;
        for rank in self.ranks.iter() {
            assert!(
                rank.done,
                "rank {:?} deadlocked at pc={} (blocked={})",
                rank.id, rank.pc, rank.blocked
            );
            assert!(
                rank.uid_map.is_empty() && rank.sched.as_ref().is_none_or(Scheduler::is_idle),
                "rank {:?} leaked fusion requests: {} uids mapped, {:?} ring slots live",
                rank.id,
                rank.uid_map.len(),
                rank.sched.as_ref().map(Scheduler::ring_occupied),
            );
        }
        // Every payload buffer the copy engines took went back: no
        // operation still owns one, no message is still on the wire, and
        // the pool takes balance the releases (summed over both lanes).
        for rank in self.ranks.iter() {
            assert!(
                rank.sends.iter().all(|s| s.payload.is_empty())
                    && rank.recvs.iter().all(|r| r.payload.is_empty()),
                "rank {:?} leaked payloads: an operation still owns one",
                rank.id,
            );
        }
        assert!(self.wire_slab.is_empty(), "wire messages leaked");
        // Conservation: per directed pair, the packed bytes of completed
        // sends equal the bytes delivered (see the `accounting` module).
        assert_eq!(
            self.conservation_imbalance(),
            0,
            "bytes not conserved: some rank pair's completed sends and deliveries differ"
        );
        let pool = self.staging_pool_stats();
        assert_eq!(
            pool.outstanding(),
            0,
            "payload buffers leaked from the pool: {pool:?}"
        );
        // One end-of-run health snapshot; free when telemetry is disabled
        // (the closure never runs).
        self.telemetry
            .instant(Lane::Host, end_time, || Payload::QueueHealth {
                event_slab_high_water: wheel.slab_high_water,
                wire_slab_high_water: wire_high_water,
                overflow_hits: wheel.overflow_hits,
                slots_drained: wheel.slots_drained,
                events: events_processed,
            });
        // Layout-compiler cache health, merged across ranks.
        let mut layout_cache = fusedpack_datatype::LayoutCacheStats::default();
        for rank in self.ranks.iter() {
            layout_cache.absorb(&rank.ddt_cache.layout_stats());
        }
        {
            let lc = &layout_cache;
            self.telemetry
                .instant(Lane::Host, end_time, || Payload::LayoutCacheHealth {
                    hits: lc.hits(),
                    misses: lc.misses(),
                    resident_bytes: lc.resident_bytes(),
                });
        }
        RunReport {
            laps: self
                .ranks
                .iter_mut()
                .map(|r| std::mem::take(&mut r.laps))
                .collect(),
            breakdowns: self.ranks.iter().map(|r| r.breakdown).collect(),
            lap_breakdowns: self
                .ranks
                .iter_mut()
                .map(|r| std::mem::take(&mut r.lap_breakdowns))
                .collect(),
            sched_stats: self
                .ranks
                .iter()
                .map(|r| r.sched.as_ref().map(|s| s.stats()))
                .collect(),
            kernels_launched: self.gpus.iter().map(|g| g.kernels_launched()).collect(),
            end_time,
            events_processed,
            event_clamps,
            wheel,
            wire_high_water,
            fault_summary: self.fault_stats,
            fabric: self.topo.fabric_health(),
            shard: ShardStats {
                shards: 1,
                ..ShardStats::default()
            },
            layout_cache,
            layout_compiles: self.layout_table.compiles(),
            copy: self.copies.stats(),
        }
    }

    /// Borrow a rank's buffer (empty in `ModelOnly` mode): the receive
    /// digest of the workload drivers reads it without a copy.
    pub fn rank_bytes(&self, rank: RankId, buf: crate::program::BufId) -> &[u8] {
        let ptr = self.ranks[rank.0 as usize].bufs[buf.0];
        self.gpus[rank.0 as usize].mem.read(ptr)
    }

    /// Copy out a rank's buffer (tests verify end-to-end transfers).
    pub fn rank_buffer(&self, rank: RankId, buf: crate::program::BufId) -> Vec<u8> {
        self.rank_bytes(rank, buf).to_vec()
    }

    fn dispatch(&mut self, t: Time, ev: Event) {
        match ev {
            Event::Wake(r) => self.step_rank(r.0 as usize, t),
            Event::PackDone(r, sid) => self.on_pack_done(r.0 as usize, sid, t),
            Event::UnpackDone(r, rid) => self.on_unpack_done(r.0 as usize, rid, t),
            Event::FusionDone(r, uid) => self.on_fusion_done(r.0 as usize, uid, t),
            Event::Deliver(key) => {
                let msg = self.wire_slab.remove(key);
                self.on_deliver(msg, t)
            }
            Event::SendComplete(r, sid) => self.on_send_complete(r.0 as usize, sid, t),
        }
    }

    /// Effective processing time for rank work arriving at wall time `t`.
    pub(crate) fn eff_now(&self, r: usize, t: Time) -> Time {
        t.max(self.ranks[r].cpu)
    }

    /// Draw the next canonical event key for an event rank `r`
    /// originates: `(rank << 42) | counter`, advancing the rank's
    /// counter. Each rank draws in its own program order, so a rank's
    /// keys do not depend on how its events interleave with other ranks'.
    /// The queue breaks same-time ties by key, and the fault plan keys its
    /// wire and hop draws by it.
    #[inline]
    pub(crate) fn next_key(&mut self, r: usize) -> u64 {
        let rank = &mut self.ranks[r];
        let c = rank.key_counter;
        rank.key_counter += 1;
        debug_assert!(c < 1 << KEY_RANK_SHIFT, "rank event counter overflow");
        ((rank.id.0 as u64) << KEY_RANK_SHIFT) | c
    }

    // ---- fault-injection hooks ------------------------------------------
    //
    // Every hook early-outs on `faults == None` (one untaken branch) and,
    // with a plan, on `probability <= 0` *before* drawing from the site's
    // RNG — which is what keeps no-plan and all-zero-plan runs bit-identical
    // to the pre-fault code (enforced by tests).

    /// Should a fault fire at `site` right now for rank `r`? Draws from
    /// the rank's own decision stream, counts the injection, and marks the
    /// rank's timeline when it fires.
    pub(crate) fn fault_fires(&mut self, r: usize, site: FaultSite, at: Time) -> bool {
        let Some(plan) = self.faults.as_mut() else {
            return false;
        };
        if !plan.fires(site, r as u32) {
            return false;
        }
        self.fault_stats.injected += 1;
        self.ranks[r]
            .tele
            .instant(Lane::Host, at, || Payload::FaultInjected { site });
        true
    }

    /// Draw the latency spike for a site that just fired for rank `r`.
    pub(crate) fn fault_spike(&mut self, r: usize, site: FaultSite) -> Duration {
        self.faults
            .as_mut()
            .map_or(Duration::ZERO, |plan| plan.spike(site, r as u32))
    }

    /// Record a retry decision (telemetry + counters).
    pub(crate) fn fault_retry(
        &mut self,
        r: usize,
        site: FaultSite,
        attempt: u32,
        backoff: Duration,
        at: Time,
    ) {
        self.fault_stats.retried += 1;
        let backoff_ns = backoff.as_nanos();
        self.ranks[r]
            .tele
            .instant(Lane::Host, at, || Payload::Retry {
                site,
                attempt,
                backoff_ns,
            });
    }

    /// Record a degradation-ladder step (telemetry + counters).
    pub(crate) fn fault_degraded(
        &mut self,
        r: usize,
        site: FaultSite,
        action: &'static str,
        at: Time,
    ) {
        self.fault_stats.degraded += 1;
        self.ranks[r]
            .tele
            .instant(Lane::Host, at, || Payload::Degraded { site, action });
    }

    /// Record a transparently absorbed fault (latency added, data intact).
    pub(crate) fn fault_recovered(&mut self, added: Duration) {
        self.fault_stats.recovered += 1;
        self.fault_stats.added_latency += added;
    }
}

impl Cluster {
    /// The data mode this cluster was built with.
    pub fn mode(&self) -> DataMode {
        self.data_mode
    }

    /// Fault-injection accounting so far (also returned in the
    /// [`RunReport`]).
    pub fn fault_summary(&self) -> FaultSummary {
        self.fault_stats
    }

    /// Take/put counters of the copy engines' payload-buffer freelists
    /// (diagnostics: steady-state traffic should be all hits), summed over
    /// both lanes. The event loop counts them in job order, so one input
    /// gives the same counts on every run.
    pub fn staging_pool_stats(&self) -> fusedpack_gpu::PoolStats {
        self.copies.pool_stats()
    }

    /// Per-hop FIFO order violations observed by the network (always
    /// zero). Always `Some`: the `Option` stays only because the `fpbench`
    /// benchmark package unwraps it and changes only with the benchmark.
    pub fn topo_order_violations(&self) -> Option<u64> {
        Some(self.topo.order_violations())
    }

    /// The telemetry handle this cluster records into (disabled unless the
    /// builder attached one via [`ClusterBuilder::telemetry`]).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }
}
