//! Time-window sharded execution: a conservative parallel event loop.
//!
//! ## Shape
//!
//! `run_sharded` partitions the cluster into N worker shards at node
//! boundaries — each shard *is* a [`Cluster`] owning a contiguous range of
//! ranks, their GPUs, staging pools, and the NICs of its nodes (the
//! [`Ranged`](super::Ranged) wrappers keep global indexing working) — but
//! no network: the one [`TopoNet`] stays with the coordinator. The
//! coordinator repeatedly:
//!
//! 1. computes the next window `[W, W + δ)` where `W` is the minimum
//!    next-event time over all shard queues and δ is the *lookahead* —
//!    the smallest latency any transmit must pay (see
//!    [`Cluster::lookahead`]);
//! 2. hands every shard but the last to a persistent worker thread and
//!    runs the last one itself; each drains its own timing wheel up to
//!    (excluding) `W + δ`, recording every transmit instead of executing
//!    it. Handoffs poll briefly before parking (see [`recv_soon`]), so a
//!    round does not pay for waking a sleeping thread;
//! 3. at the barrier, applies the round's deferred transmits against the
//!    master network and schedules their deliveries and completions into
//!    the owning shards' queues.
//!
//! ## Why the result is byte-identical to the single queue
//!
//! Every event processed in a round has `t ≥ W`, and every transmit it
//! issues delivers (and completes) no sooner than `t + δ ≥ W + δ` — at
//! or past the window end, so deferring it to the barrier never lands an
//! effect inside a window a shard already drained. Within a round, shards
//! only touch disjoint state: rank/GPU/pool state is shard-local by
//! construction, NICs are node-aligned, and the network is touched only
//! at barriers. Deferred transmits are applied in
//! ascending (event time, event key, intra-dispatch seq) — exactly the
//! order the single-queue loop executes them, because it dispatches
//! events in (time, key) order and issues transmits in program order
//! within a dispatch. Canonical keys (see [`super::Cluster::next_key`])
//! make that order global and mode-independent, and give the timing
//! wheels the same tiebreaker everywhere. Wall-clock-only quantities
//! (stall/barrier time, per-shard queue high-waters) are reported in
//! [`ShardStats`] and excluded from the identity claim.
//!
//! ## Fault plans shard cleanly
//!
//! Armed fault plans no longer clamp the shard count: rank-scoped fault
//! streams are consumed in each rank's own event order (identical at any
//! shard count), wire/NIC/hop decisions and backoff jitter are stateless
//! hashes keyed by canonical event keys, and deferred transmits replay the
//! full retry ladder at the barrier in single-queue order against the
//! master network — so chaos reports are byte-identical at any `--shards
//! N`. Fabric hop-state transitions happen only during barrier replay,
//! which means every shard observes a route-epoch change at the same
//! window boundary (the barrier telemetry instant records the epoch).
//!
//! ## What disqualifies a run
//!
//! `effective_shards` clamps to 1 when the run moves bytes
//! ([`DataMode::Full`]): its copies run in two lanes beside one event
//! queue (see the `copy` module), which beat two shards on a byte-moving
//! 512-rank halo by 1.56x on a 2-vCPU host, so no shard ever holds a copy
//! engine. The sharded loop is for timing-only runs. It also clamps to 1
//! when ranks are not grouped contiguously by node, when there are fewer
//! than two nodes, when the lookahead is zero, or when the fault plan arms
//! [`FaultSite::IpcMapFail`] and ranks share a node: the staged DirectIPC
//! fallback bounces the payload over the crossbar *synchronously*, inside
//! the dispatch, and a worker has no network to time that on.

use super::handoff::recv_soon;
use super::{Cluster, CopyQueue, Event, Ranged, RankId};
use crate::message::WireMsg;
use crate::sendrecv::SendId;
use fusedpack_gpu::DataMode;
use fusedpack_net::TopoNet;
use fusedpack_sim::{
    ClampStats, Duration, EventQueue, FaultSite, FaultSummary, ShardStats, Slab, Time, WheelStats,
};
use fusedpack_telemetry::{Lane, Payload};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Instant;

/// A transmit recorded during a sharded round, applied at the
/// barrier against the master [`TopoNet`] in the exact order the
/// single-queue loop would have executed it.
#[derive(Debug)]
pub(crate) struct PendingTransmit {
    /// Virtual time of the event whose dispatch issued the transmit.
    pub t_e: Time,
    /// Canonical key of that event (globally unique).
    pub k_e: u64,
    /// Shard-local monotone sequence: orders transmits within one
    /// dispatch (between dispatches, `(t_e, k_e)` already decides).
    pub seq: u64,
    /// Sending rank (global).
    pub src: usize,
    /// Wire time the sender issued at.
    pub at: Time,
    pub bytes: u64,
    pub gdr: bool,
    /// The message to deliver (payload captured at defer time).
    pub msg: WireMsg,
    /// Pre-drawn key for the Deliver event.
    pub deliver_key: u64,
    /// Initiator-side CQE to schedule at completion, with its key.
    pub complete: Option<(SendId, u64)>,
    /// Pre-drawn key for a duplicated CQE (the `NicDupCompletion` site
    /// fired at issue time); the coordinator schedules the replayed
    /// completion once the real completion time is known.
    pub dup: Option<u64>,
}

/// One shard's slice of the cluster: its half-open rank range and first
/// node, aligned so every node's ranks land in exactly one shard.
#[derive(Debug, Clone, Copy)]
struct ShardSpec {
    rank_start: usize,
    rank_end: usize,
    node_start: usize,
}

impl Cluster {
    /// Clamp the requested shard count to what this run supports.
    pub(crate) fn effective_shards(&self) -> u32 {
        let req = self.shards_requested;
        if req <= 1 || self.data_mode == DataMode::Full {
            return 1;
        }
        let num_nodes = self.nics.len() as u32;
        if num_nodes < 2 || self.ranks.len() < 2 {
            return 1;
        }
        // Node-aligned splitting needs each node's ranks contiguous.
        if !self.endpoints.windows(2).all(|w| w[0].node <= w[1].node) {
            return 1;
        }
        if self.lookahead() == Duration::ZERO {
            return 1;
        }
        let ipc_faults = self
            .faults
            .as_ref()
            .is_some_and(|plan| plan.spec(FaultSite::IpcMapFail).probability > 0.0);
        if ipc_faults && self.shares_a_node() {
            return 1;
        }
        req.min(num_nodes)
    }

    /// Whether some node hosts two ranks (so intra-node routes, and
    /// DirectIPC between them, are in use).
    fn shares_a_node(&self) -> bool {
        let mut nodes: Vec<u32> = self.endpoints.iter().map(|ep| ep.node).collect();
        nodes.sort_unstable();
        nodes.windows(2).any(|w| w[0] == w[1])
    }

    /// The conservative lookahead δ: no transmit issued at `t` delivers or
    /// completes before `t + δ`. Every transmit is deferred to a barrier,
    /// so δ is the smallest latency of any route between two of the run's
    /// ranks: a cross-node route crosses at least one fabric hop, an
    /// intra-node one a crossbar hop — counted only when some node hosts
    /// two ranks. On the default flat fabric that is the NIC wire's
    /// latency for one rank per node.
    fn lookahead(&self) -> Duration {
        self.topo
            .as_ref()
            .expect("the master cluster owns the network")
            .min_route_latency(self.shares_a_node())
    }

    /// Drain this shard's queue up to (excluding) `window_end`.
    fn run_window(&mut self, window_end: Time) {
        let mut clamps_seen = self.events.clamp_stats();
        while self.events.peek_time().is_some_and(|t| t < window_end) {
            let (t, key, ev) = self.events.pop_keyed().expect("peeked event");
            self.cur_event = (t, key);
            self.dispatch(t, ev);
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

    /// Node-aligned partition: nodes are split into `shards` contiguous
    /// groups of near-equal size, rank ranges follow from the endpoints.
    fn shard_plan(&self, shards: u32) -> Vec<ShardSpec> {
        let num_nodes = self.nics.len();
        let shards = shards as usize;
        let mut specs = Vec::with_capacity(shards);
        let mut rank_cursor = 0usize;
        for s in 0..shards {
            let node_start = s * num_nodes / shards;
            let node_end = (s + 1) * num_nodes / shards;
            let rank_start = rank_cursor;
            while rank_cursor < self.endpoints.len()
                && (self.endpoints[rank_cursor].node as usize) < node_end
            {
                rank_cursor += 1;
            }
            specs.push(ShardSpec {
                rank_start,
                rank_end: rank_cursor,
                node_start,
            });
        }
        debug_assert_eq!(rank_cursor, self.endpoints.len());
        specs
    }

    /// Split the master cluster into per-shard clusters. The master is
    /// left hollow (empty vectors) until `recompose` puts everything
    /// back.
    fn decompose(&mut self, specs: &[ShardSpec]) -> Vec<Cluster> {
        let shards = specs.len();
        let mut rank_shard = vec![0u32; self.endpoints.len()];
        for (s, spec) in specs.iter().enumerate() {
            for slot in &mut rank_shard[spec.rank_start..spec.rank_end] {
                *slot = s as u32;
            }
        }
        let mut ranks = std::mem::take(&mut self.ranks).into_vec();
        let mut gpus = std::mem::take(&mut self.gpus).into_vec();
        let mut staging_mems = std::mem::take(&mut self.staging_mems).into_vec();
        let mut host_mems = std::mem::take(&mut self.host_mems).into_vec();
        let mut nics = std::mem::take(&mut self.nics).into_vec();

        // Redistribute the seeded events to their owner shards. Only
        // pre-run queues can be sharded: in-flight wire traffic has no
        // owner rank to route by.
        debug_assert!(
            self.wire_slab.is_empty(),
            "cannot shard a cluster with in-flight wire messages"
        );
        let mut master_q = std::mem::take(&mut self.events);
        let mut queues: Vec<EventQueue<Event>> = (0..shards).map(|_| EventQueue::new()).collect();
        while let Some((t, key, ev)) = master_q.pop_keyed() {
            let origin = event_origin(&ev);
            queues[rank_shard[origin] as usize].push_at_key(t, key, ev);
        }

        let mut out: Vec<Cluster> = Vec::with_capacity(shards);
        for spec in specs.iter().rev() {
            let shard_ranks = ranks.split_off(spec.rank_start);
            let shard_gpus = gpus.split_off(spec.rank_start);
            let shard_staging = staging_mems.split_off(spec.rank_start);
            let shard_host = host_mems.split_off(spec.rank_start);
            let shard_nics = nics.split_off(spec.node_start);
            out.push(Cluster {
                platform: self.platform.clone(),
                engine: Arc::clone(&self.engine),
                data_mode: self.data_mode,
                events: queues.pop().expect("one queue per shard"),
                ranks: Ranged::with_base(spec.rank_start, shard_ranks),
                gpus: Ranged::with_base(spec.rank_start, shard_gpus),
                staging_mems: Ranged::with_base(spec.rank_start, shard_staging),
                host_mems: Ranged::with_base(spec.rank_start, shard_host),
                nics: Ranged::with_base(spec.node_start, shard_nics),
                rndv: self.rndv,
                topo: None,
                endpoints: self.endpoints.clone(),
                copies: CopyQueue::default(),
                wire_slab: Slab::new(),
                telemetry: self.telemetry.clone(),
                // Each shard carries a clone of the plan: rank-scoped
                // streams are drawn only by the owning shard (per-rank,
                // so the clones never diverge from the single-queue
                // sequences) and keyed decisions are stateless.
                faults: self.faults.clone(),
                fault_stats: FaultSummary::default(),
                shards_requested: 1,
                cur_event: (Time::ZERO, 0),
                pending: Vec::new(),
                pending_seq: 0,
                rank_shard: rank_shard.clone(),
                shard_stats: ShardStats {
                    shards: shards as u32,
                    ..ShardStats::default()
                },
                layout_table: Arc::clone(&self.layout_table),
            });
        }
        out.reverse();
        out
    }

    /// Reassemble the master cluster from finished shard states, folding
    /// their counters into the master's accumulators.
    fn recompose(&mut self, states: Vec<Cluster>) {
        let mut ranks = Vec::new();
        let mut gpus = Vec::new();
        let mut staging_mems = Vec::new();
        let mut host_mems = Vec::new();
        let mut nics = Vec::new();
        for cl in states {
            debug_assert!(cl.wire_slab.is_empty(), "shard leaked wire messages");
            debug_assert!(cl.pending.is_empty(), "shard leaked deferred transmits");
            self.fault_stats.merge(&cl.fault_stats);
            self.shard_stats.merge(&cl.shard_stats);
            ranks.extend(cl.ranks.into_vec());
            gpus.extend(cl.gpus.into_vec());
            staging_mems.extend(cl.staging_mems.into_vec());
            host_mems.extend(cl.host_mems.into_vec());
            nics.extend(cl.nics.into_vec());
        }
        self.ranks = Ranged::from_vec(ranks);
        self.gpus = Ranged::from_vec(gpus);
        self.staging_mems = Ranged::from_vec(staging_mems);
        self.host_mems = Ranged::from_vec(host_mems);
        self.nics = Ranged::from_vec(nics);
    }

    /// The sharded run loop (coordinator side).
    pub(crate) fn run_sharded(&mut self, shards: u32) -> super::RunReport {
        let specs = self.shard_plan(shards);
        let delta = self.lookahead();
        let mut master_net = self.topo.take();
        let mut slots: Vec<Option<Cluster>> =
            self.decompose(&specs).into_iter().map(Some).collect();
        let n = slots.len();
        let mut coord = ShardStats {
            shards,
            ..ShardStats::default()
        };

        crossbeam::thread::scope(|scope| {
            let (res_tx, res_rx) = mpsc::channel::<(usize, Cluster)>();
            // Shards 0..n-1 go to workers; the coordinator runs the last
            // one itself instead of blocking while the others work.
            let own = n - 1;
            let mut cmd_txs: Vec<mpsc::SyncSender<(Cluster, Time)>> = Vec::with_capacity(own);
            for s in 0..own {
                let (tx, rx) = mpsc::sync_channel::<(Cluster, Time)>(1);
                cmd_txs.push(tx);
                let res_tx = res_tx.clone();
                scope.spawn(move || {
                    let mut idle_since: Option<Instant> = None;
                    while let Ok((mut cl, window_end)) = recv_soon(&rx) {
                        if let Some(t) = idle_since {
                            cl.shard_stats.stall_wall_ns += t.elapsed().as_nanos() as u64;
                        }
                        cl.run_window(window_end);
                        idle_since = Some(Instant::now());
                        if res_tx.send((s, cl)).is_err() {
                            break;
                        }
                    }
                });
            }
            drop(res_tx);
            let mut own_idle_since: Option<Instant> = None;
            loop {
                // All shards are home between rounds: the earliest event
                // anywhere opens the next window.
                let w = slots
                    .iter()
                    .filter_map(|c| c.as_ref().expect("shard home").events.peek_time())
                    .min();
                let Some(w) = w else { break };
                let window_end = w + delta;
                coord.barriers += 1;
                for (s, slot) in slots[..own].iter_mut().enumerate() {
                    let cl = slot.take().expect("shard home");
                    cmd_txs[s].send((cl, window_end)).expect("worker alive");
                }
                let cl = slots[own].as_mut().expect("shard home");
                if let Some(t) = own_idle_since {
                    cl.shard_stats.stall_wall_ns += t.elapsed().as_nanos() as u64;
                }
                cl.run_window(window_end);
                own_idle_since = Some(Instant::now());
                for _ in 0..own {
                    let (s, cl) = recv_soon(&res_rx).expect("worker alive");
                    slots[s] = Some(cl);
                }
                let t0 = Instant::now();
                let (applied, admitted) = apply_pending(&mut slots, &mut master_net);
                coord.deferred_transmits += applied;
                coord.admitted_msgs += admitted;
                coord.barrier_wall_ns += t0.elapsed().as_nanos() as u64;
                let window_ns = window_end.as_nanos();
                // Every shard observes fabric hop transitions at the same
                // barrier, so the route epoch recorded here is identical
                // at any shard count.
                let route_epoch = master_net.as_ref().map_or(0, TopoNet::route_epoch);
                self.telemetry
                    .instant(Lane::Host, window_end, || Payload::ShardBarrier {
                        window_ns,
                        admitted,
                        applied,
                        route_epoch,
                    });
            }
            drop(cmd_txs); // workers exit their recv loops
        })
        .expect("shard worker panicked");

        let mut states: Vec<Cluster> = slots.into_iter().map(|c| c.expect("shard home")).collect();
        for cl in &mut states {
            cl.recycle_unexpected();
        }
        // Queue aggregates across shards, gathered before recompose.
        let mut end_time = Time::ZERO;
        let mut events_processed = 0u64;
        let mut event_clamps = ClampStats::default();
        let mut wheel = WheelStats::default();
        let mut wire_high_water = 0u32;
        for cl in &mut states {
            end_time = end_time.max(cl.events.now());
            events_processed += cl.events.processed();
            let c = cl.events.clamp_stats();
            event_clamps.count += c.count;
            event_clamps.total_skew += c.total_skew;
            event_clamps.max_skew = event_clamps.max_skew.max(c.max_skew);
            let ws = cl.events.wheel_stats();
            wheel.overflow_hits += ws.overflow_hits;
            wheel.cascades += ws.cascades;
            wheel.slots_drained += ws.slots_drained;
            wheel.slab_high_water = wheel.slab_high_water.max(ws.slab_high_water);
            // Peak in-flight wire messages: shard slabs are disjoint, so
            // the cluster-wide peak is bounded by the sum of peaks.
            wire_high_water += cl.wire_slab.high_water();
        }
        self.topo = master_net;
        self.shard_stats.merge(&coord);
        self.recompose(states);
        self.finish_report(
            end_time,
            events_processed,
            event_clamps,
            wheel,
            wire_high_water,
        )
    }
}

/// The rank whose shard owns this event. `Deliver` never appears in a
/// pre-run queue (asserted in `decompose`) and is routed explicitly at
/// barriers, so it has no origin here.
fn event_origin(ev: &Event) -> usize {
    match ev {
        Event::Wake(r)
        | Event::PackDone(r, _)
        | Event::UnpackDone(r, _)
        | Event::FusionDone(r, _)
        | Event::SendComplete(r, _) => r.0 as usize,
        Event::Deliver(_) => unreachable!("in-flight deliveries cannot be redistributed"),
    }
}

/// Apply every transmit deferred during the round against the master
/// network, in ascending (event time, event key, intra-dispatch seq) —
/// the exact order the single-queue loop issues them — then schedule the
/// resulting Deliver/SendComplete events into the owning shards. Returns
/// `(applied, admitted)`: transmits replayed, and how many of their
/// deliveries crossed into another shard.
///
/// The master network is temporarily installed into the sending shard's
/// `topo` slot so the replay runs the exact single-queue code path:
/// the full retry ladder, keyed fault draws, fabric health transitions,
/// and the forced-delivery rung all execute here, against shared fabric
/// state, in canonical order.
fn apply_pending(slots: &mut [Option<Cluster>], net_slot: &mut Option<TopoNet>) -> (u64, u64) {
    let mut batch: Vec<PendingTransmit> = Vec::new();
    for slot in slots.iter_mut() {
        let cl = slot.as_mut().expect("shard home");
        // `append` leaves the shard's buffer empty but keeps its
        // capacity, so steady-state rounds never reallocate.
        batch.append(&mut cl.pending);
    }
    batch.sort_by_key(|p| (p.t_e, p.k_e, p.seq));
    let applied = batch.len() as u64;
    let mut admitted = 0;
    for p in batch {
        // Only timing-only runs shard, and they carry no bytes.
        debug_assert!(p.msg.payload.is_empty(), "a sharded run moved bytes");
        let dst = p.msg.dst.0 as usize;
        let (src_shard, dst_shard) = {
            let map = &slots[0].as_ref().expect("shard home").rank_shard;
            (map[p.src] as usize, map[dst] as usize)
        };
        admitted += u64::from(src_shard != dst_shard);
        let (delivered, completion) = {
            let cl = slots[src_shard].as_mut().expect("shard home");
            debug_assert!(cl.topo.is_none(), "shards never own a network");
            cl.topo = net_slot.take();
            let out = cl.transport_reliable(p.src, dst, p.at, p.bytes, p.gdr, p.deliver_key);
            *net_slot = cl.topo.take();
            out
        };
        {
            let cl = slots[dst_shard].as_mut().expect("shard home");
            let at = delivered.max(cl.events.now());
            let slab_key = cl.wire_slab.insert(p.msg);
            cl.events
                .push_at_key(at, p.deliver_key, Event::Deliver(slab_key));
        }
        if let Some((sid, key)) = p.complete {
            let cl = slots[src_shard].as_mut().expect("shard home");
            let rid = RankId(p.src as u32);
            cl.events.push_at_key(
                completion.max(cl.events.now()),
                key,
                Event::SendComplete(rid, sid),
            );
            // A dup-CQE decision drawn at issue time replays the
            // completion one progress poll later, exactly as the
            // single-queue loop schedules it.
            if let Some(dup_key) = p.dup {
                let dup_at = completion + cl.platform.progress_poll;
                cl.events.push_at_key(
                    dup_at.max(cl.events.now()),
                    dup_key,
                    Event::SendComplete(rid, sid),
                );
            }
        }
    }
    (applied, admitted)
}

#[cfg(test)]
mod tests {
    use crate::{ClusterBuilder, Program, SchemeKind};
    use fusedpack_gpu::DataMode;
    use fusedpack_net::Platform;
    use fusedpack_sim::{FaultPlan, FaultSite, FaultSpec};

    /// The shard count a run of `mode` asking for `requested` shards gets,
    /// with one empty rank on each entry's node of `nodes`, and
    /// `IpcMapFail` armed or not.
    fn effective(mode: DataMode, requested: u32, nodes: &[u32], ipc_faults: bool) -> u32 {
        let mut builder = ClusterBuilder::new(Platform::lassen(), SchemeKind::fusion_default())
            .data_mode(mode)
            .shards(requested);
        if ipc_faults {
            builder = builder.fault_plan(
                FaultPlan::new(1).with(FaultSite::IpcMapFail, FaultSpec::with_probability(0.5)),
            );
        }
        for &node in nodes {
            builder = builder.add_rank(node, Program::new());
        }
        builder.build().effective_shards()
    }

    #[test]
    fn effective_shards_follows_the_rules() {
        use DataMode::{Full, ModelOnly};
        let (four_nodes, shared, one_node) = (&[0, 1, 2, 3][..], &[0, 0, 1, 1][..], &[0, 0][..]);
        #[rustfmt::skip]
        let table: &[(DataMode, u32, &[u32], bool, u32)] = &[
            // A byte-moving run keeps one queue and its two copy lanes.
            (Full, 1, four_nodes, false, 1),
            (Full, 2, four_nodes, false, 1),
            (Full, 4, four_nodes, false, 1),
            (Full, 8, shared, false, 1),
            // A timing-only run gets one shard per node at most.
            (ModelOnly, 1, four_nodes, false, 1),
            (ModelOnly, 2, four_nodes, false, 2),
            (ModelOnly, 4, four_nodes, false, 4),
            (ModelOnly, 8, four_nodes, false, 4),
            (ModelOnly, 4, shared, false, 2),
            // Armed IpcMapFail clamps only where ranks share a node.
            (ModelOnly, 2, shared, true, 1),
            (ModelOnly, 2, four_nodes, true, 2),
            // One node has nothing to split.
            (ModelOnly, 2, one_node, false, 1),
            (Full, 2, one_node, false, 1),
        ];
        for &(mode, requested, nodes, ipc_faults, want) in table {
            assert_eq!(
                effective(mode, requested, nodes, ipc_faults),
                want,
                "{mode:?} asking for {requested} on nodes {nodes:?}, IpcMapFail armed: {ipc_faults}"
            );
        }
    }
}
