//! The copy engines: the owners of the bytes a `DataMode::Full` run
//! moves.
//!
//! For the whole of [`Cluster::run`] copy engines own every byte that can
//! move: each rank's GPU memory pool (moved out of its `Gpu` when the run
//! starts and moved back when it ends) and every payload buffer, recycled
//! through the engine's freelist. The event loop never touches those bytes.
//! It submits [`Job`]s through the cluster's [`CopyQueue`] and carries
//! [`PayloadHandle`]s — a slot in an engine's payload table, the lane that
//! produced it and a length — where it used to carry `Vec<u8>`s: in a
//! `WireMsg`, in `RankState::packed` and in `RankState::landed`. A handle is
//! not `Clone`: the job that consumes a payload (an unpack, a write into a
//! user buffer, a recycle) takes it by value, so the loop cannot name a
//! payload twice.
//!
//! # Lanes
//!
//! A `Full` run splits its jobs into two *lanes* by node ([`loop_nodes`]):
//! each lane is one engine that exclusively owns the pools of its nodes'
//! ranks. The loop's lane runs each job on the event loop thread as it is
//! submitted; the worker's lane runs on one scoped thread beside the loop
//! ([`Cluster::with_copy_worker`]). The worker's jobs collect in an outbox
//! and go to it, in order, in batches of [`BATCH`] through a channel of
//! [`QUEUE_BATCHES`] batches. A job runs on the lane of the pool it names;
//! a DirectIPC copy names two pools of one node, so it never crosses
//! lanes.
//!
//! A payload produced on one lane and consumed on the other (a staged
//! message between the two halves of the cluster) moves with its consuming
//! job. One from the loop's lane has already been produced: the loop takes
//! its bytes and sends them ahead of the job. One from the worker's lane
//! may still be queued: the loop asks the worker for it and waits. The
//! worker answers as soon as it has run the last job naming the payload,
//! ahead of any later jobs it holds, so the loop waits for that payload,
//! not for the worker's whole queue (waiting for the whole queue cost a
//! byte-moving 512-rank halo a third of its throughput).
//!
//! Jobs on any one pool or payload run in submission order, which is the
//! order in which the event loop used to move the bytes inline, so every
//! byte and checksum is what the inline code produced. The loop also keeps
//! each engine's freelist accounting ([`Freelist`]): it knows every take
//! and put in job order, so it predicts each miss and allocates that
//! buffer itself, and the pool counters are the same on every run of one
//! input.
//!
//! # Deferred packs
//!
//! A staged message between two ranks of one lane needs no payload
//! buffer: the lane that would pack it also unpacks it. So its pack runs
//! no job. The loop records the send's elements in the payload's slot and
//! in its rank's list of deferred payloads, and the unpack submits one
//! [`Job::Copy`] from the send's elements to the receive's, the DirectIPC
//! copy: half the memory traffic of a pack and an unpack, and no freelist
//! take or put. [`LaneStats::fused`] counts these messages; `packs` and
//! `unpacks` count only payloads that went through a buffer. A recycle
//! of a deferred payload just forgets it.
//!
//! Every other consumer *materializes* the payload first: it submits the
//! deferred pack on the sender's lane, then proceeds as for any payload.
//! That is a duplicate for an RDMA read answer, a write into a contiguous
//! receive, and an unpack on the other lane or into the sending rank. A
//! deferred pack must also read its elements as they were when it was
//! sent, and an eager send completes at injection, so its rank may write
//! the send buffer before the peer unpacks. So before any job that writes
//! a rank's pool (an unpack, copy, write or explicit pack/unpack), the
//! loop materializes that rank's deferred payloads whose elements
//! (`[base, base + footprint)`) overlap the span the job writes.
//!
//! The run joins the worker before it checks its run-end invariants, and a
//! panic on either lane surfaces from `Cluster::run` with its own message:
//! a loop-lane job panics on the loop thread, which hangs up on the worker
//! and joins it before re-raising; a worker panic drops the worker's end
//! of every channel, so the loop's next send or wait fails, the loop stops
//! submitting and ends the run, and the panic is re-raised from the join.
//!
//! A cluster on one node has no worker's lane and starts no thread. A
//! timing-only run moves no bytes, submits nothing and carries only empty
//! handles.
//!
//! The loop hands out payload slots itself and takes a slot back when it
//! submits the job that consumes the payload (or forgets a deferred one);
//! a reused slot is only ever named by a later job, so an engine, running
//! jobs in order, never sees a slot in use twice.

use super::handoff::{recv_soon, send_soon};
use super::Cluster;
use fusedpack_datatype::CompiledLayout;
use fusedpack_gpu::{DataMode, DevPtr, Elements, MemPool, PoolStats};
use fusedpack_sim::IntMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::mpsc::{self, Receiver, Sender, SyncSender, TrySendError};
use std::sync::Arc;
use std::time::Instant;

/// Worker jobs the event loop collects before it sends them as one batch:
/// one channel operation per batch instead of per job took ~5% off a
/// byte-moving 512-rank halo's run.
const BATCH: usize = 64;
/// Batches the channel to the copy worker holds before the event loop
/// waits for room: 16,384 jobs, deep enough that the worker absorbs a
/// halo lap's burst of packs without stalling the loop.
const QUEUE_BATCHES: usize = 256;

/// The event loop's lane: its jobs run on the loop thread at submit.
const LOOP: usize = 0;
/// The copy worker's lane.
const WORKER: usize = 1;

/// How many of a cluster's `nodes`, counted from node 0, form the loop's
/// lane; the rest form the worker's. The loop also runs the simulation,
/// about a third of a byte-moving 512-rank halo's host time once the
/// loop copies too, so it takes the smaller share: of 1/4, 5/16 and 3/8,
/// 5/16 gave the shortest run. A contiguous range of nodes keeps a halo's
/// neighbours on one lane, so few payloads cross. One node gets no
/// worker's lane: a thread pays off only with work on both sides.
fn loop_nodes(nodes: u32) -> u32 {
    if nodes < 2 {
        nodes
    } else {
        (nodes * 5 / 16).max(1)
    }
}

/// A payload held by a copy engine: its slot in the engine's payload
/// table, the lane whose job produced it (or will, for a deferred pack),
/// and its length in bytes. The
/// default handle is empty: it names no slot and carries no bytes
/// (timing-only runs, control packets, empty messages).
#[derive(Debug, Default, PartialEq, Eq)]
pub struct PayloadHandle {
    slot: u32,
    lane: u8,
    len: u64,
}

impl PayloadHandle {
    /// Payload length in bytes.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Does this handle carry no bytes (and name no slot)?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// The jobs one lane ran in a run. The counts are deterministic: the same
/// on every run of one input. The busy time is host wall-clock, and
/// excluded from that identity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LaneStats {
    /// Staged sends gathered into a payload buffer: every staged send
    /// whose payload is not fused.
    pub packs: u64,
    /// Staged receives scattered from their payload buffer.
    pub unpacks: u64,
    /// Staged messages fused: the sender's elements copied straight into
    /// the receive's, with no payload buffer (a deferred pack consumed by
    /// its unpack on this lane).
    pub fused: u64,
    /// Layout-to-layout copies (DirectIPC, and its mapping-failure
    /// fallback).
    pub copies: u64,
    /// Contiguous user buffers read into a payload.
    pub reads: u64,
    /// Payloads written into a contiguous user buffer.
    pub writes: u64,
    /// Payloads duplicated for an RDMA read answer.
    pub dups: u64,
    /// Explicit `Pack`/`Unpack` program operations.
    pub explicit: u64,
    /// Payloads recycled unread (spurious deliveries, drained RGET
    /// buffers, unmatched messages).
    pub recycles: u64,
    /// Payloads this lane consumed that the other lane produced.
    pub handoffs: u64,
    /// Host time the lane's engine spent running jobs, in nanoseconds.
    pub busy_wall_ns: u64,
}

impl LaneStats {
    /// Jobs executed, of every kind.
    pub fn jobs(&self) -> u64 {
        self.packs
            + self.unpacks
            + self.fused
            + self.copies
            + self.reads
            + self.writes
            + self.dups
            + self.explicit
            + self.recycles
    }

    fn absorb(&mut self, other: &LaneStats) {
        self.packs += other.packs;
        self.unpacks += other.unpacks;
        self.fused += other.fused;
        self.copies += other.copies;
        self.reads += other.reads;
        self.writes += other.writes;
        self.dups += other.dups;
        self.explicit += other.explicit;
        self.recycles += other.recycles;
        self.handoffs += other.handoffs;
        self.busy_wall_ns += other.busy_wall_ns;
    }
}

/// Copy-engine work in one run, by lane. The job and handoff counts are
/// deterministic; the times are host wall-clock and excluded from that
/// identity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CopyStats {
    /// The event loop's lane (index 0) and the copy worker's (index 1).
    pub lanes: [LaneStats; 2],
    /// Host time the event loop spent waiting for room in a full job
    /// queue, in nanoseconds (always zero without a worker).
    pub blocked_wall_ns: u64,
    /// Host time the event loop spent waiting for a payload the worker
    /// produced, in nanoseconds (always zero without a worker).
    pub fetch_wall_ns: u64,
}

impl CopyStats {
    /// Both lanes' counters summed.
    pub fn total(&self) -> LaneStats {
        let mut total = self.lanes[LOOP];
        total.absorb(&self.lanes[WORKER]);
        total
    }

    /// Jobs executed, of every kind, on both lanes.
    pub fn jobs(&self) -> u64 {
        self.total().jobs()
    }
}

/// `count` elements of a layout based at `base` in one rank's pool: one
/// side of a job. The layout is named by its index in the layout list of
/// the engine that owns the pool ([`CopyQueue::elems`]). The elements lie
/// in `[base, end)`.
#[derive(Clone, Copy)]
pub(crate) struct Elems {
    rank: usize,
    layout: u32,
    base: u64,
    count: u64,
    end: u64,
}

/// One unit of byte movement. Payloads are named by slot.
pub(crate) enum Job {
    /// Append a layout to the engine's list: the first job naming it
    /// follows. Moves no bytes, and is not counted in [`CopyStats`].
    Layout(Arc<CompiledLayout>),
    /// Gather elements into a new payload of `len` bytes in slot `out`,
    /// in `fresh` when the loop predicted a freelist miss.
    Pack {
        from: Elems,
        out: u32,
        len: u64,
        fresh: Option<Vec<u8>>,
    },
    /// Scatter the payload in `slot` out to elements, and recycle it
    /// (`keep`) or free it.
    Unpack { slot: u32, to: Elems, keep: bool },
    /// Copy elements of one rank's pool into elements of another's.
    Copy { from: Elems, to: Elems },
    /// Read a contiguous user buffer into a new payload in slot `out`.
    Read {
        rank: usize,
        ptr: DevPtr,
        out: u32,
        fresh: Option<Vec<u8>>,
    },
    /// Write the payload in `slot` into a contiguous user buffer, and
    /// recycle it (`keep`) or free it.
    Write {
        slot: u32,
        rank: usize,
        ptr: DevPtr,
        keep: bool,
    },
    /// Copy the payload in `src` into a new payload in slot `out`.
    Dup {
        src: u32,
        out: u32,
        fresh: Option<Vec<u8>>,
    },
    /// Gather elements into the packed region at `packed` of the same
    /// pool (`pack`), or scatter that region out to them.
    Explicit {
        elems: Elems,
        packed: u64,
        pack: bool,
    },
    /// Recycle the payload in `slot` unread (`keep`), or free it.
    Recycle { slot: u32, keep: bool },
    /// Hold bytes the other lane produced in slot `slot`: the next job
    /// naming the slot consumes them. Not counted in [`CopyStats`].
    Adopt { slot: u32, bytes: Vec<u8> },
}

/// The owner of one lane's bytes: its ranks' GPU pools, the payloads it
/// produced, and the buffers they recycle through.
pub(crate) struct CopyEngine {
    /// Rank → its pool, `None` for a rank of the other lane.
    pools: Vec<Option<MemPool>>,
    /// Every layout a job has named, in first-use order. Jobs name a
    /// layout by index rather than each carrying an `Arc`, whose
    /// reference count the event loop and the worker would otherwise
    /// both write on every job.
    layouts: Vec<Arc<CompiledLayout>>,
    /// Slot → payload bytes (empty: a free slot).
    payloads: Vec<Vec<u8>>,
    /// Retired payload buffers, last returned on top. The loop mirrors
    /// it in a [`Freelist`].
    free: Vec<Vec<u8>>,
    /// The packed image of layout-to-layout copies that cannot zip their
    /// run tables, kept from copy to copy.
    scratch: Vec<u8>,
    /// Host time spent running jobs on the worker's thread.
    busy_wall_ns: u64,
}

/// The mutable pool of `rank`, which this engine must own.
fn pool(pools: &mut [Option<MemPool>], rank: usize) -> &mut MemPool {
    pools[rank]
        .as_mut()
        .expect("a job ran on the lane that owns its pool")
}

/// The mutable pools of two distinct ranks, `a`'s first, which this
/// engine must both own.
fn pool_pair(pools: &mut [Option<MemPool>], a: usize, b: usize) -> (&mut MemPool, &mut MemPool) {
    assert_ne!(a, b, "a copy names two distinct ranks");
    let (lo, hi) = pools.split_at_mut(a.max(b));
    let (low, high) = (lo[a.min(b)].as_mut(), hi[0].as_mut());
    let (low, high) = low.zip(high).expect("a copy stays on one lane");
    if a < b {
        (low, high)
    } else {
        (high, low)
    }
}

impl CopyEngine {
    fn new(pools: Vec<Option<MemPool>>) -> Self {
        CopyEngine {
            pools,
            layouts: Vec::new(),
            payloads: Vec::new(),
            free: Vec::new(),
            scratch: Vec::new(),
            busy_wall_ns: 0,
        }
    }

    /// Run batches of jobs from `jobs` until the event loop hangs up, then
    /// hand the engine back. Between jobs, answer the loop's request for a
    /// payload (`(slot, after)`: the slot, and how many jobs must have run
    /// once its last job has) as soon as that job has run. An empty batch
    /// only wakes the worker to look for a request.
    ///
    /// The clock is read at the ends of each unbroken run of jobs, not
    /// around every job: a run ends when the batch does or when a request
    /// is answered, so `busy_wall_ns` still counts job time alone.
    fn serve(
        mut self,
        jobs: Receiver<Vec<Job>>,
        wants: Receiver<(u32, u64)>,
        back: Sender<Vec<u8>>,
    ) -> Self {
        let (mut done, mut want) = (0u64, None);
        let mut batch = Vec::new().into_iter();
        // Start of the run of jobs not yet added to `busy_wall_ns`.
        let mut running: Option<Instant> = None;
        loop {
            want = want.or_else(|| wants.try_recv().ok());
            if let Some((slot, after)) = want {
                if done >= after {
                    self.clock_out(&mut running);
                    // The loop waits for the answer; if it has gone, so
                    // has the run.
                    let _ = back.send(self.take(slot));
                    want = None;
                }
            }
            let Some(job) = batch.next() else {
                self.clock_out(&mut running);
                match recv_soon(&jobs) {
                    Ok(next) => batch = next.into_iter(),
                    Err(_) => return self,
                }
                continue;
            };
            running.get_or_insert_with(Instant::now);
            self.run(job);
            done += 1;
        }
    }

    /// Add the run of jobs that started at `running`, if any, to
    /// `busy_wall_ns`.
    fn clock_out(&mut self, running: &mut Option<Instant>) {
        if let Some(start) = running.take() {
            self.busy_wall_ns += start.elapsed().as_nanos() as u64;
        }
    }

    fn run(&mut self, job: Job) {
        let (pools, layouts) = (&mut self.pools, &self.layouts);
        match job {
            Job::Layout(layout) => self.layouts.push(layout),
            Job::Pack {
                from,
                out,
                len,
                fresh,
            } => {
                let mut buf = self.buffer(len, fresh);
                let layout = &self.layouts[from.layout as usize];
                pool(&mut self.pools, from.rank)
                    .gather_into(layout, from.base, from.count, &mut buf);
                self.put(out, buf);
            }
            Job::Unpack { slot, to, keep } => {
                let buf = self.take(slot);
                let layout = &self.layouts[to.layout as usize];
                pool(&mut self.pools, to.rank).scatter_from(&buf, layout, to.base, to.count);
                self.retire(buf, keep);
            }
            Job::Copy { from, to } => {
                let view = |e: &Elems| Elements::new(&layouts[e.layout as usize], e.base, e.count);
                let (src, dst) = pool_pair(pools, from.rank, to.rank);
                src.copy_to(view(&from), dst, view(&to), &mut self.scratch);
            }
            Job::Read {
                rank,
                ptr,
                out,
                fresh,
            } => {
                let mut buf = self.buffer(ptr.len, fresh);
                buf.copy_from_slice(pool(&mut self.pools, rank).read(ptr));
                self.put(out, buf);
            }
            Job::Write {
                slot,
                rank,
                ptr,
                keep,
            } => {
                let buf = self.take(slot);
                pool(&mut self.pools, rank).write(ptr, &buf);
                self.retire(buf, keep);
            }
            Job::Dup { src, out, fresh } => {
                let len = self.payloads[src as usize].len() as u64;
                let mut buf = self.buffer(len, fresh);
                buf.copy_from_slice(&self.payloads[src as usize]);
                self.put(out, buf);
            }
            Job::Explicit {
                elems,
                packed,
                pack,
            } => {
                let layout = &layouts[elems.layout as usize];
                let pool = pool(pools, elems.rank);
                if pack {
                    pool.gather(layout, elems.base, elems.count, packed);
                } else {
                    pool.scatter(packed, layout, elems.base, elems.count);
                }
            }
            Job::Recycle { slot, keep } => {
                let buf = self.take(slot);
                self.retire(buf, keep);
            }
            Job::Adopt { slot, bytes } => self.put(slot, bytes),
        }
    }

    /// A payload buffer of `len` bytes for the caller to overwrite: the
    /// top of the freelist, or `fresh` where the loop predicted that it
    /// is missing or too small (a too-small one is dropped).
    fn buffer(&mut self, len: u64, fresh: Option<Vec<u8>>) -> Vec<u8> {
        let popped = self.free.pop();
        let mut buf = fresh.or(popped).expect("the loop predicted a freelist hit");
        buf.resize(len as usize, 0);
        buf
    }

    /// A consumed payload's buffer goes back on the freelist, or is freed
    /// where the loop found the freelist full ([`Freelist::put`]).
    fn retire(&mut self, buf: Vec<u8>, keep: bool) {
        if keep {
            self.free.push(buf);
        }
    }

    /// Take the payload out of `slot`, leaving the slot free.
    fn take(&mut self, slot: u32) -> Vec<u8> {
        let buf = std::mem::take(&mut self.payloads[slot as usize]);
        debug_assert!(buf.capacity() > 0, "payload slot {slot} is free");
        buf
    }

    /// Fill free slot `slot` with `buf`.
    fn put(&mut self, slot: u32, buf: Vec<u8>) {
        let slot = slot as usize;
        if slot >= self.payloads.len() {
            self.payloads.resize_with(slot + 1, Vec::new);
        }
        debug_assert!(self.payloads[slot].capacity() == 0, "slot {slot} in use");
        self.payloads[slot] = buf;
    }
}

/// The loop's copy of one engine's freelist accounting: the capacity of
/// each buffer in it, last returned on top, the payloads the engine holds,
/// and the take/put counters.
///
/// A payload taken from one engine's freelist may be consumed on the other
/// (a message crossing lanes), and its buffer then goes back to the
/// consumer's freelist. So that one-way traffic cannot grow a
/// freelist without bound, a freelist keeps a returned buffer only while
/// it holds fewer buffers than the most payloads its engine has held at
/// once (`peak`), and frees it otherwise. An engine's resting and live
/// buffers are then at most twice its peak in flight; on an engine whose
/// payloads never leave it, at most its peak, and no returned buffer is
/// freed.
#[derive(Default)]
struct Freelist {
    caps: Vec<u64>,
    /// Payloads the engine holds: taken from this freelist or handed to
    /// the engine by another, and not yet consumed.
    live: u64,
    /// The most payloads the engine has held at once.
    peak: u64,
    stats: PoolStats,
}

impl Freelist {
    /// A take of `len` bytes: the capacity of the buffer the engine hands
    /// out, and on a miss the new buffer it uses, allocated here (a top
    /// buffer too short for `len` is freed).
    fn take(&mut self, len: u64) -> (u64, Option<Vec<u8>>) {
        self.hold();
        match self.caps.pop() {
            Some(cap) if cap >= len => {
                self.stats.hits += 1;
                (cap, None)
            }
            short => {
                self.stats.misses += 1;
                self.stats.dropped += u64::from(short.is_some());
                (len, Some(Vec::with_capacity(len as usize)))
            }
        }
    }

    /// The engine now holds one more payload.
    fn hold(&mut self) {
        self.live += 1;
        self.peak = self.peak.max(self.live);
    }

    /// A payload the engine held moved to another engine.
    fn lend(&mut self) {
        self.live -= 1;
    }

    /// A consumed payload's buffer, of capacity `cap`, comes back: kept
    /// on the freelist while it holds fewer than `peak` buffers (`true`),
    /// freed otherwise.
    fn put(&mut self, cap: u64) -> bool {
        self.live -= 1;
        self.stats.released += 1;
        let keep = (self.caps.len() as u64) < self.peak;
        if keep {
            self.caps.push(cap);
        } else {
            self.stats.dropped += 1;
        }
        keep
    }
}

/// The event loop's end of the worker's lane.
struct WorkerLink {
    jobs: SyncSender<Vec<Job>>,
    /// Requests for a payload the worker holds: `(slot, after)`.
    wants: Sender<(u32, u64)>,
    /// The worker's answers to `wants`, in request order.
    back: Receiver<Vec<u8>>,
    /// Worker jobs not yet sent: at most a batch.
    outbox: Vec<Job>,
    /// Jobs submitted to the worker so far.
    submitted: u64,
    /// The worker has stopped (it panicked): submit nothing more.
    stopped: bool,
}

/// A payload slot's state on the loop's side.
#[derive(Clone, Copy, Default)]
struct Slot {
    /// Capacity of the buffer holding the payload.
    cap: u64,
    /// The worker jobs submitted up to the last one naming the slot.
    after: u64,
    /// A deferred payload's elements and length: no job has gathered it
    /// yet, and no buffer holds it.
    deferred: Option<(Elems, u64)>,
}

/// The event loop's side of the copy engines: which lane runs each rank's
/// jobs, the payload slots it hands out, each engine's freelist accounting,
/// and the counters of the engines it fed.
#[derive(Default)]
pub(crate) struct CopyQueue {
    /// Global rank → its lane by the node rule ([`loop_nodes`]).
    lanes: Vec<u8>,
    /// The loop's lane, whose engine runs jobs as they are submitted.
    inline: Option<Box<CopyEngine>>,
    /// The worker's lane, on a run that has one.
    worker: Option<WorkerLink>,
    /// Slots taken back from consumed payloads, reused last-in first-out.
    free: Vec<u32>,
    /// Every slot handed out so far, free or not.
    slots: Vec<Slot>,
    /// Global rank → the slots of its deferred payloads.
    deferred: Vec<Vec<u32>>,
    /// Per lane: address of each layout its engine holds → its index in
    /// the engine's list. The engine's `Arc` keeps the address from being
    /// reused while the run lasts.
    layouts: [IntMap<usize, u32>; 2],
    /// Per lane: its engine's freelist accounting.
    buffers: [Freelist; 2],
    stats: CopyStats,
    pool: PoolStats,
}

impl CopyQueue {
    /// Job counters and host times of the engines this queue fed.
    pub(crate) fn stats(&self) -> CopyStats {
        self.stats
    }

    /// Payload-buffer counters of the engines this queue fed.
    pub(crate) fn pool_stats(&self) -> PoolStats {
        let mut pool = self.pool;
        for list in &self.buffers {
            pool.absorb(&list.stats);
        }
        pool
    }

    /// Run `job`, of lane `lane`, on its engine: at once inline, or on the
    /// worker once its batch is sent. Returns the number of worker jobs
    /// submitted so far.
    fn submit(&mut self, lane: usize, job: Job) -> u64 {
        if let Some(w) = &mut self.worker {
            if w.stopped {
                return w.submitted;
            }
            if lane == WORKER {
                w.outbox.push(job);
                w.submitted += 1;
                let submitted = w.submitted;
                if w.outbox.len() == BATCH {
                    self.flush();
                }
                return submitted;
            }
        }
        let engine = self
            .inline
            .as_mut()
            .expect("a copy job submitted outside a Full run");
        let start = Instant::now();
        engine.run(job);
        self.stats.lanes[lane].busy_wall_ns += start.elapsed().as_nanos() as u64;
        0
    }

    /// The lane of `rank`'s jobs.
    fn lane(&self, rank: usize) -> usize {
        usize::from(self.lanes[rank])
    }

    /// `count` elements of `layout` based at `base` in `rank`'s pool, for
    /// a job. The first time an engine meets a layout, a job hands it its
    /// own `Arc`.
    pub(crate) fn elems(
        &mut self,
        rank: usize,
        layout: &Arc<CompiledLayout>,
        base: u64,
        count: u64,
    ) -> Elems {
        let lane = self.lane(rank);
        let known = &mut self.layouts[lane];
        let key = Arc::as_ptr(layout) as usize;
        let index = match known.get(&key) {
            Some(&index) => index,
            None => {
                let index = known.len() as u32;
                known.insert(key, index);
                self.submit(lane, Job::Layout(Arc::clone(layout)));
                index
            }
        };
        Elems {
            rank,
            layout: index,
            base,
            count,
            end: base + layout.footprint(count),
        }
    }

    /// A free slot.
    fn slot(&mut self) -> u32 {
        self.free.pop().unwrap_or_else(|| {
            self.slots.push(Slot::default());
            self.slots.len() as u32 - 1
        })
    }

    /// Take a buffer of `len` bytes off `lane`'s freelist for the payload
    /// in `slot`: the buffer a miss uses.
    fn take_buffer(&mut self, slot: u32, lane: usize, len: u64) -> Option<Vec<u8>> {
        let (cap, fresh) = self.buffers[lane].take(len);
        self.slots[slot as usize].cap = cap;
        fresh
    }

    /// A handle for a new payload of `len` bytes on `lane`, in a free
    /// slot, and the buffer a miss on that lane's freelist uses.
    fn alloc(&mut self, lane: usize, len: u64) -> (PayloadHandle, Option<Vec<u8>>) {
        let slot = self.slot();
        let fresh = self.take_buffer(slot, lane, len);
        let lane = lane as u8;
        (PayloadHandle { slot, lane, len }, fresh)
    }

    /// Record that the job just submitted on `lane` names `slot`.
    fn named(&mut self, slot: u32, lane: usize, submitted: u64) {
        if lane == WORKER {
            self.slots[slot as usize].after = submitted;
        }
    }

    /// Take back the slot of a payload that the next job, on `lane`,
    /// consumes, first moving its bytes to that lane's engine if the other
    /// one holds them. Also returns whether that engine keeps the buffer
    /// on its freelist.
    fn release(&mut self, payload: PayloadHandle, lane: usize) -> (u32, bool) {
        debug_assert!(!payload.is_empty(), "an empty payload names no slot");
        let slot = payload.slot;
        self.free.push(slot);
        let from = usize::from(payload.lane);
        if from != lane {
            self.stats.lanes[lane].handoffs += 1;
            self.move_payload(slot, lane);
            self.buffers[from].lend();
            self.buffers[lane].hold();
        }
        let keep = self.buffers[lane].put(self.slots[slot as usize].cap);
        (slot, keep)
    }

    /// Move the payload in `slot` to the engine of lane `to` from the
    /// other one. The loop's engine has run every job naming it, so its
    /// bytes go ahead of the worker job that consumes them. The worker's
    /// may still be queued: ask the worker for them as soon as it has run
    /// the last job naming them, and wait.
    fn move_payload(&mut self, slot: u32, to: usize) {
        if !self.running() {
            return; // nothing runs any more, so nothing was produced
        }
        if to == WORKER {
            let inline = self.inline.as_mut().expect("the loop's lane runs");
            let bytes = inline.take(slot);
            self.submit(WORKER, Job::Adopt { slot, bytes });
            return;
        }
        let after = self.slots[slot as usize].after;
        if !self.flush() {
            return;
        }
        let w = self
            .worker
            .as_mut()
            .expect("a payload on the worker's lane");
        let start = Instant::now();
        let bytes = w.wants.send((slot, after)).ok().and_then(|()| {
            // A full queue needs no wake-up: the worker is not idle.
            let _ = w.jobs.try_send(Vec::new());
            recv_soon(&w.back).ok()
        });
        self.stats.fetch_wall_ns += start.elapsed().as_nanos() as u64;
        match bytes {
            Some(bytes) => {
                let inline = self.inline.as_mut().expect("the loop's lane runs");
                inline.put(slot, bytes);
            }
            None => w.stopped = true,
        }
    }

    /// A payload of `from` gathered into `len` bytes (at least the
    /// elements' packed size), for a message to rank `dst`. One for
    /// another rank of the sender's lane is deferred: no job runs until
    /// it is consumed or materialized (see the module docs).
    pub(crate) fn pack(&mut self, from: Elems, len: u64, dst: usize) -> PayloadHandle {
        let lane = self.lane(from.rank);
        let slot = self.slot();
        if dst != from.rank && self.lane(dst) == lane {
            self.slots[slot as usize].deferred = Some((from, len));
            self.deferred[from.rank].push(slot);
        } else {
            self.gather(slot, from, len);
        }
        let lane = lane as u8;
        PayloadHandle { slot, lane, len }
    }

    /// Submit the pack of `from` into `len` bytes in `slot`.
    fn gather(&mut self, slot: u32, from: Elems, len: u64) {
        let lane = self.lane(from.rank);
        self.stats.lanes[lane].packs += 1;
        let fresh = self.take_buffer(slot, lane, len);
        let submitted = self.submit(
            lane,
            Job::Pack {
                from,
                out: slot,
                len,
                fresh,
            },
        );
        self.named(slot, lane, submitted);
    }

    /// Forget the deferred payload in `slot`, if it is one: its elements
    /// and length.
    fn undefer(&mut self, slot: u32) -> Option<(Elems, u64)> {
        let (from, len) = self.slots[slot as usize].deferred.take()?;
        let pending = &mut self.deferred[from.rank];
        let at = pending.iter().position(|&s| s == slot);
        pending.swap_remove(at.expect("a deferred payload is pending on its rank"));
        Some((from, len))
    }

    /// Gather the deferred payload in `slot`, if it is one, now.
    fn materialize(&mut self, slot: u32) {
        if let Some((from, len)) = self.undefer(slot) {
            self.gather(slot, from, len);
        }
    }

    /// Before a job writes `[lo, hi)` of `rank`'s pool, gather the rank's
    /// deferred payloads whose elements overlap it: each must read its
    /// elements as they were when it was sent.
    fn guard(&mut self, rank: usize, lo: u64, hi: u64) {
        let mut i = 0;
        while let Some(&slot) = self.deferred[rank].get(i) {
            match self.slots[slot as usize].deferred {
                Some((from, _)) if from.base < hi && lo < from.end => self.materialize(slot),
                _ => i += 1,
            }
        }
    }

    /// Scatter `payload` out to `to`, and recycle it. A deferred payload
    /// from another rank of this lane moves in one copy from its
    /// elements instead.
    pub(crate) fn unpack(&mut self, payload: PayloadHandle, to: Elems) {
        let lane = self.lane(to.rank);
        self.guard(to.rank, to.base, to.end);
        let slot = payload.slot;
        match self.undefer(slot) {
            Some((from, _)) if from.rank != to.rank && usize::from(payload.lane) == lane => {
                self.free.push(slot);
                self.stats.lanes[lane].fused += 1;
                self.submit(lane, Job::Copy { from, to });
                return;
            }
            Some((from, len)) => self.gather(slot, from, len),
            None => {}
        }
        self.stats.lanes[lane].unpacks += 1;
        let (slot, keep) = self.release(payload, lane);
        self.submit(lane, Job::Unpack { slot, to, keep });
    }

    /// Copy `from` into `to`, which lies in another rank's pool on the
    /// same node, and so on the same lane.
    pub(crate) fn copy(&mut self, from: Elems, to: Elems) {
        let lane = self.lane(to.rank);
        debug_assert_eq!(lane, self.lane(from.rank), "a copy stays on one node");
        self.guard(to.rank, to.base, to.end);
        self.stats.lanes[lane].copies += 1;
        self.submit(lane, Job::Copy { from, to });
    }

    /// A payload holding the contiguous user buffer `ptr` of `rank`.
    pub(crate) fn read(&mut self, rank: usize, ptr: DevPtr) -> PayloadHandle {
        if ptr.len == 0 {
            return PayloadHandle::default();
        }
        let lane = self.lane(rank);
        self.stats.lanes[lane].reads += 1;
        let (out, fresh) = self.alloc(lane, ptr.len);
        let slot = out.slot;
        let submitted = self.submit(
            lane,
            Job::Read {
                rank,
                ptr,
                out: slot,
                fresh,
            },
        );
        self.named(slot, lane, submitted);
        out
    }

    /// Write `payload` into the contiguous user buffer `ptr` of `rank`,
    /// and recycle it.
    pub(crate) fn write(&mut self, payload: PayloadHandle, rank: usize, ptr: DevPtr) {
        let lane = self.lane(rank);
        self.guard(rank, ptr.addr, ptr.end());
        self.materialize(payload.slot);
        self.stats.lanes[lane].writes += 1;
        let (slot, keep) = self.release(payload, lane);
        self.submit(
            lane,
            Job::Write {
                slot,
                rank,
                ptr,
                keep,
            },
        );
    }

    /// A second payload with `src`'s bytes, on `src`'s lane.
    pub(crate) fn dup(&mut self, src: &PayloadHandle) -> PayloadHandle {
        if src.is_empty() {
            return PayloadHandle::default();
        }
        self.materialize(src.slot);
        let lane = usize::from(src.lane);
        self.stats.lanes[lane].dups += 1;
        let (out, fresh) = self.alloc(lane, src.len);
        let (src, slot) = (src.slot, out.slot);
        let submitted = self.submit(
            lane,
            Job::Dup {
                src,
                out: slot,
                fresh,
            },
        );
        self.named(src, lane, submitted);
        self.named(slot, lane, submitted);
        out
    }

    /// Gather `elems` into the packed buffer `packed` of the same pool
    /// (`pack`), or scatter that buffer out to them.
    pub(crate) fn explicit(&mut self, elems: Elems, packed: DevPtr, pack: bool) {
        let lane = self.lane(elems.rank);
        if pack {
            self.guard(elems.rank, packed.addr, packed.end());
        } else {
            self.guard(elems.rank, elems.base, elems.end);
        }
        self.stats.lanes[lane].explicit += 1;
        let packed = packed.addr;
        self.submit(
            lane,
            Job::Explicit {
                elems,
                packed,
                pack,
            },
        );
    }

    /// Recycle `payload` unread, on the lane that holds it. An empty
    /// payload, or a deferred one, needs no job.
    pub(crate) fn recycle(&mut self, payload: PayloadHandle) {
        if payload.is_empty() {
            return;
        }
        if self.undefer(payload.slot).is_some() {
            self.free.push(payload.slot);
            return;
        }
        let lane = usize::from(payload.lane);
        self.stats.lanes[lane].recycles += 1;
        let (slot, keep) = self.release(payload, lane);
        self.submit(lane, Job::Recycle { slot, keep });
    }

    /// Send the worker jobs not yet sent as one batch, timing any wait for
    /// room. Returns `false` when the worker has stopped (it panicked): the
    /// run must end and join it.
    fn flush(&mut self) -> bool {
        let Some(w) = &mut self.worker else {
            return true;
        };
        if w.stopped || w.outbox.is_empty() {
            return !w.stopped;
        }
        let batch = std::mem::replace(&mut w.outbox, Vec::with_capacity(BATCH));
        match w.jobs.try_send(batch) {
            Ok(()) => {}
            Err(TrySendError::Full(batch)) => {
                let start = Instant::now();
                w.stopped = send_soon(&w.jobs, batch).is_err();
                self.stats.blocked_wall_ns += start.elapsed().as_nanos() as u64;
            }
            Err(TrySendError::Disconnected(_)) => w.stopped = true,
        }
        !w.stopped
    }

    /// Is the worker, if the run has one, still running jobs? A stopped
    /// worker panicked: the run must end and join it.
    pub(super) fn running(&self) -> bool {
        self.worker.as_ref().is_none_or(|w| !w.stopped)
    }

    /// Fold the run's freelist counters into the totals and forget its
    /// layouts. Every slot must be free again.
    fn finish(&mut self) {
        debug_assert_eq!(
            self.free.len(),
            self.slots.len(),
            "payload slots outlived the run"
        );
        for (known, list) in self.layouts.iter_mut().zip(&mut self.buffers) {
            known.clear();
            self.pool.absorb(&std::mem::take(list).stats);
        }
        self.lanes.clear();
        self.deferred.clear();
    }
}

impl Cluster {
    /// Assign every rank its lane by the node rule.
    fn assign_lanes(&mut self) {
        let nodes = self
            .endpoints
            .iter()
            .map(|ep| ep.node + 1)
            .max()
            .unwrap_or(0);
        let split = loop_nodes(nodes);
        self.copies.lanes = self
            .endpoints
            .iter()
            .map(|ep| (if ep.node < split { LOOP } else { WORKER }) as u8)
            .collect();
        self.copies.deferred = vec![Vec::new(); self.endpoints.len()];
    }

    /// Move the GPU pool of every rank on `lane` into a new engine.
    fn lend_pools(&mut self, lane: usize) -> CopyEngine {
        let lanes = &self.copies.lanes;
        let pools = self
            .gpus
            .iter_mut()
            .zip(lanes)
            .map(|(gpu, &own)| {
                (usize::from(own) == lane)
                    .then(|| std::mem::replace(&mut gpu.mem, MemPool::new(0, DataMode::Full)))
            })
            .collect();
        CopyEngine::new(pools)
    }

    /// Give a stopped engine's pools back to their GPUs.
    fn return_pools(&mut self, engine: CopyEngine) {
        for (gpu, pool) in self.gpus.iter_mut().zip(engine.pools) {
            if let Some(pool) = pool {
                gpu.mem = pool;
            }
        }
    }

    /// Run `event_loop` with the run's bytes in two lanes (see the module
    /// docs): the loop's engine runs its jobs at submit, and a worker
    /// beside the loop runs the other lane's until the loop returns and
    /// every job it submitted has run. Timing-only runs move nothing, and a
    /// one-node run has no worker's lane; neither starts a thread.
    pub(crate) fn with_copy_worker(&mut self, event_loop: impl FnOnce(&mut Cluster)) {
        if self.data_mode == DataMode::ModelOnly {
            return event_loop(self);
        }
        self.assign_lanes();
        let inline = self.lend_pools(LOOP);
        self.copies.inline = Some(Box::new(inline));
        if self
            .copies
            .lanes
            .iter()
            .all(|&lane| usize::from(lane) == LOOP)
        {
            event_loop(self);
        } else {
            let engine = self.lend_pools(WORKER);
            let engine = std::thread::scope(|scope| {
                let (jobs, job_rx) = mpsc::sync_channel(QUEUE_BATCHES);
                let (wants, want_rx) = mpsc::channel();
                let (back_tx, back) = mpsc::channel();
                let worker = scope.spawn(move || engine.serve(job_rx, want_rx, back_tx));
                self.copies.worker = Some(WorkerLink {
                    jobs,
                    wants,
                    back,
                    outbox: Vec::with_capacity(BATCH),
                    submitted: 0,
                    stopped: false,
                });
                let ran = catch_unwind(AssertUnwindSafe(|| {
                    event_loop(self);
                    self.copies.flush();
                }));
                // Hang up: the worker runs what it holds, then stops.
                self.copies.worker = None;
                let joined = worker.join();
                if let Err(panic) = ran {
                    resume_unwind(panic);
                }
                joined.unwrap_or_else(|panic| resume_unwind(panic))
            });
            self.copies.stats.lanes[WORKER].busy_wall_ns += engine.busy_wall_ns;
            self.return_pools(engine);
        }
        let inline = self.copies.inline.take().expect("the loop's lane ran");
        self.return_pools(*inline);
        self.copies.finish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Two engines that own no pool, and the loop's accounting of their
    /// freelists: enough to drive payload buffers between two lanes the
    /// way [`CopyQueue`] does, in one job order.
    struct Lanes {
        engines: [CopyEngine; 2],
        lists: [Freelist; 2],
        /// Live payloads: (lane taken on, fill tag, buffer).
        live: Vec<(usize, u64, Vec<u8>)>,
        tags: u64,
        /// Returned buffers freed instead of kept.
        freed: u64,
    }

    impl Lanes {
        fn new() -> Self {
            let engine = || CopyEngine::new(Vec::new());
            Lanes {
                engines: [engine(), engine()],
                lists: Default::default(),
                live: Vec::new(),
                tags: 0,
                freed: 0,
            }
        }

        /// Take a buffer of `len` bytes on `lane` and fill it with a
        /// pattern unique to this take. The engine hands out exactly the
        /// buffer the loop predicted, and allocates only where the loop
        /// handed it one.
        fn take(&mut self, lane: usize, len: u64) -> Result<(), TestCaseError> {
            let top = self.engines[lane].free.last().map(|b| b.as_ptr());
            let (cap, fresh) = self.lists[lane].take(len);
            let hit = fresh.is_none();
            let mut buf = self.engines[lane].buffer(len, fresh);
            prop_assert_eq!(buf.len() as u64, len);
            prop_assert_eq!(buf.capacity() as u64, cap);
            if hit {
                prop_assert_eq!(Some(buf.as_ptr()), top, "a hit reuses the top buffer");
            }
            let tag = self.tags;
            self.tags += 1;
            for (i, b) in buf.iter_mut().enumerate() {
                *b = (tag as usize).wrapping_mul(31).wrapping_add(i) as u8;
            }
            self.live.push((lane, tag, buf));
            Ok(())
        }

        /// Consume live payload `victim` on `lane`, the other lane's
        /// taking it over first as [`CopyQueue::release`] does. The
        /// payload must be intact right up to its release.
        fn put(&mut self, victim: usize, lane: usize) -> Result<(), TestCaseError> {
            let (from, tag, buf) = self.live.swap_remove(victim);
            check(&buf, tag)?;
            if from != lane {
                self.lists[from].lend();
                self.lists[lane].hold();
            }
            let keep = self.lists[lane].put(buf.capacity() as u64);
            self.freed += u64::from(!keep);
            self.engines[lane].retire(buf, keep);
            Ok(())
        }

        /// After every step: each engine's freelist is the one the loop
        /// accounts for, and no freelist holds more buffers than its
        /// engine's peak in flight.
        fn check(&self) -> Result<(), TestCaseError> {
            for (engine, list) in self.engines.iter().zip(&self.lists) {
                let caps: Vec<u64> = engine.free.iter().map(|b| b.capacity() as u64).collect();
                prop_assert_eq!(&caps, &list.caps, "the two freelists hold the same buffers");
                prop_assert!(list.caps.len() as u64 <= list.peak);
                let s = list.stats;
                prop_assert_eq!(
                    s.released - s.hits - s.dropped,
                    list.caps.len() as u64,
                    "resting buffers are those returned, less those handed out or freed"
                );
            }
            Ok(())
        }

        fn stats(&self) -> PoolStats {
            let mut total = self.lists[0].stats;
            total.absorb(&self.lists[1].stats);
            total
        }
    }

    /// A live buffer still carries the pattern written when it was taken:
    /// any aliasing with a recycled buffer would tear it.
    fn check(buf: &[u8], tag: u64) -> Result<(), TestCaseError> {
        for (i, &b) in buf.iter().enumerate() {
            let want = (tag as usize).wrapping_mul(31).wrapping_add(i) as u8;
            prop_assert_eq!(b, want, "live buffer (tag {}) torn at byte {}", tag, i);
        }
        Ok(())
    }

    /// One step: take a buffer of `len` bytes on `lane`, or consume the
    /// live payload at `victim % live` on `lane` (a no-op with none live).
    #[derive(Debug, Clone)]
    enum Op {
        Take { lane: usize, len: u64 },
        Put { victim: usize, lane: usize },
    }

    fn ops(lanes: usize) -> impl Strategy<Value = Vec<Op>> {
        let op = prop_oneof![
            (0..lanes, 1u64..2048).prop_map(|(lane, len)| Op::Take { lane, len }),
            (any::<usize>(), 0..lanes).prop_map(|(victim, lane)| Op::Put { victim, lane }),
        ];
        prop::collection::vec(op, 1..160)
    }

    /// Run `ops`, checking after every step.
    fn drive(ops: Vec<Op>) -> Result<Lanes, TestCaseError> {
        let (mut lanes, mut takes, mut puts) = (Lanes::new(), 0, 0);
        for op in ops {
            match op {
                Op::Take { lane, len } => {
                    lanes.take(lane, len)?;
                    takes += 1;
                }
                Op::Put { victim, lane } => {
                    if lanes.live.is_empty() {
                        continue;
                    }
                    lanes.put(victim % lanes.live.len(), lane)?;
                    puts += 1;
                }
            }
            lanes.check()?;
            let s = lanes.stats();
            prop_assert_eq!(s.hits + s.misses, takes);
            prop_assert_eq!(s.released, puts);
            prop_assert_eq!(
                s.outstanding(),
                lanes.live.len() as i64,
                "only the sum over freelists balances"
            );
        }
        Ok(lanes)
    }

    proptest! {
        /// Takes and puts all on one lane: the freelist has no other cap
        /// than its peak, never frees a returned buffer, and holds, resting
        /// plus live, no more buffers than the peak in flight, because it
        /// allocates only when empty or when its top buffer is too short.
        #[test]
        fn one_lane_never_frees_and_stays_within_its_peak(ops in ops(1)) {
            let lanes = drive(ops)?;
            prop_assert_eq!(lanes.freed, 0);
            let list = &lanes.lists[0];
            prop_assert!(list.caps.len() as u64 + list.live <= list.peak);
        }

        /// Takes and puts on either lane, a payload consumed on the other
        /// lane than its own: each lane's resting and live buffers stay
        /// within twice its peak in flight, and the counters reconcile.
        #[test]
        fn two_lanes_stay_within_twice_their_peaks(ops in ops(2)) {
            let lanes = drive(ops)?;
            for list in &lanes.lists {
                prop_assert!(list.caps.len() as u64 + list.live <= 2 * list.peak);
            }
        }

        /// Steady-state reuse: once every buffer has been returned, a
        /// second pass of the same takes in the reverse order of their
        /// return is all hits and allocates nothing (the freelist is a
        /// stack, so the last buffer returned is the first handed out).
        #[test]
        fn a_warm_pass_is_all_hits(lens in prop::collection::vec(1u64..4096, 1..256)) {
            let mut lanes = Lanes::new();
            for &len in &lens {
                lanes.take(0, len)?;
            }
            // Last taken, first returned: the first take's buffer ends on
            // top.
            while let Some(last) = lanes.live.len().checked_sub(1) {
                lanes.put(last, 0)?;
            }
            let n = lens.len() as u64;
            prop_assert_eq!(lanes.stats().misses, n);
            for &len in &lens {
                lanes.take(0, len)?;
            }
            lanes.check()?;
            let s = lanes.stats();
            prop_assert_eq!((s.hits, s.misses, s.dropped), (n, n, 0));
        }
    }

    #[test]
    fn a_one_way_stream_frees_the_consumers_surplus() {
        // Lane 0 produces every payload and lane 1 consumes each, two in
        // flight at a time. Lane 0 never gets a buffer back, so every take
        // misses; lane 1 keeps one buffer (it holds one payload at a time)
        // and frees the rest, instead of keeping one per message.
        let mut lanes = Lanes::new();
        lanes.take(0, 64).unwrap();
        for _ in 0..100 {
            lanes.take(0, 64).unwrap();
            lanes.put(0, 1).unwrap();
            lanes.check().unwrap();
        }
        lanes.put(0, 1).unwrap();
        let s = lanes.stats();
        assert_eq!(
            (s.hits, s.misses, s.released, s.dropped),
            (0, 101, 101, 100)
        );
        assert_eq!(lanes.engines[1].free.len(), 1);
        assert!(lanes.engines[0].free.is_empty());
        assert_eq!((lanes.lists[0].peak, lanes.lists[1].peak), (2, 1));
    }

    #[test]
    fn a_short_top_buffer_is_freed_and_replaced() {
        let mut lanes = Lanes::new();
        for len in [256, 16] {
            lanes.take(0, len).unwrap();
        }
        lanes.put(0, 0).unwrap(); // 256 down first,
        lanes.put(0, 0).unwrap(); // then 16 on top.
        lanes.take(0, 8).unwrap(); // The top fits: a hit.
        lanes.take(0, 200).unwrap();
        lanes.put(0, 0).unwrap(); // 16 back on top.
        lanes.take(0, 100).unwrap(); // Too short: freed, and a miss.
        lanes.check().unwrap();
        assert!(lanes.engines[0].free.is_empty());
        let s = lanes.stats();
        assert_eq!((s.hits, s.misses, s.released, s.dropped), (2, 3, 3, 1));
    }
}
