//! The copy engine: the one owner of the bytes a `DataMode::Full` run
//! moves.
//!
//! For the whole of [`Cluster::run`] a [`CopyEngine`] owns every byte that
//! can move: each rank's GPU memory pool (moved out of its `Gpu` when the
//! run starts and moved back when it ends) and every payload buffer,
//! recycled through its [`BufferPool`]. The event loop never touches those
//! bytes. It submits [`Job`]s through the cluster's [`CopyQueue`] and
//! carries [`PayloadHandle`]s — a slot in the engine's payload table and a
//! length — where it used to carry `Vec<u8>`s: in a `WireMsg`, in
//! `RankState::packed` and in `RankState::landed`. A handle is not `Clone`:
//! the job that consumes a payload (an unpack, a write into a user buffer,
//! a recycle) takes it by value, so the loop cannot name a payload twice.
//!
//! Jobs run in submission order, which is the order in which the event
//! loop used to move the bytes inline, so every byte, checksum and
//! pool counter is what the inline code produced. Where they run depends
//! on the run:
//!
//! * a single-queue `Full` run: on one scoped worker thread beside the
//!   event loop ([`Cluster::with_copy_worker`]). A dispatch's jobs collect
//!   in the queue's outbox and go to the worker, in order, through a
//!   channel of [`QUEUE_DEPTH`] jobs once the dispatch returns. The run
//!   joins the worker before it checks its run-end invariants, and a
//!   panic on either side surfaces from `Cluster::run` with its own
//!   message: the loop owns the channel's only sender, so unwinding drops
//!   it and the worker stops, and a worker panic fails the loop's next send
//!   and is re-raised when the loop joins it;
//! * each shard of a sharded run: on the shard's own thread, when the job
//!   is submitted. A payload bound for another shard moves from one
//!   shard's engine to the other's during barrier replay
//!   ([`CopyQueue::hand_over`]);
//! * a timing-only run: nowhere. It moves no bytes, submits nothing and
//!   carries only empty handles.
//!
//! The loop hands out payload slots itself and takes a slot back when it
//! submits the job that consumes the payload; a reused slot is only ever
//! named by a later job, so the engine, running jobs in order, never sees
//! a slot in use twice.

use super::handoff::{recv_soon, send_soon};
use super::{Cluster, Ranged};
use fusedpack_datatype::CompiledLayout;
use fusedpack_gpu::{BufferPool, DataMode, DevPtr, Elements, MemPool, PoolStats};
use fusedpack_sim::IntMap;
use std::sync::mpsc::{self, Receiver, SyncSender, TrySendError};
use std::sync::Arc;
use std::time::Instant;

/// Jobs the channel to a copy worker holds before the event loop waits
/// for room.
const QUEUE_DEPTH: usize = 256;

/// A payload held by the copy engine: its slot in the engine's payload
/// table and its length in bytes. The default handle is empty: it names
/// no slot and carries no bytes (timing-only runs, control packets, empty
/// messages).
#[derive(Debug, Default, PartialEq, Eq)]
pub struct PayloadHandle {
    slot: u32,
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

/// Copy-engine work in one run. The job counts are deterministic and
/// identical at any shard count; the two times are host wall-clock, like
/// the times in `ShardStats`, and excluded from that identity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CopyStats {
    /// Staged sends gathered into a payload.
    pub packs: u64,
    /// Staged receives scattered from their payload.
    pub unpacks: u64,
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
    /// Host time the engine spent running jobs, in nanoseconds.
    pub busy_wall_ns: u64,
    /// Host time the event loop spent waiting for room in a full job
    /// queue, in nanoseconds (always zero when jobs run at submit).
    pub blocked_wall_ns: u64,
}

impl CopyStats {
    /// Jobs executed, of every kind.
    pub fn jobs(&self) -> u64 {
        self.packs
            + self.unpacks
            + self.copies
            + self.reads
            + self.writes
            + self.dups
            + self.explicit
            + self.recycles
    }

    /// Fold another engine's counters into these.
    fn absorb(&mut self, other: &CopyStats) {
        self.packs += other.packs;
        self.unpacks += other.unpacks;
        self.copies += other.copies;
        self.reads += other.reads;
        self.writes += other.writes;
        self.dups += other.dups;
        self.explicit += other.explicit;
        self.recycles += other.recycles;
        self.busy_wall_ns += other.busy_wall_ns;
        self.blocked_wall_ns += other.blocked_wall_ns;
    }
}

/// `count` elements of a layout based at `base` in one rank's pool: one
/// side of a job. The layout is named by its index in the engine's
/// layout list ([`CopyQueue::elems`]).
pub(crate) struct Elems {
    rank: usize,
    layout: u32,
    base: u64,
    count: u64,
}

/// One unit of byte movement. Payloads are named by slot.
pub(crate) enum Job {
    /// Append a layout to the engine's list: the first job naming it
    /// follows. Moves no bytes, and is not counted.
    Layout(Arc<CompiledLayout>),
    /// Gather elements into a new payload of `len` bytes in slot `out`.
    Pack { from: Elems, out: u32, len: u64 },
    /// Scatter the payload in `slot` out to elements, and recycle it.
    Unpack { slot: u32, to: Elems },
    /// Copy elements of one rank's pool into elements of another's.
    Copy { from: Elems, to: Elems },
    /// Read a contiguous user buffer into a new payload in slot `out`.
    Read { rank: usize, ptr: DevPtr, out: u32 },
    /// Write the payload in `slot` into a contiguous user buffer, and
    /// recycle it.
    Write { slot: u32, rank: usize, ptr: DevPtr },
    /// Copy the payload in `src` into a new payload in slot `out`.
    Dup { src: u32, out: u32 },
    /// Gather elements into the packed region at `packed` of the same
    /// pool (`pack`), or scatter that region out to them.
    Explicit {
        elems: Elems,
        packed: u64,
        pack: bool,
    },
    /// Recycle the payload in a slot unread.
    Recycle(u32),
}

/// The owner of a run's bytes: the ranks' GPU pools, the payloads in
/// flight, and the buffers they recycle through.
pub(crate) struct CopyEngine {
    pools: Ranged<MemPool>,
    /// Every layout a job has named, in first-use order. Jobs name a
    /// layout by index rather than each carrying an `Arc`, whose
    /// reference count the event loop and the worker would otherwise
    /// both write on every job.
    layouts: Vec<Arc<CompiledLayout>>,
    /// Slot → payload bytes (empty: a free slot).
    payloads: Vec<Vec<u8>>,
    buffers: BufferPool,
    /// The packed image of layout-to-layout copies that cannot zip their
    /// run tables, kept from copy to copy.
    scratch: Vec<u8>,
    stats: CopyStats,
}

impl CopyEngine {
    fn new(pools: Ranged<MemPool>) -> Self {
        CopyEngine {
            pools,
            layouts: Vec::new(),
            payloads: Vec::new(),
            buffers: BufferPool::new(),
            scratch: Vec::new(),
            stats: CopyStats::default(),
        }
    }

    /// Run jobs from `jobs` until the event loop hangs up, then hand the
    /// engine back.
    fn serve(mut self, jobs: Receiver<Job>) -> Self {
        while let Ok(job) = recv_soon(&jobs) {
            self.run(job);
        }
        self
    }

    fn run(&mut self, job: Job) {
        let start = Instant::now();
        let (s, layouts) = (&mut self.stats, &self.layouts);
        match job {
            Job::Layout(layout) => self.layouts.push(layout),
            Job::Pack { from, out, len } => {
                s.packs += 1;
                let mut buf = self.buffers.take(len as usize);
                let layout = &layouts[from.layout as usize];
                self.pools[from.rank].gather_into(layout, from.base, from.count, &mut buf);
                self.put(out, buf);
            }
            Job::Unpack { slot, to } => {
                s.unpacks += 1;
                let buf = self.take(slot);
                let layout = &self.layouts[to.layout as usize];
                self.pools[to.rank].scatter_from(&buf, layout, to.base, to.count);
                self.buffers.put(buf);
            }
            Job::Copy { from, to } => {
                s.copies += 1;
                let view = |e: &Elems| Elements::new(&layouts[e.layout as usize], e.base, e.count);
                let (src, dst) = self.pools.pair_mut(from.rank, to.rank);
                src.copy_to(view(&from), dst, view(&to), &mut self.scratch);
            }
            Job::Read { rank, ptr, out } => {
                s.reads += 1;
                let mut buf = self.buffers.take(ptr.len as usize);
                buf.copy_from_slice(self.pools[rank].read(ptr));
                self.put(out, buf);
            }
            Job::Write { slot, rank, ptr } => {
                s.writes += 1;
                let buf = self.take(slot);
                self.pools[rank].write(ptr, &buf);
                self.buffers.put(buf);
            }
            Job::Dup { src, out } => {
                s.dups += 1;
                let bytes = &self.payloads[src as usize];
                let mut buf = self.buffers.take(bytes.len());
                buf.copy_from_slice(bytes);
                self.put(out, buf);
            }
            Job::Explicit {
                elems,
                packed,
                pack,
            } => {
                s.explicit += 1;
                let layout = &layouts[elems.layout as usize];
                let pool = &mut self.pools[elems.rank];
                if pack {
                    pool.gather(layout, elems.base, elems.count, packed);
                } else {
                    pool.scatter(packed, layout, elems.base, elems.count);
                }
            }
            Job::Recycle(slot) => {
                s.recycles += 1;
                let buf = self.take(slot);
                self.buffers.put(buf);
            }
        }
        self.stats.busy_wall_ns += start.elapsed().as_nanos() as u64;
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

/// Where a [`CopyQueue`]'s jobs go.
#[derive(Default)]
enum Sink {
    /// No run in progress, or a timing-only one: nothing may be submitted.
    #[default]
    Idle,
    /// A shard of a sharded run: each job runs as it is submitted.
    Inline(Box<CopyEngine>),
    /// A single-queue run: jobs wait here until the dispatch that
    /// submitted them returns, then go to the worker in order.
    Outbox(Vec<Job>),
}

/// The event loop's side of the copy engine: the payload slots it hands
/// out, where its jobs go, and the counters of the engines it fed.
#[derive(Default)]
pub(crate) struct CopyQueue {
    sink: Sink,
    /// Slots taken back from consumed payloads, reused last-in first-out.
    free: Vec<u32>,
    /// The next never-used slot.
    next: u32,
    /// Address of each layout this queue's engine holds → its index in
    /// the engine's list. The engine's `Arc` keeps the address from being
    /// reused while the run lasts.
    layouts: IntMap<usize, u32>,
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
        self.pool
    }

    /// Fold a finished shard's counters into these.
    pub(crate) fn absorb(&mut self, other: &CopyQueue) {
        self.stats.absorb(&other.stats);
        self.pool.absorb(&other.pool);
    }

    fn submit(&mut self, job: Job) {
        match &mut self.sink {
            Sink::Idle => unreachable!("a copy job submitted outside a Full run"),
            Sink::Inline(engine) => engine.run(job),
            Sink::Outbox(jobs) => jobs.push(job),
        }
    }

    /// `count` elements of `layout` based at `base` in `rank`'s pool, for
    /// a job. The first time the engine meets a layout, a job hands it
    /// its own `Arc`.
    pub(crate) fn elems(
        &mut self,
        rank: usize,
        layout: &Arc<CompiledLayout>,
        base: u64,
        count: u64,
    ) -> Elems {
        let key = Arc::as_ptr(layout) as usize;
        let layout = match self.layouts.get(&key) {
            Some(&index) => index,
            None => {
                let index = self.layouts.len() as u32;
                self.layouts.insert(key, index);
                self.submit(Job::Layout(Arc::clone(layout)));
                index
            }
        };
        Elems {
            rank,
            layout,
            base,
            count,
        }
    }

    /// A handle for a new payload of `len` bytes in a free slot.
    fn alloc(&mut self, len: u64) -> PayloadHandle {
        let slot = self.free.pop().unwrap_or_else(|| {
            self.next += 1;
            self.next - 1
        });
        PayloadHandle { slot, len }
    }

    /// Take back the slot of a payload the next job consumes.
    fn release(&mut self, payload: PayloadHandle) -> u32 {
        debug_assert!(!payload.is_empty(), "an empty payload names no slot");
        self.free.push(payload.slot);
        payload.slot
    }

    /// Gather `from` into a new payload of `len` bytes (at least the
    /// elements' packed size).
    pub(crate) fn pack(&mut self, from: Elems, len: u64) -> PayloadHandle {
        let out = self.alloc(len);
        self.submit(Job::Pack {
            from,
            out: out.slot,
            len,
        });
        out
    }

    /// Scatter `payload` out to `to`, and recycle it.
    pub(crate) fn unpack(&mut self, payload: PayloadHandle, to: Elems) {
        let slot = self.release(payload);
        self.submit(Job::Unpack { slot, to });
    }

    /// Copy `from` into `to`, which lies in another rank's pool.
    pub(crate) fn copy(&mut self, from: Elems, to: Elems) {
        self.submit(Job::Copy { from, to });
    }

    /// A payload holding the contiguous user buffer `ptr` of `rank`.
    pub(crate) fn read(&mut self, rank: usize, ptr: DevPtr) -> PayloadHandle {
        if ptr.len == 0 {
            return PayloadHandle::default();
        }
        let out = self.alloc(ptr.len);
        self.submit(Job::Read {
            rank,
            ptr,
            out: out.slot,
        });
        out
    }

    /// Write `payload` into the contiguous user buffer `ptr` of `rank`,
    /// and recycle it.
    pub(crate) fn write(&mut self, payload: PayloadHandle, rank: usize, ptr: DevPtr) {
        let slot = self.release(payload);
        self.submit(Job::Write { slot, rank, ptr });
    }

    /// A second payload with `src`'s bytes.
    pub(crate) fn dup(&mut self, src: &PayloadHandle) -> PayloadHandle {
        if src.is_empty() {
            return PayloadHandle::default();
        }
        let out = self.alloc(src.len);
        self.submit(Job::Dup {
            src: src.slot,
            out: out.slot,
        });
        out
    }

    /// Gather `elems` into the packed region at `packed` of the same pool
    /// (`pack`), or scatter that region out to them.
    pub(crate) fn explicit(&mut self, elems: Elems, packed: u64, pack: bool) {
        self.submit(Job::Explicit {
            elems,
            packed,
            pack,
        });
    }

    /// Recycle `payload` unread. An empty payload needs nothing.
    pub(crate) fn recycle(&mut self, payload: PayloadHandle) {
        if !payload.is_empty() {
            let slot = self.release(payload);
            self.submit(Job::Recycle(slot));
        }
    }

    /// Move `payload` from this queue's engine into `to`'s: a message
    /// crossing shards at a barrier. Both run their jobs at submit, so
    /// every job naming the payload so far has run.
    pub(crate) fn hand_over(
        &mut self,
        payload: PayloadHandle,
        to: &mut CopyQueue,
    ) -> PayloadHandle {
        if payload.is_empty() {
            return payload;
        }
        let len = payload.len;
        let slot = self.release(payload);
        let bytes = self.inline_engine().take(slot);
        let out = to.alloc(len);
        to.inline_engine().put(out.slot, bytes);
        out
    }

    fn inline_engine(&mut self) -> &mut CopyEngine {
        match &mut self.sink {
            Sink::Inline(engine) => engine,
            _ => unreachable!("payloads change shards only between inline engines"),
        }
    }

    /// Send the jobs the last dispatch submitted to the worker, in order,
    /// timing any wait for room. Returns `false` when the worker has
    /// stopped (it panicked): the run must end and join it.
    pub(super) fn flush(&mut self, tx: &SyncSender<Job>) -> bool {
        let Sink::Outbox(jobs) = &mut self.sink else {
            return true;
        };
        for job in jobs.drain(..) {
            match tx.try_send(job) {
                Ok(()) => {}
                Err(TrySendError::Full(job)) => {
                    let start = Instant::now();
                    let sent = send_soon(tx, job).is_ok();
                    self.stats.blocked_wall_ns += start.elapsed().as_nanos() as u64;
                    if !sent {
                        return false;
                    }
                }
                Err(TrySendError::Disconnected(_)) => return false,
            }
        }
        true
    }

    /// Fold a stopped engine's counters into these and hand back its
    /// pools. Every slot must be free again.
    fn finish(&mut self, engine: CopyEngine) -> Ranged<MemPool> {
        debug_assert_eq!(
            self.free.len(),
            self.next as usize,
            "payload slots outlived the run"
        );
        self.layouts.clear();
        self.stats.absorb(&engine.stats);
        self.pool.absorb(&engine.buffers.stats());
        engine.pools
    }
}

/// Where the event loop's dispatches send their jobs: `Some` on a
/// single-queue `Full` run, whose worker takes them after each dispatch.
pub(crate) type JobSender<'a> = Option<&'a SyncSender<Job>>;

impl Cluster {
    /// Move every local rank's GPU pool into a new engine.
    fn lend_pools(&mut self) -> CopyEngine {
        let base = self.gpus.indices().start;
        let pools = self
            .gpus
            .iter_mut()
            .map(|gpu| std::mem::replace(&mut gpu.mem, MemPool::new(0, DataMode::Full)))
            .collect();
        CopyEngine::new(Ranged::with_base(base, pools))
    }

    /// Give a stopped engine's pools back to the GPUs.
    fn return_pools(&mut self, engine: CopyEngine) {
        let pools = self.copies.finish(engine).into_vec();
        for (gpu, pool) in self.gpus.iter_mut().zip(pools) {
            gpu.mem = pool;
        }
    }

    /// Run `event_loop` with a copy worker beside it (see the module
    /// docs): the worker owns the bytes until the loop returns and every
    /// job it submitted has run. Timing-only runs move nothing and start
    /// no thread.
    pub(crate) fn with_copy_worker(&mut self, event_loop: impl FnOnce(&mut Cluster, JobSender)) {
        if self.data_mode == DataMode::ModelOnly {
            return event_loop(self, None);
        }
        let engine = self.lend_pools();
        self.copies.sink = Sink::Outbox(Vec::new());
        let engine = std::thread::scope(|scope| {
            let (tx, rx) = mpsc::sync_channel(QUEUE_DEPTH);
            let worker = scope.spawn(move || engine.serve(rx));
            event_loop(self, Some(&tx));
            self.copies.flush(&tx);
            drop(tx);
            worker
                .join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
        });
        self.copies.sink = Sink::Idle;
        self.return_pools(engine);
    }

    /// Give this shard an engine that runs each job at submit.
    pub(crate) fn start_inline_copies(&mut self) {
        if self.data_mode == DataMode::Full {
            let engine = self.lend_pools();
            self.copies.sink = Sink::Inline(Box::new(engine));
        }
    }

    /// Stop this shard's engine and give its pools back.
    pub(crate) fn stop_inline_copies(&mut self) {
        if let Sink::Inline(engine) = std::mem::take(&mut self.copies.sink) {
            self.return_pools(*engine);
        }
    }
}
