//! A build's fill threads call the allocator not once: every allocation
//! of `ClusterBuilder::build` happens on the calling thread, before the
//! fill starts. (glibc gives a thread that allocates its own arena, which
//! the calling thread's later allocations cannot reuse.)
//!
//! The binary counts, through its global allocator, the allocations made
//! while a build runs by any thread other than the one that called it. It
//! holds this one test, so no other test's thread allocates meanwhile.

use fusedpack_gpu::DataMode;
use fusedpack_mpi::{ClusterBuilder, SchemeKind};
use fusedpack_net::{Hierarchy, Platform};
use fusedpack_workloads::halo::halo_programs;
use fusedpack_workloads::specfem::specfem3d_cm;
use fusedpack_workloads::HaloGrid;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

/// The system allocator, counting what other threads allocate while
/// [`ARMED`].
struct Counting;

static ARMED: AtomicBool = AtomicBool::new(false);
static ELSEWHERE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static BUILDER: Cell<bool> = const { Cell::new(false) };
}

impl Counting {
    fn count(&self) {
        // `try_with`: a thread may allocate while its thread-locals are
        // being torn down.
        if ARMED.load(Ordering::SeqCst) && !BUILDER.try_with(Cell::get).unwrap_or(false) {
            ELSEWHERE.fetch_add(1, Ordering::SeqCst);
        }
    }
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counting touches only atomics and a
// const-initialised thread-local, neither of which allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        self.count();
        // SAFETY: the caller's guarantees for `layout` are `System`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        self.count();
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

#[test]
fn fill_threads_allocate_nothing() {
    // 64 ranks of 24 buffers of 18.4 KB: 28 MB, a fill thread per core.
    let grid = HaloGrid::new_3d(4, 4, 4);
    let gpus = Platform::lassen().gpus_per_node;
    let mut builder = ClusterBuilder::new(Platform::lassen(), SchemeKind::fusion_default())
        .data_mode(DataMode::Full)
        .topology(Arc::new(Hierarchy::lassen_like(
            grid.ranks().div_ceil(gpus),
        )));
    for (rank, (program, _)) in halo_programs(&grid, &specfem3d_cm(512), 2, 1, 7)
        .into_iter()
        .enumerate()
    {
        builder = builder.add_rank(rank as u32 / gpus, program);
    }
    BUILDER.with(|b| b.set(true));
    ARMED.store(true, Ordering::SeqCst);
    let cluster = builder.build();
    ARMED.store(false, Ordering::SeqCst);
    assert_eq!(
        ELSEWHERE.load(Ordering::SeqCst),
        0,
        "fill threads allocated during the build"
    );
    drop(cluster);
}
