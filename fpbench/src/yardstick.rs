//! The host-speed yardstick.
//!
//! The measuring host's speed swings by up to 2x over minutes: other
//! tenants share its physical cores, and CPU time equals wall time inside
//! the VM, so the slowdown is invisible to the process. No amount of
//! repetition averages such a phase out of a 10-second run. Every rep is
//! therefore bracketed by a fixed kernel, and the end-to-end times are
//! scaled to the host speed at which that kernel takes [`NOMINAL_SECS`].
//!
//! The kernel is a small event loop in the simulator's own style: a
//! 4,096-event binary-heap hold model, random updates of a 256 KB table and
//! hash-map lookups. It uses only `std` and allocates nothing once built,
//! so no change to the repository's crates (not even a global allocator)
//! can speed it up: a faster simulator still reads faster.
//!
//! Over 18 minutes of a noisy 2-vCPU host (1,039 reps of serve-flat,
//! halo-model and halo-bytes), the kernel's time tracked `Cluster::run`'s
//! with correlation 0.94–0.97 and a log-log slope of 1.05–1.17, and
//! scaling by it cut the per-rep spread of run time about 3x (log standard
//! deviation 0.23 → 0.07–0.08). The table size matters: with a 2 MB table
//! the kernel was more sensitive to cache contention than the simulator
//! (slope 0.74–0.81) and over-corrected.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::hint::black_box;
use std::time::Instant;

/// The kernel's time on the host the baselines were recorded on, in its
/// quiet phases (its 5th percentile over the reps above). Host slowdown is
/// measured relative to it.
pub const NOMINAL_SECS: f64 = 0.021;

const STEPS: u32 = 250_000;
const TABLE: usize = 1 << 15;

pub struct Yardstick {
    heap: BinaryHeap<Reverse<(u64, u64)>>,
    table: Vec<u64>,
    map: HashMap<u64, u64>,
    x: u64,
}

impl Yardstick {
    pub fn new() -> Self {
        let mut y = Yardstick {
            heap: BinaryHeap::with_capacity(4096),
            table: vec![1; TABLE],
            map: HashMap::with_capacity(1024),
            x: 0x9e37_79b9_7f4a_7c15,
        };
        for id in 0..4096 {
            let t = y.next() % 100_000;
            y.heap.push(Reverse((t, id)));
        }
        for k in 0..1024 {
            y.map.insert(k, k);
        }
        y
    }

    /// xorshift64.
    fn next(&mut self) -> u64 {
        self.x ^= self.x << 13;
        self.x ^= self.x >> 7;
        self.x ^= self.x << 17;
        self.x
    }

    /// Run the kernel once; returns the host slowdown, its time over
    /// [`NOMINAL_SECS`] (above 1 on a slower host).
    pub fn slowdown(&mut self) -> f64 {
        let start = Instant::now();
        for _ in 0..STEPS {
            let Reverse((t, id)) = self.heap.pop().expect("the hold keeps 4096 events");
            let r = self.next();
            let slot = r as usize % TABLE;
            self.table[slot] = self.table[slot].wrapping_add(t);
            if let Some(v) = self.map.get_mut(&(id % 1024)) {
                *v ^= r;
            }
            self.heap.push(Reverse((t + 1 + (r >> 40) % 5_000, id)));
        }
        black_box(&self.table);
        start.elapsed().as_secs_f64() / NOMINAL_SECS
    }
}
