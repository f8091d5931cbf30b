//! # fusedpack-sim
//!
//! A small, deterministic discrete-event simulation engine used by every other
//! crate in the `fusedpack` workspace to model a GPU cluster: virtual time in
//! nanoseconds, an event queue with stable FIFO ordering for simultaneous
//! events, FIFO resources (streams, links, copy engines), a seedable RNG, and
//! fast hashing of program-minted keys and of byte buffers.
//!
//! The engine is intentionally generic: it knows nothing about GPUs or MPI.
//! Higher layers define their own event payload type and drive the loop.
//!
//! ## Determinism
//!
//! Two runs with the same inputs produce bit-identical event orderings:
//! ties in event time are broken by a monotonically increasing sequence
//! number assigned at `push` time. All randomness goes through [`rng::Pcg32`]
//! with explicit seeds.

pub mod clock;
pub mod event;
pub mod fault;
pub mod hash;
pub mod resource;
pub mod rng;
pub mod shard;
pub mod slab;

pub use clock::{Duration, Time};
pub use event::{ClampStats, EventQueue, WheelStats};
pub use fault::{splitmix64, FaultPlan, FaultSite, FaultSpec, FaultSummary, RetryPolicy};
pub use hash::{digest, IntHasher, IntMap};
pub use resource::FifoResource;
pub use rng::Pcg32;
pub use shard::ShardStats;
pub use slab::Slab;
