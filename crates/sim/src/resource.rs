//! FIFO resources.
//!
//! Many modelled components serialize work in submission order: a CUDA
//! stream executes kernels back-to-back, a NIC link transmits one message at
//! a time, a DMA copy engine runs one copy at a time. [`FifoResource`]
//! captures exactly that: each `acquire` returns the interval during which
//! the work occupies the resource, starting no earlier than both the request
//! time and the completion of previously submitted work.

use crate::clock::{Duration, Time};

/// A resource that serves requests one at a time, in submission order.
#[derive(Debug, Clone, Default)]
pub struct FifoResource {
    busy_until: Time,
    /// Total time the resource has spent occupied (for utilization stats).
    busy_time: Duration,
}

impl FifoResource {
    pub fn new() -> Self {
        Self::default()
    }

    /// Submit work of length `dur` at time `now`. Returns `(start, end)`:
    /// the work begins at `max(now, end of previous work)` and occupies the
    /// resource until `start + dur`.
    pub fn acquire(&mut self, now: Time, dur: Duration) -> (Time, Time) {
        let start = now.max(self.busy_until);
        let end = start + dur;
        self.busy_until = end;
        self.busy_time += dur;
        (start, end)
    }

    /// Total occupied time across all requests.
    #[inline]
    pub fn busy_time(&self) -> Duration {
        self.busy_time
    }

    /// Reset to idle (e.g. between benchmark iterations).
    pub fn reset(&mut self) {
        *self = Self::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_resource_starts_immediately() {
        let mut r = FifoResource::new();
        let (s, e) = r.acquire(Time(100), Duration(50));
        assert_eq!((s, e), (Time(100), Time(150)));
    }

    #[test]
    fn back_to_back_serializes() {
        let mut r = FifoResource::new();
        r.acquire(Time(0), Duration(100));
        let (s, e) = r.acquire(Time(10), Duration(20));
        assert_eq!((s, e), (Time(100), Time(120)));
    }

    #[test]
    fn gap_leaves_resource_idle() {
        let mut r = FifoResource::new();
        r.acquire(Time(0), Duration(10));
        let (s, _) = r.acquire(Time(500), Duration(10));
        assert_eq!(s, Time(500));
    }

    #[test]
    fn accounting_tracks_busy_time() {
        let mut r = FifoResource::new();
        r.acquire(Time(0), Duration(10));
        r.acquire(Time(0), Duration(30));
        assert_eq!(r.busy_time(), Duration(40));
        r.reset();
        assert_eq!(r.busy_time(), Duration::ZERO);
        let (s, _) = r.acquire(Time(0), Duration(5));
        assert_eq!(s, Time::ZERO, "reset leaves the resource idle");
    }

    #[test]
    fn zero_duration_work_does_not_block() {
        let mut r = FifoResource::new();
        let (s, e) = r.acquire(Time(5), Duration::ZERO);
        assert_eq!(s, e);
        assert_eq!(r.acquire(Time(5), Duration(1)).0, Time(5));
    }
}
