//! CUDA-like streams.
//!
//! A stream is a FIFO of device work: kernels submitted to the same stream
//! execute back-to-back in submission order.

use fusedpack_sim::{Duration, FifoResource, Time};

/// Identifies a stream within one device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StreamId(pub u32);

/// One stream: a FIFO pipeline of device work.
#[derive(Debug, Clone, Default)]
pub struct Stream {
    fifo: FifoResource,
}

impl Stream {
    pub fn new() -> Self {
        Self::default()
    }

    /// Submit work that becomes *eligible* at `ready` and takes `dur` on the
    /// device. Returns `(start, end)` honoring FIFO order.
    pub fn submit(&mut self, ready: Time, dur: Duration) -> (Time, Time) {
        self.fifo.acquire(ready, dur)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_serializes_kernels() {
        let mut s = Stream::new();
        let (a0, a1) = s.submit(Time(0), Duration(100));
        let (b0, b1) = s.submit(Time(10), Duration(50));
        assert_eq!((a0, a1), (Time(0), Time(100)));
        assert_eq!((b0, b1), (Time(100), Time(150)));
    }

    #[test]
    fn independent_streams_run_concurrently() {
        let mut s1 = Stream::new();
        let mut s2 = Stream::new();
        let (_, e1) = s1.submit(Time(0), Duration(100));
        let (_, e2) = s2.submit(Time(0), Duration(100));
        assert_eq!(e1, Time(100));
        assert_eq!(e2, Time(100), "different streams do not serialize");
    }
}
