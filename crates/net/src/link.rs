//! α–β links with FIFO serialization.
//!
//! A transfer of `n` bytes on an idle link completes after
//! `α + n/β` (latency plus serialization time); concurrent transfers on one
//! link queue behind each other, modelling wire occupancy.

use fusedpack_sim::{Duration, FifoResource, Time};

/// Static description of a link type.
#[derive(Debug, Clone)]
pub struct LinkSpec {
    pub name: &'static str,
    /// One-way bandwidth, bytes/s.
    pub bw: f64,
    /// First-byte latency.
    pub latency: Duration,
}

impl LinkSpec {
    /// NVLink2 between GPUs, 75 GB/s one-way (Lassen, Table II).
    pub fn nvlink2_75() -> Self {
        LinkSpec {
            name: "NVLink2 (75 GB/s)",
            bw: 75.0e9,
            latency: Duration::from_nanos(700),
        }
    }

    /// NVLink2 between GPUs, 50 GB/s one-way (ABCI, Table II).
    pub fn nvlink2_50() -> Self {
        LinkSpec {
            name: "NVLink2 (50 GB/s)",
            bw: 50.0e9,
            latency: Duration::from_nanos(700),
        }
    }

    /// Dual-rail Mellanox InfiniBand EDR, 25 GB/s one-way aggregate
    /// (both platforms, Table II).
    pub fn ib_edr_dual() -> Self {
        LinkSpec {
            name: "2x IB EDR (25 GB/s)",
            bw: 25.0e9,
            latency: Duration::from_nanos(1_300),
        }
    }

    /// One rail of the dual-rail EDR attachment: same first-byte latency,
    /// `1/rails` of the aggregate bandwidth. The topology layer wires one
    /// of these per rail so ECMP can spread concurrent transfers while a
    /// single stream tops out at the per-rail rate.
    pub fn ib_edr_rail(rails: u32) -> Self {
        assert!(rails >= 1);
        LinkSpec {
            name: "ib-rail",
            bw: 25.0e9 / rails as f64,
            latency: Duration::from_nanos(1_300),
        }
    }

    /// Wire time for `bytes` ignoring queueing.
    pub fn wire_time(&self, bytes: u64) -> Duration {
        self.latency + Duration::from_secs_f64(bytes as f64 / self.bw)
    }

    /// Round-trip control latency: the cost of a NACK (or ACK) turnaround
    /// in the retransmission protocol.
    pub fn rtt(&self) -> Duration {
        self.latency * 2
    }
}

/// A live link instance: spec + FIFO occupancy state.
#[derive(Debug, Clone)]
pub struct Link {
    spec: LinkSpec,
    fifo: FifoResource,
    bytes_carried: u64,
    bytes_wasted: u64,
}

impl Link {
    pub fn new(spec: LinkSpec) -> Self {
        Link {
            spec,
            fifo: FifoResource::new(),
            bytes_carried: 0,
            bytes_wasted: 0,
        }
    }

    #[inline]
    pub fn spec(&self) -> &LinkSpec {
        &self.spec
    }

    /// Submit a transfer at `now`; returns `(first_byte_sent, delivered)`.
    ///
    /// The wire is occupied for the serialization time only; latency is
    /// pipelined (a second message can start serializing while the first's
    /// tail is still in flight).
    pub fn transmit(&mut self, now: Time, bytes: u64) -> (Time, Time) {
        let ser = Duration::from_secs_f64(bytes as f64 / self.spec.bw);
        let (start, wire_done) = self.fifo.acquire(now, ser);
        self.bytes_carried += bytes;
        (start, wire_done + self.spec.latency)
    }

    /// Transmit with an effective bandwidth cap below the link's nominal
    /// rate (e.g. GPUDirect reads limited by the PCIe path to the GPU).
    #[inline]
    pub fn transmit_capped(&mut self, now: Time, bytes: u64, bw_cap: f64) -> (Time, Time) {
        let bw = self.spec.bw.min(bw_cap);
        let ser = Duration::from_secs_f64(bytes as f64 / bw);
        let (start, wire_done) = self.fifo.acquire(now, ser);
        self.bytes_carried += bytes;
        (start, wire_done + self.spec.latency)
    }

    /// Occupy the wire with a transmission that never delivers — a payload
    /// dropped (or corrupted) mid-flight in a fault-injection run. Later
    /// traffic still queues behind it; the sender only learns of the loss
    /// via its retransmission timeout (or the receiver's NACK).
    /// Returns `(first_byte_sent, wire_clear)` — there is no delivery.
    #[inline]
    pub fn transmit_wasted(&mut self, now: Time, bytes: u64, bw_cap: Option<f64>) -> (Time, Time) {
        let bw = bw_cap.map_or(self.spec.bw, |cap| self.spec.bw.min(cap));
        let ser = Duration::from_secs_f64(bytes as f64 / bw);
        let (start, wire_done) = self.fifo.acquire(now, ser);
        self.bytes_carried += bytes;
        self.bytes_wasted += bytes;
        (start, wire_done)
    }

    pub fn bytes_carried(&self) -> u64 {
        self.bytes_carried
    }

    /// Bytes that occupied the wire but were dropped before delivery.
    pub fn bytes_wasted(&self) -> u64 {
        self.bytes_wasted
    }

    pub fn busy_time(&self) -> Duration {
        self.fifo.busy_time()
    }

    pub fn reset(&mut self) {
        self.fifo.reset();
        self.bytes_carried = 0;
        self.bytes_wasted = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_time_is_alpha_plus_beta() {
        let spec = LinkSpec::ib_edr_dual();
        let t = spec.wire_time(25_000_000_000); // exactly 1 second of payload
        assert_eq!(t, spec.latency + Duration::from_secs_f64(1.0));
    }

    #[test]
    fn transfers_serialize_but_latency_pipelines() {
        let mut link = Link::new(LinkSpec {
            name: "test",
            bw: 1e9, // 1 GB/s -> 1 ns per byte
            latency: Duration(500),
        });
        let (s1, d1) = link.transmit(Time(0), 1000);
        let (s2, d2) = link.transmit(Time(0), 1000);
        assert_eq!((s1, d1), (Time(0), Time(1500)));
        // Second message starts serializing when the first's tail leaves.
        assert_eq!((s2, d2), (Time(1000), Time(2500)));
    }

    #[test]
    fn capped_transmit_is_slower() {
        let mut a = Link::new(LinkSpec::ib_edr_dual());
        let mut b = Link::new(LinkSpec::ib_edr_dual());
        let (_, full) = a.transmit(Time(0), 1 << 20);
        let (_, capped) = b.transmit_capped(Time(0), 1 << 20, 12.0e9);
        assert!(capped > full);
    }

    #[test]
    fn accounting() {
        let mut link = Link::new(LinkSpec::nvlink2_75());
        link.transmit(Time(0), 100);
        link.transmit(Time(0), 200);
        assert_eq!(link.bytes_carried(), 300);
        link.reset();
        assert_eq!(link.bytes_carried(), 0);
    }

    #[test]
    fn wasted_transmit_occupies_wire_without_delivering() {
        let mut link = Link::new(LinkSpec {
            name: "test",
            bw: 1e9,
            latency: Duration(500),
        });
        let (s1, clear) = link.transmit_wasted(Time(0), 1000, None);
        // Full serialization, no latency tail: the payload never arrives.
        assert_eq!((s1, clear), (Time(0), Time(1000)));
        // A follow-up real transmission queues behind the doomed one.
        let (s2, d2) = link.transmit(Time(0), 1000);
        assert_eq!((s2, d2), (Time(1000), Time(2500)));
        assert_eq!(link.bytes_wasted(), 1000);
        assert_eq!(link.bytes_carried(), 2000);
        link.reset();
        assert_eq!(link.bytes_wasted(), 0);
    }

    #[test]
    fn rtt_is_twice_latency() {
        let spec = LinkSpec::ib_edr_dual();
        assert_eq!(spec.rtt(), spec.latency * 2);
    }

    #[test]
    fn nvlink_variants_ordered() {
        assert!(LinkSpec::nvlink2_75().bw > LinkSpec::nvlink2_50().bw);
        assert!(LinkSpec::nvlink2_50().bw > LinkSpec::ib_edr_dual().bw);
    }

    #[test]
    fn rails_divide_the_aggregate() {
        let dual = LinkSpec::ib_edr_dual();
        let rail = LinkSpec::ib_edr_rail(2);
        assert_eq!(rail.bw * 2.0, dual.bw);
        assert_eq!(rail.latency, dual.latency);
    }
}
