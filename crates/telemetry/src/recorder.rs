//! The recorder and the cheap, cloneable [`Telemetry`] handle.

use crate::event::{CounterSample, Event, Lane, Payload, SpanId};
use fusedpack_sim::Time;
use std::sync::{Arc, Mutex};

/// Collected timeline state. Owned behind the [`Telemetry`] handle; use
/// [`Telemetry::snapshot`] to extract it for export.
#[derive(Debug, Default)]
pub(crate) struct Recorder {
    events: Vec<Event>,
    counters: Vec<CounterSample>,
    /// Open spans: (id, index into `events`). Spans are recorded at open
    /// time with `dur == None` and patched on close.
    open: Vec<(SpanId, usize)>,
    next_span: u64,
}

/// Everything a run recorded, detached from the live recorder.
#[derive(Debug, Clone, Default)]
pub struct TimelineSnapshot {
    pub events: Vec<Event>,
    pub counters: Vec<CounterSample>,
    /// Always 0: the recorder is unbounded and drops nothing. Kept for
    /// readers that report it.
    pub dropped: u64,
    /// Spans opened but never closed (should be 0 after a clean run).
    pub unclosed_spans: usize,
}

/// Handle used by instrumented code. Cloning is cheap (an `Option<Arc>`
/// plus a rank tag); a disabled handle costs one branch per call and never
/// evaluates payload closures.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<Mutex<Recorder>>>,
    rank: u32,
}

impl Telemetry {
    /// A no-op handle: records nothing, costs one branch per call.
    pub fn disabled() -> Self {
        Telemetry::default()
    }

    /// A live unbounded recorder (rank 0 until re-scoped).
    pub fn enabled() -> Self {
        Telemetry {
            inner: Some(Arc::new(Mutex::new(Recorder::default()))),
            rank: 0,
        }
    }

    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// A handle that shares this recorder but tags events with `rank`.
    pub fn for_rank(&self, rank: u32) -> Self {
        Telemetry {
            inner: self.inner.clone(),
            rank,
        }
    }

    pub fn rank(&self) -> u32 {
        self.rank
    }

    /// Record an instantaneous event. `payload` is only evaluated when
    /// the recorder is live.
    pub fn instant(&self, lane: Lane, at: Time, payload: impl FnOnce() -> Payload) {
        if let Some(inner) = &self.inner {
            let ev = Event {
                rank: self.rank,
                lane,
                start: at,
                dur: None,
                payload: payload(),
            };
            inner.lock().expect("telemetry lock").events.push(ev);
        }
    }

    /// Record a complete span `[start, end]` in one call. Most simulation
    /// code knows both endpoints when it models an operation, so this is
    /// the common span API. `end < start` is clamped to an empty span.
    pub fn span(&self, lane: Lane, start: Time, end: Time, payload: impl FnOnce() -> Payload) {
        if let Some(inner) = &self.inner {
            let ev = Event {
                rank: self.rank,
                lane,
                start,
                dur: Some(end.since(start)),
                payload: payload(),
            };
            inner.lock().expect("telemetry lock").events.push(ev);
        }
    }

    /// Open a span whose end is not yet known (e.g. entering a blocking
    /// wait). Returns `None` when disabled; pass the result to [`close`].
    ///
    /// [`close`]: Telemetry::close
    pub fn open(&self, lane: Lane, at: Time, payload: impl FnOnce() -> Payload) -> Option<SpanId> {
        let inner = self.inner.as_ref()?;
        let mut r = inner.lock().expect("telemetry lock");
        let id = SpanId(r.next_span);
        r.next_span += 1;
        let idx = r.events.len();
        let ev = Event {
            rank: self.rank,
            lane,
            start: at,
            dur: None,
            payload: payload(),
        };
        r.events.push(ev);
        r.open.push((id, idx));
        Some(id)
    }

    /// Close a span returned by [`open`]; a `None` id (disabled recorder)
    /// is a no-op.
    ///
    /// [`open`]: Telemetry::open
    pub fn close(&self, id: Option<SpanId>, at: Time) {
        let (Some(inner), Some(id)) = (&self.inner, id) else {
            return;
        };
        let mut r = inner.lock().expect("telemetry lock");
        if let Some(pos) = r.open.iter().position(|(sid, _)| *sid == id) {
            let (_, idx) = r.open.swap_remove(pos);
            let start = r.events[idx].start;
            r.events[idx].dur = Some(at.since(start));
        }
    }

    /// Sample a counter track (rendered as a Perfetto counter lane).
    pub fn counter(&self, at: Time, name: &'static str, value: f64) {
        if let Some(inner) = &self.inner {
            let mut r = inner.lock().expect("telemetry lock");
            let rank = self.rank;
            r.counters.push(CounterSample {
                rank,
                at,
                name,
                value,
            });
        }
    }

    /// Clone out everything recorded so far.
    pub fn snapshot(&self) -> TimelineSnapshot {
        match &self.inner {
            None => TimelineSnapshot::default(),
            Some(inner) => {
                let r = inner.lock().expect("telemetry lock");
                TimelineSnapshot {
                    events: r.events.clone(),
                    counters: r.counters.clone(),
                    dropped: 0,
                    unclosed_spans: r.open.len(),
                }
            }
        }
    }

    /// Number of events recorded so far (0 when disabled).
    pub fn len(&self) -> usize {
        self.inner
            .as_ref()
            .map_or(0, |r| r.lock().expect("telemetry lock").events.len())
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fusedpack_sim::Duration;

    #[test]
    fn disabled_handle_records_nothing() {
        let t = Telemetry::disabled();
        t.instant(Lane::Host, Time(5), || Payload::Marker { label: "x" });
        t.span(Lane::Host, Time(5), Time(9), || Payload::Marker {
            label: "y",
        });
        let id = t.open(Lane::Host, Time(5), || Payload::Marker { label: "z" });
        assert!(id.is_none());
        t.close(id, Time(7));
        t.counter(Time(5), "ring", 1.0);
        assert!(!t.is_enabled());
        assert!(t.is_empty());
        assert!(t.snapshot().events.is_empty());
    }

    /// The acceptance-criteria branch-count assertion: a disabled recorder
    /// must never evaluate the payload closure, so the only cost of an
    /// instrumentation point is the `Option` branch itself.
    #[test]
    fn disabled_recorder_never_evaluates_payloads() {
        let t = Telemetry::disabled();
        t.instant(Lane::Host, Time(0), || {
            panic!("payload closure evaluated on a disabled recorder")
        });
        t.span(Lane::Nic, Time(0), Time(1), || {
            panic!("payload closure evaluated on a disabled recorder")
        });
        let id = t.open(Lane::Stream(0), Time(0), || {
            panic!("payload closure evaluated on a disabled recorder")
        });
        assert!(id.is_none());
    }

    #[test]
    fn open_close_patches_duration() {
        let t = Telemetry::enabled();
        let id = t.open(Lane::Host, Time(10), || Payload::SyncWait {
            kind: crate::event::WaitKindTag::Network,
        });
        assert!(id.is_some());
        t.close(id, Time(25));
        let snap = t.snapshot();
        assert_eq!(snap.unclosed_spans, 0);
        assert_eq!(snap.events.len(), 1);
        assert_eq!(snap.events[0].dur, Some(Duration(15)));
        assert_eq!(snap.events[0].end(), Time(25));
    }

    #[test]
    fn rank_scoping_tags_events() {
        let root = Telemetry::enabled();
        let r0 = root.for_rank(0);
        let r1 = root.for_rank(1);
        r0.instant(Lane::Host, Time(1), || Payload::Marker { label: "a" });
        r1.instant(Lane::Host, Time(2), || Payload::Marker { label: "b" });
        let snap = root.snapshot();
        assert_eq!(snap.events.len(), 2);
        assert_eq!(snap.events[0].rank, 0);
        assert_eq!(snap.events[1].rank, 1);
    }
}
