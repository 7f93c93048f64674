//! Structured request-lifecycle events and the recorder that buffers them.
//!
//! The engine emits one [`Event`] per request state transition, stamped
//! with **sim time only** — the `ador-lint` wall-clock rule applies to
//! this crate, so nothing here may read `Instant`/`SystemTime`. The
//! [`FlightRecorder`] is a passive observer: recording an event never
//! mutates simulation state, which is what keeps the telemetry-off path
//! bit-identical.

use ador_units::Seconds;

/// What happened to a request at one point in its lifecycle.
///
/// Token counts are carried as `u32` (saturating; see
/// `ador_units::conv::u32_from_usize`) so one [`Event`] packs into
/// 32 bytes: the engine emits one event per committed token, and at
/// fleet scale the ring-buffer write traffic of tens of millions of
/// events is what the tracing overhead budget is spent on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// The request entered the engine's waiting queue (stamped with its
    /// arrival time).
    Enqueue,
    /// The request was admitted into the running batch for the first
    /// time.
    Admit {
        /// Prompt tokens served from the prefix cache on admission.
        cached_tokens: u32,
        /// Request-alone prefill lower bound from the replica's cost
        /// model, in whole microseconds: what prefilling the remaining
        /// prompt would cost if the request had the engine to itself.
        /// Attribution splits the measured prefill span into this ideal
        /// part and chunked-prefill interference. Zero when the emitter
        /// has no cost model at hand.
        ideal_us: u32,
    },
    /// A previously preempted request re-entered the running batch (its
    /// context is recomputed from scratch).
    Resume,
    /// A chunk of the request's prompt was prefilled this step.
    PrefillChunk {
        /// Prompt tokens processed for this request in the step.
        tokens: u32,
    },
    /// The request was evicted from the running batch (KV pressure or
    /// the stuck-prefill guard) and returned to the front of the queue.
    Preempt,
    /// A decode step appended tokens to the request's output. With
    /// speculative decoding off, `committed == 1` and the draft fields
    /// are zero; with it on, the fields expose the verify outcome.
    Commit {
        /// Tokens appended to the output this step.
        committed: u32,
        /// Draft tokens proposed by the speculator this step.
        drafted: u32,
        /// Draft tokens accepted by verification this step.
        accepted: u32,
    },
    /// The request produced its final token and left the engine.
    Complete,
    /// The cluster router shed the request (per-replica queue cap); it
    /// never reached an engine.
    Shed,
    /// A disaggregated fleet began moving the request's finished prefill
    /// context toward a decode pool — recorded in the *prefill* replica's
    /// stream at the moment the context left it.
    KvTransferStart {
        /// Context tokens whose KV is on the wire.
        tokens: u32,
    },
    /// The transferred context landed on its decode replica — recorded in
    /// the *decode* replica's stream at transfer maturity, just before the
    /// continuation request enqueues there.
    KvTransferEnd {
        /// Context tokens whose KV arrived.
        tokens: u32,
    },
}

/// One timestamped lifecycle event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Event {
    /// Simulated time at which the transition happened.
    pub time: Seconds,
    /// Id of the request the event belongs to.
    pub request: u64,
    /// The transition itself.
    pub kind: EventKind,
}

/// The event buffer behind every traced engine: a ring holding the most
/// recent `capacity` events. Once full, each new event evicts the oldest
/// one, so memory stays bounded no matter how long the run is — the
/// "flight recorder" for post-mortem of requests that missed their SLO.
/// With `capacity` [`usize::MAX`] it never wraps and is the unbounded,
/// in-order log behind full-fidelity trace export
/// ([`EventSinkKind::Log`](crate::EventSinkKind::Log)).
///
/// The buffer starts empty and grows on demand, doubling but never past
/// `capacity`, so a huge capacity costs only what is recorded.
/// Recording is then a push or a single in-place overwrite on a flat
/// buffer (no deque shuffling), because the engine emits one event per
/// committed token: at fleet scale this runs tens of millions of times
/// and is the dominant cost of turning tracing on.
///
/// Recording is passive and deterministic (no wall clock, no OS
/// entropy): it never influences the simulation, and the same event
/// stream always leaves the same buffer.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightRecorder {
    capacity: usize,
    /// Write cursor; once the buffer is full it is also the index of
    /// the oldest retained event.
    head: usize,
    events: Vec<Event>,
}

impl FlightRecorder {
    /// Creates a recorder keeping the last `capacity` events
    /// (`capacity` is clamped to at least 1). Allocates nothing until
    /// the first event.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            head: 0,
            events: Vec::new(),
        }
    }

    /// Maximum number of retained events.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of retained events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing has been recorded yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &Event> {
        // Until the buffer wraps, `head` is 0 and the second slice is
        // empty; afterwards the oldest event sits at `head`.
        let (newer, older) = (self.events.get(..self.head), self.events.get(self.head..));
        older
            .unwrap_or_default()
            .iter()
            .chain(newer.unwrap_or_default().iter())
    }

    /// Records one event, evicting the oldest once `capacity` are held.
    #[inline]
    pub fn record(&mut self, event: &Event) {
        if self.events.len() < self.capacity {
            if self.events.len() == self.events.capacity() {
                self.grow();
            }
            self.events.push(*event);
        } else if let Some(slot) = self.events.get_mut(self.head) {
            *slot = *event;
            self.head += 1;
            if self.head == self.capacity {
                self.head = 0;
            }
        }
    }

    /// Doubles the buffer as `Vec::push` would, but never past
    /// `capacity`.
    #[cold]
    fn grow(&mut self) {
        let len = self.events.len();
        self.events
            .reserve_exact(len.max(4).min(self.capacity - len));
    }

    /// Removes and returns every retained event, oldest first, leaving
    /// the recorder empty and reusable. The ring is rotated in place and
    /// its buffer handed over, so draining never holds two copies of a
    /// large log.
    pub fn drain(&mut self) -> Vec<Event> {
        self.events.rotate_left(self.head);
        self.head = 0;
        std::mem::take(&mut self.events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t: f64, request: u64, kind: EventKind) -> Event {
        Event {
            time: Seconds::new(t),
            request,
            kind,
        }
    }

    #[test]
    fn unbounded_recorder_preserves_order_and_drains() {
        let mut log = FlightRecorder::new(usize::MAX);
        log.record(&ev(0.0, 1, EventKind::Enqueue));
        log.record(&ev(
            0.5,
            1,
            EventKind::Admit {
                cached_tokens: 0,
                ideal_us: 0,
            },
        ));
        assert_eq!(log.len(), 2);
        let drained = log.drain();
        assert_eq!(drained.len(), 2);
        assert_eq!(drained[0].kind, EventKind::Enqueue);
        assert!(log.is_empty());
    }

    #[test]
    fn huge_capacities_allocate_on_demand_and_behave_like_a_log() {
        // A capacity is a bound, not a reservation: neither of these may
        // allocate up front (the second would ask for 32 TiB).
        for capacity in [usize::MAX, 1 << 40] {
            let mut log = FlightRecorder::new(capacity);
            assert_eq!(log.capacity(), capacity);
            for i in 0..1_000u64 {
                log.record(&ev(i as f64, i, EventKind::Enqueue));
            }
            assert_eq!(log.len(), 1_000);
            let drained: Vec<u64> = log.drain().iter().map(|e| e.request).collect();
            assert_eq!(drained, (0..1_000).collect::<Vec<_>>());
            assert!(log.is_empty());
        }
    }

    #[test]
    fn the_buffer_never_outgrows_the_capacity() {
        let mut ring = FlightRecorder::new(100);
        for i in 0..1_000u64 {
            ring.record(&ev(i as f64, i, EventKind::Enqueue));
            assert!(ring.events.capacity() <= 100);
        }
        assert_eq!(ring.len(), 100);
    }

    #[test]
    fn flight_recorder_keeps_only_the_most_recent_events() {
        let mut ring = FlightRecorder::new(3);
        for i in 0..5u64 {
            ring.record(&ev(i as f64, i, EventKind::Enqueue));
        }
        assert_eq!(ring.len(), 3);
        let kept: Vec<u64> = ring.events().map(|e| e.request).collect();
        assert_eq!(kept, vec![2, 3, 4]);
    }

    #[test]
    fn events_stay_one_32_byte_slot() {
        // The tracing overhead budget (BENCH_telemetry.json) is spent
        // almost entirely on ring writes; growing the event struct
        // grows that traffic proportionally. Widen deliberately or
        // repack, don't drift.
        assert!(std::mem::size_of::<Event>() <= 32);
    }

    #[test]
    fn flight_recorder_drains_oldest_first_after_wrapping() {
        let mut ring = FlightRecorder::new(4);
        for i in 0..11u64 {
            ring.record(&ev(i as f64, i, EventKind::Enqueue));
        }
        let drained: Vec<u64> = ring.drain().iter().map(|e| e.request).collect();
        assert_eq!(drained, vec![7, 8, 9, 10]);
        assert!(ring.is_empty(), "drain resets the ring");
        ring.record(&ev(99.0, 99, EventKind::Complete));
        let kept: Vec<u64> = ring.events().map(|e| e.request).collect();
        assert_eq!(kept, vec![99], "the ring is reusable after a drain");
    }

    #[test]
    fn zero_capacity_is_clamped() {
        let mut ring = FlightRecorder::new(0);
        assert_eq!(ring.capacity(), 1);
        ring.record(&ev(0.0, 1, EventKind::Enqueue));
        ring.record(&ev(1.0, 2, EventKind::Enqueue));
        assert_eq!(ring.len(), 1);
    }
}
