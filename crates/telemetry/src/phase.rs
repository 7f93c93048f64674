//! Per-request phase decomposition of an event stream.
//!
//! Turns the flat lifecycle [`Event`] stream into spans — the answer to
//! "*why* did this request miss its TTFT target": time queued, time in
//! chunked prefill, time decoding, and time stalled by preemption.

use std::collections::BTreeMap;

use ador_units::Seconds;

use crate::event::{Event, EventKind};

/// The lifecycle phase a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Enqueue → first admission: waiting for batch slots/KV headroom.
    Queue,
    /// Admission (or resume) → first committed token: chunked prefill.
    Prefill,
    /// First committed token → completion: token generation.
    Decode,
    /// Preemption → resume: evicted from the batch, awaiting recompute.
    Stall,
}

impl Phase {
    /// Stable lower-case label (used as the Chrome trace event name).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Phase::Queue => "queue",
            Phase::Prefill => "prefill",
            Phase::Decode => "decode",
            Phase::Stall => "preempted",
        }
    }
}

/// One contiguous phase interval of one request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// The request the span belongs to.
    pub request: u64,
    /// Which phase the interval covers.
    pub phase: Phase,
    /// Sim time the phase began.
    pub start: Seconds,
    /// Sim time the phase ended.
    pub end: Seconds,
}

/// Derives phase spans from an event stream (one engine's events, in
/// recording order). Spans are emitted in the order they *close*, which
/// is deterministic for a deterministic stream. Phases still open when
/// the stream ends (requests in flight) are dropped.
#[must_use]
pub fn spans(events: &[Event]) -> Vec<Span> {
    let mut open: BTreeMap<u64, (Phase, Seconds)> = BTreeMap::new();
    let mut out = Vec::new();
    let close = |open: &mut BTreeMap<u64, (Phase, Seconds)>,
                 out: &mut Vec<Span>,
                 request: u64,
                 end: Seconds| {
        if let Some((phase, start)) = open.remove(&request) {
            if end >= start {
                out.push(Span {
                    request,
                    phase,
                    start,
                    end,
                });
            }
        }
    };
    for e in events {
        match e.kind {
            EventKind::Enqueue => {
                open.insert(e.request, (Phase::Queue, e.time));
            }
            EventKind::Admit { .. } | EventKind::Resume => {
                close(&mut open, &mut out, e.request, e.time);
                open.insert(e.request, (Phase::Prefill, e.time));
            }
            EventKind::PrefillChunk { .. } => {}
            EventKind::Commit { .. } => {
                // The first commit ends prefill; later commits extend
                // the already-open decode span.
                if let Some(&(Phase::Prefill, _)) = open.get(&e.request) {
                    close(&mut open, &mut out, e.request, e.time);
                    open.insert(e.request, (Phase::Decode, e.time));
                }
            }
            EventKind::Preempt => {
                close(&mut open, &mut out, e.request, e.time);
                open.insert(e.request, (Phase::Stall, e.time));
            }
            EventKind::Complete => {
                close(&mut open, &mut out, e.request, e.time);
            }
            EventKind::Shed => {
                close(&mut open, &mut out, e.request, e.time);
            }
            // Transfer endpoints are instant markers around the pool
            // handoff: the prefill side already closed its spans with
            // `Complete`, and the decode side opens fresh ones at the
            // continuation's `Enqueue`.
            EventKind::KvTransferStart { .. } | EventKind::KvTransferEnd { .. } => {}
        }
    }
    out
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
    fn simple_lifecycle_decomposes_into_three_phases() {
        let events = [
            ev(0.0, 1, EventKind::Enqueue),
            ev(
                1.0,
                1,
                EventKind::Admit {
                    cached_tokens: 0,
                    ideal_us: 0,
                },
            ),
            ev(1.5, 1, EventKind::PrefillChunk { tokens: 256 }),
            ev(
                2.0,
                1,
                EventKind::Commit {
                    committed: 1,
                    drafted: 0,
                    accepted: 0,
                },
            ),
            ev(5.0, 1, EventKind::Complete),
        ];
        let s = spans(&events);
        assert_eq!(s.len(), 3);
        assert_eq!(s[0].phase, Phase::Queue);
        assert_eq!((s[0].start.get(), s[0].end.get()), (0.0, 1.0));
        assert_eq!(s[1].phase, Phase::Prefill);
        assert_eq!((s[1].start.get(), s[1].end.get()), (1.0, 2.0));
        assert_eq!(s[2].phase, Phase::Decode);
        assert_eq!((s[2].start.get(), s[2].end.get()), (2.0, 5.0));
    }

    #[test]
    fn preemption_inserts_a_stall_and_a_second_prefill() {
        let commit = EventKind::Commit {
            committed: 1,
            drafted: 0,
            accepted: 0,
        };
        let events = [
            ev(0.0, 7, EventKind::Enqueue),
            ev(
                0.5,
                7,
                EventKind::Admit {
                    cached_tokens: 0,
                    ideal_us: 0,
                },
            ),
            ev(1.0, 7, commit),
            ev(2.0, 7, EventKind::Preempt),
            ev(3.0, 7, EventKind::Resume),
            ev(4.0, 7, commit),
            ev(6.0, 7, EventKind::Complete),
        ];
        let s = spans(&events);
        let phases: Vec<Phase> = s.iter().map(|s| s.phase).collect();
        assert_eq!(
            phases,
            vec![
                Phase::Queue,
                Phase::Prefill,
                Phase::Decode,
                Phase::Stall,
                Phase::Prefill,
                Phase::Decode,
            ]
        );
        let stall = s[3];
        assert_eq!((stall.start.get(), stall.end.get()), (2.0, 3.0));
    }

    #[test]
    fn in_flight_requests_produce_no_dangling_spans() {
        let events = [
            ev(0.0, 1, EventKind::Enqueue),
            ev(
                1.0,
                1,
                EventKind::Admit {
                    cached_tokens: 0,
                    ideal_us: 0,
                },
            ),
        ];
        let s = spans(&events);
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].phase, Phase::Queue);
    }

    #[test]
    fn interleaved_requests_stay_separate() {
        let events = [
            ev(0.0, 1, EventKind::Enqueue),
            ev(0.2, 2, EventKind::Enqueue),
            ev(
                1.0,
                2,
                EventKind::Admit {
                    cached_tokens: 64,
                    ideal_us: 0,
                },
            ),
            ev(
                2.0,
                1,
                EventKind::Admit {
                    cached_tokens: 0,
                    ideal_us: 0,
                },
            ),
        ];
        let s = spans(&events);
        assert_eq!(s.len(), 2);
        assert_eq!((s[0].request, s[0].end.get()), (2, 1.0));
        assert_eq!((s[1].request, s[1].end.get()), (1, 2.0));
    }
}
