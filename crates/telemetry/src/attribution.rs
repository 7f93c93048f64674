//! Time-loss attribution: from lifecycle events to an exact, conserved
//! per-request latency decomposition and per-tenant blame reports.
//!
//! Attainment numbers say *that* a request missed its SLO; this module
//! says *why*. [`attribute_events`] replays a fleet's recorded event
//! streams (drained [`crate::FlightRecorder`] contents) and
//! decomposes every completed request's end-to-end latency into the
//! component set of [`Components`]:
//!
//! * **queue** — enqueue-to-admission wait (both pools, under
//!   disaggregation);
//! * **prefill ideal vs interference** — the admission-to-first-commit
//!   span split at the request-alone lower bound the engine stamped on
//!   `Admit { ideal_us }`; the excess is chunked-prefill interference
//!   from batch-mates sharing the iteration budget;
//! * **preemption stall + recompute** — time parked off-batch after an
//!   eviction, plus the redone prefill work (the evicted progress and
//!   the recompute-on-resume pass);
//! * **speculative waste** — the rejected-draft share of each verify
//!   step, `dur x rejected / (drafted + 1)` in integer nanoseconds;
//! * **decode ideal vs stall** — each commit interval's net time split
//!   at the request's own best observed per-token rate; stretch beyond
//!   it is charged to prefill interference when a prefill chunk (any
//!   request) landed on the same replica inside the interval, decode
//!   stall otherwise;
//! * **KV handoff** — the prefill-complete-to-decode-enqueue gap of a
//!   disaggregated request (link latency + transfer serialization).
//!
//! **Conservation invariant:** all arithmetic happens on integer
//! nanoseconds (each event timestamp is converted exactly once), every
//! inter-event gap is charged to exactly one component, and splits are
//! integer partitions of a gap — so the components of every returned
//! [`RequestAttribution`] sum *exactly* to its measured end-to-end
//! nanoseconds. A proptest pins this across schedulers, topologies and
//! speculation settings.
//!
//! Fidelity depends on [`crate::EventDetail`]: `PerToken` streams give
//! the full decode split; `Lifecycle` streams elide steady commits, so
//! elided decode time is charged as ideal decode service (still exactly
//! conserved, just coarser). Requests whose lifecycle is incomplete —
//! evicted from a [`crate::FlightRecorder`] ring, shed at the router,
//! or still in flight — are skipped, not guessed at.

use ador_units::{conv, Seconds};

use crate::event::{Event, EventKind};

/// Converts a sim timestamp to integer nanoseconds (exactly once per
/// event, so downstream arithmetic is exact): `(t * 1e9).round()`,
/// saturating, without libm ([`conv::u64_from_f64_rounded`]).
fn nanos(t: Seconds) -> u64 {
    conv::u64_from_f64_rounded(t.get() * 1e9)
}

/// The conserved per-request latency decomposition, in integer
/// nanoseconds. The field sum equals the request's measured end-to-end
/// latency exactly (see the module docs for each component's meaning).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Components {
    /// Enqueue-to-admission wait, across both pools under disaggregation.
    pub queue_ns: u64,
    /// Request-alone prefill lower bound actually realized.
    pub prefill_ideal_ns: u64,
    /// Prefill span beyond the lower bound, plus decode stretch in
    /// intervals where a prefill chunk shared the replica: the cost of
    /// chunked-prefill batch-mates.
    pub prefill_interference_ns: u64,
    /// Time parked off-batch between eviction and re-admission (plus
    /// any decode gap cut short by the eviction).
    pub preempt_stall_ns: u64,
    /// Prefill work thrown away at eviction plus the recompute pass
    /// after resume.
    pub recompute_ns: u64,
    /// Rejected-draft share of verify steps.
    pub spec_waste_ns: u64,
    /// Decode service at the request's best observed per-token rate.
    pub decode_ns: u64,
    /// Decode stretch beyond the best observed rate with no prefill
    /// chunk sharing the replica (KV pressure, verify pricing of
    /// batch-mates, batch-width effects).
    pub decode_stall_ns: u64,
    /// Prefill-complete-to-decode-enqueue gap under disaggregation.
    pub handoff_ns: u64,
}

impl Components {
    /// Sum of every component — equals the request's end-to-end
    /// nanoseconds by the conservation invariant.
    #[must_use]
    pub fn total_ns(&self) -> u64 {
        self.queue_ns
            + self.prefill_ideal_ns
            + self.prefill_interference_ns
            + self.preempt_stall_ns
            + self.recompute_ns
            + self.spec_waste_ns
            + self.decode_ns
            + self.decode_stall_ns
            + self.handoff_ns
    }

    /// Sum of the *loss* components only (everything except ideal
    /// prefill and ideal decode service).
    #[must_use]
    pub fn lost_ns(&self) -> u64 {
        self.total_ns() - self.prefill_ideal_ns - self.decode_ns
    }

    /// Nanoseconds lost to one cause (0 for [`MissCause::Intrinsic`]).
    #[must_use]
    pub fn lost_for(&self, cause: MissCause) -> u64 {
        match cause {
            MissCause::Queue => self.queue_ns,
            MissCause::PrefillInterference => self.prefill_interference_ns,
            MissCause::Preemption => self.preempt_stall_ns + self.recompute_ns,
            MissCause::SpecWaste => self.spec_waste_ns,
            MissCause::DecodeStall => self.decode_stall_ns,
            MissCause::KvHandoff => self.handoff_ns,
            MissCause::Intrinsic => 0,
        }
    }

    /// Field-wise accumulation — exact, since everything is integer.
    pub fn add(&mut self, other: &Self) {
        self.queue_ns += other.queue_ns;
        self.prefill_ideal_ns += other.prefill_ideal_ns;
        self.prefill_interference_ns += other.prefill_interference_ns;
        self.preempt_stall_ns += other.preempt_stall_ns;
        self.recompute_ns += other.recompute_ns;
        self.spec_waste_ns += other.spec_waste_ns;
        self.decode_ns += other.decode_ns;
        self.decode_stall_ns += other.decode_stall_ns;
        self.handoff_ns += other.handoff_ns;
    }
}

/// The dominant reason a request missed its SLO: the loss component
/// that cost it the most time (ties broken by [`MISS_CAUSES`] order).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MissCause {
    /// Waiting in an admission queue dominated.
    Queue,
    /// Chunked-prefill interference from batch-mates dominated.
    PrefillInterference,
    /// Preemption (stall plus recompute penalty) dominated.
    Preemption,
    /// Rejected speculative drafts dominated.
    SpecWaste,
    /// Decode stretch with no co-resident prefill dominated.
    DecodeStall,
    /// The disaggregation KV handoff gap dominated.
    KvHandoff,
    /// No time was lost at all — the SLO is infeasible for this
    /// request's ideal service time on this hardware.
    Intrinsic,
}

/// Every cause, in the fixed priority order used for tie-breaks and for
/// the histogram layout of [`AttributionReport::miss_causes`].
pub const MISS_CAUSES: [MissCause; 7] = [
    MissCause::Queue,
    MissCause::PrefillInterference,
    MissCause::Preemption,
    MissCause::SpecWaste,
    MissCause::DecodeStall,
    MissCause::KvHandoff,
    MissCause::Intrinsic,
];

impl MissCause {
    /// Position in [`MISS_CAUSES`] (and in the report histogram).
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            Self::Queue => 0,
            Self::PrefillInterference => 1,
            Self::Preemption => 2,
            Self::SpecWaste => 3,
            Self::DecodeStall => 4,
            Self::KvHandoff => 5,
            Self::Intrinsic => 6,
        }
    }

    /// Stable kebab-case label for tables and JSON artifacts.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Self::Queue => "queue",
            Self::PrefillInterference => "prefill-interference",
            Self::Preemption => "preemption",
            Self::SpecWaste => "spec-waste",
            Self::DecodeStall => "decode-stall",
            Self::KvHandoff => "kv-handoff",
            Self::Intrinsic => "intrinsic",
        }
    }
}

impl std::fmt::Display for MissCause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// One completed request's conserved latency decomposition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestAttribution {
    /// The request id the decomposition belongs to.
    pub request: u64,
    /// Measured end-to-end latency (first enqueue to last complete).
    pub e2e_ns: u64,
    /// Where that time went. Sums exactly to `e2e_ns`.
    pub components: Components,
}

impl RequestAttribution {
    /// The loss component that cost this request the most time
    /// ([`MissCause::Intrinsic`] when nothing was lost).
    #[must_use]
    pub fn dominant_loss(&self) -> MissCause {
        let mut best = MissCause::Intrinsic;
        let mut best_ns = 0u64;
        for cause in MISS_CAUSES {
            let lost = self.components.lost_for(cause);
            if lost > best_ns {
                best = cause;
                best_ns = lost;
            }
        }
        best
    }

    /// True when the components sum exactly to the measured end-to-end
    /// time — the invariant [`attribute_events`] guarantees.
    #[must_use]
    pub fn conserved(&self) -> bool {
        self.components.total_ns() == self.e2e_ns
    }
}

/// Aggregated blame for a set of requests (one tenant class, or a whole
/// fleet). All counters are integers, so [`AttributionReport::merge`]
/// is exact: merging per-tenant reports reproduces the fleet report
/// bit-for-bit.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct AttributionReport {
    /// Completed requests with a full attributed lifecycle.
    pub requests: u64,
    /// How many of them missed their SLO.
    pub misses: u64,
    /// Requests shed at the router — no lifecycle to attribute; they
    /// count as misses in attainment but carry no time-loss here.
    pub shed: u64,
    /// Miss count per dominant cause, indexed like [`MISS_CAUSES`].
    pub miss_causes: [u64; MISS_CAUSES.len()],
    /// Component totals over *all* attributed requests (missed or not)
    /// — the time-lost-per-cause ledger, exact under merge.
    pub totals: Components,
}

impl AttributionReport {
    /// Folds one request in, blaming its dominant loss if it missed.
    pub fn record(&mut self, attr: &RequestAttribution, missed: bool) {
        self.requests += 1;
        self.totals.add(&attr.components);
        if missed {
            self.misses += 1;
            self.miss_causes[attr.dominant_loss().index()] += 1;
        }
    }

    /// Adds `count` shed requests (no lifecycle, no time-loss).
    pub fn record_shed(&mut self, count: u64) {
        self.shed += count;
    }

    /// Exact field-wise merge; merging tenant reports yields the fleet
    /// report with no rounding drift.
    pub fn merge(&mut self, other: &Self) {
        self.requests += other.requests;
        self.misses += other.misses;
        self.shed += other.shed;
        for (mine, theirs) in self.miss_causes.iter_mut().zip(&other.miss_causes) {
            *mine += theirs;
        }
        self.totals.add(&other.totals);
    }

    /// Misses blamed on one cause.
    #[must_use]
    pub fn miss_count(&self, cause: MissCause) -> u64 {
        self.miss_causes[cause.index()]
    }

    /// Total nanoseconds lost to one cause across all requests.
    #[must_use]
    pub fn lost_ns(&self, cause: MissCause) -> u64 {
        self.totals.lost_for(cause)
    }

    /// Total nanoseconds lost across all causes and requests.
    #[must_use]
    pub fn total_lost_ns(&self) -> u64 {
        self.totals.lost_ns()
    }

    /// The cause blamed for the most misses (`None` when nothing
    /// missed); ties resolve to the earlier [`MISS_CAUSES`] entry.
    #[must_use]
    pub fn dominant_cause(&self) -> Option<MissCause> {
        let mut best: Option<MissCause> = None;
        let mut best_count = 0u64;
        for cause in MISS_CAUSES {
            let count = self.miss_count(cause);
            if count > best_count {
                best = Some(cause);
                best_count = count;
            }
        }
        best
    }
}

/// One decode commit interval, pending the rate split of
/// [`finalize_decode`].
struct DecodeInterval {
    start: u64,
    end: u64,
    replica: usize,
    committed: u64,
    drafted: u64,
    accepted: u64,
}

/// Walker phase between two lifecycle boundaries.
enum Ph {
    Queued,
    Prefill { ideal_ns: u64, recompute: bool },
    Decode,
    Stalled,
    Done,
}

/// Replays per-replica event streams into per-request attributions.
///
/// `replicas[r]` is replica `r`'s recorded stream (drained from its
/// sink); a disaggregated request's events are stitched across streams
/// by request id. Returns one [`RequestAttribution`] per request with a
/// complete, well-formed lifecycle, ordered by request id; truncated
/// (ring-evicted), shed, or in-flight requests are skipped.
///
/// Cost: linear in the events. A radix sort on the request id groups
/// them, in 8 bytes of working memory per event when the ids are dense
/// (16 when they spread wider); each request's events are then copied
/// into one reused buffer, stably time-sorted and walked. Nothing is
/// allocated per request, except inside the standard library's stable
/// sort, which allocates a heap buffer for a lifecycle too long for its
/// on-stack one (more than 128 events with today's `std`: long
/// per-token streams).
#[must_use]
pub fn attribute_events(replicas: &[Vec<Event>]) -> Vec<RequestAttribution> {
    let prefill_ts = prefill_timelines(replicas);
    let mut out = Vec::new();
    let mut events: Vec<(u64, usize, EventKind)> = Vec::new();
    let mut intervals: Vec<DecodeInterval> = Vec::new();
    let mut attribute = |request: u64, events: &mut Vec<(u64, usize, EventKind)>| {
        // Stable sort: `Enqueue` is stamped at arrival time (possibly
        // before previously recorded events), so streams are not
        // globally time-ordered; ties keep recording order.
        events.sort_by_key(|&(t, _, _)| t);
        if let Some(attr) = walk(request, events, &prefill_ts, &mut intervals) {
            debug_assert!(attr.conserved(), "attribution must conserve e2e time");
            out.push(attr);
        }
        events.clear();
    };
    let mut current = None;
    for loc in group_by_request(replicas) {
        let e = loc.event(replicas);
        if let Some(request) = current.filter(|&request| request != e.request) {
            attribute(request, &mut events);
        }
        current = Some(e.request);
        events.push((nanos(e.time), loc.replica(), e.kind));
    }
    if let Some(request) = current {
        attribute(request, &mut events);
    }
    out
}

/// Where an event was recorded: its replica's stream and its index
/// there, in 8 bytes.
#[derive(Debug, Default, Clone, Copy)]
struct Loc {
    replica: u32,
    index: u32,
}

impl Loc {
    /// Event `index` of replica `replica`'s stream.
    ///
    /// # Panics
    ///
    /// Panics on a replica or stream index of 2^32 or more.
    fn new(replica: usize, index: usize) -> Self {
        let narrow = |n: usize| {
            // ador-lint: allow(panic) — invariant: a stream of 2^32 32-byte events would hold 128 GiB
            u32::try_from(n).expect("fewer than 2^32 replicas and events per stream")
        };
        Self {
            replica: narrow(replica),
            index: narrow(index),
        }
    }

    fn replica(self) -> usize {
        conv::usize_from_u32(self.replica)
    }

    fn event(self, replicas: &[Vec<Event>]) -> &Event {
        &replicas[self.replica()][conv::usize_from_u32(self.index)]
    }
}

/// Every event's location, ordered by request id and, within a request,
/// in recording order (replica by replica, each stream in order).
///
/// A least-significant-digit radix sort on each id's offset from the
/// smallest id, over only the bits those offsets use, so it runs in time
/// linear in the events. Dense ids (a fleet's, numbered from a base)
/// take one counting pass when their offsets fit a histogram of at most
/// a quarter as many counts as events (or 256); otherwise each pass
/// sorts by 8 more bits, and ids spread over all 64 bits take eight.
/// Passes are stable and read each id through its location, so the
/// working memory is the locations (8 bytes per event, twice when a
/// second pass runs) and the histogram.
fn group_by_request(replicas: &[Vec<Event>]) -> Vec<Loc> {
    let n: usize = replicas.iter().map(Vec::len).sum();
    if n == 0 {
        return Vec::new();
    }
    let (lo, hi) = replicas
        .iter()
        .flatten()
        .fold((u64::MAX, 0), |(lo, hi), e| {
            (lo.min(e.request), hi.max(e.request))
        });
    let bits = u64::BITS - (hi - lo).leading_zeros();
    let one_pass = 1usize
        .checked_shl(bits)
        .is_some_and(|counts| counts <= (n / 4).max(256));
    let (width, passes) = if one_pass {
        (bits, 1)
    } else {
        (8, bits.div_ceil(8))
    };
    let mask = (1 << width) - 1;
    let mut counts = vec![0; 1 << width];
    let recorded = replicas.iter().enumerate().flat_map(|(r, stream)| {
        stream
            .iter()
            .enumerate()
            .map(move |(i, e)| (Loc::new(r, i), e.request))
    });
    let mut order = vec![Loc::default(); n];
    counting_pass(recorded, &mut order, &mut counts, |id| {
        conv::usize_from_u64((id - lo) & mask)
    });
    if passes > 1 {
        let mut spare = vec![Loc::default(); n];
        for pass in 1..passes {
            let located = order.iter().map(|&loc| (loc, loc.event(replicas).request));
            counting_pass(located, &mut spare, &mut counts, |id| {
                conv::usize_from_u64((id - lo) >> (pass * width) & mask)
            });
            std::mem::swap(&mut order, &mut spare);
        }
    }
    order
}

/// One stable counting-sort pass: scatters the locations of `src`
/// (location, request id) pairs into `dst`, as long, in ascending
/// `digit(id)` order and in `src` order within a digit. `counts` holds
/// one counter per digit value; it is overwritten.
fn counting_pass(
    src: impl Iterator<Item = (Loc, u64)> + Clone,
    dst: &mut [Loc],
    counts: &mut [usize],
    digit: impl Fn(u64) -> usize,
) {
    counts.fill(0);
    for (_, id) in src.clone() {
        counts[digit(id)] += 1;
    }
    // Each digit's first output slot.
    let mut next = 0;
    for count in counts.iter_mut() {
        next += *count;
        *count = next - *count;
    }
    for (loc, id) in src {
        let slot = &mut counts[digit(id)];
        dst[*slot] = loc;
        *slot += 1;
    }
}

/// Per-replica sorted prefill-chunk timelines: the witness used to
/// decide whether decode stretch was prefill interference.
fn prefill_timelines(replicas: &[Vec<Event>]) -> Vec<Vec<u64>> {
    replicas
        .iter()
        .map(|stream| {
            let mut ts: Vec<u64> = stream
                .iter()
                .filter(|e| matches!(e.kind, EventKind::PrefillChunk { .. }))
                .map(|e| nanos(e.time))
                .collect();
            ts.sort_unstable();
            ts
        })
        .collect()
}

/// Walks one request's time-ordered events, charging every inter-event
/// gap to exactly one component. Returns `None` on any malformed or
/// truncated lifecycle. `intervals` is scratch space, reused across
/// requests.
fn walk(
    request: u64,
    events: &[(u64, usize, EventKind)],
    prefill_ts: &[Vec<u64>],
    intervals: &mut Vec<DecodeInterval>,
) -> Option<RequestAttribution> {
    let (&(start, _, first), rest) = events.split_first()?;
    if first != EventKind::Enqueue {
        return None;
    }
    let mut c = Components::default();
    intervals.clear();
    let mut at = start;
    let mut end = start;
    let mut ph = Ph::Queued;
    for &(t, replica, kind) in rest {
        let gap = t.checked_sub(at)?;
        match kind {
            // Instant markers: no boundary, the open gap stays open.
            EventKind::PrefillChunk { .. }
            | EventKind::KvTransferStart { .. }
            | EventKind::KvTransferEnd { .. } => continue,
            EventKind::Shed => return None,
            EventKind::Enqueue => {
                // Disaggregation: the finished prefill hands off to a
                // decode pool, where the continuation re-enqueues.
                if !matches!(ph, Ph::Done) {
                    return None;
                }
                c.handoff_ns += gap;
                ph = Ph::Queued;
            }
            EventKind::Admit { ideal_us, .. } => {
                if !matches!(ph, Ph::Queued) {
                    return None;
                }
                c.queue_ns += gap;
                ph = Ph::Prefill {
                    ideal_ns: u64::from(ideal_us) * 1_000,
                    recompute: false,
                };
            }
            EventKind::Resume => {
                if !matches!(ph, Ph::Stalled) {
                    return None;
                }
                c.preempt_stall_ns += gap;
                // The resumed pass redoes lost work: no ideal credit.
                ph = Ph::Prefill {
                    ideal_ns: 0,
                    recompute: true,
                };
            }
            EventKind::Preempt => match ph {
                Ph::Prefill { .. } => {
                    // In-flight prefill progress is discarded on
                    // eviction; that span is pure recompute debt.
                    c.recompute_ns += gap;
                    ph = Ph::Stalled;
                }
                Ph::Decode => {
                    c.preempt_stall_ns += gap;
                    ph = Ph::Stalled;
                }
                _ => return None,
            },
            EventKind::Commit {
                committed,
                drafted,
                accepted,
            } => match ph {
                Ph::Prefill {
                    ideal_ns,
                    recompute,
                } => {
                    if recompute {
                        c.recompute_ns += gap;
                    } else {
                        let ideal = ideal_ns.min(gap);
                        c.prefill_ideal_ns += ideal;
                        c.prefill_interference_ns += gap - ideal;
                    }
                    ph = Ph::Decode;
                }
                Ph::Decode => intervals.push(DecodeInterval {
                    start: at,
                    end: t,
                    replica,
                    committed: u64::from(committed),
                    drafted: u64::from(drafted),
                    accepted: u64::from(accepted),
                }),
                _ => return None,
            },
            EventKind::Complete => {
                if !matches!(ph, Ph::Decode) {
                    return None;
                }
                if gap > 0 {
                    // Lifecycle-detail streams elide steady commits;
                    // the closing gap is indivisible decode service.
                    intervals.push(DecodeInterval {
                        start: at,
                        end: t,
                        replica,
                        committed: 0,
                        drafted: 0,
                        accepted: 0,
                    });
                }
                end = t;
                ph = Ph::Done;
            }
        }
        at = t;
    }
    if !matches!(ph, Ph::Done) {
        return None;
    }
    finalize_decode(&mut c, intervals, prefill_ts);
    Some(RequestAttribution {
        request,
        e2e_ns: end - start,
        components: c,
    })
}

/// Splits each decode interval's duration into speculative waste, ideal
/// service at the request's best observed rate, and stretch — charged
/// to prefill interference when a prefill chunk shared the replica
/// inside the interval, decode stall otherwise. Integer partitions
/// throughout, so the interval durations are conserved exactly.
fn finalize_decode(c: &mut Components, intervals: &[DecodeInterval], prefill_ts: &[Vec<u64>]) {
    // The request-alone decode baseline: its own best observed net
    // per-token time. `m * committed <= net` for every interval by
    // construction, so the stretch split below never underflows.
    let m = intervals
        .iter()
        .filter(|iv| iv.committed > 0)
        .map(|iv| net_and_waste(iv).0 / iv.committed)
        .min()
        .unwrap_or(0);
    for iv in intervals {
        let (net, waste) = net_and_waste(iv);
        c.spec_waste_ns += waste;
        if iv.committed == 0 {
            c.decode_ns += net;
            continue;
        }
        let ideal = m * iv.committed;
        let stretch = net - ideal;
        c.decode_ns += ideal;
        if overlaps_prefill(&prefill_ts[iv.replica], iv.start, iv.end) {
            c.prefill_interference_ns += stretch;
        } else {
            c.decode_stall_ns += stretch;
        }
    }
}

/// A decode interval's duration split into net service and speculative
/// waste. The verify step processed `drafted + 1` candidate positions;
/// the rejected share of its time is the waste. Intervals that commit
/// nothing (elided steady decode) are all net service.
fn net_and_waste(iv: &DecodeInterval) -> (u64, u64) {
    let dur = iv.end - iv.start;
    if iv.committed == 0 {
        return (dur, 0);
    }
    let rejected = iv.drafted.saturating_sub(iv.accepted);
    let waste = dur * rejected / (iv.drafted + 1);
    (dur - waste, waste)
}

/// True when any prefill chunk landed on the replica in `(start, end]`.
fn overlaps_prefill(ts: &[u64], start: u64, end: u64) -> bool {
    let lo = ts.partition_point(|&x| x <= start);
    ts.get(lo).is_some_and(|&x| x <= end)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(time: f64, request: u64, kind: EventKind) -> Event {
        Event {
            time: Seconds::new(time),
            request,
            kind,
        }
    }

    fn admit(cached: u32, ideal_us: u32) -> EventKind {
        EventKind::Admit {
            cached_tokens: cached,
            ideal_us,
        }
    }

    fn commit(committed: u32, drafted: u32, accepted: u32) -> EventKind {
        EventKind::Commit {
            committed,
            drafted,
            accepted,
        }
    }

    #[test]
    fn plain_lifecycle_conserves_and_splits_prefill() {
        // Enqueue 0.0, admit 0.010 (ideal 5 ms), first commit 0.030,
        // two decode commits 20 ms apart, complete with the last one.
        let stream = vec![
            ev(0.0, 1, EventKind::Enqueue),
            ev(0.010, 1, admit(0, 5_000)),
            ev(0.030, 1, commit(1, 0, 0)),
            ev(0.050, 1, commit(1, 0, 0)),
            ev(0.070, 1, commit(1, 0, 0)),
            ev(0.070, 1, EventKind::Complete),
        ];
        let attrs = attribute_events(&[stream]);
        assert_eq!(attrs.len(), 1);
        let a = &attrs[0];
        assert!(a.conserved());
        assert_eq!(a.e2e_ns, 70_000_000);
        assert_eq!(a.components.queue_ns, 10_000_000);
        assert_eq!(a.components.prefill_ideal_ns, 5_000_000);
        assert_eq!(a.components.prefill_interference_ns, 15_000_000);
        // Both decode intervals run at the same 20 ms rate: all ideal.
        assert_eq!(a.components.decode_ns, 40_000_000);
        assert_eq!(a.components.decode_stall_ns, 0);
        assert_eq!(a.dominant_loss(), MissCause::PrefillInterference);
    }

    #[test]
    fn decode_stretch_blames_coresident_prefill_chunks() {
        let mut base = vec![
            ev(0.0, 1, EventKind::Enqueue),
            ev(0.0, 1, admit(0, 10_000)),
            ev(0.010, 1, commit(1, 0, 0)),
            ev(0.020, 1, commit(1, 0, 0)), // 10 ms: the best rate
            ev(0.050, 1, commit(1, 0, 0)), // 30 ms: 20 ms stretch
            ev(0.050, 1, EventKind::Complete),
        ];
        // Without any prefill chunk in the stretched interval the
        // stretch is a decode stall...
        let plain = attribute_events(&[base.clone()]);
        assert_eq!(plain[0].components.decode_stall_ns, 20_000_000);
        assert_eq!(plain[0].components.prefill_interference_ns, 0);
        // ...but a batch-mate's chunk inside (0.020, 0.050] flips the
        // blame to prefill interference.
        base.insert(4, ev(0.050, 9, EventKind::PrefillChunk { tokens: 64 }));
        let blamed = attribute_events(&[base]);
        assert_eq!(blamed[0].components.prefill_interference_ns, 20_000_000);
        assert_eq!(blamed[0].components.decode_stall_ns, 0);
        assert!(blamed[0].conserved());
    }

    #[test]
    fn preemption_charges_stall_and_recompute() {
        let stream = vec![
            ev(0.0, 1, EventKind::Enqueue),
            ev(0.0, 1, admit(0, 1_000)),
            ev(0.001, 1, commit(1, 0, 0)),
            ev(0.011, 1, commit(1, 0, 0)),
            ev(0.016, 1, EventKind::Preempt), // 5 ms cut-short decode gap
            ev(0.036, 1, EventKind::Resume),  // 20 ms parked
            ev(0.046, 1, commit(1, 0, 0)),    // 10 ms recompute pass
            ev(0.056, 1, commit(1, 0, 0)),
            ev(0.056, 1, EventKind::Complete),
        ];
        let a = &attribute_events(&[stream])[0];
        assert!(a.conserved());
        assert_eq!(a.components.preempt_stall_ns, 25_000_000);
        assert_eq!(a.components.recompute_ns, 10_000_000);
        assert_eq!(a.dominant_loss(), MissCause::Preemption);
    }

    #[test]
    fn rejected_drafts_become_spec_waste() {
        let stream = vec![
            ev(0.0, 1, EventKind::Enqueue),
            ev(0.0, 1, admit(0, 1_000)),
            ev(0.001, 1, commit(1, 0, 0)),
            // 12 ms verify step: 3 drafted, 1 accepted, 2 committed.
            // Waste = 12 ms * 2 / 4 = 6 ms.
            ev(0.013, 1, commit(2, 3, 1)),
            ev(0.013, 1, EventKind::Complete),
        ];
        let a = &attribute_events(&[stream])[0];
        assert!(a.conserved());
        assert_eq!(a.components.spec_waste_ns, 6_000_000);
    }

    #[test]
    fn disaggregated_handoff_is_stitched_across_streams() {
        let prefill = vec![
            ev(0.0, 1, EventKind::Enqueue),
            ev(0.002, 1, admit(0, 3_000)),
            ev(0.005, 1, commit(1, 0, 0)),
            ev(0.005, 1, EventKind::Complete),
            ev(0.006, 1, EventKind::KvTransferStart { tokens: 128 }),
        ];
        let decode = vec![
            ev(0.009, 1, EventKind::KvTransferEnd { tokens: 128 }),
            ev(0.009, 1, EventKind::Enqueue),
            ev(0.010, 1, admit(128, 100)),
            ev(0.012, 1, commit(1, 0, 0)),
            ev(0.022, 1, commit(1, 0, 0)),
            ev(0.022, 1, EventKind::Complete),
        ];
        let a = &attribute_events(&[prefill, decode])[0];
        assert!(a.conserved());
        assert_eq!(a.e2e_ns, 22_000_000);
        assert_eq!(a.components.handoff_ns, 4_000_000);
        assert_eq!(a.components.queue_ns, 3_000_000);
    }

    #[test]
    fn truncated_or_shed_lifecycles_are_skipped() {
        let truncated = vec![
            // Ring eviction dropped the Enqueue/Admit prefix.
            ev(0.050, 1, commit(1, 0, 0)),
            ev(0.050, 1, EventKind::Complete),
        ];
        let in_flight = vec![ev(0.0, 2, EventKind::Enqueue), ev(0.010, 2, admit(0, 500))];
        let shed = vec![ev(0.0, 3, EventKind::Shed)];
        assert!(attribute_events(&[truncated, in_flight, shed]).is_empty());
    }

    #[test]
    fn report_merge_is_exact_and_blames_the_dominant_cause() {
        let stream = |id: u64, off: f64| {
            vec![
                ev(off, id, EventKind::Enqueue),
                ev(off + 0.050, id, admit(0, 1_000)),
                ev(off + 0.060, id, commit(1, 0, 0)),
                ev(off + 0.070, id, commit(1, 0, 0)),
                ev(off + 0.070, id, EventKind::Complete),
            ]
        };
        let attrs = attribute_events(&[[stream(1, 0.0), stream(2, 0.1)].concat()]);
        let mut a = AttributionReport::default();
        let mut b = AttributionReport::default();
        a.record(&attrs[0], true);
        b.record(&attrs[1], true);
        b.record_shed(3);
        let mut merged = a;
        merged.merge(&b);
        let mut direct = AttributionReport::default();
        direct.record(&attrs[0], true);
        direct.record(&attrs[1], true);
        direct.record_shed(3);
        assert_eq!(merged, direct);
        assert_eq!(merged.requests, 2);
        assert_eq!(merged.misses, 2);
        assert_eq!(merged.shed, 3);
        assert_eq!(merged.dominant_cause(), Some(MissCause::Queue));
        assert_eq!(merged.miss_count(MissCause::Queue), 2);
        assert_eq!(merged.lost_ns(MissCause::Queue), 100_000_000);
        assert_eq!(merged.total_lost_ns(), merged.totals.lost_ns());
    }

    /// The grouping `attribute_events` used before its radix sort: one
    /// `sort_unstable` of packed (request id, recording position) keys,
    /// a `partition_point` per event to find its replica, and libm
    /// rounding to nanoseconds. Kept as the oracle the radix grouping
    /// must match exactly.
    fn reference_attribute_events(replicas: &[Vec<Event>]) -> Vec<RequestAttribution> {
        let nanos = |t: Seconds| conv::u64_from_f64((t.get() * 1e9).round());
        let prefill_ts: Vec<Vec<u64>> = replicas
            .iter()
            .map(|stream| {
                let mut ts: Vec<u64> = stream
                    .iter()
                    .filter(|e| matches!(e.kind, EventKind::PrefillChunk { .. }))
                    .map(|e| nanos(e.time))
                    .collect();
                ts.sort_unstable();
                ts
            })
            .collect();
        let mut starts = Vec::with_capacity(replicas.len());
        let mut keys: Vec<(u64, usize)> = Vec::new();
        for stream in replicas {
            let base = keys.len();
            starts.push(base);
            keys.extend(
                stream
                    .iter()
                    .enumerate()
                    .map(|(i, e)| (e.request, base + i)),
            );
        }
        keys.sort_unstable_by_key(|&(request, pos)| u128::from(request) << 64 | pos as u128);
        let mut out = Vec::new();
        let mut intervals = Vec::new();
        for group in keys.chunk_by(|a, b| a.0 == b.0) {
            let mut events: Vec<(u64, usize, EventKind)> = group
                .iter()
                .map(|&(_, pos)| {
                    let replica = starts.partition_point(|&s| s <= pos) - 1;
                    let e = &replicas[replica][pos - starts[replica]];
                    (nanos(e.time), replica, e.kind)
                })
                .collect();
            events.sort_by_key(|&(t, _, _)| t);
            out.extend(walk(group[0].0, &events, &prefill_ts, &mut intervals));
        }
        out
    }

    /// SplitMix64, the random source of [`random_fleet`].
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        fn chance(&mut self, percent: u64) -> bool {
            self.below(100) < percent
        }
    }

    /// One generated lifecycle: (replica, millisecond tick, kind) in the
    /// order the request lives through them.
    struct Life {
        at: u64,
        events: Vec<(usize, u64, EventKind)>,
    }

    impl Life {
        /// Appends `kind` 0-2 ms after the previous event, so equal
        /// timestamps within one request are common.
        fn push(&mut self, rng: &mut Rng, replica: usize, kind: EventKind) {
            self.at += rng.below(3);
            self.events.push((replica, self.at, kind));
        }

        /// Enqueue through the first token on `replica`, possibly with a
        /// mid-prefill preemption.
        fn prefill(&mut self, rng: &mut Rng, replica: usize) {
            self.push(rng, replica, EventKind::Enqueue);
            let ideal_us = rng.below(3_000) as u32;
            self.push(rng, replica, admit(0, ideal_us));
            for _ in 0..rng.below(3) {
                self.push(rng, replica, EventKind::PrefillChunk { tokens: 64 });
            }
            if rng.chance(15) {
                self.push(rng, replica, EventKind::Preempt);
                self.push(rng, replica, EventKind::Resume);
            }
            self.push(rng, replica, commit(1, 0, 0));
        }

        /// `steps` decode steps on `replica`, then `Complete`. Under
        /// `Lifecycle` detail only the first commit after a resume and
        /// draft-carrying commits are recorded, as the engine does.
        fn decode(&mut self, rng: &mut Rng, replica: usize, steps: u64, per_token: bool) {
            let mut boundary = false;
            for _ in 0..steps {
                if rng.chance(4) {
                    self.push(rng, replica, EventKind::Preempt);
                    self.push(rng, replica, EventKind::Resume);
                    boundary = true;
                }
                let drafted = if rng.chance(20) { rng.below(4) } else { 0 };
                let accepted = rng.below(drafted + 1);
                self.at += rng.below(4);
                if per_token || boundary || drafted > 0 {
                    let kind = commit(accepted as u32 + 1, drafted as u32, accepted as u32);
                    self.events.push((replica, self.at, kind));
                }
                boundary = false;
            }
            self.push(rng, replica, EventKind::Complete);
        }
    }

    /// A random multi-replica recording. Requests get dense, strided or
    /// sparse random ids and are whole, split across two replicas (in either index order),
    /// shed, or cut short in flight; a few decode for a long time, so a
    /// per-token lifecycle can outgrow the stable sort's on-stack
    /// scratch. Per replica, events are recorded in time order except
    /// that some `Enqueue`s are recorded late, after events with later
    /// timestamps. Some streams then pass through a small
    /// [`FlightRecorder`](crate::FlightRecorder), which drops their
    /// oldest events.
    fn random_fleet(rng: &mut Rng, per_token: bool) -> Vec<Vec<Event>> {
        let replicas = 1 + rng.below(4) as usize;
        // Ids: dense from a base (up to `u64::MAX`), strided, or random
        // over all 64 bits, so the grouping takes one radix pass, two or
        // eight.
        let base = if rng.chance(50) {
            u64::MAX - 99
        } else {
            rng.below(1 << 40)
        };
        let stride = [1, 1_009, 0][rng.below(3) as usize];
        // (replica, recording key, generation order, event)
        let mut recorded: Vec<(usize, u64, usize, Event)> = Vec::new();
        for k in 0..rng.below(24) {
            let id = if stride == 0 {
                rng.next()
            } else {
                base.wrapping_add(k * stride)
            };
            let home = rng.below(replicas as u64) as usize;
            let mut life = Life {
                at: rng.below(40),
                events: Vec::new(),
            };
            let steps = if rng.chance(10) {
                120 + rng.below(80)
            } else {
                rng.below(12)
            };
            if rng.chance(10) {
                life.push(rng, home, EventKind::Shed);
            } else if replicas > 1 && rng.chance(35) {
                let away = (home + 1 + rng.below(replicas as u64 - 1) as usize) % replicas;
                life.prefill(rng, home);
                life.push(rng, home, EventKind::Complete);
                life.push(rng, home, EventKind::KvTransferStart { tokens: 64 });
                life.push(rng, away, EventKind::KvTransferEnd { tokens: 64 });
                life.prefill(rng, away);
                life.decode(rng, away, steps, per_token);
            } else {
                life.prefill(rng, home);
                life.decode(rng, home, steps, per_token);
            }
            if rng.chance(10) {
                let keep = rng.below(life.events.len() as u64 + 1) as usize;
                life.events.truncate(keep);
            }
            for (replica, tick, kind) in life.events {
                let late = if kind == EventKind::Enqueue && rng.chance(30) {
                    1 + rng.below(4)
                } else {
                    0
                };
                let event = ev(tick as f64 * 1e-3, id, kind);
                recorded.push((replica, tick + late, recorded.len(), event));
            }
        }
        recorded.sort_by_key(|&(replica, key, order, _)| (replica, key, order));
        let mut streams = vec![Vec::new(); replicas];
        for (replica, _, _, event) in recorded {
            streams[replica].push(event);
        }
        for stream in &mut streams {
            if rng.chance(25) {
                let mut ring =
                    crate::FlightRecorder::new(rng.below(stream.len() as u64 + 1) as usize);
                for e in stream.iter() {
                    ring.record(e);
                }
                *stream = ring.drain();
            }
        }
        streams
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// The radix grouping returns exactly what the single-sort
        /// grouping did, at both event detail levels.
        #[test]
        fn grouping_matches_the_reference(seed in 0u64..u64::MAX, per_token in 0u8..2) {
            let streams = random_fleet(&mut Rng(seed), per_token == 1);
            proptest::prop_assert_eq!(
                attribute_events(&streams),
                reference_attribute_events(&streams)
            );
        }
    }

    #[test]
    fn random_fleets_reach_every_grouping_case() {
        let (mut attributed, mut handoffs, mut preempted, mut long) = (0, 0, 0, 0);
        for seed in 0..200 {
            let streams = random_fleet(&mut Rng(seed), seed % 2 == 0);
            let attrs = attribute_events(&streams);
            assert_eq!(attrs, reference_attribute_events(&streams));
            attributed += attrs.len();
            handoffs += attrs.iter().filter(|a| a.components.handoff_ns > 0).count();
            preempted += attrs
                .iter()
                .filter(|a| a.components.preempt_stall_ns > 0)
                .count();
            long += attrs.iter().filter(|a| a.e2e_ns > 200_000_000).count();
        }
        assert!(attributed > 500, "{attributed} attributed requests");
        assert!(handoffs > 50, "{handoffs} disaggregated handoffs");
        assert!(preempted > 20, "{preempted} preempted lifecycles");
        assert!(long > 20, "{long} long lifecycles");
    }
}
