//! The benchmark's own tracer: host-time spans recorded around the calls
//! the benchmark makes into each layer's public functions.
//!
//! Spans live in memory while the workload runs and are written out once
//! at the end, as Chrome trace-event JSON (load it in `chrome://tracing`
//! or <https://ui.perfetto.dev>). Every span of one run carries the same
//! trace id (`<workload>/seed<n>`), its parent's index, and its own index,
//! so the file can be re-nested offline. The untraced runs hold a tracer
//! that is off ([`Tracer::off`]): its calls read no clock and record
//! nothing, so their only clock reads are the phase timers around whole
//! runs.

use std::collections::BTreeMap;
use std::time::Instant;

/// Index of a span inside its [`Tracer`].
pub type SpanId = u32;

/// Parent marker of a top-level span.
const ROOT: SpanId = SpanId::MAX;

/// Spans written to the trace file per span name. Hot-loop boundaries
/// (one span per engine step or fleet event) produce millions of spans;
/// all of them feed the statistics, but only the first few thousand of
/// each name are written, which keeps the file small enough to load.
const WRITTEN_PER_NAME: usize = 2_000;

#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: SpanId,
}

/// An in-memory span recorder with an implicit parent stack.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<SpanId>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Self {
            on: true,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A tracer that records nothing.
    pub fn off() -> Self {
        Self {
            on: false,
            ..Self::new()
        }
    }

    /// Whether this tracer records spans.
    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span named `name`, nested under the innermost open span.
    pub fn begin(&mut self, name: &'static str) -> SpanId {
        if !self.on {
            return ROOT;
        }
        let id = SpanId::try_from(self.spans.len()).expect("fewer than 4G spans per run");
        let parent = self.open.last().copied().unwrap_or(ROOT);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id` (the innermost open one) and returns its
    /// duration in nanoseconds.
    pub fn end(&mut self, id: SpanId) -> u64 {
        if !self.on {
            return 0;
        }
        let end_ns = self.now_ns();
        let popped = self.open.pop();
        debug_assert_eq!(popped, Some(id), "spans close innermost first");
        let span = &mut self.spans[id as usize];
        span.end_ns = end_ns;
        end_ns - span.start_ns
    }

    /// Renames span `id` once its outcome is known (an engine call that
    /// turned out to be an idle jump rather than an iteration, say).
    pub fn rename(&mut self, id: SpanId, name: &'static str) {
        if !self.on {
            return;
        }
        self.spans[id as usize].name = name;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        let id = self.begin(name);
        let out = f(self);
        self.end(id);
        out
    }

    /// Spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Durations (ns) of every span per name, in recording order.
    pub fn durations(&self) -> BTreeMap<&'static str, Vec<u64>> {
        let mut out: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
        for s in &self.spans {
            out.entry(s.name).or_default().push(s.end_ns - s.start_ns);
        }
        out
    }

    /// Renders the spans as Chrome trace-event JSON: one complete
    /// (`"ph":"X"`) event per written span, timestamps in microseconds
    /// of host time since the tracer started. Returns the document and
    /// the number of spans written.
    pub fn chrome_json(&self, trace_id: &str) -> (String, usize) {
        use ador_bench::json;
        let mut per_name: BTreeMap<&'static str, usize> = BTreeMap::new();
        let mut items = Vec::new();
        for (id, s) in self.spans.iter().enumerate() {
            let seen = per_name.entry(s.name).or_default();
            *seen += 1;
            if *seen > WRITTEN_PER_NAME {
                continue;
            }
            let parent = if s.parent == ROOT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            items.push(json::object(&[
                ("name", json::string(s.name)),
                ("cat", json::string("perfbench")),
                ("ph", json::string("X")),
                ("pid", "1".to_string()),
                ("tid", "1".to_string()),
                ("ts", json::num(s.start_ns as f64 / 1e3)),
                ("dur", json::num((s.end_ns - s.start_ns) as f64 / 1e3)),
                (
                    "args",
                    json::object(&[
                        ("trace_id", json::string(trace_id)),
                        ("span", id.to_string()),
                        ("parent", parent),
                    ]),
                ),
            ]));
        }
        let written = items.len();
        let doc = json::object(&[
            ("traceEvents", json::array(&items)),
            ("displayTimeUnit", json::string("ms")),
            (
                "otherData",
                json::object(&[
                    ("trace_id", json::string(trace_id)),
                    ("spans_recorded", self.spans.len().to_string()),
                    ("spans_written", written.to_string()),
                ]),
            ),
        ]);
        (doc, written)
    }
}

/// Nearest-rank percentile (`q` in 0..=1) of unsorted samples; 0 when
/// empty.
pub fn percentile(samples: &[u64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1] as f64
}

/// Median of unsorted `f64` samples (mean of the middle pair for even
/// counts); 0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 0 {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_round_trip_through_the_json_parser() {
        let mut t = Tracer::new();
        t.span("outer", |t| {
            for _ in 0..3 {
                t.span("inner", |_| ());
            }
        });
        let d = t.durations();
        assert_eq!(d["inner"].len(), 3);
        assert!(d["outer"][0] >= d["inner"].iter().copied().max().unwrap_or(0));
        let (doc, written) = t.chrome_json("w/seed1");
        assert_eq!(written, 4);
        let v = ador_bench::json::parse(&doc).expect("trace parses");
        let events = v.get("traceEvents").and_then(|e| e.as_array()).unwrap();
        assert_eq!(events.len(), 4);
        let inner = &events[1];
        let args = inner.get("args").unwrap();
        assert_eq!(args.get("parent").and_then(|p| p.as_f64()), Some(0.0));
        assert_eq!(
            args.get("trace_id").and_then(|p| p.as_str()),
            Some("w/seed1")
        );
    }

    #[test]
    fn an_off_tracer_records_nothing() {
        let mut t = Tracer::off();
        let id = t.begin("x");
        t.rename(id, "y");
        assert_eq!(t.end(id), 0);
        assert_eq!(t.span("z", |_| 7), 7);
        assert_eq!(t.len(), 0);
        assert!(!t.is_on());
    }

    #[test]
    fn percentile_and_median_pick_nearest_rank() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&s, 0.5), 50.0);
        assert_eq!(percentile(&s, 0.99), 99.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
