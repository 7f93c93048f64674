//! Metric names, the result accumulator, and the fleet workloads' two
//! modes: untraced (end-to-end metrics) and traced (per-layer metrics).

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use ador_bench::json;
use ador_core::cluster::FleetReport;
use ador_core::serving::SimError;
use ador_core::telemetry::{attribute_events, chrome_trace};

use crate::fleet::{self, Digest, FleetCase, Pass, Replay};
use crate::trace::{median, percentile, Tracer};
use crate::workloads::{self, stream_seed, Kind};
use crate::Args;

/// End-to-end metrics (`--trace 0`), with units. Every one is host time
/// or host memory, measured with the benchmark's tracing off.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("sim_req_per_s", "req/s"),
    ("token_ns", "ns"),
    ("step_ns", "ns"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (`--trace 1`), with units. A layer the workload
/// does not exercise reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("perf.evaluator_new_us", "us"),
    ("perf.eval_decode_ns", "ns"),
    ("perf.eval_prefill_ns", "ns"),
    ("serving.engine_new_us", "us"),
    ("serving.submit_ns", "ns"),
    ("serving.step_ns_p50", "ns"),
    ("serving.step_ns_p99", "ns"),
    ("serving.steps", "count"),
    ("serving.jumps", "count"),
    ("serving.mean_batch", "requests"),
    ("serving.preemptions", "count"),
    ("serving.prefilled_tokens", "tokens"),
    ("serving.prefix_hit_rate", "ratio"),
    ("serving.prefix_evicted_tokens", "tokens"),
    ("cluster.generate_ns_per_req", "ns"),
    ("cluster.new_ms", "ms"),
    ("cluster.advance_ns_p50", "ns"),
    ("cluster.advance_ns_p99", "ns"),
    ("cluster.advance_calls", "count"),
    ("cluster.engine_share", "ratio"),
    ("cluster.route_ns_p50", "ns"),
    ("cluster.finish_ms", "ms"),
    ("cluster.kv_transfers", "count"),
    ("telemetry.events", "count"),
    ("telemetry.overhead", "ratio"),
    ("telemetry.attribute_ms", "ms"),
    ("telemetry.attribute_ns_per_event", "ns"),
    ("telemetry.chrome_ms", "ms"),
    ("telemetry.chrome_mb", "MiB"),
    ("search.call_us_p50", "us"),
    ("search.call_us_p99", "us"),
    ("search.steps_per_call", "count"),
    ("search.infeasible", "count"),
    ("search.co_explore_candidate_ms", "ms"),
    ("search_per_s", "1/s"),
    ("fleet_candidates_per_s", "1/s"),
    ("bench.trace_overhead", "ratio"),
    ("failed_ratio", "ratio"),
];

/// Set-up samples taken after each pass; the fastest is kept.
const SETUP_REPEATS: usize = 2;

/// Everything one benchmark run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    values: BTreeMap<&'static str, f64>,
    /// Operations attempted in timed passes: simulated requests offered,
    /// plus `search()` calls on `design_sweep`.
    pub attempted: u64,
    /// Attempted operations that did not complete: offered requests left
    /// unfinished, `search()` calls that errored.
    lost: u64,
    /// Named correctness checks, each the conjunction over every pass.
    pub checks: Vec<(String, bool)>,
    /// Not-gated context printed beside the metrics: the simulated
    /// headline results, the output digest, pass counts.
    pub detail: Vec<(&'static str, String)>,
}

impl Outcome {
    /// The result of a run that hit a simulation error.
    pub fn errored(msg: &str) -> Self {
        let mut out = Self {
            attempted: 1,
            ..Self::default()
        };
        out.check(format!("ran without error ({msg})"), false);
        out
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// A metric's value (0 for a layer the workload did not exercise).
    pub fn value(&self, name: &str) -> f64 {
        if name == "failed_ratio" {
            return self.failed() as f64 / self.attempted.max(1) as f64;
        }
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// Records a check; a name seen before keeps the conjunction.
    pub fn check(&mut self, name: impl Into<String>, ok: bool) {
        let name = name.into();
        match self.checks.iter_mut().find(|(n, _)| *n == name) {
            Some((_, prev)) => *prev &= ok,
            None => self.checks.push((name, ok)),
        }
    }

    /// Accounts one pass: `ops` attempted, of which `lost` did not
    /// complete.
    pub fn ops(&mut self, ops: u64, lost: u64) {
        self.attempted += ops;
        self.lost += lost;
    }

    fn checks_hold(&self) -> bool {
        !self.checks.is_empty() && self.checks.iter().all(|(_, ok)| *ok)
    }

    /// Failed operations: the lost ones, or every attempted one once any
    /// correctness check failed.
    pub fn failed(&self) -> u64 {
        if self.checks_hold() {
            self.lost
        } else {
            self.attempted.max(1)
        }
    }

    pub fn correct(&self) -> bool {
        self.checks_hold() && self.lost == 0
    }

    /// The simulated headline results of a fleet report, kept beside the
    /// metrics (they are outputs of the simulation, not host timings).
    pub fn headline(&mut self, report: &FleetReport) {
        let qos = report.fleet.as_ref();
        let ttft_p99 = match qos {
            // Nearest-rank p99 needs ten samples beyond it.
            Some(q) if q.completed >= 1_000 => json::num(q.ttft.p99.get() * 1e3),
            _ => "null".to_string(),
        };
        let sim = json::object(&[
            ("sim.attainment", json::num(report.fleet_attainment())),
            (
                "sim.ttft_p50_ms",
                json::num(qos.map_or(0.0, |q| q.ttft.p50.get() * 1e3)),
            ),
            ("sim.ttft_p99_ms", ttft_p99),
            (
                "sim.goodput",
                json::num(qos.map_or(0.0, |q| q.goodput_tokens_per_sec)),
            ),
            ("sim.completed", report.completed.to_string()),
        ]);
        self.detail.push(("sim", sim));
    }
}

/// Peak resident memory of this process (`VmHWM`), in MiB. Each run is
/// its own process, so this is the workload's peak. End-to-end runs read
/// it right after the warm-up pass, before anything else is built, so it
/// is the peak of one pass over stream 1.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The correctness gate of one fleet pass: conservation, on the traced
/// workload a non-empty event stream and an attribution block, and (when
/// the pass repeats an earlier stream) outputs identical to the earlier
/// pass's. Returns the pass's output digest.
fn gate_pass(kind: Kind, pass: &Pass, expected: Option<&str>, out: &mut Outcome) -> String {
    out.check("conservation", fleet::conserved(&pass.case, &pass.report));
    let mut d = Digest::default();
    d.fleet(&pass.report);
    let digest = d.hex();
    if let Some(expected) = expected {
        out.check("identical outputs on a repeated stream", expected == digest);
    }
    if kind == Kind::DisaggTraced {
        let events = pass
            .report
            .telemetry
            .as_ref()
            .map_or(0, |t| t.events.iter().map(Vec::len).sum::<usize>());
        out.check("telemetry events recorded", events > 0);
        out.check("attribution present", pass.report.attribution.is_some());
    }
    let requests = pass.case.requests as u64;
    out.ops(
        requests,
        requests.saturating_sub(pass.report.completed as u64),
    );
    digest
}

/// The replay oracle: every replica's replayed report equals the fleet's.
pub fn gate_replay(replay: Option<Replay>, out: &mut Outcome) -> Replay {
    out.check(
        "replay matches every replica",
        replay.is_some_and(|r| r.mismatched == 0),
    );
    replay.unwrap_or_default()
}

/// Simulated work of one stream, counted once per stream.
#[derive(Debug, Clone, Copy, Default)]
pub struct Work {
    pub completed: f64,
    pub tokens: f64,
    pub steps: f64,
}

/// What one measured pass reports to [`measure`].
#[derive(Debug)]
pub struct Figures {
    /// Host seconds of the run phase, window by window. Every repeat of a
    /// stream cuts its run into the same windows.
    pub windows: Vec<f64>,
    /// Leading windows that simulate nothing (the `search()` calls of
    /// `design_sweep`): they count toward `sim_req_per_s`'s run time, but
    /// `token_ns` and `step_ns` price only the windows that simulate.
    pub lead: usize,
    /// Digest of the simulated outputs.
    pub digest: String,
    /// The stream's simulated work, when the pass was asked to count it.
    pub work: Option<Work>,
    /// Host seconds the pass spent on checks and counting, outside the
    /// run phase; they extend the deadline.
    pub untimed_s: f64,
}

/// Folds per-stream digests into the run's digest.
pub fn combine(digests: &[String]) -> String {
    let mut d = Digest::default();
    for part in digests {
        d.update(part.as_bytes());
    }
    d.hex()
}

/// The end-to-end measurement loop shared by every workload.
///
/// A run cycles through `streams` fixed request streams of its seed
/// (stream `k` is [`stream_seed`]`(seed, k)`), so it averages over several
/// inputs, and runs each stream at least twice. The warm-up pass runs
/// stream 1 and is not timed. Every later repeat of a stream must produce
/// the same outputs and the same windows. Passes continue until
/// `--seconds` of passes have elapsed. Each window's time is the fastest
/// of its repeats, the min-of-N damper for one-sided host noise; taken per
/// window of a few milliseconds rather than per pass, it gives every
/// window a quiet repeat as soon as the run holds one quiet stretch as
/// long as a cycle through the streams. A stream's run time is the sum of
/// its windows' times. The run-phase metrics are total simulated work over
/// the summed stream times; `token_ns` and `step_ns` leave out each
/// stream's lead windows. After each pass, set-up (`setup`, which
/// returns its host seconds) runs [`SETUP_REPEATS`] times and the fastest
/// sample is kept, so the samples spread over the whole run; `setup_s` is
/// their median. `pass` is called with the stream number and whether to
/// count the stream's work (true exactly on the stream's first run, the
/// warm-up for stream 1).
pub fn measure(
    args: &Args,
    streams: u64,
    out: &mut Outcome,
    pass: &mut dyn FnMut(u64, bool, &mut Outcome) -> Result<Figures, SimError>,
    setup: &mut dyn FnMut() -> Result<f64, SimError>,
) -> Result<(), SimError> {
    let n = streams as usize;
    let mut seen: Vec<Option<(Work, String)>> = vec![None; n];
    let mut best: Vec<Vec<f64>> = vec![Vec::new(); n];
    let mut lead = vec![0; n];
    let mut setups = Vec::new();
    let warm = pass(1, true, out)?;
    seen[0] = Some((warm.work.unwrap_or_default(), warm.digest));
    let mut deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut passes = 0;
    while passes < 2 * n || Instant::now() < deadline {
        let k = passes % n;
        let fig = pass(k as u64 + 1, seen[k].is_none(), out)?;
        match &seen[k] {
            Some((_, digest)) => {
                out.check(
                    "identical outputs on a repeated stream",
                    *digest == fig.digest,
                );
            }
            None => seen[k] = Some((fig.work.unwrap_or_default(), fig.digest)),
        }
        if best[k].is_empty() {
            best[k] = fig.windows;
            lead[k] = fig.lead;
        } else {
            out.check(
                "same windows on a repeated stream",
                best[k].len() == fig.windows.len(),
            );
            for (b, w) in best[k].iter_mut().zip(fig.windows) {
                *b = b.min(w);
            }
        }
        let setup_start = Instant::now();
        let mut fastest = f64::INFINITY;
        for _ in 0..SETUP_REPEATS {
            fastest = fastest.min(setup()?);
        }
        setups.push(fastest);
        deadline += setup_start.elapsed() + Duration::from_secs_f64(fig.untimed_s);
        passes += 1;
    }
    let work: Vec<Work> = seen.iter().flatten().map(|(w, _)| *w).collect();
    let digests: Vec<String> = seen.into_iter().flatten().map(|(_, d)| d).collect();
    let stream_s: Vec<f64> = best.iter().map(|w| w.iter().sum()).collect();
    let run: f64 = stream_s.iter().sum();
    let simulating: f64 = best
        .iter()
        .zip(&lead)
        .map(|(w, &l)| w[l..].iter().sum::<f64>())
        .sum();
    let sum = |f: fn(&Work) -> f64| work.iter().map(f).sum::<f64>().max(1.0);
    out.set("setup_s", median(&setups));
    out.set("sim_req_per_s", sum(|w| w.completed) / run);
    out.set("token_ns", simulating * 1e9 / sum(|w| w.tokens));
    out.set("step_ns", simulating * 1e9 / sum(|w| w.steps));
    out.detail
        .push(("digest", json::string(&combine(&digests))));
    out.detail.push(("measured_passes", passes.to_string()));
    out.detail.push((
        "stream_run_s",
        json::array(&stream_s.iter().map(|x| json::num(*x)).collect::<Vec<_>>()),
    ));
    out.detail.push((
        "stream_windows",
        json::array(&best.iter().map(|w| w.len().to_string()).collect::<Vec<_>>()),
    ));
    Ok(())
}

/// The end-to-end run of a fleet workload (see [`measure`]). Counting a
/// stream's work replays it replica by replica, which gives its exact
/// iteration count and the replay check.
pub fn fleet_untraced(args: &Args) -> Result<Outcome, SimError> {
    let kind = args.workload;
    let case_for = |k: u64| workloads::fleet_case(kind, stream_seed(args.seed, k), args.smoke);
    let window = workloads::window_advances(kind, args.smoke);
    let mut out = Outcome::default();
    let mut pass = |k: u64, count: bool, out: &mut Outcome| -> Result<Figures, SimError> {
        let p = fleet::untraced_pass(&|| case_for(k), window)?;
        let digest = gate_pass(kind, &p, None, out);
        let untimed = Instant::now();
        let mut work = None;
        if count && k == 1 {
            out.set("peak_rss_mb", peak_rss_mb());
        }
        if count {
            let replay = fleet::replay(&p.case, &p.report, &mut Tracer::off())?;
            let replay = gate_replay(replay, out);
            let tokens = p.report.fleet.as_ref().map_or(0, |q| q.generated_tokens);
            work = Some(Work {
                completed: p.report.completed as f64,
                tokens: tokens as f64,
                steps: replay.steps as f64,
            });
            if k == 1 {
                out.headline(&p.report);
            }
        }
        Ok(Figures {
            windows: p.windows,
            lead: 0,
            digest,
            work,
            untimed_s: untimed.elapsed().as_secs_f64(),
        })
    };
    let mut setup = || -> Result<f64, SimError> {
        let t0 = Instant::now();
        let case = case_for(1);
        let stream = case.stream();
        let sim = case.sim()?;
        let s = t0.elapsed().as_secs_f64();
        drop((std::hint::black_box(stream), sim));
        Ok(s)
    };
    measure(
        args,
        workloads::streams(kind, args.smoke),
        &mut out,
        &mut pass,
        &mut setup,
    )?;
    Ok(out)
}

/// The per-layer run of a fleet workload: untraced and traced passes
/// alternate until `--seconds` have elapsed; the first traced pass keeps
/// its spans, and the replay, router probe and cost-model probe add
/// theirs to the same trace.
pub fn fleet_traced(args: &Args) -> Result<Outcome, SimError> {
    let kind = args.workload;
    let build = || workloads::fleet_case(kind, stream_seed(args.seed, 1), args.smoke);
    let window = workloads::window_advances(kind, args.smoke);
    let mut out = Outcome::default();
    let warm = fleet::untraced_pass(&build, window)?;
    let first = gate_pass(kind, &warm, None, &mut out);
    drop(warm);
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let mut kept: Option<(Tracer, Pass)> = None;
    while traced.len() < 2 || Instant::now() < deadline {
        let u = fleet::untraced_pass(&build, window)?;
        gate_pass(kind, &u, Some(&first), &mut out);
        untraced.push(u.run_s);
        drop(u);
        let mut tr = Tracer::new();
        let t = fleet::traced_pass(&build, &mut tr)?;
        gate_pass(kind, &t, Some(&first), &mut out);
        traced.push(t.run_s);
        if kept.is_none() {
            kept = Some((tr, t));
        }
    }
    let (mut tr, pass) = kept.expect("at least one traced pass ran");
    let replay = gate_replay(fleet::replay(&pass.case, &pass.report, &mut tr)?, &mut out);
    tr.span("bench.route_probe", |t| fleet::route_probe(&pass.case, t))?;
    let max_ctx = workloads::max_context(&pass.case.model);
    tr.span("bench.perf_probe", |t| {
        fleet::perf_probe(&pass.case, max_ctx, t)
    });
    if kind == Kind::DisaggTraced {
        telemetry_layer(&pass, &build, window, &untraced, &mut tr, &mut out)?;
    }
    layer_metrics(&tr, pass.case.requests, replay, &mut out);
    report_counts(&[&pass.report], &mut out);
    out.set("bench.trace_overhead", median(&traced) / median(&untraced));
    write_trace(args, &tr, &mut out);
    out.detail.push(("digest", json::string(&first)));
    Ok(out)
}

/// The telemetry layer on `disagg_traced`: event count, attribution and
/// Chrome export timed on the traced pass's events, and the run-time
/// ratio against the same fleet with telemetry off — whose simulated
/// outputs must be identical.
fn telemetry_layer(
    pass: &Pass,
    build: &dyn Fn() -> FleetCase,
    window: usize,
    untraced: &[f64],
    tr: &mut Tracer,
    out: &mut Outcome,
) -> Result<(), SimError> {
    let Some(t) = pass.report.telemetry.as_ref() else {
        out.check("telemetry events recorded", false);
        return Ok(());
    };
    let lifecycle: usize = t.events.iter().map(Vec::len).sum();
    out.set(
        "telemetry.events",
        (lifecycle + t.transfer_events.len()) as f64,
    );
    let a = tr.begin("telemetry.attribute");
    let attrs = attribute_events(&t.events);
    let attribute_ns = tr.end(a);
    out.check(
        "attribution conserves",
        !attrs.is_empty() && attrs.iter().all(|a| a.conserved()),
    );
    drop(attrs);
    out.set("telemetry.attribute_ms", attribute_ns as f64 / 1e6);
    out.set(
        "telemetry.attribute_ns_per_event",
        attribute_ns as f64 / lifecycle.max(1) as f64,
    );
    let c = tr.begin("telemetry.chrome");
    let doc = chrome_trace(&t.events);
    let chrome_ns = tr.end(c);
    out.set("telemetry.chrome_ms", chrome_ns as f64 / 1e6);
    out.set("telemetry.chrome_mb", doc.len() as f64 / (1024.0 * 1024.0));
    drop(doc);
    let mut traced_digest = Digest::default();
    traced_digest.fleet(&pass.report);
    let mut off_runs = Vec::new();
    for _ in 0..untraced.len().clamp(1, 3) {
        let off = fleet::untraced_pass(&|| workloads::without_telemetry(build()), window)?;
        let mut d = Digest::default();
        d.fleet(&off.report);
        out.check(
            "telemetry off leaves outputs identical",
            d.hex() == traced_digest.hex(),
        );
        off_runs.push(off.run_s);
    }
    out.set("telemetry.overhead", median(untraced) / median(&off_runs));
    Ok(())
}

/// Per-layer timings from the spans: medians and tails per call, counts
/// per boundary, and shares of the run.
pub fn layer_metrics(tr: &Tracer, requests: usize, replay: Replay, out: &mut Outcome) {
    let d = tr.durations();
    let get = |name: &str| d.get(name).map_or(&[][..], Vec::as_slice);
    let sum = |name: &str| get(name).iter().sum::<u64>() as f64;
    let p = |name: &str, q: f64| percentile(get(name), q);
    out.set("perf.evaluator_new_us", p("perf.evaluator_new", 0.5) / 1e3);
    out.set("perf.eval_decode_ns", p("perf.eval_decode", 0.5));
    out.set("perf.eval_prefill_ns", p("perf.eval_prefill", 0.5));
    out.set("serving.engine_new_us", p("serving.engine_new", 0.5) / 1e3);
    out.set(
        "serving.submit_ns",
        sum("serving.submit_all") / replay.submits.max(1) as f64,
    );
    out.set("serving.step_ns_p50", p("serving.step", 0.5));
    out.set("serving.step_ns_p99", p("serving.step", 0.99));
    out.set("serving.steps", get("serving.step").len() as f64);
    out.set("serving.jumps", get("serving.jump").len() as f64);
    let generated = get("cluster.generate").len() * requests;
    out.set(
        "cluster.generate_ns_per_req",
        sum("cluster.generate") / generated.max(1) as f64,
    );
    out.set("cluster.new_ms", p("cluster.new_fleet", 0.5) / 1e6);
    out.set("cluster.advance_ns_p50", p("cluster.advance", 0.5));
    out.set("cluster.advance_ns_p99", p("cluster.advance", 0.99));
    out.set("cluster.advance_calls", get("cluster.advance").len() as f64);
    out.set(
        "cluster.engine_share",
        (sum("serving.step") + sum("serving.jump")) / sum("bench.run").max(1.0),
    );
    out.set("cluster.route_ns_p50", p("cluster.route", 0.5));
    out.set("cluster.finish_ms", p("cluster.finish", 0.5) / 1e6);
}

/// Simulated counters read from the fleet reports (summed over several
/// reports; the mean batch is averaged).
pub fn report_counts(reports: &[&FleetReport], out: &mut Outcome) {
    let qos: Vec<_> = reports.iter().filter_map(|r| r.fleet.as_ref()).collect();
    let total = |f: &dyn Fn(&ador_core::serving::QosReport) -> usize| {
        qos.iter().map(|q| f(q)).sum::<usize>() as f64
    };
    let hits = total(&|q| q.prefix_hit_tokens);
    let seen = hits + total(&|q| q.prefix_miss_tokens);
    out.set(
        "serving.mean_batch",
        qos.iter().map(|q| q.mean_batch).sum::<f64>() / qos.len().max(1) as f64,
    );
    out.set("serving.preemptions", total(&|q| q.preemptions));
    out.set("serving.prefilled_tokens", total(&|q| q.prefilled_tokens));
    out.set(
        "serving.prefix_hit_rate",
        if seen > 0.0 { hits / seen } else { 0.0 },
    );
    out.set(
        "serving.prefix_evicted_tokens",
        total(&|q| q.prefix_evicted_tokens),
    );
    out.set(
        "cluster.kv_transfers",
        reports.iter().map(|r| r.kv_transfers).sum::<usize>() as f64,
    );
}

/// Writes the traced run's spans as Chrome trace-event JSON under
/// `target/` (`target/perfbench-smoke/` for smoke runs), then parses the
/// file back and checks that every written span survived the round trip.
pub fn write_trace(args: &Args, tr: &Tracer, out: &mut Outcome) {
    let dir = if args.smoke {
        "target/perfbench-smoke"
    } else {
        "target/perfbench"
    };
    let trace_id = format!("{}/seed{}", args.workload.name(), args.seed);
    let (doc, written) = tr.chrome_json(&trace_id);
    let path = format!(
        "{dir}/{}-seed{}.trace.json",
        args.workload.name(),
        args.seed
    );
    let wrote = std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, &doc))
        .is_ok();
    let round_trip = wrote
        && std::fs::read_to_string(&path)
            .ok()
            .and_then(|text| json::parse(&text).ok())
            .and_then(|v| {
                v.get("traceEvents")
                    .and_then(|e| e.as_array())
                    .map(<[_]>::len)
            })
            == Some(written);
    out.check("trace file round-trips", round_trip);
    out.detail.push(("trace_file", json::string(&path)));
    out.detail.push(("spans_recorded", tr.len().to_string()));
    out.detail.push(("spans_written", written.to_string()));
}
