//! `design_sweep`: the paper's own loop. `search()` over model presets ×
//! batch × sequence length × {chatbot, batch-serving}, then `co_explore`
//! over chips × replica mix × router on the pinned disaggregation
//! problem.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use ador_bench::json;
use ador_core::cluster::FleetReport;
use ador_core::search::{co_explore, search, FleetSearchOutcome, SearchError};
use ador_core::serving::SimError;

use crate::fleet::{self, Digest};
use crate::metrics::{self, Outcome};
use crate::trace::{median, percentile, Tracer};
use crate::workloads::{self, stream_seed, SweepInputs};
use crate::Args;

/// One pass over the sweep.
struct SweepPass {
    inputs: SweepInputs,
    search_s: f64,
    co_explore_s: f64,
    /// Host seconds of each window of the run: every [`SEARCH_WINDOW`]
    /// `search()` calls, then every `co_explore` call.
    windows: Vec<f64>,
    /// How many of `windows` hold `search()` calls.
    search_windows: usize,
    /// One co-exploration per workload seed, in seed order.
    outcomes: Vec<FleetSearchOutcome>,
    infeasible: usize,
    errors: usize,
    steps_per_call: f64,
    digest: String,
}

impl SweepPass {
    fn run_s(&self) -> f64 {
        self.search_s + self.co_explore_s
    }

    fn candidates(&self) -> usize {
        self.outcomes.iter().map(|o| o.candidates.len()).sum()
    }

    fn winners(&self) -> Vec<&str> {
        self.outcomes
            .iter()
            .map(|o| o.winner().label.as_str())
            .collect()
    }
}

/// `search()` calls per timed window of a pass (a few milliseconds).
const SEARCH_WINDOW: usize = 32;

/// Runs one pass; with a tracer, each `search()` call and each
/// `co_explore` call get a span.
fn sweep_pass(args: &Args, pass_no: u64, tr: &mut Tracer) -> Result<SweepPass, SimError> {
    let inputs = SweepInputs::build(stream_seed(args.seed, pass_no), args.smoke);
    let fleet_inputs: Vec<_> = inputs
        .seeds
        .iter()
        .map(|&s| inputs.fleet_input(s))
        .collect();
    let mut windows = Vec::new();
    let t1 = Instant::now();
    let mut mark = t1;
    let mut lap = |windows: &mut Vec<f64>| {
        let now = Instant::now();
        windows.push((now - mark).as_secs_f64());
        mark = now;
    };
    let run = tr.begin("bench.sweep_run");
    let mut digest = Digest::default();
    let (mut infeasible, mut errors, mut steps, mut ok) = (0, 0, 0, 0);
    for (i, input) in inputs.searches.iter().enumerate() {
        if i > 0 && i % SEARCH_WINDOW == 0 {
            lap(&mut windows);
        }
        let result = tr.span("search.call", |_| search(input));
        match result {
            Ok(o) => {
                ok += 1;
                steps += o.steps.len();
                digest.update(
                    format!(
                        "{} {} {:?} {:?} {} {}",
                        o.architecture.name,
                        o.satisfied,
                        o.ttft,
                        o.tbt,
                        o.qos_margin,
                        o.steps.len()
                    )
                    .as_bytes(),
                );
            }
            Err(SearchError::NoFeasibleCandidate { .. }) => {
                infeasible += 1;
                digest.update(b"infeasible");
            }
            Err(SearchError::DeploymentPlanning(_)) => errors += 1,
        }
    }
    lap(&mut windows);
    let search_windows = windows.len();
    let t2 = Instant::now();
    let mut outcomes = Vec::new();
    for input in &fleet_inputs {
        outcomes.push(tr.span("search.co_explore", |_| co_explore(input))?);
        lap(&mut windows);
    }
    let t3 = Instant::now();
    tr.end(run);
    digest.update(format!("{outcomes:?}").as_bytes());
    drop(fleet_inputs);
    Ok(SweepPass {
        inputs,
        search_s: (t2 - t1).as_secs_f64(),
        co_explore_s: (t3 - t2).as_secs_f64(),
        windows,
        search_windows,
        outcomes,
        infeasible,
        errors,
        steps_per_call: steps as f64 / f64::from(ok.max(1)),
        digest: digest.hex(),
    })
}

/// The correctness gate of one sweep pass: no search call errored, and
/// when the pass repeats an earlier one's inputs, its outputs (every
/// search result and every co-exploration, winners included) are
/// identical to the earlier pass's.
fn gate(pass: &SweepPass, earlier: Option<&SweepPass>, out: &mut Outcome) {
    out.check("search calls complete", pass.errors == 0);
    if let Some(f) = earlier {
        out.check(
            "identical outputs on a repeated stream",
            f.digest == pass.digest,
        );
        out.check(
            "deterministic co_explore winner",
            f.winners() == pass.winners(),
        );
    }
    let requests = pass.candidates() * pass.inputs.requests;
    let ops = (pass.inputs.searches.len() + requests) as u64;
    out.ops(ops, pass.errors as u64);
}

/// What re-running the co-exploration's candidates outside the search
/// found.
struct Rerun {
    reports: Vec<FleetReport>,
    /// Replay totals over every candidate.
    replay: fleet::Replay,
}

/// Re-runs every candidate fleet of every co-exploration (traced when
/// `tr` is on), checks each against the search's own result for it,
/// and replays it replica by replica for the iteration count and the
/// replay check. Reports come back in search order.
fn rerun_candidates(
    pass: &SweepPass,
    tr: &mut Tracer,
    out: &mut Outcome,
) -> Result<Rerun, SimError> {
    let mut pairs = Vec::new();
    for (&seed, outcome) in pass.inputs.seeds.iter().zip(&pass.outcomes) {
        let cases = workloads::sweep_candidates(&pass.inputs, seed);
        let same_count = cases.len() == outcome.candidates.len();
        out.check("candidate enumeration matches co_explore", same_count);
        pairs.extend(cases.into_iter().zip(&outcome.candidates));
    }
    let mut rerun = Rerun {
        reports: Vec::new(),
        replay: fleet::Replay::default(),
    };
    for (case, searched) in pairs {
        let build = || case.clone();
        let p = if tr.is_on() {
            fleet::traced_pass(&build, tr)?
        } else {
            // Re-runs count work and check results; their windows go unused.
            fleet::untraced_pass(&build, usize::MAX)?
        };
        out.check("conservation", fleet::conserved(&p.case, &p.report));
        let goodput = p
            .report
            .fleet
            .as_ref()
            .map_or(0.0, |q| q.goodput_tokens_per_sec);
        out.check(
            "co_explore candidates reproduce",
            p.report.fleet_attainment() == searched.attainment && goodput == searched.goodput,
        );
        let replay = metrics::gate_replay(fleet::replay(&p.case, &p.report, tr)?, out);
        rerun.replay.steps += replay.steps;
        rerun.replay.submits += replay.submits;
        if tr.is_on() {
            tr.span("bench.route_probe", |t| fleet::route_probe(&p.case, t))?;
            let max_ctx = workloads::max_context(&p.case.model);
            tr.span("bench.perf_probe", |t| {
                fleet::perf_probe(&p.case, max_ctx, t)
            });
        }
        rerun.reports.push(p.report);
    }
    Ok(rerun)
}

/// The end-to-end run of `design_sweep` (see [`metrics::measure`]). The
/// run phase of a pass is the whole sweep (search grid plus
/// co-explorations); its simulated requests, tokens and engine iterations
/// are those of the co-explorations' candidate fleets, counted by
/// re-running and replaying them, untimed.
pub fn untraced(args: &Args) -> Result<Outcome, SimError> {
    let mut out = Outcome::default();
    let mut winners: BTreeMap<u64, Vec<String>> = BTreeMap::new();
    let mut pass = |k: u64, count: bool, out: &mut Outcome| -> Result<metrics::Figures, SimError> {
        let p = sweep_pass(args, k, &mut Tracer::off())?;
        gate(&p, None, out);
        let labels: Vec<String> = p.winners().iter().map(|w| w.to_string()).collect();
        let first = winners.entry(k).or_insert_with(|| labels.clone());
        out.check("deterministic co_explore winner", *first == labels);
        let untimed = Instant::now();
        let mut work = None;
        if count && k == 1 {
            out.set("peak_rss_mb", metrics::peak_rss_mb());
        }
        if count {
            let rerun = rerun_candidates(&p, &mut Tracer::off(), out)?;
            let qos = rerun.reports.iter().filter_map(|r| r.fleet.as_ref());
            work = Some(metrics::Work {
                completed: rerun.reports.iter().map(|r| r.completed as f64).sum(),
                tokens: qos.map(|q| q.generated_tokens as f64).sum(),
                steps: rerun.replay.steps as f64,
            });
            if k == 1 {
                if let Some(winner) = rerun.reports.get(p.outcomes[0].best) {
                    out.headline(winner);
                }
                detail(&p, out);
            }
        }
        Ok(metrics::Figures {
            lead: p.search_windows,
            windows: p.windows,
            digest: p.digest,
            work,
            untimed_s: untimed.elapsed().as_secs_f64(),
        })
    };
    let mut setup = || -> Result<f64, SimError> {
        let t0 = Instant::now();
        let inputs = SweepInputs::build(stream_seed(args.seed, 1), args.smoke);
        let fleet_inputs: Vec<_> = inputs
            .seeds
            .iter()
            .map(|&s| inputs.fleet_input(s))
            .collect();
        let s = t0.elapsed().as_secs_f64();
        drop(std::hint::black_box(fleet_inputs));
        Ok(s)
    };
    let streams = workloads::streams(args.workload, args.smoke);
    metrics::measure(args, streams, &mut out, &mut pass, &mut setup)?;
    Ok(out)
}

/// The per-layer run of `design_sweep`: untraced and traced passes over
/// the first stream alternate until `--seconds` have elapsed; then every
/// candidate fleet is re-run traced and replayed into the first traced
/// pass's trace.
pub fn traced(args: &Args) -> Result<Outcome, SimError> {
    let mut out = Outcome::default();
    let warm = sweep_pass(args, 1, &mut Tracer::off())?;
    gate(&warm, None, &mut out);
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let (mut search_s, mut co_s, mut untraced_run, mut traced_run) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut kept: Option<Tracer> = None;
    while traced_run.len() < 2 || Instant::now() < deadline {
        let u = sweep_pass(args, 1, &mut Tracer::off())?;
        gate(&u, Some(&warm), &mut out);
        search_s.push(u.search_s);
        co_s.push(u.co_explore_s);
        untraced_run.push(u.run_s());
        let mut tr = Tracer::new();
        let t = sweep_pass(args, 1, &mut tr)?;
        gate(&t, Some(&warm), &mut out);
        traced_run.push(t.run_s());
        kept.get_or_insert(tr);
    }
    let pass = warm;
    let mut tr = kept.expect("at least one traced pass ran");
    let rerun = rerun_candidates(&pass, &mut tr, &mut out)?;
    metrics::layer_metrics(&tr, pass.inputs.requests, rerun.replay, &mut out);
    metrics::report_counts(&rerun.reports.iter().collect::<Vec<_>>(), &mut out);
    let d = tr.durations();
    let calls = d.get("search.call").map_or(&[][..], Vec::as_slice);
    let co = d.get("search.co_explore").map_or(&[][..], Vec::as_slice);
    let candidates = pass.candidates();
    let per_search = candidates / pass.outcomes.len().max(1);
    out.set("search.call_us_p50", percentile(calls, 0.5) / 1e3);
    out.set("search.call_us_p99", percentile(calls, 0.99) / 1e3);
    out.set("search.steps_per_call", pass.steps_per_call);
    out.set("search.infeasible", pass.infeasible as f64);
    out.set(
        "search.co_explore_candidate_ms",
        percentile(co, 0.5) / 1e6 / per_search.max(1) as f64,
    );
    out.set(
        "search_per_s",
        pass.inputs.searches.len() as f64 / median(&search_s),
    );
    out.set("fleet_candidates_per_s", candidates as f64 / median(&co_s));
    out.set(
        "bench.trace_overhead",
        median(&traced_run) / median(&untraced_run),
    );
    metrics::write_trace(args, &tr, &mut out);
    detail(&pass, &mut out);
    out.detail.push(("digest", json::string(&pass.digest)));
    Ok(out)
}

fn detail(pass: &SweepPass, out: &mut Outcome) {
    out.detail
        .push(("searches", pass.inputs.searches.len().to_string()));
    out.detail.push(("infeasible", pass.infeasible.to_string()));
    let winners: Vec<String> = pass.winners().iter().map(|w| json::string(w)).collect();
    out.detail
        .push(("co_explore_winners", json::array(&winners)));
}
