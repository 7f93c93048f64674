//! Span-scoped allocation audit of the engine hot path, behind the
//! `profile` feature (`cargo test --features profile --test alloc_audit`).
//!
//! The self-profiler (`ador::serving::profile`) keeps two contracts this
//! test pins end-to-end with a real counting allocator installed:
//!
//! * every `Engine::step` stage is metered (calls advance with steps),
//!   and steady-state decode — full batch, no arrivals, no completions —
//!   allocates only in the timing stage, when a new (batch, context
//!   bucket) misses the step-cost table: the step's working vectors are
//!   engine-owned scratch, with speculation off and under SLO-adaptive
//!   speculation alike. It also stays within the allocations-per-step
//!   budget the featureless `bench_attribution` artifact enforces. The
//!   same holds for the steady decode runs `Engine::step_until`
//!   fast-forwards, whose profile counts every iteration as a step;
//! * profiling is deterministic: same-seed runs produce the same stage
//!   `calls` layout (allocation *counts* are a pure function of the
//!   deterministic work, so replays agree). A session scenario driven by
//!   `step_until` — prefix caching on a scarce KV budget, a queue behind
//!   a full batch, completions — pins its exact count of general
//!   iterations (arrivals-stage passes) against its steps, so a steady
//!   run that stops where it need not shows as a changed count. A run
//!   charges the evictions and retirements it makes to the commit stage.
//!
//! The counting `GlobalAlloc` lives here, not in the library: the
//! workspace crates are `forbid(unsafe_code)`, so the harness owns the
//! one unavoidable `unsafe impl` and hands the engine a safe
//! `fn() -> u64` probe via `install_alloc_probe`. It counts per thread,
//! so the harness's own threads and a test running beside another
//! never land in a measured window.
#![cfg(feature = "profile")]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use ador::model::presets;
use ador::perf::Deployment;
use ador::serving::profile::{self, Stage, StepProfile, STAGES};
use ador::serving::{
    Engine, Request, ServingSim, SimConfig, Slo, SpeculationConfig, SpeculationPolicy,
};
use ador::units::Seconds;

thread_local! {
    /// Allocations made by this thread. Const-initialized and without a
    /// destructor, so reading it from inside the allocator never
    /// allocates.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with` cannot fail for a destructor-less thread local; ignoring
    // the error keeps the allocator panic-free regardless.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

struct CountingAlloc;

// SAFETY: delegates every operation to `System` unchanged; the counter
// bump is a side effect that never touches the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn probe() -> u64 {
    ALLOCS.with(Cell::get)
}

const BATCH: usize = 32;
const MEASURED_STEPS: u64 = 256;

/// Builds one engine under `cfg`, saturates it with the long decodes
/// `request` builds, and warms it past prefill and admission into pure
/// decode.
fn steady_engine<'a>(
    arch: &'a ador::hw::Architecture,
    model: &'a ador::model::ModelConfig,
    cfg: SimConfig,
    request: impl Fn(u64) -> Request,
) -> Engine<'a> {
    let mut engine = ServingSim::new(arch, model, Deployment::single_device(), cfg)
        .expect("engine builds")
        .engine();
    for id in 0..BATCH as u64 {
        engine.submit(request(id)).expect("submit");
    }
    while engine.queue_depth() > 0 {
        engine.step().expect("warmup step");
    }
    for _ in 0..8 {
        engine.step().expect("warmup step");
    }
    engine
}

fn run_measured(engine: &mut Engine<'_>) -> (StepProfile, StepProfile) {
    let before = *engine.step_profile();
    for _ in 0..MEASURED_STEPS {
        engine.step().expect("measured step");
    }
    (before, *engine.step_profile())
}

fn long_decode(id: u64) -> Request {
    Request::new(id, Seconds::ZERO, 64, 4_096)
}

/// Asserts that steady decode allocated nothing outside the timing stage,
/// which allocates only to fill the step-cost table.
fn assert_only_timing_allocates(before: &StepProfile, after: &StepProfile) {
    let steps = after.steps - before.steps;
    for stage in [
        Stage::Arrivals,
        Stage::Speculation,
        Stage::Admission,
        Stage::Commit,
    ] {
        let allocs = after.stage(stage).allocs - before.stage(stage).allocs;
        assert_eq!(
            allocs,
            0,
            "stage {} allocated {allocs} times over {steps} steady decode steps",
            stage.label()
        );
    }
}

#[test]
fn steady_decode_stage_profile_is_metered_bounded_and_deterministic() {
    // First install wins process-wide; a second call is a no-op, so this
    // holds whichever test in the binary runs first.
    profile::install_alloc_probe(probe);

    let arch = ador::baselines::ador_table3();
    let model = presets::llama3_8b();
    let mut engine = steady_engine(&arch, &model, SimConfig::new(1.0, BATCH), long_decode);
    let (before, after) = run_measured(&mut engine);

    // Every stage is metered: steps and per-stage calls advance together.
    let steps = after.steps - before.steps;
    assert_eq!(steps, MEASURED_STEPS, "every measured step is profiled");
    for stage in STAGES {
        let calls = after.stage(stage).calls - before.stage(stage).calls;
        assert!(
            calls >= MEASURED_STEPS,
            "stage {} recorded {calls} calls over {MEASURED_STEPS} steps",
            stage.label()
        );
    }

    // The probe is live: it counts a deliberate allocation, so the zero
    // counts below are measured, not a dead probe.
    let mark = profile::probe_now();
    let block = std::hint::black_box(vec![0u8; 64]);
    assert!(
        profile::probe_now() > mark,
        "the installed probe must count allocations"
    );
    drop(block);

    assert_only_timing_allocates(&before, &after);

    // The steady-decode loop stays within the same allocations-per-step
    // budget the committed BENCH_attribution.json artifact enforces.
    let allocs = after.total_allocs() - before.total_allocs();
    let per_step = allocs as f64 / MEASURED_STEPS as f64;
    assert!(
        per_step <= ador_bench::schema::STEADY_DECODE_ALLOCS_PER_STEP_CAP,
        "steady decode allocates {per_step:.2}/step (cap {})",
        ador_bench::schema::STEADY_DECODE_ALLOCS_PER_STEP_CAP
    );

    // Deterministic replay: a second same-seed engine walks the same
    // stage-call layout (alloc counts can differ across process states;
    // the call structure cannot).
    let mut replay = steady_engine(&arch, &model, SimConfig::new(1.0, BATCH), long_decode);
    let (replay_before, replay_after) = run_measured(&mut replay);
    for stage in STAGES {
        assert_eq!(
            replay_after.stage(stage).calls - replay_before.stage(stage).calls,
            after.stage(stage).calls - before.stage(stage).calls,
            "stage {} call count must replay exactly",
            stage.label()
        );
    }
}

#[test]
fn slo_adaptive_speculation_reuses_its_bid_scratch() {
    profile::install_alloc_probe(probe);

    // A TBT target no step can meet keeps every decoder at full urgency:
    // each step collects a bid per decoder, spends the whole verify
    // budget and runs verify draws.
    let arch = ador::baselines::ador_table3();
    let model = presets::llama3_8b();
    let cfg = SimConfig::new(1.0, BATCH)
        .with_speculation(SpeculationConfig::new(SpeculationPolicy::SloAdaptive));
    let mut engine = steady_engine(&arch, &model, cfg, |id| {
        long_decode(id).with_slo(Slo::tbt_only(Seconds::from_micros(1.0)))
    });
    let drafted = engine.counters().drafted_tokens;
    let (before, after) = run_measured(&mut engine);
    assert!(
        engine.counters().drafted_tokens > drafted,
        "the measured steps must speculate"
    );
    assert_only_timing_allocates(&before, &after);
}

#[test]
fn fast_forwarded_steady_decode_allocates_only_in_timing() {
    profile::install_alloc_probe(probe);

    let arch = ador::baselines::ador_table3();
    let model = presets::llama3_8b();
    let mut engine = steady_engine(&arch, &model, SimConfig::new(1.0, BATCH), long_decode);
    // Warm-up through `step_until`: one call long enough for several
    // full-length runs, so the run's stamp buffer has reached its bound.
    let span = Seconds::from_millis(250.0);
    engine
        .step_until(engine.now() + span * 4.0)
        .expect("warm-up run");
    let before = *engine.step_profile();
    let tokens = engine.counters().generated_tokens;
    for _ in 0..16 {
        engine
            .step_until(engine.now() + span)
            .expect("measured run");
    }
    let after = *engine.step_profile();
    assert_eq!(engine.active_len(), BATCH, "no request completed");

    // Every fast-forwarded iteration commits one token per request and is
    // counted as a step; the runs cover many iterations per timing call.
    let steps = after.steps - before.steps;
    let generated = engine.counters().generated_tokens - tokens;
    assert_eq!(steps * BATCH as u64, generated as u64);
    let runs = after.stage(Stage::Timing).calls - before.stage(Stage::Timing).calls;
    assert!(
        runs > 0 && runs * 8 < steps,
        "{steps} iterations in {runs} runs: steady decode must fast-forward"
    );
    assert_only_timing_allocates(&before, &after);
}

/// Multi-turn sessions for one prefix-caching engine: twelve sessions of
/// four turns, for a batch of eight. Each turn prompts with its
/// session's whole previous context plus 64 fresh tokens, two seconds
/// after the previous turn's arrival.
fn sessions() -> Vec<Request> {
    let mut requests = Vec::new();
    for s in 0..12u64 {
        let output = 48 + (s as usize * 13) % 40;
        let mut prompt = 512 + 64 * s as usize;
        for t in 0..4u64 {
            let arrival = Seconds::new(0.05 * s as f64 + 2.0 * t as f64);
            requests.push(Request::new(4 * s + t, arrival, prompt, output).with_prefix_group(s));
            prompt += output + 64;
        }
    }
    requests.sort_by(|a, b| a.arrival.get().total_cmp(&b.arrival.get()));
    requests
}

#[test]
fn steady_runs_cover_evictions_full_batches_and_completions() {
    // A KV budget too small to keep every session's context cached, and
    // each request submitted at its arrival, as a fleet submits them.
    let arch = ador::baselines::ador_table3();
    let model = presets::llama3_8b();
    let cfg = SimConfig::new(1.0, 8)
        .with_prefix_caching(true)
        .with_kv_memory_fraction(0.02);
    let mut engine = ServingSim::new(&arch, &model, Deployment::single_device(), cfg)
        .expect("engine builds")
        .engine();
    let requests = sessions();
    for r in &requests {
        engine.step_until(r.arrival).expect("run to the arrival");
        engine.submit(*r).expect("submit");
    }
    engine.step_until(Seconds::new(f64::MAX)).expect("drain");
    assert_eq!(engine.completed(), requests.len());
    let counters = engine.counters();
    assert!(
        counters.prefix_evicted_tokens > 0 && counters.peak_queue_depth > 0,
        "the scenario must evict cold blocks and queue behind a full batch"
    );

    // Every iteration counts once in `steps`, whichever path ran it. The
    // arrivals stage counts the general step's passes: one per general
    // iteration, idle call and preemption retry. Before steady runs
    // evicted, waited behind a full batch and retired the requests they
    // finished, the same drive made 320 such passes for the same 601
    // iterations.
    let profile = engine.step_profile();
    assert_eq!(profile.steps, 601);
    assert_eq!(profile.stage(Stage::Arrivals).calls, 81);
}
