//! Span-scoped allocation audit of the engine hot path, behind the
//! `profile` feature (`cargo test --features profile --test alloc_audit`).
//!
//! The self-profiler (`ador::serving::profile`) keeps two contracts this
//! test pins end-to-end with a real counting allocator installed:
//!
//! * every `Engine::step` stage is metered (calls advance with steps),
//!   and steady-state decode — full batch, no arrivals, no completions —
//!   allocates only in the timing stage, when a new (batch, context
//!   bucket) misses the step-cost cache: the step's working vectors are
//!   engine-owned scratch, with speculation off and under SLO-adaptive
//!   speculation alike. It also stays within the allocations-per-step
//!   budget the featureless `bench_attribution` artifact enforces;
//! * profiling is deterministic: same-seed runs produce the same stage
//!   `calls` layout (allocation *counts* are a pure function of the
//!   deterministic work, so replays agree).
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
/// which allocates only to fill the step-cost cache.
fn assert_only_timing_allocates(before: &StepProfile, after: &StepProfile) {
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
            "stage {} allocated {allocs} times over {MEASURED_STEPS} steady decode steps",
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
