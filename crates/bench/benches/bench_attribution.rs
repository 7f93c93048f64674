//! Attribution overhead, steady-decode allocation pressure, and the
//! aggregated-vs-disaggregated blame comparison.
//!
//! Three claims back the SLO-miss attribution layer:
//!
//! 1. **Attribution is cheap.** Replaying the recorded event streams
//!    into per-request time-loss ledgers happens once, at `finish()`,
//!    over events the traced fleet already paid for — so the
//!    attribution-on run must stay within 10 % wall-clock of the
//!    tracing-only run at the 128-replica / 100k-request cell
//!    (`ador_bench::schema::ATTRIBUTION_OVERHEAD_CAP`). Each measured
//!    cell also re-checks the two correctness contracts: every
//!    surviving attribution conserves (components sum exactly to the
//!    measured e2e nanoseconds) and the attributed report minus its
//!    attribution field equals the tracing-only report bit-for-bit.
//! 2. **The step loop does not churn the allocator.** A counting
//!    global allocator prices `Engine::step` in steady-state decode:
//!    full batches, no arrivals, no completions — the regime a serving
//!    fleet spends most of its wall-clock in. The committed
//!    allocations-per-step figure is schema-capped
//!    (`STEADY_DECODE_ALLOCS_PER_STEP_CAP`), so an accidental
//!    per-step `Vec` rebuild fails CI rather than silently taxing
//!    every simulated step. (The `profile` feature's span counters
//!    break the same number down by stage; this bench stays
//!    featureless so the default build is what gets priced.)
//! 3. **Blame shifts with topology.** On the pinned disaggregation
//!    scenario, the aggregated fleet's dominant miss cause is
//!    `prefill-interference` — ingest prefill chunks stretching
//!    interactive decode batches — and the disaggregated fleet's is
//!    not: moving prefill to its own pool moves the blame, which is
//!    exactly the signal the attribution layer exists to surface.
//!
//! Writes the machine-readable result to `BENCH_attribution.json` at
//! the workspace root (schema-checked by `tests/bench_artifact.rs` via
//! `ador_bench::schema::validate_bench_attribution`) and mirrors it as
//! an `artifact:` line. Pass `--quick` for the CI smoke run, which writes
//! to `target/bench-quick/` instead and leaves the committed file alone.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use ador_bench::{f, json, table};
use ador_core::baselines;
use ador_core::cluster::scenarios::{
    disagg_cluster, disagg_engine, disagg_mix, scale_fleet, scale_mix, DISAGG_RATE,
    DISAGG_REPLICAS, DISAGG_REQUESTS, DISAGG_SEED, SCALE_RATE_PER_REPLICA, SCALE_SEED,
};
use ador_core::cluster::{ClusterSim, FleetReport, FleetSpec, ReplicaSpec};
use ador_core::model::presets;
use ador_core::perf::Deployment;
use ador_core::serving::{Request, ServingSim, SimConfig};
use ador_core::telemetry::{attribute_events, EventDetail, TelemetryConfig};
use ador_core::units::Seconds;

/// Counts every heap allocation the process makes. Lives in the bench
/// binary (not the forbid-unsafe library crates) and charges nothing
/// beyond one relaxed atomic increment per allocation.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates verbatim to the system allocator; the counter is a
// side effect with no influence on the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// The overhead grid: the same cells as `bench_telemetry`, up to the
/// 128-replica / 100k-request point where the budget is enforced.
const FULL_GRID: [(usize, usize); 4] = [(4, 4_000), (16, 16_000), (64, 64_000), (128, 100_000)];

/// The `--quick` smoke grid.
const QUICK_GRID: [(usize, usize); 2] = [(2, 300), (4, 600)];

/// Replica counts of the allocation-pressure cells: allocs-per-step is
/// per engine, so the two sizes pin that it stays scale-free.
const FULL_ALLOC_REPLICAS: [usize; 2] = [4, 128];
const QUICK_ALLOC_REPLICAS: [usize; 1] = [2];

/// Measured steps per engine in the allocation cells.
const FULL_ALLOC_STEPS: usize = 512;
const QUICK_ALLOC_STEPS: usize = 64;

/// Decode batch width of the allocation cells.
const ALLOC_BATCH: usize = 32;

/// Per-replica flight-recorder capacity of the traced configurations
/// (same rationale as `bench_telemetry`: constant memory, rings stay
/// cache-resident).
const RING_CAPACITY: usize = 4_096;

fn series_interval() -> Seconds {
    Seconds::from_millis(250.0)
}

/// Runs one cell under both telemetry configs, `runs` times each with
/// the repeats interleaved (so machine-load drift hits both sides
/// alike), and keeps each side's fastest wall-clock — the usual
/// minimum-of-N noise damper; the reports are identical across repeats
/// because the simulation is deterministic.
#[allow(clippy::type_complexity)]
fn run_cell(
    replicas: usize,
    requests: usize,
    traced_cfg: TelemetryConfig,
    attributed_cfg: TelemetryConfig,
    runs: usize,
) -> ((f64, FleetReport), (f64, FleetReport)) {
    let arch = baselines::ador_table3();
    let model = presets::llama3_8b();
    let mix = scale_mix(replicas);
    let stream = mix.generate(requests, SCALE_SEED);
    let once = |telemetry: TelemetryConfig| -> (f64, FleetReport) {
        let sim = ClusterSim::new(
            &arch,
            &model,
            Deployment::single_device(),
            scale_fleet(replicas).with_telemetry(telemetry),
        )
        .expect("fleet builds");
        let start = Instant::now();
        let report = sim.run_stream(&mix, stream.clone()).expect("fleet runs");
        (start.elapsed().as_secs_f64(), report)
    };
    let mut traced: Option<(f64, FleetReport)> = None;
    let mut attributed: Option<(f64, FleetReport)> = None;
    for _ in 0..runs {
        let t = once(traced_cfg);
        if traced.as_ref().is_none_or(|(best, _)| t.0 < *best) {
            traced = Some(t);
        }
        let a = once(attributed_cfg);
        if attributed.as_ref().is_none_or(|(best, _)| a.0 < *best) {
            attributed = Some(a);
        }
    }
    (
        traced.expect("at least one run"),
        attributed.expect("at least one run"),
    )
}

/// Re-verifies the attributed run against the tracing-only baseline:
/// every attribution the retained events support conserves exactly, and
/// stripping the attribution artifact reproduces the traced report.
fn check_attributed(
    attributed: &FleetReport,
    traced: &FleetReport,
    replicas: usize,
    requests: usize,
) -> (bool, bool) {
    let events = &attributed
        .telemetry
        .as_ref()
        .expect("attributed run is traced")
        .events;
    let attrs = attribute_events(events);
    assert!(
        !attrs.is_empty(),
        "no attributable lifecycles at {replicas} replicas x {requests} requests"
    );
    let conserved = attrs.iter().all(|a| a.conserved());
    assert!(
        attributed.attribution.is_some(),
        "attribution-on run must carry a FleetAttribution"
    );
    let mut stripped = attributed.clone();
    stripped.attribution = None;
    let reports_equal = stripped == *traced;
    assert!(
        reports_equal,
        "attribution perturbed the run at {replicas} replicas x {requests} requests"
    );
    (conserved, reports_equal)
}

/// Prices `Engine::step` in steady-state decode: `replicas` independent
/// engines, each holding a full decode batch with thousands of tokens
/// still to emit, stepped round-robin for `steps` iterations while the
/// counting allocator watches.
fn allocs_per_step(replicas: usize, steps: usize) -> f64 {
    let arch = baselines::ador_table3();
    let model = presets::llama3_8b();
    let mut engines = Vec::with_capacity(replicas);
    for r in 0..replicas {
        let mut engine = ServingSim::new(
            &arch,
            &model,
            Deployment::single_device(),
            SimConfig::new(1.0, ALLOC_BATCH),
        )
        .expect("engine builds")
        .engine();
        for i in 0..ALLOC_BATCH {
            let id = (r * ALLOC_BATCH + i) as u64;
            engine
                .submit(Request::new(id, Seconds::ZERO, 64, 4_096))
                .expect("submit");
        }
        // Warm past prefill and admission into pure decode.
        while engine.queue_depth() > 0 {
            engine.step().expect("warmup step");
        }
        for _ in 0..8 {
            engine.step().expect("warmup step");
        }
        engines.push(engine);
    }
    let before = ALLOCS.load(Ordering::Relaxed);
    for _ in 0..steps {
        for engine in &mut engines {
            engine.step().expect("measured step");
        }
    }
    let delta = ALLOCS.load(Ordering::Relaxed) - before;
    delta as f64 / (steps * replicas) as f64
}

/// One blame side of the pinned disaggregation scenario: the same
/// iso-count fleet the `exp_disagg` comparison uses, PerToken-traced
/// with attribution on.
fn blame_side(disaggregated: bool) -> (FleetReport, String) {
    let model = presets::llama3_8b();
    let telemetry = TelemetryConfig::trace()
        .with_detail(EventDetail::PerToken)
        .with_attribution();
    // The fleet path reads telemetry from each replica's engine config,
    // so the trace rides on the specs, not the cluster config.
    let engine = disagg_engine().with_telemetry(telemetry);
    let fleet = if disaggregated {
        FleetSpec::prefill_decode(
            &ReplicaSpec::new(baselines::prefill_optimized(), engine),
            DISAGG_REPLICAS / 2,
            &ReplicaSpec::new(baselines::decode_optimized(), engine),
            DISAGG_REPLICAS / 2,
        )
    } else {
        FleetSpec::homogeneous(
            &ReplicaSpec::new(baselines::ador_table3(), engine),
            DISAGG_REPLICAS,
        )
    };
    let cfg = disagg_cluster(disaggregated);
    let mix = disagg_mix(DISAGG_RATE);
    let report = ClusterSim::new_fleet(&fleet, &model, Deployment::single_device(), cfg)
        .expect("fleet builds")
        .run(&mix, DISAGG_REQUESTS, DISAGG_SEED)
        .expect("fleet runs");
    let cause = report
        .attribution
        .as_ref()
        .expect("attribution on")
        .fleet
        .dominant_cause()
        .map_or("intrinsic", |c| c.label())
        .to_string();
    (report, cause)
}

fn blame_json(report: &FleetReport, cause: &str) -> String {
    let fleet = &report.attribution.as_ref().expect("attribution on").fleet;
    json::object(&[
        ("requests", json::num(fleet.requests as f64)),
        ("misses", json::num(fleet.misses as f64)),
        ("top_cause", json::string(cause)),
        ("lost_ms", json::num(fleet.total_lost_ns() as f64 / 1.0e6)),
    ])
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let grid: &[(usize, usize)] = if quick { &QUICK_GRID } else { &FULL_GRID };
    let runs = if quick { 1 } else { 5 };
    // The budgeted always-on shape plus attribution on top of it.
    let traced_cfg = TelemetryConfig::flight_recorder(RING_CAPACITY)
        .with_detail(EventDetail::Lifecycle)
        .with_series(series_interval());
    let attributed_cfg = traced_cfg.with_attribution();

    let mut rows = Vec::new();
    let mut cells = Vec::new();
    for &(replicas, requests) in grid {
        let ((traced_s, traced_report), (attributed_s, attributed_report)) =
            run_cell(replicas, requests, traced_cfg, attributed_cfg, runs);
        let (conserved, reports_equal) =
            check_attributed(&attributed_report, &traced_report, replicas, requests);
        let overhead = attributed_s / traced_s;
        rows.push(vec![
            replicas.to_string(),
            requests.to_string(),
            f(traced_s, 3),
            f(attributed_s, 3),
            format!("{}x", f(overhead, 3)),
            conserved.to_string(),
        ]);
        cells.push(json::object(&[
            ("replicas", json::num(replicas as f64)),
            ("requests", json::num(requests as f64)),
            ("traced_s", json::num(traced_s)),
            ("attributed_s", json::num(attributed_s)),
            ("overhead", json::num(overhead)),
            ("conserved", conserved.to_string()),
            ("reports_equal", reports_equal.to_string()),
        ]));
    }
    table(
        "Attribution wall-clock: tracing-only vs tracing + attribution",
        &[
            "replicas",
            "requests",
            "traced (s)",
            "attributed (s)",
            "overhead",
            "conserved",
        ],
        &rows,
    );

    let alloc_replicas: &[usize] = if quick {
        &QUICK_ALLOC_REPLICAS
    } else {
        &FULL_ALLOC_REPLICAS
    };
    let alloc_steps = if quick {
        QUICK_ALLOC_STEPS
    } else {
        FULL_ALLOC_STEPS
    };
    let mut alloc_rows = Vec::new();
    let mut alloc_cells = Vec::new();
    for &replicas in alloc_replicas {
        let aps = allocs_per_step(replicas, alloc_steps);
        alloc_rows.push(vec![
            replicas.to_string(),
            alloc_steps.to_string(),
            f(aps, 2),
        ]);
        alloc_cells.push(json::object(&[
            ("replicas", json::num(replicas as f64)),
            ("steps", json::num(alloc_steps as f64)),
            ("allocs_per_step", json::num(aps)),
        ]));
    }
    table(
        "Steady-state decode allocation pressure (counting allocator)",
        &["replicas", "steps/engine", "allocs/step"],
        &alloc_rows,
    );

    let (agg_report, agg_cause) = blame_side(false);
    let (dis_report, dis_cause) = blame_side(true);
    let shifted = agg_cause != dis_cause;
    table(
        "Dominant miss cause on the pinned disaggregation scenario",
        &["topology", "requests", "misses", "top cause", "lost (ms)"],
        &[
            vec![
                "aggregated".to_string(),
                agg_report
                    .attribution
                    .as_ref()
                    .unwrap()
                    .fleet
                    .requests
                    .to_string(),
                agg_report
                    .attribution
                    .as_ref()
                    .unwrap()
                    .fleet
                    .misses
                    .to_string(),
                agg_cause.clone(),
                f(
                    agg_report
                        .attribution
                        .as_ref()
                        .unwrap()
                        .fleet
                        .total_lost_ns() as f64
                        / 1.0e6,
                    1,
                ),
            ],
            vec![
                "disaggregated".to_string(),
                dis_report
                    .attribution
                    .as_ref()
                    .unwrap()
                    .fleet
                    .requests
                    .to_string(),
                dis_report
                    .attribution
                    .as_ref()
                    .unwrap()
                    .fleet
                    .misses
                    .to_string(),
                dis_cause.clone(),
                f(
                    dis_report
                        .attribution
                        .as_ref()
                        .unwrap()
                        .fleet
                        .total_lost_ns() as f64
                        / 1.0e6,
                    1,
                ),
            ],
        ],
    );
    println!("blame shifted with topology: {shifted}");

    let doc = json::object(&[
        ("name", json::string("bench_attribution")),
        ("rate_per_replica", json::num(SCALE_RATE_PER_REPLICA)),
        ("seed", json::num(SCALE_SEED as f64)),
        ("quick", quick.to_string()),
        ("overhead_cells", json::array(&cells)),
        ("alloc_cells", json::array(&alloc_cells)),
        (
            "blame",
            json::object(&[
                ("aggregated", blame_json(&agg_report, &agg_cause)),
                ("disaggregated", blame_json(&dis_report, &dis_cause)),
                ("shifted", shifted.to_string()),
            ]),
        ),
    ]);
    ador_bench::schema::validate_bench_attribution(&doc)
        .expect("emitted artifact passes its own schema");
    ador_bench::write_artifact("attribution", &doc, quick).expect("write BENCH_attribution.json");
}
