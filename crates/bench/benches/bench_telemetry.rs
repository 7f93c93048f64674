//! Telemetry wall-clock overhead: tracing-on vs tracing-off over a
//! replicas × requests grid.
//!
//! The observability contract is twofold: telemetry off must be *free*
//! (the untraced fleet is bit-identical to a build without the telemetry
//! crate — pinned by proptests in `ador-serving` and re-verified here on
//! every measured run), and telemetry on must be *cheap* — within 10 %
//! wall-clock of the untraced fleet at the 128-replica / 100k-request
//! cell. The budgeted configuration is the always-on production shape:
//! a bounded per-replica flight recorder plus windowed time series at
//! `EventDetail::Lifecycle` granularity, which elides the steady
//! one-token decode commits that otherwise dominate event volume
//! (~20 M commits at the 64×64k cell) while keeping every phase
//! boundary — `PhaseHistograms` and `chrome_trace` see identical spans.
//! The full per-token stream (`EventDetail::PerToken`, the default)
//! is measured alongside and reported as `per_token_s`: it buys
//! per-step timing at a cost proportional to total tokens, so it is
//! priced, not budgeted.
//!
//! Writes the machine-readable grid to `BENCH_telemetry.json` at the
//! workspace root (schema-checked by `tests/bench_artifact.rs` via
//! `ador_bench::schema::validate_bench_telemetry`) and mirrors it as an
//! `artifact:` line. Pass `--quick` for the CI smoke grid, which writes
//! to `target/bench-quick/` instead and leaves the committed file alone.

use std::time::Instant;

use ador_bench::{f, json, table};
use ador_core::baselines;
use ador_core::cluster::scenarios::{scale_fleet, scale_mix, SCALE_RATE_PER_REPLICA, SCALE_SEED};
use ador_core::cluster::{ClusterSim, FleetReport};
use ador_core::model::presets;
use ador_core::perf::Deployment;
use ador_core::telemetry::{EventDetail, TelemetryConfig};
use ador_core::units::Seconds;

/// The full grid: the same cells as `bench_cluster`, up to the
/// 128-replica / 100k-request point where the overhead budget is
/// enforced ([`ador_bench::schema::TELEMETRY_OVERHEAD_FLOOR_REQUESTS`]).
const FULL_GRID: [(usize, usize); 4] = [(4, 4_000), (16, 16_000), (64, 64_000), (128, 100_000)];

/// The `--quick` smoke grid: exercises the same code path (all three
/// configs, equivalence checks, JSON write) in seconds.
const QUICK_GRID: [(usize, usize); 2] = [(2, 300), (4, 600)];

/// Per-replica flight-recorder capacity of the traced configurations —
/// enough to post-mortem the recent past (≈40 batch-32 steps of
/// commits), constant memory, and small enough (128 KB of events per
/// replica) that the fleet's rings stay cache-resident: ring-write
/// memory traffic, not CPU, is what the overhead budget is spent on.
const RING_CAPACITY: usize = 4_096;

/// Time-series sampling interval of the traced configurations.
fn series_interval() -> Seconds {
    Seconds::from_millis(250.0)
}

/// Runs one cell `runs` times and keeps the fastest wall-clock (the
/// usual minimum-of-N noise damper; the report is identical across
/// repeats — the simulation is deterministic).
fn run_cell(
    replicas: usize,
    requests: usize,
    telemetry: TelemetryConfig,
    runs: usize,
) -> (f64, FleetReport) {
    let arch = baselines::ador_table3();
    let model = presets::llama3_8b();
    let mix = scale_mix(replicas);
    let stream = mix.generate(requests, SCALE_SEED);
    let mut best: Option<(f64, FleetReport)> = None;
    for _ in 0..runs {
        let sim = ClusterSim::new(
            &arch,
            &model,
            Deployment::single_device(),
            scale_fleet(replicas).with_telemetry(telemetry),
        )
        .expect("fleet builds");
        let start = Instant::now();
        let report = sim.run_stream(&mix, stream.clone()).expect("fleet runs");
        let elapsed = start.elapsed().as_secs_f64();
        if best.as_ref().is_none_or(|(t, _)| elapsed < *t) {
            best = Some((elapsed, report));
        }
    }
    best.expect("at least one run")
}

/// Strips the telemetry artifacts from a traced report and checks that
/// what remains — every simulated quantity — equals the untraced run.
fn check_traced(
    mut report: FleetReport,
    off_report: &FleetReport,
    label: &str,
    replicas: usize,
    requests: usize,
) -> bool {
    let telemetry = report.telemetry.take();
    assert!(
        telemetry.is_some_and(|t| t.events.iter().any(|e| !e.is_empty())),
        "{label} run must retain events at {replicas} replicas x {requests} requests"
    );
    // The observability contract: modulo the artifacts themselves,
    // the traced report is the untraced report.
    let equal = report == *off_report;
    assert!(
        equal,
        "{label} telemetry perturbed the run at {replicas} replicas x {requests} requests"
    );
    equal
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let grid: &[(usize, usize)] = if quick { &QUICK_GRID } else { &FULL_GRID };
    // The budgeted always-on shape: lifecycle-granularity events.
    let lifecycle = TelemetryConfig::flight_recorder(RING_CAPACITY)
        .with_detail(EventDetail::Lifecycle)
        .with_series(series_interval());
    // The full per-token stream — priced alongside, not budgeted.
    let per_token = TelemetryConfig::flight_recorder(RING_CAPACITY).with_series(series_interval());

    let mut rows = Vec::new();
    let mut cells = Vec::new();
    let runs = if quick { 1 } else { 3 };
    for &(replicas, requests) in grid {
        let (off_s, off_report) = run_cell(replicas, requests, TelemetryConfig::OFF, runs);
        let (on_s, on_report) = run_cell(replicas, requests, lifecycle, runs);
        let (per_token_s, per_token_report) = run_cell(replicas, requests, per_token, runs);
        let reports_equal = check_traced(on_report, &off_report, "lifecycle", replicas, requests)
            && check_traced(
                per_token_report,
                &off_report,
                "per-token",
                replicas,
                requests,
            );
        let overhead = on_s / off_s;
        rows.push(vec![
            replicas.to_string(),
            requests.to_string(),
            f(off_s, 3),
            f(on_s, 3),
            format!("{}x", f(overhead, 3)),
            f(per_token_s, 3),
            reports_equal.to_string(),
        ]);
        cells.push(json::object(&[
            ("replicas", json::num(replicas as f64)),
            ("requests", json::num(requests as f64)),
            ("off_s", json::num(off_s)),
            ("on_s", json::num(on_s)),
            ("per_token_s", json::num(per_token_s)),
            ("overhead", json::num(overhead)),
            ("reports_equal", reports_equal.to_string()),
        ]));
    }
    table(
        "Telemetry wall-clock: off vs lifecycle (budgeted) vs per-token",
        &[
            "replicas",
            "requests",
            "off (s)",
            "on (s)",
            "overhead",
            "per-token (s)",
            "reports equal",
        ],
        &rows,
    );

    let doc = json::object(&[
        ("name", json::string("bench_telemetry")),
        ("rate_per_replica", json::num(SCALE_RATE_PER_REPLICA)),
        ("seed", json::num(SCALE_SEED as f64)),
        ("ring_capacity", json::num(RING_CAPACITY as f64)),
        ("series_interval_s", json::num(series_interval().get())),
        ("cells", json::array(&cells)),
    ]);
    ador_bench::schema::validate_bench_telemetry(&doc).expect("emitted grid passes its own schema");
    ador_bench::write_artifact("telemetry", &doc, quick).expect("write BENCH_telemetry.json");
}
