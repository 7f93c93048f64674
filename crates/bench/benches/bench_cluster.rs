//! Fleet-driver wall-clock baseline: the discrete-event core vs the
//! lockstep oracle over a replicas × requests grid.
//!
//! Both drivers produce identical per-request outcomes (pinned by
//! `tests/cluster_serving.rs`; re-verified here on every measured run),
//! so the only thing this bench measures is driver overhead: lockstep
//! sweeps all N replicas on every arrival, the event core touches only
//! the replicas that actually have work. The grid scales the offered
//! load with the fleet ([`scenarios::scale_mix`]) so each cell isolates
//! driver cost on a healthy fleet rather than queueing collapse.
//!
//! Writes the machine-readable grid to `BENCH_cluster.json` at the
//! workspace root (schema-checked by `tests/bench_artifact.rs` via
//! `ador_bench::schema::validate_bench_cluster`) and mirrors it as an
//! `artifact:` line. Pass `--quick` for the CI smoke grid, which writes
//! to `target/bench-quick/` instead and leaves the committed file alone.

use std::time::Instant;

use ador_bench::{f, json, table};
use ador_core::baselines;
use ador_core::cluster::scenarios::{scale_fleet, scale_mix, SCALE_RATE_PER_REPLICA, SCALE_SEED};
use ador_core::cluster::{ClusterSim, DriveMode, FleetReport};
use ador_core::model::presets;
use ador_core::perf::Deployment;

/// The full grid: small fleets where the event core must merely not lose,
/// up to the 128-replica / 100k-request cell where lockstep's
/// O(replicas)-per-arrival sweep dominates.
const FULL_GRID: [(usize, usize); 4] = [(4, 4_000), (16, 16_000), (64, 64_000), (128, 100_000)];

/// The `--quick` smoke grid: exercises the same code path (both drivers,
/// equivalence check, JSON write) in seconds.
const QUICK_GRID: [(usize, usize); 2] = [(2, 300), (4, 600)];

/// Runs one cell `runs` times and keeps the fastest wall-clock (the
/// usual minimum-of-N noise damper; the report is identical across
/// repeats — the simulation is deterministic).
fn run_cell(replicas: usize, requests: usize, drive: DriveMode, runs: usize) -> (f64, FleetReport) {
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
            scale_fleet(replicas, drive),
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

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let grid: &[(usize, usize)] = if quick { &QUICK_GRID } else { &FULL_GRID };

    let mut rows = Vec::new();
    let mut cells = Vec::new();
    let runs = if quick { 1 } else { 3 };
    for &(replicas, requests) in grid {
        let (lockstep_s, lockstep_report) = run_cell(replicas, requests, DriveMode::Lockstep, runs);
        let (event_s, event_report) = run_cell(replicas, requests, DriveMode::EventDriven, runs);
        let reports_equal = event_report == lockstep_report;
        assert!(
            reports_equal,
            "drivers diverged at {replicas} replicas x {requests} requests"
        );
        let speedup = lockstep_s / event_s;
        rows.push(vec![
            replicas.to_string(),
            requests.to_string(),
            f(lockstep_s, 3),
            f(event_s, 3),
            format!("{}x", f(speedup, 2)),
            reports_equal.to_string(),
        ]);
        cells.push(json::object(&[
            ("replicas", json::num(replicas as f64)),
            ("requests", json::num(requests as f64)),
            ("lockstep_s", json::num(lockstep_s)),
            ("event_s", json::num(event_s)),
            ("speedup", json::num(speedup)),
            ("reports_equal", reports_equal.to_string()),
        ]));
    }
    table(
        "Fleet driver wall-clock: lockstep vs event-driven",
        &[
            "replicas",
            "requests",
            "lockstep (s)",
            "event (s)",
            "speedup",
            "reports equal",
        ],
        &rows,
    );

    let doc = json::object(&[
        ("name", json::string("bench_cluster")),
        ("rate_per_replica", json::num(SCALE_RATE_PER_REPLICA)),
        ("seed", json::num(SCALE_SEED as f64)),
        ("cells", json::array(&cells)),
    ]);
    ador_bench::schema::validate_bench_cluster(&doc).expect("emitted grid passes its own schema");
    ador_bench::write_artifact("cluster", &doc, quick).expect("write BENCH_cluster.json");
}
