//! Fleet event-loop wall-clock baseline over a replicas × requests grid.
//!
//! Each cell times `ClusterSim::run_stream` on the shared scale-grid
//! scenario and then re-checks the run against the per-replica oracle:
//! every replica's report must equal a fresh engine replaying exactly the
//! requests the fleet routed to it. Engines are independent, so a driver
//! that swept a replica too far, too little or at the wrong instant
//! shows up as a mismatch. The grid scales the offered load with the
//! fleet ([`scenarios::scale_mix`]) so each cell isolates driver cost on
//! a healthy fleet rather than queueing collapse.
//!
//! Writes the machine-readable grid to `BENCH_cluster.json` at the
//! workspace root (schema-checked by `tests/bench_artifact.rs` via
//! `ador_bench::schema::validate_bench_cluster`) and mirrors it as an
//! `artifact:` line. Pass `--quick` for the CI smoke grid, which writes
//! to `target/bench-quick/` instead and leaves the committed file alone.

use std::collections::BTreeMap;
use std::time::Instant;

use ador_bench::{f, json, table};
use ador_core::baselines;
use ador_core::cluster::scenarios::{scale_fleet, scale_mix, SCALE_RATE_PER_REPLICA, SCALE_SEED};
use ador_core::cluster::{ClusterRequest, ClusterSim, FleetReport};
use ador_core::model::presets;
use ador_core::perf::Deployment;
use ador_core::serving::{Request, ServingSim, StepEvent};

/// The full grid: small fleets up to the 128-replica / 100k-request
/// cell, where the ready heap keeps idle replicas out of each instant.
const FULL_GRID: [(usize, usize); 4] = [(4, 4_000), (16, 16_000), (64, 64_000), (128, 100_000)];

/// The `--quick` smoke grid: exercises the same code path (timed runs,
/// replay check, JSON write) in seconds.
const QUICK_GRID: [(usize, usize); 2] = [(2, 300), (4, 600)];

/// Runs one cell `runs` times and keeps the fastest wall-clock (the
/// usual minimum-of-N noise damper; the report is identical across
/// repeats — the simulation is deterministic).
fn run_cell(replicas: usize, stream: &[ClusterRequest], runs: usize) -> (f64, FleetReport) {
    let arch = baselines::ador_table3();
    let model = presets::llama3_8b();
    let mix = scale_mix(replicas);
    let mut best: Option<(f64, FleetReport)> = None;
    for _ in 0..runs {
        let sim = ClusterSim::new(
            &arch,
            &model,
            Deployment::single_device(),
            scale_fleet(replicas),
        )
        .expect("fleet builds");
        let start = Instant::now();
        let report = sim.run_stream(&mix, stream.to_vec()).expect("fleet runs");
        let elapsed = start.elapsed().as_secs_f64();
        if best.as_ref().is_none_or(|(t, _)| elapsed < *t) {
            best = Some((elapsed, report));
        }
    }
    best.expect("at least one run")
}

/// The per-replica oracle: whether every replica's report equals that
/// of a fresh engine (same config) replaying the requests routed to it,
/// submitted in routing order.
fn replicas_replay(replicas: usize, stream: &[ClusterRequest], report: &FleetReport) -> bool {
    let arch = baselines::ador_table3();
    let model = presets::llama3_8b();
    let engine_cfg = scale_fleet(replicas).engine;
    let by_id: BTreeMap<u64, Request> = stream
        .iter()
        .map(|cr| (cr.request.id, cr.request))
        .collect();
    let mut routed: Vec<Vec<Request>> = vec![Vec::new(); replicas];
    for &(id, replica) in &report.assignments {
        if let Some(r) = replica {
            routed[r].push(by_id[&id]);
        }
    }
    routed
        .into_iter()
        .zip(&report.per_replica)
        .all(|(requests, fleet_report)| {
            let mut engine =
                ServingSim::new(&arch, &model, Deployment::single_device(), engine_cfg)
                    .expect("engine builds")
                    .engine();
            for request in requests {
                engine.submit(request).expect("routed requests fit");
            }
            while engine.step().expect("engine runs") != StepEvent::Idle {}
            engine.report() == *fleet_report
        })
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let grid: &[(usize, usize)] = if quick { &QUICK_GRID } else { &FULL_GRID };

    let mut rows = Vec::new();
    let mut cells = Vec::new();
    let runs = if quick { 1 } else { 3 };
    for &(replicas, requests) in grid {
        let stream = scale_mix(replicas).generate(requests, SCALE_SEED);
        let (event_s, report) = run_cell(replicas, &stream, runs);
        let reports_equal = replicas_replay(replicas, &stream, &report);
        assert!(
            reports_equal,
            "a replica diverged from its replay at {replicas} replicas x {requests} requests"
        );
        rows.push(vec![
            replicas.to_string(),
            requests.to_string(),
            f(event_s, 3),
            reports_equal.to_string(),
        ]);
        cells.push(json::object(&[
            ("replicas", json::num(replicas as f64)),
            ("requests", json::num(requests as f64)),
            ("event_s", json::num(event_s)),
            ("reports_equal", reports_equal.to_string()),
        ]));
    }
    table(
        "Fleet event loop wall-clock (per-replica replay re-checked)",
        &["replicas", "requests", "event (s)", "reports equal"],
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
