//! Fleet event-loop wall-clock baseline over a replicas × requests grid.
//!
//! Each cell of the shared fleet grid ([`ador_bench::grid`]) times
//! `ClusterSim::run_stream` and then re-checks the run against the
//! per-replica oracle: every replica's report must equal a fresh engine
//! replaying exactly the requests the fleet routed to it. Engines are
//! independent, so a driver that swept a replica too far, too little or
//! at the wrong instant shows up as a mismatch.
//!
//! Writes the machine-readable grid to `BENCH_cluster.json` at the
//! workspace root (schema-checked by `ador_bench::schema::validate`
//! before the write, and again by `tests/bench_artifact.rs`) and mirrors
//! it as an `artifact:` line. Pass `--quick` for the CI smoke grid, which
//! writes to `target/bench-quick/` instead and leaves the committed file
//! alone.

use std::collections::BTreeMap;

use ador_bench::{f, grid, json, table};
use ador_core::baselines;
use ador_core::cluster::scenarios::{scale_fleet, SCALE_RATE_PER_REPLICA, SCALE_SEED};
use ador_core::cluster::{ClusterRequest, FleetReport};
use ador_core::model::presets;
use ador_core::perf::Deployment;
use ador_core::serving::{Request, ServingSim, StepEvent};
use ador_core::telemetry::TelemetryConfig;

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

    let mut rows = Vec::new();
    let mut cells = Vec::new();
    let runs = if quick { 1 } else { 3 };
    for &(replicas, requests) in grid::cells(quick) {
        let stream = grid::stream(replicas, requests);
        let [(event_s, report)] = grid::time_cell(replicas, &stream, [TelemetryConfig::OFF], runs);
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
    ador_bench::write_artifact("cluster", &doc, quick).expect("write BENCH_cluster.json");
}
