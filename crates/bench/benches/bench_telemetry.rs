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
//! boundary — `spans` and `chrome_trace` see identical spans.
//! The full per-token stream (`EventDetail::PerToken`, the default)
//! is measured alongside and reported as `per_token_s`: it buys
//! per-step timing at a cost proportional to total tokens, so it is
//! priced, not budgeted.
//!
//! Each cell of the shared fleet grid ([`ador_bench::grid`]) times the
//! three configurations interleaved within each repeat.
//!
//! Writes the machine-readable grid to `BENCH_telemetry.json` at the
//! workspace root (schema-checked by `ador_bench::schema::validate`
//! before the write, and again by `tests/bench_artifact.rs`) and mirrors
//! it as an `artifact:` line. Pass `--quick` for the CI smoke grid, which
//! writes to `target/bench-quick/` instead and leaves the committed file
//! alone.

use ador_bench::{f, grid, json, table};
use ador_core::cluster::scenarios::{SCALE_RATE_PER_REPLICA, SCALE_SEED};
use ador_core::cluster::FleetReport;
use ador_core::telemetry::{EventDetail, TelemetryConfig};

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
    // The full per-token stream — priced alongside, not budgeted.
    let per_token = grid::lifecycle().with_detail(EventDetail::PerToken);

    let mut rows = Vec::new();
    let mut cells = Vec::new();
    let runs = if quick { 1 } else { 3 };
    for &(replicas, requests) in grid::cells(quick) {
        let stream = grid::stream(replicas, requests);
        let [(off_s, off_report), (on_s, on_report), (per_token_s, per_token_report)] =
            grid::time_cell(
                replicas,
                &stream,
                [TelemetryConfig::OFF, grid::lifecycle(), per_token],
                runs,
            );
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
        ("ring_capacity", json::num(grid::RING_CAPACITY as f64)),
        (
            "series_interval_s",
            json::num(grid::series_interval().get()),
        ),
        ("cells", json::array(&cells)),
    ]);
    ador_bench::write_artifact("telemetry", &doc, quick).expect("write BENCH_telemetry.json");
}
