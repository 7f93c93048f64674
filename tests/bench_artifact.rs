//! Committed perf-artifact checks: the machine-readable baselines at the
//! workspace root must exist and satisfy their schema
//! (`ador_bench::schema::validate`), so CI fails when an artifact goes
//! missing, a bench's emitter drifts from the schema, or a hand edit
//! corrupts the file.

/// Reads the committed `BENCH_<stem>.json` (regenerated by
/// `cargo bench -p ador-bench --bench <bench>`) and validates it as the
/// `bench_<stem>` artifact.
fn check_committed(stem: &str, bench: &str) {
    let file = format!("BENCH_{stem}.json");
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(&file);
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "{file} must be committed at the workspace root \
             (regenerate with `cargo bench -p ador-bench --bench {bench}`): {e}"
        )
    });
    ador_bench::schema::validate(&format!("bench_{stem}"), &text)
        .unwrap_or_else(|e| panic!("{file} failed its schema: {e}"));
}

/// `BENCH_cluster.json` — the fleet-driver wall-clock grid. Schema-only
/// (cell structure, positive wall-clocks, drivers-agree flags): a
/// `--quick` smoke run and the full committed grid both pass, so
/// re-running the bench locally never breaks the suite.
#[test]
fn committed_bench_cluster_grid_is_valid() {
    check_committed("cluster", "bench_cluster");
}

/// `BENCH_telemetry.json` — the telemetry-overhead grid. Beyond cell
/// structure, the schema enforces the observability budget: at the
/// 100k-request scale, tracing-on wall-clock stays within 10 % of
/// tracing-off, and every measured cell re-verified that telemetry did
/// not perturb the fleet report.
#[test]
fn committed_bench_telemetry_grid_is_valid() {
    check_committed("telemetry", "bench_telemetry");
}

/// `BENCH_disagg.json` — the disaggregation co-exploration. Beyond
/// candidate structure (iso-count pools, attainment in [0, 1], finite
/// latency and goodput figures), the schema enforces the headline result
/// on full runs: the committed artifact must carry the disaggregated-
/// beats-best-homogeneous win. A `--quick` smoke artifact is
/// structurally valid but exempt from the win requirement.
#[test]
fn committed_bench_disagg_is_valid() {
    check_committed("disagg", "exp_disagg");
}

/// `BENCH_attribution.json` — the SLO-miss attribution artifact. Beyond
/// cell structure, the schema enforces the attribution contracts on full
/// runs: attribution-on wall-clock stays within 10 % of tracing-only at
/// the 100k-request scale, steady-decode allocations per step stay
/// under the self-profiler budget, and the blame comparison carries the
/// pinned topology shift (aggregated fleets blame prefill-interference,
/// disaggregated fleets blame something else). A `--quick` smoke
/// artifact is structurally valid but exempt from the pins.
#[test]
fn committed_bench_attribution_is_valid() {
    check_committed("attribution", "bench_attribution");
}
