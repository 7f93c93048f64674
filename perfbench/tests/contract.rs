//! The benchmark's own contract: the metric names it prints are exactly
//! those `BENCHMARK.json` declares, every smoke run passes its checks, and
//! a run's simulated-output digest repeats across invocations.

use std::path::Path;
use std::process::Command;

use ador_bench::json::{self, Value};

const WORKLOADS: [&str; 3] = ["session_affinity", "disagg_traced", "design_sweep"];

/// Runs one smoke invocation and returns (detail line, result object).
fn smoke(workload: &str, trace: u8, seed: u64) -> (Value, Value) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "0", "--trace", &trace.to_string(), "--smoke"])
        .output()
        .expect("benchmark runs");
    assert!(out.status.success(), "{workload}: exit {:?}", out.status);
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let lines: Vec<&str> = stdout.lines().collect();
    let result = json::parse(lines.last().expect("a result line")).expect("result parses");
    let detail = lines
        .iter()
        .find_map(|l| l.strip_prefix("detail "))
        .map(|d| json::parse(d).expect("detail parses"))
        .expect("a detail line");
    (detail, result)
}

fn manifest() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn declared(manifest: &Value, key: &str) -> Vec<(String, String)> {
    manifest
        .get(key)
        .and_then(Value::as_array)
        .expect("a metric list")
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Value::as_str).expect("a name");
            let unit = m.get("unit").and_then(Value::as_str).unwrap_or("");
            (name.to_string(), unit.to_string())
        })
        .collect()
}

fn printed(result: &Value) -> Vec<(String, String)> {
    match result.get("metrics") {
        Some(Value::Obj(fields)) => fields
            .iter()
            .map(|(name, m)| {
                let unit = m.get("unit").and_then(Value::as_str).expect("a unit");
                (name.clone(), unit.to_string())
            })
            .collect(),
        other => panic!("metrics is not an object: {other:?}"),
    }
}

#[test]
fn printed_metrics_and_workloads_match_the_manifest() {
    let manifest = manifest();
    let workloads: Vec<&str> = manifest
        .get("workloads")
        .and_then(Value::as_array)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Value::as_str).expect("a name"))
        .collect();
    assert_eq!(workloads, WORKLOADS);
    for workload in WORKLOADS {
        for (trace, key) in [(0, "end_to_end"), (1, "per_layer")] {
            let (_, result) = smoke(workload, trace, 5);
            assert_eq!(
                printed(&result),
                declared(&manifest, key),
                "{workload} --trace {trace}"
            );
            assert_eq!(
                result.get("correct"),
                Some(&Value::Bool(true)),
                "{workload}"
            );
            assert_eq!(result.get("failed").and_then(Value::as_f64), Some(0.0));
        }
    }
}

#[test]
fn smoke_digest_repeats_across_invocations() {
    for workload in WORKLOADS {
        let (a, _) = smoke(workload, 0, 9);
        let (b, _) = smoke(workload, 0, 9);
        let digest = |d: &Value| d.get("digest").and_then(Value::as_str).map(str::to_string);
        assert!(digest(&a).is_some_and(|d| d.len() == 16), "{workload}");
        assert_eq!(digest(&a), digest(&b), "{workload}");
        assert_eq!(a.get("smoke"), Some(&Value::Bool(true)));
        // A different seed is a different workload.
        let (c, _) = smoke(workload, 0, 10);
        assert_ne!(digest(&a), digest(&c), "{workload}");
    }
}
