//! Fixture-driven rule tests.
//!
//! Every rule has a fixture under `tests/fixtures/` with positive cases
//! (the rule fires, at pinned lines) and suppressed cases (a reasoned
//! `ador-lint: allow(…)` silences it). The fixtures deliberately
//! contain findings, which is why the workspace walk skips `fixtures/`
//! directories. Also here: the seeded-regression demonstration the CI
//! gate relies on, and the JSON self-validation that parses
//! `render_json` output back with `ador-bench::json`.

// tests may unwrap: a failed unwrap IS the failure signal
#![allow(clippy::unwrap_used)]

use ador_analysis::{lint_file, FileClass, Finding, Report, RULES};
use ador_bench::json::{parse, Value};

const SIM: FileClass = FileClass {
    sim: true,
    test_file: false,
};

/// All fixtures, paired with the rule they exercise.
const FIXTURES: &[(&str, &str)] = &[
    ("wall-clock", include_str!("fixtures/wall_clock.rs")),
    ("thread-rng", include_str!("fixtures/thread_rng.rs")),
    (
        "unordered-collection",
        include_str!("fixtures/unordered_collection.rs"),
    ),
    ("map-iter", include_str!("fixtures/map_iter.rs")),
    ("panic", include_str!("fixtures/panic.rs")),
    ("as-cast", include_str!("fixtures/as_cast.rs")),
    ("float-accum", include_str!("fixtures/float_accum.rs")),
    (
        "allow-no-reason",
        include_str!("fixtures/allow_no_reason.rs"),
    ),
    ("unused-allow", include_str!("fixtures/unused_allow.rs")),
];

/// The path each rule's fixture is linted under: `float-accum` is scoped
/// to the telemetry crate's library sources, everything else is
/// path-independent.
fn fixture_path(rule: &str) -> &'static str {
    if rule == "float-accum" {
        "crates/telemetry/src/fixture.rs"
    } else {
        "fixture.rs"
    }
}

fn lines_for(findings: &[Finding], rule: &str) -> Vec<u32> {
    findings
        .iter()
        .filter(|f| f.rule == rule)
        .map(|f| f.line)
        .collect()
}

/// Asserts every suppression in the fixture was used and well-formed
/// (fixtures that *test* those rules opt out).
fn assert_suppressions_clean(findings: &[Finding]) {
    let hygiene = findings
        .iter()
        .filter(|f| f.rule == "unused-allow" || f.rule == "allow-no-reason")
        .count();
    assert_eq!(
        hygiene, 0,
        "fixture suppressions must all land: {findings:?}"
    );
}

#[test]
fn wall_clock_fires_and_suppresses() {
    let found = lint_file(SIM, "wall_clock.rs", FIXTURES[0].1);
    assert_eq!(lines_for(&found, "wall-clock"), vec![5, 6]);
    assert_suppressions_clean(&found);
    assert_eq!(found.len(), 2, "{found:?}");
}

#[test]
fn thread_rng_fires_and_suppresses() {
    let found = lint_file(SIM, "thread_rng.rs", FIXTURES[1].1);
    assert_eq!(lines_for(&found, "thread-rng"), vec![4, 5, 6]);
    assert_suppressions_clean(&found);
    assert_eq!(found.len(), 3, "{found:?}");
}

#[test]
fn unordered_collection_fires_and_suppresses() {
    let found = lint_file(SIM, "unordered_collection.rs", FIXTURES[2].1);
    assert_eq!(lines_for(&found, "unordered-collection"), vec![4, 6, 7]);
    assert_suppressions_clean(&found);
    assert_eq!(found.len(), 3, "{found:?}");
}

#[test]
fn map_iter_fires_and_suppresses() {
    let found = lint_file(SIM, "map_iter.rs", FIXTURES[3].1);
    // Field iteration, a direct `for … in map`, and a method chain.
    assert_eq!(lines_for(&found, "map-iter"), vec![11, 17, 23]);
    // The bindings' own unordered-collection findings are all annotated.
    assert_eq!(lines_for(&found, "unordered-collection"), Vec::<u32>::new());
    assert_suppressions_clean(&found);
    assert_eq!(found.len(), 3, "{found:?}");
}

#[test]
fn panic_fires_in_library_code_only() {
    let found = lint_file(SIM, "panic.rs", FIXTURES[4].1);
    // unwrap, indexing-by-literal, panic!, expect — and nothing from the
    // `#[cfg(test)]` module at the bottom.
    assert_eq!(lines_for(&found, "panic"), vec![5, 6, 8, 14]);
    assert_suppressions_clean(&found);
    assert_eq!(found.len(), 4, "{found:?}");
}

#[test]
fn as_cast_fires_in_library_code_only() {
    let found = lint_file(SIM, "as_cast.rs", FIXTURES[5].1);
    assert_eq!(lines_for(&found, "as-cast"), vec![5, 9]);
    assert_suppressions_clean(&found);
    assert_eq!(found.len(), 2, "{found:?}");
}

#[test]
fn float_accum_fires_in_telemetry_library_code_and_suppresses() {
    let found = lint_file(SIM, "crates/telemetry/src/fixture.rs", FIXTURES[6].1);
    // `sum +=` fires; the annotated `kahan +=` and the integer `n +=`
    // stay silent.
    assert_eq!(lines_for(&found, "float-accum"), vec![7]);
    assert_suppressions_clean(&found);
    assert_eq!(found.len(), 1, "{found:?}");
    // Outside the telemetry crate the rule never fires.
    let out = lint_file(SIM, "crates/serving/src/fixture.rs", FIXTURES[6].1);
    assert_eq!(lines_for(&out, "float-accum"), Vec::<u32>::new());
}

#[test]
fn allow_no_reason_fires_on_bare_attr_and_malformed_suppression() {
    let found = lint_file(SIM, "allow_no_reason.rs", FIXTURES[7].1);
    // The bare `#[allow]` and the reasonless suppression; the justified
    // `#[allow]` stays silent.
    assert_eq!(lines_for(&found, "allow-no-reason"), vec![6, 14]);
    assert_eq!(found.len(), 2, "{found:?}");
}

#[test]
fn unused_allow_fires_on_stale_suppression() {
    let found = lint_file(SIM, "unused_allow.rs", FIXTURES[8].1);
    assert_eq!(lines_for(&found, "unused-allow"), vec![5]);
    assert_eq!(found.len(), 1, "{found:?}");
}

#[test]
fn every_rule_has_a_fixture_that_fires_it() {
    for info in RULES {
        let covered = FIXTURES.iter().any(|(rule, src)| {
            *rule == info.id
                && lint_file(SIM, fixture_path(rule), src)
                    .iter()
                    .any(|f| f.rule == info.id)
        });
        assert!(covered, "rule `{}` has no firing fixture", info.id);
    }
}

/// The CI gate's contract: planting a determinism hazard in previously
/// clean code produces a finding, which fails the run.
#[test]
fn seeded_regression_fails_the_gate() {
    let clean = "fn step(now: Seconds) -> Seconds {\n    now\n}\n";
    assert!(lint_file(SIM, "sim.rs", clean).is_empty());

    let seeded =
        "fn step(now: Seconds) -> Seconds {\n    let _wall = Instant::now();\n    now\n}\n";
    let found = lint_file(SIM, "sim.rs", seeded);
    assert_eq!(found.len(), 1, "{found:?}");
    assert_eq!(found[0].rule, "wall-clock");

    let report = Report {
        findings: found,
        files: 1,
    };
    assert!(!report.clean(), "a seeded hazard must fail the run");
}

/// `render_json` output must parse with `ador-bench::json` — the two
/// hand-rolled ends of the repo's JSON story pin each other.
#[test]
fn json_report_parses_with_ador_bench() {
    let report = Report {
        findings: vec![Finding {
            path: "crates/serving/src/engine.rs".to_string(),
            line: 42,
            col: 7,
            rule: "panic",
            message: "quote: \"x\", backslash: \\, and a\nnewline".to_string(),
        }],
        files: 120,
    };
    let doc = parse(&report.render_json()).expect("ador-lint JSON must parse");
    assert_eq!(doc.get("name").and_then(Value::as_str), Some("ador-lint"));
    assert_eq!(doc.get("files").and_then(Value::as_f64), Some(120.0));
    assert_eq!(doc.get("clean").and_then(Value::as_bool), Some(false));

    let findings = doc.get("findings").and_then(Value::as_array).unwrap();
    assert_eq!(findings.len(), 1);
    assert_eq!(
        findings[0].get("rule").and_then(Value::as_str),
        Some("panic")
    );
    assert_eq!(findings[0].get("line").and_then(Value::as_f64), Some(42.0));
    assert_eq!(
        findings[0].get("message").and_then(Value::as_str),
        Some("quote: \"x\", backslash: \\, and a\nnewline"),
        "escaping must survive the round trip"
    );
}
