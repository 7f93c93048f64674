//! Schema checks for the committed perf artifacts.
//!
//! Each artifact has one static table listing every required key and
//! what it must hold (a number, positive, non-negative, an integer ≥ 1,
//! a fraction, a bool, `true`, a non-empty string, a nested object or a
//! non-empty array of objects), and one function for the rules that
//! span several keys. [`validate`] is the only checker: CI runs it over
//! the committed `BENCH_*.json` files through the repo-root
//! `tests/bench_artifact.rs`, and [`crate::write_artifact`] runs it
//! before any bench writes one, so a missing, unparseable or
//! structurally wrong artifact fails the build rather than silently
//! rotting.
//!
//! The checks are invariants, not specific values, so a `--quick` smoke
//! artifact and the full committed one both pass; the pins that only a
//! full run can show (the disaggregation win, the alloc cap and the
//! blame shift) apply when `quick` is `false`.

use crate::json::{self, Value};
use ador_core::telemetry::MISS_CAUSES;

/// Request count above which `bench_telemetry` cells must keep their
/// overhead within [`TELEMETRY_OVERHEAD_CAP`]. Smaller cells (including
/// the `--quick` smoke grid) are dominated by fixed costs and
/// wall-clock noise, so only their structure is checked.
pub const TELEMETRY_OVERHEAD_FLOOR_REQUESTS: f64 = 100_000.0;

/// Maximum accepted tracing-on / tracing-off wall-clock ratio at or
/// above [`TELEMETRY_OVERHEAD_FLOOR_REQUESTS`]: telemetry must stay
/// within 10 % of the untraced fleet.
pub const TELEMETRY_OVERHEAD_CAP: f64 = 1.10;

/// Request count above which `bench_attribution` overhead cells must
/// keep within [`ATTRIBUTION_OVERHEAD_CAP`] (same fixed-cost rationale
/// as [`TELEMETRY_OVERHEAD_FLOOR_REQUESTS`]).
pub const ATTRIBUTION_OVERHEAD_FLOOR_REQUESTS: f64 = 100_000.0;

/// Maximum accepted attribution-on / tracing-only wall-clock ratio at
/// or above [`ATTRIBUTION_OVERHEAD_FLOOR_REQUESTS`]: replaying the
/// event streams into blame ledgers must stay within 10 % of the
/// traced fleet it post-processes.
pub const ATTRIBUTION_OVERHEAD_CAP: f64 = 1.10;

/// Maximum accepted steady-state-decode allocations per engine step
/// in a full-run artifact. The step loop reuses its scratch buffers,
/// so per-step allocation pressure is bounded by batch bookkeeping,
/// not token counts; the cap holds headroom over the measured grid
/// while still catching an accidental per-step `Vec` rebuild.
pub const STEADY_DECODE_ALLOCS_PER_STEP_CAP: f64 = 256.0;

/// What one required key must hold, as [`Kind::expects`] words it.
/// `True` marks a correctness re-check the bench ran on its measured
/// runs; `Object` and `Cells` nest a table.
#[derive(Clone, Copy)]
enum Kind {
    Num,
    Positive,
    NonNegative,
    Count,
    Fraction,
    Bool,
    True,
    Label,
    Object(&'static [Field]),
    Cells(&'static [Field]),
}

impl Kind {
    fn expects(self) -> &'static str {
        match self {
            Kind::Num => "a number",
            Kind::Positive => "a finite number > 0",
            Kind::NonNegative => "a finite number ≥ 0",
            Kind::Count => "an integer ≥ 1",
            Kind::Fraction => "a number in [0, 1]",
            Kind::Bool => "a bool",
            Kind::True => "true",
            Kind::Label => "a non-empty string",
            Kind::Object(_) => "an object",
            Kind::Cells(_) => "a non-empty array of objects",
        }
    }
}

/// A required key and what it must hold.
type Field = (&'static str, Kind);

/// One artifact: its `name`, its table, and its multi-key rules (run
/// only after the table holds, so they may read any key it lists).
struct Artifact {
    name: &'static str,
    fields: &'static [Field],
    rules: fn(&Value) -> Result<(), String>,
}

/// `BENCH_cluster.json` (`bench_cluster`): the fleet event loop's
/// wall-clock grid. `reports_equal`: each replica's report equals a
/// fresh engine replaying the requests routed to it.
const CLUSTER: &[Field] = &[
    ("rate_per_replica", Kind::Positive),
    ("seed", Kind::Num),
    (
        "cells",
        Kind::Cells(&[
            ("replicas", Kind::Count),
            ("requests", Kind::Count),
            ("event_s", Kind::Positive),
            ("reports_equal", Kind::True),
        ]),
    ),
];

/// `BENCH_telemetry.json` (`bench_telemetry`): tracing off vs the
/// always-on lifecycle shape (`on_s`) vs the full per-token stream.
/// `reports_equal`: telemetry observed the fleet without perturbing it.
const TELEMETRY: &[Field] = &[
    ("rate_per_replica", Kind::Positive),
    ("seed", Kind::Num),
    ("ring_capacity", Kind::Count),
    ("series_interval_s", Kind::Positive),
    (
        "cells",
        Kind::Cells(&[
            ("replicas", Kind::Count),
            ("requests", Kind::Count),
            ("off_s", Kind::Positive),
            ("on_s", Kind::Positive),
            ("per_token_s", Kind::Positive),
            ("overhead", Kind::Positive),
            ("reports_equal", Kind::True),
        ]),
    ),
];

/// One fleet composition of `BENCH_disagg.json`.
const CANDIDATE: &[Field] = &[
    ("label", Kind::Label),
    ("attainment", Kind::Fraction),
    ("goodput_tokens_per_sec", Kind::NonNegative),
    ("ttft_p95_ms", Kind::NonNegative),
    ("tbt_p95_ms", Kind::NonNegative),
    ("disaggregated", Kind::Bool),
    ("meets_target", Kind::Bool),
    ("prefill_replicas", Kind::Num),
    ("decode_replicas", Kind::Num),
];

/// `BENCH_disagg.json` (`exp_disagg`): the fleet co-exploration result.
const DISAGG: &[Field] = &[
    ("rate", Kind::Positive),
    ("replicas", Kind::Positive),
    ("requests", Kind::Positive),
    ("seed", Kind::Num),
    ("target_attainment", Kind::Positive),
    ("quick", Kind::Bool),
    ("candidates", Kind::Cells(CANDIDATE)),
    ("winner", Kind::Object(CANDIDATE)),
    ("best_homogeneous", Kind::Object(CANDIDATE)),
    ("disagg_wins", Kind::Bool),
];

/// One topology's side of the `BENCH_attribution.json` blame comparison.
const BLAME_SIDE: &[Field] = &[
    ("requests", Kind::Count),
    ("misses", Kind::NonNegative),
    ("top_cause", Kind::Label),
    ("lost_ms", Kind::NonNegative),
];

/// `BENCH_attribution.json` (`bench_attribution`): attribution
/// overhead, self-profiled allocations per step, and the
/// aggregated-vs-disaggregated blame comparison. `conserved` and
/// `reports_equal`: per-request conservation and report
/// non-perturbation, re-checked on the measured runs.
const ATTRIBUTION: &[Field] = &[
    ("rate_per_replica", Kind::Positive),
    ("seed", Kind::Num),
    ("quick", Kind::Bool),
    (
        "overhead_cells",
        Kind::Cells(&[
            ("replicas", Kind::Count),
            ("requests", Kind::Count),
            ("traced_s", Kind::Positive),
            ("attributed_s", Kind::Positive),
            ("overhead", Kind::Positive),
            ("conserved", Kind::True),
            ("reports_equal", Kind::True),
        ]),
    ),
    (
        "alloc_cells",
        Kind::Cells(&[
            ("replicas", Kind::Count),
            ("steps", Kind::Count),
            ("allocs_per_step", Kind::NonNegative),
        ]),
    ),
    (
        "blame",
        Kind::Object(&[
            ("aggregated", Kind::Object(BLAME_SIDE)),
            ("disaggregated", Kind::Object(BLAME_SIDE)),
            ("shifted", Kind::Bool),
        ]),
    ),
];

const ARTIFACTS: [Artifact; 4] = [
    Artifact {
        name: "bench_cluster",
        fields: CLUSTER,
        rules: |_| Ok(()),
    },
    Artifact {
        name: "bench_telemetry",
        fields: TELEMETRY,
        rules: |doc| {
            overheads_within_cap(
                doc,
                "cells",
                ["on_s", "off_s"],
                TELEMETRY_OVERHEAD_CAP,
                TELEMETRY_OVERHEAD_FLOOR_REQUESTS,
            )
        },
    },
    Artifact {
        name: "bench_disagg",
        fields: DISAGG,
        rules: disagg_rules,
    },
    Artifact {
        name: "bench_attribution",
        fields: ATTRIBUTION,
        rules: attribution_rules,
    },
];

/// Validates the JSON document `text` as the artifact `name`
/// (`bench_cluster`, `bench_telemetry`, `bench_disagg` or
/// `bench_attribution`): the document's own `name` must match, every
/// key of the artifact's table must hold what the table says, and the
/// artifact's multi-key rules must hold.
///
/// # Errors
///
/// Returns a human-readable description of the first violation, or of
/// an unknown artifact `name`.
pub fn validate(name: &str, text: &str) -> Result<(), String> {
    let artifact = ARTIFACTS
        .iter()
        .find(|a| a.name == name)
        .ok_or_else(|| format!("unknown artifact `{name}`"))?;
    let doc = json::parse(text)?;
    let found = doc.get("name").and_then(Value::as_str);
    if found != Some(name) {
        return Err(format!("expected artifact name `{name}`, got {found:?}"));
    }
    check(&doc, artifact.fields, "")?;
    (artifact.rules)(&doc)
}

/// Checks every key of `fields` on `value`; `at` prefixes key paths in
/// error messages.
fn check(value: &Value, fields: &[Field], at: &str) -> Result<(), String> {
    for &(key, kind) in fields {
        let path = format!("{at}{key}");
        let v = value.get(key).ok_or_else(|| format!("missing `{path}`"))?;
        let x = v.as_f64();
        let holds = match kind {
            Kind::Num => x.is_some(),
            Kind::Positive => x.is_some_and(|x| x > 0.0 && x.is_finite()),
            Kind::NonNegative => x.is_some_and(|x| x >= 0.0 && x.is_finite()),
            Kind::Count => x.is_some_and(|x| x >= 1.0 && x.fract() == 0.0),
            Kind::Fraction => x.is_some_and(|x| (0.0..=1.0).contains(&x)),
            Kind::Bool => v.as_bool().is_some(),
            Kind::True => v.as_bool() == Some(true),
            Kind::Label => v.as_str().is_some_and(|s| !s.is_empty()),
            Kind::Object(inner) if matches!(v, Value::Obj(_)) => {
                check(v, inner, &format!("{path}."))?;
                true
            }
            Kind::Cells(inner) if v.as_array().is_some_and(|c| !c.is_empty()) => {
                for (i, cell) in v.as_array().unwrap_or_default().iter().enumerate() {
                    check(cell, inner, &format!("{path}[{i}]."))?;
                }
                true
            }
            Kind::Object(_) | Kind::Cells(_) => false,
        };
        if !holds {
            return Err(format!("`{path}` must be {}, got {v:?}", kind.expects()));
        }
    }
    Ok(())
}

/// Reads `key` of `value` through `as_t`. The table has already checked
/// the key, so an error here means a rule reads a key its table lacks.
fn read<'a, T>(value: &'a Value, key: &str, as_t: fn(&'a Value) -> Option<T>) -> Result<T, String> {
    value
        .get(key)
        .and_then(as_t)
        .ok_or_else(|| format!("`{key}` is missing or of the wrong kind"))
}

/// Every cell of the `cells` array: its `overhead` equals its
/// `on / off` wall-clock ratio within 1 %, and stays within `cap` from
/// `floor` requests up.
fn overheads_within_cap(
    doc: &Value,
    cells: &str,
    [on, off]: [&str; 2],
    cap: f64,
    floor: f64,
) -> Result<(), String> {
    for (i, cell) in read(doc, cells, Value::as_array)?.iter().enumerate() {
        let (on, off) = (
            read(cell, on, Value::as_f64)?,
            read(cell, off, Value::as_f64)?,
        );
        let overhead = read(cell, "overhead", Value::as_f64)?;
        let requests = read(cell, "requests", Value::as_f64)?;
        if (overhead - on / off).abs() > 0.01 * (on / off) {
            return Err(format!(
                "{cells}[{i}]: overhead {overhead} inconsistent with {on}/{off}"
            ));
        }
        if requests >= floor && overhead > cap {
            return Err(format!(
                "{cells}[{i}]: overhead {overhead} exceeds the {cap} budget at {requests} requests"
            ));
        }
    }
    Ok(())
}

/// Pools are iso-count (a disaggregated candidate's pools sum to the
/// fleet; an aggregated one fields the whole fleet in both),
/// `best_homogeneous` is aggregated, and a full run carries the
/// disaggregation win.
fn disagg_rules(doc: &Value) -> Result<(), String> {
    let replicas = read(doc, "replicas", Value::as_f64)?;
    let target = read(doc, "target_attainment", Value::as_f64)?;
    if target > 1.0 {
        return Err(format!("target_attainment {target} above 1"));
    }
    let homogeneous = read(doc, "best_homogeneous", Some)?;
    let named = [
        ("winner", read(doc, "winner", Some)?),
        ("best_homogeneous", homogeneous),
    ];
    let listed = read(doc, "candidates", Value::as_array)?
        .iter()
        .enumerate()
        .map(|(i, c)| (format!("candidates[{i}]"), c));
    for (what, c) in listed.chain(named.map(|(what, c)| (what.to_string(), c))) {
        let prefill = read(c, "prefill_replicas", Value::as_f64)?;
        let decode = read(c, "decode_replicas", Value::as_f64)?;
        let iso_count = if read(c, "disaggregated", Value::as_bool)? {
            prefill + decode == replicas
        } else {
            prefill == replicas && decode == replicas
        };
        if !iso_count {
            return Err(format!(
                "{what}: pools {prefill}+{decode} inconsistent with {replicas} replicas"
            ));
        }
    }
    if read(homogeneous, "disaggregated", Value::as_bool)? {
        return Err("best_homogeneous must be an aggregated candidate".to_string());
    }
    if !read(doc, "quick", Value::as_bool)? && !read(doc, "disagg_wins", Value::as_bool)? {
        return Err("full-run artifact must carry the disaggregation win".to_string());
    }
    Ok(())
}

/// Overheads stay within their cap, every blame side's `misses` is a
/// whole number ≤ its `requests` and its `top_cause` a real
/// [`MissCause`](ador_core::telemetry::MissCause) label, and a full run
/// keeps the alloc cap and pins the blame shift: the aggregated fleet
/// blames `prefill-interference`, the disaggregated fleet something
/// else.
fn attribution_rules(doc: &Value) -> Result<(), String> {
    overheads_within_cap(
        doc,
        "overhead_cells",
        ["attributed_s", "traced_s"],
        ATTRIBUTION_OVERHEAD_CAP,
        ATTRIBUTION_OVERHEAD_FLOOR_REQUESTS,
    )?;
    let full = !read(doc, "quick", Value::as_bool)?;
    for (i, cell) in read(doc, "alloc_cells", Value::as_array)?
        .iter()
        .enumerate()
    {
        let allocs = read(cell, "allocs_per_step", Value::as_f64)?;
        if full && allocs > STEADY_DECODE_ALLOCS_PER_STEP_CAP {
            return Err(format!(
                "alloc_cells[{i}]: allocs_per_step {allocs} exceeds the \
                 {STEADY_DECODE_ALLOCS_PER_STEP_CAP} steady-decode budget"
            ));
        }
    }
    let blame = read(doc, "blame", Some)?;
    let mut causes = [""; 2];
    for (side, cause) in ["aggregated", "disaggregated"].into_iter().zip(&mut causes) {
        let s = read(blame, side, Some)?;
        let requests = read(s, "requests", Value::as_f64)?;
        let misses = read(s, "misses", Value::as_f64)?;
        if misses.fract() != 0.0 || misses > requests {
            return Err(format!(
                "blame.{side}: misses {misses} outside [0, {requests}]"
            ));
        }
        *cause = read(s, "top_cause", Value::as_str)?;
        if !MISS_CAUSES.iter().any(|c| c.label() == *cause) {
            return Err(format!("blame.{side}: unknown cause `{cause}`"));
        }
    }
    let [aggregated, disaggregated] = causes;
    if full && aggregated != "prefill-interference" {
        return Err(format!(
            "full-run artifact must blame the aggregated fleet on \
             prefill-interference, got `{aggregated}`"
        ));
    }
    if full && (!read(blame, "shifted", Value::as_bool)? || disaggregated == aggregated) {
        return Err("full-run artifact must carry the disaggregation blame shift".to_string());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::{validate, Field, Kind, ARTIFACTS};
    use crate::json::{self, Value};

    fn cell(replicas: f64, event: f64, equal: bool) -> String {
        json::object(&[
            ("replicas", json::num(replicas)),
            ("requests", json::num(1000.0)),
            ("event_s", json::num(event)),
            ("reports_equal", equal.to_string()),
        ])
    }

    fn grid_doc(cells: &[String]) -> String {
        json::object(&[
            ("name", json::string("bench_cluster")),
            ("rate_per_replica", json::num(4.0)),
            ("seed", json::num(23.0)),
            ("cells", json::array(cells)),
        ])
    }

    #[test]
    fn bench_cluster_schema_accepts_a_well_formed_grid() {
        let doc = grid_doc(&[cell(4.0, 0.5, true), cell(128.0, 10.0, true)]);
        validate("bench_cluster", &doc).unwrap();
    }

    #[test]
    fn bench_cluster_schema_rejects_structural_violations() {
        let validate = |text: &str| validate("bench_cluster", text);
        assert!(validate("not json").is_err());
        assert!(validate(&grid_doc(&[])).is_err(), "empty grid");
        assert!(
            validate(&grid_doc(&[cell(4.0, 0.5, false)])).is_err(),
            "a replica diverged from its replay"
        );
        assert!(
            validate(&grid_doc(&[cell(4.5, 0.5, true)])).is_err(),
            "fractional replica count"
        );
        assert!(
            validate(&grid_doc(&[cell(4.0, 0.0, true)])).is_err(),
            "zero wall-clock"
        );
        // Wrong artifact name.
        let renamed = grid_doc(&[cell(4.0, 0.5, true)]).replace("bench_cluster", "bench_other");
        assert!(validate(&renamed).is_err());
    }

    fn telemetry_cell(requests: f64, off: f64, on: f64, equal: bool) -> String {
        json::object(&[
            ("replicas", json::num(4.0)),
            ("requests", json::num(requests)),
            ("off_s", json::num(off)),
            ("on_s", json::num(on)),
            ("per_token_s", json::num(on * 1.2)),
            ("overhead", json::num(on / off)),
            ("reports_equal", equal.to_string()),
        ])
    }

    fn telemetry_doc(cells: &[String]) -> String {
        json::object(&[
            ("name", json::string("bench_telemetry")),
            ("rate_per_replica", json::num(6.0)),
            ("seed", json::num(23.0)),
            ("ring_capacity", json::num(65536.0)),
            ("series_interval_s", json::num(0.25)),
            ("cells", json::array(cells)),
        ])
    }

    #[test]
    fn bench_telemetry_schema_accepts_a_well_formed_grid() {
        let doc = telemetry_doc(&[
            telemetry_cell(600.0, 0.01, 0.02, true), // small cells escape the cap
            telemetry_cell(100_000.0, 60.0, 63.0, true),
        ]);
        validate("bench_telemetry", &doc).unwrap();
    }

    #[test]
    fn bench_telemetry_schema_rejects_structural_violations() {
        let validate = |text: &str| validate("bench_telemetry", text);
        assert!(validate("not json").is_err());
        assert!(validate(&telemetry_doc(&[])).is_err(), "empty grid");
        assert!(
            validate(&telemetry_doc(&[telemetry_cell(600.0, 0.01, 0.02, false)])).is_err(),
            "telemetry perturbed the run"
        );
        assert!(
            validate(&telemetry_doc(&[telemetry_cell(
                100_000.0, 60.0, 70.0, true
            )]))
            .is_err(),
            "overhead budget blown at the enforced scale"
        );
        // An overhead field inconsistent with the measured ratio.
        let bad = telemetry_doc(&[json::object(&[
            ("replicas", json::num(4.0)),
            ("requests", json::num(1000.0)),
            ("off_s", json::num(2.0)),
            ("on_s", json::num(2.1)),
            ("per_token_s", json::num(2.5)),
            ("overhead", json::num(2.0)),
            ("reports_equal", "true".to_string()),
        ])]);
        assert!(validate(&bad).is_err(), "inconsistent overhead");
        // The full per-token column must be present and positive.
        let no_per_token = telemetry_doc(&[
            telemetry_cell(600.0, 0.01, 0.011, true).replace("per_token_s", "per_token_sec")
        ]);
        assert!(validate(&no_per_token).is_err(), "missing per_token_s");
        // Wrong artifact name.
        let renamed = telemetry_doc(&[telemetry_cell(600.0, 0.01, 0.011, true)])
            .replace("bench_telemetry", "bench_other");
        assert!(validate(&renamed).is_err());
    }

    fn disagg_candidate(
        label: &str,
        prefill: f64,
        decode: f64,
        disagg: bool,
        attainment: f64,
    ) -> String {
        json::object(&[
            ("label", json::string(label)),
            ("policy", json::string("join-shortest-queue")),
            (
                "decode_policy",
                if disagg {
                    json::string("least-kv-load")
                } else {
                    "null".to_string()
                },
            ),
            ("prefill_replicas", json::num(prefill)),
            ("decode_replicas", json::num(decode)),
            ("disaggregated", disagg.to_string()),
            ("attainment", json::num(attainment)),
            ("goodput_tokens_per_sec", json::num(3000.0)),
            ("ttft_p95_ms", json::num(800.0)),
            ("tbt_p95_ms", json::num(12.0)),
            ("kv_transfers", json::num(if disagg { 400.0 } else { 0.0 })),
            ("meets_target", (attainment >= 0.9).to_string()),
        ])
    }

    fn disagg_doc(quick: bool, wins: bool, winner: &str, homog: &str) -> String {
        json::object(&[
            ("name", json::string("bench_disagg")),
            ("rate", json::num(30.0)),
            ("seed", json::num(29.0)),
            ("replicas", json::num(4.0)),
            ("requests", json::num(400.0)),
            ("target_attainment", json::num(0.9)),
            ("quick", quick.to_string()),
            (
                "candidates",
                json::array(&[winner.to_string(), homog.to_string()]),
            ),
            ("winner", winner.to_string()),
            ("best_homogeneous", homog.to_string()),
            ("disagg_wins", wins.to_string()),
        ])
    }

    fn disagg_pair() -> (String, String) {
        (
            disagg_candidate("disagg 2xP + 2xD", 2.0, 2.0, true, 0.97),
            disagg_candidate("4xUnified [jsq]", 4.0, 4.0, false, 0.92),
        )
    }

    #[test]
    fn bench_disagg_schema_accepts_full_and_quick_artifacts() {
        let (winner, homog) = disagg_pair();
        validate("bench_disagg", &disagg_doc(false, true, &winner, &homog)).unwrap();
        // A quick smoke artifact is exempt from the win requirement.
        validate("bench_disagg", &disagg_doc(true, false, &winner, &homog)).unwrap();
    }

    #[test]
    fn bench_disagg_schema_rejects_structural_violations() {
        let validate = |text: &str| validate("bench_disagg", text);
        let (winner, homog) = disagg_pair();
        assert!(validate("not json").is_err());
        assert!(
            validate(&disagg_doc(false, false, &winner, &homog)).is_err(),
            "full artifact must carry the disaggregation win"
        );
        assert!(
            validate(&disagg_doc(false, true, &winner, &winner)).is_err(),
            "best_homogeneous must be aggregated"
        );
        let short_pools = disagg_candidate("disagg 1xP + 2xD", 1.0, 2.0, true, 0.97);
        assert!(
            validate(&disagg_doc(false, true, &short_pools, &homog)).is_err(),
            "disaggregated pools must sum to the fleet size"
        );
        let over_attained = disagg_candidate("disagg 2xP + 2xD", 2.0, 2.0, true, 1.2);
        assert!(
            validate(&disagg_doc(false, true, &over_attained, &homog)).is_err(),
            "attainment above 1"
        );
        let renamed = disagg_doc(false, true, &winner, &homog).replace("bench_disagg", "other");
        assert!(validate(&renamed).is_err(), "wrong artifact name");
    }

    fn attr_overhead_cell(requests: f64, traced: f64, attributed: f64, flags: bool) -> String {
        json::object(&[
            ("replicas", json::num(4.0)),
            ("requests", json::num(requests)),
            ("traced_s", json::num(traced)),
            ("attributed_s", json::num(attributed)),
            ("overhead", json::num(attributed / traced)),
            ("conserved", flags.to_string()),
            ("reports_equal", flags.to_string()),
        ])
    }

    fn attr_alloc_cell(allocs_per_step: f64) -> String {
        json::object(&[
            ("replicas", json::num(4.0)),
            ("steps", json::num(512.0)),
            ("allocs_per_step", json::num(allocs_per_step)),
        ])
    }

    fn attr_blame_side(top_cause: &str) -> String {
        json::object(&[
            ("requests", json::num(400.0)),
            ("misses", json::num(120.0)),
            ("top_cause", json::string(top_cause)),
            ("lost_ms", json::num(84_000.0)),
        ])
    }

    fn attribution_doc(
        quick: bool,
        cells: &[String],
        allocs: &[String],
        aggregated: &str,
        disaggregated: &str,
        shifted: bool,
    ) -> String {
        json::object(&[
            ("name", json::string("bench_attribution")),
            ("rate_per_replica", json::num(6.0)),
            ("seed", json::num(23.0)),
            ("quick", quick.to_string()),
            ("overhead_cells", json::array(cells)),
            ("alloc_cells", json::array(allocs)),
            (
                "blame",
                json::object(&[
                    ("aggregated", attr_blame_side(aggregated)),
                    ("disaggregated", attr_blame_side(disaggregated)),
                    ("shifted", shifted.to_string()),
                ]),
            ),
        ])
    }

    fn full_attribution_doc() -> String {
        attribution_doc(
            false,
            &[
                attr_overhead_cell(600.0, 0.01, 0.02, true), // small cells escape the cap
                attr_overhead_cell(100_000.0, 60.0, 62.0, true),
            ],
            &[attr_alloc_cell(12.5)],
            "prefill-interference",
            "queue",
            true,
        )
    }

    #[test]
    fn bench_attribution_schema_accepts_full_and_quick_artifacts() {
        validate("bench_attribution", &full_attribution_doc()).unwrap();
        // A quick smoke artifact is exempt from the blame-shift pin and
        // the alloc cap.
        let quick = attribution_doc(
            true,
            &[attr_overhead_cell(300.0, 0.01, 0.02, true)],
            &[attr_alloc_cell(10_000.0)],
            "queue",
            "queue",
            false,
        );
        validate("bench_attribution", &quick).unwrap();
    }

    #[test]
    fn bench_attribution_schema_rejects_structural_violations() {
        let validate = |text: &str| validate("bench_attribution", text);
        let ok_cell = attr_overhead_cell(600.0, 0.01, 0.02, true);
        let ok_alloc = attr_alloc_cell(12.5);
        let doc = |cells: &[String], allocs: &[String], agg: &str, dis: &str, shifted: bool| {
            attribution_doc(false, cells, allocs, agg, dis, shifted)
        };
        assert!(validate("not json").is_err());
        assert!(
            validate(&doc(
                &[],
                std::slice::from_ref(&ok_alloc),
                "prefill-interference",
                "queue",
                true
            ))
            .is_err(),
            "empty overhead grid"
        );
        assert!(
            validate(&doc(
                &[attr_overhead_cell(600.0, 0.01, 0.02, false)],
                std::slice::from_ref(&ok_alloc),
                "prefill-interference",
                "queue",
                true
            ))
            .is_err(),
            "conservation or perturbation check failed"
        );
        assert!(
            validate(&doc(
                &[attr_overhead_cell(100_000.0, 60.0, 70.0, true)],
                std::slice::from_ref(&ok_alloc),
                "prefill-interference",
                "queue",
                true
            ))
            .is_err(),
            "overhead budget blown at the enforced scale"
        );
        assert!(
            validate(&doc(
                std::slice::from_ref(&ok_cell),
                &[attr_alloc_cell(10_000.0)],
                "prefill-interference",
                "queue",
                true
            ))
            .is_err(),
            "alloc budget blown in a full run"
        );
        assert!(
            validate(&doc(
                std::slice::from_ref(&ok_cell),
                std::slice::from_ref(&ok_alloc),
                "queue",
                "decode-stall",
                true
            ))
            .is_err(),
            "full run must blame the aggregated fleet on prefill-interference"
        );
        assert!(
            validate(&doc(
                std::slice::from_ref(&ok_cell),
                std::slice::from_ref(&ok_alloc),
                "prefill-interference",
                "prefill-interference",
                false
            ))
            .is_err(),
            "full run must carry the blame shift"
        );
        assert!(
            validate(&doc(
                std::slice::from_ref(&ok_cell),
                std::slice::from_ref(&ok_alloc),
                "prefill-interference",
                "no-such-cause",
                true
            ))
            .is_err(),
            "unknown miss cause"
        );
        let renamed = doc(
            &[ok_cell],
            &[ok_alloc],
            "prefill-interference",
            "queue",
            true,
        )
        .replace("bench_attribution", "other");
        assert!(validate(&renamed).is_err(), "wrong artifact name");
    }

    /// Renders a parsed value back to JSON text.
    fn render(value: &Value) -> String {
        match value {
            Value::Null => "null".to_string(),
            Value::Bool(b) => b.to_string(),
            Value::Num(x) => json::num(*x),
            Value::Str(s) => json::string(s),
            Value::Arr(items) => json::array(&items.iter().map(render).collect::<Vec<_>>()),
            Value::Obj(members) => json::object(
                &members
                    .iter()
                    .map(|(k, v)| (k.as_str(), render(v)))
                    .collect::<Vec<_>>(),
            ),
        }
    }

    /// Copies of `value`, each missing exactly one key that `fields`
    /// requires, at any depth (inside every cell and nested object).
    fn each_key_removed(value: &Value, fields: &[Field]) -> Vec<Value> {
        let Value::Obj(members) = value else {
            panic!("fixture is not an object: {value:?}");
        };
        let mut out = Vec::new();
        for &(key, kind) in fields {
            let at = members
                .iter()
                .position(|(k, _)| k == key)
                .unwrap_or_else(|| panic!("fixture lacks `{key}`"));
            let mut removed = members.clone();
            removed.remove(at);
            out.push(Value::Obj(removed));
            let child = &members[at].1;
            let nested: Vec<Value> = match kind {
                Kind::Object(inner) => each_key_removed(child, inner),
                Kind::Cells(inner) => {
                    let items = child.as_array().expect("fixture cells are an array");
                    (0..items.len())
                        .flat_map(|i| {
                            each_key_removed(&items[i], inner)
                                .into_iter()
                                .map(move |c| {
                                    let mut items = items.to_vec();
                                    items[i] = c;
                                    Value::Arr(items)
                                })
                        })
                        .collect()
                }
                _ => Vec::new(),
            };
            for n in nested {
                let mut edited = members.clone();
                edited[at].1 = n;
                out.push(Value::Obj(edited));
            }
        }
        out
    }

    #[test]
    fn removing_any_required_key_is_rejected() {
        let (winner, homog) = disagg_pair();
        let fixtures = [
            grid_doc(&[cell(4.0, 0.5, true), cell(128.0, 10.0, true)]),
            telemetry_doc(&[
                telemetry_cell(600.0, 0.01, 0.02, true),
                telemetry_cell(100_000.0, 60.0, 63.0, true),
            ]),
            disagg_doc(false, true, &winner, &homog),
            full_attribution_doc(),
        ];
        for (artifact, fixture) in ARTIFACTS.iter().zip(&fixtures) {
            validate(artifact.name, fixture).unwrap();
            let doc = json::parse(fixture).unwrap();
            let mutants = each_key_removed(&doc, artifact.fields);
            assert!(mutants.len() > artifact.fields.len(), "{}", artifact.name);
            for mutant in mutants {
                let text = render(&mutant);
                assert!(
                    validate(artifact.name, &text).is_err(),
                    "{} accepted a document missing a required key: {text}",
                    artifact.name
                );
            }
        }
    }

    #[test]
    fn validate_rejects_unknown_and_mismatched_artifact_names() {
        let doc = telemetry_doc(&[telemetry_cell(600.0, 0.01, 0.02, true)]);
        validate("bench_telemetry", &doc).unwrap();
        assert!(validate("bench_other", &doc).is_err(), "unknown artifact");
        assert!(
            validate("bench_cluster", &doc).is_err(),
            "a bench_telemetry document checked as bench_cluster"
        );
    }
}
