//! Shared helpers for the ADOR experiment benches.
//!
//! Each bench target under `benches/` regenerates one table or figure of
//! the paper; this crate holds the table-printing plumbing they share.

#![forbid(unsafe_code)]

use std::fmt::Display;
use std::path::Path;

/// Prints a titled, pipe-separated table: one header row, then the body
/// rows. Keeping the format regular makes `bench_output.txt` diffable.
pub fn print_table<H, R, C>(title: &str, header: &[H], rows: &[Vec<C>], _witness: R)
where
    H: Display,
    C: Display,
    R: Display,
{
    println!("\n=== {title} ===");
    let head: Vec<String> = header.iter().map(|h| h.to_string()).collect();
    println!("| {} |", head.join(" | "));
    for row in rows {
        let cells: Vec<String> = row.iter().map(|c| c.to_string()).collect();
        println!("| {} |", cells.join(" | "));
    }
}

/// Simpler row-printer used by most experiments.
pub fn table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n=== {title} ===");
    println!("| {} |", header.join(" | "));
    for row in rows {
        println!("| {} |", row.join(" | "));
    }
}

/// Formats a float with fixed precision (keeps bench output stable).
pub fn f(x: f64, digits: usize) -> String {
    format!("{x:.digits$}")
}

/// A paper-vs-measured annotation line, for EXPERIMENTS.md traceability.
pub fn claim(label: &str, paper: &str, measured: &str) {
    println!("claim: {label}: paper = {paper}, measured = {measured}");
}

/// Minimal JSON emission for machine-readable perf artifacts.
///
/// The report types under `ador_core::serving` / `ador_core::cluster`
/// carry `serde::Serialize` derives, but the offline serde shim is an
/// inert marker (see `shims/README.md`) — nothing can drive real
/// serialization through it. Until the real `serde`/`serde_json` land,
/// benches hand-assemble their artifact objects with these helpers; the
/// derives guarantee the types stay serializable for that switch.
pub mod json {
    use std::fmt::Write;

    /// Renders a JSON string literal (with escaping).
    pub fn string(s: &str) -> String {
        let mut out = String::with_capacity(s.len() + 2);
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(out, "\\u{:04x}", c as u32);
                }
                c => out.push(c),
            }
        }
        out.push('"');
        out
    }

    /// Renders a finite number (non-finite values become `null`, which
    /// JSON cannot represent otherwise).
    pub fn num(x: f64) -> String {
        if x.is_finite() {
            format!("{x}")
        } else {
            "null".to_string()
        }
    }

    /// Renders an object from pre-rendered value fragments.
    pub fn object(fields: &[(&str, String)]) -> String {
        let body: Vec<String> = fields
            .iter()
            .map(|(k, v)| format!("{}:{v}", string(k)))
            .collect();
        format!("{{{}}}", body.join(","))
    }

    /// Renders an array from pre-rendered value fragments.
    pub fn array(items: &[String]) -> String {
        format!("[{}]", items.join(","))
    }

    /// A parsed JSON value — the read half of this module, used by the
    /// artifact schema checks (`crate::schema`) so CI can fail on a
    /// missing or malformed committed artifact without `serde_json`.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Value {
        /// `null`.
        Null,
        /// `true` / `false`.
        Bool(bool),
        /// Any JSON number (parsed as `f64`).
        Num(f64),
        /// A string literal.
        Str(String),
        /// An array.
        Arr(Vec<Value>),
        /// An object, in source order (keys are not deduplicated).
        Obj(Vec<(String, Value)>),
    }

    impl Value {
        /// Looks up `key` in an object (first match); `None` otherwise.
        pub fn get(&self, key: &str) -> Option<&Value> {
            match self {
                Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
                _ => None,
            }
        }

        /// The number, if this is a `Num`.
        pub fn as_f64(&self) -> Option<f64> {
            match self {
                Value::Num(x) => Some(*x),
                _ => None,
            }
        }

        /// The string, if this is a `Str`.
        pub fn as_str(&self) -> Option<&str> {
            match self {
                Value::Str(s) => Some(s),
                _ => None,
            }
        }

        /// The boolean, if this is a `Bool`.
        pub fn as_bool(&self) -> Option<bool> {
            match self {
                Value::Bool(b) => Some(*b),
                _ => None,
            }
        }

        /// The items, if this is an `Arr`.
        pub fn as_array(&self) -> Option<&[Value]> {
            match self {
                Value::Arr(items) => Some(items),
                _ => None,
            }
        }
    }

    /// Parses one JSON document (object, array, or scalar). Rejects
    /// trailing garbage. Error messages carry the byte offset.
    pub fn parse(text: &str) -> Result<Value, String> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing garbage at byte {pos}"));
        }
        Ok(value)
    }

    fn skip_ws(bytes: &[u8], pos: &mut usize) {
        while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
            *pos += 1;
        }
    }

    fn expect(bytes: &[u8], pos: &mut usize, lit: &str) -> Result<(), String> {
        if bytes[*pos..].starts_with(lit.as_bytes()) {
            *pos += lit.len();
            Ok(())
        } else {
            Err(format!("expected `{lit}` at byte {pos}", pos = *pos))
        }
    }

    fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            None => Err("unexpected end of input".to_string()),
            Some(b'n') => expect(bytes, pos, "null").map(|()| Value::Null),
            Some(b't') => expect(bytes, pos, "true").map(|()| Value::Bool(true)),
            Some(b'f') => expect(bytes, pos, "false").map(|()| Value::Bool(false)),
            Some(b'"') => parse_string(bytes, pos).map(Value::Str),
            Some(b'[') => {
                *pos += 1;
                let mut items = Vec::new();
                skip_ws(bytes, pos);
                if bytes.get(*pos) == Some(&b']') {
                    *pos += 1;
                    return Ok(Value::Arr(items));
                }
                loop {
                    items.push(parse_value(bytes, pos)?);
                    skip_ws(bytes, pos);
                    match bytes.get(*pos) {
                        Some(b',') => *pos += 1,
                        Some(b']') => {
                            *pos += 1;
                            return Ok(Value::Arr(items));
                        }
                        _ => return Err(format!("expected `,` or `]` at byte {}", *pos)),
                    }
                }
            }
            Some(b'{') => {
                *pos += 1;
                let mut fields = Vec::new();
                skip_ws(bytes, pos);
                if bytes.get(*pos) == Some(&b'}') {
                    *pos += 1;
                    return Ok(Value::Obj(fields));
                }
                loop {
                    skip_ws(bytes, pos);
                    let key = parse_string(bytes, pos)?;
                    skip_ws(bytes, pos);
                    expect(bytes, pos, ":")?;
                    let value = parse_value(bytes, pos)?;
                    fields.push((key, value));
                    skip_ws(bytes, pos);
                    match bytes.get(*pos) {
                        Some(b',') => *pos += 1,
                        Some(b'}') => {
                            *pos += 1;
                            return Ok(Value::Obj(fields));
                        }
                        _ => return Err(format!("expected `,` or `}}` at byte {}", *pos)),
                    }
                }
            }
            Some(_) => parse_number(bytes, pos).map(Value::Num),
        }
    }

    fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
        if bytes.get(*pos) != Some(&b'"') {
            return Err(format!("expected string at byte {}", *pos));
        }
        *pos += 1;
        let mut out = String::new();
        loop {
            match bytes.get(*pos) {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    *pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    *pos += 1;
                    match bytes.get(*pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = bytes
                                .get(*pos + 1..*pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                                16,
                            )
                            .map_err(|_| "bad \\u escape")?;
                            out.push(char::from_u32(code).ok_or("bad \\u code point")?);
                            *pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", *pos)),
                    }
                    *pos += 1;
                }
                Some(&b) if b < 0x80 => {
                    out.push(b as char);
                    *pos += 1;
                }
                Some(_) => {
                    // Multi-byte UTF-8: copy the whole scalar.
                    let s = std::str::from_utf8(&bytes[*pos..]).map_err(|_| "invalid UTF-8")?;
                    let c = s.chars().next().expect("non-empty");
                    out.push(c);
                    *pos += c.len_utf8();
                }
            }
        }
    }

    fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<f64, String> {
        let start = *pos;
        while *pos < bytes.len()
            && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        {
            *pos += 1;
        }
        std::str::from_utf8(&bytes[start..*pos])
            .ok()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("bad number at byte {start}"))
    }
}

/// Emits one machine-readable artifact line (`artifact: <name> <json>`),
/// greppable out of `bench_output.txt` by perf-tracking tooling.
pub fn artifact(name: &str, json: &str) {
    println!("artifact: {name} {json}");
}

/// Writes a bench's JSON document to `BENCH_<stem>.json` and mirrors it
/// as an `artifact: bench_<stem>` line. A full run writes the committed
/// file at the repository root; a `--quick` smoke run writes the same
/// file name under `target/bench-quick/`, so a smoke run can never
/// overwrite a committed artifact.
///
/// # Errors
///
/// Returns the I/O error if the directory or the file cannot be written.
pub fn write_artifact(stem: &str, doc: &str, quick: bool) -> std::io::Result<()> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let dir = if quick {
        root.join("target").join("bench-quick")
    } else {
        root
    };
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("BENCH_{stem}.json"));
    std::fs::write(&path, format!("{doc}\n"))?;
    println!("wrote {}", path.display());
    artifact(&format!("bench_{stem}"), doc);
    Ok(())
}

/// Schema checks for committed perf artifacts. CI runs these through the
/// repo-root `tests/bench_artifact.rs` test, so a missing, unparseable or
/// structurally wrong artifact fails the build rather than silently
/// rotting.
pub mod schema {
    use crate::json::{self, Value};

    /// Validates a `BENCH_cluster.json` document (emitted by the
    /// `bench_cluster` target): the fleet event loop's wall-clock grid.
    ///
    /// Checked invariants, not specific grid values — so a `--quick`
    /// smoke run and the full committed grid both pass:
    /// - top-level object named `"bench_cluster"` with a positive
    ///   `rate_per_replica` and a numeric `seed`;
    /// - a non-empty `cells` array; every cell has integral `replicas`
    ///   and `requests` counts ≥ 1 and positive finite `event_s`
    ///   wall-clock seconds;
    /// - every cell's `reports_equal` flag is `true` — the bench replays
    ///   each replica's routed requests through a fresh engine and checks
    ///   its report against the fleet's, on the measured runs themselves.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violation.
    pub fn validate_bench_cluster(text: &str) -> Result<(), String> {
        let doc = json::parse(text)?;
        let name = doc
            .get("name")
            .and_then(Value::as_str)
            .ok_or("missing `name`")?;
        if name != "bench_cluster" {
            return Err(format!("unexpected artifact name `{name}`"));
        }
        let rate = doc
            .get("rate_per_replica")
            .and_then(Value::as_f64)
            .ok_or("missing `rate_per_replica`")?;
        if !(rate > 0.0 && rate.is_finite()) {
            return Err(format!("non-positive rate_per_replica {rate}"));
        }
        doc.get("seed")
            .and_then(Value::as_f64)
            .ok_or("missing `seed`")?;
        let cells = doc
            .get("cells")
            .and_then(Value::as_array)
            .ok_or("missing `cells` array")?;
        if cells.is_empty() {
            return Err("empty `cells` array".to_string());
        }
        for (i, cell) in cells.iter().enumerate() {
            let count = |key: &str| -> Result<f64, String> {
                let x = cell
                    .get(key)
                    .and_then(Value::as_f64)
                    .ok_or(format!("cell {i}: missing `{key}`"))?;
                if x < 1.0 || x.fract() != 0.0 {
                    return Err(format!("cell {i}: `{key}` must be an integer ≥ 1, got {x}"));
                }
                Ok(x)
            };
            count("replicas")?;
            count("requests")?;
            let event = cell
                .get("event_s")
                .and_then(Value::as_f64)
                .ok_or(format!("cell {i}: missing `event_s`"))?;
            if !(event > 0.0 && event.is_finite()) {
                return Err(format!("cell {i}: `event_s` must be positive, got {event}"));
            }
            if cell.get("reports_equal").and_then(Value::as_bool) != Some(true) {
                return Err(format!("cell {i}: reports_equal must be true"));
            }
        }
        Ok(())
    }

    /// Validates a `BENCH_disagg.json` document (emitted by the
    /// `exp_disagg` target): the fleet co-exploration result.
    ///
    /// Checked invariants, not specific values — so a `--quick` smoke
    /// run and the full committed result both pass:
    /// - top-level object named `"bench_disagg"` with positive `rate`,
    ///   `replicas` and `requests`, a numeric `seed`, a
    ///   `target_attainment` in `(0, 1]` and a boolean `quick` flag;
    /// - a non-empty `candidates` array; every candidate has a non-empty
    ///   `label`, an `attainment` in `[0, 1]`, finite non-negative
    ///   `goodput_tokens_per_sec` / `ttft_p95_ms` / `tbt_p95_ms`, boolean
    ///   `disaggregated` / `meets_target` flags, and pool sizes that sum
    ///   to `replicas` when disaggregated (aggregated candidates field
    ///   the whole fleet in both pools);
    /// - a `winner` and a `best_homogeneous` object of the same shape,
    ///   with `best_homogeneous.disaggregated == false`;
    /// - `disagg_wins` must be `true` unless `quick` is — the committed
    ///   full-run artifact carries the pinned disaggregation win.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violation.
    pub fn validate_bench_disagg(text: &str) -> Result<(), String> {
        let doc = json::parse(text)?;
        let name = doc
            .get("name")
            .and_then(Value::as_str)
            .ok_or("missing `name`")?;
        if name != "bench_disagg" {
            return Err(format!("unexpected artifact name `{name}`"));
        }
        let positive = |key: &str| -> Result<f64, String> {
            let x = doc
                .get(key)
                .and_then(Value::as_f64)
                .ok_or(format!("missing `{key}`"))?;
            if !(x > 0.0 && x.is_finite()) {
                return Err(format!("`{key}` must be positive, got {x}"));
            }
            Ok(x)
        };
        positive("rate")?;
        let replicas = positive("replicas")?;
        positive("requests")?;
        doc.get("seed")
            .and_then(Value::as_f64)
            .ok_or("missing `seed`")?;
        let target = positive("target_attainment")?;
        if target > 1.0 {
            return Err(format!("target_attainment {target} above 1"));
        }
        let quick = doc
            .get("quick")
            .and_then(Value::as_bool)
            .ok_or("missing `quick`")?;

        let check_candidate = |c: &Value, what: &str| -> Result<(), String> {
            if c.get("label")
                .and_then(Value::as_str)
                .is_none_or(str::is_empty)
            {
                return Err(format!("{what}: missing or empty `label`"));
            }
            let attainment = c
                .get("attainment")
                .and_then(Value::as_f64)
                .ok_or(format!("{what}: missing `attainment`"))?;
            if !(0.0..=1.0).contains(&attainment) {
                return Err(format!("{what}: attainment {attainment} outside [0, 1]"));
            }
            for key in ["goodput_tokens_per_sec", "ttft_p95_ms", "tbt_p95_ms"] {
                let x = c
                    .get(key)
                    .and_then(Value::as_f64)
                    .ok_or(format!("{what}: missing `{key}`"))?;
                if !(x >= 0.0 && x.is_finite()) {
                    return Err(format!("{what}: `{key}` must be non-negative, got {x}"));
                }
            }
            let disagg = c
                .get("disaggregated")
                .and_then(Value::as_bool)
                .ok_or(format!("{what}: missing `disaggregated`"))?;
            c.get("meets_target")
                .and_then(Value::as_bool)
                .ok_or(format!("{what}: missing `meets_target`"))?;
            let pool = |key: &str| {
                c.get(key)
                    .and_then(Value::as_f64)
                    .ok_or(format!("{what}: missing `{key}`"))
            };
            let (prefill, decode) = (pool("prefill_replicas")?, pool("decode_replicas")?);
            let iso_count = if disagg {
                prefill + decode == replicas
            } else {
                prefill == replicas && decode == replicas
            };
            if !iso_count {
                return Err(format!(
                    "{what}: pools {prefill}+{decode} inconsistent with {replicas} replicas"
                ));
            }
            Ok(())
        };

        let candidates = doc
            .get("candidates")
            .and_then(Value::as_array)
            .ok_or("missing `candidates` array")?;
        if candidates.is_empty() {
            return Err("empty `candidates` array".to_string());
        }
        for (i, c) in candidates.iter().enumerate() {
            check_candidate(c, &format!("candidate {i}"))?;
        }
        let winner = doc.get("winner").ok_or("missing `winner`")?;
        check_candidate(winner, "winner")?;
        let homog = doc
            .get("best_homogeneous")
            .ok_or("missing `best_homogeneous`")?;
        check_candidate(homog, "best_homogeneous")?;
        if homog.get("disaggregated").and_then(Value::as_bool) != Some(false) {
            return Err("best_homogeneous must be an aggregated candidate".to_string());
        }
        let wins = doc
            .get("disagg_wins")
            .and_then(Value::as_bool)
            .ok_or("missing `disagg_wins`")?;
        if !quick && !wins {
            return Err("full-run artifact must carry the disaggregation win".to_string());
        }
        Ok(())
    }

    /// Request count above which [`validate_bench_telemetry`] enforces
    /// the overhead budget. Smaller cells (including the `--quick` smoke
    /// grid) are dominated by fixed costs and wall-clock noise, so only
    /// their structure is checked.
    pub const TELEMETRY_OVERHEAD_FLOOR_REQUESTS: f64 = 100_000.0;

    /// Maximum accepted tracing-on / tracing-off wall-clock ratio at or
    /// above [`TELEMETRY_OVERHEAD_FLOOR_REQUESTS`]: telemetry must stay
    /// within 10 % of the untraced fleet.
    pub const TELEMETRY_OVERHEAD_CAP: f64 = 1.10;

    /// Validates a `BENCH_telemetry.json` document (emitted by the
    /// `bench_telemetry` target): the tracing-on vs tracing-off
    /// wall-clock grid.
    ///
    /// Checked invariants, not specific grid values — so a `--quick`
    /// smoke run and the full committed grid both pass:
    /// - top-level object named `"bench_telemetry"` with a positive
    ///   `rate_per_replica`, a numeric `seed`, an integral
    ///   `ring_capacity` ≥ 1 and a positive `series_interval_s`;
    /// - a non-empty `cells` array; every cell has integral `replicas`
    ///   and `requests` counts ≥ 1, positive finite `off_s` / `on_s` /
    ///   `per_token_s` wall-clock seconds (the always-on configuration
    ///   and the full per-token event stream respectively), and an
    ///   `overhead` consistent with the `on_s`/`off_s` ratio;
    /// - every cell's `reports_equal` flag is `true` — the bench
    ///   re-verifies on the measured runs that telemetry observed the
    ///   fleet without perturbing it;
    /// - cells with at least [`TELEMETRY_OVERHEAD_FLOOR_REQUESTS`]
    ///   requests keep `overhead` ≤ [`TELEMETRY_OVERHEAD_CAP`].
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violation.
    pub fn validate_bench_telemetry(text: &str) -> Result<(), String> {
        let doc = json::parse(text)?;
        let name = doc
            .get("name")
            .and_then(Value::as_str)
            .ok_or("missing `name`")?;
        if name != "bench_telemetry" {
            return Err(format!("unexpected artifact name `{name}`"));
        }
        let rate = doc
            .get("rate_per_replica")
            .and_then(Value::as_f64)
            .ok_or("missing `rate_per_replica`")?;
        if !(rate > 0.0 && rate.is_finite()) {
            return Err(format!("non-positive rate_per_replica {rate}"));
        }
        doc.get("seed")
            .and_then(Value::as_f64)
            .ok_or("missing `seed`")?;
        let ring = doc
            .get("ring_capacity")
            .and_then(Value::as_f64)
            .ok_or("missing `ring_capacity`")?;
        if ring < 1.0 || ring.fract() != 0.0 {
            return Err(format!("ring_capacity must be an integer ≥ 1, got {ring}"));
        }
        let interval = doc
            .get("series_interval_s")
            .and_then(Value::as_f64)
            .ok_or("missing `series_interval_s`")?;
        if !(interval > 0.0 && interval.is_finite()) {
            return Err(format!("non-positive series_interval_s {interval}"));
        }
        let cells = doc
            .get("cells")
            .and_then(Value::as_array)
            .ok_or("missing `cells` array")?;
        if cells.is_empty() {
            return Err("empty `cells` array".to_string());
        }
        for (i, cell) in cells.iter().enumerate() {
            let count = |key: &str| -> Result<f64, String> {
                let x = cell
                    .get(key)
                    .and_then(Value::as_f64)
                    .ok_or(format!("cell {i}: missing `{key}`"))?;
                if x < 1.0 || x.fract() != 0.0 {
                    return Err(format!("cell {i}: `{key}` must be an integer ≥ 1, got {x}"));
                }
                Ok(x)
            };
            count("replicas")?;
            let requests = count("requests")?;
            let secs = |key: &str| -> Result<f64, String> {
                let x = cell
                    .get(key)
                    .and_then(Value::as_f64)
                    .ok_or(format!("cell {i}: missing `{key}`"))?;
                if !(x > 0.0 && x.is_finite()) {
                    return Err(format!("cell {i}: `{key}` must be positive, got {x}"));
                }
                Ok(x)
            };
            let off = secs("off_s")?;
            let on = secs("on_s")?;
            secs("per_token_s")?;
            let overhead = secs("overhead")?;
            if (overhead - on / off).abs() > 0.01 * (on / off) {
                return Err(format!(
                    "cell {i}: overhead {overhead} inconsistent with {on}/{off}"
                ));
            }
            if requests >= TELEMETRY_OVERHEAD_FLOOR_REQUESTS && overhead > TELEMETRY_OVERHEAD_CAP {
                return Err(format!(
                    "cell {i}: overhead {overhead} exceeds the {TELEMETRY_OVERHEAD_CAP} \
                     budget at {requests} requests"
                ));
            }
            if cell.get("reports_equal").and_then(Value::as_bool) != Some(true) {
                return Err(format!("cell {i}: reports_equal must be true"));
            }
        }
        Ok(())
    }

    /// Request count above which [`validate_bench_attribution`] enforces
    /// the attribution overhead budget (same fixed-cost rationale as
    /// [`TELEMETRY_OVERHEAD_FLOOR_REQUESTS`]).
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

    /// Validates a `BENCH_attribution.json` document (emitted by the
    /// `bench_attribution` target): attribution overhead, self-profiled
    /// allocations per step, and the aggregated-vs-disaggregated blame
    /// comparison.
    ///
    /// Checked invariants, not specific grid values — so a `--quick`
    /// smoke run and the full committed artifact both pass:
    /// - top-level object named `"bench_attribution"` with a positive
    ///   `rate_per_replica`, a numeric `seed` and a boolean `quick` flag;
    /// - a non-empty `overhead_cells` array; every cell has integral
    ///   `replicas` / `requests` counts ≥ 1, positive finite `traced_s` /
    ///   `attributed_s`, an `overhead` consistent with their ratio, and
    ///   `conserved` / `reports_equal` both `true` — the bench re-checks
    ///   per-request conservation and report non-perturbation on the
    ///   measured runs themselves;
    /// - cells with at least [`ATTRIBUTION_OVERHEAD_FLOOR_REQUESTS`]
    ///   requests keep `overhead` ≤ [`ATTRIBUTION_OVERHEAD_CAP`];
    /// - a non-empty `alloc_cells` array; every cell has integral
    ///   `replicas` / `steps` counts ≥ 1 and a finite non-negative
    ///   `allocs_per_step`, capped at
    ///   [`STEADY_DECODE_ALLOCS_PER_STEP_CAP`] in full runs;
    /// - a `blame` object whose `aggregated` and `disaggregated` halves
    ///   each carry integral `requests` ≥ 1, `misses` in `[0, requests]`,
    ///   a `top_cause` naming a real
    ///   [`MissCause`](ador_core::telemetry::MissCause) label and a
    ///   finite non-negative `lost_ms`; full runs must pin the blame
    ///   shift — the aggregated fleet blames `prefill-interference`, the
    ///   disaggregated fleet blames something else, and `shifted` is
    ///   `true`.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violation.
    pub fn validate_bench_attribution(text: &str) -> Result<(), String> {
        let doc = json::parse(text)?;
        let name = doc
            .get("name")
            .and_then(Value::as_str)
            .ok_or("missing `name`")?;
        if name != "bench_attribution" {
            return Err(format!("unexpected artifact name `{name}`"));
        }
        let rate = doc
            .get("rate_per_replica")
            .and_then(Value::as_f64)
            .ok_or("missing `rate_per_replica`")?;
        if !(rate > 0.0 && rate.is_finite()) {
            return Err(format!("non-positive rate_per_replica {rate}"));
        }
        doc.get("seed")
            .and_then(Value::as_f64)
            .ok_or("missing `seed`")?;
        let quick = doc
            .get("quick")
            .and_then(Value::as_bool)
            .ok_or("missing `quick`")?;

        let count_in = |cell: &Value, i: usize, key: &str| -> Result<f64, String> {
            let x = cell
                .get(key)
                .and_then(Value::as_f64)
                .ok_or(format!("cell {i}: missing `{key}`"))?;
            if x < 1.0 || x.fract() != 0.0 {
                return Err(format!("cell {i}: `{key}` must be an integer ≥ 1, got {x}"));
            }
            Ok(x)
        };

        let cells = doc
            .get("overhead_cells")
            .and_then(Value::as_array)
            .ok_or("missing `overhead_cells` array")?;
        if cells.is_empty() {
            return Err("empty `overhead_cells` array".to_string());
        }
        for (i, cell) in cells.iter().enumerate() {
            count_in(cell, i, "replicas")?;
            let requests = count_in(cell, i, "requests")?;
            let secs = |key: &str| -> Result<f64, String> {
                let x = cell
                    .get(key)
                    .and_then(Value::as_f64)
                    .ok_or(format!("cell {i}: missing `{key}`"))?;
                if !(x > 0.0 && x.is_finite()) {
                    return Err(format!("cell {i}: `{key}` must be positive, got {x}"));
                }
                Ok(x)
            };
            let traced = secs("traced_s")?;
            let attributed = secs("attributed_s")?;
            let overhead = secs("overhead")?;
            if (overhead - attributed / traced).abs() > 0.01 * (attributed / traced) {
                return Err(format!(
                    "cell {i}: overhead {overhead} inconsistent with {attributed}/{traced}"
                ));
            }
            if requests >= ATTRIBUTION_OVERHEAD_FLOOR_REQUESTS
                && overhead > ATTRIBUTION_OVERHEAD_CAP
            {
                return Err(format!(
                    "cell {i}: overhead {overhead} exceeds the {ATTRIBUTION_OVERHEAD_CAP} \
                     budget at {requests} requests"
                ));
            }
            for key in ["conserved", "reports_equal"] {
                if cell.get(key).and_then(Value::as_bool) != Some(true) {
                    return Err(format!("cell {i}: `{key}` must be true"));
                }
            }
        }

        let allocs = doc
            .get("alloc_cells")
            .and_then(Value::as_array)
            .ok_or("missing `alloc_cells` array")?;
        if allocs.is_empty() {
            return Err("empty `alloc_cells` array".to_string());
        }
        for (i, cell) in allocs.iter().enumerate() {
            count_in(cell, i, "replicas")?;
            count_in(cell, i, "steps")?;
            let aps = cell
                .get("allocs_per_step")
                .and_then(Value::as_f64)
                .ok_or(format!("alloc cell {i}: missing `allocs_per_step`"))?;
            if !(aps >= 0.0 && aps.is_finite()) {
                return Err(format!(
                    "alloc cell {i}: `allocs_per_step` must be non-negative, got {aps}"
                ));
            }
            if !quick && aps > STEADY_DECODE_ALLOCS_PER_STEP_CAP {
                return Err(format!(
                    "alloc cell {i}: allocs_per_step {aps} exceeds the \
                     {STEADY_DECODE_ALLOCS_PER_STEP_CAP} steady-decode budget"
                ));
            }
        }

        let blame = doc.get("blame").ok_or("missing `blame`")?;
        let check_side = |what: &str| -> Result<String, String> {
            let side = blame.get(what).ok_or(format!("blame: missing `{what}`"))?;
            let requests =
                count_in(side, 0, "requests").map_err(|e| format!("blame.{what}: {e}"))?;
            let misses = side
                .get("misses")
                .and_then(Value::as_f64)
                .ok_or(format!("blame.{what}: missing `misses`"))?;
            if misses < 0.0 || misses.fract() != 0.0 || misses > requests {
                return Err(format!(
                    "blame.{what}: misses {misses} outside [0, {requests}]"
                ));
            }
            let cause = side
                .get("top_cause")
                .and_then(Value::as_str)
                .ok_or(format!("blame.{what}: missing `top_cause`"))?;
            if !ador_core::telemetry::MISS_CAUSES
                .iter()
                .any(|c| c.label() == cause)
            {
                return Err(format!("blame.{what}: unknown cause `{cause}`"));
            }
            let lost = side
                .get("lost_ms")
                .and_then(Value::as_f64)
                .ok_or(format!("blame.{what}: missing `lost_ms`"))?;
            if !(lost >= 0.0 && lost.is_finite()) {
                return Err(format!("blame.{what}: lost_ms {lost} must be non-negative"));
            }
            Ok(cause.to_string())
        };
        let aggregated = check_side("aggregated")?;
        let disaggregated = check_side("disaggregated")?;
        let shifted = blame
            .get("shifted")
            .and_then(Value::as_bool)
            .ok_or("blame: missing `shifted`")?;
        if !quick {
            if aggregated != "prefill-interference" {
                return Err(format!(
                    "full-run artifact must blame the aggregated fleet on \
                     prefill-interference, got `{aggregated}`"
                ));
            }
            if !shifted || disaggregated == aggregated {
                return Err(
                    "full-run artifact must carry the disaggregation blame shift".to_string(),
                );
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::json;

    #[test]
    fn float_formatting_is_stable() {
        assert_eq!(super::f(1.23456, 2), "1.23");
        assert_eq!(super::f(10.0, 1), "10.0");
    }

    #[test]
    fn json_helpers_render_valid_fragments() {
        assert_eq!(json::string("a\"b\\c\n"), r#""a\"b\\c\n""#);
        assert_eq!(json::num(2.5), "2.5");
        assert_eq!(json::num(f64::NAN), "null");
        assert_eq!(
            json::object(&[("rate", json::num(7.0)), ("policy", json::string("jsq"))]),
            r#"{"rate":7,"policy":"jsq"}"#
        );
        assert_eq!(json::array(&[json::num(1.0), json::num(2.0)]), "[1,2]");
    }

    #[test]
    fn json_parse_round_trips_emitted_documents() {
        let doc = json::object(&[
            ("name", json::string("bench_cluster")),
            ("rate", json::num(4.0)),
            ("flag", "true".to_string()),
            ("cells", json::array(&[json::num(1.0), json::num(2.5)])),
            ("note", json::string("tabs\tand \"quotes\"")),
        ]);
        let parsed = json::parse(&doc).unwrap();
        assert_eq!(
            parsed.get("name").and_then(json::Value::as_str),
            Some("bench_cluster")
        );
        assert_eq!(parsed.get("rate").and_then(json::Value::as_f64), Some(4.0));
        assert_eq!(
            parsed.get("flag").and_then(json::Value::as_bool),
            Some(true)
        );
        let cells = parsed.get("cells").and_then(json::Value::as_array).unwrap();
        assert_eq!(cells.len(), 2);
        assert_eq!(cells[1].as_f64(), Some(2.5));
        assert_eq!(
            parsed.get("note").and_then(json::Value::as_str),
            Some("tabs\tand \"quotes\"")
        );
    }

    #[test]
    fn json_parse_rejects_malformed_documents() {
        assert!(json::parse("").is_err());
        assert!(json::parse("{").is_err());
        assert!(json::parse(r#"{"a": 1,}"#).is_err());
        assert!(json::parse("[1, 2] trailing").is_err());
        assert!(json::parse(r#""unterminated"#).is_err());
        // Whitespace and nesting are fine.
        assert!(json::parse(" {\n\t\"a\": [true, null, {\"b\": -1e-3}]\n} ").is_ok());
    }

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
        crate::schema::validate_bench_cluster(&doc).unwrap();
    }

    #[test]
    fn bench_cluster_schema_rejects_structural_violations() {
        let validate = crate::schema::validate_bench_cluster;
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
        crate::schema::validate_bench_telemetry(&doc).unwrap();
    }

    #[test]
    fn bench_telemetry_schema_rejects_structural_violations() {
        let validate = crate::schema::validate_bench_telemetry;
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

    #[test]
    fn bench_disagg_schema_accepts_full_and_quick_artifacts() {
        let winner = disagg_candidate("disagg 2xP + 2xD", 2.0, 2.0, true, 0.97);
        let homog = disagg_candidate("4xUnified [jsq]", 4.0, 4.0, false, 0.92);
        crate::schema::validate_bench_disagg(&disagg_doc(false, true, &winner, &homog)).unwrap();
        // A quick smoke artifact is exempt from the win requirement.
        crate::schema::validate_bench_disagg(&disagg_doc(true, false, &winner, &homog)).unwrap();
    }

    #[test]
    fn bench_disagg_schema_rejects_structural_violations() {
        let validate = crate::schema::validate_bench_disagg;
        let winner = disagg_candidate("disagg 2xP + 2xD", 2.0, 2.0, true, 0.97);
        let homog = disagg_candidate("4xUnified [jsq]", 4.0, 4.0, false, 0.92);
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

    #[test]
    fn bench_attribution_schema_accepts_full_and_quick_artifacts() {
        let cells = [
            attr_overhead_cell(600.0, 0.01, 0.02, true), // small cells escape the cap
            attr_overhead_cell(100_000.0, 60.0, 62.0, true),
        ];
        let allocs = [attr_alloc_cell(12.5)];
        let full = attribution_doc(
            false,
            &cells,
            &allocs,
            "prefill-interference",
            "queue",
            true,
        );
        crate::schema::validate_bench_attribution(&full).unwrap();
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
        crate::schema::validate_bench_attribution(&quick).unwrap();
    }

    #[test]
    fn bench_attribution_schema_rejects_structural_violations() {
        let validate = crate::schema::validate_bench_attribution;
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
}
