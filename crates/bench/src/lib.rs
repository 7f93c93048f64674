//! Shared helpers for the ADOR experiment benches.
//!
//! Each bench target under `benches/` regenerates one table or figure of
//! the paper; this crate holds the table-printing plumbing they share,
//! the fleet wall-clock grid ([`grid`]) and the schema every committed
//! `BENCH_*.json` artifact must pass ([`schema`]).

#![forbid(unsafe_code)]

use std::path::Path;

pub mod grid;
pub mod schema;

/// Prints a titled, pipe-separated table: one header row, then the body
/// rows. Keeping the format regular keeps a bench's captured stdout
/// diffable across commits.
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

/// Prints a paper-vs-measured annotation line (`claim: ...`), pairing a
/// paper number with the measured one.
pub fn claim(label: &str, paper: &str, measured: &str) {
    println!("claim: {label}: paper = {paper}, measured = {measured}");
}

/// Minimal JSON emission for machine-readable perf artifacts.
///
/// The workspace builds offline, with no `serde_json` (see
/// `shims/README.md`), so benches hand-assemble their artifact objects
/// with these helpers, and the artifact checks read them back with
/// [`json::parse`].
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
/// greppable out of a bench's captured stdout.
pub fn artifact(name: &str, json: &str) {
    println!("artifact: {name} {json}");
}

/// Checks a bench's JSON document against the `bench_<stem>` schema
/// ([`schema::validate`]), writes it to `BENCH_<stem>.json` and mirrors
/// it as an `artifact: bench_<stem>` line. A full run writes the
/// committed file at the repository root; a `--quick` smoke run writes
/// the same file name under `target/bench-quick/`, so a smoke run can
/// never overwrite a committed artifact.
///
/// # Errors
///
/// Returns an [`std::io::ErrorKind::InvalidData`] error, and writes
/// nothing, if the document fails its schema; otherwise the I/O error
/// if the directory or the file cannot be written.
pub fn write_artifact(stem: &str, doc: &str, quick: bool) -> std::io::Result<()> {
    schema::validate(&format!("bench_{stem}"), doc).map_err(|e| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("BENCH_{stem}.json fails its schema: {e}"),
        )
    })?;
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

#[cfg(test)]
mod tests {
    use super::json;

    #[test]
    fn write_artifact_refuses_a_document_that_fails_its_schema() {
        // `quick`, so even a wrongful write lands under target/, never on
        // a committed artifact.
        let err = super::write_artifact("cluster", "{}", true).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

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
}
