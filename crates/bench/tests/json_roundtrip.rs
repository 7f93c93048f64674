//! Round-trip and edge-case tests for `ador_bench::json` — the
//! hand-rolled emit/parse pair every committed artifact (and now the
//! `ador-lint --json` report) flows through.
//!
//! The property tests drive a seeded value generator (the shim's
//! strategies cover scalar ranges; trees are derived from a sampled
//! `u64` seed with the same splitmix64 mixer the simulator uses), so
//! every run covers the same inputs — flake-free by construction.

use ador_bench::json::{self, Value};
use proptest::prelude::*;

/// One SplitMix64 step: the golden-ratio increment, then the
/// simulator's own finalizer.
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    ador_core::spec::splitmix64(*state)
}

/// A seeded string mixing ASCII with every escape class the emitter
/// handles: quotes, backslashes, control chars, multi-byte UTF-8.
fn gen_string(state: &mut u64) -> String {
    let len = mix(state) % 12;
    (0..len)
        .map(|_| match mix(state) % 10 {
            0 => '"',
            1 => '\\',
            2 => '\n',
            3 => '\t',
            4 => '\u{1}',
            5 => 'é',
            6 => '日',
            _ => char::from(b'a' + (mix(state) % 26) as u8),
        })
        .collect()
}

/// A finite number spanning sign, fraction, and exponent regimes.
fn gen_num(state: &mut u64) -> f64 {
    let mantissa = (mix(state) % 2_000_001) as f64 - 1_000_000.0;
    let exponent = (mix(state) % 7) as i32 - 3;
    mantissa * 10f64.powi(exponent)
}

/// A seeded JSON value tree, at most `depth` levels of nesting.
fn gen_value(state: &mut u64, depth: u64) -> Value {
    let arms = if depth == 0 { 4 } else { 6 };
    match mix(state) % arms {
        0 => Value::Null,
        1 => Value::Bool(mix(state) % 2 == 0),
        2 => Value::Num(gen_num(state)),
        3 => Value::Str(gen_string(state)),
        4 => Value::Arr(
            (0..mix(state) % 4)
                .map(|_| gen_value(state, depth - 1))
                .collect(),
        ),
        _ => Value::Obj(
            (0..mix(state) % 4)
                .map(|i| {
                    (
                        format!("k{i}_{}", gen_string(state)),
                        gen_value(state, depth - 1),
                    )
                })
                .collect(),
        ),
    }
}

/// Renders a `Value` back through the module's own emit helpers.
fn emit(v: &Value) -> String {
    match v {
        Value::Null => "null".to_string(),
        Value::Bool(b) => b.to_string(),
        Value::Num(x) => json::num(*x),
        Value::Str(s) => json::string(s),
        Value::Arr(items) => json::array(&items.iter().map(emit).collect::<Vec<String>>()),
        Value::Obj(fields) => {
            let rendered: Vec<(&str, String)> =
                fields.iter().map(|(k, v)| (k.as_str(), emit(v))).collect();
            json::object(&rendered)
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn value_trees_round_trip(seed in 0u64..u64::MAX, depth in 1u64..5) {
        let mut state = seed;
        let value = gen_value(&mut state, depth);
        let text = emit(&value);
        let back = json::parse(&text);
        prop_assert_eq!(back.as_ref(), Ok(&value), "emitted: {}", text);
    }

    #[test]
    fn strings_round_trip(seed in 0u64..u64::MAX) {
        let mut state = seed;
        let s = gen_string(&mut state);
        let parsed = json::parse(&json::string(&s));
        prop_assert_eq!(parsed, Ok(Value::Str(s)));
    }

    #[test]
    fn finite_numbers_round_trip_exactly(seed in 0u64..u64::MAX) {
        // `num` uses Rust's shortest round-trip Display, so parsing
        // back must recover the bit-identical f64.
        let mut state = seed;
        let x = gen_num(&mut state);
        prop_assert_eq!(json::parse(&json::num(x)), Ok(Value::Num(x)));
    }
}

#[test]
fn string_escapes_round_trip() {
    let hostile = "quote \" backslash \\ newline \n tab \t cr \r ctrl \u{1} é 日本";
    let text = json::string(hostile);
    assert_eq!(json::parse(&text), Ok(Value::Str(hostile.to_string())));
    // Control characters must leave as \u escapes, not raw bytes.
    assert!(text.contains("\\u0001"), "{text}");
}

#[test]
fn unicode_escapes_parse() {
    assert_eq!(json::parse(r#""Aé日""#), Ok(Value::Str("Aé日".to_string())));
    assert_eq!(
        json::parse(r#""slash \/ too""#),
        Ok(Value::Str("slash / too".to_string()))
    );
}

#[test]
fn negative_and_signed_exponents_parse() {
    assert_eq!(json::parse("-1e-3"), Ok(Value::Num(-0.001)));
    assert_eq!(json::parse("2.5E+2"), Ok(Value::Num(250.0)));
    assert_eq!(json::parse("-0.125e2"), Ok(Value::Num(-12.5)));
    assert_eq!(
        json::parse("[1e0,-2E-1]"),
        Ok(Value::Arr(vec![Value::Num(1.0), Value::Num(-0.2),]))
    );
}

#[test]
fn non_finite_numbers_emit_null() {
    assert_eq!(json::parse(&json::num(f64::NAN)), Ok(Value::Null));
    assert_eq!(json::parse(&json::num(f64::INFINITY)), Ok(Value::Null));
}

#[test]
fn deep_nesting_round_trips() {
    const DEPTH: usize = 128;
    let mut value = Value::Num(7.0);
    for _ in 0..DEPTH {
        value = Value::Arr(vec![value]);
    }
    let text = emit(&value);
    assert_eq!(text.matches('[').count(), DEPTH);
    assert_eq!(json::parse(&text), Ok(value));

    let mut obj = Value::Bool(true);
    for _ in 0..DEPTH {
        obj = Value::Obj(vec![("k".to_string(), obj)]);
    }
    assert_eq!(json::parse(&emit(&obj)), Ok(obj));
}

#[test]
fn whitespace_is_tolerated_between_tokens() {
    let text = " {\n\t\"a\" : [ 1 ,\r 2 ] , \"b\" : null }\n";
    assert_eq!(
        json::parse(text),
        Ok(Value::Obj(vec![
            (
                "a".to_string(),
                Value::Arr(vec![Value::Num(1.0), Value::Num(2.0)])
            ),
            ("b".to_string(), Value::Null),
        ]))
    );
}

#[test]
fn trailing_garbage_is_rejected() {
    for text in ["{} x", "1 2", "[1,2] ,", "null\"\"", "true false"] {
        let err = json::parse(text).expect_err(text);
        assert!(err.contains("trailing garbage"), "{text}: {err}");
    }
}

#[test]
fn malformed_documents_are_rejected() {
    for text in [
        "{",
        "[1,",
        "\"unterminated",
        "{\"k\" 1}",
        "[1 2]",
        "",
        "nul",
        "--1",
    ] {
        assert!(json::parse(text).is_err(), "{text:?} should not parse");
    }
}
