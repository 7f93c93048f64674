//! `ador-lint`: a workspace static-analysis pass enforcing the
//! simulator's determinism and panic-safety contracts.
//!
//! The whole ADOR reproduction rests on bit-identical replay: the fleet
//! event loop is only trustworthy because its equality with a
//! sweep-every-replica reference is pinned, and every pinned scenario
//! assumes a seeded run reproduces exactly. This crate enforces the contract *statically*,
//! in the same hand-rolled offline idiom as `ador-bench`'s JSON parser:
//! a small Rust lexer ([`lexer`]), a token-pattern rule engine
//! ([`rules`]) and per-line suppression comments.
//!
//! # Rules
//!
//! See [`rules::RULES`] for the list. In short: no wall-clock reads, no
//! unseeded RNG and no unordered-collection iteration in the sim crates
//! (`ador-serving`, `ador-cluster`, `ador-spec`); no
//! `unwrap`/`expect`/`panic!`/indexing-by-literal and no numeric `as`
//! casts in their non-test library code; every `#[allow]` and every
//! suppression carries a written reason.
//!
//! # Suppressions
//!
//! A finding is suppressed by a comment on the same line or the line
//! above, naming the rule **and a reason**:
//!
//! ```text
//! let head = self.pending.pop_front().expect("peeked above");
//! // ador-lint: allow(panic) — peek() returned Some on the line above
//! ```
//!
//! A suppression without a reason does not suppress (and is itself a
//! finding); a suppression that no longer matches anything is flagged
//! as `unused-allow` so fixed code sheds its annotations. A suppression
//! is the only way to accept a finding: any other finding fails the run.
//!
//! # Running
//!
//! ```text
//! cargo run -p ador-analysis --bin ador-lint -- --workspace-root .
//! ```
//!
//! Findings print as `path:line:col rule message`; `--json` emits a
//! machine-readable report (validated round-trip against
//! `ador-bench::json` in this crate's tests).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod lexer;
pub mod rules;
pub mod workspace;

pub use rules::{FileClass, Finding, RuleInfo, RULES};
pub use workspace::{lint_workspace, Report};

use lexer::Lexed;

/// One parsed `ador-lint: allow(...)` suppression comment.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Suppression {
    line: u32,
    rules: Vec<String>,
    /// False when the comment carries no reason text or names an
    /// unknown rule — such suppressions suppress nothing.
    valid: bool,
    /// Diagnostic for invalid suppressions.
    problem: Option<String>,
}

/// Parses every `ador-lint:` suppression in a file's comments.
fn suppressions(lexed: &Lexed) -> Vec<Suppression> {
    let mut out = Vec::new();
    for comment in &lexed.comments {
        // Doc comments are documentation, not directives — rustdoc text
        // describing the suppression syntax must not suppress anything.
        if comment.text.starts_with("///")
            || comment.text.starts_with("//!")
            || comment.text.starts_with("/**")
            || comment.text.starts_with("/*!")
        {
            continue;
        }
        let Some(at) = comment.text.find("ador-lint:") else {
            continue;
        };
        let rest = comment.text[at + "ador-lint:".len()..].trim_start();
        let mut sup = Suppression {
            line: comment.line,
            rules: Vec::new(),
            valid: false,
            problem: None,
        };
        let inner = rest
            .strip_prefix("allow")
            .map(str::trim_start)
            .and_then(|r| r.strip_prefix('('));
        let Some(inner) = inner else {
            sup.problem = Some("expected `ador-lint: allow(<rule>) — <reason>`".to_string());
            out.push(sup);
            continue;
        };
        let Some(close) = inner.find(')') else {
            sup.problem = Some("unclosed `allow(`".to_string());
            out.push(sup);
            continue;
        };
        sup.rules = inner[..close]
            .split(',')
            .map(|r| r.trim().to_string())
            .filter(|r| !r.is_empty())
            .collect();
        let unknown: Vec<&String> = sup.rules.iter().filter(|r| !rules::is_rule(r)).collect();
        // The reason is whatever follows the `)`, minus separator
        // punctuation (`—`, `-`, `:`).
        let reason = inner[close + 1..].trim_matches(|c: char| {
            c.is_whitespace() || c == '—' || c == '–' || c == '-' || c == ':'
        });
        if sup.rules.is_empty() {
            sup.problem = Some("`allow()` names no rule".to_string());
        } else if let Some(u) = unknown.first() {
            sup.problem = Some(format!("unknown rule `{u}`"));
        } else if reason.is_empty() {
            sup.problem = Some("suppression carries no reason".to_string());
        } else {
            sup.valid = true;
        }
        out.push(sup);
    }
    out
}

/// Lints one file: lexes it, runs every rule in [`rules::check`], then
/// applies suppression comments. Returns the surviving findings sorted
/// by position.
pub fn lint_file(class: FileClass, path: &str, source: &str) -> Vec<Finding> {
    let lexed = lexer::lex(source);
    let raw = rules::check(class, path, &lexed);
    let sups = suppressions(&lexed);
    let mut used = vec![false; sups.len()];

    let mut out: Vec<Finding> = raw
        .into_iter()
        .filter(|f| {
            let mut suppressed = false;
            for (i, sup) in sups.iter().enumerate() {
                if sup.valid
                    && (sup.line == f.line || sup.line + 1 == f.line)
                    && sup.rules.iter().any(|r| r == f.rule)
                {
                    used[i] = true;
                    suppressed = true;
                }
            }
            !suppressed
        })
        .collect();

    for (i, sup) in sups.iter().enumerate() {
        if !sup.valid {
            out.push(Finding {
                path: path.to_string(),
                line: sup.line,
                col: 1,
                rule: "allow-no-reason",
                message: format!(
                    "malformed suppression ({}); it suppresses nothing",
                    sup.problem.as_deref().unwrap_or("unparseable")
                ),
            });
        } else if !used[i] {
            out.push(Finding {
                path: path.to_string(),
                line: sup.line,
                col: 1,
                rule: "unused-allow",
                message: format!(
                    "suppression for `{}` matches no finding on this or the \
                     next line; delete it",
                    sup.rules.join(", ")
                ),
            });
        }
    }

    out.sort_by(|a, b| (a.line, a.col, a.rule).cmp(&(b.line, b.col, b.rule)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const SIM: FileClass = FileClass {
        sim: true,
        test_file: false,
    };

    #[test]
    fn suppression_with_reason_silences_the_finding() {
        let src = "fn f(x: Option<u32>) -> u32 {\n    \
                   // ador-lint: allow(panic) — invariant: caller checked\n    \
                   x.unwrap()\n}\n";
        assert!(lint_file(SIM, "a.rs", src).is_empty());
    }

    #[test]
    fn same_line_suppression_works_too() {
        let src = "fn f(x: Option<u32>) -> u32 {\n    \
                   x.unwrap() // ador-lint: allow(panic): checked by caller\n}\n";
        assert!(lint_file(SIM, "a.rs", src).is_empty());
    }

    #[test]
    fn reasonless_suppression_does_not_suppress() {
        let src = "fn f(x: Option<u32>) -> u32 {\n    \
                   // ador-lint: allow(panic)\n    \
                   x.unwrap()\n}\n";
        let found = lint_file(SIM, "a.rs", src);
        let rules: Vec<&str> = found.iter().map(|f| f.rule).collect();
        assert!(rules.contains(&"panic"), "{found:?}");
        assert!(rules.contains(&"allow-no-reason"), "{found:?}");
    }

    #[test]
    fn unknown_rule_in_suppression_is_flagged() {
        let src = "// ador-lint: allow(no-such-rule) — because\nfn f() {}\n";
        let found = lint_file(SIM, "a.rs", src);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].rule, "allow-no-reason");
        assert!(found[0].message.contains("no-such-rule"));
    }

    #[test]
    fn unused_suppression_is_flagged() {
        let src = "// ador-lint: allow(panic) — stale after a refactor\nfn f() {}\n";
        let found = lint_file(SIM, "a.rs", src);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].rule, "unused-allow");
    }

    #[test]
    fn findings_outside_sim_scope_do_not_fire() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
        let not_sim = FileClass {
            sim: false,
            test_file: false,
        };
        assert!(lint_file(not_sim, "a.rs", src).is_empty());
    }

    const TELEMETRY: FileClass = FileClass {
        sim: false,
        test_file: false,
    };
    const TELEMETRY_PATH: &str = "crates/telemetry/src/agg.rs";

    #[test]
    fn float_accumulation_in_a_telemetry_loop_is_flagged() {
        let src = "fn mean(xs: &[f64]) -> f64 {\n    \
                   let mut sum = 0.0;\n    \
                   for x in xs {\n        sum += x;\n    }\n    \
                   sum\n}\n";
        let found = lint_file(TELEMETRY, TELEMETRY_PATH, src);
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].rule, "float-accum");
        assert!(found[0].message.contains("sum"));
    }

    #[test]
    fn ascribed_f64_accumulator_in_a_while_loop_is_flagged() {
        let src = "fn run(n: u32) {\n    let mut acc: f64 = total();\n    \
                   let mut i = 0;\n    \
                   while i < n {\n        acc += step();\n        i += 1;\n    }\n}\n";
        let found = lint_file(TELEMETRY, TELEMETRY_PATH, src);
        let rules: Vec<&str> = found.iter().map(|f| f.rule).collect();
        assert_eq!(rules, vec!["float-accum"], "{found:?}");
    }

    #[test]
    fn float_accum_suppression_with_reason_silences_it() {
        let src = "fn mean(xs: &[f64]) -> f64 {\n    \
                   let mut sum = 0.0;\n    \
                   for x in xs {\n        \
                   // ador-lint: allow(float-accum) — display-only mean, drift invisible\n        \
                   sum += x;\n    }\n    sum\n}\n";
        assert!(lint_file(TELEMETRY, TELEMETRY_PATH, src).is_empty());
    }

    #[test]
    fn integer_accumulation_and_non_loop_float_adds_are_clean() {
        // u64 `+=` in a loop, f64 `+=` outside any loop, and `impl … for`
        // (not a loop) must all stay silent.
        let src = "impl Agg for Sum {\n    \
                   fn add(&mut self, xs: &[u64]) {\n        \
                   let mut n = 0;\n        \
                   for x in xs {\n            n += x;\n        }\n        \
                   self.total += n;\n    }\n}\n\
                   fn once(a: f64) -> f64 {\n    let mut t = 0.0;\n    t += a;\n    t\n}\n";
        assert!(lint_file(TELEMETRY, TELEMETRY_PATH, src).is_empty());
    }

    #[test]
    fn float_accum_is_scoped_to_telemetry_library_paths() {
        let src = "fn mean(xs: &[f64]) -> f64 {\n    \
                   let mut sum = 0.0;\n    \
                   for x in xs {\n        sum += x;\n    }\n    \
                   sum\n}\n";
        assert!(lint_file(SIM, "crates/serving/src/agg.rs", src).is_empty());
        assert!(lint_file(TELEMETRY, "crates/telemetry/tests/agg.rs", src).is_empty());
    }
}
