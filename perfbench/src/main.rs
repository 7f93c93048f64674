//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! ```
//!
//! Runs one workload single-threaded, checks its simulated outputs, and
//! prints every metric by name with its unit. The last line of standard
//! output is one JSON object: `{"correct", "attempted", "failed",
//! "metrics"}`. With `--trace 0` the metrics are the end-to-end ones,
//! measured with the benchmark's tracing off; with `--trace 1` they are
//! the per-layer ones, from a run that records a span around every call
//! the benchmark makes into a layer and writes them as Chrome trace-event
//! JSON under `target/perfbench/`. `--smoke` shrinks every workload to a
//! sub-second run, writes under `target/perfbench-smoke/` instead, and
//! marks its output `"smoke": true`. See `perfbench/README.md`.

mod fleet;
mod metrics;
mod sweep;
mod trace;
mod workloads;

use std::process::ExitCode;

use ador_bench::json;

use crate::metrics::{Outcome, END_TO_END, PER_LAYER};
use crate::workloads::Kind;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Kind,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
}

const USAGE: &str =
    "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut smoke = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            smoke = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Kind::parse(value).ok_or(format!("unknown workload {value}"))?);
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=3600.0).contains(&s) {
                    return Err(format!("--seconds out of range: {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
        smoke,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("perfbench: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match (args.workload, args.trace) {
        (Kind::DesignSweep, false) => sweep::untraced(&args),
        (Kind::DesignSweep, true) => sweep::traced(&args),
        (_, false) => metrics::fleet_untraced(&args),
        (_, true) => metrics::fleet_traced(&args),
    };
    let outcome = outcome.unwrap_or_else(|e| Outcome::errored(&e.to_string()));
    print_result(&args, &outcome);
    ExitCode::SUCCESS
}

/// Prints the human-readable metric table, the detail line (simulated
/// headline results and digest, which are not regression-gated), and the
/// result object as the last line.
fn print_result(args: &Args, outcome: &Outcome) {
    let list = if args.trace { PER_LAYER } else { END_TO_END };
    for (name, unit) in list {
        println!(
            "{:<32} {:>18} {unit}",
            name,
            format!("{:.6}", outcome.value(name))
        );
    }
    for (check, ok) in &outcome.checks {
        println!("check {check:<40} {}", if *ok { "ok" } else { "FAILED" });
    }
    let mut detail = vec![
        ("workload", json::string(args.workload.name())),
        ("seed", args.seed.to_string()),
        ("trace", args.trace.to_string()),
        ("smoke", args.smoke.to_string()),
    ];
    detail.extend(outcome.detail.iter().map(|(k, v)| (*k, v.clone())));
    println!("detail {}", json::object(&detail));
    let metrics: Vec<(&str, String)> = list
        .iter()
        .map(|(name, unit)| {
            (
                *name,
                json::object(&[
                    ("value", json::num(outcome.value(name))),
                    ("unit", json::string(unit)),
                ]),
            )
        })
        .collect();
    println!(
        "{}",
        json::object(&[
            ("correct", outcome.correct().to_string()),
            ("attempted", outcome.attempted.max(1).to_string()),
            ("failed", outcome.failed().to_string()),
            ("metrics", json::object(&metrics)),
        ])
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = parse_args(&argv(
            "--workload session_affinity --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload, Kind::SessionAffinity);
        assert_eq!(a.seed, 7);
        assert!(a.trace && !a.smoke);
        assert!(parse_args(&argv("--workload nope --seed 1 --seconds 1 --trace 0")).is_err());
        assert!(parse_args(&argv(
            "--workload session_affinity --seed 1 --seconds 1 --trace 2"
        ))
        .is_err());
        assert!(parse_args(&argv("--workload session_affinity --seconds 1 --trace 0")).is_err());
    }
}
