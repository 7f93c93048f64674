//! The `ador-lint` command-line entry point.
//!
//! ```text
//! cargo run -p ador-analysis --bin ador-lint -- --workspace-root .
//! ```
//!
//! Exit codes: `0` clean, `1` any finding, `2` usage or I/O error.

use std::path::PathBuf;
use std::process::ExitCode;

use ador_analysis::{lint_workspace, RULES};

const USAGE: &str = "\
ador-lint — static analysis for the ADOR simulator's determinism and
panic-safety contracts.

USAGE:
    ador-lint [OPTIONS]

OPTIONS:
    --workspace-root <path>   Workspace to lint (default: .)
    --json                    Emit the machine-readable JSON report
    --list                    List the rules and exit
    -h, --help                This help
";

fn main() -> ExitCode {
    match run() {
        Ok(clean) => {
            if clean {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(err) => {
            eprintln!("ador-lint: error: {err}");
            ExitCode::from(2)
        }
    }
}

fn run() -> Result<bool, String> {
    let mut root = PathBuf::from(".");
    let mut json = false;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--workspace-root" => {
                root = PathBuf::from(args.next().ok_or("--workspace-root needs a path")?);
            }
            "--json" => json = true,
            "--list" => {
                for rule in RULES {
                    println!("{:<22} {}", rule.id, rule.summary);
                }
                return Ok(true);
            }
            "-h" | "--help" => {
                print!("{USAGE}");
                return Ok(true);
            }
            other => return Err(format!("unknown argument `{other}` (try --help)")),
        }
    }

    let report = lint_workspace(&root).map_err(|e| format!("scanning {}: {e}", root.display()))?;

    if json {
        println!("{}", report.render_json());
    } else {
        print!("{}", report.render_text());
    }
    Ok(report.clean())
}
