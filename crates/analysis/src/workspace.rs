//! Workspace discovery and the end-to-end lint run.
//!
//! Walks the workspace tree for `.rs` files (skipping `target/`,
//! `.git/`, the offline dependency `shims/`, and `fixtures/`
//! directories, whose files *deliberately* contain findings), classifies
//! each file against the rule scopes and lints it. The [`Report`]
//! renders either the human `path:line:col rule message` form or a
//! machine-readable JSON document.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::rules::{FileClass, Finding};

/// Directory names never descended into.
const SKIP_DIRS: &[&str] = &["target", ".git", "shims", "fixtures"];

/// Path prefixes of the deterministic-simulation crates — the scope of
/// the determinism and panic-safety rules.
pub const SIM_PREFIXES: &[&str] = &[
    "crates/serving/src/",
    "crates/cluster/src/",
    "crates/spec/src/",
    "crates/telemetry/src/",
];

/// The outcome of one workspace lint run.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Unsuppressed findings, sorted by path/line/col.
    pub findings: Vec<Finding>,
    /// Number of `.rs` files scanned.
    pub files: usize,
}

impl Report {
    /// True when the run is clean: no findings.
    pub fn clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Human-readable rendering: one `path:line:col rule message` line
    /// per finding, then a summary line.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            out.push_str(&format!(
                "{}:{}:{} {} {}\n",
                f.path, f.line, f.col, f.rule, f.message
            ));
        }
        out.push_str(&format!(
            "ador-lint: {} files scanned, {} finding(s)\n",
            self.files,
            self.findings.len(),
        ));
        out
    }

    /// Machine-readable rendering. The emitter is local (this crate is
    /// dependency-free); the crate's tests parse the output back with
    /// `ador-bench::json` to pin the two ends against each other.
    pub fn render_json(&self) -> String {
        let findings: Vec<String> = self
            .findings
            .iter()
            .map(|f| {
                obj(&[
                    ("path", str_lit(&f.path)),
                    ("line", f.line.to_string()),
                    ("col", f.col.to_string()),
                    ("rule", str_lit(f.rule)),
                    ("message", str_lit(&f.message)),
                ])
            })
            .collect();
        obj(&[
            ("name", str_lit("ador-lint")),
            ("files", self.files.to_string()),
            ("clean", self.clean().to_string()),
            ("findings", format!("[{}]", findings.join(","))),
        ])
    }
}

fn str_lit(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn obj(fields: &[(&str, String)]) -> String {
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}:{v}", str_lit(k)))
        .collect();
    format!("{{{}}}", body.join(","))
}

/// Classifies a workspace-relative path against the rule scopes.
pub fn classify(rel: &str) -> FileClass {
    FileClass {
        sim: SIM_PREFIXES.iter().any(|p| rel.starts_with(p)),
        test_file: rel
            .split('/')
            .any(|part| matches!(part, "tests" | "benches" | "examples")),
    }
}

/// Recursively collects the workspace's `.rs` files, sorted so runs are
/// deterministic regardless of directory-entry order.
pub fn collect_files(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    walk(root, &mut files)?;
    files.sort();
    Ok(files)
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if !SKIP_DIRS.contains(&name.as_ref()) && !name.starts_with('.') {
                walk(&path, out)?;
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Lints every file under `root`.
///
/// # Errors
///
/// Propagates I/O errors from the directory walk or file reads.
pub fn lint_workspace(root: &Path) -> io::Result<Report> {
    let files = collect_files(root)?;
    let mut findings = Vec::new();
    for path in &files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        let source = fs::read_to_string(path)?;
        findings.extend(crate::lint_file(classify(&rel), &rel, &source));
    }
    Ok(Report {
        findings,
        files: files.len(),
    })
}
