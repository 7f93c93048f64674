//! The gate itself: the workspace must lint clean. This is the same
//! check CI runs via the `ador-lint` binary; having it as a test means
//! `cargo test` catches a regression before CI does.

use std::path::Path;

use ador_analysis::lint_workspace;

#[test]
fn workspace_lints_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = lint_workspace(&root).expect("workspace walk");
    assert!(
        report.clean(),
        "workspace has findings:\n{}",
        report.render_text()
    );
}
