//! The analyzer's acceptance gate, in both directions:
//!
//! - the seeded-violation fixture MUST be flagged (the lints detect what
//!   they claim to detect), and
//! - the real workspace MUST be clean (the tree satisfies its own gate —
//!   the same check `cargo xtask analyze` performs in CI).

use std::path::Path;
use xtask::{analyze_file, analyze_workspace, exit_code_for, json_report, stale_scopes, Lint};

fn fixture(name: &str) -> String {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    std::fs::read_to_string(dir.join(name)).expect("fixture exists")
}

#[test]
fn seeded_violation_fixture_is_flagged() {
    let src = fixture("seeded_violation.rs");
    // Analyzed as if it lived at a non-allowlisted hot-path location.
    let violations = analyze_file("crates/chisel-core/src/engine.rs", &src);
    assert!(
        violations.iter().any(|v| v.lint == Lint::SafetyComment),
        "undocumented unsafe not flagged: {violations:?}"
    );
    assert!(
        violations.iter().any(|v| v.lint == Lint::UnsafeAllowlist),
        "unsafe outside allowlist not flagged: {violations:?}"
    );
    assert!(
        violations.iter().any(|v| v.lint == Lint::HotPathPanic),
        "hot-path unwrap not flagged: {violations:?}"
    );
}

#[test]
fn update_path_panic_is_flagged_in_fixture() {
    let src = fixture("seeded_violation.rs");
    // The same seeded unwraps, analyzed as if they lived in the update
    // pipeline: every non-test, unjustified one must trip lint 5.
    let violations = analyze_file("crates/chisel-core/src/update.rs", &src);
    assert!(
        violations.iter().any(|v| v.lint == Lint::UpdatePathPanic),
        "update-path unwrap not flagged: {violations:?}"
    );
}

#[test]
fn concurrency_fixture_trips_all_four_new_lints() {
    let src = fixture("concurrency_violation.rs");
    // flowcache.rs is whole-file hot-path AND lock-free, so every
    // seeded site is in scope.
    let violations = analyze_file("crates/chisel-core/src/flowcache.rs", &src);
    for lint in [
        Lint::AtomicOrdering,
        Lint::HotPathAlloc,
        Lint::LockDiscipline,
        Lint::AssertDiscipline,
    ] {
        assert!(
            violations.iter().any(|v| v.lint == lint),
            "{lint} not flagged: {violations:?}"
        );
    }
    // All three allocation forms are caught, not just the first.
    assert_eq!(
        violations
            .iter()
            .filter(|v| v.lint == Lint::HotPathAlloc)
            .count(),
        3,
        "Vec::new + format! + .collect(: {violations:?}"
    );
}

#[test]
fn concurrency_lints_respect_function_scoping() {
    let src = fixture("concurrency_violation.rs");
    // daemon.rs is lock-free only inside `shard_main`, so the Mutex in
    // `guard` passes lint 8 — but daemon.rs is a no-panic path, so the
    // `.unwrap()` in the same function trips lint 5.
    let violations = analyze_file("crates/chisel-dataplane/src/daemon.rs", &src);
    assert!(
        violations.iter().all(|v| v.lint != Lint::LockDiscipline),
        "Mutex outside shard_main wrongly flagged: {violations:?}"
    );
    assert!(
        violations.iter().any(|v| v.lint == Lint::UpdatePathPanic),
        "daemon unwrap not flagged: {violations:?}"
    );
}

#[test]
fn concurrency_clean_fixture_passes() {
    let src = fixture("concurrency_clean.rs");
    let violations = analyze_file("crates/chisel-core/src/flowcache.rs", &src);
    assert!(violations.is_empty(), "{violations:?}");
}

#[test]
fn exit_code_and_json_report_reflect_the_violations() {
    let src = fixture("concurrency_violation.rs");
    let violations = analyze_file("crates/chisel-core/src/flowcache.rs", &src);
    // Smallest code wins: hot-path-panic (13, the `.unwrap()` in
    // `guard`) outranks the concurrency lints (15–18).
    assert_eq!(exit_code_for(&violations), 13);
    let json = json_report(&violations);
    assert!(json.contains("\"clean\": false"));
    assert!(json.contains("\"atomic-ordering\""));
    assert!(json.contains("\"lock-discipline\""));
    assert!(json.contains("crates/chisel-core/src/flowcache.rs"));
}

#[test]
fn clean_fixture_passes() {
    let src = fixture("clean.rs");
    let violations = analyze_file("crates/chisel-core/src/snapshot.rs", &src);
    assert!(violations.is_empty(), "{violations:?}");
}

#[test]
fn stale_lint_scopes_are_flagged() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let entries: &[(&str, Option<&[&str]>)] = &[
        (
            "tests/fixtures/scoped.rs",
            Some(&["live", "test_only", "renamed_away"]),
        ),
        ("tests/fixtures/scoped.rs", None),
        ("tests/fixtures/deleted.rs", None),
    ];
    let violations = stale_scopes(root, "HOT_PATHS", entries).expect("fixtures readable");
    assert!(
        violations.iter().all(|v| v.lint == Lint::StaleScope),
        "{violations:?}"
    );
    let messages: Vec<String> = violations.iter().map(|v| v.to_string()).collect();
    assert_eq!(messages.len(), 3, "{messages:#?}");
    // A function defined only under #[cfg(test)] is as stale as one
    // renamed away; the live function and the whole-file entry pass.
    assert!(messages[0].contains("`fn test_only`"), "{messages:#?}");
    assert!(messages[1].contains("`fn renamed_away`"), "{messages:#?}");
    assert!(
        messages[2].starts_with("tests/fixtures/deleted.rs:1: [stale-scope]"),
        "{messages:#?}"
    );
    assert_eq!(exit_code_for(&violations), 19);
}

#[test]
fn workspace_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("xtask lives one level below the workspace root");
    let violations = analyze_workspace(root).expect("workspace walk");
    assert!(
        violations.is_empty(),
        "workspace has {} lint violation(s):\n{}",
        violations.len(),
        violations
            .iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}
