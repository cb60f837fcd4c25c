//! The fixture corpus: one bad / good / allowlisted case per rule, asserting
//! exact diagnostics (rule id, file, line), plus end-to-end exit-code checks
//! on the `sslint` binary itself.
//!
//! Fixture files live under `tests/fixtures/` — a directory name the
//! workspace walk never descends into, so the corpus trips nothing in CI
//! while staying available for deliberate linting via `--paths`.

#![forbid(unsafe_code)]

use analyzer::{check_source, rules, Diagnostic};
use std::path::Path;
use std::process::Command;

fn fixture_diags(rel: &str) -> Vec<Diagnostic> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests");
    let src = std::fs::read_to_string(dir.join(rel)).expect("fixture exists");
    check_source(Path::new(rel), &src)
}

/// `(rule, line)` pairs, in reported order.
fn rule_lines(rel: &str) -> Vec<(&'static str, u32)> {
    fixture_diags(rel)
        .iter()
        .map(|d| (d.rule, d.line))
        .collect()
}

#[test]
fn r1_bad_flags_both_iteration_shapes() {
    assert_eq!(
        rule_lines("fixtures/r1/bad.rs"),
        vec![
            (rules::R1_UNORDERED_ITER, 12), // for … in &index.slots
            (rules::R1_UNORDERED_ITER, 19), // map.keys()
        ]
    );
    let d = &fixture_diags("fixtures/r1/bad.rs")[1];
    assert_eq!(d.path, "fixtures/r1/bad.rs");
    assert!(d.message.contains("map.keys()"), "{}", d.message);
}

#[test]
fn r1_good_and_allowed_are_clean() {
    assert_eq!(rule_lines("fixtures/r1/good.rs"), vec![]);
    assert_eq!(rule_lines("fixtures/r1/allowed.rs"), vec![]);
}

#[test]
fn r2_bad_flags_clock_and_spawn() {
    assert_eq!(
        rule_lines("fixtures/r2/bad.rs"),
        vec![
            (rules::R2_AMBIENT_AUTHORITY, 6),  // Instant::now()
            (rules::R2_AMBIENT_AUTHORITY, 11), // std::thread::spawn
        ]
    );
}

#[test]
fn r2_good_and_allowed_are_clean() {
    assert_eq!(rule_lines("fixtures/r2/good.rs"), vec![]);
    assert_eq!(rule_lines("fixtures/r2/allowed.rs"), vec![]);
}

#[test]
fn r2_metastore_bad_flags_wall_clock_and_unseeded_follower_choice() {
    assert_eq!(
        rule_lines("fixtures/r2/metastore_bad.rs"),
        vec![
            (rules::R2_AMBIENT_AUTHORITY, 12), // SystemTime::now op stamp
            (rules::R2_AMBIENT_AUTHORITY, 15), // rand::random follower pick
        ]
    );
    let d = &fixture_diags("fixtures/r2/metastore_bad.rs")[1];
    assert!(
        d.message.contains("seeded SimRng"),
        "message must point at the sanctioned alternative: {}",
        d.message
    );
}

#[test]
fn r2_metastore_good_is_clean() {
    assert_eq!(rule_lines("fixtures/r2/metastore_good.rs"), vec![]);
}

#[test]
fn r3_bad_flags_missing_contract_at_impl_line() {
    assert_eq!(
        rule_lines("fixtures/r3/bad.rs"),
        vec![(rules::R3_CKPT_CONTRACT, 7)]
    );
    let d = &fixture_diags("fixtures/r3/bad.rs")[0];
    assert!(
        d.message.contains("overrides neither"),
        "message names the missing halves: {}",
        d.message
    );
}

#[test]
fn r3_good_and_allowed_are_clean() {
    assert_eq!(rule_lines("fixtures/r3/good.rs"), vec![]);
    assert_eq!(rule_lines("fixtures/r3/allowed.rs"), vec![]);
}

#[test]
fn r4_bad_flags_float_in_digest_context() {
    assert_eq!(
        rule_lines("fixtures/r4/bad.rs"),
        vec![(rules::R4_FLOAT_DIGEST, 3)]
    );
}

#[test]
fn r4_good_and_allowed_are_clean() {
    assert_eq!(rule_lines("fixtures/r4/good.rs"), vec![]);
    assert_eq!(rule_lines("fixtures/r4/allowed.rs"), vec![]);
}

#[test]
fn meta_bad_flags_malformed_and_unused_allows() {
    assert_eq!(
        rule_lines("fixtures/meta/bad.rs"),
        vec![
            (rules::BAD_ALLOW, 3),    // missing reason
            (rules::UNUSED_ALLOW, 6), // suppresses nothing
            (rules::BAD_ALLOW, 9),    // unknown rule id
        ]
    );
}

// ---------------------------------------------------------------------------
// Binary-level gate behavior
// ---------------------------------------------------------------------------

fn sslint(args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_sslint"))
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .args(args)
        .output()
        .expect("sslint runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

#[test]
fn deny_mode_rejects_the_fixture_corpus() {
    let fixtures = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let (ok, stdout) = sslint(&["--deny", "--paths", fixtures.to_str().unwrap()]);
    assert!(!ok, "fixture corpus must fail the gate:\n{stdout}");
    // Every rule id appears, each with a file:line location.
    for rule in [
        "unordered-iter",
        "ambient-authority",
        "ckpt-contract",
        "float-digest",
        "bad-allow",
        "unused-allow",
    ] {
        assert!(
            stdout.contains(&format!("sslint: {rule} ")),
            "missing {rule}:\n{stdout}"
        );
    }
    assert!(
        stdout.contains("fixtures/r3/bad.rs:7"),
        "locations are file:line:\n{stdout}"
    );
}

#[test]
fn deny_mode_accepts_a_clean_path() {
    let good = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/r1/good.rs");
    let (ok, stdout) = sslint(&["--deny", "--paths", good.to_str().unwrap()]);
    assert!(ok, "clean fixture must pass the gate:\n{stdout}");
    assert!(stdout.contains("0 finding(s)"), "{stdout}");
}

#[test]
fn deny_mode_accepts_the_workspace() {
    // The CI gate in miniature: the tree itself must lint clean.
    let (ok, stdout) = sslint(&["--deny"]);
    assert!(ok, "workspace must lint clean:\n{stdout}");
}
