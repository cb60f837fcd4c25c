//! Guards the `--timing` containment invariant: the campaign binary's
//! *default* stdout must never carry wall-clock fields. Everything on the
//! default stream participates in byte-identity comparisons across runs and
//! `--jobs` levels, so a single leaked `wall_s=` would make every
//! determinism claim flaky. (This is the invariant the `sslint` allow on
//! `Instant::now()` in `src/bin/campaign.rs` records.)

#![forbid(unsafe_code)]

use std::process::Command;

fn campaign_stdout(extra: &[&str]) -> String {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_campaign"));
    cmd.args(["--plans", "3", "--seed", "7", "--app", "live"]);
    cmd.args(extra);
    let out = cmd.output().expect("campaign binary runs");
    assert!(
        out.status.success(),
        "campaign exited with {:?}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("stdout is utf-8")
}

#[test]
fn default_stdout_has_no_timing_fields() {
    let stdout = campaign_stdout(&[]);
    assert!(!stdout.is_empty(), "campaign produced no report");
    for needle in ["timing ", "wall_s=", "plans_per_sec="] {
        assert!(
            !stdout.contains(needle),
            "default stdout leaked `{needle}`:\n{stdout}"
        );
    }

    // The probe must be able to see the fields when they are asked for —
    // otherwise a renamed field would let the assertions above pass vacuously.
    let timed = campaign_stdout(&["--timing"]);
    assert!(
        timed.contains("wall_s=") && timed.contains("plans_per_sec="),
        "--timing stdout is missing its fields:\n{timed}"
    );
}

#[test]
fn default_stdout_is_run_to_run_identical() {
    // Wall-clock containment is what makes this equality possible at all.
    assert_eq!(campaign_stdout(&[]), campaign_stdout(&[]));
}
