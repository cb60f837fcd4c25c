//! Differential gate for the batched data path: campaign stdout must be
//! byte-identical with batching on (the default) and with the per-tuple
//! fallback forced via `SPS_BATCH=off`.
//!
//! Operators take one tuple at a time in both modes; what the fallback
//! changes is the PE around them. It caps every run at one tuple and sends
//! every emitted tuple in its own frame, so this comparison proves run
//! formation (and its per-run metric updates), run-coalesced transport
//! frames, and the straddling-batch replay split in upstream backup all
//! preserve the per-tuple semantics — not just on a clean run but under
//! fault plans, checkpoint restores, and replay. `batching_enabled()` is
//! read once per process, which is why each side runs in its own campaign
//! subprocess.

#![forbid(unsafe_code)]

use std::process::Command;

fn campaign_stdout(app: &str, extra: &[&str], batch: bool) -> String {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_campaign"));
    cmd.args(["--app", app, "--plans", "6", "--seed", "7", "--jobs", "2"]);
    cmd.args(extra);
    if !batch {
        cmd.env("SPS_BATCH", "off");
    } else {
        cmd.env_remove("SPS_BATCH");
    }
    let out = cmd.output().expect("campaign binary runs");
    assert!(
        out.status.success(),
        "campaign --app {app} {extra:?} (batch={batch}) exited with {:?}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("stdout is utf-8")
}

fn assert_differential(extra: &[&str]) {
    for app in ["live", "sentiment", "social", "trend"] {
        let batched = campaign_stdout(app, extra, true);
        let fallback = campaign_stdout(app, extra, false);
        assert!(
            !batched.is_empty(),
            "campaign --app {app} {extra:?} produced no report"
        );
        assert_eq!(
            batched, fallback,
            "batched stdout diverged from per-tuple fallback for --app {app} {extra:?}"
        );
    }
}

#[test]
fn plain_campaign_is_batching_invariant() {
    assert_differential(&[]);
}

#[test]
fn checkpointed_campaign_is_batching_invariant() {
    assert_differential(&["--checkpoint-interval", "10"]);
}

#[test]
fn upstream_backup_campaign_is_batching_invariant() {
    assert_differential(&["--checkpoint-interval", "10", "--upstream-backup", "on"]);
}
