//! A printed `reproduce:` line is a command. Executed as printed, it must
//! fail the way the campaign said the plan fails: same exit status, same
//! oracle, same message — under the policy the campaign ran with, which the
//! line carries as flags (here `--checkpoint-interval 10 --lossy-restore`;
//! dropped from the line, the replay would pass).

use std::process::Command;

fn campaign(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_campaign"))
        .args(args)
        .output()
        .expect("campaign binary runs");
    let stdout = String::from_utf8(out.stdout).expect("stdout is utf-8");
    (out.status.code(), stdout)
}

#[test]
fn every_printed_reproduce_line_replays_its_failure() {
    let (code, report) = campaign(&[
        "--app",
        "trend",
        "--plans",
        "3",
        "--seed",
        "7",
        "--checkpoint-interval",
        "10",
        "--lossy-restore",
    ]);
    assert_eq!(code, Some(1), "a lossy restore must fail a plan:\n{report}");

    let mut replayed = 0;
    let mut messages: Vec<&str> = Vec::new();
    for line in report.lines() {
        if line.starts_with("  FAIL ") {
            messages.clear();
        } else if let Some(message) = line.strip_prefix("    oracle state: ") {
            messages.push(message);
        } else if let Some(command) = line.strip_prefix("  reproduce: ") {
            let (_, argv) = command
                .split_once(" -- ")
                .expect("the command passes its argv after `--`");
            let argv: Vec<&str> = argv.split_whitespace().collect();
            let (code, replay) = campaign(&argv);
            assert_eq!(code, Some(1), "`{command}` printed:\n{replay}");
            assert!(!messages.is_empty(), "no state violation above `{command}`");
            for message in &messages {
                assert!(
                    replay.contains(&format!("oracle state violated: {message}\n")),
                    "`{command}` does not report `{message}`:\n{replay}"
                );
            }
            replayed += 1;
        }
    }
    assert!(replayed > 0, "no reproduce: line in:\n{report}");
}
