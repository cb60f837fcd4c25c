//! A printed `reproduce:` line is a command. Executed as printed, it must
//! fail the way the campaign said the plan fails: same exit status, same
//! oracles — under the policy the campaign ran with, which the line carries
//! as flags (here `--checkpoint-interval 10 --broken-oracle convergence`;
//! with the broken oracle dropped from the line, the replay passes).
//!
//! The campaign reports the violations of the original plan and the line
//! replays the shrunk one, so a message that counts quanta (the convergence
//! oracle's) may differ between the two; the oracle that fires may not.

#![forbid(unsafe_code)]

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
        "--broken-oracle",
        "convergence",
    ]);
    assert_eq!(code, Some(1), "a broken oracle must fail a plan:\n{report}");

    let mut replayed = 0;
    let mut oracles: Vec<&str> = Vec::new();
    for line in report.lines() {
        if line.starts_with("  FAIL ") {
            oracles.clear();
        } else if let Some(violation) = line.strip_prefix("    oracle ") {
            oracles.push(violation.split_once(": ").expect("`oracle NAME: MSG`").0);
        } else if let Some(command) = line.strip_prefix("  reproduce: ") {
            let (_, argv) = command
                .split_once(" -- ")
                .expect("the command passes its argv after `--`");
            let argv: Vec<&str> = argv.split_whitespace().collect();
            let (code, replay) = campaign(&argv);
            assert_eq!(code, Some(1), "`{command}` printed:\n{replay}");
            assert!(!oracles.is_empty(), "no violation above `{command}`");
            for oracle in &oracles {
                assert!(
                    replay.contains(&format!("oracle {oracle} violated: ")),
                    "`{command}` does not report oracle `{oracle}`:\n{replay}"
                );
            }
            let sound: Vec<&str> = argv
                .iter()
                .copied()
                .filter(|&a| a != "--broken-oracle" && a != "convergence")
                .collect();
            let (code, replay) = campaign(&sound);
            assert_eq!(code, Some(0), "without the broken oracle:\n{replay}");
            replayed += 1;
        }
    }
    assert!(replayed > 0, "no reproduce: line in:\n{report}");
}
