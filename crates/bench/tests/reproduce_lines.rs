//! A printed `reproduce:` line is a command. Executed as printed, it must
//! re-execute the world the campaign evaluated: the same plan, seed and
//! policy, which the line carries as flags.
//!
//! No flag breaks an oracle, so the failing campaign runs in this process:
//! `trend` with a convergence bound of one quantum, which most plans
//! violate. Its lines go to the binary, whose `trend` has the real bound:
//! each replay reports the digest this process computes for the shrunk plan
//! and passes. A plan that fails under the real oracles covers the other
//! exit: every host killed and none revived.

#![forbid(unsafe_code)]

use orca_harness::{
    evaluate, run_campaign_cached, scenario, BaselineCache, BaselineSource, CampaignConfig,
    CheckpointPolicy, FaultPlan, Scenario,
};
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
    let sc = Scenario {
        convergence_bound: 1,
        ..scenario::trend()
    };
    let cfg = CampaignConfig {
        plans: 3,
        seed: 7,
        checkpoint: CheckpointPolicy::every(10),
        ..CampaignConfig::default()
    };
    let cache = BaselineCache::new();
    let report = run_campaign_cached(&sc, &cfg, &cache).render();

    let mut replayed = 0;
    for line in report.lines() {
        if let Some(command) = line.strip_prefix("  reproduce: ") {
            let (_, argv) = command
                .split_once(" -- ")
                .expect("the command passes its argv after `--`");
            let argv: Vec<&str> = argv.split_whitespace().collect();
            let (code, replay) = campaign(&argv);
            assert_eq!(code, Some(0), "`{command}` under trend's bound:\n{replay}");

            let value = |flag| argv[argv.iter().position(|&a| a == flag).unwrap() + 1];
            let plan = FaultPlan::decode(value("--replay")).unwrap();
            let here = evaluate(
                &sc,
                value("--seed").parse().unwrap(),
                &plan,
                &cfg.oracles(),
                cfg.check_determinism,
                cfg.policy(),
                BaselineSource::new(&cache, plan.horizon()),
            );
            assert!(!here.violations.is_empty(), "`{command}` passes bound 1");
            // The first line is `replay app=… plan=… digest=D`.
            let digest = format!(" digest={:016x}", here.digest);
            assert!(
                replay.lines().next().is_some_and(|l| l.ends_with(&digest)),
                "`{command}` ran another world than{digest}:\n{replay}"
            );
            replayed += 1;
        }
    }
    assert!(replayed > 0, "no reproduce: line in:\n{report}");
}

#[test]
fn a_replay_that_violates_an_oracle_prints_it_and_exits_1() {
    // Every trend host dies at once and none comes back: no plan generator
    // draws this, and nothing can restart the PEs.
    let (code, replay) = campaign(&[
        "--replay",
        "6000:kh:0,6000:kh:1,6000:kh:2,6000:kh:3",
        "--app",
        "trend",
        "--seed",
        "7",
    ]);
    assert_eq!(code, Some(1), "{replay}");
    assert!(
        replay.contains(
            "\noracle recovery violated: PE pe1 (JobId(1)) left Crashed on host0 after settle\n"
        ),
        "{replay}"
    );
}
