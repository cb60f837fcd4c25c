//! Cross-jobs determinism: a campaign sharded across worker threads
//! (`CampaignConfig::jobs`) must produce a byte-identical report — digest,
//! failure counts, truncation, shrunk plans, reproducer lines — to the same
//! campaign run single-threaded. This is the harness's determinism-under-
//! parallelism guarantee: per-plan seeds are a pure function of
//! `(campaign_seed, plan_index)` and the coordinator folds results in
//! plan-index order, so thread scheduling can never leak into a report.

#![forbid(unsafe_code)]

use orca_harness::{
    plan_seeds, run_campaign, scenario, CampaignConfig, CampaignReport, CheckpointPolicy, Scenario,
};

/// Canonical whole-report rendering (see `CampaignReport::render`), so
/// `assert_eq!` on it is a byte-identity check over the whole report.
fn render(report: &CampaignReport) -> String {
    report.render()
}

/// `trend` with a convergence bound of one quantum: most plans fail it.
fn trend_bound_one() -> Scenario {
    Scenario {
        convergence_bound: 1,
        ..scenario::trend()
    }
}

fn cfg(plans: usize, jobs: usize) -> CampaignConfig {
    CampaignConfig {
        plans,
        seed: 0xC0FFEE,
        jobs,
        ..Default::default()
    }
}

#[test]
fn jobs_1_vs_4_reports_are_byte_identical_on_every_app() {
    for sc in scenario::all() {
        let sequential = render(&run_campaign(&sc, &cfg(4, 1)));
        let sharded = render(&run_campaign(&sc, &cfg(4, 4)));
        assert_eq!(
            sequential, sharded,
            "[{}] report depends on --jobs",
            sc.name
        );
    }
}

#[test]
fn checkpointed_reports_are_byte_identical_across_jobs() {
    // The checkpointed path additionally computes a per-plan fault-free
    // baseline on the worker; it must shard just as cleanly.
    for sc in [scenario::live(), scenario::trend()] {
        let ckpt = |jobs| CampaignConfig {
            checkpoint: CheckpointPolicy::every(10),
            ..cfg(2, jobs)
        };
        let sequential = render(&run_campaign(&sc, &ckpt(1)));
        let sharded = render(&run_campaign(&sc, &ckpt(2)));
        assert_eq!(sequential, sharded, "[{}]", sc.name);
    }
}

#[test]
fn convergence_bound_one_failures_shrink_identically_across_jobs() {
    // Seed 7 over 5 trend plans trips the one-quantum convergence bound on
    // more than one plan, so with jobs > 1 the sharded shrink path runs
    // distinct failures concurrently — and must still emit the same shrunk
    // reproducers in the same (plan-index) order.
    let capped = |jobs| CampaignConfig {
        plans: 5,
        seed: 7,
        check_determinism: false,
        max_failures: 3,
        jobs,
        ..Default::default()
    };
    let sc = trend_bound_one();
    let sequential = run_campaign(&sc, &capped(1));
    let sharded = run_campaign(&sc, &capped(4));
    assert!(
        sequential.failures.len() > 1,
        "need >1 failure to exercise concurrent shrinking, got {}",
        sequential.failures.len()
    );
    assert_eq!(render(&sequential), render(&sharded));
}

#[test]
fn failures_truncated_counts_reproducers_dropped_beyond_the_cap() {
    // Same bound-one campaign capped at one shrunk failure: the other
    // failing plans must be surfaced as a truncation count, not dropped.
    let config = CampaignConfig {
        plans: 5,
        seed: 7,
        check_determinism: false,
        max_failures: 1,
        jobs: 2,
        ..Default::default()
    };
    let report = run_campaign(&trend_bound_one(), &config);
    assert_eq!(report.failures.len(), 1);
    assert!(report.failures_truncated > 0, "seed 7 fails >1 of 5 plans");
    assert_eq!(
        report.plans_failed,
        report.failures.len() + report.failures_truncated,
        "every failing plan is either shrunk or counted as truncated"
    );
    // The report names the cap, the one number that decides what is shrunk.
    let line = format!(
        "  failures_truncated={}: that many more plans failed; the campaign shrinks the first 1\n",
        report.failures_truncated
    );
    assert!(render(&report).ends_with(&line), "{}", render(&report));
}

#[test]
fn plan_seeds_are_a_pure_prefix_stable_function_of_index() {
    // Growing the campaign only appends plans — seed i never moves. This is
    // the property that lets workers evaluate plan i without replaying the
    // master stream behind a lock.
    let short = plan_seeds(7, 10);
    let long = plan_seeds(7, 100);
    assert_eq!(short[..], long[..10]);
    assert_ne!(plan_seeds(8, 10), short, "campaign seed must matter");
    let mut dedup = long.clone();
    dedup.sort_unstable();
    dedup.dedup();
    assert_eq!(dedup.len(), long.len(), "per-plan seeds collide");
}
