//! Integration: the fault-injection campaign harness over all four
//! use-case applications — fixed-seed campaigns pass every oracle, reports
//! are bit-deterministic, a deliberately broken oracle demonstrates
//! shrinking down to a 1-minimal reproducible plan, and the
//! checkpoint-recovery regime (`StatePreservation` oracle) holds under
//! targeted stateful-kill schedules and full seeded campaigns.

#![forbid(unsafe_code)]

use orca_harness::{
    default_oracles, evaluate, reproducer_line, run_campaign, scenario, BaselineCache,
    BaselineSource, Built, CampaignConfig, CheckpointPolicy, FaultPlan, Scenario, WorldPolicy,
};
use sps_engine::{ops, EngineError, OpCtx, Operator, Punct, StateBlob, Tuple};
use sps_sim::SimRng;
use std::collections::VecDeque;

fn cfg(plans: usize) -> CampaignConfig {
    CampaignConfig {
        plans,
        seed: 0xC0FFEE,
        check_determinism: true,
        broken_convergence: false,
        max_failures: 3,
        ..Default::default()
    }
}

/// Checkpoint every 10 quanta (1 s at the default 100 ms quantum).
fn ckpt_cfg(plans: usize) -> CampaignConfig {
    CampaignConfig {
        checkpoint: CheckpointPolicy::every(10),
        ..cfg(plans)
    }
}

#[test]
fn fixed_seed_campaigns_pass_all_oracles_on_every_app() {
    for sc in scenario::all() {
        let report = run_campaign(&sc, &cfg(4));
        assert_eq!(report.plans_run, 4);
        assert_eq!(report.plans_failed, 0, "[{}]", sc.name);
        assert!(
            report.failures.is_empty(),
            "[{}] campaign failed:\n{}",
            sc.name,
            report
                .failures
                .iter()
                .map(|f| format!("  {} -> {:?}", f.reproducer, f.violations))
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}

#[test]
fn checkpointed_campaigns_pass_state_preservation_on_every_app() {
    for sc in scenario::all() {
        let report = run_campaign(&sc, &ckpt_cfg(3));
        assert_eq!(
            report.plans_failed,
            0,
            "[{}] checkpointed campaign failed:\n{}",
            sc.name,
            report
                .failures
                .iter()
                .map(|f| format!("  {} -> {:?}", f.reproducer, f.violations))
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}

#[test]
fn campaign_reports_are_bit_deterministic() {
    let sc = scenario::trend();
    let a = run_campaign(&sc, &cfg(3));
    let b = run_campaign(&sc, &cfg(3));
    assert_eq!(a.digest, b.digest, "same seed must fold the same digests");
    assert_eq!(a.failures.len(), b.failures.len());
    // A different seed explores different plans.
    let c = run_campaign(
        &sc,
        &CampaignConfig {
            seed: 0xBEEF,
            ..cfg(3)
        },
    );
    assert_ne!(a.digest, c.digest);
    // Checkpointing changes execution (snapshots restore state), so the
    // same seed under the checkpoint regime folds a different digest — but
    // deterministically so.
    let d = run_campaign(&sc, &ckpt_cfg(3));
    let e = run_campaign(&sc, &ckpt_cfg(3));
    assert_eq!(d.digest, e.digest);
    assert_ne!(a.digest, d.digest);
}

#[test]
fn generated_plans_actually_perturb_the_system() {
    // The trace digest of a faulted run must differ from the fault-free
    // baseline of the same seed — i.e. campaigns exercise real failures.
    let sc = scenario::trend();
    let oracles = default_oracles(false, false, false);
    let seed = 0xDEAD_BEEF_u64;
    let opts = CheckpointPolicy::default();
    let plan = FaultPlan::generate(&mut SimRng::new(seed), &sc.plan_spec());
    assert!(!plan.events.is_empty());
    let cache = BaselineCache::new();
    let (faulted, violations) = evaluate(
        &sc,
        seed,
        &plan,
        &oracles,
        false,
        WorldPolicy::checkpointed(opts),
        BaselineSource::new(&cache, None),
    );
    assert!(violations.is_empty(), "{violations:?}");
    let (baseline, _) = evaluate(
        &sc,
        seed,
        &FaultPlan::default(),
        &oracles,
        false,
        WorldPolicy::checkpointed(opts),
        BaselineSource::new(&cache, None),
    );
    assert_ne!(faulted, baseline, "plan {} left no mark", plan.encode());
}

#[test]
fn broken_oracle_shrinks_to_a_minimal_reproducible_plan() {
    let sc = scenario::trend();
    let config = CampaignConfig {
        plans: 5,
        seed: 7,
        check_determinism: false, // halve the cost; determinism is covered above
        broken_convergence: true,
        max_failures: 1,
        ..Default::default()
    };
    let report = run_campaign(&sc, &config);
    assert!(
        !report.failures.is_empty(),
        "the inverted convergence bound must trip on some plan"
    );
    // Every failing plan is counted, even beyond the shrink cap, and the
    // dropped reproducers are reported rather than silently vanishing.
    assert!(report.plans_failed >= report.failures.len());
    assert_eq!(
        report.failures_truncated,
        report.plans_failed - report.failures.len()
    );
    let f = &report.failures[0];
    assert!(f.violations.iter().any(|v| v.oracle == "convergence"));
    assert!(f.shrunk.events.len() <= f.original.events.len());
    assert!(!f.shrunk.events.is_empty());

    // The reproducer round-trips and still fails.
    let oracles = default_oracles(true, false, false);
    let opts = CheckpointPolicy::default();
    let decoded = FaultPlan::decode(&f.shrunk.encode()).unwrap();
    assert_eq!(decoded, f.shrunk);
    let cache = BaselineCache::new();
    let (_, violations) = evaluate(
        &sc,
        f.plan_seed,
        &decoded,
        &oracles,
        false,
        WorldPolicy::checkpointed(opts),
        BaselineSource::new(&cache, None),
    );
    assert!(!violations.is_empty(), "shrunk plan no longer fails");

    // 1-minimality: removing any single remaining event makes it pass.
    for i in 0..f.shrunk.events.len() {
        let smaller = f.shrunk.without(i);
        let (_, v) = evaluate(
            &sc,
            f.plan_seed,
            &smaller,
            &oracles,
            false,
            WorldPolicy::checkpointed(opts),
            BaselineSource::new(&cache, None),
        );
        assert!(
            v.is_empty(),
            "shrunk plan is not minimal: dropping event {i} still fails ({v:?})"
        );
    }

    // The one-line reproducer carries everything needed for replay.
    assert_eq!(
        f.reproducer,
        format!(
            "--replay {} --app trend --seed {} --broken-oracle convergence",
            f.shrunk.encode(),
            f.plan_seed
        )
    );
}

// ---------------------------------------------------------------------------
// Stateful-recovery suite: targeted kill schedules against the trend app
// (600 s windows — the §5.2 stateful workload) under checkpointing.
// ---------------------------------------------------------------------------

/// Runs one explicit plan under the checkpoint regime with the
/// `StatePreservation` oracle active and asserts it passes and replays
/// bit-identically (evaluate's built-in determinism replay).
fn assert_stateful_recovery(app: &str, seed: u64, plan: &str) {
    let sc = scenario::by_name(app).unwrap();
    let opts = CheckpointPolicy::every(10);
    let oracles = default_oracles(false, true, false);
    let plan = FaultPlan::decode(plan).unwrap();
    let cache = BaselineCache::new();
    let (digest_a, violations) = evaluate(
        &sc,
        seed,
        &plan,
        &oracles,
        true,
        WorldPolicy::checkpointed(opts),
        BaselineSource::new(&cache, plan.horizon()),
    );
    assert!(
        violations.is_empty(),
        "[{app}] plan {} violated: {violations:?}",
        plan.encode()
    );
    // One baseline computation served the primary run and the determinism
    // replay inside `evaluate`.
    let stats = cache.stats();
    assert_eq!(stats.misses, 1, "[{app}] baseline recomputed");
    assert!(stats.hits >= 1, "[{app}] replay missed the cache");
    // Replaying the whole evaluation reproduces the digest bit-identically
    // (and is itself a pure cache hit for the baseline).
    let (digest_b, _) = evaluate(
        &sc,
        seed,
        &plan,
        &oracles,
        false,
        WorldPolicy::checkpointed(opts),
        BaselineSource::new(&cache, plan.horizon()),
    );
    assert_eq!(digest_a, digest_b);
    assert_eq!(cache.stats().misses, 1);
}

#[test]
fn stateful_recovery_kill_windowed_aggregate_mid_window() {
    // Trend slot 1 is the windowed Aggregate (`calc`): kill it mid-window,
    // well past warmup so its sliding windows hold real state.
    assert_stateful_recovery("trend", 11, "8000:kp:0:1");
}

#[test]
fn stateful_recovery_kill_into_restart_gap() {
    // Second kill lands 1 s after the first — inside the 2 s restart gap,
    // while the replacement is still `Starting`.
    assert_stateful_recovery("trend", 12, "8000:kp:0:1,9000:kp:0:1");
}

#[test]
fn stateful_recovery_host_kill_and_revive() {
    // A host dies with everything on it and comes back 4 s later.
    assert_stateful_recovery("trend", 13, "7500:kh:1,11500:rh:1");
}

#[test]
fn stateful_recovery_holds_on_every_app_for_a_pe_kill() {
    for (app, seed) in [
        ("live", 21u64),
        ("sentiment", 22),
        ("social", 23),
        ("trend", 24),
    ] {
        assert_stateful_recovery(app, seed, "8600:kp:0:1");
    }
}

#[test]
fn restored_state_actually_differs_from_fresh_restarts() {
    // The same kill schedule under checkpointing vs. without it must settle
    // into different artifacts: the restored run keeps pre-crash state.
    let sc = scenario::trend();
    let seed = 31u64;
    let plan = FaultPlan::decode("8000:kp:0:1").unwrap();
    let oracles = default_oracles(false, false, false);
    let cache = BaselineCache::new();
    let (fresh, _) = evaluate(
        &sc,
        seed,
        &plan,
        &oracles,
        false,
        WorldPolicy::default(),
        BaselineSource::new(&cache, None),
    );
    let (restored, _) = evaluate(
        &sc,
        seed,
        &plan,
        &oracles,
        false,
        WorldPolicy::checkpointed(CheckpointPolicy::every(10)),
        BaselineSource::new(&cache, None),
    );
    assert_ne!(fresh, restored, "checkpoint restore left no trace");
}

/// An operator whose `restore` ignores its blob: a restore that loses state.
struct Forgetful(Box<dyn Operator>);

impl Operator for Forgetful {
    fn on_tuple(&mut self, port: usize, tuple: Tuple, ctx: &mut OpCtx) {
        self.0.on_tuple(port, tuple, ctx)
    }
    fn on_punct(&mut self, port: usize, punct: Punct, ctx: &mut OpCtx) {
        self.0.on_punct(port, punct, ctx)
    }
    fn on_tick(&mut self, ctx: &mut OpCtx) {
        self.0.on_tick(ctx)
    }
    fn cost_per_tuple(&self) -> u32 {
        self.0.cost_per_tuple()
    }
    fn tap(&self) -> Option<&VecDeque<Tuple>> {
        self.0.tap()
    }
    fn checkpoint(&self) -> Option<StateBlob> {
        self.0.checkpoint()
    }
    fn restore(&mut self, _: &StateBlob) -> Result<(), EngineError> {
        Ok(())
    }
}

/// `trend`, with its windowed calculator (an `Aggregate`) [`Forgetful`].
fn build_forgetful_trend(seed: u64, policy: WorldPolicy) -> Built {
    let mut built = (scenario::trend().build)(seed, policy);
    built.world.kernel.registry.register("Aggregate", |op| {
        let calc = ops::Aggregate::from_params(&op.name, &op.params)?;
        Ok(Box::new(Forgetful(Box::new(calc))))
    });
    built
}

#[test]
fn lossy_restore_is_caught_and_shrinks_to_minimal_reproducer() {
    let sc = Scenario {
        build: build_forgetful_trend,
        ..scenario::trend()
    };
    let config = CampaignConfig {
        plans: 5,
        seed: 7,
        check_determinism: false,
        max_failures: 1,
        checkpoint: CheckpointPolicy::every(10),
        ..Default::default()
    };
    let report = run_campaign(&sc, &config);
    assert!(
        !report.failures.is_empty(),
        "a lossy restore must trip the state oracle on some plan"
    );
    let f = &report.failures[0];
    assert!(
        f.violations.iter().any(|v| v.oracle == "state"),
        "{:?}",
        f.violations
    );
    assert!(!f.shrunk.events.is_empty());

    // 1-minimality under the same lossy regime.
    let opts = CheckpointPolicy::every(10);
    let oracles = default_oracles(false, true, false);
    // Candidates compare against the baseline keyed by the *original*
    // plan's horizon — the same floor-keyed entry the shrink walk used.
    let cache = BaselineCache::new();
    let (_, violations) = evaluate(
        &sc,
        f.plan_seed,
        &f.shrunk,
        &oracles,
        false,
        WorldPolicy::checkpointed(opts),
        BaselineSource::new(&cache, f.original.horizon()),
    );
    assert!(!violations.is_empty(), "shrunk plan no longer fails");
    for i in 0..f.shrunk.events.len() {
        let smaller = f.shrunk.without(i);
        let (_, v) = evaluate(
            &sc,
            f.plan_seed,
            &smaller,
            &oracles,
            false,
            WorldPolicy::checkpointed(opts),
            BaselineSource::new(&cache, f.original.horizon()),
        );
        assert!(
            v.is_empty(),
            "not minimal: dropping event {i} still fails ({v:?})"
        );
    }

    // The reproducer captures the checkpoint policy.
    assert_eq!(
        f.reproducer,
        reproducer_line(&sc, f.plan_seed, &f.shrunk, &config)
    );
    assert!(f.reproducer.ends_with(" --checkpoint-interval 10"));
}
