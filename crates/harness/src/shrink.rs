//! Greedy fault-schedule shrinking.
//!
//! Given a failing plan, repeatedly try dropping one event at a time; keep
//! any candidate that still violates an oracle. The result is 1-minimal:
//! removing any single remaining event makes the plan pass. Plans are small
//! (≤ ~10 events), so the O(n²) re-execution cost is negligible next to one
//! campaign.

use crate::cache::BaselineCache;
use crate::oracle::Oracle;
use crate::plan::FaultPlan;
use crate::pool::indexed_pool;
use crate::runner::{
    evaluate, reproducer_line, BaselineSource, CampaignConfig, CampaignFailure, PlanEval,
};
use crate::scenario::{Scenario, WorldPolicy};

/// Minimizes `plan` while it keeps failing under the given oracle set.
///
/// `baseline.floor` must be the horizon of the *original* failing plan:
/// candidates only ever run shorter (the oracle bounds tolerate that), and
/// keeping the original floor means every candidate's baseline lookup hits
/// the same floor-keyed [`BaselineCache`] entry the first evaluation
/// populated, instead of re-simulating a fault-free world per candidate.
pub fn shrink(
    scenario: &Scenario,
    seed: u64,
    plan: &FaultPlan,
    oracles: &[Box<dyn Oracle>],
    check_determinism: bool,
    policy: WorldPolicy,
    baseline: BaselineSource<'_>,
) -> FaultPlan {
    let still_fails = |candidate: &FaultPlan| -> bool {
        !evaluate(
            scenario,
            seed,
            candidate,
            oracles,
            check_determinism,
            policy,
            baseline,
        )
        .violations
        .is_empty()
    };
    let mut current = plan.clone();
    loop {
        let mut reduced = false;
        for i in 0..current.events.len() {
            let candidate = current.without(i);
            if still_fails(&candidate) {
                current = candidate;
                reduced = true;
                break;
            }
        }
        if !reduced {
            return current;
        }
    }
}

/// Shrinks a batch of failing plans into [`CampaignFailure`]s, preserving
/// input (plan-index) order. Each individual shrink stays a sequential
/// greedy walk — candidate elimination is inherently ordered — but distinct
/// failures shrink concurrently across `cfg.jobs` workers, since every
/// failure owns an independent seed, plan, and baseline.
pub(crate) fn shrink_failures(
    scenario: &Scenario,
    cfg: &CampaignConfig,
    failing: Vec<PlanEval>,
    cache: &BaselineCache,
) -> Vec<CampaignFailure> {
    indexed_pool(failing.len(), cfg.jobs, |i| {
        let eval = &failing[i];
        let violations = &eval.outcome.violations;
        // The determinism replay doubles every shrink candidate's cost;
        // only pay for it when the failure actually is a divergence.
        let det_shrink =
            cfg.check_determinism && violations.iter().any(|v| v.oracle == "determinism");
        let shrunk = shrink(
            scenario,
            eval.plan_seed,
            &eval.plan,
            &cfg.oracles(),
            det_shrink,
            cfg.policy(),
            // Original plan's horizon: every candidate hits the same
            // floor-keyed baseline entry phase 1 computed.
            BaselineSource::new(cache, eval.plan.horizon()),
        );
        let reproducer = reproducer_line(scenario, eval.plan_seed, &shrunk, cfg);
        CampaignFailure {
            plan_seed: eval.plan_seed,
            original: eval.plan.clone(),
            shrunk,
            violations: violations.clone(),
            reproducer,
        }
    })
}
