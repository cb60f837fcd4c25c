//! System tests for the checkpoint storage cost model: the all-zero
//! [`StorageModel`] must be byte-invisible (async bookkeeping with zero
//! latency reproduces the synchronous reports bit-for-bit), while nonzero
//! write/restore latency and a finite byte budget must run whole campaigns
//! through the standard oracle set — deferred commits, delayed promotions
//! and evictions included — without tripping recovery, convergence, or state
//! preservation.

#![forbid(unsafe_code)]

use orca_harness::runner::{run_plan, BaselineSource};
use orca_harness::{
    default_oracles, run_campaign, scenario, settled_world, BaselineCache, CampaignConfig,
    CampaignReport, CheckpointPolicy, FaultPlan, StorageModel, WorldPolicy,
};
use sps_runtime::{FreshReason, RestoreOutcome};

fn render(report: &CampaignReport) -> String {
    report.render()
}

fn cfg(sc_seed: u64, plans: usize, checkpoint: CheckpointPolicy) -> CampaignConfig {
    CampaignConfig {
        plans,
        seed: sc_seed,
        checkpoint,
        ..Default::default()
    }
}

/// A storage model expensive enough to defer every commit past its issue
/// quantum and make restores pay a visible read delay.
fn slow_storage() -> StorageModel {
    StorageModel {
        write_op_ms: 150,
        write_bytes_per_ms: 64,
        restore_op_ms: 150,
        restore_bytes_per_ms: 64,
        ..StorageModel::default()
    }
}

#[test]
fn zero_storage_model_is_byte_invisible() {
    // The async save/commit machinery with an all-zero model must reproduce
    // the pre-storage synchronous reports exactly — this is the identity the
    // campaign CI diff rests on.
    let sc = scenario::live();
    let plain = cfg(0xC0FFEE, 3, CheckpointPolicy::every(10));
    let explicit = cfg(
        0xC0FFEE,
        3,
        CheckpointPolicy::every(10).storage(StorageModel::default()),
    );
    assert_eq!(
        render(&run_campaign(&sc, &plain)),
        render(&run_campaign(&sc, &explicit)),
        "default StorageModel must not perturb a campaign"
    );
}

#[test]
fn write_and_restore_latency_pass_the_oracles() {
    // Deferred commits shift checkpoint coverage and trim points; restore
    // latency delays Up promotions. The recovery/convergence/state oracles
    // must absorb both without violations.
    for sc in [scenario::live(), scenario::trend()] {
        let policy = CheckpointPolicy::every(10).storage(slow_storage());
        let report = run_campaign(&sc, &cfg(7, 3, policy));
        assert_eq!(
            report.plans_failed,
            0,
            "[{}] storage latency tripped an oracle:\n{}",
            sc.name,
            render(&report)
        );
    }
}

#[test]
fn finite_budget_evictions_pass_the_oracles() {
    // A budget below the working set: eviction reclaims the chains of
    // crashed PEs, and fresh restarts from evicted chains are a legitimate
    // recovery mode (FreshReason::Evicted), not an oracle violation.
    let sc = scenario::live();
    let policy = CheckpointPolicy::every(5).storage(slow_storage().with_budget(16_384));
    let report = run_campaign(&sc, &cfg(7, 3, policy));
    assert_eq!(
        report.plans_failed,
        0,
        "budget eviction tripped an oracle:\n{}",
        render(&report)
    );
}

#[test]
fn storage_model_reports_are_byte_identical_across_jobs() {
    // The determinism-under-parallelism guarantee extends to the storage
    // model: pending-write queues and eviction order are part of kernel
    // state, not coordinator state, so sharding cannot reorder them.
    let sc = scenario::trend();
    let policy = CheckpointPolicy::every(10).storage(slow_storage().with_budget(32_768));
    let run = |jobs| {
        render(&run_campaign(
            &sc,
            &CampaignConfig {
                jobs,
                ..cfg(0xC0FFEE, 4, policy)
            },
        ))
    };
    assert_eq!(run(1), run(4), "storage-model report depends on --jobs");
}

/// Regression for a state-oracle false positive (upstream backup is off
/// here, so this is not ROADMAP recovery hole (2)). `campaign --app trend
/// --plans 100 --seed 7 --checkpoint-interval 5 --ckpt-budget 4096
/// --ckpt-write-latency 250` used to fail one plan; shrunk, it is the two
/// kills below. The first restart (t = 15.9 s) restores job2's `graph` PE
/// from its 15.5 s snapshot, `nTuplesProcessed` 45. The second kill (16.8 s)
/// hits the replacement while it is still `Starting`; once it has crashed
/// its chain is no longer protected, the 4 KiB budget evicts it, and the
/// restart at 17.0 s comes back fresh — `FreshReason::Evicted`, which the
/// state oracle itself calls legitimate — and counts 39 tuples by the end. The monotone-counter check
/// must not hold the *first* restart's 45 against that 39: a restored
/// record's claim ends at the slot's next fresh restart.
/// `campaign --replay 15798:kp:4:5,16809:kp:7:2 --app trend
/// --seed 16362195719958910532 --checkpoint-interval 5
/// --ckpt-write-latency 250 --ckpt-budget 4096`
#[test]
fn restore_then_evicted_restart_of_one_slot_passes_the_state_oracle() {
    const SEED: u64 = 16362195719958910532;
    let plan = FaultPlan::decode("15798:kp:4:5,16809:kp:7:2").unwrap();
    let storage = StorageModel::default().with_write(250, 0).with_budget(4096);
    let policy = WorldPolicy::checkpointed(CheckpointPolicy::every(5).storage(storage));
    let cache = BaselineCache::new();
    let outcome = run_plan(
        &scenario::trend(),
        SEED,
        &plan,
        &default_oracles(false, true, false),
        policy,
        BaselineSource::new(&cache, plan.horizon()),
    );
    let violations: Vec<String> = outcome
        .violations
        .iter()
        .map(|v| format!("{}: {}", v.oracle, v.message))
        .collect();
    assert!(violations.is_empty(), "{violations:#?}");
    // The replay still reaches what the test is named for: one slot whose
    // restart restored and whose next restart came back evicted.
    let (world, _, _) = settled_world(&scenario::trend(), SEED, &plan, policy, None);
    let log = world.kernel.restart_log();
    let evicted = RestoreOutcome::Fresh {
        reason: FreshReason::Evicted,
    };
    let reached = log.iter().enumerate().any(|(i, first)| {
        let slot = (first.job, first.adl_index);
        let next = log[i + 1..].iter().find(|r| (r.job, r.adl_index) == slot);
        first.restore.restored() && next.is_some_and(|r| r.restore == evicted)
    });
    assert!(
        reached,
        "no slot restored and then came back evicted: {log:#?}"
    );
}
