//! The property the memoized baseline rests on: a fault-free world
//! summarizes the same under every durable policy.
//!
//! The `state` oracle compares a checkpointed plan's tap counts against a
//! fault-free run of the same seed, and `compute_baseline` builds that run
//! as the plain world whatever the plan's policy. That is sound only if
//! checkpoints, upstream backup, chain compaction, storage latency and
//! budget change nothing a fault-free world's
//! [`BaselineSummary`] holds. Each case draws a scenario, one of the
//! `plan_seeds(7, SEEDS)` seeds, a policy from the grid below and whether
//! the seed's plan has control faults (which moves its horizon, the floor
//! the baseline runs to), then requires the summary of the fault-free world
//! under that policy to be the plain world's.

#![forbid(unsafe_code)]

use orca_harness::{
    plan_seeds, scenario, settled_world, BaselineCache, BaselineSummary, CheckpointPolicy,
    FaultPlan, StorageModel, WorldPolicy,
};
use proptest::prelude::*;
use sps_sim::SimRng;
use std::sync::OnceLock;

/// Seeds each scenario draws from.
const SEEDS: usize = 60;

/// `every` ∈ {5, 10, 20, 40} × upstream backup × storage ∈ {free, 5 ms
/// writes, 250 ms writes and a 4 KiB budget, a 16 KiB budget}.
fn arb_policy() -> impl Strategy<Value = WorldPolicy> {
    (0usize..4, any::<bool>(), 0usize..4).prop_map(|(every, ub, storage)| {
        let storage = [
            StorageModel::default(),
            StorageModel::default().with_write(5, 0),
            StorageModel::default().with_write(250, 0).with_budget(4096),
            StorageModel::default().with_budget(16384),
        ][storage];
        WorldPolicy::checkpointed(
            CheckpointPolicy::every([5, 10, 20, 40][every])
                .upstream_backup(ub)
                .storage(storage),
        )
    })
}

/// The plain worlds' summaries, shared by every case: the cache computes
/// each through `compute_baseline`, the function the `state` oracle uses.
fn plain() -> &'static BaselineCache {
    static PLAIN: OnceLock<BaselineCache> = OnceLock::new();
    PLAIN.get_or_init(BaselineCache::new)
}

proptest! {
    #[test]
    fn a_fault_free_world_is_the_same_under_every_policy(
        app in 0usize..4,
        seed_index in 0usize..SEEDS,
        control_faults in any::<bool>(),
        policy in arb_policy(),
    ) {
        let sc = &scenario::all()[app];
        let seed = plan_seeds(7, SEEDS)[seed_index];
        let spec = sc.plan_spec_with(control_faults);
        let floor = FaultPlan::generate(&mut SimRng::new(seed), &spec).horizon();
        let (world, _, _) = settled_world(sc, seed, &FaultPlan::default(), policy, floor);
        let plain = plain().get_or_compute(sc, seed, floor);
        prop_assert!(!plain.taps.is_empty(), "{} seed {}: no tap counted", sc.name, seed);
        prop_assert_eq!(
            &BaselineSummary::of(sc, &world),
            &*plain,
            "{} seed {} control faults {} under {:?}",
            sc.name,
            seed,
            control_faults,
            policy
        );
    }
}
