//! Integration: exactly-once recovery under upstream backup.
//!
//! The targeted scenario PR 3 lost tuples in: a PE is killed *between* its
//! checkpoint quantum and the next delivery quantum, so everything delivered
//! after the snapshot is in flight when the crash hits. With upstream backup
//! on, senders buffered those deliveries and the kernel replays the gap into
//! the restored PE — tap counts must come back *equal* to the fault-free
//! baseline, not merely bounded by it.

#![forbid(unsafe_code)]

use orca_harness::{
    scenario, Built, CheckpointPolicy, FaultInjector, FaultPlan, Janitor, Scenario, WorldPolicy,
};
use sps_engine::metrics::builtin;
use sps_runtime::{JobId, UbStats, World};
use sps_sim::SimTime;
use std::collections::BTreeMap;

/// Mirrors the harness runner's warmup → fault window → settle drive, but
/// hands the settled world back so the test can read tap counters directly.
fn settled(
    sc: &Scenario,
    seed: u64,
    plan: &FaultPlan,
    opts: CheckpointPolicy,
    horizon_floor: Option<SimTime>,
) -> World {
    let Built { mut world, .. } = (sc.build)(seed, WorldPolicy::checkpointed(opts));
    if sc.janitor {
        world.add_controller(Box::new(Janitor::default()));
    }
    world.run_for(sc.warmup);
    world.add_controller(Box::new(FaultInjector::new(plan.clone())));
    let quantum = world.kernel.config.quantum;
    let mut fault_end = world.now() + sc.fault_window;
    for h in plan.horizon().into_iter().chain(horizon_floor) {
        if h + quantum > fault_end {
            fault_end = h + quantum;
        }
    }
    world.run_until(fault_end);
    let settle_quanta = (sc.settle.as_millis() / quantum.as_millis()) as usize;
    for _ in 0..settle_quanta {
        world.step();
    }
    world
}

/// Cumulative `nTuplesProcessed` for every `(running job, tap)` pair.
fn tap_counts(world: &World, taps: &[&str]) -> BTreeMap<(JobId, String), i64> {
    let kernel = &world.kernel;
    let mut counts = BTreeMap::new();
    for job in kernel.sam.running_jobs() {
        for tap in taps {
            if let Some(n) = kernel.op_metric(job, tap, builtin::N_TUPLES_PROCESSED) {
                counts.insert((job, tap.to_string()), n);
            }
        }
    }
    counts
}

fn ub_policy() -> CheckpointPolicy {
    CheckpointPolicy::every(10).upstream_backup(true)
}

/// Checkpoints land at every 10th quantum (t = k·1000 ms at the 100 ms
/// default quantum); 8050 ms is squarely between the 8000 ms snapshot and
/// the 8100 ms delivery quantum, so the post-snapshot in-flight tuples are
/// exactly what upstream backup must not lose.
///
/// The killed slot is chosen so no *timing-sensitive* operator (a windowed
/// aggregate whose pane emptiness depends on arrival quanta) sits downstream
/// of the replayed gap: mid-pipeline for live/social/trend, the `display`
/// sink itself (slot 5) for sentiment — its upstream aggregate would
/// otherwise shift an emission, which is exactly why `display` is not an
/// `exact_taps` entry for full random campaigns. Sentiment's kill lands at
/// 9050 ms so the aggregate's 10 s periodic emission is in flight during the
/// outage and the replay is non-trivial.
fn kill_between(app: &str) -> &'static str {
    match app {
        "sentiment" => "9050:kp:0:5",
        // Social's first two jobs are single-PE sources with no inbound
        // channels; kill a query job's mid-pipeline PE instead.
        "social" => "8050:kp:2:1",
        _ => "8050:kp:0:1",
    }
}

#[test]
fn in_flight_gap_kill_preserves_tap_equality_on_every_app() {
    for (app, seed) in [
        ("live", 41u64),
        ("sentiment", 42),
        ("social", 43),
        ("trend", 44),
    ] {
        let sc = scenario::by_name(app).unwrap();
        let plan = FaultPlan::decode(kill_between(app)).unwrap();
        let opts = ub_policy();
        let faulted = settled(&sc, seed, &plan, opts, None);
        // The fault-free twin runs to the same horizon so both worlds cover
        // an identical simulated span.
        let baseline = settled(&sc, seed, &FaultPlan::default(), opts, plan.horizon());

        let kill_left_a_mark =
            !faulted.kernel.restart_log().is_empty() || !faulted.kernel.crash_log().is_empty();
        assert!(kill_left_a_mark, "[{app}] the kill never landed");
        let ub: UbStats = faulted.kernel.ub_stats();
        assert!(ub.replayed > 0, "[{app}] no buffered delivery was replayed");

        let base = tap_counts(&baseline, sc.taps);
        let got = tap_counts(&faulted, sc.taps);
        assert!(!base.is_empty(), "[{app}] baseline produced no tap counts");
        for (key, base_count) in &base {
            let Some(faulted_count) = got.get(key) else {
                continue; // job recycled/cancelled: nothing to hold
            };
            assert_eq!(
                faulted_count, base_count,
                "[{app}] tap {key:?}: exactly-once equality violated \
                 (faulted {faulted_count} vs fault-free {base_count})"
            );
        }
    }
}

#[test]
fn same_kill_without_backup_shows_the_gap_the_feature_closes() {
    // Negative control: the identical schedule under plain checkpointing
    // diverges from the fault-free baseline on at least one app's taps —
    // i.e. the equality above is earned by upstream backup, not vacuous.
    let mut any_divergence = false;
    for (app, seed) in [("live", 41u64), ("trend", 44)] {
        let sc = scenario::by_name(app).unwrap();
        let plan = FaultPlan::decode(kill_between(app)).unwrap();
        let opts = CheckpointPolicy::every(10);
        let faulted = settled(&sc, seed, &plan, opts, None);
        let baseline = settled(&sc, seed, &FaultPlan::default(), opts, plan.horizon());
        if tap_counts(&faulted, sc.taps) != tap_counts(&baseline, sc.taps) {
            any_divergence = true;
        }
    }
    assert!(
        any_divergence,
        "plain checkpointing matched the baseline everywhere — the in-flight \
         gap this PR closes is not being exercised"
    );
}
