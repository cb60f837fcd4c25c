//! Integration: control-plane fault tolerance (§3 — the middleware itself
//! is crashable). Covers the metastore-backed SAM across `RestartSam`
//! recoveries on all four use-case apps (notification conservation and op-log
//! replay verification), the explicit Unavailable drain path inside a restart
//! window, op-log replay in plain worlds (no control fault, no checkpoint),
//! and full control-fault campaigns passing every oracle
//! bit-deterministically.

#![forbid(unsafe_code)]

use orca_harness::{
    plan_seeds, run_campaign, scenario, settled_world, Built, CampaignConfig, FaultInjector,
    FaultPlan, Janitor, Scenario, WorldPolicy,
};
use sps_runtime::World;
use sps_sim::SimRng;

/// Drives one scenario under a fixed fault plan and returns the settled
/// world (same drive sequence the campaign runner uses).
fn settled(sc: &Scenario, plan: &str, seed: u64) -> World {
    let plan = FaultPlan::decode(plan).expect("valid fixed plan");
    let Built { mut world, .. } = (sc.build)(seed, WorldPolicy::default());
    if sc.janitor {
        world.add_controller(Box::new(Janitor::default()));
    }
    world.run_for(sc.warmup);
    world.add_controller(Box::new(FaultInjector::new(plan)));
    world.run_for(sc.fault_window + sc.settle);
    world
}

/// A PE kill to generate failure notifications, a SAM restart, and a second
/// kill landing *inside* the 2 s restart window — the notification queued
/// while SAM is down must survive the recovery replay.
fn restart_plan(sc: &Scenario) -> String {
    let w = sc.warmup.as_millis();
    format!("{}:kp:0:1,{}:rs,{}:kp:0:2", w + 1000, w + 2000, w + 2500)
}

/// Satellite: `notifications_pushed == drained + pending` holds for every
/// orchestrator across a `RestartSam` recovery, on all four apps. Nothing
/// queued while the daemon was down is lost or double-delivered, and
/// replaying the op log reproduces the tables.
#[test]
fn notifications_are_conserved_across_sam_restart_on_every_app() {
    for sc in scenario::all() {
        let world = settled(&sc, &restart_plan(&sc), 0xC7A1_0001);
        let kernel = &world.kernel;
        let stats = kernel.control_stats();
        assert_eq!(
            stats.sam_restarts, 1,
            "[{}] restart did not complete",
            sc.name
        );
        assert!(
            kernel.sam.is_available(),
            "[{}] SAM still down after settle",
            sc.name
        );
        for orca in kernel.sam.orchestrators() {
            let pushed = kernel.sam.notifications_pushed(orca);
            let drained = kernel.sam.notifications_drained(orca);
            let pending = kernel.sam.notifications_pending(orca) as u64;
            assert_eq!(
                pushed,
                drained + pending,
                "[{}] {orca}: pushed={pushed} drained={drained} pending={pending}",
                sc.name
            );
        }
        // `live` runs unmanaged pipelines (no orchestrator), so only the
        // managed apps are required to have exercised the queues.
        if !kernel.sam.orchestrators().is_empty() {
            assert!(
                kernel.sam.total_notifications_pushed() > 0,
                "[{}] plan generated no notifications",
                sc.name
            );
        }
        assert!(
            kernel.sam.metastore_verify(),
            "[{}] op-log replay does not reproduce the tables",
            sc.name
        );
        // The recovery actually replayed the log.
        assert!(
            stats.meta_ops_replayed > 0,
            "[{}] recovery replayed nothing",
            sc.name
        );
    }
}

/// Every world keeps SAM's op log, so a settled plain world (no checkpoint,
/// no control fault, no SAM restart) must replay its log to its tables:
/// fault-free, and under the first plan of the seed-7 campaign. Under that
/// plan the managed apps drain notifications, so a log that misses a drain
/// fails here.
#[test]
fn plain_worlds_replay_their_log_to_their_tables() {
    let seed = plan_seeds(7, 1)[0];
    for sc in scenario::all() {
        let generated = FaultPlan::generate(&mut SimRng::new(seed), &sc.plan_spec());
        for plan in [FaultPlan::default(), generated] {
            let (world, _, _) = settled_world(&sc, seed, &plan, WorldPolicy::default(), None);
            let sam = &world.kernel.sam;
            assert!(
                sam.metastore_verify(),
                "[{} plan={}] op-log replay does not reproduce the tables",
                sc.name,
                plan.encode()
            );
            if !plan.events.is_empty() && !sam.orchestrators().is_empty() {
                assert!(
                    sam.orchestrators()
                        .into_iter()
                        .any(|orca| sam.notifications_drained(orca) > 0),
                    "[{} plan={}] no notification was drained",
                    sc.name,
                    plan.encode()
                );
            }
        }
    }
}

/// Satellite: `drain_notifications` during a SAM restart window is the
/// explicit Unavailable path — it returns empty without draining or
/// counting, and the queued notifications stay durable for after recovery.
#[test]
fn drains_during_restart_window_are_empty_and_uncounted() {
    let sc = scenario::trend();
    let plan = FaultPlan::decode(&restart_plan(&sc)).unwrap();
    let Built { mut world, .. } = (sc.build)(0xC7A1_0002, WorldPolicy::default());
    world.run_for(sc.warmup);
    world.add_controller(Box::new(FaultInjector::new(plan)));
    // Land inside the restart window: the `rs` fires at warmup+2000 and the
    // window is the 2 s control restart delay.
    world.run_for(sps_sim::SimDuration::from_millis(2100));
    assert!(
        !world.kernel.sam.is_available(),
        "expected to observe the restart window"
    );
    let orcas = world.kernel.sam.orchestrators();
    assert!(!orcas.is_empty());
    for orca in orcas {
        let drained_before = world.kernel.sam.notifications_drained(orca);
        let pending_before = world.kernel.sam.notifications_pending(orca);
        assert!(
            world.kernel.sam.drain_notifications(orca).is_empty(),
            "drain during restart window must return empty"
        );
        assert_eq!(
            world.kernel.sam.notifications_drained(orca),
            drained_before,
            "unavailable drain must not count"
        );
        assert_eq!(
            world.kernel.sam.notifications_pending(orca),
            pending_before,
            "unavailable drain must not consume the queue"
        );
    }
    // After the window the daemon serves again and conservation holds.
    world.run_for(sc.fault_window + sc.settle);
    assert!(world.kernel.sam.is_available());
    for orca in world.kernel.sam.orchestrators() {
        assert_eq!(
            world.kernel.sam.notifications_pushed(orca),
            world.kernel.sam.notifications_drained(orca)
                + world.kernel.sam.notifications_pending(orca) as u64,
            "{orca}: conservation broken after recovery"
        );
    }
}

fn cfg(jobs: usize) -> CampaignConfig {
    CampaignConfig {
        plans: 4,
        seed: 0xC7A1_C0DE,
        check_determinism: true,
        max_failures: 3,
        control_faults: true,
        jobs,
        ..Default::default()
    }
}

/// Control-fault campaigns pass every oracle (including the control-plane
/// recovery oracle) on all four apps, and reports are bit-deterministic
/// across re-runs and parallelism.
#[test]
fn control_fault_campaigns_pass_all_oracles_on_every_app() {
    for sc in scenario::all() {
        let a = run_campaign(&sc, &cfg(1));
        assert_eq!(
            a.plans_failed,
            0,
            "[{}] control campaign failed:\n{}",
            sc.name,
            a.failures
                .iter()
                .map(|f| format!("  {} -> {:?}", f.reproducer, f.violations))
                .collect::<Vec<_>>()
                .join("\n")
        );
        let b = run_campaign(&sc, &cfg(4));
        assert_eq!(
            a.render(),
            b.render(),
            "[{}] control campaign report not bit-deterministic",
            sc.name
        );
        // The campaign actually injected control faults somewhere.
        assert!(
            a.control.any(),
            "[{}] no control fault fired across the campaign",
            sc.name
        );
    }
}
