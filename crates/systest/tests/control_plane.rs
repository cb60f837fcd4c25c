//! Integration: control-plane fault tolerance (§3 — the middleware itself
//! is crashable). Covers the metastore-backed SAM across `RestartSam`
//! recoveries on all four use-case apps (notification conservation and op-log
//! replay verification), the explicit Unavailable drain path inside a restart
//! window, the memory-vs-replicated metastore differential (campaign reports
//! must be byte-identical with control faults off, at any parallelism), and
//! full control-fault campaigns passing every oracle bit-deterministically.

#![forbid(unsafe_code)]

use orca_harness::{
    run_campaign, scenario, Built, CampaignConfig, CheckpointPolicy, FaultInjector, FaultPlan,
    Janitor, MetastoreKind, Scenario, WorldPolicy,
};
use sps_runtime::World;

fn policy(metastore: MetastoreKind) -> WorldPolicy {
    WorldPolicy {
        checkpoint: CheckpointPolicy::default(),
        metastore,
    }
}

/// Drives one scenario under a fixed fault plan and returns the settled
/// world (same drive sequence the campaign runner uses).
fn settled(sc: &Scenario, plan: &str, seed: u64, metastore: MetastoreKind) -> World {
    let plan = FaultPlan::decode(plan).expect("valid fixed plan");
    let Built { mut world, .. } = (sc.build)(seed, policy(metastore));
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
/// orchestrator across a `RestartSam` recovery, on all four apps and on
/// both metastores. Nothing queued while the daemon was down is lost or
/// double-delivered, and replaying the op log reproduces the tables.
#[test]
fn notifications_are_conserved_across_sam_restart_on_every_app() {
    for sc in scenario::all() {
        for kind in [MetastoreKind::Memory, MetastoreKind::Replicated] {
            let world = settled(&sc, &restart_plan(&sc), 0xC7A1_0001, kind);
            let kernel = &world.kernel;
            let stats = kernel.control_stats();
            assert_eq!(
                stats.sam_restarts, 1,
                "[{} {kind}] restart did not complete",
                sc.name
            );
            assert!(
                kernel.sam.is_available(),
                "[{} {kind}] SAM still down after settle",
                sc.name
            );
            for orca in kernel.sam.orchestrators() {
                let pushed = kernel.sam.notifications_pushed(orca);
                let drained = kernel.sam.notifications_drained(orca);
                let pending = kernel.sam.notifications_pending(orca) as u64;
                assert_eq!(
                    pushed,
                    drained + pending,
                    "[{} {kind}] {orca}: pushed={pushed} drained={drained} pending={pending}",
                    sc.name
                );
            }
            // `live` runs unmanaged pipelines (no orchestrator), so only the
            // managed apps are required to have exercised the queues.
            if !kernel.sam.orchestrators().is_empty() {
                assert!(
                    kernel.sam.total_notifications_pushed() > 0,
                    "[{} {kind}] plan generated no notifications",
                    sc.name
                );
            }
            assert!(
                kernel.sam.metastore_verify(),
                "[{} {kind}] op-log replay does not reproduce the tables",
                sc.name
            );
            // The replicated store actually replayed its log on recovery.
            if kind == MetastoreKind::Replicated {
                assert!(
                    stats.meta_ops_replayed > 0,
                    "[{}] replicated recovery replayed nothing",
                    sc.name
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
    let Built { mut world, .. } = (sc.build)(0xC7A1_0002, policy(MetastoreKind::Replicated));
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

fn cfg(metastore: MetastoreKind, control_faults: bool, jobs: usize) -> CampaignConfig {
    CampaignConfig {
        plans: 4,
        seed: 0xC7A1_C0DE,
        check_determinism: true,
        max_failures: 3,
        metastore,
        control_faults,
        jobs,
        ..Default::default()
    }
}

/// Tentpole acceptance: with control faults off the metastore choice is
/// execution-invisible — the rendered campaign report is byte-identical
/// between the memory and replicated stores, sequentially and sharded.
#[test]
fn metastore_choice_is_byte_invisible_with_control_faults_off() {
    for sc in scenario::all() {
        let memory = run_campaign(&sc, &cfg(MetastoreKind::Memory, false, 1)).render();
        let replicated = run_campaign(&sc, &cfg(MetastoreKind::Replicated, false, 1)).render();
        assert_eq!(
            memory, replicated,
            "[{}] metastore kind leaked into the report",
            sc.name
        );
        let sharded = run_campaign(&sc, &cfg(MetastoreKind::Replicated, false, 8)).render();
        assert_eq!(memory, sharded, "[{}] jobs=8 diverged", sc.name);
    }
}

/// Control-fault campaigns pass every oracle (including the control-plane
/// recovery oracle) on all four apps, and reports are bit-deterministic
/// across re-runs and parallelism.
#[test]
fn control_fault_campaigns_pass_all_oracles_on_every_app() {
    for sc in scenario::all() {
        let a = run_campaign(&sc, &cfg(MetastoreKind::Replicated, true, 1));
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
        let b = run_campaign(&sc, &cfg(MetastoreKind::Replicated, true, 4));
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
