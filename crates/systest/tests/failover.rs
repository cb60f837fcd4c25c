//! Integration: §5.2 replica failover under PE *and* host failures,
//! including the Figure 9 output signature (silent gap, then incorrect
//! output until window refill).

#![forbid(unsafe_code)]

use orca::{OrcaDescriptor, OrcaService};
use orca_apps::trend::{trend_app, TrendOrca, TrendParams};
use orca_apps::SharedStores;
use sps_runtime::{Cluster, Kernel, PeStatus, RuntimeConfig, World};
use sps_sim::SimDuration;

fn build(window_secs: f64, hosts: usize) -> (World, usize) {
    let stores = SharedStores::new();
    let kernel = Kernel::new(
        Cluster::with_hosts(hosts),
        orca_apps::registry(&stores),
        RuntimeConfig::default(),
    );
    let mut world = World::new(kernel);
    let service = OrcaService::submit(
        &mut world.kernel,
        OrcaDescriptor::new("TrendOrca").app(trend_app(TrendParams {
            window_secs,
            ..Default::default()
        })),
        Box::new(TrendOrca::new(3)),
    );
    let idx = world.add_controller(Box::new(service));
    (world, idx)
}

fn trend(world: &World, idx: usize) -> &TrendOrca {
    world
        .controller::<OrcaService>(idx)
        .unwrap()
        .logic::<TrendOrca>()
        .unwrap()
}

#[test]
fn figure9_output_signature() {
    let (mut world, idx) = build(30.0, 3);
    world.run_for(SimDuration::from_secs(60));

    // Phase A (Figure 9a): identical output across replicas.
    let (r0, r1) = {
        let l = trend(&world, idx);
        (l.replicas[0].job, l.replicas[1].job)
    };
    let tap = |world: &World, job| world.kernel.tap(job, "graph").unwrap_or_default();
    let a0 = tap(&world, r0);
    let a1 = tap(&world, r1);
    assert!(!a0.is_empty());
    assert_eq!(a0, a1, "healthy replicas must render identical graphs");

    // Kill the active replica's calculator PE.
    let victim = world.kernel.pe_id_of(r0, 1).unwrap();
    world.kernel.kill_pe(victim).unwrap();
    let len_at_crash = tap(&world, r0).len();
    world.run_for(SimDuration::from_secs(3));

    // Phase B (Figure 9b): replica 0 produced no output while down (the
    // calculator PE is dead, nothing reaches the sink)…
    assert_eq!(tap(&world, r0).len(), len_at_crash, "silent gap expected");
    // …while replica 1 kept updating.
    assert!(tap(&world, r1).len() > a1.len());
    // Failover happened.
    assert_eq!(trend(&world, idx).active, 1);

    // Phase C: the restarted PE produces *incorrect* output (windows not
    // full) right away…
    world.run_for(SimDuration::from_secs(10));
    let r0_latest = tap(&world, r0);
    let r1_latest = tap(&world, r1);
    let last0 = r0_latest.last().unwrap();
    let last1 = r1_latest.last().unwrap();
    assert_eq!(
        last0.get_bool("full"),
        Some(false),
        "restarted: partial window"
    );
    assert_eq!(last1.get_bool("full"), Some(true));
    // Same instant, same symbol → different (incorrect) statistics, because
    // replica 0's window only covers post-restart ticks.
    let sym0: Vec<_> = r0_latest
        .iter()
        .rev()
        .find(|t| t.get_str("group") == last1.get_str("group"))
        .into_iter()
        .collect();
    if let Some(t0) = sym0.first() {
        assert_ne!(
            t0.get_int("count"),
            last1.get_int("count"),
            "window contents must differ after state loss"
        );
    }

    // Phase D: full recovery after the window span.
    world.run_for(SimDuration::from_secs(40));
    let last0 = tap(&world, r0).last().cloned().unwrap();
    assert_eq!(last0.get_bool("full"), Some(true));
}

#[test]
fn host_failure_fails_over_and_relocates() {
    let (mut world, idx) = build(20.0, 4);
    world.run_for(SimDuration::from_secs(30));
    let active_job = trend(&world, idx).active_job();
    let some_pe = world.kernel.pe_id_of(active_job, 0).unwrap();
    let host = world
        .kernel
        .cluster
        .host_of_pe(some_pe)
        .unwrap()
        .to_string();

    // Losing the host kills all PEs of the active replica at once; the
    // orchestrator receives one failure event per PE (same epoch) and must
    // fail over exactly once.
    world.kernel.kill_host(&host).unwrap();
    world.run_for(SimDuration::from_secs(5));

    let l = trend(&world, idx);
    assert_ne!(l.active, 0);
    // All failure events correlated to one epoch → the logic treated them
    // as one physical event: active switched once, to replica 1.
    assert_eq!(l.active, 1);
    // Every crashed PE got a restart attempt; those that could relocate are
    // up on surviving hosts.
    for f in &l.failovers {
        if let Some(new_pe) = f.restarted_pe {
            assert_eq!(world.kernel.pe_status(new_pe), Some(PeStatus::Up));
            let new_host = world.kernel.cluster.host_of_pe(new_pe).unwrap();
            assert_ne!(new_host, host);
        }
    }
    // The new active keeps producing.
    let out = world
        .kernel
        .tap(l.replicas[1].job, "graph")
        .unwrap_or_default();
    assert!(!out.is_empty());
}

#[test]
fn repeated_failures_never_leave_system_headless() {
    let (mut world, idx) = build(10.0, 3);
    world.run_for(SimDuration::from_secs(20));
    for round in 0..4 {
        let active_job = trend(&world, idx).active_job();
        let pe = world.kernel.pe_id_of(active_job, 1).unwrap();
        world.kernel.kill_pe(pe).unwrap();
        world.run_for(SimDuration::from_secs(15));
        let l = trend(&world, idx);
        // The active replica is always a healthy one.
        let active_job = l.active_job();
        let info = world.kernel.sam.job(active_job).unwrap();
        for &pe in &info.pe_ids {
            assert_eq!(
                world.kernel.pe_status(pe),
                Some(PeStatus::Up),
                "round {round}: active replica must be healthy"
            );
        }
        assert_eq!(l.failovers.len(), round + 1);
    }
}
