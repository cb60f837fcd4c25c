//! Integration: the §5.1 and §5.3 use cases end to end (compressed
//! timescales; the full-scale figure regenerations live in the `fig8` and
//! `fig10` harness binaries).

#![forbid(unsafe_code)]

use orca::{OrcaDescriptor, OrcaService};
use orca_apps::sentiment::{sentiment_app, sentiment_app_embedded, SentimentOrca, SentimentParams};
use orca_apps::social::{composition_descriptor, CompositionOrca};
use orca_apps::SharedStores;
use sps_runtime::{Cluster, Kernel, RuntimeConfig, World};
use sps_sim::SimDuration;

#[test]
fn sentiment_use_case_full_cycle() {
    let stores = SharedStores::new();
    let kernel = Kernel::new(
        Cluster::with_hosts(2),
        orca_apps::registry(&stores),
        RuntimeConfig::default(),
    );
    let mut world = World::new(kernel);
    let params = SentimentParams {
        drift_at_secs: 90.0,
        ..Default::default()
    };
    let service = OrcaService::submit(
        &mut world.kernel,
        OrcaDescriptor::new("SentimentOrca").app(sentiment_app(params)),
        Box::new(SentimentOrca::new(
            stores.clone(),
            SimDuration::from_secs(3),
        )),
    );
    let idx = world.add_controller(Box::new(service));
    world.run_for(SimDuration::from_secs(300));

    let svc = world.controller::<OrcaService>(idx).unwrap();
    let logic = svc.logic::<SentimentOrca>().unwrap();

    // Shape of Figure 8: pre-drift below 1.0, crossing after drift, back
    // below 1.0 after the model refresh.
    let pre_drift: Vec<f64> = logic
        .samples
        .iter()
        .filter(|s| s.at < sps_sim::SimTime::from_secs(85) && s.epoch > 3)
        .map(|s| s.ratio)
        .collect();
    assert!(!pre_drift.is_empty());
    assert!(pre_drift.iter().all(|r| *r < 1.0), "{pre_drift:?}");
    assert!(logic.samples.iter().any(|s| s.ratio > 1.0));
    assert!(logic.samples.last().unwrap().ratio < 1.0);
    assert_eq!(logic.jobs_launched, 1);
    assert_eq!(logic.jobs_completed, 1);
    // Post-adaptation, the model version visible through the metric grew.
    assert!(logic.samples.last().unwrap().model_version >= 2);
}

#[test]
fn orchestrated_and_embedded_variants_reach_the_same_model() {
    // Run both variants on identical workloads; both must converge to a
    // model containing "antenna". The orchestrated variant keeps control
    // logic out of the graph (6 operators vs 7 with op8/op9).
    let orchestrated_ops = sentiment_app(SentimentParams::default()).operators.len();
    let embedded_ops = sentiment_app_embedded(SentimentParams::default())
        .operators
        .len();
    assert_eq!(embedded_ops, orchestrated_ops + 1); // op8 + op9 - agg

    // Embedded run.
    let stores = SharedStores::new();
    stores.cause_model.set(&["flash", "screen"]);
    let mut kernel = Kernel::new(
        Cluster::with_hosts(1),
        orca_apps::registry(&stores),
        RuntimeConfig::default(),
    );
    kernel
        .submit_job(
            sentiment_app_embedded(SentimentParams {
                drift_at_secs: 60.0,
                ..Default::default()
            }),
            None,
        )
        .unwrap();
    for _ in 0..2500 {
        kernel.quantum();
    }
    assert!(stores
        .cause_model
        .snapshot()
        .known_causes
        .contains(&"antenna".to_string()));
}

#[test]
fn composition_use_case_expands_and_contracts() {
    let stores = SharedStores::new();
    let kernel = Kernel::new(
        Cluster::with_hosts(4),
        orca_apps::registry(&stores),
        RuntimeConfig::default(),
    );
    let mut world = World::new(kernel);
    let service = OrcaService::submit(
        &mut world.kernel,
        composition_descriptor(),
        Box::new(CompositionOrca::new(1500)),
    );
    let idx = world.add_controller(Box::new(service));
    world.run_for(SimDuration::from_secs(90));

    let svc = world.controller::<OrcaService>(idx).unwrap();
    let logic = svc.logic::<CompositionOrca>().unwrap();

    // All five C1/C2 base applications run for the whole experiment.
    let base_running = world
        .kernel
        .sam
        .jobs()
        .filter(|j| j.app_name.contains("Query") || j.app_name.contains("Reader"))
        .count();
    assert_eq!(base_running, 5);
    // The composition expanded at least twice (gender arrives fastest, then
    // age) and contracted after each C3 finished.
    assert!(logic.c3_launched >= 2, "launched {}", logic.c3_launched);
    assert!(logic.c3_completed >= 2, "completed {}", logic.c3_completed);
    // Timeline alternates +/- for AttributeAggregator entries per config.
    let c3_events: Vec<_> = logic
        .timeline
        .iter()
        .filter(|e| e.app_name == "AttributeAggregator")
        .collect();
    assert!(c3_events.len() >= 4);
    // Each launched C3 has a matching cancellation (modulo ones in flight).
    let launches = c3_events.iter().filter(|e| e.submitted).count();
    let cancels = c3_events.iter().filter(|e| !e.submitted).count();
    assert!(launches >= cancels);
    assert!(launches - cancels <= 3);
    // C3 read deduplicated profiles.
    assert!(stores.profile_store.len() > 500);
}

/// The README's determinism claim: the same seed reproduces a full
/// experiment bit-for-bit, including adaptation timing.
#[test]
fn identical_seeds_reproduce_identical_runs() {
    let run = || {
        let stores = SharedStores::new();
        let kernel = Kernel::new(
            Cluster::with_hosts(2),
            orca_apps::registry(&stores),
            RuntimeConfig::default(),
        );
        let mut world = World::new(kernel);
        let params = SentimentParams {
            drift_at_secs: 60.0,
            ..Default::default()
        };
        let service = OrcaService::submit(
            &mut world.kernel,
            OrcaDescriptor::new("S").app(sentiment_app(params)),
            Box::new(SentimentOrca::new(
                stores.clone(),
                SimDuration::from_secs(3),
            )),
        );
        let idx = world.add_controller(Box::new(service));
        world.run_for(SimDuration::from_secs(150));
        let svc = world.controller::<OrcaService>(idx).unwrap();
        let logic = svc.logic::<SentimentOrca>().unwrap();
        logic
            .samples
            .iter()
            .map(|s| (s.epoch, s.ratio.to_bits(), s.model_version))
            .collect::<Vec<_>>()
    };
    let a = run();
    let b = run();
    assert!(!a.is_empty());
    assert_eq!(a, b, "same seed must reproduce the exact ratio series");
}
