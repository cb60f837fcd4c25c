//! Figure 10 regeneration: the dynamic-composition application graph over
//! time — C1/C2 base applications plus on-demand C3 segmentation jobs that
//! come and go, driven by profile-count thresholds and final punctuation.
//!
//! Run with: `cargo run --release -p orca-bench --bin fig10`

#![forbid(unsafe_code)]

use orca::{OrcaDescriptor, OrcaService};
use orca_apps::social::{composition_descriptor, CompositionOrca};
use orca_apps::SharedStores;
use sps_runtime::{Cluster, Kernel, RuntimeConfig, World};
use sps_sim::SimDuration;

fn main() {
    let stores = SharedStores::new();
    let kernel = Kernel::new(
        Cluster::with_hosts(4),
        orca_apps::registry(&stores),
        RuntimeConfig::default(),
    );
    let mut world = World::new(kernel);
    let descriptor: OrcaDescriptor = composition_descriptor();
    // The paper's threshold: 1500 newly discovered attributed profiles.
    let service = OrcaService::submit(
        &mut world.kernel,
        descriptor,
        Box::new(CompositionOrca::new(1500)),
    );
    let idx = world.add_controller(Box::new(service));

    // Sample the composition size over time while running.
    let mut size_series: Vec<(f64, usize, usize)> = Vec::new();
    for _ in 0..48 {
        world.run_for(SimDuration::from_secs(5));
        let jobs = world.kernel.sam.running_jobs().len();
        let c3 = world
            .kernel
            .sam
            .jobs()
            .filter(|j| j.app_name == "AttributeAggregator")
            .count();
        size_series.push((world.now().as_secs_f64(), jobs, c3));
    }

    let svc = world.controller::<OrcaService>(idx).unwrap();
    let logic = svc.logic::<CompositionOrca>().unwrap();

    println!("=== Figure 10: dynamic application composition over time ===\n");
    println!("base: 2×C1 readers + 3×C2 query apps; C3 spawned per 1500 new profiles\n");
    println!("timeline of job events:");
    println!("{:>8}  {:<3} {:<24} config", "t(s)", "+/-", "application");
    for e in &logic.timeline {
        println!(
            "{:>8.1}  {:<3} {:<24} {}",
            e.at.as_secs_f64(),
            if e.submitted { "+" } else { "-" },
            e.app_name,
            e.config_id.as_deref().unwrap_or("-"),
        );
    }

    println!("\ncomposition size over time (expansion/contraction):");
    println!("{:>8} {:>10} {:>8}  graph", "t(s)", "jobs", "C3 jobs");
    for (t, jobs, c3) in &size_series {
        println!("{t:>8.0} {jobs:>10} {c3:>8}  |{}", "#".repeat(*jobs));
    }

    println!(
        "\nprofile store: {} distinct users (gender {}, age {}, location {})",
        stores.profile_store.len(),
        stores.profile_store.count_with_attribute("gender"),
        stores.profile_store.count_with_attribute("age"),
        stores.profile_store.count_with_attribute("location"),
    );
    println!(
        "C3 segmentation jobs launched: {}, completed & cancelled: {}",
        logic.c3_launched, logic.c3_completed
    );
    assert!(logic.c3_launched >= 2);
    assert!(logic.c3_completed >= 1);
    println!("\nshape check passed: base apps persist; C3 jobs expand and contract on demand");
}
