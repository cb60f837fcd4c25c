//! Figure 8 regeneration: unknown/known sentiment-cause ratio over metric
//! epochs. The cause distribution drifts mid-run ("antenna" complaints); the
//! orchestrator's measurement crosses the 1.0 actuation threshold, it
//! launches the model recomputation, and the ratio stabilizes below 1.0.
//!
//! Run with: `cargo run --release -p orca-bench --bin fig8`

#![forbid(unsafe_code)]

use orca::{OrcaDescriptor, OrcaService};
use orca_apps::sentiment::{sentiment_app, SentimentOrca, SentimentParams};
use orca_apps::SharedStores;
use sps_runtime::{Cluster, Kernel, RuntimeConfig, World};
use sps_sim::SimDuration;

fn main() {
    let stores = SharedStores::new();
    let kernel = Kernel::new(
        Cluster::with_hosts(2),
        orca_apps::registry(&stores),
        RuntimeConfig::default(),
    );
    let mut world = World::new(kernel);
    // Poll every 3 s → one epoch ≈ 3 s. Drift at epoch ≈ 250 like the paper
    // (250 × 3 s = 750 s of simulated time); run to epoch ≈ 400.
    let poll = SimDuration::from_secs(3);
    let params = SentimentParams {
        drift_at_secs: 750.0,
        ..Default::default()
    };
    let service = OrcaService::submit(
        &mut world.kernel,
        OrcaDescriptor::new("SentimentOrca").app(sentiment_app(params)),
        Box::new(SentimentOrca::new(stores.clone(), poll)),
    );
    let idx = world.add_controller(Box::new(service));

    world.run_for(SimDuration::from_secs(1210)); // ≈ 400 epochs

    let svc = world.controller::<OrcaService>(idx).unwrap();
    let logic = svc.logic::<SentimentOrca>().unwrap();

    println!("=== Figure 8: unknown-to-known sentiment cause ratio over epochs ===");
    println!("(drift injected at epoch ~250; actuation threshold 1.0)\n");
    println!(
        "{:>6} {:>9} {:>8} {:>8}  series",
        "epoch", "t(s)", "ratio", "model_v"
    );
    let mut triggered_at = None;
    for s in &logic.samples {
        if s.ratio > 1.0 && triggered_at.is_none() {
            triggered_at = Some(s.epoch);
        }
        if s.epoch % 5 != 0 && Some(s.epoch) != triggered_at {
            continue; // thin the printout
        }
        let bar_len = (s.ratio * 20.0).min(40.0) as usize;
        println!(
            "{:>6} {:>9.0} {:>8.3} {:>8}  |{}{}",
            s.epoch,
            s.at.as_secs_f64(),
            s.ratio,
            s.model_version,
            "#".repeat(bar_len),
            if s.ratio > 1.0 {
                "  << threshold crossed"
            } else {
                ""
            }
        );
    }
    println!(
        "\nthreshold first crossed at epoch {:?}; Hadoop jobs: launched {} / completed {}",
        triggered_at, logic.jobs_launched, logic.jobs_completed
    );
    println!(
        "final model: {:?} (version {})",
        stores.cause_model.snapshot().known_causes,
        stores.cause_model.snapshot().version
    );
    let last = logic.samples.last().unwrap();
    println!(
        "final ratio: {:.3} ({})",
        last.ratio,
        if last.ratio < 1.0 {
            "stabilized below threshold — matches the paper"
        } else {
            "NOT recovered"
        }
    );
    assert!(last.ratio < 1.0, "the application must have adapted");
}
