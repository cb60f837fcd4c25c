//! Figure 9 regeneration: Trend Calculator replica output around a PE crash.
//!
//! Prints the per-replica output series (average price + window-full flag
//! for one symbol) before the crash (identical outputs, Figure 9a), right
//! after the failover (failed replica silent then incorrect, Figure 9b), and
//! after the 600-second window refills.
//!
//! Run with: `cargo run --release -p orca-bench --bin fig9`

#![forbid(unsafe_code)]

use orca::{OrcaDescriptor, OrcaService};
use orca_apps::trend::{trend_app, TrendOrca, TrendParams};
use orca_apps::SharedStores;
use sps_runtime::{Cluster, JobId, Kernel, RuntimeConfig, World};
use sps_sim::SimTime;

/// Latest (avg, full) for a symbol from a replica's sink, if any.
fn latest(world: &World, job: JobId, sym: &str) -> Option<(f64, bool, u64)> {
    world
        .kernel
        .tap(job, "graph")?
        .iter()
        .rev()
        .find(|t| t.get_str("group") == Some(sym))
        .map(|t| {
            (
                t.get_f64("avg").unwrap(),
                t.get_bool("full").unwrap(),
                t.get("ts").and_then(|v| v.as_timestamp()).unwrap_or(0),
            )
        })
}

/// Group key rendering of SYM0, the symbol the figure follows.
const SYM: &str = "s:SYM0";

/// A world running the Trend Calculator's replicas under `TrendOrca` with
/// the paper's 600-second sliding window; returns it with the ORCA
/// controller's index.
fn build_world() -> (World, usize) {
    let stores = SharedStores::new();
    let kernel = Kernel::new(
        Cluster::with_hosts(3),
        orca_apps::registry(&stores),
        RuntimeConfig::default(),
    );
    let mut world = World::new(kernel);
    let params = TrendParams {
        window_secs: 600.0,
        ..Default::default()
    };
    let service = OrcaService::submit(
        &mut world.kernel,
        OrcaDescriptor::new("TrendOrca").app(trend_app(params)),
        Box::new(TrendOrca::new(3)),
    );
    let idx = world.add_controller(Box::new(service));
    (world, idx)
}

/// One table row: time, active replica, both replicas' latest output, label.
fn sample(world: &World, idx: usize, label: &str) -> String {
    let svc = world.controller::<OrcaService>(idx).unwrap();
    let logic = svc.logic::<TrendOrca>().unwrap();
    let r0 = latest(world, logic.replicas[0].job, SYM);
    let r1 = latest(world, logic.replicas[1].job, SYM);
    let fmt = |v: Option<(f64, bool, u64)>| match v {
        None => format!("{:>10} {:>5} {:>8}", "-", "-", "-"),
        Some((avg, full, ts)) => format!("{avg:>10.3} {full:>5} {:>8.0}", ts as f64 / 1000.0),
    };
    format!(
        "{:>7.0} {:>6} | {} | {} | {}",
        world.now().as_secs_f64(),
        svc.status("active").unwrap_or("?"),
        fmt(r0),
        fmt(r1),
        label,
    )
}

/// Fills the windows, crashes the active replica's calculator PE at
/// t=700s, and follows the failover until the window has refilled;
/// returns one row per sample.
fn run_crash(world: &mut World, idx: usize) -> Vec<String> {
    let mut rows: Vec<String> = Vec::new();
    for t in [100u64, 300, 600, 650, 699] {
        world.run_until(SimTime::from_secs(t));
        let label = if t < 600 {
            "filling windows"
        } else {
            "healthy (Fig 9a)"
        };
        rows.push(sample(world, idx, label));
    }

    let active_job = {
        let svc = world.controller::<OrcaService>(idx).unwrap();
        svc.logic::<TrendOrca>().unwrap().active_job()
    };
    let victim = world.kernel.pe_id_of(active_job, 1).unwrap();
    world.run_until(SimTime::from_secs(700));
    world.kernel.kill_pe(victim).unwrap();

    for t in [702u64, 710, 730, 800, 1000, 1305, 1320] {
        world.run_until(SimTime::from_secs(t));
        let label = match t {
            702 | 710 => "after crash+failover (Fig 9b)",
            730 | 800 | 1000 => "restarted replica refilling (incorrect output)",
            _ => "window refilled: replicas agree again",
        };
        rows.push(sample(world, idx, label));
    }
    rows
}

/// Prints the table and the failover summary, then checks the shape the
/// paper's narrative gives the figure.
fn report(world: &World, idx: usize, rows: &[String]) {
    println!("=== Figure 9: replica output around a PE crash (symbol SYM0) ===\n");
    println!("crash of replica 0's calculator PE injected at t=700s; window = 600s\n");
    println!(
        "{:>7} {:>6} | {:>10} {:>5} {:>8} | {:>10} {:>5} {:>8} |",
        "t(s)", "active", "r0 avg", "full", "r0 ts", "r1 avg", "full", "r1 ts"
    );
    for row in rows {
        println!("{row}");
    }

    let svc = world.controller::<OrcaService>(idx).unwrap();
    let logic = svc.logic::<TrendOrca>().unwrap();
    println!("\nfailovers: {:?}", logic.failovers);
    println!("final active replica: {}", logic.active);

    let r0 = latest(world, logic.replicas[0].job, SYM).unwrap();
    let r1 = latest(world, logic.replicas[1].job, SYM).unwrap();
    assert!(
        r0.1 && r1.1,
        "both replicas should be full again at the end"
    );
    assert_eq!(logic.active, 1, "failover must have moved the active role");
    assert_eq!(logic.failovers.len(), 1, "exactly one failover");
    println!("\nshape check passed: gap → incorrect (non-full) output → recovery after 600s");
}

fn main() {
    let (mut world, idx) = build_world();
    let rows = run_crash(&mut world, idx);
    report(&world, idx, &rows);
}
