//! Integration: a cluster's behaviour does not depend on the order its hosts
//! were listed in.
//!
//! `Cluster::new` keeps hosts in name order, and placement, the live walk
//! and every host lookup go by that order. Every campaign scenario lists at
//! most four hosts, `host0..`, which are already in name order, so no
//! campaign can tell a cluster that sorts from one that does not. Twelve
//! hosts can: in name order `host10` and `host11` sit between `host1` and
//! `host2`. The same fault sequence on the same twelve hosts, listed once
//! shuffled and once in name order, must leave the same trace.

#![forbid(unsafe_code)]

use orca_harness::Janitor;
use sps_engine::OperatorRegistry;
use sps_model::{
    compile, AppModelBuilder, CompileOptions, CompositeGraphBuilder, OperatorInvocation,
};
use sps_runtime::{Cluster, Host, JobId, Kernel, PeStatus, RuntimeConfig, World};
use sps_sim::SimDuration;

/// Host numbers in an order that is neither numeric nor name order.
const SHUFFLED: [usize; 12] = [7, 11, 2, 0, 9, 4, 10, 1, 6, 3, 8, 5];

/// Six Beacon → Filter → Sink pipelines, one PE per operator: 18 PEs over
/// 12 hosts, so least-loaded placement breaks ties by host order.
fn pipelines(kernel: &mut Kernel) -> Vec<JobId> {
    (0..6)
        .map(|i| {
            let mut m = CompositeGraphBuilder::main();
            m.operator(
                "src",
                OperatorInvocation::new("Beacon")
                    .source()
                    .param("rate", 10.0 + i as f64),
            );
            m.operator(
                "flt",
                OperatorInvocation::new("Filter").param("predicate", "seq % 2 == 0"),
            );
            m.operator("snk", OperatorInvocation::new("Sink").sink());
            m.pipe("src", "flt");
            m.pipe("flt", "snk");
            let model = AppModelBuilder::new(&format!("P{i}"))
                .build(m.build().unwrap())
                .unwrap();
            let adl = compile(&model, CompileOptions::default()).unwrap();
            kernel.submit_job(adl, None).unwrap()
        })
        .collect()
}

/// Runs one kill / host-kill / revive sequence, recovered by the
/// [`Janitor`], on a cluster given `hosts` in this order; returns the trace
/// digest and the restarts the janitor made.
fn run(order: &[usize]) -> (u64, usize) {
    let hosts = order
        .iter()
        .map(|i| Host::new(&format!("host{i}"), &[]))
        .collect();
    let mut kernel = Kernel::new(
        Cluster::new(hosts),
        OperatorRegistry::with_builtins(),
        RuntimeConfig::default(),
    );
    let jobs = pipelines(&mut kernel);
    let mut world = World::new(kernel);
    let janitor = world.add_controller(Box::new(Janitor::default()));
    let secs = SimDuration::from_secs;

    world.run_for(secs(5));
    let pe = world.kernel.pe_id_of(jobs[1], 1).unwrap();
    world.kernel.kill_pe(pe).unwrap();
    world.run_for(secs(3));
    for host in ["host10", "host2"] {
        world.kernel.kill_host(host).unwrap();
        world.run_for(secs(3));
        world.kernel.revive_host(host).unwrap();
        world.run_for(secs(3));
    }
    world.run_for(secs(5));

    for &job in &jobs {
        for &pe in &world.kernel.sam.job(job).unwrap().pe_ids {
            assert_eq!(world.kernel.pe_status(pe), Some(PeStatus::Up), "{pe}");
        }
    }
    let restarts = world.controller::<Janitor>(janitor).unwrap().restarts.len();
    (world.kernel.trace.digest(), restarts)
}

#[test]
fn host_order_does_not_reach_the_trace() {
    let mut by_name: Vec<usize> = (0..12).collect();
    by_name.sort_by_key(|i| format!("host{i}"));
    assert_eq!(&by_name[..4], [0, 1, 10, 11]);
    let (named, restarts) = run(&by_name);
    // The PE kill and both host kills each left something to restart.
    assert!(restarts >= 3, "{restarts} restarts");
    assert_eq!(run(&SHUFFLED), (named, restarts));
}
