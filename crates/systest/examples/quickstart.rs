//! Quickstart: build an application, attach an orchestrator, react to a
//! failure.
//!
//! Run with: `cargo run --example quickstart`
//!
//! This walks the full public API surface in ~100 lines:
//! 1. assemble a logical graph (source → filter → sink) with the builder,
//! 2. compile it to an ADL,
//! 3. write an ORCA logic that submits the app, watches its throughput
//!    metric, and auto-restarts crashed PEs,
//! 4. run the world, inject a PE kill, and watch the orchestrator recover
//!    it — sampling the sink's output every 5 s of simulated time.

#![forbid(unsafe_code)]

use orca::{
    OperatorMetricContext, OperatorMetricScope, OrcaCtx, OrcaDescriptor, OrcaService,
    OrcaStartContext, Orchestrator, PeFailureContext, PeFailureScope,
};
use orca_apps::live;
use orca_apps::SharedStores;
use sps_model::compiler::{compile, CompileOptions};
use sps_model::logical::{AppModelBuilder, CompositeGraphBuilder, OperatorInvocation};
use sps_runtime::{Cluster, Kernel, KillTarget, RuntimeConfig, World};
use sps_sim::{SimDuration, SimTime};

/// The ORCA logic: self-healing plus throughput reporting.
struct Quickstart {
    job: Option<sps_runtime::JobId>,
}

impl Orchestrator for Quickstart {
    fn on_start(&mut self, ctx: &mut OrcaCtx<'_>, _s: &OrcaStartContext) {
        ctx.register_event_scope(
            OperatorMetricScope::new("throughput")
                .add_operator_instance("snk")
                .add_metric("nTuplesProcessed"),
        );
        ctx.register_event_scope(PeFailureScope::new("failures"));
        ctx.set_metric_poll_period(SimDuration::from_secs(5));
        let job = ctx.submit_app("Quickstart").expect("submission");
        println!("[orca] submitted Quickstart as {job}");
        self.job = Some(job);
    }

    fn on_operator_metric(
        &mut self,
        ctx: &mut OrcaCtx<'_>,
        e: &OperatorMetricContext,
        _scopes: &[String],
    ) {
        println!(
            "[orca] t={} epoch={} sink processed {} tuples",
            ctx.now(),
            e.epoch,
            e.value
        );
    }

    fn on_pe_failure(&mut self, ctx: &mut OrcaCtx<'_>, e: &PeFailureContext, _s: &[String]) {
        println!(
            "[orca] t={} PE {} of {} crashed ({}); operators affected: {:?} — restarting",
            ctx.now(),
            e.pe,
            e.app_name,
            e.reason.class(),
            ctx.operators_in_pe(e.pe),
        );
        match ctx.restart_pe(e.pe) {
            Ok(new_pe) => println!("[orca] restarted as {new_pe}"),
            Err(err) => println!("[orca] restart failed: {err}"),
        }
    }
}

fn build_app() -> sps_model::Adl {
    let mut m = CompositeGraphBuilder::main();
    m.operator(
        "src",
        OperatorInvocation::new("Beacon")
            .source()
            .param("rate", 25.0),
    );
    m.operator(
        "flt",
        OperatorInvocation::new("Filter").param("predicate", "seq % 5 == 0"),
    );
    m.operator("snk", OperatorInvocation::new("Sink").sink());
    m.pipe("src", "flt");
    m.pipe("flt", "snk");
    let model = AppModelBuilder::new("Quickstart")
        .build(m.build().expect("valid graph"))
        .expect("valid model");
    compile(&model, CompileOptions::default()).expect("compiles")
}

fn main() {
    let stores = SharedStores::new();
    let kernel = Kernel::new(
        Cluster::with_hosts(2),
        orca_apps::registry(&stores),
        RuntimeConfig::default(),
    );
    let mut world = World::new(kernel);
    let service = OrcaService::submit(
        &mut world.kernel,
        OrcaDescriptor::new("QuickstartOrca").app(build_app()),
        Box::new(Quickstart { job: None }),
    );
    let idx = world.add_controller(Box::new(service));

    // Let the app come up, then schedule a mid-run PE kill.
    world.run_for(SimDuration::from_secs(1));
    let job = world.kernel.sam.running_jobs()[0];
    let victim = world.kernel.pe_id_of(job, 1).expect("filter PE");
    world
        .kernel
        .schedule_kill(SimTime::from_secs(12), KillTarget::Pe(victim));
    println!("[harness] scheduled kill of {victim} at t=12s");

    // Sample the sink every 5 s while the simulation runs, then print the
    // samples.
    let updates = live::stream_taps(
        &mut world,
        &[(job, "snk".to_string())],
        SimDuration::from_secs(5),
        SimTime::from_secs(30),
    );
    for u in &updates {
        println!(
            "[sink] t={} +{} tuples (latest seq {:?})",
            u.at,
            u.tuples.len(),
            u.tuples.last().and_then(|t| t.get_int("seq"))
        );
    }

    let svc = world.controller::<OrcaService>(idx).expect("service");
    println!(
        "[harness] done at t={}; orchestrator delivered {} events",
        world.now(),
        svc.stats().events_delivered
    );
    let trace = world.kernel.trace.find("restarted");
    assert!(
        !trace.is_empty(),
        "the orchestrator must have restarted the PE"
    );
    println!("[harness] recovery confirmed: {}", trace[0].message);
}
