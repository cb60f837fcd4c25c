//! Figure 7 regeneration: the application dependency graph
//! (fb/tw/fox/msnbc → sn/all with uptime requirements 20/80 and GC flags),
//! driven end to end: ordered submission schedule, starvation-protected
//! cancellation, garbage collection, and resurrection.
//!
//! Run with: `cargo run --release -p orca-bench --bin fig7`

#![forbid(unsafe_code)]

use orca::{
    AppConfig, JobEventContext, JobEventScope, OrcaCtx, OrcaDescriptor, OrcaError, OrcaService,
    OrcaStartContext, Orchestrator, UserEventContext, UserEventScope,
};
use orca_apps::SharedStores;
use sps_model::compiler::{compile, CompileOptions};
use sps_model::logical::{AppModelBuilder, CompositeGraphBuilder, OperatorInvocation};
use sps_model::Adl;
use sps_runtime::{Cluster, Kernel, RuntimeConfig, World};
use sps_sim::{SimDuration, SimTime};

fn tiny_app(name: &str) -> Adl {
    let mut m = CompositeGraphBuilder::main();
    m.operator(
        "src",
        OperatorInvocation::new("Beacon")
            .source()
            .param("rate", 2.0),
    );
    let model = AppModelBuilder::new(name)
        .build(m.build().unwrap())
        .unwrap();
    compile(&model, CompileOptions::default()).unwrap()
}

#[derive(Default)]
struct Fig7 {
    log: Vec<String>,
    starve_error: Option<OrcaError>,
}

impl Fig7 {
    fn note(&mut self, at: SimTime, msg: String) {
        self.log
            .push(format!("t={:>6.1}s  {msg}", at.as_secs_f64()));
    }
}

impl Orchestrator for Fig7 {
    fn on_start(&mut self, ctx: &mut OrcaCtx<'_>, _s: &OrcaStartContext) {
        ctx.register_event_scope(JobEventScope::new("timeline"));
        ctx.register_event_scope(UserEventScope::new("cmd"));
        for (id, gc) in [
            ("fb", true),
            ("tw", true),
            ("fox", false), // F in the figure: not garbage collectable
            ("msnbc", true),
            ("sn", true),
            ("all", true),
        ] {
            let mut cfg = AppConfig::new(id, id).gc_timeout(SimDuration::from_secs(15));
            if !gc {
                cfg = cfg.not_garbage_collectable();
            }
            ctx.create_app_config(cfg).unwrap();
        }
        // sn depends on fb and tw, uptime 20 s; all depends on all four
        // feeds, uptime 80 s — the arc annotations of Figure 7.
        for dep in ["fb", "tw"] {
            ctx.register_dependency("sn", dep, SimDuration::from_secs(20))
                .unwrap();
        }
        for dep in ["fb", "tw", "fox", "msnbc"] {
            ctx.register_dependency("all", dep, SimDuration::from_secs(80))
                .unwrap();
        }
        // Submit both targets in the same round (the paper's example: sn's
        // required sleeping time 20 < all's 80, so sn comes up first).
        ctx.request_start("all").unwrap();
        ctx.request_start("sn").unwrap();
    }

    fn on_job_submitted(&mut self, _ctx: &mut OrcaCtx<'_>, e: &JobEventContext, _s: &[String]) {
        self.note(
            e.at,
            format!(
                "+ submitted {:<6} as {}",
                e.config_id.clone().unwrap_or_default(),
                e.job
            ),
        );
    }

    fn on_job_cancelled(&mut self, _ctx: &mut OrcaCtx<'_>, e: &JobEventContext, _s: &[String]) {
        self.note(
            e.at,
            format!(
                "- cancelled {:<6} ({})",
                e.config_id.clone().unwrap_or_default(),
                e.job
            ),
        );
    }

    fn on_user_event(&mut self, ctx: &mut OrcaCtx<'_>, e: &UserEventContext, _s: &[String]) {
        let at = ctx.now();
        match e.name.as_str() {
            "cancel_fb" => {
                self.starve_error = ctx.request_cancel("fb").err();
                let msg = format!(
                    "! cancel(fb) rejected: {}",
                    self.starve_error
                        .as_ref()
                        .map(|e| e.to_string())
                        .unwrap_or_default()
                );
                self.note(at, msg);
            }
            "cancel_sn" => {
                ctx.request_cancel("sn").unwrap();
                self.note(at, "> cancel(sn) accepted".into());
            }
            "cancel_all" => {
                ctx.request_cancel("all").unwrap();
                self.note(at, "> cancel(all) accepted — feeders queued for GC".into());
            }
            "restart_sn" => {
                ctx.request_start("sn").unwrap();
                self.note(at, "> start(sn) — resurrects fb/tw off the GC queue".into());
            }
            other => self.note(at, format!("? unknown command {other}")),
        }
    }
}

fn main() {
    let stores = SharedStores::new();
    let kernel = Kernel::new(
        Cluster::with_hosts(3),
        orca_apps::registry(&stores),
        RuntimeConfig::default(),
    );
    let mut world = World::new(kernel);
    let mut desc = OrcaDescriptor::new("Figure7Orca");
    for name in ["fb", "tw", "fox", "msnbc", "sn", "all"] {
        desc = desc.app(tiny_app(name));
    }
    let service = OrcaService::submit(&mut world.kernel, desc, Box::new(Fig7::default()));
    let idx = world.add_controller(Box::new(service));

    let cmd = |world: &mut World, name: &str| {
        world
            .controller_mut::<OrcaService>(idx)
            .unwrap()
            .inject_user_event(name, Default::default());
    };

    // Phase 1: bring the whole graph up (roots at ~0, sn at +20, all at +80).
    world.run_for(SimDuration::from_secs(90));
    // Phase 2: starvation check, then orderly teardown with GC.
    cmd(&mut world, "cancel_fb"); // refused: feeds sn & all
    world.run_for(SimDuration::from_secs(1));
    cmd(&mut world, "cancel_sn");
    world.run_for(SimDuration::from_secs(5));
    cmd(&mut world, "cancel_all");
    world.run_for(SimDuration::from_secs(5));
    // Phase 3: resurrect sn before fb/tw hit their GC timeout.
    cmd(&mut world, "restart_sn");
    world.run_for(SimDuration::from_secs(30));

    println!("=== Figure 7: dependency-managed application set ===\n");
    println!("graph: sn <-(20s)- {{fb, tw}};  all <-(80s)- {{fb, tw, fox, msnbc}}");
    println!("GC flags: fox=non-collectable, others collectable (timeout 15s)\n");
    let svc = world.controller::<OrcaService>(idx).unwrap();
    let logic = svc.logic::<Fig7>().unwrap();
    for line in &logic.log {
        println!("{line}");
    }
    let mut remaining: Vec<String> = world
        .kernel
        .sam
        .jobs()
        .map(|j| j.app_name.clone())
        .collect();
    remaining.sort();
    println!("\nrunning at end: {remaining:?}");
    println!("(expected: fb, tw resurrected for sn; fox survives as non-collectable;");
    println!(" msnbc garbage-collected after its 15s timeout)");
}
