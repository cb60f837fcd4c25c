//! Integration: the Figure 7 dependency scenario end to end through the
//! world clock — ordered submission with uptime requirements, starvation
//! protection, garbage collection with timeouts, and resurrection.

#![forbid(unsafe_code)]

use orca::{
    AppConfig, JobEventContext, JobEventScope, OrcaCtx, OrcaDescriptor, OrcaError, OrcaService,
    OrcaStartContext, Orchestrator,
};
use orca_apps::SharedStores;
use sps_model::compiler::{compile, CompileOptions};
use sps_model::logical::{AppModelBuilder, CompositeGraphBuilder, OperatorInvocation};
use sps_model::Adl;
use sps_runtime::{Cluster, Kernel, RuntimeConfig, World};
use sps_sim::{SimDuration, SimTime};

/// Trivial single-source app reused under six names.
fn tiny_app(name: &str) -> Adl {
    let mut m = CompositeGraphBuilder::main();
    m.operator(
        "src",
        OperatorInvocation::new("Beacon")
            .source()
            .param("rate", 5.0),
    );
    let model = AppModelBuilder::new(name)
        .build(m.build().unwrap())
        .unwrap();
    compile(&model, CompileOptions::default()).unwrap()
}

/// The Figure 7 orchestrator: fb/tw/fox/msnbc feed sn (uptime 20) and all
/// (uptime 80); fox is not garbage collectable.
#[derive(Default)]
struct Figure7 {
    timeline: Vec<(SimTime, bool, String)>,
    cancel_fb_error: Option<OrcaError>,
    start_all: bool,
    start_sn: bool,
}

impl Orchestrator for Figure7 {
    fn on_start(&mut self, ctx: &mut OrcaCtx<'_>, _s: &OrcaStartContext) {
        ctx.register_event_scope(JobEventScope::new("timeline"));
        for (id, gc) in [
            ("fb", true),
            ("tw", true),
            ("fox", false),
            ("msnbc", true),
            ("sn", true),
            ("all", true),
        ] {
            let mut cfg = AppConfig::new(id, id).gc_timeout(SimDuration::from_secs(5));
            if !gc {
                cfg = cfg.not_garbage_collectable();
            }
            ctx.create_app_config(cfg).unwrap();
        }
        for dep in ["fb", "tw"] {
            ctx.register_dependency("sn", dep, SimDuration::from_secs(20))
                .unwrap();
        }
        for dep in ["fb", "tw", "fox", "msnbc"] {
            ctx.register_dependency("all", dep, SimDuration::from_secs(80))
                .unwrap();
        }
        if self.start_all {
            ctx.request_start("all").unwrap();
        }
        if self.start_sn {
            ctx.request_start("sn").unwrap();
        }
    }

    fn on_job_submitted(&mut self, _ctx: &mut OrcaCtx<'_>, e: &JobEventContext, _s: &[String]) {
        self.timeline
            .push((e.at, true, e.config_id.clone().unwrap_or_default()));
    }

    fn on_job_cancelled(&mut self, ctx: &mut OrcaCtx<'_>, e: &JobEventContext, _s: &[String]) {
        self.timeline
            .push((e.at, false, e.config_id.clone().unwrap_or_default()));
        // The first cancellation observed: try the forbidden fb cancel once.
        if self.cancel_fb_error.is_none() && ctx.running_configs().contains(&"fb".to_string()) {
            self.cancel_fb_error = ctx.request_cancel("fb").err();
        }
    }
}

fn build_world(logic: Figure7) -> (World, usize) {
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
    let service = OrcaService::submit(&mut world.kernel, desc, Box::new(logic));
    let idx = world.add_controller(Box::new(service));
    (world, idx)
}

fn logic(world: &World, idx: usize) -> &Figure7 {
    world
        .controller::<OrcaService>(idx)
        .unwrap()
        .logic::<Figure7>()
        .unwrap()
}

#[test]
fn submission_schedule_matches_figure7() {
    let (mut world, idx) = build_world(Figure7 {
        start_all: true,
        start_sn: true,
        ..Default::default()
    });
    world.run_for(SimDuration::from_secs(100));
    let l = logic(&world, idx);
    let submitted: Vec<(&str, f64)> = l
        .timeline
        .iter()
        .filter(|(_, up, _)| *up)
        .map(|(t, _, c)| (c.as_str(), t.as_secs_f64()))
        .collect();
    // Roots first, all four within the first quantum round.
    let roots: Vec<&str> = submitted.iter().take(4).map(|(c, _)| *c).collect();
    assert_eq!(roots, vec!["fb", "fox", "msnbc", "tw"]);
    // sn next at ≈ +20 s, all last at ≈ +80 s (the paper's exact numbers).
    assert_eq!(submitted[4].0, "sn");
    assert!(
        (submitted[4].1 - submitted[0].1 - 20.0).abs() < 0.5,
        "{submitted:?}"
    );
    assert_eq!(submitted[5].0, "all");
    assert!(
        (submitted[5].1 - submitted[0].1 - 80.0).abs() < 0.5,
        "{submitted:?}"
    );
    // All six jobs really run.
    assert_eq!(world.kernel.sam.running_jobs().len(), 6);
}

#[test]
fn cancellation_gc_and_starvation_protection() {
    // Extend Figure7 with a user-event-driven cancel script.
    struct CancelLogic {
        inner: Figure7,
        gc_observed: Vec<(SimTime, String)>,
    }
    impl Orchestrator for CancelLogic {
        fn on_start(&mut self, ctx: &mut OrcaCtx<'_>, s: &OrcaStartContext) {
            self.inner.start_all = true;
            self.inner.start_sn = true;
            self.inner.on_start(ctx, s);
            ctx.register_event_scope(orca::UserEventScope::new("cmd"));
        }
        fn on_job_submitted(&mut self, ctx: &mut OrcaCtx<'_>, e: &JobEventContext, s: &[String]) {
            self.inner.on_job_submitted(ctx, e, s);
        }
        fn on_job_cancelled(&mut self, ctx: &mut OrcaCtx<'_>, e: &JobEventContext, _s: &[String]) {
            self.gc_observed
                .push((e.at, e.config_id.clone().unwrap_or_default()));
            let _ = ctx;
        }
        fn on_user_event(
            &mut self,
            ctx: &mut OrcaCtx<'_>,
            e: &orca::UserEventContext,
            _s: &[String],
        ) {
            match e.name.as_str() {
                "cancel_fb" => self.inner.cancel_fb_error = ctx.request_cancel("fb").err(),
                "cancel_sn" => ctx.request_cancel("sn").unwrap(),
                "cancel_all" => ctx.request_cancel("all").unwrap(),
                "restart_sn" => ctx.request_start("sn").unwrap(),
                other => panic!("unknown command {other}"),
            }
        }
    }

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
    let service = OrcaService::submit(
        &mut world.kernel,
        desc,
        Box::new(CancelLogic {
            inner: Figure7::default(),
            gc_observed: vec![],
        }),
    );
    let idx = world.add_controller(Box::new(service));

    // Bring the full graph up (all at +80 s).
    world.run_for(SimDuration::from_secs(90));
    assert_eq!(world.kernel.sam.running_jobs().len(), 6);

    let cmd = |world: &mut World, name: &str| {
        world
            .controller_mut::<OrcaService>(idx)
            .unwrap()
            .inject_user_event(name, Default::default());
        world.step();
    };

    // 1. Cancelling fb is refused: it feeds sn and all.
    cmd(&mut world, "cancel_fb");
    {
        let svc = world.controller::<OrcaService>(idx).unwrap();
        let l = svc.logic::<CancelLogic>().unwrap();
        assert!(matches!(
            l.inner.cancel_fb_error,
            Some(OrcaError::WouldStarve(_))
        ));
    }
    assert_eq!(world.kernel.sam.running_jobs().len(), 6);

    // 2. Cancel sn: its feeders still serve all → nothing GC'd.
    cmd(&mut world, "cancel_sn");
    world.run_for(SimDuration::from_secs(10));
    assert_eq!(world.kernel.sam.running_jobs().len(), 5);

    // 3. Cancel all: fb/tw/msnbc become unused → GC after 5 s; fox is not
    //    collectable and survives.
    cmd(&mut world, "cancel_all");
    world.run_for(SimDuration::from_secs(3));
    // Before the timeout everything upstream still runs (4 jobs: fb tw fox msnbc).
    assert_eq!(world.kernel.sam.running_jobs().len(), 4);
    world.run_for(SimDuration::from_secs(4));
    let remaining: Vec<String> = world
        .kernel
        .sam
        .jobs()
        .map(|j| j.app_name.clone())
        .collect();
    assert_eq!(remaining, vec!["fox".to_string()]);
}

#[test]
fn resurrection_cancels_pending_gc() {
    struct ResurrectLogic {
        inner: Figure7,
    }
    impl Orchestrator for ResurrectLogic {
        fn on_start(&mut self, ctx: &mut OrcaCtx<'_>, s: &OrcaStartContext) {
            self.inner.start_sn = true;
            self.inner.on_start(ctx, s);
            ctx.register_event_scope(orca::UserEventScope::new("cmd"));
        }
        fn on_user_event(
            &mut self,
            ctx: &mut OrcaCtx<'_>,
            e: &orca::UserEventContext,
            _s: &[String],
        ) {
            match e.name.as_str() {
                "cancel_sn" => ctx.request_cancel("sn").unwrap(),
                "restart_sn" => ctx.request_start("sn").unwrap(),
                other => panic!("unknown command {other}"),
            }
        }
    }

    let stores = SharedStores::new();
    let kernel = Kernel::new(
        Cluster::with_hosts(3),
        orca_apps::registry(&stores),
        RuntimeConfig::default(),
    );
    let mut world = World::new(kernel);
    let mut desc = OrcaDescriptor::new("R");
    for name in ["fb", "tw", "fox", "msnbc", "sn", "all"] {
        desc = desc.app(tiny_app(name));
    }
    let service = OrcaService::submit(
        &mut world.kernel,
        desc,
        Box::new(ResurrectLogic {
            inner: Figure7::default(),
        }),
    );
    let idx = world.add_controller(Box::new(service));
    world.run_for(SimDuration::from_secs(25)); // sn up at +20

    let fb_job_before = world
        .controller::<OrcaService>(idx)
        .unwrap()
        .logic::<ResurrectLogic>()
        .map(|_| ());
    assert!(fb_job_before.is_some());
    let fb_before = {
        let svc = world.controller::<OrcaService>(idx).unwrap();
        svc.status("x"); // no-op; jobs checked via kernel
        world.kernel.sam.running_jobs().len()
    };
    assert_eq!(fb_before, 3); // fb, tw, sn

    // Cancel sn → fb/tw queued for GC (5 s). Restart sn within the window:
    // fb/tw must survive without a restart (same JobIds).
    let jobs_before: Vec<_> = world.kernel.sam.running_jobs();
    world
        .controller_mut::<OrcaService>(idx)
        .unwrap()
        .inject_user_event("cancel_sn", Default::default());
    world.run_for(SimDuration::from_secs(2));
    world
        .controller_mut::<OrcaService>(idx)
        .unwrap()
        .inject_user_event("restart_sn", Default::default());
    world.run_for(SimDuration::from_secs(10));

    let jobs_after: Vec<_> = world.kernel.sam.running_jobs();
    assert_eq!(jobs_after.len(), 3);
    // fb and tw kept their original job ids — no unnecessary restart.
    let kept = jobs_before
        .iter()
        .filter(|j| jobs_after.contains(j))
        .count();
    assert_eq!(kept, 2, "before {jobs_before:?} after {jobs_after:?}");
}
