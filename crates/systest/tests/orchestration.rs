//! Integration: ORCA service mechanics across the full stack — scope-based
//! filtering under load, queueSize overload detection with actuation, epoch
//! correlation, and metric poll-period changes at runtime.

#![forbid(unsafe_code)]

use orca::{
    OperatorMetricContext, OperatorMetricScope, OrcaCtx, OrcaDescriptor, OrcaService,
    OrcaStartContext, Orchestrator,
};
use orca_apps::SharedStores;
use sps_engine::{Punct, StreamItem};
use sps_model::compiler::{compile, CompileOptions};
use sps_model::logical::{AppModelBuilder, CompositeGraphBuilder, OperatorInvocation};
use sps_model::Adl;
use sps_runtime::{Cluster, Kernel, RuntimeConfig, World};
use sps_sim::SimDuration;

/// Overloadable pipeline: fast beacon → costly Work → sink, Work and sink
/// fused into one budget-bound PE.
fn overload_adl() -> Adl {
    let mut m = CompositeGraphBuilder::main();
    m.operator(
        "src",
        OperatorInvocation::new("Beacon")
            .source()
            .param("rate", 400.0),
    );
    m.operator(
        "work",
        OperatorInvocation::new("Work")
            .param("cost", 40i64)
            .colocate("slowpe"),
    );
    m.operator(
        "snk",
        OperatorInvocation::new("Sink").sink().colocate("slowpe"),
    );
    m.pipe("src", "work");
    m.pipe("work", "snk");
    let model = AppModelBuilder::new("Overload")
        .build(m.build().unwrap())
        .unwrap();
    compile(&model, CompileOptions::default()).unwrap()
}

/// Watches queueSize and throttles the source via a control injection when
/// backlog crosses a threshold — a §3-style "dynamic filter" actuation.
struct LoadWatcher {
    threshold: i64,
    queue_samples: Vec<(u64, i64)>,
    acted_at_epoch: Option<u64>,
}

impl Orchestrator for LoadWatcher {
    fn on_start(&mut self, ctx: &mut OrcaCtx<'_>, _s: &OrcaStartContext) {
        ctx.register_event_scope(
            OperatorMetricScope::new("queue")
                .add_operator_instance("work")
                .add_metric("queueSize"),
        );
        ctx.set_metric_poll_period(SimDuration::from_secs(3));
        ctx.submit_app("Overload").unwrap();
    }

    fn on_operator_metric(
        &mut self,
        ctx: &mut OrcaCtx<'_>,
        e: &OperatorMetricContext,
        _scopes: &[String],
    ) {
        self.queue_samples.push((e.epoch, e.value));
        if e.value > self.threshold && self.acted_at_epoch.is_none() {
            self.acted_at_epoch = Some(e.epoch);
            // Stop the source PE outright: the backlog must drain.
            let src_pe = ctx.pe_of_operator(e.job, "src").unwrap();
            ctx.stop_pe(src_pe).unwrap();
        }
    }
}

#[test]
fn queue_growth_detected_and_actuation_drains_backlog() {
    let stores = SharedStores::new();
    let kernel = Kernel::new(
        Cluster::with_hosts(2),
        orca_apps::registry(&stores),
        // Budget small enough that 400 t/s × cost 40 = 16000 units/s
        // exceeds 10 quanta × 1000 = 10000 units/s.
        RuntimeConfig {
            pe_budget: 1000,
            ..Default::default()
        },
    );
    let mut world = World::new(kernel);
    let service = OrcaService::submit(
        &mut world.kernel,
        OrcaDescriptor::new("LoadOrca").app(overload_adl()),
        Box::new(LoadWatcher {
            threshold: 300,
            queue_samples: vec![],
            acted_at_epoch: None,
        }),
    );
    let idx = world.add_controller(Box::new(service));
    world.run_for(SimDuration::from_secs(60));

    let svc = world.controller::<OrcaService>(idx).unwrap();
    let logic = svc.logic::<LoadWatcher>().unwrap();
    assert!(
        logic.acted_at_epoch.is_some(),
        "queue must have crossed the threshold: {:?}",
        logic.queue_samples
    );
    // After actuation the queue drains to (near) zero.
    let last = logic.queue_samples.last().unwrap();
    assert!(last.1 < 50, "backlog should drain, got {last:?}");
    // And it really did grow before the action.
    let peak = logic.queue_samples.iter().map(|(_, v)| *v).max().unwrap();
    assert!(peak > 300);
}

/// Collects every delivered event's (instance, metric, epoch) triple.
#[derive(Default)]
struct EpochObserver {
    rows: Vec<(String, String, u64)>,
    poll_changed: bool,
}

impl Orchestrator for EpochObserver {
    fn on_start(&mut self, ctx: &mut OrcaCtx<'_>, _s: &OrcaStartContext) {
        ctx.register_event_scope(
            OperatorMetricScope::new("all")
                .add_metric("nTuplesProcessed")
                .add_metric("nTuplesSubmitted"),
        );
        ctx.set_metric_poll_period(SimDuration::from_secs(4));
        ctx.submit_app("Overload").unwrap();
    }

    fn on_operator_metric(
        &mut self,
        ctx: &mut OrcaCtx<'_>,
        e: &OperatorMetricContext,
        _scopes: &[String],
    ) {
        self.rows
            .push((e.instance_name.clone(), e.metric.clone(), e.epoch));
        // Halfway through, speed up polling (the §4.2 runtime change).
        if e.epoch == 2 && !self.poll_changed {
            self.poll_changed = true;
            ctx.set_metric_poll_period(SimDuration::from_secs(1));
        }
    }
}

#[test]
fn metric_rounds_share_epochs_and_poll_period_is_dynamic() {
    let stores = SharedStores::new();
    let kernel = Kernel::new(
        Cluster::with_hosts(1),
        orca_apps::registry(&stores),
        RuntimeConfig::default(),
    );
    let mut world = World::new(kernel);
    let service = OrcaService::submit(
        &mut world.kernel,
        OrcaDescriptor::new("EpochOrca").app(overload_adl()),
        Box::new(EpochObserver::default()),
    );
    let idx = world.add_controller(Box::new(service));
    world.run_for(SimDuration::from_secs(30));

    let svc = world.controller::<OrcaService>(idx).unwrap();
    let logic = svc.logic::<EpochObserver>().unwrap();
    assert!(logic.poll_changed);
    // Multiple operators & metrics observed within single epochs: group and
    // check each epoch has >1 row (all collected in the same SRM round).
    let mut per_epoch: std::collections::BTreeMap<u64, usize> = Default::default();
    for (_, _, e) in &logic.rows {
        *per_epoch.entry(*e).or_default() += 1;
    }
    assert!(per_epoch.len() >= 5, "epochs: {per_epoch:?}");
    assert!(per_epoch.values().all(|&n| n >= 2));
    // Faster polling after the change: epochs 3+ arrive ~1 s apart — so the
    // total epoch count exceeds what 4 s polling alone would allow (30/4≈8).
    assert!(
        per_epoch.len() > 8,
        "dynamic poll change should add rounds: {}",
        per_epoch.len()
    );
    let stats = svc.stats();
    assert!(stats.polls as usize >= per_epoch.len());
}

/// Sends a control punctuation into a running operator from the ORCA logic.
struct Controller2 {
    injected: bool,
}

impl Orchestrator for Controller2 {
    fn on_start(&mut self, ctx: &mut OrcaCtx<'_>, _s: &OrcaStartContext) {
        let job = ctx.submit_app("Overload").unwrap();
        // Inject a final punct straight into the sink: its builtin final
        // counter must tick without any upstream completion.
        ctx.inject(job, "snk", 0, StreamItem::Punct(Punct::Final))
            .unwrap();
        self.injected = true;
    }
}

#[test]
fn control_injection_reaches_operator() {
    let stores = SharedStores::new();
    let kernel = Kernel::new(
        Cluster::with_hosts(1),
        orca_apps::registry(&stores),
        RuntimeConfig::default(),
    );
    let mut world = World::new(kernel);
    let service = OrcaService::submit(
        &mut world.kernel,
        OrcaDescriptor::new("C").app(overload_adl()),
        Box::new(Controller2 { injected: false }),
    );
    world.add_controller(Box::new(service));
    world.run_for(SimDuration::from_secs(4));
    let job = world.kernel.sam.running_jobs()[0];
    let info = world.kernel.sam.job(job).unwrap();
    let sink_pe_idx = info.adl.operator("snk").unwrap().pe;
    let pe = info.pe_ids[sink_pe_idx];
    let metrics = world
        .kernel
        .cluster
        .process(pe)
        .unwrap()
        .runtime
        .metrics()
        .op_get("snk", "nFinalPunctsProcessed");
    assert_eq!(metrics, Some(1));
}

/// Missing submission-time parameter: the dependency-driven submission must
/// fail cleanly and abandon dependents, not panic.
struct MissingParamLogic;

impl Orchestrator for MissingParamLogic {
    fn on_start(&mut self, ctx: &mut OrcaCtx<'_>, _s: &OrcaStartContext) {
        // The Overload app has no ${...} params, so build a synthetic config
        // against an app that does: reuse the parameterized C3-style app via
        // params map mismatch — create a config with no params for an app
        // whose ADL contains a placeholder.
        ctx.register_app(parameterized_adl());
        ctx.create_app_config(orca::AppConfig::new("cfg", "Parameterized"))
            .unwrap();
        // request_start succeeds (planning), but the submission itself later
        // fails in ADL preparation; test the synchronous path via submit of
        // prepared config: emulate by requesting start and stepping.
        ctx.request_start("cfg").unwrap();
    }
}

fn parameterized_adl() -> Adl {
    let mut m = CompositeGraphBuilder::main();
    m.operator(
        "src",
        OperatorInvocation::new("Beacon")
            .source()
            .param("payload", "${flavor}"),
    );
    let model = AppModelBuilder::new("Parameterized")
        .build(m.build().unwrap())
        .unwrap();
    compile(&model, CompileOptions::default()).unwrap()
}

#[test]
fn missing_submission_param_fails_cleanly() {
    let stores = SharedStores::new();
    let kernel = Kernel::new(
        Cluster::with_hosts(1),
        orca_apps::registry(&stores),
        RuntimeConfig::default(),
    );
    let mut world = World::new(kernel);
    let service = OrcaService::submit(
        &mut world.kernel,
        OrcaDescriptor::new("MP"),
        Box::new(MissingParamLogic),
    );
    world.add_controller(Box::new(service));
    world.run_for(SimDuration::from_secs(2));
    // Nothing running, and the trace recorded the preparation failure.
    assert!(world.kernel.sam.running_jobs().is_empty());
    assert!(world
        .kernel
        .trace
        .first_match("ADL preparation for 'cfg' failed")
        .is_some());
}

/// Parameter substitution succeeds when the config provides the value.
struct GoodParamLogic;

impl Orchestrator for GoodParamLogic {
    fn on_start(&mut self, ctx: &mut OrcaCtx<'_>, _s: &OrcaStartContext) {
        ctx.register_app(parameterized_adl());
        ctx.create_app_config(
            orca::AppConfig::new("cfg", "Parameterized").param("flavor", "vanilla"),
        )
        .unwrap();
        ctx.request_start("cfg").unwrap();
    }
}

#[test]
fn submission_param_substitution_reaches_operator() {
    let stores = SharedStores::new();
    let kernel = Kernel::new(
        Cluster::with_hosts(1),
        orca_apps::registry(&stores),
        RuntimeConfig::default(),
    );
    let mut world = World::new(kernel);
    let service = OrcaService::submit(
        &mut world.kernel,
        OrcaDescriptor::new("GP"),
        Box::new(GoodParamLogic),
    );
    world.add_controller(Box::new(service));
    world.run_for(SimDuration::from_secs(3));
    let job = world.kernel.sam.running_jobs()[0];
    let info = world.kernel.sam.job(job).unwrap();
    // The placeholder was replaced in the submitted ADL.
    assert_eq!(
        info.adl.operator("src").unwrap().params["payload"],
        sps_model::Value::Str("vanilla".into())
    );
}

/// The §7 journal extension: transactions tie events to actuations.
struct JournaledLogic;

impl Orchestrator for JournaledLogic {
    fn on_start(&mut self, ctx: &mut OrcaCtx<'_>, _s: &OrcaStartContext) {
        ctx.register_event_scope(orca::PeFailureScope::new("f"));
        ctx.submit_app("Overload").unwrap();
    }
    fn on_pe_failure(&mut self, ctx: &mut OrcaCtx<'_>, e: &orca::PeFailureContext, _s: &[String]) {
        let _ = ctx.restart_pe(e.pe);
        ctx.set_status("last_failure", &e.pe.to_string());
    }
}

#[test]
fn journal_associates_actuations_with_event_transactions() {
    let stores = SharedStores::new();
    let kernel = Kernel::new(
        Cluster::with_hosts(1),
        orca_apps::registry(&stores),
        RuntimeConfig::default(),
    );
    let mut world = World::new(kernel);
    let service = OrcaService::submit(
        &mut world.kernel,
        OrcaDescriptor::new("J").app(overload_adl()),
        Box::new(JournaledLogic),
    );
    let idx = world.add_controller(Box::new(service));
    world.run_for(SimDuration::from_secs(1));
    let job = world.kernel.sam.running_jobs()[0];
    let pe = world.kernel.pe_id_of(job, 0).unwrap();
    world.kernel.kill_pe(pe).unwrap();
    world.run_for(SimDuration::from_secs(1));

    let svc = world.controller::<OrcaService>(idx).unwrap();
    let journal = svc.journal();
    assert!(!journal.is_empty());
    let failure_entry = journal
        .iter()
        .find(|e| e.event.starts_with("peFailure"))
        .expect("failure event journaled");
    // The restart actuation is tied to the failure event's transaction.
    assert!(failure_entry
        .actuations
        .iter()
        .any(|a| a.starts_with("restart(")));
    // Transaction ids are unique and monotonically increasing.
    let txns: Vec<u64> = journal.iter().map(|e| e.txn).collect();
    assert!(txns.windows(2).all(|w| w[0] < w[1]));
}

/// §4.2: "The ORCA service delivers each event only once, even when the
/// event matches more than one subscope" — with all matching keys attached.
#[derive(Default)]
struct OverlapLogic {
    deliveries: Vec<(String, u64, Vec<String>)>,
}

impl Orchestrator for OverlapLogic {
    fn on_start(&mut self, ctx: &mut OrcaCtx<'_>, _s: &OrcaStartContext) {
        // Two subscopes that both match the sink's nTuplesProcessed metric.
        ctx.register_event_scope(
            OperatorMetricScope::new("byInstance").add_operator_instance("snk"),
        );
        ctx.register_event_scope(
            OperatorMetricScope::new("byMetric").add_metric("nTuplesProcessed"),
        );
        ctx.set_metric_poll_period(SimDuration::from_secs(3));
        ctx.submit_app("Overload").unwrap();
    }

    fn on_operator_metric(
        &mut self,
        _ctx: &mut OrcaCtx<'_>,
        e: &OperatorMetricContext,
        scopes: &[String],
    ) {
        self.deliveries.push((
            format!("{}:{}", e.instance_name, e.metric),
            e.epoch,
            scopes.to_vec(),
        ));
    }
}

#[test]
fn overlapping_subscopes_deliver_once_with_all_keys() {
    let stores = SharedStores::new();
    let kernel = Kernel::new(
        Cluster::with_hosts(1),
        orca_apps::registry(&stores),
        RuntimeConfig::default(),
    );
    let mut world = World::new(kernel);
    let service = OrcaService::submit(
        &mut world.kernel,
        OrcaDescriptor::new("Ov").app(overload_adl()),
        Box::new(OverlapLogic::default()),
    );
    let idx = world.add_controller(Box::new(service));
    world.run_for(SimDuration::from_secs(8));
    let svc = world.controller::<OrcaService>(idx).unwrap();
    let logic = svc.logic::<OverlapLogic>().unwrap();
    assert!(!logic.deliveries.is_empty());
    // The doubly-matched event appears exactly once per epoch, with both
    // subscope keys.
    let doubly: Vec<_> = logic
        .deliveries
        .iter()
        .filter(|(what, _, _)| what == "snk:nTuplesProcessed")
        .collect();
    assert!(!doubly.is_empty());
    let mut epochs_seen = std::collections::BTreeSet::new();
    for (_, epoch, scopes) in &doubly {
        assert!(
            epochs_seen.insert(*epoch),
            "duplicate delivery in epoch {epoch}"
        );
        assert_eq!(
            scopes,
            &vec!["byInstance".to_string(), "byMetric".to_string()]
        );
    }
    // Singly-matched events carry a single key.
    assert!(logic
        .deliveries
        .iter()
        .any(|(what, _, scopes)| what != "snk:nTuplesProcessed" && scopes.len() == 1));
}

/// Port-level and PE-level metric scopes, end to end: the service must
/// convert `MetricKey::OperatorPort` and `MetricKey::Pe` observations into
/// their own event types with correct identities.
#[derive(Default)]
struct PortAndPeObserver {
    port_events: Vec<(String, usize, String, i64)>,
    pe_events: Vec<(u64, String, i64)>,
}

impl Orchestrator for PortAndPeObserver {
    fn on_start(&mut self, ctx: &mut OrcaCtx<'_>, _s: &OrcaStartContext) {
        ctx.register_event_scope(
            orca::OperatorPortMetricScope::new("ports")
                .add_operator_instance("work")
                .add_metric("nTuplesProcessed"),
        );
        ctx.register_event_scope(
            orca::PeMetricScope::new("peBytes").add_metric("nTupleBytesProcessed"),
        );
        ctx.set_metric_poll_period(SimDuration::from_secs(3));
        ctx.submit_app("Overload").unwrap();
    }

    fn on_operator_port_metric(
        &mut self,
        _ctx: &mut OrcaCtx<'_>,
        e: &orca::OperatorPortMetricContext,
        scopes: &[String],
    ) {
        assert_eq!(scopes, ["ports".to_string()]);
        self.port_events
            .push((e.instance_name.clone(), e.port, e.metric.clone(), e.value));
    }

    fn on_pe_metric(
        &mut self,
        _ctx: &mut OrcaCtx<'_>,
        e: &orca::PeMetricContext,
        scopes: &[String],
    ) {
        assert_eq!(scopes, ["peBytes".to_string()]);
        self.pe_events.push((e.pe.0, e.metric.clone(), e.value));
    }
}

#[test]
fn port_and_pe_metric_scopes_deliver_end_to_end() {
    let stores = SharedStores::new();
    let kernel = Kernel::new(
        Cluster::with_hosts(1),
        orca_apps::registry(&stores),
        RuntimeConfig::default(),
    );
    let mut world = World::new(kernel);
    let service = OrcaService::submit(
        &mut world.kernel,
        OrcaDescriptor::new("PP").app(overload_adl()),
        Box::new(PortAndPeObserver::default()),
    );
    let idx = world.add_controller(Box::new(service));
    world.run_for(SimDuration::from_secs(10));

    let svc = world.controller::<OrcaService>(idx).unwrap();
    let logic = svc.logic::<PortAndPeObserver>().unwrap();
    // Port events: only work:0 nTuplesProcessed (the registered filter).
    assert!(!logic.port_events.is_empty());
    for (op, port, metric, value) in &logic.port_events {
        assert_eq!(op, "work");
        assert_eq!(*port, 0);
        assert_eq!(metric, "nTuplesProcessed");
        assert!(*value > 0);
    }
    // PE events: bytes counters for every PE of the job, values grow.
    assert!(!logic.pe_events.is_empty());
    assert!(logic
        .pe_events
        .iter()
        .all(|(_, m, _)| m == "nTupleBytesProcessed"));
    assert!(logic.pe_events.iter().any(|(_, _, v)| *v > 0));
}

/// The Join operator through the full runtime: quotes and trades from two
/// sources joined per symbol across PE boundaries.
#[test]
fn windowed_join_pipeline_end_to_end() {
    let mut m = CompositeGraphBuilder::main();
    m.operator(
        "quotes",
        OperatorInvocation::new("TickSource")
            .source()
            .param("symbols", 2i64)
            .param("rate", 20.0)
            .param("seed", 5i64),
    );
    m.operator(
        "trades",
        OperatorInvocation::new("TickSource")
            .source()
            .param("symbols", 2i64)
            .param("rate", 20.0)
            .param("seed", 6i64),
    );
    m.operator(
        "join",
        OperatorInvocation::new("Join")
            .ports(2, 1)
            .param("key", "sym")
            .param("window_secs", 2.0),
    );
    m.operator(
        "snk",
        OperatorInvocation::new("Sink")
            .sink()
            .param("keep", 2048i64),
    );
    m.stream("quotes", 0, "join", 0);
    m.stream("trades", 0, "join", 1);
    m.pipe("join", "snk");
    let model = AppModelBuilder::new("JoinApp")
        .build(m.build().unwrap())
        .unwrap();
    let adl = compile(&model, CompileOptions::default()).unwrap();

    let stores = SharedStores::new();
    let mut kernel = Kernel::new(
        Cluster::with_hosts(2),
        orca_apps::registry(&stores),
        RuntimeConfig::default(),
    );
    let job = kernel.submit_job(adl, None).unwrap();
    for _ in 0..100 {
        kernel.quantum();
    }
    let out = kernel.tap(job, "snk").unwrap();
    assert!(!out.is_empty(), "join must produce matches across PEs");
    // Joined tuples carry the key plus prefixed collision attributes from
    // both sides (price and ts collide).
    for t in &out {
        assert!(t.get_str("sym").is_some());
        assert!(t.get("l_price").is_some() && t.get("r_price").is_some());
    }
}
