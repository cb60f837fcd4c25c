//! Integration: logical vs. physical disambiguation (paper Figures 2/3 and
//! §4.2 inspection queries), end to end through compile → submit → inspect.

#![forbid(unsafe_code)]

use orca::sqlbase::Tables;
use orca::{OperatorMetricScope, OrcaDescriptor, OrcaService};
use orca_apps::SharedStores;
use sps_model::compiler::{compile, CompileOptions, FusionPolicy};
use sps_model::logical::{AppModelBuilder, CompositeGraphBuilder, OperatorInvocation};
use sps_model::{Adl, GraphStore};
use sps_runtime::{Cluster, Kernel, RuntimeConfig, World};
use sps_sim::SimDuration;

/// The Figure 2 application: two sources each feeding an instance of the
/// split/merge composite, each feeding a sink. With `figure3_tags`, the
/// composite body carries colocation tags; since both instances share the
/// tags, the compiler fuses operators from *different* composite instances
/// into the same PEs while splitting each instance across two PEs — the
/// exact Figure 3 phenomenon.
fn figure2_adl_tagged(fusion: FusionPolicy, figure3_tags: bool) -> Adl {
    let mut c = CompositeGraphBuilder::new("composite1", 1, 1);
    let tag = |inv: OperatorInvocation, t: &str| {
        if figure3_tags {
            inv.colocate(t)
        } else {
            inv
        }
    };
    c.operator(
        "op3",
        tag(OperatorInvocation::new("Split").ports(1, 2), "peA"),
    );
    c.operator("op4", tag(OperatorInvocation::new("Work"), "peA"));
    c.operator("op5", tag(OperatorInvocation::new("Work"), "peB"));
    c.operator(
        "op6",
        tag(OperatorInvocation::new("Merge").ports(2, 1), "peB"),
    );
    c.stream("op3", 0, "op4", 0);
    c.stream("op3", 1, "op5", 0);
    c.stream("op4", 0, "op6", 0);
    c.stream("op5", 0, "op6", 1);
    c.bind_input(0, "op3", 0);
    c.bind_output("op6", 0);

    let mut app = AppModelBuilder::new("Figure2");
    app.add_composite(c.build().unwrap()).unwrap();
    let mut m = CompositeGraphBuilder::main();
    m.operator(
        "op1",
        OperatorInvocation::new("Beacon")
            .source()
            .param("rate", 30.0),
    );
    m.operator(
        "op2",
        OperatorInvocation::new("Beacon")
            .source()
            .param("rate", 30.0),
    );
    m.composite("c1", "composite1");
    m.composite("c2", "composite1");
    m.operator("op7", OperatorInvocation::new("Sink").sink());
    m.operator("op8", OperatorInvocation::new("Sink").sink());
    m.pipe("op1", "c1");
    m.pipe("op2", "c2");
    m.pipe("c1", "op7");
    m.pipe("c2", "op8");
    let model = app.build(m.build().unwrap()).unwrap();
    compile(&model, CompileOptions { fusion }).unwrap()
}

fn figure2_adl(fusion: FusionPolicy) -> Adl {
    figure2_adl_tagged(fusion, false)
}

#[test]
fn figure2_app_runs_end_to_end_and_data_reaches_both_sinks() {
    let stores = SharedStores::new();
    let mut kernel = Kernel::new(
        Cluster::with_hosts(2),
        orca_apps::registry(&stores),
        RuntimeConfig::default(),
    );
    let job = kernel
        .submit_job(figure2_adl(FusionPolicy::Target(3)), None)
        .unwrap();
    for _ in 0..100 {
        kernel.quantum();
    }
    // Round-robin split + merge: both branches deliver.
    let s7 = kernel.tap(job, "op7").unwrap();
    let s8 = kernel.tap(job, "op8").unwrap();
    assert!(!s7.is_empty(), "c1 pipeline should deliver to op7");
    assert!(!s8.is_empty(), "c2 pipeline should deliver to op8");
}

#[test]
fn compiled_physical_layout_needs_disambiguation() {
    // With shared colocation tags the compiler fuses operators of both
    // composite instances into the same PEs while splitting each instance
    // across two PEs — the paper's Figure 3 premise.
    let adl = figure2_adl_tagged(FusionPolicy::Colocation, true);
    let graph = GraphStore::from_adl(&adl);
    // Both instances share PE peA and PE peB…
    let shared = (0..graph.num_pes()).any(|pe| graph.composites_in_pe(pe).len() > 1);
    assert!(shared, "composite instances must share a PE");
    // …and each instance is split across two PEs.
    assert_eq!(graph.pes_of_composite_instance("c1").len(), 2);
    assert_eq!(graph.pes_of_composite_instance("c2").len(), 2);
    // Same-PE queries disambiguate: c1.op3 and c2.op3 share a PE but have
    // different enclosing composite instances.
    assert_eq!(
        graph.pe_of_operator("c1.op3"),
        graph.pe_of_operator("c2.op3")
    );
    assert_ne!(
        graph.enclosing_composite("c1.op3").unwrap().path,
        graph.enclosing_composite("c2.op3").unwrap().path
    );
}

#[test]
fn orchestrator_inspection_disambiguates_composites() {
    struct Inspect {
        report: Vec<(String, Vec<String>)>,
    }
    impl orca::Orchestrator for Inspect {
        fn on_start(&mut self, ctx: &mut orca::OrcaCtx<'_>, _s: &orca::OrcaStartContext) {
            let job = ctx.submit_app("Figure2").unwrap();
            // For each operator of interest ask "which PE?" then "which
            // composites reside in that PE?" (§4.2 inspection queries).
            for op in ["c1.op3", "c2.op3", "op1"] {
                let pe = ctx.pe_of_operator(job, op).unwrap();
                let comps = ctx.composites_in_pe(pe);
                self.report.push((op.to_string(), comps));
            }
            // Enclosing composite of a nested op.
            assert_eq!(
                ctx.enclosing_composite(job, "c1.op4").as_deref(),
                Some("c1")
            );
            assert_eq!(ctx.enclosing_composite(job, "op1"), None);
        }
    }

    let stores = SharedStores::new();
    let kernel = Kernel::new(
        Cluster::with_hosts(2),
        orca_apps::registry(&stores),
        RuntimeConfig::default(),
    );
    let mut world = World::new(kernel);
    let service = OrcaService::submit(
        &mut world.kernel,
        OrcaDescriptor::new("I").app(figure2_adl(FusionPolicy::Target(3))),
        Box::new(Inspect { report: vec![] }),
    );
    let idx = world.add_controller(Box::new(service));
    world.run_for(SimDuration::from_millis(200));
    let svc = world.controller::<OrcaService>(idx).unwrap();
    let logic = svc.logic::<Inspect>().unwrap();
    assert_eq!(logic.report.len(), 3);
    // c1.op3's PE contains composite c1 (at least).
    assert!(logic.report[0].1.contains(&"c1".to_string()));
}

#[test]
fn figure5_scope_equals_recursive_sql_on_compiled_app() {
    let adl = figure2_adl(FusionPolicy::Colocation);
    let graph = GraphStore::from_adl(&adl);
    // Simulated metric snapshot: queueSize for every operator.
    let metrics: Vec<(String, String, i64)> = graph
        .operators()
        .enumerate()
        .map(|(i, o)| (o.name.clone(), "queueSize".to_string(), i as i64))
        .collect();
    let scope = OperatorMetricScope::new("oms")
        .add_composite_type("composite1")
        .add_operator_type("Split")
        .add_operator_type("Merge")
        .add_metric("queueSize");
    let mut via_scope: Vec<String> = metrics
        .iter()
        .filter(|(op, m, _)| scope.matches("Figure2", &graph, op, m))
        .map(|(op, _, _)| op.clone())
        .collect();
    via_scope.sort();
    // Exactly the paper's set: op3/op6 in both instances.
    assert_eq!(via_scope, vec!["c1.op3", "c1.op6", "c2.op3", "c2.op6"]);

    let tables = Tables::from_graph(&graph, &metrics);
    let mut via_sql: Vec<String> = tables
        .recursive_containment_query("queueSize", &["Split", "Merge"], "composite1")
        .into_iter()
        .map(|(op, _)| op)
        .collect();
    via_sql.sort();
    assert_eq!(via_scope, via_sql);
}
