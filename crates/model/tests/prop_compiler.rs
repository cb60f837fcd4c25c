//! Property tests for the compiler: over randomly generated (valid) logical
//! models, compilation must succeed and its output must satisfy the
//! partitioning invariants the runtime and orchestrator rely on.

#![forbid(unsafe_code)]

use proptest::prelude::*;
use sps_model::compiler::{compile, CompileOptions, FusionPolicy};
use sps_model::logical::{AppModelBuilder, CompositeGraphBuilder, OperatorInvocation};
use sps_model::GraphStore;

/// Specification of a random but well-formed application:
/// a chain of operator groups; each group is either a plain operator or an
/// instance of one of up to three composite types (each a small chain);
/// random colocation tags drawn from a small pool.
#[derive(Debug, Clone)]
struct ModelSpec {
    /// Per main-graph node: None = plain operator, Some(t) = composite type t.
    nodes: Vec<Option<usize>>,
    /// Colocation tag index per node (plain operators only), from a pool of 3.
    colocate: Vec<Option<usize>>,
    /// Ops per composite body (1..4), per composite type.
    comp_sizes: [usize; 3],
    fusion_target: usize,
}

fn arb_spec() -> impl Strategy<Value = ModelSpec> {
    (
        prop::collection::vec(
            (prop::option::of(0usize..3), prop::option::of(0usize..3)),
            1..12,
        ),
        prop::array::uniform3(1usize..4),
        1usize..6,
    )
        .prop_map(|(node_specs, comp_sizes, fusion_target)| {
            let (nodes, colocate) = node_specs.into_iter().unzip();
            ModelSpec {
                nodes,
                colocate,
                comp_sizes,
                fusion_target,
            }
        })
}

fn build(spec: &ModelSpec) -> sps_model::AppModel {
    let mut builder = AppModelBuilder::new("Rand");
    for (t, size) in spec.comp_sizes.iter().enumerate() {
        let mut c = CompositeGraphBuilder::new(&format!("ct{t}"), 1, 1);
        for i in 0..*size {
            c.operator(&format!("w{i}"), OperatorInvocation::new("Work"));
            if i > 0 {
                c.pipe(&format!("w{}", i - 1), &format!("w{i}"));
            }
        }
        c.bind_input(0, "w0", 0);
        c.bind_output(&format!("w{}", size - 1), 0);
        builder.add_composite(c.build().unwrap()).unwrap();
    }

    let mut m = CompositeGraphBuilder::main();
    m.operator(
        "src",
        OperatorInvocation::new("Beacon")
            .source()
            .param("rate", 10.0),
    );
    let mut prev = "src".to_string();
    for (i, node) in spec.nodes.iter().enumerate() {
        let name = format!("n{i}");
        match node {
            Some(t) => {
                m.composite(&name, &format!("ct{t}"));
            }
            None => {
                let mut inv = OperatorInvocation::new("Functor");
                if let Some(tag) = spec.colocate[i] {
                    inv = inv.colocate(&format!("grp{tag}"));
                }
                m.operator(&name, inv);
            }
        }
        m.pipe(&prev, &name);
        prev = name;
    }
    m.operator("snk", OperatorInvocation::new("Sink").sink());
    m.pipe(&prev, "snk");
    builder.build(m.build().unwrap()).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn compilation_succeeds_and_validates(spec in arb_spec()) {
        let model = build(&spec);
        for fusion in [
            FusionPolicy::Colocation,
            FusionPolicy::FuseAll,
            FusionPolicy::Target(spec.fusion_target),
        ] {
            let adl = compile(&model, CompileOptions { fusion }).unwrap();
            // The compiler's own postcondition plus structural validation.
            prop_assert!(adl.validate().is_ok());
            // Expected operator count: 1 src + nodes (expanded) + 1 sink.
            let expanded: usize = spec
                .nodes
                .iter()
                .map(|n| n.map_or(1, |t| spec.comp_sizes[t]))
                .sum();
            prop_assert_eq!(adl.operators.len(), expanded + 2);
            // Every operator is in exactly one PE listing.
            let listed: usize = adl.pes.iter().map(|pe| pe.operators.len()).sum();
            prop_assert_eq!(listed, adl.operators.len());
        }
    }

    #[test]
    fn colocation_tags_share_pes(spec in arb_spec()) {
        let model = build(&spec);
        let adl = compile(&model, CompileOptions::default()).unwrap();
        // All plain operators with the same tag landed in one PE.
        for tag in 0..3 {
            let members: Vec<usize> = spec
                .nodes
                .iter()
                .enumerate()
                .filter(|(i, n)| n.is_none() && spec.colocate[*i] == Some(tag))
                .map(|(i, _)| adl.pe_of(&format!("n{i}")).unwrap())
                .collect();
            for w in members.windows(2) {
                prop_assert_eq!(w[0], w[1], "tag grp{} split across PEs", tag);
            }
        }
    }

    #[test]
    fn fuse_all_yields_single_pe_and_target_bounds(spec in arb_spec()) {
        let model = build(&spec);
        let all = compile(
            &model,
            CompileOptions { fusion: FusionPolicy::FuseAll },
        )
        .unwrap();
        prop_assert_eq!(all.pes.len(), 1);

        let target = compile(
            &model,
            CompileOptions { fusion: FusionPolicy::Target(spec.fusion_target) },
        )
        .unwrap();
        // The chain is fully connected, so greedy merging always reaches the
        // target (no exlocation/pool constraints in these models).
        prop_assert!(target.pes.len() <= spec.fusion_target.max(1));
    }

    #[test]
    fn graph_store_agrees_with_adl(spec in arb_spec()) {
        let model = build(&spec);
        let adl = compile(
            &model,
            CompileOptions { fusion: FusionPolicy::Target(spec.fusion_target) },
        )
        .unwrap();
        let g = GraphStore::from_adl(&adl);
        prop_assert_eq!(g.num_operators(), adl.operators.len());
        prop_assert_eq!(g.num_pes(), adl.pes.len());
        // Composite membership: ops named with a composite prefix are
        // recursively contained in that composite's type.
        for op in &adl.operators {
            if let Some((inst, _)) = op.composite_path.first() {
                let ty = &op.composite_path.first().unwrap().1;
                prop_assert!(g.op_in_composite_type(&op.name, ty));
                prop_assert!(g.op_in_composite_instance(&op.name, inst));
            }
        }
        // The stream chain is intact: src reaches snk through downstream
        // adjacency (graph is a single path through expanded composites).
        let mut current = "src".to_string();
        let mut hops = 0;
        while current != "snk" {
            let next = g.downstream_of(&current);
            prop_assert_eq!(next.len(), 1, "chain must not fork at {}", current);
            current = next[0].0.name.clone();
            hops += 1;
            prop_assert!(hops <= adl.operators.len(), "cycle detected");
        }
    }
}
