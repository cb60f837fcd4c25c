//! Shared fixtures for the benchmark suite and the figure-regeneration
//! harness binaries.
//!
//! # The surface `perf/` pins
//!
//! The benchmark binary, `src/bin/perf/`, is frozen: it is built from its
//! files as they stand, so every name it uses must keep compiling with the
//! meaning it uses it with. How the code behind a name works is not pinned.
//! From a read of `perf/*.rs`, by crate:
//!
//! - `sps_runtime`: `Cluster`, `Controller`, `Kernel`, `World`, `JobId`,
//!   `MetaOp`, `MetaTables::{default, apply, digest}`, the trait `Metastore`
//!   (`apply`, `recover`), `ReplicatedMetastore::new(seed)`, and
//!   `RuntimeConfig` (`seed`, `pe_budget`, `quantum`, `checkpoint`,
//!   `metastore`, `restart_delay`, `liveness_deadline`).
//!   `Kernel`'s fields `config`, `ckpt`, `sam`, `trace` and `cluster`; its
//!   methods `submit_job`, `quantum`, `restart_pe`, `kill_pe`, `pe_id_of`,
//!   `tap`, `restart_log`, `op_metric`, `ub_stats` and `control_stats`;
//!   `Sam::{job, running_jobs, metastore_stats}`.
//! - `sps_sim`: `TraceRing::{new, push, digest}`, `Scheduler::{new,
//!   schedule_at, pop}`, `SimRng`, `SimTime`, `SimDuration`, `fnv1a`,
//!   `FNV_OFFSET`, `DigestWriter`.
//! - `sps_engine`: `codec::{decode_batch, TupleCodec}`, `OperatorRegistry`,
//!   `PeRuntime`, `Tuple`, `metrics::builtin`.
//! - `sps_model`: `Adl`, `compiler::{compile, CompileOptions,
//!   FusionPolicy}`, `logical::{AppModelBuilder, CompositeGraphBuilder,
//!   OperatorInvocation}`.
//! - `orca`: `OrcaDescriptor`, `OrcaService`, `Orchestrator`, `OrcaCtx`,
//!   `OrcaStartContext`, `OperatorMetricContext`, `OperatorMetricScope`,
//!   `PeFailureContext`, `PeFailureScope`.
//! - `orca_apps`: `registry`, `SharedStores`, `sentiment::{sentiment_app,
//!   SentimentOrca, SentimentParams}`, `social::{c1_app, c2_app, c3_app,
//!   CompositionOrca}`, `trend::{trend_app, TrendOrca, TrendParams}`.
//! - `orca_harness`: `by_name`, `default_oracles(bool, bool, bool)`,
//!   `plan_seeds`, `run_plan`, `run_campaign_cached`, `quiescent`,
//!   `render_artifacts_to`, `BaselineCache`, `BaselineKey`, `BaselineSource`,
//!   `BaselineSummary`, `Built`, `CampaignConfig` (`plans`, `seed`,
//!   `checkpoint`, `metastore`, `control_faults`), `CheckpointPolicy`,
//!   `FaultAction`, `FaultInjector`, `FaultPlan`, `Janitor`,
//!   `MetastoreKind::Replicated`, `Oracle`, `OracleCtx`, `PlanOutcome`,
//!   `Scenario`, `StorageModel`, `Violation`, and `WorldPolicy`
//!   (`checkpoint`, `metastore`).
//! - `orca_bench` (this crate): [`nested_app`].
//!
//! A refactor keeps a pinned name as a thin alias or constructor and keeps
//! nothing else on `perf/`'s account: `ReplicatedMetastore` is an alias of
//! the one store type, and its `new(seed)` ignores the seed. Every store
//! keeps its op log, so `MetastoreKind` has the one variant and the
//! `metastore` fields of `RuntimeConfig`, `WorldPolicy` and `CampaignConfig`
//! set nothing. A trait that
//! `perf/` imports only to call its methods must stay a trait that carries
//! those methods. Were `Metastore` a type alias, `perf/`'s import of it would
//! be unused and `cargo clippy --workspace --all-targets -- -D warnings`
//! would fail. CI's stand-alone build of `perf/` and that lint check the
//! list.

#![forbid(unsafe_code)]

use sps_model::adl::Adl;
use sps_model::compiler::{compile, CompileOptions, FusionPolicy};
use sps_model::logical::{AppModelBuilder, CompositeGraphBuilder, OperatorInvocation};
use sps_model::GraphStore;

/// Builds an application whose graph nests `width` composite instances of
/// `depth` levels, each leaf holding `ops_per_leaf` worker operators — a
/// scalable stand-in for large production topologies.
pub fn nested_app(width: usize, depth: usize, ops_per_leaf: usize) -> Adl {
    let mut builder = AppModelBuilder::new("Nested");

    // Leaf composite: a chain of workers.
    let mut leaf = CompositeGraphBuilder::new("level0", 1, 1);
    for i in 0..ops_per_leaf {
        leaf.operator(
            &format!("w{i}"),
            OperatorInvocation::new(if i % 2 == 0 { "Work" } else { "Functor" }),
        );
        if i > 0 {
            leaf.pipe(&format!("w{}", i - 1), &format!("w{i}"));
        }
    }
    leaf.bind_input(0, "w0", 0);
    leaf.bind_output(&format!("w{}", ops_per_leaf - 1), 0);
    builder.add_composite(leaf.build().unwrap()).unwrap();

    // Wrapper composites level1..level{depth-1}.
    for level in 1..depth {
        let mut c = CompositeGraphBuilder::new(&format!("level{level}"), 1, 1);
        c.composite("inner", &format!("level{}", level - 1));
        c.bind_input(0, "inner", 0);
        c.bind_output("inner", 0);
        builder.add_composite(c.build().unwrap()).unwrap();
    }

    let top = format!("level{}", depth - 1);
    let mut m = CompositeGraphBuilder::main();
    m.operator(
        "src",
        OperatorInvocation::new("Beacon")
            .source()
            .param("rate", 100.0),
    );
    for i in 0..width {
        m.composite(&format!("branch{i}"), &top);
        m.operator(&format!("sink{i}"), OperatorInvocation::new("Sink").sink());
        m.pipe("src", &format!("branch{i}"));
        m.pipe(&format!("branch{i}"), &format!("sink{i}"));
    }
    let model = builder.build(m.build().unwrap()).unwrap();
    compile(
        &model,
        CompileOptions {
            fusion: FusionPolicy::Target(width.max(2)),
        },
    )
    .unwrap()
}

/// Graph store plus a full queueSize metric snapshot for every operator.
pub fn graph_with_metrics(
    width: usize,
    depth: usize,
    ops_per_leaf: usize,
) -> (GraphStore, Vec<(String, String, i64)>) {
    let adl = nested_app(width, depth, ops_per_leaf);
    let graph = GraphStore::from_adl(&adl);
    let metrics: Vec<(String, String, i64)> = graph
        .operators()
        .enumerate()
        .map(|(i, o)| (o.name.clone(), "queueSize".to_string(), i as i64))
        .collect();
    (graph, metrics)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_app_scales_as_requested() {
        let adl = nested_app(4, 3, 5);
        // 1 source + 4 branches × 5 leaf ops + 4 sinks.
        assert_eq!(adl.operators.len(), 1 + 4 * 5 + 4);
        let graph = GraphStore::from_adl(&adl);
        // Deepest chain: branch0 → branch0.inner → branch0.inner.inner.
        let leaf_op = graph.operators().find(|o| o.name.ends_with(".w0")).unwrap();
        assert_eq!(leaf_op.composite_chain.len(), 3);
        assert!(graph.op_in_composite_type(&leaf_op.name, "level2"));
        assert!(graph.op_in_composite_type(&leaf_op.name, "level0"));
    }

    #[test]
    fn metrics_cover_every_operator() {
        let (graph, metrics) = graph_with_metrics(2, 2, 3);
        assert_eq!(metrics.len(), graph.num_operators());
    }
}
