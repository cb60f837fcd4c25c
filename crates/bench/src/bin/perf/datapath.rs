//! The `datapath` workload: a fault-free `Beacon -> 8 x Functor -> Sink`
//! pipeline at ~500 tuples per quantum, stepped on a bare kernel (no world,
//! no ORCA) — once fused into a single PE, once with one PE per operator.
//! The fused phase never touches codec or transport, so per hop
//! (unfused - fused) is the transfer-versus-execution split.

use crate::clock::Tick;
use crate::run::Block;
use crate::spec::{
    DATAPATH_HOSTS, DATAPATH_RATE, DATAPATH_SLICES, DATAPATH_SLICE_QUANTA, DATAPATH_STAGES,
    DATAPATH_TUPLES_PER_QUANTUM,
};
use crate::trace::Tracer;
use sps_engine::metrics::builtin;
use sps_engine::OperatorRegistry;
use sps_model::compiler::{compile, CompileOptions, FusionPolicy};
use sps_model::logical::{AppModelBuilder, CompositeGraphBuilder, OperatorInvocation};
use sps_model::Adl;
use sps_runtime::{Cluster, JobId, Kernel, RuntimeConfig};
use sps_sim::{fnv1a, FNV_OFFSET};

/// Quanta a tuple needs from source to sink with one PE per operator: one
/// quantum of transport latency per hop. Pinned: a transport change that
/// moves it must say so.
const UNFUSED_LAG_QUANTA: u64 = DATAPATH_STAGES as u64 + 1;

pub fn pipeline(fusion: FusionPolicy) -> Adl {
    let mut m = CompositeGraphBuilder::main();
    m.operator(
        "src",
        OperatorInvocation::new("Beacon")
            .source()
            .param("rate", DATAPATH_RATE),
    );
    let mut prev = "src".to_string();
    for i in 0..DATAPATH_STAGES {
        let name = format!("f{i}");
        m.operator(
            &name,
            OperatorInvocation::new("Functor").param("set:v", "seq * 2"),
        );
        m.pipe(&prev, &name);
        prev = name;
    }
    m.operator("snk", OperatorInvocation::new("Sink").sink());
    m.pipe(&prev, "snk");
    let model = AppModelBuilder::new("Pipe")
        .build(m.build().expect("pipeline graph is well-formed"))
        .expect("pipeline model is well-formed");
    compile(&model, CompileOptions { fusion }).expect("pipeline compiles")
}

pub fn kernel(seed: u64, hosts: usize) -> Kernel {
    Kernel::new(
        Cluster::with_hosts(hosts),
        OperatorRegistry::with_builtins(),
        RuntimeConfig {
            pe_budget: 1_000_000,
            seed,
            ..Default::default()
        },
    )
}

pub struct Datapath {
    seed: u64,
    fused: Adl,
    unfused: Adl,
    slices: usize,
}

impl Datapath {
    pub fn new(seed: u64, smoke: bool) -> Datapath {
        Datapath {
            seed,
            fused: pipeline(FusionPolicy::FuseAll),
            unfused: pipeline(FusionPolicy::Colocation),
            slices: if smoke { 2 } else { DATAPATH_SLICES },
        }
    }

    /// Two fresh kernels, `slices` operations of one fused then one unfused
    /// slice, then the output check.
    pub fn run_block(&self, index: usize, mut tracer: Option<&mut Tracer>) -> Block {
        let start = Tick::now();
        let mut fused = kernel(self.seed, DATAPATH_HOSTS);
        let fused_job = fused
            .submit_job(self.fused.clone(), None)
            .expect("fused pipeline places");
        let mut unfused = kernel(self.seed, DATAPATH_HOSTS);
        let unfused_job = unfused
            .submit_job(self.unfused.clone(), None)
            .expect("unfused pipeline places");

        let mut block = Block::default();
        for s in 0..self.slices {
            let t0 = Tick::now();
            match tracer.as_deref_mut() {
                Some(tr) => {
                    tr.plan_id = (index * self.slices + s) as u32;
                    tr.span("plan", |tr| {
                        tr.span("runtime.kernel.fused", |tr| slice_traced(&mut fused, tr));
                        tr.span("runtime.kernel.unfused", |tr| {
                            slice_traced(&mut unfused, tr)
                        });
                    })
                }
                None => {
                    slice(&mut fused);
                    slice(&mut unfused);
                }
            };
            block.plan_ms.push(Tick::now().since(t0) as f64 / 1e6);
        }
        let quanta = (self.slices * DATAPATH_SLICE_QUANTA) as u64;
        block.plans = self.slices;
        block.quanta = 2 * quanta;

        let fused_count = sink_count(&fused, fused_job);
        let unfused_count = sink_count(&unfused, unfused_job);
        let expected_fused = quanta * DATAPATH_TUPLES_PER_QUANTUM;
        let expected_unfused =
            quanta.saturating_sub(UNFUSED_LAG_QUANTA) * DATAPATH_TUPLES_PER_QUANTUM;
        block.sink_tuples = fused_count + unfused_count;
        block.digest = fnv1a(
            fnv1a(FNV_OFFSET, &fused_count.to_le_bytes()),
            &unfused_count.to_le_bytes(),
        );
        let problem = if fused_count != expected_fused {
            Some(format!(
                "fused sink processed {fused_count}, expected {expected_fused}"
            ))
        } else if unfused_count != expected_unfused {
            Some(format!(
                "unfused sink processed {unfused_count}, expected {expected_unfused}"
            ))
        } else {
            bad_tuple(&fused, fused_job).or_else(|| bad_tuple(&unfused, unfused_job))
        };
        if let Some(p) = problem {
            block.failed = block.plans;
            block.first_violation = Some(p);
        }
        block.wall_ns = Tick::now().since(start);
        block
    }
}

fn slice(kernel: &mut Kernel) {
    for _ in 0..DATAPATH_SLICE_QUANTA {
        kernel.quantum();
    }
}

/// [`slice`] with every quantum folded into the tracer.
fn slice_traced(kernel: &mut Kernel, tr: &mut Tracer) {
    for _ in 0..DATAPATH_SLICE_QUANTA {
        let t0 = Tick::now();
        kernel.quantum();
        tr.kernel.add(Tick::now().since(t0));
    }
}

fn sink_count(kernel: &Kernel, job: JobId) -> u64 {
    kernel
        .op_metric(job, "snk", builtin::N_TUPLES_PROCESSED)
        .unwrap_or(0)
        .max(0) as u64
}

/// First retained sink tuple whose `v` is not `seq * 2`.
fn bad_tuple(kernel: &Kernel, job: JobId) -> Option<String> {
    let tuples = kernel.tap(job, "snk").unwrap_or_default();
    if tuples.is_empty() {
        return Some("sink retained no tuples".to_string());
    }
    tuples.iter().find_map(|t| {
        let (seq, v) = (t.get_int("seq"), t.get_int("v"));
        (seq.is_none() || v != seq.map(|s| s * 2)).then(|| format!("sink tuple {t:?}: v != seq*2"))
    })
}
