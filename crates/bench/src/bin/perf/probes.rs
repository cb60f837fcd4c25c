//! Isolated probes: one public function of one layer each, in a timed loop
//! on inputs shaped like a workload's, median of [`REPS`] repetitions.
//! They say what a layer costs by itself; the in-situ folds say how much of
//! a plan it is.

use crate::calib;
use crate::clock::Tick;
use crate::datapath;
use crate::spec::{DATAPATH_HOSTS, DATAPATH_TUPLES_PER_QUANTUM};
use crate::stats::median;
use orca::{
    OperatorMetricContext, OperatorMetricScope, OrcaCtx, OrcaDescriptor, OrcaService,
    OrcaStartContext, Orchestrator, PeFailureContext, PeFailureScope,
};
use orca_apps::social::c1_app;
use orca_apps::trend::{trend_app, TrendParams};
use orca_apps::SharedStores;
use orca_bench::nested_app;
use sps_engine::codec::{decode_batch, TupleCodec};
use sps_engine::{OperatorRegistry, PeRuntime, Tuple};
use sps_model::compiler::{compile, CompileOptions, FusionPolicy};
use sps_model::logical::{AppModelBuilder, CompositeGraphBuilder, OperatorInvocation};
use sps_model::Adl;
use sps_runtime::{
    Cluster, JobId, Kernel, MetaOp, MetaTables, Metastore, ReplicatedMetastore, RuntimeConfig,
    World,
};
use sps_sim::{Scheduler, SimDuration, SimRng, SimTime, TraceRing};
use std::collections::BTreeMap;
use std::hint::black_box;

const REPS: usize = 5;

/// Median over [`REPS`] calls of `rep`, which times its own inner loop and
/// returns nanoseconds per unit of work; each is taken at reference speed.
fn probe(mut rep: impl FnMut() -> f64) -> f64 {
    let values: Vec<f64> = (0..REPS)
        .map(|_| {
            let (value, slowdown) = calib::measured(&mut rep);
            value / slowdown
        })
        .collect();
    median(&values)
}

/// Nanoseconds per call of `f` over `iters` calls.
fn per_call(iters: usize, mut f: impl FnMut()) -> f64 {
    let t0 = Tick::now();
    for _ in 0..iters {
        f();
    }
    Tick::now().since(t0) as f64 / iters as f64
}

/// Runs every probe; `seed` only picks RNG streams, never the shapes.
pub fn run_all(seed: u64, smoke: bool) -> BTreeMap<&'static str, f64> {
    // Smoke runs only prove the probes execute.
    let scale = if smoke { 50 } else { 1 };
    let mut out = BTreeMap::new();
    codec(&mut out, seed, 4000 / scale);
    pe_step(&mut out, seed, 60 / scale);
    checkpoint(&mut out, seed, 2000 / scale);
    metastore(&mut out, seed, 20_000 / scale);
    kernel_ops(&mut out, seed, 40 / scale);
    idle_hosts(&mut out, seed, 400 / scale);
    service(&mut out, smoke);
    sim(&mut out, seed, 50_000 / scale);
    out.insert(
        "model.compiler.compile_us",
        probe(|| {
            per_call((200 / scale).max(1), || {
                black_box(c1_app("TwitterStreamReader", "twitter", 80.0, seed ^ 21));
            }) / 1e3
        }),
    );
    out
}

/// Real datapath tuples: what the sink of the fused pipeline retained.
fn datapath_tuples(seed: u64) -> Vec<Tuple> {
    let mut kernel = datapath::kernel(seed, DATAPATH_HOSTS);
    let job = kernel
        .submit_job(datapath::pipeline(FusionPolicy::FuseAll), None)
        .expect("fused pipeline places");
    for _ in 0..2 {
        kernel.quantum();
    }
    let mut tuples = kernel.tap(job, "snk").expect("pipeline has a sink");
    tuples.truncate(64);
    assert_eq!(tuples.len(), 64, "sink retains at least one 64-tuple batch");
    tuples
}

fn codec(out: &mut BTreeMap<&'static str, f64>, seed: u64, iters: usize) {
    let iters = iters.max(1);
    let tuples = datapath_tuples(seed);
    let mut codec = TupleCodec::new();
    out.insert(
        "engine.codec.encode_ns_per_tuple",
        probe(|| {
            per_call(iters, || {
                black_box(codec.encode_batch(black_box(&tuples)));
            }) / tuples.len() as f64
        }),
    );
    let payload = codec.encode_batch(&tuples);
    out.insert(
        "engine.codec.decode_ns_per_tuple",
        probe(|| {
            per_call(iters, || {
                black_box(decode_batch(payload.clone()).expect("payload round-trips"));
            }) / tuples.len() as f64
        }),
    );
}

fn pe_step(out: &mut BTreeMap<&'static str, f64>, seed: u64, steps: usize) {
    let steps = steps.max(1);
    let adl = datapath::pipeline(FusionPolicy::FuseAll);
    let registry = OperatorRegistry::with_builtins();
    let quantum = SimDuration::from_millis(100);
    out.insert(
        "engine.pe.step_ns_per_tuple",
        probe(|| {
            let mut pe =
                PeRuntime::build(&adl, 0, &registry, SimRng::new(seed)).expect("fused PE builds");
            let mut now = SimTime::ZERO;
            per_call(steps, || {
                now += quantum;
                black_box(pe.step(now, quantum, 1_000_000));
            }) / DATAPATH_TUPLES_PER_QUANTUM as f64
        }),
    );
}

fn trend_adl(seed: u64) -> Adl {
    trend_app(TrendParams {
        window_secs: 8.0,
        tick_rate: 20.0,
        symbols: 3,
        seed,
        ..Default::default()
    })
}

fn app_kernel(seed: u64) -> Kernel {
    Kernel::new(
        Cluster::with_hosts(4),
        orca_apps::registry(&SharedStores::new()),
        RuntimeConfig {
            seed,
            ..RuntimeConfig::default()
        },
    )
}

/// `PeRuntime::checkpoint/restore` and `PeCheckpoint::digest` on the `trend`
/// PE holding the most window state after 15 simulated seconds.
fn checkpoint(out: &mut BTreeMap<&'static str, f64>, seed: u64, iters: usize) {
    let iters = iters.max(1);
    let mut kernel = app_kernel(seed);
    let job = kernel
        .submit_job(trend_adl(seed), None)
        .expect("trend app places");
    for _ in 0..150 {
        kernel.quantum();
    }
    let now = kernel.now();
    let pe = kernel
        .sam
        .job(job)
        .expect("job is running")
        .pe_ids
        .iter()
        .copied()
        .max_by_key(|&pe| {
            kernel
                .cluster
                .process(pe)
                .map_or(0, |p| p.runtime.checkpoint(now).state_bytes())
        })
        .expect("trend app has PEs");
    let runtime = &mut kernel
        .cluster
        .process_mut(pe)
        .expect("PE is placed")
        .runtime;
    let ckpt = runtime.checkpoint(now);
    let bytes = ckpt.state_bytes().max(1) as f64;
    out.insert(
        "engine.ckpt.snapshot_ns_per_byte",
        probe(|| {
            per_call(iters, || {
                black_box(runtime.checkpoint(now));
            }) / bytes
        }),
    );
    out.insert(
        "engine.ckpt.digest_ns_per_byte",
        probe(|| {
            per_call(iters, || {
                black_box(black_box(&ckpt).digest());
            }) / bytes
        }),
    );
    out.insert(
        "engine.ckpt.restore_ns_per_byte",
        probe(|| {
            per_call(iters, || {
                black_box(runtime.restore(&ckpt).expect("own checkpoint restores"));
            }) / bytes
        }),
    );
}

/// The cheap, frequent ops of a campaign plan's log (ids, checkpoint
/// commits, host reservations); `i` varies the keys.
fn meta_op(i: usize) -> MetaOp {
    match i % 4 {
        0 => MetaOp::AllocPeId,
        1 => MetaOp::RecordCkptCommit {
            job: JobId(i as u64 % 8),
            adl_index: i % 3,
            taken_at: SimTime::from_millis(i as u64),
        },
        2 => MetaOp::ReserveHost(format!("host{}", i % 4), JobId(i as u64 % 8)),
        _ => MetaOp::ReleaseHost(format!("host{}", (i - 1) % 4)),
    }
}

fn metastore(out: &mut BTreeMap<&'static str, f64>, seed: u64, ops: usize) {
    let ops = ops.max(4);
    out.insert(
        "runtime.metastore.apply_ns_per_op",
        probe(|| {
            let mut tables = MetaTables::default();
            let log: Vec<MetaOp> = (0..ops).map(meta_op).collect();
            let t0 = Tick::now();
            for op in &log {
                tables.apply(op);
            }
            let ns = Tick::now().since(t0);
            black_box(tables.digest());
            ns as f64 / ops as f64
        }),
    );
    out.insert(
        "runtime.metastore.append_replicated_ns_per_op",
        probe(|| {
            let mut store = ReplicatedMetastore::new(seed);
            let log: Vec<MetaOp> = (0..ops).map(meta_op).collect();
            let t0 = Tick::now();
            for op in log {
                store.apply(op);
            }
            Tick::now().since(t0) as f64 / ops as f64
        }),
    );
    let mut store = ReplicatedMetastore::new(seed);
    for op in (0..ops).map(meta_op) {
        store.apply(op);
    }
    out.insert(
        "runtime.metastore.recover_us_per_kop",
        probe(|| {
            let t0 = Tick::now();
            let replayed = store.recover().ops_replayed.max(1);
            Tick::now().since(t0) as f64 / replayed as f64
        }),
    );
}

/// `submit_job` of the trend app on a fresh kernel; `restart_pe` of its
/// first PE right after a kill.
fn kernel_ops(out: &mut BTreeMap<&'static str, f64>, seed: u64, iters: usize) {
    let iters = iters.max(1);
    let adl = trend_adl(seed);
    out.insert(
        "runtime.kernel.submit_job_us",
        probe(|| {
            let mut total = 0;
            for _ in 0..iters {
                let mut kernel = app_kernel(seed);
                let adl = adl.clone();
                let t0 = Tick::now();
                black_box(kernel.submit_job(adl, None).expect("trend app places"));
                total += Tick::now().since(t0);
            }
            total as f64 / iters as f64 / 1e3
        }),
    );
    out.insert(
        "runtime.kernel.restart_pe_us",
        probe(|| {
            let mut kernel = app_kernel(seed);
            let job = kernel
                .submit_job(adl.clone(), None)
                .expect("trend app places");
            let spawn_quanta =
                kernel.config.restart_delay.as_millis() / kernel.config.quantum.as_millis() + 1;
            let mut total = 0;
            for _ in 0..iters {
                for _ in 0..spawn_quanta {
                    kernel.quantum();
                }
                let pe = kernel.pe_id_of(job, 0).expect("slot 0 exists");
                kernel.kill_pe(pe).expect("PE is up");
                let t0 = Tick::now();
                black_box(kernel.restart_pe(pe).expect("a host is up"));
                total += Tick::now().since(t0);
            }
            total as f64 / iters as f64 / 1e3
        }),
    );
}

fn trivial_job(i: usize) -> Adl {
    let mut m = CompositeGraphBuilder::main();
    m.operator(
        "src",
        OperatorInvocation::new("Beacon")
            .source()
            .param("rate", 10.0),
    );
    m.operator("snk", OperatorInvocation::new("Sink").sink());
    m.pipe("src", "snk");
    let model = AppModelBuilder::new(&format!("Idle{i}"))
        .build(m.build().expect("trivial graph is well-formed"))
        .expect("trivial model is well-formed");
    compile(&model, CompileOptions::default()).expect("trivial app compiles")
}

/// Slope of `Kernel::quantum` time over the host count, the same 8 trivial
/// jobs on 2 and on 512 hosts: what one idle host costs per quantum.
fn idle_hosts(out: &mut BTreeMap<&'static str, f64>, seed: u64, quanta: usize) {
    let quanta = quanta.max(1);
    let quantum_ns = |hosts: usize| {
        let mut kernel = datapath::kernel(seed, hosts);
        for i in 0..8 {
            kernel
                .submit_job(trivial_job(i), None)
                .expect("trivial job places");
        }
        for _ in 0..5 {
            kernel.quantum();
        }
        probe(|| {
            per_call(quanta, || {
                kernel.quantum();
            })
        })
    };
    let (few, many) = (2usize, 512usize);
    out.insert(
        "runtime.kernel.idle_host_ns_per_quantum",
        (quantum_ns(many) - quantum_ns(few)) / (many - few) as f64,
    );
}

/// The `benches/event_delivery.rs` orchestrator: a selective metric scope
/// and a failure scope over the nested app.
struct Counter {
    metric_events: u64,
    failure_events: u64,
}

impl Orchestrator for Counter {
    fn on_start(&mut self, ctx: &mut OrcaCtx<'_>, _s: &OrcaStartContext) {
        ctx.register_event_scope(
            OperatorMetricScope::new("sel")
                .add_operator_type("Work")
                .add_composite_type("level0")
                .add_metric("queueSize"),
        );
        ctx.register_event_scope(PeFailureScope::new("fail"));
        ctx.set_metric_poll_period(SimDuration::from_secs(3));
        ctx.submit_app("Nested").expect("nested app submits");
    }

    fn on_operator_metric(
        &mut self,
        _ctx: &mut OrcaCtx<'_>,
        _e: &OperatorMetricContext,
        _s: &[String],
    ) {
        self.metric_events += 1;
    }

    fn on_pe_failure(&mut self, ctx: &mut OrcaCtx<'_>, e: &PeFailureContext, _s: &[String]) {
        self.failure_events += 1;
        let _ = ctx.restart_pe(e.pe);
    }
}

fn service_world(width: usize) -> (World, usize) {
    let kernel = Kernel::new(
        Cluster::with_hosts(4),
        OperatorRegistry::with_builtins(),
        RuntimeConfig::default(),
    );
    let mut world = World::new(kernel);
    let service = OrcaService::submit(
        &mut world.kernel,
        OrcaDescriptor::new("Bench").app(nested_app(width, 3, 8)),
        Box::new(Counter {
            metric_events: 0,
            failure_events: 0,
        }),
    );
    let idx = world.add_controller(Box::new(service));
    world.run_for(SimDuration::from_secs(7));
    (world, idx)
}

/// One SRM poll round (3 simulated seconds spanning one poll) and the
/// failure path (kill, then the quantum that pulls, dispatches, restarts).
fn service(out: &mut BTreeMap<&'static str, f64>, smoke: bool) {
    let width = if smoke { 2 } else { 8 };
    out.insert(
        "core.service.poll_round_us",
        probe(|| {
            let (mut world, idx) = service_world(width);
            let t0 = Tick::now();
            world.run_for(SimDuration::from_secs(3));
            let ns = Tick::now().since(t0);
            let svc = world
                .controller::<OrcaService>(idx)
                .expect("service is attached");
            assert!(svc.stats().polls > 0, "the probe window spans a poll");
            ns as f64 / 1e3
        }),
    );
    out.insert(
        "core.service.failure_path_us",
        probe(|| {
            let (mut world, idx) = service_world(width);
            let job = world.kernel.sam.running_jobs()[0];
            let pe = world.kernel.pe_id_of(job, 0).expect("slot 0 exists");
            world.kernel.kill_pe(pe).expect("PE is up");
            let t0 = Tick::now();
            world.step();
            let ns = Tick::now().since(t0);
            let svc = world
                .controller::<OrcaService>(idx)
                .expect("service is attached");
            let seen = svc.logic::<Counter>().map_or(0, |c| c.failure_events);
            assert_eq!(seen, 1, "the failure reached the handler");
            ns as f64 / 1e3
        }),
    );
}

fn sim(out: &mut BTreeMap<&'static str, f64>, seed: u64, n: usize) {
    let n = n.max(1);
    out.insert(
        "sim.trace.push_ns",
        probe(|| {
            let mut ring = TraceRing::new(4096);
            let mut i = 0u64;
            per_call(n, || {
                i += 1;
                ring.push(
                    SimTime::from_millis(i),
                    "hc",
                    format!("PE pe{i} killed on host{}", i % 4),
                );
            })
        }),
    );
    out.insert(
        "sim.scheduler.ns_per_event",
        probe(|| {
            let mut rng = SimRng::new(seed);
            let mut sched: Scheduler<u64> = Scheduler::new();
            let t0 = Tick::now();
            for i in 0..n as u64 {
                sched.schedule_at(SimTime::from_millis(rng.gen_range(0, 1_000_000)), i);
            }
            let mut popped = 0usize;
            while let Some(e) = sched.pop() {
                black_box(e.payload);
                popped += 1;
            }
            assert_eq!(popped, n);
            Tick::now().since(t0) as f64 / n as f64
        }),
    );
}
