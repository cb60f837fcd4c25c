//! The traced twin of `orca_harness::run_plan`.
//!
//! Same public pieces in the same order, with a span around each call into a
//! layer and every controller wrapped in [`Timed`], so one `World::step`
//! splits into kernel self time and per-controller time. A traced block must
//! reproduce the product path's digest — that check (in `campaign.rs`) is
//! what keeps this file from drifting away from `runner.rs`/`scenario.rs`.

use crate::clock::Tick;
use crate::trace::Tracer;
use orca::{OrcaDescriptor, OrcaService, Orchestrator};
use orca_apps::sentiment::{sentiment_app, SentimentOrca, SentimentParams};
use orca_apps::social::{c1_app, c2_app, c3_app, CompositionOrca};
use orca_apps::trend::{trend_app, TrendOrca, TrendParams};
use orca_apps::SharedStores;
use orca_harness::{
    quiescent, render_artifacts_to, BaselineKey, BaselineSource, BaselineSummary, Built,
    FaultInjector, FaultPlan, Janitor, Oracle, OracleCtx, PlanOutcome, Scenario, Violation,
    WorldPolicy,
};
use sps_engine::metrics::builtin;
use sps_runtime::{Cluster, Controller, Kernel, RuntimeConfig, World};
use sps_sim::{fnv1a, DigestWriter, SimDuration, SimTime, FNV_OFFSET};
use std::any::Any;
use std::cell::Cell;
use std::rc::Rc;

/// Which fold a controller's time goes to.
#[derive(Clone, Copy)]
enum Layer {
    Service = 0,
    Inject = 1,
}

/// Timestamps shared by the drive loop and the [`Timed`] controllers of one
/// world: `mark` is the end of the previous interval, so consecutive
/// controllers cost one clock read each.
struct StepClock {
    mark: Cell<Tick>,
    kernel_ns: Cell<u64>,
    ctl_ns: [Cell<u64>; 2],
}

impl StepClock {
    fn new() -> Rc<StepClock> {
        Rc::new(StepClock {
            mark: Cell::new(Tick::now()),
            kernel_ns: Cell::new(0),
            ctl_ns: [Cell::new(0), Cell::new(0)],
        })
    }
}

/// A controller with a stopwatch. `as_any*` answer for the inner controller,
/// so `World::controller::<OrcaService>` (quiescence probe, oracles) still
/// finds the service.
struct Timed {
    inner: Box<dyn Controller>,
    layer: Layer,
    /// First controller of the world: the interval before it is
    /// `Kernel::quantum`.
    first: bool,
    clock: Rc<StepClock>,
}

impl Controller for Timed {
    fn on_quantum(&mut self, kernel: &mut Kernel) {
        if self.first {
            let t = Tick::now();
            self.clock.kernel_ns.set(t.since(self.clock.mark.get()));
            self.clock.mark.set(t);
        }
        self.inner.on_quantum(kernel);
        let t = Tick::now();
        let slot = &self.clock.ctl_ns[self.layer as usize];
        slot.set(slot.get() + t.since(self.clock.mark.get()));
        self.clock.mark.set(t);
    }

    fn as_any(&self) -> &dyn Any {
        self.inner.as_any()
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self.inner.as_any_mut()
    }
}

/// `scenario.rs`'s world builders with the service wrapped in [`Timed`].
/// `live` has no service, so the product builder is used as is.
fn build(scenario: &Scenario, seed: u64, policy: WorldPolicy, clock: &Rc<StepClock>) -> Built {
    let stores = SharedStores::new();
    let (descriptor, logic): (OrcaDescriptor, Box<dyn Orchestrator>) = match scenario.name {
        "sentiment" => (
            OrcaDescriptor::new("SentimentOrca").app(sentiment_app(SentimentParams {
                drift_at_secs: 8.0,
                metric_window_secs: 10.0,
                seed,
                ..Default::default()
            })),
            Box::new(SentimentOrca::new(
                stores.clone(),
                SimDuration::from_secs(5),
            )),
        ),
        "social" => (
            OrcaDescriptor::new("CompositionOrca")
                .app(c1_app("TwitterStreamReader", "twitter", 80.0, seed ^ 21))
                .app(c1_app("MySpaceStreamReader", "myspace", 40.0, seed ^ 22))
                .app(c2_app("TwitterQuery", "twitter", seed ^ 31))
                .app(c2_app("BlogQuery", "blogs", seed ^ 32))
                .app(c2_app("FacebookQuery", "facebook", seed ^ 33))
                .app(c3_app()),
            Box::new(CompositionOrca::new(40)),
        ),
        "trend" => (
            OrcaDescriptor::new("TrendOrca").app(trend_app(TrendParams {
                window_secs: 8.0,
                tick_rate: 20.0,
                symbols: 3,
                seed,
                ..Default::default()
            })),
            Box::new(TrendOrca::new(3)),
        ),
        _ => return (scenario.build)(seed, policy),
    };
    let kernel = Kernel::new(
        Cluster::with_hosts(scenario.hosts),
        orca_apps::registry(&stores),
        RuntimeConfig {
            seed,
            checkpoint: policy.checkpoint,
            metastore: policy.metastore,
            ..RuntimeConfig::default()
        },
    );
    let mut world = World::new(kernel);
    let service = OrcaService::submit(&mut world.kernel, descriptor, logic);
    let orca_idx = world.add_controller(Box::new(Timed {
        inner: Box::new(service),
        layer: Layer::Service,
        first: true,
        clock: Rc::clone(clock),
    }));
    Built {
        world,
        orca_idx: Some(orca_idx),
    }
}

/// Steps until `t`, folding each quantum's kernel/controller split.
fn run_until(world: &mut World, t: SimTime, clock: &StepClock, has_service: bool, tr: &mut Tracer) {
    while world.now() < t {
        step(world, clock, has_service, tr);
    }
}

fn step(world: &mut World, clock: &StepClock, has_service: bool, tr: &mut Tracer) {
    clock.mark.set(Tick::now());
    world.step();
    tr.kernel.add(clock.kernel_ns.take());
    if has_service {
        tr.service.add(clock.ctl_ns[Layer::Service as usize].take());
    }
    tr.inject.add(clock.ctl_ns[Layer::Inject as usize].take());
}

/// `runner::settled_world`, traced.
fn settled_world(
    scenario: &Scenario,
    seed: u64,
    plan: &FaultPlan,
    policy: WorldPolicy,
    horizon_floor: Option<SimTime>,
    tr: &mut Tracer,
) -> (World, Option<usize>, Option<usize>) {
    let clock = StepClock::new();
    let Built {
        mut world,
        orca_idx,
    } = tr.span("harness.scenario.build", |_| {
        let mut built = build(scenario, seed, policy, &clock);
        if scenario.janitor {
            built.world.add_controller(Box::new(Timed {
                inner: Box::new(Janitor::default()),
                layer: Layer::Inject,
                first: built.orca_idx.is_none(),
                clock: Rc::clone(&clock),
            }));
        }
        built
    });
    let has_service = orca_idx.is_some();
    let quanta_before = tr.kernel.count;
    let quanta_to_quiesce = tr.span("harness.runner.drive", |tr| {
        let warmup_end = world.now() + scenario.warmup;
        run_until(&mut world, warmup_end, &clock, has_service, tr);
        world.add_controller(Box::new(Timed {
            inner: Box::new(FaultInjector::new(plan.clone())),
            layer: Layer::Inject,
            first: false,
            clock: Rc::clone(&clock),
        }));

        let quantum = world.kernel.config.quantum;
        let mut fault_end = world.now() + scenario.fault_window;
        for h in plan.horizon().into_iter().chain(horizon_floor) {
            if h + quantum > fault_end {
                fault_end = h + quantum;
            }
        }
        run_until(&mut world, fault_end, &clock, has_service, tr);

        let settle_quanta = (scenario.settle.as_millis() / quantum.as_millis()) as usize;
        let mut quanta_to_quiesce = None;
        for q in 0..settle_quanta {
            step(&mut world, &clock, has_service, tr);
            if quanta_to_quiesce.is_none() && quiescent(&world, orca_idx) {
                quanta_to_quiesce = Some(q + 1);
            }
        }
        quanta_to_quiesce
    });
    if tr.counting {
        harvest(
            &world,
            scenario,
            orca_idx,
            tr.kernel.count - quanta_before,
            tr,
        );
    }
    (world, orca_idx, quanta_to_quiesce)
}

/// Adds one settled world's exact counts to the tracer.
fn harvest(
    world: &World,
    scenario: &Scenario,
    orca_idx: Option<usize>,
    quanta: u64,
    tr: &mut Tracer,
) {
    let kernel = &world.kernel;
    let c = &mut tr.counts;
    c.worlds += 1;
    c.quanta += quanta;
    c.crashes += kernel.crash_log().len() as u64;
    c.restarts += kernel.restart_log().len() as u64;
    c.ckpt_issued += kernel.ckpt.issued();
    c.ckpt_saved += kernel.ckpt.saved();
    c.ckpt_deltas_saved += kernel.ckpt.deltas_saved();
    c.ckpt_fulls_saved += kernel.ckpt.fulls_saved();
    c.ckpt_restored += kernel.ckpt.restored();
    c.ckpt_fallbacks += kernel.ckpt.fallbacks();
    let ub = kernel.ub_stats();
    c.ub_buffered += ub.buffered;
    c.ub_replayed += ub.replayed;
    c.ub_suppressed += ub.suppressed;
    c.ub_trimmed += ub.trimmed;
    let meta = kernel.sam.metastore_stats();
    c.meta_ops_applied += meta.ops_applied;
    c.meta_recoveries += meta.recoveries;
    c.meta_ops_replayed += meta.ops_replayed;
    let control = kernel.control_stats();
    c.orca_crashes += control.orca_crashes;
    c.sam_restarts += control.sam_restarts;
    c.false_declarations += control.false_declarations;
    if let Some(svc) = orca_idx.and_then(|i| world.controller::<OrcaService>(i)) {
        let s = svc.stats();
        c.svc_polls += s.polls;
        c.svc_events_delivered += s.events_delivered;
        c.svc_metric_observations_seen += s.metric_observations_seen;
        c.svc_metric_events_matched += s.metric_events_matched;
        c.svc_failures_seen += s.failures_seen;
    }
    for job in kernel.sam.running_jobs() {
        for tap in scenario.taps {
            if let Some(n) = kernel.op_metric(job, tap, builtin::N_TUPLES_PROCESSED) {
                c.sink_tuples += n.max(0) as u64;
            }
        }
    }
    // Crash -> Up: detection-to-restart wait, process spawn, restore read.
    let spawn_ms = kernel.config.restart_delay.as_millis();
    for r in kernel.restart_log() {
        let crashed_at = kernel
            .crash_log()
            .iter()
            .rev()
            .find(|cr| cr.pe == r.old_pe && cr.at <= r.at)
            .map(|cr| cr.at);
        if let Some(at) = crashed_at {
            c.recovery_sim_ms
                .push(r.at.since(at).as_millis() + spawn_ms + r.restore_ms);
        }
    }
}

/// `runner::compute_baseline`, traced.
fn compute_baseline(
    scenario: &Scenario,
    seed: u64,
    policy: WorldPolicy,
    horizon: Option<SimTime>,
    tr: &mut Tracer,
) -> BaselineSummary {
    let (world, _, _) = tr.span("harness.runner.world", |tr| {
        settled_world(scenario, seed, &FaultPlan::default(), policy, horizon, tr)
    });
    let kernel = &world.kernel;
    let mut summary = BaselineSummary::default();
    let stable_before = SimTime::ZERO + scenario.warmup;
    for job in kernel.sam.running_jobs() {
        let Some(info) = kernel.sam.job(job) else {
            continue;
        };
        if info.submitted_at > stable_before {
            continue;
        }
        summary.apps.insert(job, info.app_name.clone());
        for tap in scenario.taps {
            if let Some(n) = kernel.op_metric(job, tap, builtin::N_TUPLES_PROCESSED) {
                summary.taps.insert((job, tap.to_string()), n);
            }
        }
    }
    tr.span("runtime.world.drop", |_| drop(world));
    summary
}

/// `runner::run_plan`, traced.
pub fn run_plan(
    scenario: &Scenario,
    seed: u64,
    plan: &FaultPlan,
    oracles: &[Box<dyn Oracle>],
    policy: WorldPolicy,
    baseline: BaselineSource<'_>,
    tr: &mut Tracer,
) -> PlanOutcome {
    let baseline = tr.span("harness.cache.baseline", |tr| {
        policy.checkpoint.enabled().then(|| {
            let misses_before = baseline.cache.stats().misses;
            let summary = baseline.cache.get_or_insert_with(
                BaselineKey::new(scenario, seed, policy, baseline.floor),
                || compute_baseline(scenario, seed, policy, baseline.floor, tr),
            );
            tr.cache_lookups += 1;
            if baseline.cache.stats().misses == misses_before {
                tr.cache_hits += 1;
            }
            summary
        })
    });
    tr.span("harness.runner.world", |tr| {
        let (world, orca_idx, quanta_to_quiesce) =
            settled_world(scenario, seed, plan, policy, None, tr);
        let digest = tr.span("harness.runner.artifacts", |_| {
            let mut w = DigestWriter::new(fnv1a(
                FNV_OFFSET,
                &world.kernel.trace.digest().to_le_bytes(),
            ));
            render_artifacts_to(&world, scenario.taps, &mut w).expect("digest sink never fails");
            w.digest()
        });
        let violations = tr.span("harness.oracle.check", |_| {
            let ctx = OracleCtx {
                world: &world,
                orca_idx,
                quanta_to_quiesce,
                convergence_bound: scenario.convergence_bound,
                opts: policy.checkpoint,
                baseline: baseline.as_deref(),
                exact_taps: scenario.exact_taps,
            };
            oracles
                .iter()
                .filter_map(|o| {
                    o.check(&ctx).err().map(|message| Violation {
                        oracle: o.name(),
                        message,
                    })
                })
                .collect()
        });
        let outcome = PlanOutcome {
            digest,
            quanta_to_quiesce,
            violations,
            ub: world.kernel.ub_stats(),
            control: world.kernel.control_stats(),
        };
        // `run_plan` pays for the teardown too, at its closing brace.
        tr.span("runtime.world.drop", |_| drop(world));
        outcome
    })
}
