//! Campaign scenarios: one per use-case application.
//!
//! A [`Scenario`] bundles everything the [`crate::runner`] needs to put an
//! application under randomized fault load: a world builder (cluster, apps,
//! ORCA service), timing windows, a plan-generation envelope, and the
//! recovery style (orchestrated failover vs. the harness [`Janitor`]
//! baseline).

use crate::plan::PlanSpec;
use orca::{OrcaDescriptor, OrcaService};
use orca_apps::sentiment::{sentiment_app, SentimentOrca, SentimentParams};
use orca_apps::social::{c1_app, c2_app, c3_app, CompositionOrca};
use orca_apps::trend::{trend_app, TrendOrca, TrendParams};
use orca_apps::SharedStores;
use sps_model::compiler::{compile, CompileOptions};
use sps_model::logical::{AppModelBuilder, CompositeGraphBuilder, OperatorInvocation};
use sps_runtime::{CheckpointPolicy, Cluster, Kernel, MetastoreKind, RuntimeConfig, World};
use sps_sim::{SimDuration, SimTime};

/// Durable-state knobs a campaign threads into every world it builds: the
/// checkpoint policy (data plane). Plain `Copy` data so scenarios stay
/// shareable across campaign workers.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct WorldPolicy {
    pub checkpoint: CheckpointPolicy,
    /// Sets nothing: every world's SAM keeps its op log. Kept because
    /// `perf/` names the field.
    pub metastore: MetastoreKind,
}

impl WorldPolicy {
    pub fn checkpointed(ckpt: CheckpointPolicy) -> Self {
        WorldPolicy {
            checkpoint: ckpt,
            ..WorldPolicy::default()
        }
    }
}

/// A freshly built world plus the controller index of its ORCA service (if
/// the scenario is orchestrated).
pub struct Built {
    pub world: World,
    /// Index of the [`OrcaService`] controller, for the convergence probe.
    pub orca_idx: Option<usize>,
}

/// One application under campaign test.
#[derive(Clone, Copy)]
pub struct Scenario {
    pub name: &'static str,
    pub hosts: usize,
    /// Steady-state run before the first fault may fire.
    pub warmup: SimDuration,
    /// Faults are injected within `warmup..warmup + fault_window`.
    pub fault_window: SimDuration,
    /// Post-fault run during which the system must reconverge.
    pub settle: SimDuration,
    /// Quanta (within `settle`) by which quiescence must be re-established.
    pub convergence_bound: usize,
    /// Attach the harness [`crate::Janitor`] as the recovery policy.
    pub janitor: bool,
    /// Builds the world from a campaign seed and the durable-state policy.
    pub build: fn(u64, WorldPolicy) -> Built,
    /// Sink operators to include in determinism artifacts, by name.
    pub taps: &'static [&'static str],
    /// Subset of `taps` whose counts are *structurally exact* under
    /// exactly-once recovery: every input tuple maps to a fixed number of
    /// outputs regardless of arrival timing. With upstream backup enabled the
    /// [`crate::oracle`] asserts tap-count *equality* against the fault-free
    /// baseline for these (not just bounds). Taps whose output cardinality
    /// depends on delivery timing (e.g. windowed aggregates that may emit or
    /// skip an empty pane) stay on the bounded check.
    pub exact_taps: &'static [&'static str],
}

// Scenarios are shared by reference across campaign worker threads
// (`runner::run_campaign` with `jobs > 1`), which holds because every field
// is plain data, a `'static` borrow, or a fn pointer. Keep it that way: a
// field with interior mutability or a non-`Sync` handle would silently
// serialize (or break) the parallel campaign.
const _: () = {
    const fn assert_thread_shareable<T: Send + Sync>() {}
    assert_thread_shareable::<Scenario>();
};

impl Scenario {
    /// Plan-generation envelope derived from this scenario's shape.
    pub fn plan_spec(&self) -> PlanSpec {
        self.plan_spec_with(false)
    }

    /// Like [`Scenario::plan_spec`], with the control-plane fault mix
    /// (orchestrator crash, SAM restart, SAM↔HC partition) switched on.
    pub fn plan_spec_with(&self, control_faults: bool) -> PlanSpec {
        PlanSpec {
            hosts: self.hosts,
            window: (
                SimTime::ZERO + self.warmup,
                SimTime::ZERO + self.warmup + self.fault_window,
            ),
            control_faults,
        }
    }
}

fn config(seed: u64, policy: WorldPolicy) -> RuntimeConfig {
    RuntimeConfig {
        seed,
        checkpoint: policy.checkpoint,
        ..RuntimeConfig::default()
    }
}

/// `live`: two unmanaged beacon→filter→sink pipelines (the raw runtime with
/// no orchestrator — the population the `live` tap-streaming module
/// watches). The campaign seed perturbs the source rates so every plan seed
/// also explores a different workload.
fn build_live(seed: u64, policy: WorldPolicy) -> Built {
    let stores = SharedStores::new();
    let mut kernel = Kernel::new(
        Cluster::with_hosts(2),
        orca_apps::registry(&stores),
        config(seed, policy),
    );
    let rate_a = 18.0 + (seed % 5) as f64;
    let rate_b = 27.0 + ((seed >> 3) % 5) as f64;
    for (name, rate) in [("LiveA", rate_a), ("LiveB", rate_b)] {
        let mut m = CompositeGraphBuilder::main();
        m.operator(
            "src",
            OperatorInvocation::new("Beacon")
                .source()
                .param("rate", rate),
        );
        m.operator(
            "flt",
            OperatorInvocation::new("Filter").param("predicate", "seq % 2 == 0"),
        );
        m.operator("snk", OperatorInvocation::new("Sink").sink());
        m.pipe("src", "flt");
        m.pipe("flt", "snk");
        let model = AppModelBuilder::new(name)
            .build(m.build().unwrap())
            .unwrap();
        let adl = compile(&model, CompileOptions::default()).unwrap();
        kernel.submit_job(adl, None).unwrap();
    }
    Built {
        world: World::new(kernel),
        orca_idx: None,
    }
}

/// `sentiment`: §5.1 drift-adaptation app; the orchestrator reacts to
/// metrics, so PE recovery falls to the janitor.
fn build_sentiment(seed: u64, policy: WorldPolicy) -> Built {
    let stores = SharedStores::new();
    let kernel = Kernel::new(
        Cluster::with_hosts(3),
        orca_apps::registry(&stores),
        config(seed, policy),
    );
    let mut world = World::new(kernel);
    let params = SentimentParams {
        drift_at_secs: 8.0,
        metric_window_secs: 10.0,
        seed,
        ..Default::default()
    };
    let service = OrcaService::submit(
        &mut world.kernel,
        OrcaDescriptor::new("SentimentOrca").app(sentiment_app(params)),
        Box::new(SentimentOrca::new(stores, SimDuration::from_secs(5))),
    );
    let orca_idx = world.add_controller(Box::new(service));
    Built {
        world,
        orca_idx: Some(orca_idx),
    }
}

/// `social`: §5.3 dynamic composition (C1/C2/C3); jobs come and go under
/// the dependency manager while faults land.
fn build_social(seed: u64, policy: WorldPolicy) -> Built {
    let stores = SharedStores::new();
    let kernel = Kernel::new(
        Cluster::with_hosts(4),
        orca_apps::registry(&stores),
        config(seed, policy),
    );
    let mut world = World::new(kernel);
    // Seeded variant of `composition_descriptor`: the campaign seed drives
    // every reader/query workload stream.
    let descriptor = OrcaDescriptor::new("CompositionOrca")
        .app(c1_app("TwitterStreamReader", "twitter", 80.0, seed ^ 21))
        .app(c1_app("MySpaceStreamReader", "myspace", 40.0, seed ^ 22))
        .app(c2_app("TwitterQuery", "twitter", seed ^ 31))
        .app(c2_app("BlogQuery", "blogs", seed ^ 32))
        .app(c2_app("FacebookQuery", "facebook", seed ^ 33))
        .app(c3_app());
    let service = OrcaService::submit(
        &mut world.kernel,
        descriptor,
        Box::new(CompositionOrca::new(40)),
    );
    let orca_idx = world.add_controller(Box::new(service));
    Built {
        world,
        orca_idx: Some(orca_idx),
    }
}

/// `trend`: §5.2 replica failover — the orchestrator itself is the recovery
/// policy (no janitor).
fn build_trend(seed: u64, policy: WorldPolicy) -> Built {
    let stores = SharedStores::new();
    let kernel = Kernel::new(
        Cluster::with_hosts(4),
        orca_apps::registry(&stores),
        config(seed, policy),
    );
    let mut world = World::new(kernel);
    let service = OrcaService::submit(
        &mut world.kernel,
        OrcaDescriptor::new("TrendOrca").app(trend_app(TrendParams {
            window_secs: 8.0,
            tick_rate: 20.0,
            symbols: 3,
            seed,
            ..Default::default()
        })),
        Box::new(TrendOrca::new(3)),
    );
    let orca_idx = world.add_controller(Box::new(service));
    Built {
        world,
        orca_idx: Some(orca_idx),
    }
}

pub fn live() -> Scenario {
    Scenario {
        name: "live",
        hosts: 2,
        warmup: SimDuration::from_secs(4),
        fault_window: SimDuration::from_secs(10),
        settle: SimDuration::from_secs(10),
        convergence_bound: 80,
        janitor: true,
        build: build_live,
        taps: &["snk"],
        exact_taps: &["snk"],
    }
}

pub fn sentiment() -> Scenario {
    Scenario {
        name: "sentiment",
        hosts: 3,
        warmup: SimDuration::from_secs(5),
        fault_window: SimDuration::from_secs(10),
        settle: SimDuration::from_secs(10),
        convergence_bound: 80,
        janitor: true,
        build: build_sentiment,
        taps: &["display"],
        // `display` sits downstream of a windowed aggregate whose emptiness
        // (and thus emission count) shifts when deliveries land late during
        // replay — equality does not hold structurally, so it stays bounded.
        exact_taps: &[],
    }
}

pub fn social() -> Scenario {
    Scenario {
        name: "social",
        hosts: 4,
        warmup: SimDuration::from_secs(8),
        fault_window: SimDuration::from_secs(10),
        settle: SimDuration::from_secs(12),
        convergence_bound: 100,
        janitor: true,
        build: build_social,
        taps: &["log", "result"],
        // `result` rides on dynamically (un)subscribed import routes, so its
        // count depends on route timing; only `log` is per-tuple exact.
        exact_taps: &["log"],
    }
}

pub fn trend() -> Scenario {
    Scenario {
        name: "trend",
        hosts: 4,
        warmup: SimDuration::from_secs(5),
        fault_window: SimDuration::from_secs(12),
        settle: SimDuration::from_secs(15),
        convergence_bound: 120,
        janitor: false,
        build: build_trend,
        taps: &["graph"],
        exact_taps: &["graph"],
    }
}

/// Every registered scenario, campaign order.
pub fn all() -> Vec<Scenario> {
    vec![live(), sentiment(), social(), trend()]
}

/// Scenario by name (`--app` resolution).
pub fn by_name(name: &str) -> Option<Scenario> {
    all().into_iter().find(|s| s.name == name)
}
