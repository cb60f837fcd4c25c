//! The benchmark's contract in one place: workload names and compositions,
//! and every metric's name, unit, direction and regression bound.
//! `BENCHMARK.json` must list exactly these names (a unit test reads it).

use orca_harness::{CheckpointPolicy, MetastoreKind, StorageModel, WorldPolicy};
use Better::{Higher, Lower};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen before it
    /// is a regression. `None` for per-layer metrics.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

/// What a user of the campaign harness or the simulator sees. Every one is
/// reported on every workload; an *operation* is one fully evaluated plan on
/// the campaign workloads and one slice pair on `datapath`.
pub const END_TO_END: &[MetricDef] = &[
    e2e("plans_per_s", "1/s", Better::Higher, 0.15),
    e2e("plan_ms_p50", "ms", Better::Lower, 0.15),
    e2e("plan_ms_p90", "ms", Better::Lower, 0.25),
    e2e("quanta_per_s", "1/s", Better::Higher, 0.15),
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("peak_rss_mb", "MiB", Better::Lower, 0.10),
];

/// Single-layer metrics of the traced run (layer = crate.module).
pub const PER_LAYER: &[MetricDef] = &[
    // In-situ host time, folded from spans around calls into each layer.
    layer("harness.plan.generate_us", "us", Lower),
    layer("harness.scenario.build_us", "us", Lower),
    layer("runtime.kernel.quantum_us", "us", Lower),
    layer("runtime.kernel.quantum_max_us", "us", Lower),
    layer("runtime.kernel.share", "ratio", Lower),
    layer("core.service.on_quantum_us", "us", Lower),
    layer("core.service.share", "ratio", Lower),
    layer("harness.inject.on_quantum_us", "us", Lower),
    layer("harness.inject.share", "ratio", Lower),
    layer("harness.runner.drive_us", "us", Lower),
    layer("harness.runner.artifacts_us", "us", Lower),
    layer("harness.oracle.check_us", "us", Lower),
    layer("harness.cache.baseline_us", "us", Lower),
    layer("harness.cache.hit_ratio", "ratio", Higher),
    layer("harness.share", "ratio", Lower),
    layer("runtime.world.drop_us", "us", Lower),
    layer("runtime.world.drop_share", "ratio", Lower),
    layer("unattributed.share", "ratio", Lower),
    layer("runtime.kernel.quantum_us.fused", "us", Lower),
    layer("runtime.kernel.quantum_us.unfused", "us", Lower),
    layer("engine.fused.ns_per_tuple_hop", "ns", Lower),
    layer("engine.unfused.ns_per_tuple_hop", "ns", Lower),
    layer("runtime.transport.ns_per_tuple_hop", "ns", Lower),
    // Exact counts at the same boundaries, over block 0 of the workload.
    layer("harness.plans", "count", Higher),
    layer("harness.worlds", "count", Lower),
    layer("runtime.quanta", "count", Lower),
    layer("runtime.crashes", "count", Lower),
    layer("runtime.restarts", "count", Lower),
    layer("runtime.ckpt.issued", "count", Lower),
    layer("runtime.ckpt.saved", "count", Lower),
    layer("runtime.ckpt.deltas_saved", "count", Higher),
    layer("runtime.ckpt.fulls_saved", "count", Lower),
    layer("runtime.ckpt.restored", "count", Higher),
    layer("runtime.ckpt.fallbacks", "count", Lower),
    layer("runtime.ub.buffered", "count", Lower),
    layer("runtime.ub.replayed", "count", Lower),
    layer("runtime.ub.suppressed", "count", Lower),
    layer("runtime.ub.trimmed", "count", Higher),
    layer("runtime.meta.ops_applied", "count", Lower),
    layer("runtime.meta.recoveries", "count", Lower),
    layer("runtime.meta.ops_replayed", "count", Lower),
    layer("runtime.control.orca_crashes", "count", Lower),
    layer("runtime.control.sam_restarts", "count", Lower),
    layer("runtime.control.false_declarations", "count", Lower),
    layer("core.service.polls", "count", Lower),
    layer("core.service.events_delivered", "count", Lower),
    layer("core.service.metric_observations_seen", "count", Lower),
    layer("core.service.metric_events_matched", "count", Higher),
    layer("core.service.failures_seen", "count", Lower),
    layer("apps.sink_tuples", "count", Higher),
    layer("runtime.kernel.recovery_sim_ms_p50", "sim_ms", Lower),
    // Isolated probes: timed loops over one public function each.
    layer("engine.codec.encode_ns_per_tuple", "ns", Lower),
    layer("engine.codec.decode_ns_per_tuple", "ns", Lower),
    layer("engine.pe.step_ns_per_tuple", "ns", Lower),
    layer("engine.ckpt.snapshot_ns_per_byte", "ns/B", Lower),
    layer("engine.ckpt.restore_ns_per_byte", "ns/B", Lower),
    layer("engine.ckpt.digest_ns_per_byte", "ns/B", Lower),
    layer("runtime.metastore.apply_ns_per_op", "ns", Lower),
    layer("runtime.metastore.append_replicated_ns_per_op", "ns", Lower),
    layer("runtime.metastore.recover_us_per_kop", "us", Lower),
    layer("runtime.kernel.submit_job_us", "us", Lower),
    layer("runtime.kernel.restart_pe_us", "us", Lower),
    layer("runtime.kernel.idle_host_ns_per_quantum", "ns", Lower),
    layer("core.service.poll_round_us", "us", Lower),
    layer("core.service.failure_path_us", "us", Lower),
    layer("sim.trace.push_ns", "ns", Lower),
    layer("sim.scheduler.ns_per_event", "ns", Lower),
    layer("model.compiler.compile_us", "us", Lower),
    layer("trace.overhead_frac", "ratio", Lower),
];

/// Plans of one app in every block of a campaign workload.
#[derive(Clone, Copy, Debug)]
pub struct Share {
    pub app: &'static str,
    pub plans: usize,
}

#[derive(Clone, Copy, Debug)]
pub enum Kind {
    /// Fault campaign: blocks of `mix` plans, each evaluated as the product
    /// does (generate, baseline if any, primary run, determinism replay).
    Campaign {
        durable: bool,
        mix: &'static [Share],
    },
    /// Fault-free kernel stepping, fused then one PE per operator.
    Datapath,
}

#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub kind: Kind,
}

/// Equal plan counts per app, so `plan_ms_p50` sits inside the `sentiment`
/// mode and `plan_ms_p90` inside the `trend` mode instead of on a boundary
/// between two apps' latency modes.
const SMALL_MIX: &[Share] = &[
    Share {
        app: "live",
        plans: 8,
    },
    Share {
        app: "sentiment",
        plans: 8,
    },
    Share {
        app: "trend",
        plans: 8,
    },
];

const SOCIAL_MIX: &[Share] = &[Share {
    app: "social",
    plans: 4,
}];

/// Roughly equal wall share per app under the durable policy.
const DURABLE_MIX: &[Share] = &[
    Share {
        app: "live",
        plans: 16,
    },
    Share {
        app: "sentiment",
        plans: 16,
    },
    Share {
        app: "trend",
        plans: 8,
    },
    Share {
        app: "social",
        plans: 1,
    },
];

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "campaign_small",
        why: "live+sentiment+trend plans, plain policy: per-plan harness overhead and fixed per-quantum kernel cost dominate; control for social- and durability-specific changes",
        kind: Kind::Campaign {
            durable: false,
            mix: SMALL_MIX,
        },
    },
    Workload {
        name: "campaign_social",
        why: "social plans only, plain policy: six app descriptors, multi-job ORCA, dependency manager and cross-job import/export routing - the 16x per-plan outlier",
        kind: Kind::Campaign {
            durable: false,
            mix: SOCIAL_MIX,
        },
    },
    Workload {
        name: "campaign_durable",
        why: "all four apps with checkpoints, upstream backup, write latency, control faults and the replicated metastore: the write side of the same layers",
        kind: Kind::Campaign {
            durable: true,
            mix: DURABLE_MIX,
        },
    },
    Workload {
        name: "datapath",
        why: "fault-free Beacon -> 8 Functors -> Sink at ~500 tuples/quantum, fused then one PE per operator: operator, PE step, codec and transport cost with no control plane",
        kind: Kind::Datapath,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// `ckpt=10, ub=on, write-latency=5 ms, metastore=replicated`; control
/// faults are switched on beside it by the campaign code.
pub fn durable_policy() -> WorldPolicy {
    WorldPolicy {
        checkpoint: CheckpointPolicy::every(10)
            .upstream_backup(true)
            .storage(StorageModel::default().with_write(5, 0)),
        metastore: MetastoreKind::Replicated,
    }
}

// --- datapath shape -------------------------------------------------------

pub const DATAPATH_HOSTS: usize = 4;
pub const DATAPATH_STAGES: usize = 8;
pub const DATAPATH_RATE: f64 = 5000.0;
/// Beacon tuples per 100 ms quantum at [`DATAPATH_RATE`].
pub const DATAPATH_TUPLES_PER_QUANTUM: u64 = 500;
/// Operator-to-operator hops a tuple makes: src -> f0 .. f7 -> snk.
pub const DATAPATH_HOPS: u64 = DATAPATH_STAGES as u64 + 1;
/// One operation steps the fused kernel, then the unfused kernel, this many
/// quanta each.
pub const DATAPATH_SLICE_QUANTA: usize = 10;
/// Operations per block; each block starts from two fresh kernels.
pub const DATAPATH_SLICES: usize = 12;
