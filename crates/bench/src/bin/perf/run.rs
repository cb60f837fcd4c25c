//! One benchmark run: repeated set-up, the timed closed loop of blocks, the
//! output checks, and the metrics of either mode.
//!
//! Run shape. *Set-up* (scenario lookup, oracle sets, seed stream, empty
//! baseline cache, then block 0 — the same on every run — as the warm-up
//! slice) is repeated [`SETUP_REPS`] times and `setup_s` is the median. The
//! *timed loop* then evaluates blocks 1, 2, … — each a fixed list of
//! operations derived from `--seed` — one at a time on one thread until
//! `--seconds` have passed. Rates are the median of the per-block rates, so a
//! block disturbed by a neighbour on the shared cores does not move them;
//! latencies are taken over every timed operation; all host time is taken at
//! reference speed (see `calib.rs`). A traced run evaluates each block twice, once
//! through the product path and once through the traced twin, which gives
//! the per-layer numbers, the digest cross-check and the tracing overhead
//! from the same pairs.

use crate::calib;
use crate::campaign::Campaign;
use crate::clock::{peak_rss_mib, secs, Tick};
use crate::datapath::Datapath;
use crate::probes;
use crate::spec::{
    self, Kind, Workload, DATAPATH_HOPS, DATAPATH_SLICE_QUANTA, DATAPATH_TUPLES_PER_QUANTUM,
    END_TO_END, PER_LAYER,
};
use crate::stats::{self, median, Summary};
use crate::trace::{self_times, Tracer};
use sps_sim::{fnv1a, FNV_OFFSET};
use std::collections::BTreeMap;

pub const SETUP_REPS: usize = 5;

/// What evaluating one block produced.
#[derive(Debug, Default)]
pub struct Block {
    /// Operations: plans, or slice pairs on `datapath`.
    pub plans: usize,
    /// Plans of the seed stream the workload leaves out (see `campaign.rs`).
    pub skipped: usize,
    pub failed: usize,
    /// Simulated quanta of every world or kernel stepped, computed from the
    /// scenario windows and plan horizons (campaigns) or the slice counts.
    pub quanta: u64,
    pub wall_ns: u64,
    pub plan_ms: Vec<f64>,
    /// Fold of the per-operation simulation digests.
    pub digest: u64,
    pub sink_tuples: u64,
    /// First violation seen, for the failure message.
    pub first_violation: Option<String>,
}

pub struct RunArgs {
    pub workload: &'static Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// One small block per phase: proves the path, measures nothing.
    pub smoke: bool,
    pub trace_out: Option<String>,
}

/// One named result with the spread it was taken from.
#[derive(Clone, Debug)]
pub struct Measured {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: Summary,
}

pub struct RunResult {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    pub metrics: Vec<Measured>,
    /// Digest of block 0: identical for one commit and seed.
    pub sim_digest: u64,
    /// Fold over every timed block, with the count it covers.
    pub run_digest: u64,
    pub blocks: usize,
    /// Plans of the timed seed stream the workload left out.
    pub skipped: usize,
    pub p90_supported: bool,
    /// Operations per wall-clock second per block, before calibration.
    pub raw_plans_per_s: Option<Summary>,
    /// Host slowdown factor per block (1.0 = reference speed).
    pub slowdown: Option<Summary>,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }
}

enum Engine {
    Campaign(Campaign),
    Datapath(Datapath),
}

impl Engine {
    fn new(workload: &Workload, seed: u64, smoke: bool) -> Engine {
        match workload.kind {
            Kind::Campaign { durable, mix } => {
                Engine::Campaign(Campaign::new(mix, durable, seed, smoke))
            }
            Kind::Datapath => Engine::Datapath(Datapath::new(seed, smoke)),
        }
    }

    fn run_block(&mut self, index: usize, tracer: Option<&mut Tracer>) -> Block {
        match self {
            Engine::Campaign(c) => c.run_block(index, tracer),
            Engine::Datapath(d) => d.run_block(index, tracer),
        }
    }
}

/// Accumulates timed blocks into the end-to-end metrics.
#[derive(Default)]
struct Tally {
    raw_plans_per_s: Vec<f64>,
    slowdown: Vec<f64>,
    plans_per_s: Vec<f64>,
    quanta_per_s: Vec<f64>,
    plan_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    run_digest: u64,
    skipped: usize,
    blocks: usize,
}

impl Tally {
    fn new() -> Tally {
        Tally {
            run_digest: FNV_OFFSET,
            ..Tally::default()
        }
    }

    /// `slowdown` is the host's calibration factor around the block: host
    /// time divided by it is time at reference speed.
    fn absorb(&mut self, block: Block, slowdown: f64) {
        let wall = secs(block.wall_ns);
        self.raw_plans_per_s.push(block.plans as f64 / wall);
        self.slowdown.push(slowdown);
        self.plans_per_s
            .push(block.plans as f64 / (wall / slowdown));
        self.quanta_per_s
            .push(block.quanta as f64 / (wall / slowdown));
        self.plan_ms
            .extend(block.plan_ms.iter().map(|ms| ms / slowdown));
        self.check(&block.first_violation, block.plans, block.failed);
        self.run_digest = fnv1a(self.run_digest, &block.digest.to_le_bytes());
        self.skipped += block.skipped;
        self.blocks += 1;
    }

    fn check(&mut self, violation: &Option<String>, plans: usize, failed: usize) {
        self.attempted += plans as u64;
        self.failed += failed as u64;
        if let Some(v) = violation {
            if self.problems.len() < 5 {
                self.problems.push(v.clone());
            }
        }
    }
}

pub fn run(args: &RunArgs) -> RunResult {
    // Set-up, several times over; every repetition must agree on block 0.
    let mut setup_s = Vec::new();
    let mut timed = Tally::new();
    let mut engine = None;
    let mut sim_digest = None;
    let reps = if args.smoke { 1 } else { SETUP_REPS };
    for _ in 0..reps {
        let ((e, warmup, wall_ns), slowdown) = calib::measured(|| {
            let t0 = Tick::now();
            let mut e = Engine::new(args.workload, args.seed, args.smoke);
            let warmup = e.run_block(0, None);
            (e, warmup, Tick::now().since(t0))
        });
        setup_s.push(secs(wall_ns) / slowdown);
        if *sim_digest.get_or_insert(warmup.digest) != warmup.digest {
            timed
                .problems
                .push("block 0 digest differs between two set-ups of one run".to_string());
        }
        timed.check(&warmup.first_violation, warmup.plans, warmup.failed);
        engine = Some(e);
    }
    let mut engine = engine.expect("at least one set-up ran");
    let sim_digest = sim_digest.expect("at least one set-up ran");

    let mut metrics = Vec::new();
    let mut p90_supported = true;
    if args.trace {
        let layers = traced_loop(args, &mut engine, sim_digest, &mut timed);
        for def in PER_LAYER {
            match layers.get(def.name) {
                Some(&v) => metrics.push(Measured {
                    name: def.name,
                    unit: def.unit,
                    value: Summary::single(v),
                }),
                None => timed
                    .problems
                    .push(format!("per-layer metric {} was not measured", def.name)),
            }
        }
    } else {
        let start = Tick::now();
        let mut index = 1;
        while index == 1 || (!args.smoke && secs(Tick::now().since(start)) < args.seconds) {
            let (block, slowdown) = calib::measured(|| engine.run_block(index, None));
            timed.absorb(block, slowdown);
            index += 1;
        }
        stats::sort(&mut timed.plan_ms);
        p90_supported = stats::supported(timed.plan_ms.len(), 90.0);
        let peak_rss = peak_rss_mib().unwrap_or_else(|| {
            timed
                .problems
                .push("VmHWM is not in /proc/self/status".to_string());
            0.0
        });
        let values: [Summary; 6] = [
            Summary::of(&timed.plans_per_s),
            Summary::single(stats::percentile(&timed.plan_ms, 50.0)),
            Summary::single(stats::percentile(&timed.plan_ms, 90.0)),
            Summary::of(&timed.quanta_per_s),
            Summary::of(&setup_s),
            Summary::single(peak_rss),
        ];
        for (def, value) in END_TO_END.iter().zip(values) {
            metrics.push(Measured {
                name: def.name,
                unit: def.unit,
                value,
            });
        }
    }
    RunResult {
        workload: args.workload.name,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        smoke: args.smoke,
        attempted: timed.attempted,
        failed: timed.failed,
        problems: timed.problems,
        metrics,
        sim_digest,
        run_digest: timed.run_digest,
        blocks: timed.blocks,
        skipped: timed.skipped,
        p90_supported,
        raw_plans_per_s: (!timed.raw_plans_per_s.is_empty())
            .then(|| Summary::of(&timed.raw_plans_per_s)),
        slowdown: (!timed.slowdown.is_empty()).then(|| Summary::of(&timed.slowdown)),
    }
}

/// The traced loop: every block through the product path and through the
/// traced twin (order alternating), each pair checked for equal digests and
/// for analytic == counted quanta. Returns every per-layer metric.
fn traced_loop(
    args: &RunArgs,
    plain: &mut Engine,
    sim_digest: u64,
    timed: &mut Tally,
) -> BTreeMap<&'static str, f64> {
    // The twin gets its own engine so both passes miss and hit their own
    // baseline cache the same way.
    let mut twin = Engine::new(args.workload, args.seed, args.smoke);
    let mut tracer = Tracer::new();
    tracer.counting = true;
    let block0 = twin.run_block(0, Some(&mut tracer));
    tracer.counting = false;
    tracer.counts.plans = block0.plans as u64;
    if matches!(args.workload.kind, Kind::Datapath) {
        // No worlds to harvest: the block itself is the count boundary.
        tracer.counts.worlds = 2;
        tracer.counts.quanta = block0.quanta;
        tracer.counts.sink_tuples = block0.sink_tuples;
    }
    timed.check(&block0.first_violation, block0.plans, block0.failed);
    if block0.digest != sim_digest {
        timed.problems.push(format!(
            "traced block 0 digest {:016x} != untraced {sim_digest:016x}",
            block0.digest
        ));
    }
    if tracer.kernel.count != block0.quanta || tracer.counts.quanta != block0.quanta {
        timed.problems.push(format!(
            "block 0: {} quanta stepped, {} harvested, {} computed",
            tracer.kernel.count, tracer.counts.quanta, block0.quanta
        ));
    }
    tracer.reset_timing();

    let mut overhead = Vec::new();
    // Traced host time, as measured and at reference speed.
    let (mut traced_ns, mut traced_ref_ns) = (0.0, 0.0);
    let start = Tick::now();
    let mut index = 1;
    while index == 1 || (!args.smoke && secs(Tick::now().since(start)) < args.seconds) {
        let steps_before = tracer.kernel.count;
        let mut run_plain = || calib::measured(|| plain.run_block(index, None));
        let ((untraced, slow_u), (traced, slow_t)) = if index % 2 == 1 {
            let u = run_plain();
            (
                u,
                calib::measured(|| twin.run_block(index, Some(&mut tracer))),
            )
        } else {
            let t = calib::measured(|| twin.run_block(index, Some(&mut tracer)));
            (run_plain(), t)
        };
        if untraced.digest != traced.digest {
            timed.failed += traced.plans as u64;
            timed.problems.push(format!(
                "block {index}: traced digest {:016x} != untraced {:016x}",
                traced.digest, untraced.digest
            ));
        }
        let steps = tracer.kernel.count - steps_before;
        if steps != traced.quanta {
            timed.failed += traced.plans as u64;
            timed.problems.push(format!(
                "block {index}: {steps} quanta counted, {} computed",
                traced.quanta
            ));
        }
        traced_ns += traced.wall_ns as f64;
        traced_ref_ns += traced.wall_ns as f64 / slow_t;
        overhead.push((traced.wall_ns as f64 / slow_t) / (untraced.wall_ns as f64 / slow_u) - 1.0);
        timed.check(&traced.first_violation, traced.plans, traced.failed);
        timed.absorb(untraced, slow_u);
        index += 1;
    }

    let mut layers = layers_of(&tracer, traced_ns / traced_ref_ns);
    counts_layers(&tracer, &mut layers);
    layers.insert("trace.overhead_frac", median(&overhead));

    // Metrics this workload does not exercise come from one block of the
    // workload that does, so every line is measured on every run.
    let reference = match args.workload.kind {
        Kind::Campaign { .. } => "datapath",
        Kind::Datapath => "campaign_durable",
    };
    for (name, value) in reference_layers(reference, args) {
        layers.entry(name).or_insert(value);
    }
    for (name, value) in probes::run_all(args.seed, args.smoke) {
        layers.insert(name, value);
    }
    if let Some(path) = &args.trace_out {
        if let Err(e) = tracer.write_spans(path) {
            timed.problems.push(format!("writing {path}: {e}"));
        }
    }
    layers
}

/// In-situ layers of one traced block of another workload.
fn reference_layers(name: &str, args: &RunArgs) -> BTreeMap<&'static str, f64> {
    let workload = spec::workload(name).expect("reference workload exists");
    let mut engine = Engine::new(workload, args.seed, args.smoke);
    let mut tracer = Tracer::new();
    let (_, slowdown) = calib::measured(|| engine.run_block(0, Some(&mut tracer)));
    layers_of(&tracer, slowdown)
}

/// In-situ layers of whatever the tracer saw; `slowdown` is the host's
/// calibration factor over the traced time.
fn layers_of(tr: &Tracer, slowdown: f64) -> BTreeMap<&'static str, f64> {
    let mut layers = if tr.spans.iter().any(|s| s.name == "runtime.kernel.fused") {
        datapath_layers(tr)
    } else {
        campaign_layers(tr)
    };
    // Shares are ratios of host time to host time; everything else is time.
    for (name, value) in layers.iter_mut() {
        if !name.ends_with("share") && !name.ends_with("_ratio") {
            *value /= slowdown;
        }
    }
    layers
}

fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// Per-layer host time of campaign plans: span totals per call, quantum
/// folds per quantum, and self-time shares of plan wall that sum to 1
/// (kernel + service + harness + world drop + unattributed).
fn campaign_layers(tr: &Tracer) -> BTreeMap<&'static str, f64> {
    let times = self_times(&tr.spans);
    let get = |name: &str| times.get(name).copied().unwrap_or((0, 0, 0));
    let per_span_us = |name: &str| {
        let (n, total, _) = get(name);
        ratio(total, n) / 1e3
    };
    let (plans, plan_ns, plan_self) = get("plan");
    let (_, _, world_self) = get("harness.runner.world");
    let (worlds, _, drive_self) = get("harness.runner.drive");
    let stepped = tr.kernel.sum_ns + tr.service.sum_ns + tr.inject.sum_ns;
    let drive_self = drive_self.saturating_sub(stepped);
    let harness_ns = get("harness.plan.generate").2
        + get("harness.scenario.build").2
        + drive_self
        + get("harness.runner.artifacts").2
        + get("harness.oracle.check").2
        + get("harness.cache.baseline").2
        + tr.inject.sum_ns;

    let mut out = BTreeMap::new();
    out.insert(
        "harness.plan.generate_us",
        per_span_us("harness.plan.generate"),
    );
    out.insert(
        "harness.scenario.build_us",
        per_span_us("harness.scenario.build"),
    );
    out.insert("runtime.kernel.quantum_us", tr.kernel.mean_us());
    out.insert(
        "runtime.kernel.quantum_max_us",
        tr.kernel.max_ns as f64 / 1e3,
    );
    out.insert("runtime.kernel.share", ratio(tr.kernel.sum_ns, plan_ns));
    out.insert("core.service.on_quantum_us", tr.service.mean_us());
    out.insert("core.service.share", ratio(tr.service.sum_ns, plan_ns));
    out.insert("harness.inject.on_quantum_us", tr.inject.mean_us());
    out.insert("harness.inject.share", ratio(tr.inject.sum_ns, plan_ns));
    out.insert("harness.runner.drive_us", ratio(drive_self, worlds) / 1e3);
    out.insert(
        "harness.runner.artifacts_us",
        per_span_us("harness.runner.artifacts"),
    );
    out.insert(
        "harness.oracle.check_us",
        per_span_us("harness.oracle.check"),
    );
    // Whole lookup per plan, the baseline world included when it missed.
    out.insert(
        "harness.cache.baseline_us",
        ratio(get("harness.cache.baseline").1, plans) / 1e3,
    );
    out.insert(
        "harness.cache.hit_ratio",
        ratio(tr.cache_hits, tr.cache_lookups),
    );
    out.insert("harness.share", ratio(harness_ns, plan_ns));
    out.insert("runtime.world.drop_us", per_span_us("runtime.world.drop"));
    out.insert(
        "runtime.world.drop_share",
        ratio(get("runtime.world.drop").2, plan_ns),
    );
    out.insert("unattributed.share", ratio(plan_self + world_self, plan_ns));
    out
}

/// Per-layer host time of the datapath: kernel quantum cost per phase and
/// the per-hop split between operator execution and transfer.
fn datapath_layers(tr: &Tracer) -> BTreeMap<&'static str, f64> {
    let times = self_times(&tr.spans);
    let get = |name: &str| times.get(name).copied().unwrap_or((0, 0, 0));
    let (_, plan_ns, plan_self) = get("plan");
    let per_quantum_ns = |name: &str| {
        let (slices, total, _) = get(name);
        ratio(total, slices * DATAPATH_SLICE_QUANTA as u64)
    };
    let fused_ns = per_quantum_ns("runtime.kernel.fused");
    let unfused_ns = per_quantum_ns("runtime.kernel.unfused");
    let hops = (DATAPATH_TUPLES_PER_QUANTUM * DATAPATH_HOPS) as f64;
    let mut out = BTreeMap::new();
    out.insert("runtime.kernel.quantum_us", tr.kernel.mean_us());
    out.insert(
        "runtime.kernel.quantum_max_us",
        tr.kernel.max_ns as f64 / 1e3,
    );
    out.insert("runtime.kernel.share", ratio(tr.kernel.sum_ns, plan_ns));
    out.insert("unattributed.share", ratio(plan_self, plan_ns));
    out.insert("runtime.kernel.quantum_us.fused", fused_ns / 1e3);
    out.insert("runtime.kernel.quantum_us.unfused", unfused_ns / 1e3);
    out.insert("engine.fused.ns_per_tuple_hop", fused_ns / hops);
    out.insert("engine.unfused.ns_per_tuple_hop", unfused_ns / hops);
    out.insert(
        "runtime.transport.ns_per_tuple_hop",
        (unfused_ns - fused_ns) / hops,
    );
    out
}

/// The exact counts of block 0.
fn counts_layers(tr: &Tracer, out: &mut BTreeMap<&'static str, f64>) {
    let c = &tr.counts;
    let mut recovery = c
        .recovery_sim_ms
        .iter()
        .map(|&ms| ms as f64)
        .collect::<Vec<_>>();
    stats::sort(&mut recovery);
    let recovery_p50 = if recovery.is_empty() {
        0.0
    } else {
        stats::percentile(&recovery, 50.0)
    };
    for (name, value) in [
        ("harness.plans", c.plans),
        ("harness.worlds", c.worlds),
        ("runtime.quanta", c.quanta),
        ("runtime.crashes", c.crashes),
        ("runtime.restarts", c.restarts),
        ("runtime.ckpt.issued", c.ckpt_issued),
        ("runtime.ckpt.saved", c.ckpt_saved),
        ("runtime.ckpt.deltas_saved", c.ckpt_deltas_saved),
        ("runtime.ckpt.fulls_saved", c.ckpt_fulls_saved),
        ("runtime.ckpt.restored", c.ckpt_restored),
        ("runtime.ckpt.fallbacks", c.ckpt_fallbacks),
        ("runtime.ub.buffered", c.ub_buffered),
        ("runtime.ub.replayed", c.ub_replayed),
        ("runtime.ub.suppressed", c.ub_suppressed),
        ("runtime.ub.trimmed", c.ub_trimmed),
        ("runtime.meta.ops_applied", c.meta_ops_applied),
        ("runtime.meta.recoveries", c.meta_recoveries),
        ("runtime.meta.ops_replayed", c.meta_ops_replayed),
        ("runtime.control.orca_crashes", c.orca_crashes),
        ("runtime.control.sam_restarts", c.sam_restarts),
        ("runtime.control.false_declarations", c.false_declarations),
        ("core.service.polls", c.svc_polls),
        ("core.service.events_delivered", c.svc_events_delivered),
        (
            "core.service.metric_observations_seen",
            c.svc_metric_observations_seen,
        ),
        (
            "core.service.metric_events_matched",
            c.svc_metric_events_matched,
        ),
        ("core.service.failures_seen", c.svc_failures_seen),
        ("apps.sink_tuples", c.sink_tuples),
    ] {
        out.insert(name, value as f64);
    }
    out.insert("runtime.kernel.recovery_sim_ms_p50", recovery_p50);
}
