//! The campaign runner: executes N seeded fault plans against a scenario,
//! checks the oracle set after each, verifies trace determinism by replay,
//! and shrinks failing schedules to minimal reproducers.

use crate::artifacts::render_artifacts_to;
use crate::cache::BaselineCache;
use crate::inject::{FaultInjector, Janitor};
use crate::oracle::{default_oracles, BaselineSummary, Oracle, OracleCtx, Violation};
use crate::plan::FaultPlan;
use crate::pool::indexed_pool;
use crate::scenario::{Built, Scenario, WorldPolicy};
use crate::shrink::shrink_failures;
use orca::OrcaService;
use rand::RngCore;
use sps_runtime::{CheckpointPolicy, ControlStats, MetastoreKind, PeStatus, UbStats, World};
use sps_sim::{fnv1a, DigestWriter, SimRng, FNV_OFFSET};

/// Campaign-wide knobs.
#[derive(Clone, Copy, Debug)]
pub struct CampaignConfig {
    /// Number of generated plans.
    pub plans: usize,
    /// Master seed: drives both plan generation and every world's RNG.
    pub seed: u64,
    /// Re-run every plan and require bit-identical trace digests.
    pub check_determinism: bool,
    /// Swap in the intentionally-broken convergence oracle (shrinking demo).
    pub broken_convergence: bool,
    /// Stop shrinking/collecting after this many distinct failures.
    pub max_failures: usize,
    /// Kernel checkpoint policy for every world the campaign builds. When
    /// enabled, the `StatePreservation` oracle joins the set and every plan
    /// is compared against a fault-free baseline of the same seed.
    pub checkpoint: CheckpointPolicy,
    /// Sets nothing: every world's SAM keeps its op log. Kept because
    /// `perf/` names the field.
    pub metastore: MetastoreKind,
    /// Include control-plane faults (orchestrator crash, SAM restart,
    /// SAM↔HC partition) in the generated plan mix and add the
    /// control-plane recovery oracle (`--control-faults`).
    pub control_faults: bool,
    /// Worker threads for plan evaluation and failure shrinking (`--jobs`).
    /// Plans are sharded across workers and the report is folded in
    /// plan-index order, so every `CampaignReport` field is bit-identical
    /// for `jobs = 1` and `jobs = N`. `0` is treated as `1`.
    pub jobs: usize,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            plans: 50,
            seed: 7,
            check_determinism: true,
            broken_convergence: false,
            max_failures: 3,
            checkpoint: CheckpointPolicy::default(),
            metastore: MetastoreKind::default(),
            control_faults: false,
            jobs: 1,
        }
    }
}

impl CampaignConfig {
    /// The durable-state policy every world of this campaign is built with.
    pub fn policy(&self) -> WorldPolicy {
        WorldPolicy {
            checkpoint: self.checkpoint,
            metastore: self.metastore,
        }
    }
}

/// Result of executing one plan once.
pub struct PlanOutcome {
    /// Trace digest of the settled world.
    pub digest: u64,
    /// First settle quantum at which the system was quiescent.
    pub quanta_to_quiesce: Option<usize>,
    pub violations: Vec<Violation>,
    /// Upstream-backup transport counters of the settled world (all zero
    /// when the feature is off).
    pub ub: UbStats,
    /// Control-plane fault/recovery counters of the settled world (all zero
    /// when no control fault fired).
    pub control: ControlStats,
}

/// A failing plan, minimized.
#[derive(Clone, Debug)]
pub struct CampaignFailure {
    pub plan_seed: u64,
    pub original: FaultPlan,
    pub shrunk: FaultPlan,
    pub violations: Vec<Violation>,
    /// The `campaign` argv that replays `shrunk` ([`reproducer_line`]).
    pub reproducer: String,
}

/// Aggregate campaign result for one scenario.
pub struct CampaignReport {
    pub scenario: &'static str,
    pub plans_run: usize,
    /// Every plan that violated an oracle — including those beyond
    /// `max_failures`, which are counted here but not shrunk.
    pub plans_failed: usize,
    /// Fold of every plan's trace digest — two campaign runs with the same
    /// seed must report the same value.
    pub digest: u64,
    /// Shrunk reproducers for the first `max_failures` failing plans (in
    /// plan-index order).
    pub failures: Vec<CampaignFailure>,
    /// Failing plans beyond `max_failures`, whose reproducers were dropped:
    /// always `plans_failed - failures.len()`. Surfaced so a campaign log
    /// never silently under-reports how many plans actually failed.
    pub failures_truncated: usize,
    /// Upstream-backup counters summed over every plan's primary run, in
    /// plan-index order (all zero when the feature is off).
    pub ub: UbStats,
    /// Control-plane counters summed over every plan's primary run, in
    /// plan-index order (all zero when no control fault fired anywhere).
    pub control: ControlStats,
}

impl CampaignReport {
    /// Renders every observable report field, so equality on the rendering
    /// is a byte-identity check over the whole report. This is the one
    /// canonical rendering — the systest identity suites all compare it, so
    /// a future report field rendered here is covered by every identity
    /// check at once.
    pub fn render(&self) -> String {
        let mut out = format!(
            "app={} plans={} failed={} truncated={} digest={:016x}\n",
            self.scenario, self.plans_run, self.plans_failed, self.failures_truncated, self.digest
        );
        // Only rendered when the campaign ran with upstream backup (any
        // counter nonzero), so backup-off reports stay byte-identical to
        // earlier releases.
        if self.ub.any() {
            out.push_str(&format!(
                "  upstream-backup: buffered={} replayed={} suppressed={} \
                 trimmed={} peak_buffered={}\n",
                self.ub.buffered,
                self.ub.replayed,
                self.ub.suppressed,
                self.ub.trimmed,
                self.ub.peak_buffered
            ));
        }
        // Likewise only rendered when a control-plane fault actually fired,
        // so control-faults-off reports stay byte-identical to earlier
        // releases.
        if self.control.any() {
            out.push_str(&format!(
                "  control-plane: orca_crashes={} orca_recoveries={} \
                 notifications_replayed={} sam_restarts={} \
                 meta_ops_replayed={} hc_partitions={} false_declarations={}\n",
                self.control.orca_crashes,
                self.control.orca_recoveries,
                self.control.notifications_replayed,
                self.control.sam_restarts,
                self.control.meta_ops_replayed,
                self.control.hc_partitions,
                self.control.false_declarations
            ));
        }
        for f in &self.failures {
            out.push_str(&format!(
                "  seed={} original={} shrunk={} violations={:?}\n  reproduce: {}\n",
                f.plan_seed,
                f.original.encode(),
                f.shrunk.encode(),
                f.violations,
                f.reproducer
            ));
        }
        out
    }
}

/// Whole-system quiescence: every running job's PEs are `Up`, and the ORCA
/// service (when present) reports itself converged.
pub fn quiescent(world: &World, orca_idx: Option<usize>) -> bool {
    let kernel = &world.kernel;
    let all_up = kernel.sam.running_jobs().iter().all(|&job| {
        kernel.sam.job(job).is_some_and(|info| {
            info.pe_ids
                .iter()
                .all(|&pe| kernel.pe_status(pe) == Some(PeStatus::Up))
        })
    });
    if !all_up {
        return false;
    }
    match orca_idx {
        Some(idx) => world
            .controller::<OrcaService>(idx)
            .is_some_and(|s| s.quiescent(kernel)),
        None => true,
    }
}

/// Builds a world, drives warmup → fault window → settle, and returns the
/// settled world plus the ORCA controller index and the first quiescent
/// settle quantum. Shared by [`run_plan`] and [`compute_baseline`] so the
/// faulted run and its fault-free baseline are produced by the exact same
/// schedule (the baseline under the plain policy, the run under its own);
/// public so sweep drivers (the `ckpt_sweep` bench) can reuse the
/// same warmup → fault window → settle schedule and mine the settled
/// kernel's restart log.
pub fn settled_world(
    scenario: &Scenario,
    seed: u64,
    plan: &FaultPlan,
    policy: WorldPolicy,
    horizon_floor: Option<sps_sim::SimTime>,
) -> (World, Option<usize>, Option<usize>) {
    let Built {
        mut world,
        orca_idx,
    } = (scenario.build)(seed, policy);
    if scenario.janitor {
        world.add_controller(Box::new(Janitor::default()));
    }
    world.run_for(scenario.warmup);
    world.add_controller(Box::new(FaultInjector::new(plan.clone())));

    // Drive through the fault window; restart-gap kills may overshoot the
    // nominal window, so extend to the plan's horizon plus one quantum.
    // `horizon_floor` lets a fault-free baseline run exactly as long as the
    // faulted plan it will be compared against — otherwise the comparison
    // would flag the extra quanta of processing as fabricated state.
    let quantum = world.kernel.config.quantum;
    let mut fault_end = world.now() + scenario.fault_window;
    for h in plan.horizon().into_iter().chain(horizon_floor) {
        if h + quantum > fault_end {
            fault_end = h + quantum;
        }
    }
    world.run_until(fault_end);

    // Settle: track the first quantum at which the system is quiescent.
    let settle_quanta = (scenario.settle.as_millis() / quantum.as_millis()) as usize;
    let mut quanta_to_quiesce = None;
    for q in 0..settle_quanta {
        world.step();
        if quanta_to_quiesce.is_none() && quiescent(&world, orca_idx) {
            quanta_to_quiesce = Some(q + 1);
        }
    }
    (world, orca_idx, quanta_to_quiesce)
}

/// Runs the fault-free plan for `(scenario, seed)` and summarizes the
/// stateful artifacts ([`BaselineSummary::of`]: per-job tap throughput of
/// jobs present since warmup) the `StatePreservation` oracle compares
/// faulted runs against.
///
/// The world is the plain one (`WorldPolicy::default()`) whatever policy the
/// faulted plan runs under: checkpoints, upstream backup and storage latency
/// change nothing a fault-free run summarizes
/// (`a_fault_free_world_is_the_same_under_every_policy`), and the plain
/// world is the cheapest to simulate.
///
/// `horizon` must be the horizon of the faulted plan the baseline will be
/// compared against, so both runs cover the same simulated span (shrink
/// candidates only ever run *shorter*, which the oracle bounds tolerate).
pub fn compute_baseline(
    scenario: &Scenario,
    seed: u64,
    horizon: Option<sps_sim::SimTime>,
) -> BaselineSummary {
    let plain = WorldPolicy::default();
    let (world, _, _) = settled_world(scenario, seed, &FaultPlan::default(), plain, horizon);
    BaselineSummary::of(scenario, &world)
}

/// Where an execution gets its fault-free baseline: the shared memo plus
/// the horizon floor the baseline run must cover — the executed plan's own
/// horizon at the top level, or the *original* plan's horizon when
/// shrinking (so every shrink candidate hits the floor-keyed entry phase 1
/// already computed).
#[derive(Clone, Copy)]
pub struct BaselineSource<'a> {
    pub cache: &'a BaselineCache,
    pub floor: Option<sps_sim::SimTime>,
}

impl<'a> BaselineSource<'a> {
    pub fn new(cache: &'a BaselineCache, floor: Option<sps_sim::SimTime>) -> Self {
        BaselineSource { cache, floor }
    }
}

/// Executes one plan against a fresh world: warmup, injection, settle, then
/// the oracle pass.
///
/// When checkpointing is on, the fault-free baseline the state oracle
/// compares against is fetched through `baseline` at the point of use,
/// keyed by `(scenario, seed, baseline.floor)`.
pub fn run_plan(
    scenario: &Scenario,
    seed: u64,
    plan: &FaultPlan,
    oracles: &[Box<dyn Oracle>],
    policy: WorldPolicy,
    baseline: BaselineSource<'_>,
) -> PlanOutcome {
    // Fetch (or compute) the baseline before simulating the faulted world so
    // a cache miss is attributable to this plan in `--timing` accounting.
    let baseline = policy.checkpoint.enabled().then(|| {
        baseline
            .cache
            .get_or_compute(scenario, seed, baseline.floor)
    });
    let (world, orca_idx, quanta_to_quiesce) = settled_world(scenario, seed, plan, policy, None);

    // The run digest covers the kernel trace *and* the application-visible
    // state (SRM snapshots, sink taps), so the determinism replay catches
    // nondeterministic operator state even when the lifecycle trace agrees.
    // The artifacts are folded as the typed values they are, read where
    // they live: nothing is rendered, copied or allocated.
    let mut w = DigestWriter::new(fnv1a(
        FNV_OFFSET,
        &world.kernel.trace.digest().to_le_bytes(),
    ));
    render_artifacts_to(&world, scenario.taps, &mut w).expect("digest sink never fails");
    let digest = w.digest();
    let ctx = OracleCtx {
        world: &world,
        orca_idx,
        quanta_to_quiesce,
        convergence_bound: scenario.convergence_bound,
        opts: policy.checkpoint,
        baseline: baseline.as_deref(),
        exact_taps: scenario.exact_taps,
    };
    let violations = oracles
        .iter()
        .filter_map(|o| {
            o.check(&ctx).err().map(|message| Violation {
                oracle: o.name(),
                message,
            })
        })
        .collect();
    PlanOutcome {
        digest,
        quanta_to_quiesce,
        violations,
        ub: world.kernel.ub_stats(),
        control: world.kernel.control_stats(),
    }
}

/// Runs a plan and, when requested, replays it to enforce the determinism
/// oracle. Returns the *primary* run's outcome — its counters are one
/// execution's; the replay's are dropped — with the determinism violation,
/// if any, appended to its violations.
///
/// Both executions fetch their baseline through `baseline.cache`: the
/// primary run misses (at most once per key process-wide) and the
/// determinism replay hits the same entry, so enabling the replay does not
/// double baseline cost.
fn run_plan_checked(
    scenario: &Scenario,
    seed: u64,
    plan: &FaultPlan,
    oracles: &[Box<dyn Oracle>],
    check_determinism: bool,
    policy: WorldPolicy,
    baseline: BaselineSource<'_>,
) -> PlanOutcome {
    let mut outcome = run_plan(scenario, seed, plan, oracles, policy, baseline);
    if check_determinism {
        let replay = run_plan(scenario, seed, plan, oracles, policy, baseline);
        if replay.digest != outcome.digest {
            outcome.violations.push(Violation {
                oracle: "determinism",
                message: format!(
                    "trace digests diverged for identical seed/plan: {:#018x} vs {:#018x}",
                    outcome.digest, replay.digest
                ),
            });
        }
    }
    outcome
}

/// [`run_plan`] plus the determinism replay when requested: the run digest
/// and all violations (oracle + determinism).
pub fn evaluate(
    scenario: &Scenario,
    seed: u64,
    plan: &FaultPlan,
    oracles: &[Box<dyn Oracle>],
    check_determinism: bool,
    policy: WorldPolicy,
    baseline: BaselineSource<'_>,
) -> (u64, Vec<Violation>) {
    let outcome = run_plan_checked(
        scenario,
        seed,
        plan,
        oracles,
        check_determinism,
        policy,
        baseline,
    );
    (outcome.digest, outcome.violations)
}

/// Renders the `campaign` argv that replays one plan of a campaign run
/// under `cfg`: `--replay PLAN --app A --seed S`, then the flags the campaign
/// itself was given for the checkpoint policy, the control-fault regime and
/// the broken-oracle demo. The binary parses and validates this through the
/// same code as a campaign command line.
pub fn reproducer_line(
    scenario: &Scenario,
    plan_seed: u64,
    plan: &FaultPlan,
    cfg: &CampaignConfig,
) -> String {
    let opts = cfg.checkpoint;
    let mut line = format!(
        "--replay {} --app {} --seed {plan_seed}",
        plan.encode(),
        scenario.name
    );
    if opts.enabled() {
        line.push_str(&format!(" --checkpoint-interval {}", opts.every_quanta));
    }
    if opts.upstream_backup {
        line.push_str(" --upstream-backup on");
    }
    // The two storage-model knobs the binary exposes.
    if opts.storage.write_op_ms != 0 {
        line.push_str(&format!(
            " --ckpt-write-latency {}",
            opts.storage.write_op_ms
        ));
    }
    if opts.storage.budget_bytes != 0 {
        line.push_str(&format!(" --ckpt-budget {}", opts.storage.budget_bytes));
    }
    if cfg.control_faults {
        line.push_str(" --control-faults on");
    }
    if cfg.broken_convergence {
        line.push_str(" --broken-oracle convergence");
    }
    line
}

/// Per-plan seeds for a campaign, derived once up front: plan `i`'s seed is
/// the `i`-th draw of the master stream, i.e. a pure function of
/// `(campaign_seed, plan_index)` that is independent of evaluation order.
/// This is what lets plan evaluation shard across worker threads without
/// moving a single seed.
pub fn plan_seeds(campaign_seed: u64, plans: usize) -> Vec<u64> {
    let mut master = SimRng::new(campaign_seed);
    (0..plans).map(|_| master.next_u64()).collect()
}

/// Everything phase 1 learned about one plan; the coordinator folds these in
/// plan-index order and phase 2 shrinks the failing ones. The fault-free
/// baseline is *not* carried along — shrinking re-fetches it from the
/// [`BaselineCache`] under the original plan's horizon floor, which is the
/// same key phase 1 populated.
pub(crate) struct PlanEval {
    pub plan_seed: u64,
    pub plan: FaultPlan,
    pub digest: u64,
    pub violations: Vec<Violation>,
    /// Upstream-backup counters of the primary run (the determinism replay
    /// is excluded so the report reflects one execution per plan).
    pub ub: UbStats,
    /// Control-plane counters of the primary run, same convention.
    pub control: ControlStats,
}

/// Evaluates one indexed plan: generation, baseline, execution, oracles.
/// Pure in `(scenario, cfg, plan_seed)` — safe to run on any worker.
fn evaluate_plan(
    scenario: &Scenario,
    cfg: &CampaignConfig,
    plan_seed: u64,
    cache: &BaselineCache,
) -> PlanEval {
    let policy = cfg.policy();
    let oracles = default_oracles(
        cfg.broken_convergence,
        policy.checkpoint.enabled(),
        cfg.control_faults,
    );
    // Independent per-plan stream: seeds world RNG and plan sampling.
    let plan = FaultPlan::generate(
        &mut SimRng::new(plan_seed),
        &scenario.plan_spec_with(cfg.control_faults),
    );
    // The state oracle compares against the fault-free run of the same
    // seed, memoized by `(scenario, seed, horizon floor)`: the
    // determinism replay and the shrink phase hit the entry this fetch
    // populates instead of re-simulating the baseline world.
    let floor = plan.horizon();
    let baseline = BaselineSource::new(cache, floor);
    let outcome = run_plan_checked(
        scenario,
        plan_seed,
        &plan,
        &oracles,
        cfg.check_determinism,
        policy,
        baseline,
    );
    PlanEval {
        plan_seed,
        plan,
        digest: outcome.digest,
        violations: outcome.violations,
        ub: outcome.ub,
        control: outcome.control,
    }
}

/// Runs a full campaign over one scenario, sharding plan evaluation across
/// `cfg.jobs` worker threads.
///
/// Determinism under parallelism: per-plan seeds are a pure function of
/// `(cfg.seed, plan_index)` (see [`plan_seeds`]), each plan runs against its
/// own private world, and the coordinator folds `(plan_index, digest,
/// violations)` results **in plan-index order** — so `digest`,
/// `plans_failed`, the `max_failures`-truncated failure list, and every
/// reproducer line are byte-identical whatever `cfg.jobs` is. Shrinking a
/// single failing plan stays sequential (greedy candidate elimination), but
/// distinct failures shrink concurrently.
pub fn run_campaign(scenario: &Scenario, cfg: &CampaignConfig) -> CampaignReport {
    run_campaign_cached(scenario, cfg, &BaselineCache::default())
}

/// [`run_campaign`] against a caller-owned [`BaselineCache`], so repeated
/// campaigns (determinism double-runs, multi-app drivers, benchmarks) in one
/// process reuse each other's fault-free baselines. The cache can never
/// change the report — only how often baseline worlds are re-simulated —
/// so this is byte-identical to `run_campaign` for any cache state.
pub fn run_campaign_cached(
    scenario: &Scenario,
    cfg: &CampaignConfig,
    cache: &BaselineCache,
) -> CampaignReport {
    let seeds = plan_seeds(cfg.seed, cfg.plans);

    // Phase 1: evaluate every plan — the expensive, embarrassingly parallel
    // part. Workers pull plan indices from a shared counter; the pool hands
    // results back in index order regardless of completion order.
    let evals = indexed_pool(seeds.len(), cfg.jobs, |i| {
        evaluate_plan(scenario, cfg, seeds[i], cache)
    });

    // Ordered fold: identical to the sequential loop it replaced.
    let mut digest = FNV_OFFSET;
    let mut plans_failed = 0usize;
    let mut ub = UbStats::default();
    let mut control = ControlStats::default();
    let mut to_shrink: Vec<PlanEval> = Vec::new();
    for eval in evals {
        digest = fnv1a(digest, &eval.digest.to_le_bytes());
        ub.absorb(&eval.ub);
        control.merge(&eval.control);
        if eval.violations.is_empty() {
            continue;
        }
        plans_failed += 1;
        if to_shrink.len() < cfg.max_failures {
            to_shrink.push(eval);
        }
    }
    let failures_truncated = plans_failed - to_shrink.len();

    // Phase 2: shrink the first `max_failures` failing plans, concurrently
    // across distinct failures. Candidates re-fetch their baseline from the
    // cache under the original plan's horizon floor.
    let failures = shrink_failures(scenario, cfg, to_shrink, cache);

    CampaignReport {
        scenario: scenario.name,
        plans_run: cfg.plans,
        plans_failed,
        digest,
        failures,
        failures_truncated,
        ub,
        control,
    }
}
