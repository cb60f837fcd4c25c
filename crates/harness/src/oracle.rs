//! Invariant oracles checked after every campaign plan.
//!
//! Oracles are pluggable: the runner evaluates each against the settled
//! world and collects violations. The built-in set covers the paper's
//! correctness claims — failed PEs come back (or are cleanly reaped), the
//! adaptation loop reconverges within a bounded number of quanta, and SAM's
//! failure notifications are conserved (none lost, none duplicated). Trace
//! determinism (same seed ⇒ bit-identical `sim::trace`) is enforced by the
//! runner itself, which replays every plan and compares digests.

use crate::scenario::Scenario;
use orca::OrcaService;
use sps_engine::metrics::builtin;
use sps_runtime::{CheckpointPolicy, FreshReason, JobId, Kernel, PeStatus, RestoreOutcome, World};
use sps_sim::SimTime;
use std::collections::BTreeMap;

/// Stateful artifacts of the fault-free run of the same seed, computed by
/// [`crate::runner::compute_baseline`]. Covers only jobs alive since before
/// the fault window — dynamically composed jobs may legitimately differ.
///
/// It holds tap counts and app names only, no SRM rows or checkpoint
/// sizes, and a fault-free world's summary is the same under every durable
/// policy (`a_fault_free_world_is_the_same_under_every_policy` checks it).
/// That is why the baseline is built as the plain world.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BaselineSummary {
    /// `(job, tap op)` → cumulative `nTuplesProcessed` at settle end.
    pub taps: BTreeMap<(JobId, String), i64>,
    /// Application name per baseline job, for identity matching.
    pub apps: BTreeMap<JobId, String>,
}

impl BaselineSummary {
    /// Summarizes a settled world of `scenario`: the tap counts and app name
    /// of every job submitted before the fault window opened. Late-spawned
    /// jobs (dynamic composition) may legitimately differ between runs.
    pub fn of(scenario: &Scenario, world: &World) -> BaselineSummary {
        let kernel = &world.kernel;
        let stable_before = SimTime::ZERO + scenario.warmup;
        let mut summary = BaselineSummary::default();
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
        summary
    }
}

/// Everything an oracle may inspect after the settle phase.
pub struct OracleCtx<'a> {
    pub world: &'a World,
    /// Controller index of the ORCA service, when the scenario has one.
    pub orca_idx: Option<usize>,
    /// First settle quantum (1-based) at which the system was quiescent,
    /// if it ever was.
    pub quanta_to_quiesce: Option<usize>,
    /// The scenario's convergence budget, in quanta.
    pub convergence_bound: usize,
    /// The checkpoint policy this plan executed under.
    pub opts: CheckpointPolicy,
    /// Fault-free baseline of the same seed (present when checkpointing).
    pub baseline: Option<&'a BaselineSummary>,
    /// Taps whose counts are structurally exact under exactly-once recovery
    /// (see [`crate::scenario::Scenario::exact_taps`]).
    pub exact_taps: &'a [&'static str],
}

impl OracleCtx<'_> {
    fn service(&self) -> Option<&OrcaService> {
        self.world.controller::<OrcaService>(self.orca_idx?)
    }
}

/// One invariant check.
pub trait Oracle {
    fn name(&self) -> &'static str;
    fn check(&self, ctx: &OracleCtx<'_>) -> Result<(), String>;
}

/// A named oracle violation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    pub oracle: &'static str,
    pub message: String,
}

/// Every killed PE returned to `Up` or was cleanly reaped: after the settle
/// phase, no process anywhere in the cluster is `Crashed`, `Stopped`, or
/// stuck `Starting`, and every running job's PE table points at live
/// processes.
pub struct RecoveryOracle;

impl Oracle for RecoveryOracle {
    fn name(&self) -> &'static str {
        "recovery"
    }

    fn check(&self, ctx: &OracleCtx<'_>) -> Result<(), String> {
        let kernel = &ctx.world.kernel;
        for host in kernel.cluster.hosts() {
            for proc in host.processes() {
                if proc.status != PeStatus::Up {
                    return Err(format!(
                        "PE {} ({:?}) left {:?} on {} after settle",
                        proc.pe_id, proc.job, proc.status, host.name
                    ));
                }
            }
        }
        for job in kernel.sam.running_jobs() {
            let info = kernel.sam.job(job).expect("running job");
            for &pe in &info.pe_ids {
                if kernel.pe_status(pe) != Some(PeStatus::Up) {
                    return Err(format!(
                        "job {job}: PE {pe} is {:?}, not Up",
                        kernel.pe_status(pe)
                    ));
                }
            }
        }
        Ok(())
    }
}

/// The adaptation loop reconverged (no crashed PEs, no undelivered events or
/// notifications) within the scenario's quantum budget after the last fault.
pub struct ConvergenceOracle;

impl Oracle for ConvergenceOracle {
    fn name(&self) -> &'static str {
        "convergence"
    }

    fn check(&self, ctx: &OracleCtx<'_>) -> Result<(), String> {
        let bound = ctx.convergence_bound;
        match ctx.quanta_to_quiesce {
            Some(q) if q <= bound => Ok(()),
            Some(q) => Err(format!("reconverged after {q} quanta (bound {bound})")),
            None => Err(format!("never reconverged (bound {bound})")),
        }
    }
}

/// SAM notification conservation: every crash of an owned PE produced
/// exactly one notification, nothing was duplicated (a PE id can crash at
/// most once — restarts mint fresh ids), and the orchestrator drained its
/// queue completely.
pub struct NotificationOracle;

impl Oracle for NotificationOracle {
    fn name(&self) -> &'static str {
        "notifications"
    }

    fn check(&self, ctx: &OracleCtx<'_>) -> Result<(), String> {
        let kernel = &ctx.world.kernel;
        let owned_crashes = kernel.crash_log().iter().filter(|c| c.owned).count() as u64;
        let pushed = kernel.sam.total_notifications_pushed();
        if pushed != owned_crashes {
            return Err(format!(
                "{owned_crashes} owned crashes but {pushed} notifications pushed"
            ));
        }
        let mut seen = std::collections::BTreeSet::new();
        for c in kernel.crash_log() {
            if !seen.insert(c.pe) {
                return Err(format!("PE {} crashed twice without a restart", c.pe));
            }
        }
        if let Some(service) = ctx.service() {
            let orca = service.orca_id();
            let pending = kernel.sam.notifications_pending(orca);
            if pending != 0 {
                return Err(format!("{pending} notifications never drained"));
            }
            let (p, d) = (
                kernel.sam.notifications_pushed(orca),
                kernel.sam.notifications_drained(orca),
            );
            if p != d {
                return Err(format!("pushed {p} != drained {d}"));
            }
        } else if pushed != 0 {
            return Err(format!(
                "{pushed} notifications pushed with no orchestrator registered"
            ));
        }
        Ok(())
    }
}

/// Stateful-PE recovery preservation (active when checkpointing is on):
///
/// 1. **Faithful restores** — every checkpoint restore self-verified
///    (re-checkpointing the revived container reproduced the stored
///    digest), so no operator's state was dropped or corrupted on the way
///    back in. This is what catches a restore that loses state.
/// 2. **Restore coverage** — no restart of a checkpointable PE silently
///    rejected an existing snapshot as incompatible, and with the policy
///    enabled, snapshots were actually being taken (every checkpointable
///    `Up` PE of a running job holds one at settle end).
/// 3. **Metric continuity** — monotone per-operator counters
///    (`nTuplesProcessed`) recorded in each restored checkpoint never run
///    backwards afterwards: recovered state persists instead of being
///    quietly re-zeroed. A later fresh restart of the same slot (2a has
///    already judged its reason) ends the record's claim.
/// 4. **Fault-free comparison** — against the baseline run of the same
///    seed: every stable job's tap that produced output without faults
///    still holds state (nonzero counter) in the faulted run, and never
///    *exceeds* the fault-free throughput beyond a small restart-timing
///    slack (restores must not fabricate or duplicate history). With
///    upstream backup enabled the bar rises to *equality* on the
///    scenario's structurally-exact taps of fully checkpointable jobs:
///    checkpoint + replayed in-flight gap means recovery is exactly-once,
///    so any deviation — loss or duplication — is a bug.
pub struct StatePreservationOracle;

impl Oracle for StatePreservationOracle {
    fn name(&self) -> &'static str {
        "state"
    }

    fn check(&self, ctx: &OracleCtx<'_>) -> Result<(), String> {
        if !ctx.opts.enabled() {
            return Ok(());
        }
        let kernel = &ctx.world.kernel;
        restores_were_faithful(kernel)?;
        snapshots_cover_running_jobs(kernel, &ctx.opts)?;
        restored_counters_hold(kernel)?;
        match ctx.baseline {
            Some(baseline) => taps_match_the_baseline(ctx, baseline),
            None => Ok(()),
        }
    }
}

/// Check 1 + 2a: every restart either restored faithfully or had a
/// legitimate reason to come back fresh.
fn restores_were_faithful(kernel: &Kernel) -> Result<(), String> {
    for rec in kernel.restart_log() {
        match &rec.restore {
            RestoreOutcome::Restored {
                verified: false, ..
            } => {
                return Err(format!(
                    "PE {} (job {}, slot {}) was restored unfaithfully: \
                     re-checkpoint digest differs (operator state lost)",
                    rec.new_pe, rec.job, rec.adl_index
                ));
            }
            RestoreOutcome::Fresh {
                reason: FreshReason::Incompatible,
            } => {
                return Err(format!(
                    "PE {} (job {}, slot {}) rejected its checkpoint as \
                     incompatible although the ADL never changed",
                    rec.new_pe, rec.job, rec.adl_index
                ));
            }
            // `FreshReason::Evicted` is deliberately NOT a violation:
            // losing a dead PE's chain to a finite storage budget is
            // legitimate (modelled) behavior, not a recovery bug.
            _ => {}
        }
    }
    Ok(())
}

/// Check 2b: the policy is live — snapshots exist for every checkpointable
/// Up PE of a running job. Jobs composed in the final moments of the run
/// (dynamic C3 launches) may not have crossed a snapshot boundary yet, so
/// allow two checkpoint periods of grace.
fn snapshots_cover_running_jobs(kernel: &Kernel, opts: &CheckpointPolicy) -> Result<(), String> {
    if kernel.ckpt.saved() == 0 {
        return Err("checkpointing enabled but no snapshot was ever taken".into());
    }
    let ckpt_period = sps_sim::SimDuration::from_millis(
        kernel.config.quantum.as_millis() * 2 * opts.every_quanta as u64,
    );
    for job in kernel.sam.running_jobs() {
        let Some(info) = kernel.sam.job(job) else {
            continue;
        };
        if kernel.now().since(info.submitted_at) < ckpt_period {
            continue;
        }
        for (adl_index, &pe) in info.pe_ids.iter().enumerate() {
            // A write still in flight counts as coverage: under a slow
            // storage model the commit may land after settle, which is
            // latency, not a hole in the snapshot cadence.
            if kernel.pe_status(pe) == Some(PeStatus::Up)
                && kernel.pe_checkpointable(job, adl_index)
                && kernel.ckpt.latest(job, adl_index).is_none()
                && !kernel.ckpt.write_in_flight(job, adl_index)
            {
                return Err(format!(
                    "job {job} slot {adl_index} is Up and checkpointable \
                     but holds no snapshot after settle"
                ));
            }
        }
    }
    Ok(())
}

/// Check 3: restored monotone counters never go backwards — until the
/// slot's next *fresh* restart. A later incarnation that legitimately came
/// back with nothing (its chain evicted by the storage budget) counts from
/// zero again, and the record's claim ends there.
fn restored_counters_hold(kernel: &Kernel) -> Result<(), String> {
    let log = kernel.restart_log();
    for (i, rec) in log.iter().enumerate() {
        if !rec.restore.restored() || kernel.sam.job(rec.job).is_none() {
            continue;
        }
        let reset_since = log[i + 1..].iter().any(|later| {
            (later.job, later.adl_index) == (rec.job, rec.adl_index) && !later.restore.restored()
        });
        if reset_since {
            continue;
        }
        for (op, at_ckpt) in &rec.restored_op_counts {
            let now = kernel
                .op_metric(rec.job, op, builtin::N_TUPLES_PROCESSED)
                .unwrap_or(0);
            if now < *at_ckpt {
                return Err(format!(
                    "operator {op} of job {} went backwards after restore: \
                     {now} < {at_ckpt} recorded in the checkpoint",
                    rec.job
                ));
            }
        }
    }
    Ok(())
}

/// Check 4: recovered taps against the fault-free run.
fn taps_match_the_baseline(ctx: &OracleCtx<'_>, baseline: &BaselineSummary) -> Result<(), String> {
    let kernel = &ctx.world.kernel;
    for ((job, tap), &base_count) in &baseline.taps {
        let Some(info) = kernel.sam.job(*job) else {
            continue; // job gone (e.g. cancelled mid-plan): nothing to hold
        };
        if baseline.apps.get(job) != Some(&info.app_name) {
            continue; // different job under a recycled id
        }
        let faulted = kernel
            .op_metric(*job, tap, builtin::N_TUPLES_PROCESSED)
            .unwrap_or(0);
        if base_count > 0 && faulted == 0 {
            return Err(format!(
                "stateful tap {job}.{tap} lost all state under faults \
                 (fault-free run processed {base_count} tuples)"
            ));
        }
        // Exactly-once: with upstream backup on, a fully checkpointable
        // job's structurally-exact taps must match the fault-free count
        // bit for bit — the replayed gap closes the loss window and the
        // high-water marks suppress every duplicate.
        let exact = ctx.opts.upstream_backup
            && ctx.exact_taps.contains(&tap.as_str())
            && kernel.job_checkpointable(*job);
        if exact {
            if faulted != base_count {
                return Err(format!(
                    "exactly-once violated: tap {job}.{tap} processed \
                     {faulted} tuples under faults vs. {base_count} \
                     fault-free (upstream backup promised equality)"
                ));
            }
            continue;
        }
        // Restart-timing slack: a restored periodic operator may emit
        // once immediately on revival, and a restored *exporter* of
        // another job can rewind and re-deliver a sliver of stream to
        // this tap — bound both per restart, across the whole world
        // (cross-job import/export means any restart can touch any tap).
        let restarts = kernel.restart_log().len() as i64;
        let slack = 2 * restarts + 8;
        if faulted > base_count + slack {
            return Err(format!(
                "tap {job}.{tap} processed {faulted} tuples under faults, \
                 exceeding the fault-free {base_count} (+{slack} slack): \
                 restores are fabricating history"
            ));
        }
    }
    Ok(())
}

/// Control-plane recovery (active when the campaign injects control faults):
/// after the settle phase every injected control-plane outage must be fully
/// healed and must not have corrupted kernel metadata.
///
/// 1. **SAM availability** — the restart window closed; the manager answers
///    drains again.
/// 2. **Orchestrator liveness** — no registered ORCA is still inside a
///    crash-recovery window.
/// 3. **No false death declarations** — injected SAM↔HC partitions are
///    always shorter than the liveness deadline, so a host declared dead on
///    heartbeat staleness is an oracle violation, not modelled behavior.
/// 4. **Metastore integrity** — replaying the durable op log reproduces the
///    live tables bit for bit (trivially true for the in-memory store).
pub struct ControlPlaneOracle;

impl Oracle for ControlPlaneOracle {
    fn name(&self) -> &'static str {
        "control-plane"
    }

    fn check(&self, ctx: &OracleCtx<'_>) -> Result<(), String> {
        let kernel = &ctx.world.kernel;
        if !kernel.sam.is_available() {
            return Err("SAM still unavailable after settle".into());
        }
        for orca in kernel.sam.orchestrators() {
            if kernel.orca_is_down(orca) {
                return Err(format!("orchestrator {orca} still down after settle"));
            }
        }
        let stats = kernel.control_stats();
        if stats.false_declarations != 0 {
            return Err(format!(
                "{} host(s) falsely declared dead: every injected partition \
                 is shorter than the liveness deadline",
                stats.false_declarations
            ));
        }
        if !kernel.sam.metastore_verify() {
            return Err("metastore log replay does not reproduce the live tables".into());
        }
        Ok(())
    }
}

/// The standard oracle set — recovery, convergence within the scenario's
/// bound, notification conservation — plus, with `state_preservation`, the
/// checkpoint-recovery oracle (meaningful only when runs execute with
/// checkpointing enabled) and, with `control_plane`, the control-plane
/// recovery oracle (meaningful when campaigns inject control faults).
/// [`crate::CampaignConfig::oracles`] picks the pair for a campaign.
///
/// The first argument sets nothing. Kept because `perf/` calls the function
/// with three arguments.
pub fn default_oracles(
    _: bool,
    state_preservation: bool,
    control_plane: bool,
) -> Vec<Box<dyn Oracle>> {
    let mut oracles: Vec<Box<dyn Oracle>> = vec![
        Box::new(RecoveryOracle),
        Box::new(ConvergenceOracle),
        Box::new(NotificationOracle),
    ];
    if state_preservation {
        oracles.push(Box::new(StatePreservationOracle));
    }
    if control_plane {
        oracles.push(Box::new(ControlPlaneOracle));
    }
    oracles
}
