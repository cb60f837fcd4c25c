//! The runtime kernel: coordinates SAM, SRM, the cluster, and the broker.
//!
//! Kernel methods are the simulated RPC surface the ORCA service calls ("the
//! ORCA service acts as a proxy to issue job submission and control
//! commands", §3): job submission with placement-constraint resolution,
//! cancellation, PE stop/restart/kill, host failure, and metric routing.
//! [`Kernel::quantum`] advances the whole distributed system by one
//! scheduling quantum.
//!
//! This file holds the assembled state, the introspection surface and the
//! phase order of the quantum; each phase, and each RPC family, lives in
//! the submodule that owns the decision it makes:
//!
//! | module | decides | state it owns |
//! |---|---|---|
//! | `control` | control-fault windows, heartbeats, liveness verdicts | `ControlFaults` |
//! | `failures` | kill / stop / host down-up, scheduled kills, crash notification | `scheduled_kills`, `crash_log` |
//! | `jobs` | placement, spawning, submission, cancellation | — (SAM, cluster, broker) |
//! | `restart` | restart placement, `restore_slot`, the process swap | `restart_log` |
//! | `transport` | suppress → buffer → deliver, gap replay | `Transport` |
//! | `checkpoint` | snapshot cadence, commit, eviction protection | — (`ckpt`) |

mod checkpoint;
mod control;
mod failures;
mod jobs;
mod restart;
mod transport;

pub use control::ControlStats;
pub use failures::{CrashRecord, KillTarget};
pub use restart::{FreshReason, RestartRecord, RestoreOutcome};

use crate::{Broker, CheckpointPolicy, CheckpointStore, Cluster, JobId, MetastoreKind, PeId};
use crate::{PeProcess, PeStatus, RuntimeError, Sam, Srm, UbStats};
use control::ControlFaults;
use jobs::{fused_all, host_pool_of};
use sps_engine::pe::ExportedItem;
use sps_engine::{OperatorRegistry, RemoteDelivery, StreamItem, Tuple};
use sps_sim::{SimDuration, SimRng, SimTime, TraceRing};
use std::collections::VecDeque;
use transport::Transport;

/// Tunable timing/capacity parameters.
#[derive(Clone, Copy, Debug)]
pub struct RuntimeConfig {
    /// PE scheduling quantum (simulation tick).
    pub quantum: SimDuration,
    /// Work-budget units per PE per quantum.
    pub pe_budget: u32,
    /// Master seed for all deterministic randomness.
    pub seed: u64,
    /// Process spawn latency for PE restarts (the paper's recovery gap:
    /// a restarted replica produces no output while its process starts).
    pub restart_delay: SimDuration,
    /// Checkpoint/restore policy (off by default — the seed behavior).
    pub checkpoint: CheckpointPolicy,
    /// Which metastore implementation backs SAM's durable state (in-memory
    /// by default — the seed behavior, byte-identical).
    pub metastore: MetastoreKind,
    /// How stale a host's heartbeat may grow before SAM declares the host
    /// dead and crashes its PEs (§2.2's failure detection deadline). Only
    /// hosts SAM has heard from at least once are candidates.
    pub liveness_deadline: SimDuration,
}

/// HC → SRM metric push period (the paper's default, 3 s).
const METRICS_PUSH_PERIOD: SimDuration = SimDuration::from_secs(3);

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            quantum: SimDuration::from_millis(100),
            pe_budget: 10_000,
            seed: 0x5EED,
            restart_delay: SimDuration::from_secs(2),
            checkpoint: CheckpointPolicy::default(),
            metastore: MetastoreKind::Memory,
            liveness_deadline: SimDuration::from_secs(6),
        }
    }
}

/// The assembled runtime.
pub struct Kernel {
    pub config: RuntimeConfig,
    now: SimTime,
    pub cluster: Cluster,
    pub sam: Sam,
    pub srm: Srm,
    pub broker: Broker,
    pub registry: OperatorRegistry,
    pub ckpt: CheckpointStore,
    pub trace: TraceRing,
    rng: SimRng,
    scheduled_kills: VecDeque<(SimTime, KillTarget)>,
    last_metrics_push: SimTime,
    crash_log: Vec<CrashRecord>,
    restart_log: Vec<RestartRecord>,
    transport: Transport,
    control: ControlFaults,
}

/// What one quantum's step phase produced, each entry tagged with the
/// `(job, ADL index)` slot (or the PE) it came from, in live-walk order.
#[derive(Default)]
struct Stepped {
    remote: Vec<(JobId, usize, RemoteDelivery)>,
    exported: Vec<(JobId, usize, Vec<ExportedItem>)>,
    crashes: Vec<(PeId, String)>,
}

impl Kernel {
    pub fn new(cluster: Cluster, registry: OperatorRegistry, config: RuntimeConfig) -> Self {
        let mut srm = Srm::new();
        for host in cluster.hosts() {
            srm.set_host_status(&host.name, host.up);
        }
        Kernel {
            now: SimTime::ZERO,
            rng: SimRng::new(config.seed),
            // The store draws no randomness, with or without its op log, so
            // the fault-free campaign digest is identical across store kinds.
            sam: Sam::with_store(config.metastore),
            config,
            cluster,
            srm,
            broker: Broker::new(),
            registry,
            ckpt: CheckpointStore::with_storage(config.checkpoint.storage),
            trace: TraceRing::new(65_536),
            scheduled_kills: VecDeque::new(),
            last_metrics_push: SimTime::ZERO,
            crash_log: Vec::new(),
            restart_log: Vec::new(),
            transport: Transport::new(
                config.checkpoint.enabled() && config.checkpoint.upstream_backup,
            ),
            control: ControlFaults::default(),
        }
    }

    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Records a trace event, stamped with the kernel's clock.
    fn note(&mut self, component: &'static str, message: String) {
        self.trace.push(self.now, component, message);
    }

    /// Whether deliveries are being buffered for exactly-once replay —
    /// decided once, from the checkpoint policy the kernel was built with.
    pub fn upstream_backup_enabled(&self) -> bool {
        self.transport.backup.is_some()
    }

    /// Upstream-backup counters (buffered/replayed/suppressed/trimmed).
    pub fn ub_stats(&self) -> UbStats {
        self.transport.stats()
    }

    // ---- introspection used by tests, harnesses, and the ORCA service ------

    /// PE id of a job's ADL PE index.
    pub fn pe_id_of(&self, job: JobId, adl_index: usize) -> Option<PeId> {
        self.sam.job(job)?.pe_ids.get(adl_index).copied()
    }

    pub fn pe_status(&self, pe: PeId) -> Option<PeStatus> {
        self.cluster.process(pe).map(|p| p.status)
    }

    /// Every PE crash observed so far (oldest first).
    pub fn crash_log(&self) -> &[CrashRecord] {
        &self.crash_log
    }

    /// Every successful PE restart so far (oldest first) — the per-PE
    /// restart history the campaign oracles correlate against crashes.
    pub fn restart_log(&self) -> &[RestartRecord] {
        &self.restart_log
    }

    /// Current value of an operator-level metric, read directly from the
    /// live PE runtime (not the SRM snapshot, which lags by up to one push
    /// period). Used by the campaign's state-preservation oracle.
    pub fn op_metric(&self, job: JobId, op_name: &str, metric: &str) -> Option<i64> {
        let runtime = &self.process_of_op(job, op_name)?.runtime;
        runtime.metrics().op_get(op_name, metric)
    }

    /// The process hosting an operator of a job.
    fn process_of_op(&self, job: JobId, op_name: &str) -> Option<&PeProcess> {
        let info = self.sam.job(job)?;
        let pe_id = info.pe_ids.get(info.adl.operator(op_name)?.pe)?;
        self.cluster.process(*pe_id)
    }

    /// Whether a job's ADL PE slot is eligible for checkpointing (every
    /// fused operator opted in).
    pub fn pe_checkpointable(&self, job: JobId, adl_index: usize) -> bool {
        self.sam
            .job(job)
            .is_some_and(|info| fused_all(&info.adl, adl_index, |o| o.checkpointable))
    }

    /// Whether *every* PE slot of a job is checkpointable — the
    /// precondition for the campaign's exactly-once (tap-count equality)
    /// claim under upstream backup.
    pub fn job_checkpointable(&self, job: JobId) -> bool {
        self.sam
            .job(job)
            .is_some_and(|info| info.adl.operators.iter().all(|o| o.checkpointable))
    }

    /// Time of the newest stored snapshot covering a job's ADL PE slot —
    /// how fresh a recovery of that slot would be. Orchestrators use this
    /// as their failover freshness signal.
    pub fn checkpoint_coverage(&self, job: JobId, adl_index: usize) -> Option<SimTime> {
        self.ckpt.latest(job, adl_index).map(|c| c.taken_at)
    }

    /// Contents of a sink-like operator, oldest first.
    pub fn tap(&self, job: JobId, op_name: &str) -> Option<Vec<Tuple>> {
        Some(self.tap_ref(job, op_name)?.iter().cloned().collect())
    }

    /// [`Kernel::tap`] without the copy: the operator's own ring, lent.
    pub fn tap_ref(&self, job: JobId, op_name: &str) -> Option<&VecDeque<Tuple>> {
        self.process_of_op(job, op_name)?.runtime.tap(op_name)
    }

    /// Injects an item directly into an operator (user-driven test input and
    /// the ORCA command tool's user events).
    pub fn inject(
        &mut self,
        job: JobId,
        op_name: &str,
        port: usize,
        item: StreamItem,
    ) -> Result<(), RuntimeError> {
        let info = self.sam.job(job).ok_or(RuntimeError::UnknownJob(job))?;
        let op = info
            .adl
            .operator(op_name)
            .ok_or_else(|| RuntimeError::Invalid(format!("unknown operator {op_name}")))?;
        let pe_id = info.pe_ids[op.pe];
        let proc = self
            .cluster
            .process_mut(pe_id)
            .ok_or(RuntimeError::UnknownPe(pe_id))?;
        proc.runtime.inject(op_name, port, item)?;
        Ok(())
    }

    // ---- the quantum --------------------------------------------------------

    /// Advances the entire system by one scheduling quantum. The body is
    /// the phase order, and the order is load-bearing: kills land before
    /// the step they pre-empt, a promoted PE replays its gap before it
    /// steps, transport follows the step (one quantum of latency), and
    /// snapshots run after transport so they capture this quantum's
    /// deliveries.
    pub fn quantum(&mut self) {
        self.now += self.config.quantum;
        self.control_plane_quantum();
        self.fire_scheduled_kills();
        let promoted = self.cluster.promote_due(self.now);
        self.run_replays(promoted);
        let stepped = self.step_live();
        for (job, from_adl, delivery) in stepped.remote {
            self.transport_remote(job, from_adl, delivery);
        }
        for (job, from_adl, items) in stepped.exported {
            self.transport_export(job, from_adl, &items);
        }
        self.report_crashes(stepped.crashes);
        self.issue_checkpoints();
        self.commit_checkpoints();
        self.push_metrics_if_due();
    }

    /// Steps every live PE once and collects what they emitted.
    fn step_live(&mut self) -> Stepped {
        let mut out = Stepped::default();
        let (now, quantum, budget) = (self.now, self.config.quantum, self.config.pe_budget);
        for proc in self.cluster.live_mut() {
            let step = proc.runtime.step(now, quantum, budget);
            for d in step.remote {
                out.remote.push((proc.job, proc.adl_index, d));
            }
            if !step.exported.is_empty() {
                out.exported.push((proc.job, proc.adl_index, step.exported));
            }
            if let Some(msg) = step.crashed {
                out.crashes.push((proc.pe_id, msg));
            }
        }
        for (pe, _) in &out.crashes {
            self.cluster.set_status(*pe, PeStatus::Crashed);
        }
        out
    }

    /// Periodic HC → SRM metric push: every [`METRICS_PUSH_PERIOD`], every HC
    /// snapshots its live PEs' metrics into SRM.
    fn push_metrics_if_due(&mut self) {
        if self.now.since(self.last_metrics_push) < METRICS_PUSH_PERIOD {
            return;
        }
        self.last_metrics_push = self.now;
        for proc in self.cluster.live_mut() {
            proc.runtime.refresh_queue_metrics();
            let snapshot = proc.runtime.metrics().snapshot();
            self.srm
                .push_pe_metrics(proc.job, proc.pe_id, self.now, snapshot);
        }
    }
}

#[cfg(test)]
mod tests;
