//! The runtime kernel: coordinates SAM, SRM, the cluster, and the broker.
//!
//! Kernel methods are the simulated RPC surface the ORCA service calls ("the
//! ORCA service acts as a proxy to issue job submission and control
//! commands", §3): job submission with placement-constraint resolution,
//! cancellation, PE stop/restart/kill, host failure, and metric routing.
//! [`Kernel::quantum`] advances the whole distributed system by one
//! scheduling quantum.

use crate::broker::{BackupEntry, BackupItem, Broker, ChannelKey, UbStats, UpstreamBackup};
use crate::ckpt::{CheckpointPolicy, CheckpointStore};
use crate::cluster::{Cluster, PeProcess, PeStatus};
use crate::error::RuntimeError;
use crate::ids::{JobId, OrcaId, PeId};
use crate::metastore::MetastoreKind;
use crate::sam::{CrashReason, JobInfo, JobStatus, OrcaNotification, Sam};
use crate::srm::Srm;
use sps_engine::codec::Frame;
use sps_engine::metrics::builtin;
use sps_engine::pe::ExportedItem;
use sps_engine::{
    EngineError, MetricKey, OperatorRegistry, PeCheckpoint, PeRuntime, StreamItem, Tuple,
};
use sps_model::adl::Adl;
use sps_model::logical::HostPool;
use sps_sim::{SimDuration, SimRng, SimTime, TraceRing};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;

/// Tunable timing/capacity parameters.
#[derive(Clone, Copy, Debug)]
pub struct RuntimeConfig {
    /// PE scheduling quantum (simulation tick).
    pub quantum: SimDuration,
    /// Work-budget units per PE per quantum.
    pub pe_budget: u32,
    /// HC → SRM metric push period (paper default: 3 s).
    pub metrics_push_period: SimDuration,
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
    /// How long a crashed control-plane component (ORCA service, SAM) stays
    /// down before its recovery completes.
    pub control_restart_delay: SimDuration,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            quantum: SimDuration::from_millis(100),
            pe_budget: 10_000,
            metrics_push_period: SimDuration::from_secs(3),
            seed: 0x5EED,
            restart_delay: SimDuration::from_secs(2),
            checkpoint: CheckpointPolicy::default(),
            metastore: MetastoreKind::Memory,
            liveness_deadline: SimDuration::from_secs(6),
            control_restart_delay: SimDuration::from_secs(2),
        }
    }
}

/// Control-plane fault/recovery counters (campaign-report hooks). All zero
/// on a fault-free run — the report renders them only when any moved.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ControlStats {
    /// `CrashOrchestrator` faults taken.
    pub orca_crashes: u64,
    /// ORCA recoveries completed (down window expired).
    pub orca_recoveries: u64,
    /// Notifications found durably queued at ORCA recovery — the backlog
    /// the revived service replays on its next pull.
    pub notifications_replayed: u64,
    /// `RestartSam` recoveries completed.
    pub sam_restarts: u64,
    /// Metastore log ops replayed across SAM recoveries.
    pub meta_ops_replayed: u64,
    /// `PartitionSamHc` faults taken.
    pub hc_partitions: u64,
    /// Hosts SAM declared dead on heartbeat staleness while they were in
    /// fact up. The campaign's control-plane oracle requires zero: injected
    /// partitions are always shorter than the liveness deadline.
    pub false_declarations: u64,
}

impl ControlStats {
    pub fn any(&self) -> bool {
        *self != ControlStats::default()
    }

    pub fn merge(&mut self, other: &ControlStats) {
        self.orca_crashes += other.orca_crashes;
        self.orca_recoveries += other.orca_recoveries;
        self.notifications_replayed += other.notifications_replayed;
        self.sam_restarts += other.sam_restarts;
        self.meta_ops_replayed += other.meta_ops_replayed;
        self.hc_partitions += other.hc_partitions;
        self.false_declarations += other.false_declarations;
    }
}

/// A scheduled fault-injection action.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum KillTarget {
    Pe(PeId),
    Host(String),
}

/// One PE crash, as observed by SAM's failure-notification path. The
/// campaign harness' notification-conservation oracle checks these against
/// the per-orchestrator notification counters.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CrashRecord {
    pub at: SimTime,
    pub pe: PeId,
    /// `None` when the PE was not (or no longer) known to SAM.
    pub job: Option<JobId>,
    /// [`CrashReason::class`] of the failure.
    pub reason: &'static str,
    /// Whether the crashed PE's job had an owning orchestrator (and a
    /// notification was therefore pushed).
    pub owned: bool,
}

/// Why a restart came back with fresh operator state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FreshReason {
    /// The kernel's checkpoint policy is off.
    Disabled,
    /// At least one fused operator opted out (`checkpointable = false`).
    NotCheckpointable,
    /// No snapshot has been taken for this PE slot yet.
    NoCheckpoint,
    /// A snapshot existed but no longer matched the container (format
    /// version, PE index, or operator list) and was rejected.
    Incompatible,
    /// The slot's checkpoint chain was reclaimed by the storage budget
    /// before the restart could use it.
    Evicted,
}

impl std::fmt::Display for FreshReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            FreshReason::Disabled => "checkpointing disabled",
            FreshReason::NotCheckpointable => "PE not checkpointable",
            FreshReason::NoCheckpoint => "no checkpoint",
            FreshReason::Incompatible => "incompatible checkpoint",
            FreshReason::Evicted => "checkpoint evicted",
        })
    }
}

/// How a PE restart obtained its initial operator state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RestoreOutcome {
    /// State restored from a checkpoint taken at `taken_at`. `verified` is
    /// the runtime's self-check: re-checkpointing the restored container
    /// reproduced the stored digest, i.e. no operator state was dropped or
    /// corrupted on the way back in.
    Restored {
        taken_at: SimTime,
        digest: u64,
        verified: bool,
        ops_restored: usize,
        /// How far behind the chain head the restored generation was:
        /// 0 = the live head, k > 0 = the k-th sealed generation, reached
        /// because every newer generation failed to restore.
        generations_back: usize,
    },
    /// Fresh operator state (checkpointing disabled, PE not checkpointable,
    /// no snapshot yet, or an incompatible snapshot was rejected).
    Fresh { reason: FreshReason },
}

impl RestoreOutcome {
    pub fn restored(&self) -> bool {
        matches!(self, RestoreOutcome::Restored { .. })
    }
}

/// One successful PE restart (per-PE restart history).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RestartRecord {
    pub at: SimTime,
    pub old_pe: PeId,
    pub new_pe: PeId,
    pub job: JobId,
    pub host: String,
    /// ADL PE index of the restarted slot.
    pub adl_index: usize,
    /// Whether (and how faithfully) checkpointed state was recovered.
    pub restore: RestoreOutcome,
    /// `nTuplesProcessed` per operator as recorded in the restored
    /// checkpoint (empty for fresh restarts). The campaign's state oracle
    /// checks these monotone counters never go backwards afterwards.
    pub restored_op_counts: Vec<(String, i64)>,
    /// Simulated storage read latency this restart paid before replay
    /// (0 for fresh restarts): added onto `restart_delay` in `up_at`.
    pub restore_ms: u64,
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
    /// Sender-side output buffers + duplicate suppression (active when
    /// `config.checkpoint.upstream_backup`).
    backup: UpstreamBackup,
    /// Checkpoint-restored PEs awaiting their replay at promotion time,
    /// keyed by the replacement PE id → snapshot time the restore rewound
    /// to. Consumed when the PE is promoted `Starting` → `Up`.
    pending_replay: BTreeMap<PeId, SimTime>,
    /// Crashed ORCA services → when their recovery completes. While down, a
    /// service skips its quantum entirely; SAM keeps queueing its
    /// notifications durably.
    orca_down: BTreeMap<OrcaId, SimTime>,
    /// Active `RestartSam` window: SAM serves again (after metastore
    /// recovery) once this time passes.
    sam_down_until: Option<SimTime>,
    /// Active `PartitionSamHc` window: host heartbeats do not reach SAM
    /// until this time passes.
    hc_partition_until: Option<SimTime>,
    control_stats: ControlStats,
}

/// A PE slot is checkpointable iff every operator fused into it opted in
/// (mirrors the `restartable` rule).
fn pe_is_checkpointable(adl: &Adl, adl_index: usize) -> bool {
    adl.operators
        .iter()
        .filter(|o| o.pe == adl_index)
        .all(|o| o.checkpointable)
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
            // The replicated store's RNG is a separate seeded stream, never
            // a fork of the kernel's live RNG: building (or running) it must
            // not perturb the simulation's draw sequence, so the fault-free
            // campaign digest is identical across store kinds.
            sam: Sam::with_store(config.metastore, config.seed ^ 0x4d45_5441),
            config,
            cluster,
            srm,
            broker: Broker::new(),
            registry,
            ckpt: CheckpointStore::for_policy(&config.checkpoint),
            trace: TraceRing::new(65_536),
            scheduled_kills: VecDeque::new(),
            last_metrics_push: SimTime::ZERO,
            crash_log: Vec::new(),
            restart_log: Vec::new(),
            backup: UpstreamBackup::new(),
            pending_replay: BTreeMap::new(),
            orca_down: BTreeMap::new(),
            sam_down_until: None,
            hc_partition_until: None,
            control_stats: ControlStats::default(),
        }
    }

    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Whether deliveries are being buffered for exactly-once replay.
    pub fn upstream_backup_enabled(&self) -> bool {
        self.config.checkpoint.enabled() && self.config.checkpoint.upstream_backup
    }

    /// Upstream-backup counters (buffered/replayed/suppressed/trimmed).
    pub fn ub_stats(&self) -> UbStats {
        self.backup.stats()
    }

    // ---- job lifecycle ------------------------------------------------------

    /// Submits an application: validates the ADL, places every PE per its
    /// constraints, spawns the PE processes, and registers import/export
    /// endpoints. Atomic: on placement failure, nothing is left behind.
    pub fn submit_job(&mut self, adl: Adl, owner: Option<OrcaId>) -> Result<JobId, RuntimeError> {
        adl.validate()?;
        for op in &adl.operators {
            if !self.registry.has_kind(&op.kind) {
                return Err(EngineError::UnknownOperatorKind(op.kind.clone()).into());
            }
        }
        let job = self.sam.alloc_job_id();

        let mut placed: Vec<(PeId, String)> = Vec::new();
        let mut reserved: Vec<String> = Vec::new();
        // host-exlocate tag → hosts already used within this submission.
        let mut exlocate_used: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
        let mut pe_ids = Vec::with_capacity(adl.pes.len());

        for pe_def in &adl.pes {
            let pool = pe_def.host_pool.as_ref().map(|name| {
                adl.host_pools
                    .iter()
                    .find(|p| &p.name == name)
                    .expect("ADL validated: pool exists")
            });
            let excluded: &BTreeSet<String> = pe_def
                .host_exlocate
                .as_ref()
                .and_then(|tag| exlocate_used.get(tag))
                .unwrap_or(const { &BTreeSet::new() });

            let host = match self.pick_host(job, pool, excluded) {
                Some(h) => h,
                None => {
                    // Roll back everything placed so far.
                    for (pe, _) in &placed {
                        self.cluster.remove_process(*pe);
                    }
                    for host in &reserved {
                        self.sam.unreserve_host(host);
                    }
                    return Err(RuntimeError::PlacementFailed(format!(
                        "no host satisfies constraints of PE {} of {} (pool={:?})",
                        pe_def.index, adl.app_name, pe_def.host_pool
                    )));
                }
            };

            let pe_id = self.sam.alloc_pe_id();
            let runtime =
                PeRuntime::build(&adl, pe_def.index, &self.registry, self.rng.fork(pe_id.0))?;
            self.cluster
                .host_mut(&host)
                .expect("picked host exists")
                .processes
                .insert(
                    pe_id,
                    PeProcess {
                        pe_id,
                        job,
                        adl_index: pe_def.index,
                        checkpointable: pe_is_checkpointable(&adl, pe_def.index),
                        status: PeStatus::Up,
                        started_at: self.now,
                        up_at: self.now,
                        runtime,
                    },
                );
            if pool.is_some_and(|p| p.exclusive) && self.sam.host_reservation(&host) != Some(job) {
                // Reserve eagerly so later PEs of this submission pack onto
                // the same hosts.
                self.sam.reserve_host(&host, job);
                reserved.push(host.clone());
            }
            if let Some(tag) = &pe_def.host_exlocate {
                exlocate_used
                    .entry(tag.clone())
                    .or_default()
                    .insert(host.clone());
            }
            placed.push((pe_id, host));
            pe_ids.push(pe_id);
        }

        let exports = adl
            .exports
            .iter()
            .map(|e| (e.op.clone(), e.port, e.spec.clone()))
            .collect::<Vec<_>>();
        let imports = adl
            .imports
            .iter()
            .map(|i| (i.op.clone(), i.spec.clone()))
            .collect::<Vec<_>>();
        self.broker
            .register_job(job, &adl.app_name, exports, imports);

        self.trace.push(
            self.now,
            "sam",
            format!(
                "job {job} ({}) submitted with {} PEs",
                adl.app_name,
                pe_ids.len()
            ),
        );
        self.sam.insert_job(JobInfo {
            id: job,
            app_name: adl.app_name.clone(),
            adl,
            pe_ids,
            status: JobStatus::Running,
            submitted_at: self.now,
            owner,
        });
        Ok(job)
    }

    /// Chooses the least-loaded eligible host for a PE.
    ///
    /// Exclusive pools *pack*: once a job has reserved hosts, later PEs of
    /// the same job prefer those hosts, keeping the exclusive footprint (and
    /// the number of hosts denied to other jobs) minimal — so e.g. three
    /// exclusive replicas fit a three-host cluster (§5.2).
    fn pick_host(
        &self,
        job: JobId,
        pool: Option<&HostPool>,
        excluded: &BTreeSet<String>,
    ) -> Option<String> {
        if pool.is_some_and(|p| p.exclusive) {
            // Prefer a host already reserved for this job.
            let reuse = self
                .cluster
                .hosts()
                .filter(|h| {
                    h.up && !excluded.contains(&h.name)
                        && self.sam.host_reservation(&h.name) == Some(job)
                })
                .map(|h| (h.live_processes(), h.name.as_str()))
                .min();
            if let Some((_, name)) = reuse {
                return Some(name.to_string());
            }
        }
        let mut best: Option<(usize, &str)> = None;
        for host in self.cluster.hosts() {
            if !host.up || excluded.contains(&host.name) {
                continue;
            }
            // Pool membership.
            if let Some(pool) = pool {
                let member = if !pool.hosts.is_empty() {
                    pool.hosts.contains(&host.name)
                } else if let Some(tag) = &pool.tag {
                    host.has_tag(tag)
                } else {
                    true
                };
                if !member {
                    continue;
                }
            }
            // Reservations: a host reserved for another job is off limits.
            match self.sam.host_reservation(&host.name) {
                Some(owner) if owner != job => continue,
                _ => {}
            }
            // Exclusive pools additionally require the host to be free of
            // other jobs' processes.
            if pool.is_some_and(|p| p.exclusive) && host.processes.values().any(|p| p.job != job) {
                continue;
            }
            let load = host.live_processes();
            if best.is_none_or(|(bl, bn)| (load, host.name.as_str()) < (bl, bn)) {
                best = Some((load, &host.name));
            }
        }
        best.map(|(_, name)| name.to_string())
    }

    /// Cancels a job: stops and removes its PEs, releases reservations,
    /// drops its metrics and checkpoints, and dissolves dynamic stream
    /// connections.
    pub fn cancel_job(&mut self, job: JobId) -> Result<(), RuntimeError> {
        let info = self
            .sam
            .remove_job(job)
            .ok_or(RuntimeError::UnknownJob(job))?;
        for pe in &info.pe_ids {
            self.cluster.remove_process(*pe);
            // Belt and braces next to `forget_job` below: every retired PE
            // drops its SRM snapshot on the path that retires it.
            self.srm.forget_pe(job, *pe);
            self.pending_replay.remove(pe);
        }
        self.broker.unregister_job(job);
        self.srm.forget_job(job);
        self.ckpt.forget_job(job);
        self.backup.forget_job(job);
        self.trace.push(
            self.now,
            "sam",
            format!("job {job} ({}) cancelled", info.app_name),
        );
        Ok(())
    }

    /// Restarts a crashed or stopped PE. When checkpointing is enabled
    /// ([`RuntimeConfig::checkpoint`]) and the PE is checkpointable (every
    /// fused operator has `checkpointable = true`), the replacement process
    /// is seeded from the newest stored [`PeCheckpoint`] of this `(job, ADL
    /// PE index)` slot, and the restore is self-verified by re-checkpointing
    /// the revived container and comparing digests. **Fallback:** when
    /// checkpointing is off, no snapshot exists yet, or the stored snapshot
    /// no longer matches the ADL shape, the PE comes back with fresh
    /// operator state — the §5.2 window-refill behavior. The outcome is
    /// recorded in the [`RestartRecord`]. Returns the replacement PE id.
    pub fn restart_pe(&mut self, pe: PeId) -> Result<PeId, RuntimeError> {
        let (job, adl_index) = self.sam.pe_lookup(pe).ok_or(RuntimeError::UnknownPe(pe))?;
        let info = self.sam.job(job).ok_or(RuntimeError::UnknownJob(job))?;
        let restartable = info
            .adl
            .operators
            .iter()
            .filter(|o| o.pe == adl_index)
            .all(|o| o.restartable);
        if !restartable {
            return Err(RuntimeError::NotRestartable(pe));
        }
        let adl = info.adl.clone();
        let pe_def = &adl.pes[adl_index];
        let old_host = self.cluster.host_of_pe(pe).map(str::to_string);

        let pool = pe_def
            .host_pool
            .as_ref()
            .and_then(|name| adl.host_pools.iter().find(|p| &p.name == name));
        // Prefer the previous host when it is still up; otherwise re-place
        // under the original constraints. Placement happens *before* the old
        // process is removed, so a failed restart (no host available) leaves
        // the crashed process in place and a later attempt can still succeed.
        let host = match old_host
            .clone()
            .filter(|h| self.cluster.host(h).is_some_and(|h| h.up))
        {
            Some(h) => h,
            None => self.pick_host(job, pool, &BTreeSet::new()).ok_or_else(|| {
                RuntimeError::PlacementFailed(format!("no host available to restart PE {pe}"))
            })?,
        };
        let checkpointable = pe_is_checkpointable(&adl, adl_index);
        let new_pe = self.sam.alloc_pe_id();
        let pe_rng = self.rng.fork(new_pe.0);
        let mut runtime = PeRuntime::build(&adl, adl_index, &self.registry, pe_rng.clone())?;

        // Recover operator state from the newest restorable checkpoint
        // generation. Any write still in flight for this slot belongs to
        // the dead incarnation — were it to commit *after* the restore
        // rolled back to an older snapshot, its (newer) head would
        // misrepresent the revived PE's state and, under upstream backup,
        // trim buffered tuples the replacement still needs. Abort it.
        let mut restored_op_counts: Vec<(String, i64)> = Vec::new();
        let mut restore_ms = 0u64;
        let mut restored_sender_pos: Vec<(crate::broker::ChannelKey, u64)> = Vec::new();
        let restore = if !self.config.checkpoint.enabled() {
            RestoreOutcome::Fresh {
                reason: FreshReason::Disabled,
            }
        } else if !checkpointable {
            RestoreOutcome::Fresh {
                reason: FreshReason::NotCheckpointable,
            }
        } else {
            self.ckpt.abort_inflight(job, adl_index);
            let candidates = self.ckpt.restore_candidates(job, adl_index);
            let mut outcome = None;
            for generation in 0..candidates {
                let cand = self
                    .ckpt
                    .restore_candidate(job, adl_index, generation)
                    .expect("generation index in range");
                let stored = cand.ckpt;
                // Harness fault injection: silently lose the last stateful
                // operator's blob. The self-verification below must notice.
                // Only this test-only path pays for a second checkpoint
                // clone.
                let degraded = self.config.checkpoint.lossy_restore.then(|| {
                    let mut c = PeCheckpoint::clone(&stored);
                    if let Some(op) = c.ops.iter_mut().rev().find(|o| o.blob.is_some()) {
                        Arc::make_mut(op).blob = None;
                    }
                    c
                });
                match runtime.restore(degraded.as_ref().unwrap_or(&*stored)) {
                    Ok(ops_restored) => {
                        // Self-verify: a faithful restore re-serializes to
                        // the stored digest (taken_at is excluded from the
                        // digest).
                        let stored_digest = stored.digest();
                        let verified = runtime.checkpoint(self.now).digest() == stored_digest;
                        restored_op_counts = stored
                            .metrics
                            .iter()
                            .filter_map(|(key, v)| match key.as_ref() {
                                MetricKey::Operator(op, m) if m == builtin::N_TUPLES_PROCESSED => {
                                    Some((op.clone(), *v))
                                }
                                _ => None,
                            })
                            .collect();
                        // Reading the chain back from storage costs
                        // sim-time, paid on top of the spawn delay below.
                        restore_ms = self
                            .ckpt
                            .storage()
                            .restore_latency(cand.read_bytes)
                            .as_millis();
                        restored_sender_pos = cand.sender_pos;
                        self.ckpt.count_restore();
                        outcome = Some(RestoreOutcome::Restored {
                            taken_at: stored.taken_at,
                            digest: stored_digest,
                            verified,
                            ops_restored,
                            generations_back: generation,
                        });
                        break;
                    }
                    Err(e) => {
                        // Partial restores corrupt state: discard and fall
                        // back to the next-oldest sealed generation (fresh
                        // state once none are left).
                        runtime =
                            PeRuntime::build(&adl, adl_index, &self.registry, pe_rng.clone())?;
                        self.trace.push(
                            self.now,
                            "ckpt",
                            format!("restore of PE slot {job}/{adl_index} rejected: {e}"),
                        );
                    }
                }
            }
            match outcome {
                Some(o) => o,
                None => {
                    self.ckpt.count_fallback();
                    let reason = if candidates > 0 {
                        FreshReason::Incompatible
                    } else if self.ckpt.was_evicted(job, adl_index) {
                        FreshReason::Evicted
                    } else {
                        FreshReason::NoCheckpoint
                    };
                    RestoreOutcome::Fresh { reason }
                }
            }
        };

        // Upstream-backup bookkeeping for the swap below.
        self.pending_replay.remove(&pe);
        if self.upstream_backup_enabled() {
            if let RestoreOutcome::Restored { taken_at, .. } = &restore {
                // Roll the sender-side duplicate-suppression counters back
                // in lockstep with the restored state, so the deterministic
                // replay walks the already-delivered range back up under
                // the high-water marks instead of past them.
                self.backup
                    .rollback_sender(job, adl_index, &restored_sender_pos);
                // The revived PE equals its snapshot; an immediate periodic
                // re-snapshot would be pure overhead (satellite cadence fix).
                let quanta_now = self.now.as_millis() / self.config.quantum.as_millis();
                self.ckpt.mark_snapshot_quantum(job, adl_index, quanta_now);
                // Replay the buffered gap once the process finishes
                // spawning (`Starting` → `Up`), not before: a replay into a
                // process that dies mid-spawn must be re-runnable.
                self.pending_replay.insert(new_pe, *taken_at);
            } else {
                // Fresh state: the buffered gap assumes the checkpoint base
                // and is meaningless to replay into a blank container.
                self.backup.drop_receiver((job, adl_index));
            }
        }

        // Placement and build succeeded: swap the processes.
        self.cluster.remove_process(pe);
        // Exclusive-pool relocation migrates the reservation: the claim on
        // the dead host follows the job to its new home, so a later revive
        // returns that host to the free pool instead of leaving it locked by
        // a job that no longer lives there. The old claim is released only
        // once no process of the job remains there (other crashed PEs of the
        // same job may still await their own relocation).
        if pool.is_some_and(|p| p.exclusive) {
            if let Some(old) = &old_host {
                if old != &host
                    && self.sam.host_reservation(old) == Some(job)
                    && self
                        .cluster
                        .host(old)
                        .is_none_or(|h| !h.processes.values().any(|p| p.job == job))
                {
                    self.sam.unreserve_host(old);
                }
            }
            self.sam.reserve_host(&host, job);
        }
        self.cluster
            .host_mut(&host)
            .expect("host exists")
            .processes
            .insert(
                new_pe,
                PeProcess {
                    pe_id: new_pe,
                    job,
                    adl_index,
                    checkpointable,
                    status: PeStatus::Starting,
                    started_at: self.now,
                    // Restores pay the storage read latency on top of the
                    // spawn delay: replay begins only once the chain has
                    // been read back.
                    up_at: self.now
                        + self.config.restart_delay
                        + SimDuration::from_millis(restore_ms),
                    runtime,
                },
            );
        self.sam.replace_pe(job, adl_index, new_pe);
        self.srm.forget_pe(job, pe);
        let how = match &restore {
            RestoreOutcome::Restored { taken_at, .. } => {
                format!("state restored from checkpoint @{taken_at}")
            }
            RestoreOutcome::Fresh { reason } => format!("fresh state ({reason})"),
        };
        self.restart_log.push(RestartRecord {
            at: self.now,
            old_pe: pe,
            new_pe,
            job,
            host: host.clone(),
            adl_index,
            restore,
            restored_op_counts,
            restore_ms,
        });
        self.trace.push(
            self.now,
            "sam",
            format!("PE {pe} of job {job} restarted as {new_pe} on {host}, {how}"),
        );
        Ok(new_pe)
    }

    /// Stops a PE without removing it (it can be restarted later).
    pub fn stop_pe(&mut self, pe: PeId) -> Result<(), RuntimeError> {
        let proc = self
            .cluster
            .process_mut(pe)
            .ok_or(RuntimeError::UnknownPe(pe))?;
        if proc.status != PeStatus::Up {
            return Err(RuntimeError::BadPeState(pe, "up"));
        }
        proc.status = PeStatus::Stopped;
        self.trace.push(self.now, "sam", format!("PE {pe} stopped"));
        Ok(())
    }

    /// Kills a PE process (fault injection / external crash). A `Starting`
    /// process can crash just like an `Up` one — mid-spawn is exactly when
    /// kill-during-restart faults land.
    pub fn kill_pe(&mut self, pe: PeId) -> Result<(), RuntimeError> {
        let proc = self
            .cluster
            .process_mut(pe)
            .ok_or(RuntimeError::UnknownPe(pe))?;
        if !matches!(proc.status, PeStatus::Up | PeStatus::Starting) {
            return Err(RuntimeError::BadPeState(pe, "up or starting"));
        }
        proc.status = PeStatus::Crashed;
        self.trace.push(self.now, "hc", format!("PE {pe} killed"));
        self.notify_pe_failure(pe, CrashReason::Killed);
        Ok(())
    }

    /// Takes a host down: all its live PEs crash with `HostFailure`.
    pub fn kill_host(&mut self, host_name: &str) -> Result<(), RuntimeError> {
        let host = self
            .cluster
            .host_mut(host_name)
            .ok_or_else(|| RuntimeError::Invalid(format!("unknown host {host_name}")))?;
        host.up = false;
        // `Starting` processes die with the host too: otherwise a PE whose
        // restart was in flight when the host failed would sit `Starting`
        // forever (the promotion loop skips down hosts) with nobody notified.
        let victims: Vec<PeId> = host
            .processes
            .values_mut()
            .filter(|p| matches!(p.status, PeStatus::Up | PeStatus::Starting))
            .map(|p| {
                p.status = PeStatus::Crashed;
                p.pe_id
            })
            .collect();
        self.srm.set_host_status(host_name, false);
        // A down host sends no heartbeats; forget its last one so the
        // liveness deadline never "detects" a failure SAM already handled.
        self.sam.clear_heartbeat(host_name);
        self.trace.push(
            self.now,
            "srm",
            format!("host {host_name} down ({} PEs lost)", victims.len()),
        );
        for pe in victims {
            self.notify_pe_failure(pe, CrashReason::HostFailure);
        }
        Ok(())
    }

    /// Brings a host back (recovered hardware). Crashed PEs stay crashed
    /// until explicitly restarted.
    pub fn revive_host(&mut self, host_name: &str) -> Result<(), RuntimeError> {
        let host = self
            .cluster
            .host_mut(host_name)
            .ok_or_else(|| RuntimeError::Invalid(format!("unknown host {host_name}")))?;
        host.up = true;
        self.srm.set_host_status(host_name, true);
        // An immediate heartbeat: the revived host must get a full deadline
        // of grace even if a partition window is still open.
        let now = self.now;
        self.sam.record_heartbeat(host_name, now);
        self.trace
            .push(self.now, "srm", format!("host {host_name} up"));
        Ok(())
    }

    // ---- control-plane faults (§3: the middleware itself is crashable) -----

    /// Crashes a registered ORCA service: it skips its quanta until the
    /// recovery completes at `now + control_restart_delay`. SAM keeps
    /// queueing the service's notifications durably throughout; on recovery
    /// the backlog is replayed into the service's next pull. Returns false
    /// for an unknown orchestrator.
    pub fn crash_orchestrator(&mut self, orca: OrcaId) -> bool {
        if !self.sam.orchestrators().contains(&orca) {
            return false;
        }
        let until = self.now + self.config.control_restart_delay;
        self.orca_down.insert(orca, until);
        self.control_stats.orca_crashes += 1;
        self.trace.push(
            self.now,
            "faults",
            format!("orchestrator {orca} crashed, recovery at {until}"),
        );
        true
    }

    /// Whether an ORCA service is inside a crash window (its controller
    /// must skip its quantum).
    pub fn orca_is_down(&self, orca: OrcaId) -> bool {
        self.orca_down.contains_key(&orca)
    }

    /// Restarts SAM: the daemon goes unavailable (drains return empty — the
    /// explicit Unavailable path) until `now + control_restart_delay`, when
    /// the metastore recovers (a logging store replays its op log,
    /// digest-verified) and SAM serves again. Returns false if a restart
    /// window is already open.
    pub fn restart_sam(&mut self) -> bool {
        if self.sam_down_until.is_some() {
            return false;
        }
        let until = self.now + self.config.control_restart_delay;
        self.sam_down_until = Some(until);
        self.sam.begin_restart();
        self.trace.push(
            self.now,
            "faults",
            format!("SAM restarting, recovery at {until}"),
        );
        true
    }

    /// Partitions SAM from the host controllers for `duration`: heartbeats
    /// stop arriving, and the liveness deadline starts running down against
    /// every host's last recorded heartbeat. Injected partitions are
    /// bounded below the deadline, so a correct SAM declares nobody dead.
    pub fn partition_sam_hc(&mut self, duration: SimDuration) {
        let until = self.now + duration;
        // Overlapping partitions extend, never shorten, the window.
        if self.hc_partition_until.is_none_or(|t| t < until) {
            self.hc_partition_until = Some(until);
        }
        self.control_stats.hc_partitions += 1;
        self.trace.push(
            self.now,
            "faults",
            format!("SAM/HC partition until {until}"),
        );
    }

    pub fn control_stats(&self) -> ControlStats {
        self.control_stats
    }

    /// SAM's failure-detection verdict on a heartbeat-stale host: crash its
    /// PEs with `HostFailure`. The host process itself keeps running (it is
    /// merely unreachable), which is exactly why a declaration before the
    /// deadline is a *false* one — counted, and required zero by the
    /// control-plane oracle.
    fn declare_host_dead(&mut self, host_name: &str) {
        self.sam.clear_heartbeat(host_name);
        let Some(host) = self.cluster.host_mut(host_name) else {
            return;
        };
        let victims: Vec<PeId> = host
            .processes
            .values_mut()
            .filter(|p| matches!(p.status, PeStatus::Up | PeStatus::Starting))
            .map(|p| {
                p.status = PeStatus::Crashed;
                p.pe_id
            })
            .collect();
        self.control_stats.false_declarations += 1;
        self.trace.push(
            self.now,
            "sam",
            format!(
                "host {host_name} declared dead on heartbeat staleness \
                 ({} PEs crashed)",
                victims.len()
            ),
        );
        for pe in victims {
            self.notify_pe_failure(pe, CrashReason::HostFailure);
        }
    }

    /// Expires control-fault windows and runs the heartbeat/liveness
    /// machinery for one quantum. On a fault-free run this records
    /// heartbeats (volatile, traceless, RNG-free) and nothing else — the
    /// campaign digest does not move.
    fn control_plane_quantum(&mut self) {
        // ORCA recoveries: the service resumes next quantum; its durable
        // notification backlog is what it replays.
        let recovered: Vec<OrcaId> = self
            .orca_down
            .iter()
            .filter(|(_, &until)| self.now >= until)
            .map(|(&o, _)| o)
            .collect();
        for orca in recovered {
            self.orca_down.remove(&orca);
            let backlog = self.sam.notifications_pending(orca) as u64;
            self.control_stats.orca_recoveries += 1;
            self.control_stats.notifications_replayed += backlog;
            self.trace.push(
                self.now,
                "faults",
                format!("orchestrator {orca} recovered, replaying {backlog} notifications"),
            );
        }

        // SAM recovery: the metastore rebuilds (and verifies) its tables.
        if self.sam_down_until.is_some_and(|until| self.now >= until) {
            self.sam_down_until = None;
            let rec = self.sam.complete_restart();
            self.control_stats.sam_restarts += 1;
            self.control_stats.meta_ops_replayed += rec.ops_replayed;
            self.trace.push(
                self.now,
                "faults",
                format!("SAM recovered, {} metastore ops replayed", rec.ops_replayed),
            );
        }

        // Partition expiry.
        if self
            .hc_partition_until
            .is_some_and(|until| self.now >= until)
        {
            self.hc_partition_until = None;
            self.trace
                .push(self.now, "faults", "SAM/HC partition healed".to_string());
        }

        // Heartbeats: every up host's controller pings SAM each quantum,
        // unless the partition swallows them.
        if self.hc_partition_until.is_none() {
            for host in self.cluster.hosts().filter(|h| h.up) {
                self.sam.record_heartbeat(&host.name, self.now);
            }
        }

        // Failure detection: hosts whose last heartbeat outlived the
        // deadline. Unreachable on the fault-free path (heartbeats land
        // every quantum) and under generated plans (partition durations are
        // bounded below the deadline) — a declaration here is a modeling
        // bug the oracle catches via `false_declarations`.
        let stale = self
            .sam
            .stale_hosts(self.now, self.config.liveness_deadline);
        for host in stale {
            self.declare_host_dead(&host);
        }
    }

    /// Schedules a fault injection at an absolute simulation time.
    pub fn schedule_kill(&mut self, at: SimTime, target: KillTarget) {
        self.scheduled_kills.push_back((at, target));
        self.scheduled_kills
            .make_contiguous()
            .sort_by_key(|(t, _)| *t);
    }

    fn notify_pe_failure(&mut self, pe: PeId, reason: CrashReason) {
        let lookup = self.sam.pe_lookup(pe);
        let owner = lookup.and_then(|(job, _)| self.sam.job(job).and_then(|j| j.owner));
        // A dead process pushes no more metrics; drop its stale SRM snapshot
        // so metric consumers only ever see live state. Previously only the
        // `restart_pe` path forgot per-PE metrics, so `kill_host` cascades
        // (and crashes of PEs that are never restarted) left stale
        // `MetricSnapshot`s behind.
        if let Some((job, _)) = lookup {
            self.srm.forget_pe(job, pe);
        }
        self.crash_log.push(CrashRecord {
            at: self.now,
            pe,
            job: lookup.map(|(job, _)| job),
            reason: reason.class(),
            owned: owner.is_some(),
        });
        let Some((job, adl_index)) = lookup else {
            return;
        };
        let Some(owner) = owner else {
            return; // unmanaged job: nobody to tell
        };
        let now = self.now;
        self.sam.push_notification(
            owner,
            OrcaNotification::PeFailure {
                job,
                pe,
                adl_index,
                reason,
                detected_at: now,
            },
        );
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
        let info = self.sam.job(job)?;
        let op = info.adl.operator(op_name)?;
        let pe_id = info.pe_ids.get(op.pe)?;
        self.cluster
            .process(*pe_id)?
            .runtime
            .metrics()
            .op_get(op_name, metric)
    }

    /// Whether a job's ADL PE slot is eligible for checkpointing (every
    /// fused operator opted in).
    pub fn pe_checkpointable(&self, job: JobId, adl_index: usize) -> bool {
        self.sam
            .job(job)
            .is_some_and(|info| pe_is_checkpointable(&info.adl, adl_index))
    }

    /// Whether *every* PE slot of a job is checkpointable — the
    /// precondition for the campaign's exactly-once (tap-count equality)
    /// claim under upstream backup.
    pub fn job_checkpointable(&self, job: JobId) -> bool {
        self.sam
            .job(job)
            .is_some_and(|info| (0..info.adl.pes.len()).all(|i| pe_is_checkpointable(&info.adl, i)))
    }

    /// Time of the newest stored snapshot covering a job's ADL PE slot —
    /// how fresh a recovery of that slot would be. Orchestrators use this
    /// as their failover freshness signal.
    pub fn checkpoint_coverage(&self, job: JobId, adl_index: usize) -> Option<SimTime> {
        self.ckpt.latest(job, adl_index).map(|c| c.taken_at)
    }

    /// PE slots whose live checkpoint chain budget eviction must never
    /// reclaim: every `Up`, checkpointable PE (any of them may need to
    /// restore at any moment). Slots of crashed PEs are deliberately *not*
    /// protected — losing a dead PE's chain to the budget is exactly the
    /// recovery cost the storage model exists to expose.
    fn protected_slots(&self) -> BTreeSet<(JobId, usize)> {
        let mut protected = BTreeSet::new();
        for host in self.cluster.hosts() {
            if !host.up {
                continue;
            }
            for proc in host.processes.values() {
                if proc.status == PeStatus::Up && proc.checkpointable {
                    protected.insert((proc.job, proc.adl_index));
                }
            }
        }
        protected
    }

    /// Contents of a sink-like operator.
    pub fn tap(&self, job: JobId, op_name: &str) -> Option<Vec<Tuple>> {
        let info = self.sam.job(job)?;
        let op = info.adl.operator(op_name)?;
        let pe_id = info.pe_ids.get(op.pe)?;
        self.cluster.process(*pe_id)?.runtime.tap(op_name)
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

    /// Advances the entire system by one scheduling quantum: fires scheduled
    /// faults, steps every live PE, transports inter-PE and cross-job
    /// deliveries, records crashes, and pushes metrics to SRM on schedule.
    pub fn quantum(&mut self) {
        self.now += self.config.quantum;

        // Control-plane recovery windows, heartbeats, and failure detection.
        self.control_plane_quantum();

        // Scheduled fault injections.
        while self
            .scheduled_kills
            .front()
            .is_some_and(|(t, _)| *t <= self.now)
        {
            let Some((_, target)) = self.scheduled_kills.pop_front() else {
                break;
            };
            let result = match &target {
                KillTarget::Pe(pe) => self.kill_pe(*pe),
                KillTarget::Host(h) => self.kill_host(h),
            };
            if let Err(e) = result {
                self.trace
                    .push(self.now, "faults", format!("scheduled kill failed: {e}"));
            }
        }

        // Promote spawning processes whose start latency elapsed, then
        // replay the buffered upstream-backup gap into any that were
        // restored from a checkpoint.
        let now_promote = self.now;
        let mut promoted: Vec<(PeId, JobId, usize)> = Vec::new();
        for host in self.cluster.hosts_mut() {
            if !host.up {
                continue;
            }
            for proc in host.processes.values_mut() {
                if proc.status == PeStatus::Starting && now_promote >= proc.up_at {
                    proc.status = PeStatus::Up;
                    promoted.push((proc.pe_id, proc.job, proc.adl_index));
                }
            }
        }
        self.run_replays(promoted);

        // Step all live PEs.
        let mut deliveries: Vec<(JobId, usize, sps_engine::RemoteDelivery)> = Vec::new();
        let mut exported: Vec<(JobId, usize, Vec<ExportedItem>)> = Vec::new();
        let mut crashes: Vec<(PeId, String)> = Vec::new();
        let (now, quantum, budget) = (self.now, self.config.quantum, self.config.pe_budget);
        for host in self.cluster.hosts_mut() {
            if !host.up {
                continue;
            }
            for proc in host.processes.values_mut() {
                if proc.status != PeStatus::Up {
                    continue;
                }
                let out = proc.runtime.step(now, quantum, budget);
                for d in out.remote {
                    deliveries.push((proc.job, proc.adl_index, d));
                }
                if !out.exported.is_empty() {
                    exported.push((proc.job, proc.adl_index, out.exported));
                }
                if let Some(msg) = out.crashed {
                    proc.status = PeStatus::Crashed;
                    crashes.push((proc.pe_id, msg));
                }
            }
        }

        // Inter-PE transport (one quantum of latency).
        for (job, from_adl, delivery) in deliveries {
            self.transport_remote(job, from_adl, delivery);
        }

        // Cross-job import/export routing.
        for (job, from_adl, items) in exported {
            self.transport_export(job, from_adl, &items);
        }

        // Crash notifications (SRM detects, SAM routes to the orchestrator).
        for (pe, msg) in crashes {
            self.trace
                .push(now, "srm", format!("PE {pe} crashed: {msg}"));
            self.notify_pe_failure(pe, CrashReason::OperatorFault(msg));
        }

        // Periodic checkpointing: every `every_quanta` ticks, snapshot each
        // live PE whose operators all opted in. A PE that crashed this very
        // quantum is already `Crashed` and keeps its previous snapshot —
        // exactly the state a subsequent restart should revive. Snapshots
        // run *after* transport, so the captured input queues include this
        // quantum's deliveries — which is what lets the checkpoint commit
        // ack (trim) every buffered delivery up to `taken_at`.
        if self.config.checkpoint.enabled() {
            let quanta_elapsed = self.now.as_millis() / self.config.quantum.as_millis();
            if quanta_elapsed.is_multiple_of(self.config.checkpoint.every_quanta as u64) {
                let half_period = (self.config.checkpoint.every_quanta / 2) as u64;
                let ub = self.upstream_backup_enabled();
                for host in self.cluster.hosts() {
                    if !host.up {
                        continue;
                    }
                    for proc in host.processes.values() {
                        if proc.status != PeStatus::Up || !proc.checkpointable {
                            continue;
                        }
                        let (job, adl_index) = (proc.job, proc.adl_index);
                        // Per-PE cadence: a slot captured (or restored) less
                        // than half a period ago skips this boundary — a PE
                        // revived just before the tick would otherwise be
                        // re-snapshotted immediately for no recovery gain.
                        if self
                            .ckpt
                            .quanta_since_snapshot(job, adl_index, quanta_elapsed)
                            .is_some_and(|since| since < half_period)
                        {
                            continue;
                        }
                        let sender_pos = if ub {
                            self.backup.sender_snapshot(job, adl_index)
                        } else {
                            Vec::new()
                        };
                        // Issue only: the snapshot becomes durable — and acks
                        // the upstream-backup gap — at commit time below.
                        self.ckpt.begin_save(
                            job,
                            adl_index,
                            proc.runtime.checkpoint(now),
                            sender_pos,
                            quanta_elapsed,
                            now,
                        );
                    }
                }
            }
            // Commit every in-flight write whose latency elapsed (with the
            // default zero-latency model that is this quantum's issues, in
            // issue order). Upstream-backup trimming fires here, on durable
            // *commit*, never at issue — an in-flight snapshot must not
            // trim tuples it has not yet covered.
            if self.ckpt.has_pending() {
                let protected = if self.ckpt.storage().budget_bytes > 0 {
                    self.protected_slots()
                } else {
                    BTreeSet::new()
                };
                let ub = self.upstream_backup_enabled();
                for commit in self.ckpt.poll_commits(self.now, &protected) {
                    if commit.accepted {
                        // The commit lands in the metastore's checkpoint
                        // index too, so a recovered SAM can prove which
                        // commits it knew about. The snapshot chain itself
                        // stays authoritative in the CheckpointStore.
                        self.sam
                            .record_ckpt_commit(commit.job, commit.adl_index, commit.taken_at);
                    }
                    if commit.accepted && ub {
                        // Commit acks the buffered gap: the snapshot covers
                        // every delivery at or before `taken_at`.
                        self.backup
                            .trim((commit.job, commit.adl_index), commit.taken_at);
                    }
                }
            }
        }

        // Periodic HC → SRM metric push.
        if self.now.since(self.last_metrics_push) >= self.config.metrics_push_period {
            self.last_metrics_push = self.now;
            self.push_all_metrics();
        }
    }

    /// Delivers one intra-job remote delivery. With upstream backup on,
    /// every emission first advances its channel's position counter —
    /// replay re-emissions at or below the high-water mark are duplicates
    /// of traffic the channel already carried and are suppressed — and
    /// deliveries to checkpointable receivers are retained in the
    /// receiver's backup buffer until a checkpoint commit acks them.
    fn transport_remote(
        &mut self,
        job: JobId,
        from_adl: usize,
        mut delivery: sps_engine::RemoteDelivery,
    ) {
        let Some(info) = self.sam.job(job) else {
            return;
        };
        let to_adl = delivery.dest.pe;
        let Some(&target_pe) = info.pe_ids.get(to_adl) else {
            return;
        };
        let ub = self.upstream_backup_enabled();
        if ub {
            let key = ChannelKey::Intra {
                job,
                from: from_adl,
                to: to_adl,
                op: delivery.dest.op.clone(),
                port: delivery.dest.port,
            };
            let items = delivery.items() as u64;
            let dup = self.backup.advance_n(&key, items);
            if dup == items {
                return; // replay duplicate: this delivery already went through
            }
            // A run can straddle the high-water mark: its first `dup`
            // tuples already went through pre-crash (`0 < dup < items`, so
            // only a batch does). Deliver only the tail, so the receiver
            // sees each tuple exactly once.
            if let Frame::Batch(batch) = &mut delivery.frame {
                batch.drop_front(dup as usize);
            }
        }
        let now = self.now;
        let Some(proc) = self.cluster.process_mut(target_pe) else {
            return;
        };
        if ub && proc.checkpointable {
            self.backup
                .buffer((job, to_adl), now, BackupItem::Remote(delivery.clone()));
        }
        // A down receiver misses the delivery — but when buffered above,
        // its restored incarnation replays it.
        if proc.status == PeStatus::Up {
            if let Err(e) = proc.runtime.receive(delivery) {
                self.trace
                    .push(now, "transport", format!("delivery failed: {e}"));
            }
        }
    }

    /// Routes what one PE exported during a step to every matching
    /// importer, with the same upstream-backup suppression/buffering as
    /// [`Self::transport_remote`] (each `(exporter, importer)` pair is its own
    /// channel). A run of consecutive items from one exported port resolves
    /// each importer once and hands it the whole run: an importer still sees
    /// its items in emission order, and nothing orders one importer's
    /// channel against another's.
    fn transport_export(&mut self, job: JobId, from_adl: usize, items: &[ExportedItem]) {
        let ub = self.upstream_backup_enabled();
        let now = self.now;
        for run in items.chunk_by(|a, b| a.port == b.port && a.op == b.op) {
            let (op, port) = (&run[0].op, run[0].port);
            for (target_job, import_op) in self.broker.route(job, op, port) {
                let target_job = *target_job;
                let Some(info) = self.sam.job(target_job) else {
                    continue;
                };
                let Some(to_adl) = info.adl.operator(import_op).map(|op| op.pe) else {
                    continue;
                };
                let Some(&target_pe) = info.pe_ids.get(to_adl) else {
                    continue;
                };
                let Some(proc) = self.cluster.process_mut(target_pe) else {
                    continue;
                };
                let key = ub.then(|| ChannelKey::Export {
                    from_job: job,
                    from: from_adl,
                    op: Arc::clone(op),
                    port,
                    to_job: target_job,
                    to_op: Arc::clone(import_op),
                });
                for item in run {
                    if key.as_ref().is_some_and(|key| self.backup.advance(key)) {
                        continue;
                    }
                    if ub && proc.checkpointable {
                        self.backup.buffer(
                            (target_job, to_adl),
                            now,
                            BackupItem::Import {
                                op: Arc::clone(import_op),
                                item: item.item.clone(),
                            },
                        );
                    }
                    if proc.status == PeStatus::Up {
                        let _ = proc.runtime.inject(import_op, 0, item.item.clone());
                    }
                }
            }
        }
    }

    /// Replays the upstream-backup gap into checkpoint-restored PEs at
    /// promotion time. Buffers are snapshotted for *all* promoted PEs
    /// before any replay runs: an emission one replay forwards to a fellow
    /// restored PE this same quantum is delivered directly (it is already
    /// `Up`) and must not also appear in that PE's replayed gap.
    fn run_replays(&mut self, promoted: Vec<(PeId, JobId, usize)>) {
        if self.pending_replay.is_empty() {
            return;
        }
        let mut replays: Vec<(PeId, JobId, usize, SimTime, Vec<BackupEntry>)> = promoted
            .into_iter()
            .filter_map(|(pe, job, adl_index)| {
                let from = self.pending_replay.remove(&pe)?;
                let entries = self.backup.replay_entries((job, adl_index));
                Some((pe, job, adl_index, from, entries))
            })
            .collect();
        // Upstream slots replay first, so a downstream replica re-executing
        // the same quantum sees deterministic channel-counter evolution.
        replays.sort_by_key(|&(pe, job, adl_index, _, _)| (job, adl_index, pe));
        for (pe, job, adl_index, from, entries) in replays {
            self.replay_gap(pe, job, adl_index, from, entries);
        }
    }

    /// Re-executes one restored PE through every grid quantum between its
    /// snapshot (`from`) and now, injecting the buffered deliveries at
    /// their original delivery quanta between steps. Deterministic
    /// re-execution reproduces the fault-free internal state; re-emissions
    /// the old incarnation already delivered downstream are suppressed by
    /// the channel high-water marks, while emissions the crash swallowed
    /// are delivered — late, but exactly once.
    fn replay_gap(
        &mut self,
        pe: PeId,
        job: JobId,
        adl_index: usize,
        from: SimTime,
        entries: Vec<BackupEntry>,
    ) {
        let (now, quantum, budget) = (self.now, self.config.quantum, self.config.pe_budget);
        let mut outs = Vec::new();
        let mut crashed: Option<String> = None;
        let mut injected = 0u64;
        {
            let Some(proc) = self.cluster.process_mut(pe) else {
                return;
            };
            // Entries at or before the snapshot are already part of the
            // restored state (the commit trims them, but be defensive).
            let mut entries = entries
                .into_iter()
                .skip_while(|e| e.delivered_at <= from)
                .peekable();
            let mut g = from + quantum;
            while g < now && crashed.is_none() {
                let out = proc.runtime.step(g, quantum, budget);
                if let Some(msg) = &out.crashed {
                    crashed = Some(msg.clone());
                    proc.status = PeStatus::Crashed;
                }
                outs.push(out);
                while let Some(entry) = entries.next_if(|e| e.delivered_at <= g) {
                    injected += entry.item.items();
                    match entry.item {
                        BackupItem::Remote(d) => {
                            let _ = proc.runtime.receive(d);
                        }
                        BackupItem::Import { op, item } => {
                            let _ = proc.runtime.inject(&op, 0, item);
                        }
                    }
                }
                g += quantum;
            }
        }
        self.backup.count_replayed(injected);
        self.trace.push(
            now,
            "ckpt",
            format!(
                "PE {pe} (job {job} slot {adl_index}) replayed {} quanta, \
                 {injected} buffered deliveries",
                outs.len()
            ),
        );
        for out in outs {
            for d in out.remote {
                self.transport_remote(job, adl_index, d);
            }
            self.transport_export(job, adl_index, &out.exported);
        }
        if let Some(msg) = crashed {
            self.trace
                .push(now, "srm", format!("PE {pe} crashed during replay: {msg}"));
            self.notify_pe_failure(pe, CrashReason::OperatorFault(msg));
        }
    }

    /// Every HC snapshots its live PEs' metrics into SRM.
    fn push_all_metrics(&mut self) {
        let now = self.now;
        let mut pushes = Vec::new();
        for host in self.cluster.hosts_mut() {
            if !host.up {
                continue;
            }
            for proc in host.processes.values_mut() {
                if proc.status != PeStatus::Up {
                    continue;
                }
                proc.runtime.refresh_queue_metrics();
                pushes.push((proc.job, proc.pe_id, proc.runtime.metrics().snapshot()));
            }
        }
        for (job, pe, snapshot) in pushes {
            self.srm.push_pe_metrics(job, pe, now, snapshot);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sps_model::compiler::{compile, CompileOptions};
    use sps_model::logical::{
        AppModelBuilder, CompositeGraphBuilder, ExportSpec, HostPool, ImportSpec,
        OperatorInvocation,
    };

    fn kernel(hosts: usize) -> Kernel {
        Kernel::new(
            Cluster::with_hosts(hosts),
            OperatorRegistry::with_builtins(),
            RuntimeConfig::default(),
        )
    }

    /// beacon → filter → sink, each in its own PE.
    fn pipeline_adl(name: &str, rate: f64) -> Adl {
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
        compile(&model, CompileOptions::default()).unwrap()
    }

    fn run(kernel: &mut Kernel, quanta: usize) {
        for _ in 0..quanta {
            kernel.quantum();
        }
    }

    #[test]
    fn submit_and_flow_across_pes() {
        let mut k = kernel(3);
        let job = k.submit_job(pipeline_adl("P", 50.0), None).unwrap();
        run(&mut k, 20); // 2 seconds
        let tap = k.tap(job, "snk").unwrap();
        assert!(!tap.is_empty(), "tuples should reach the sink across PEs");
        // Only even seqs pass the filter.
        assert!(tap.iter().all(|t| t.get_int("seq").unwrap() % 2 == 0));
    }

    #[test]
    fn placement_balances_load() {
        let mut k = kernel(3);
        k.submit_job(pipeline_adl("P", 1.0), None).unwrap();
        let loads: Vec<usize> = k.cluster.hosts().map(|h| h.live_processes()).collect();
        assert_eq!(loads, vec![1, 1, 1]);
    }

    #[test]
    fn submission_is_atomic_on_placement_failure() {
        let mut k = kernel(1);
        // Pool references a host that doesn't exist.
        let mut m = CompositeGraphBuilder::main();
        m.operator(
            "a",
            OperatorInvocation::new("Beacon")
                .source()
                .host_pool("ghost_pool"),
        );
        m.operator("b", OperatorInvocation::new("Sink").sink());
        m.pipe("a", "b");
        let mut builder = AppModelBuilder::new("A");
        builder.host_pool(HostPool::explicit("ghost_pool", &["nohost"]));
        let model = builder.build(m.build().unwrap()).unwrap();
        let adl = compile(&model, CompileOptions::default()).unwrap();
        assert!(matches!(
            k.submit_job(adl, None),
            Err(RuntimeError::PlacementFailed(_))
        ));
        // Nothing left behind.
        assert_eq!(
            k.cluster.hosts().map(|h| h.processes.len()).sum::<usize>(),
            0
        );
    }

    #[test]
    fn unknown_operator_kind_rejected_at_submit() {
        let mut k = kernel(1);
        let mut m = CompositeGraphBuilder::main();
        m.operator("a", OperatorInvocation::new("Mystery").source());
        let model = AppModelBuilder::new("A").build(m.build().unwrap()).unwrap();
        let adl = compile(&model, CompileOptions::default()).unwrap();
        assert!(matches!(
            k.submit_job(adl, None),
            Err(RuntimeError::Engine(EngineError::UnknownOperatorKind(_)))
        ));
    }

    #[test]
    fn cancel_removes_everything() {
        let mut k = kernel(2);
        let job = k.submit_job(pipeline_adl("P", 10.0), None).unwrap();
        run(&mut k, 5);
        k.cancel_job(job).unwrap();
        assert!(k.sam.job(job).is_none());
        assert_eq!(
            k.cluster.hosts().map(|h| h.processes.len()).sum::<usize>(),
            0
        );
        assert!(matches!(
            k.cancel_job(job),
            Err(RuntimeError::UnknownJob(_))
        ));
    }

    #[test]
    fn kill_and_restart_pe_loses_state() {
        let mut k = kernel(2);
        let job = k.submit_job(pipeline_adl("P", 50.0), None).unwrap();
        run(&mut k, 10);
        let sink_pe = k.pe_id_of(job, 2).unwrap();
        let before = k.tap(job, "snk").unwrap().len();
        assert!(before > 0);

        k.kill_pe(sink_pe).unwrap();
        assert_eq!(k.pe_status(sink_pe), Some(PeStatus::Crashed));
        // Killing twice is a state error.
        assert!(matches!(
            k.kill_pe(sink_pe),
            Err(RuntimeError::BadPeState(..))
        ));
        run(&mut k, 5); // tuples flowing to a dead PE are lost

        let new_pe = k.restart_pe(sink_pe).unwrap();
        assert_ne!(new_pe, sink_pe);
        // Spawning takes restart_delay before the process is Up.
        assert_eq!(k.pe_status(new_pe), Some(PeStatus::Starting));
        run(&mut k, 21); // past the 2 s default restart delay
        assert_eq!(k.pe_status(new_pe), Some(PeStatus::Up));
        assert_eq!(k.pe_id_of(job, 2), Some(new_pe));
        // Fresh operator state: the sink forgot its tuples.
        let after_restart = k.tap(job, "snk").unwrap().len();
        assert!(after_restart < before);
    }

    #[test]
    fn non_restartable_pe_refuses_restart() {
        let mut k = kernel(1);
        let mut m = CompositeGraphBuilder::main();
        m.operator(
            "a",
            OperatorInvocation::new("Beacon").source().not_restartable(),
        );
        let model = AppModelBuilder::new("A").build(m.build().unwrap()).unwrap();
        let adl = compile(&model, CompileOptions::default()).unwrap();
        let job = k.submit_job(adl, None).unwrap();
        let pe = k.pe_id_of(job, 0).unwrap();
        k.kill_pe(pe).unwrap();
        assert!(matches!(
            k.restart_pe(pe),
            Err(RuntimeError::NotRestartable(_))
        ));
    }

    #[test]
    fn host_failure_crashes_pes_and_restart_relocates() {
        let mut k = kernel(2);
        let job = k.submit_job(pipeline_adl("P", 10.0), None).unwrap();
        let pe0 = k.pe_id_of(job, 0).unwrap();
        let host0 = k.cluster.host_of_pe(pe0).unwrap().to_string();
        k.kill_host(&host0).unwrap();
        assert_eq!(k.pe_status(pe0), Some(PeStatus::Crashed));
        assert_eq!(k.srm.host_up(&host0), Some(false));
        // Restart relocates to the surviving host.
        let new_pe = k.restart_pe(pe0).unwrap();
        let new_host = k.cluster.host_of_pe(new_pe).unwrap();
        assert_ne!(new_host, host0);
        // Revive and verify status propagates.
        k.revive_host(&host0).unwrap();
        assert_eq!(k.srm.host_up(&host0), Some(true));
    }

    /// Regression: `kill_host` racing an in-flight `restart_pe` on the same
    /// host. The replacement process is still `Starting` when the host dies;
    /// it must crash with everything else (and notify the owner) rather than
    /// sit `Starting` forever on a downed host.
    #[test]
    fn kill_host_crashes_inflight_restarts() {
        let mut k = kernel(2);
        let orca = k.sam.register_orchestrator();
        let job = k.submit_job(pipeline_adl("P", 10.0), Some(orca)).unwrap();
        run(&mut k, 5);
        let pe = k.pe_id_of(job, 0).unwrap();
        let host = k.cluster.host_of_pe(pe).unwrap().to_string();
        k.kill_pe(pe).unwrap();
        // Restart lands on the same (still-up) host and is mid-spawn…
        let new_pe = k.restart_pe(pe).unwrap();
        assert_eq!(k.pe_status(new_pe), Some(PeStatus::Starting));
        assert_eq!(k.cluster.host_of_pe(new_pe), Some(host.as_str()));
        // …when the host goes down.
        k.kill_host(&host).unwrap();
        assert_eq!(
            k.pe_status(new_pe),
            Some(PeStatus::Crashed),
            "a Starting PE must die with its host"
        );
        // Every crash was pushed to the owner: the original kill, the
        // Starting replacement, and the host's other Up PE (3 PEs across 2
        // hosts → the killed host also ran one sibling).
        let notes = k.sam.drain_notifications(orca);
        assert_eq!(notes.len(), 3);
        // Reviving the host must not resurrect the crashed process.
        k.revive_host(&host).unwrap();
        run(&mut k, 30);
        assert_eq!(k.pe_status(new_pe), Some(PeStatus::Crashed));
        // The crashed replacement restarts cleanly on the surviving host.
        let third = k.restart_pe(new_pe).unwrap();
        run(&mut k, 21);
        assert_eq!(k.pe_status(third), Some(PeStatus::Up));
        // The whole history is in the logs: three crashes, two restarts.
        assert_eq!(k.crash_log().len(), 3);
        assert!(k.crash_log().iter().all(|c| c.owned));
        let restarted: Vec<_> = k.restart_log().iter().map(|r| r.old_pe).collect();
        assert_eq!(restarted, vec![pe, new_pe]);
    }

    /// A scheduled kill that lands during the restart gap (the PE is
    /// `Starting`) takes effect instead of erroring out.
    #[test]
    fn scheduled_kill_during_restart_gap_crashes_pe() {
        let mut k = kernel(1);
        let job = k.submit_job(pipeline_adl("P", 10.0), None).unwrap();
        let pe = k.pe_id_of(job, 0).unwrap();
        k.kill_pe(pe).unwrap();
        let new_pe = k.restart_pe(pe).unwrap();
        k.schedule_kill(SimTime::from_millis(500), KillTarget::Pe(new_pe));
        run(&mut k, 5); // restart delay is 2 s: still Starting at 500 ms
        assert_eq!(k.pe_status(new_pe), Some(PeStatus::Crashed));
        assert!(k.trace.find("scheduled kill failed").is_empty());
    }

    #[test]
    fn exclusive_restart_relocation_migrates_reservation() {
        let mut k = kernel(3);
        let mut m = CompositeGraphBuilder::main();
        m.operator("src", OperatorInvocation::new("Beacon").source());
        let model = AppModelBuilder::new("R").build(m.build().unwrap()).unwrap();
        let mut adl = compile(&model, CompileOptions::default()).unwrap();
        adl.make_host_pools_exclusive("R");
        let job = k.submit_job(adl, None).unwrap();
        let pe = k.pe_id_of(job, 0).unwrap();
        let old_host = k.cluster.host_of_pe(pe).unwrap().to_string();
        assert_eq!(k.sam.host_reservation(&old_host), Some(job));
        k.kill_host(&old_host).unwrap();
        let new_pe = k.restart_pe(pe).unwrap();
        let new_host = k.cluster.host_of_pe(new_pe).unwrap().to_string();
        assert_ne!(new_host, old_host);
        // The reservation followed the job; the dead host is free again.
        assert_eq!(k.sam.host_reservation(&old_host), None);
        assert_eq!(k.sam.host_reservation(&new_host), Some(job));
    }

    /// A failed restart (no host available) must leave the crashed process
    /// in place so the restart can be retried once capacity returns.
    #[test]
    fn failed_restart_is_retryable() {
        let mut k = kernel(1);
        let job = k.submit_job(pipeline_adl("P", 10.0), None).unwrap();
        let pe = k.pe_id_of(job, 0).unwrap();
        k.kill_host("host0").unwrap();
        assert!(matches!(
            k.restart_pe(pe),
            Err(RuntimeError::PlacementFailed(_))
        ));
        // The process survived the failed attempt…
        assert_eq!(k.pe_status(pe), Some(PeStatus::Crashed));
        // …and the retry succeeds after the host comes back.
        k.revive_host("host0").unwrap();
        let new_pe = k.restart_pe(pe).unwrap();
        run(&mut k, 21);
        assert_eq!(k.pe_status(new_pe), Some(PeStatus::Up));
    }

    /// Migration releases the old host's exclusive claim only after the
    /// *last* process of the job has left it: with two crashed PEs on the
    /// dead host, the first relocation must not open the host to others.
    #[test]
    fn partial_relocation_keeps_old_reservation_until_empty() {
        let mut k = kernel(3);
        let mut m = CompositeGraphBuilder::main();
        m.operator("a", OperatorInvocation::new("Beacon").source());
        m.operator("b", OperatorInvocation::new("Beacon").source());
        let model = AppModelBuilder::new("R").build(m.build().unwrap()).unwrap();
        let mut adl = compile(&model, CompileOptions::default()).unwrap();
        adl.make_host_pools_exclusive("R");
        let job = k.submit_job(adl, None).unwrap();
        let (pe_a, pe_b) = (k.pe_id_of(job, 0).unwrap(), k.pe_id_of(job, 1).unwrap());
        // Exclusive pools pack: both PEs share one reserved host.
        let old_host = k.cluster.host_of_pe(pe_a).unwrap().to_string();
        assert_eq!(k.cluster.host_of_pe(pe_b), Some(old_host.as_str()));
        k.kill_host(&old_host).unwrap();

        let new_a = k.restart_pe(pe_a).unwrap();
        let new_host = k.cluster.host_of_pe(new_a).unwrap().to_string();
        assert_ne!(new_host, old_host);
        // pe_b still sits crashed on the old host → the claim stays.
        assert_eq!(k.sam.host_reservation(&old_host), Some(job));
        assert_eq!(k.sam.host_reservation(&new_host), Some(job));

        let new_b = k.restart_pe(pe_b).unwrap();
        // The second relocation packs onto the job's new home and finally
        // releases the emptied old host.
        assert_eq!(k.cluster.host_of_pe(new_b), Some(new_host.as_str()));
        assert_eq!(k.sam.host_reservation(&old_host), None);
        assert_eq!(k.sam.host_reservation(&new_host), Some(job));
    }

    #[test]
    fn operator_fault_notifies_owner_orchestrator() {
        let mut k = kernel(1);
        let orca = k.sam.register_orchestrator();
        let mut m = CompositeGraphBuilder::main();
        m.operator(
            "src",
            OperatorInvocation::new("Beacon")
                .source()
                .param("rate", 50.0),
        );
        m.operator(
            "bomb",
            OperatorInvocation::new("FaultInject").param("fault_after", 3i64),
        );
        m.pipe("src", "bomb");
        let model = AppModelBuilder::new("Boom")
            .build(m.build().unwrap())
            .unwrap();
        let adl = compile(&model, CompileOptions::default()).unwrap();
        let job = k.submit_job(adl, Some(orca)).unwrap();
        run(&mut k, 30);
        let notes = k.sam.drain_notifications(orca);
        assert_eq!(notes.len(), 1);
        match &notes[0] {
            OrcaNotification::PeFailure { job: j, reason, .. } => {
                assert_eq!(*j, job);
                assert!(matches!(reason, CrashReason::OperatorFault(_)));
            }
        }
    }

    #[test]
    fn unmanaged_job_failures_notify_nobody() {
        let mut k = kernel(1);
        let orca = k.sam.register_orchestrator();
        let job = k.submit_job(pipeline_adl("P", 10.0), None).unwrap();
        let pe = k.pe_id_of(job, 0).unwrap();
        k.kill_pe(pe).unwrap();
        assert!(k.sam.drain_notifications(orca).is_empty());
    }

    #[test]
    fn scheduled_kill_fires_at_time() {
        let mut k = kernel(1);
        let job = k.submit_job(pipeline_adl("P", 10.0), None).unwrap();
        let pe = k.pe_id_of(job, 0).unwrap();
        k.schedule_kill(SimTime::from_millis(500), KillTarget::Pe(pe));
        run(&mut k, 4); // t = 400ms
        assert_eq!(k.pe_status(pe), Some(PeStatus::Up));
        run(&mut k, 1); // t = 500ms
        assert_eq!(k.pe_status(pe), Some(PeStatus::Crashed));
    }

    #[test]
    fn metrics_flow_to_srm_on_schedule() {
        let mut k = kernel(1);
        let job = k.submit_job(pipeline_adl("P", 50.0), None).unwrap();
        run(&mut k, 29); // 2.9 s: no push yet at default 3 s period
        assert!(k.srm.query_jobs(&[job]).is_empty());
        run(&mut k, 1); // 3.0 s
        let snap = &k.srm.query_jobs(&[job])[&job];
        assert_eq!(snap.collected_at, SimTime::from_secs(3));
        let processed = snap
            .values
            .iter()
            .find(|(key, _)| {
                key.operator_name() == Some("flt")
                    && key.metric_name() == "nTuplesProcessed"
                    && matches!(key.as_ref(), sps_engine::MetricKey::Operator(..))
            })
            .map(|(_, v)| *v)
            .unwrap();
        assert!(processed > 100, "got {processed}");
    }

    #[test]
    fn import_export_connects_two_jobs() {
        let mut k = kernel(2);
        // Producer exports its filter output.
        let mut m = CompositeGraphBuilder::main();
        m.operator(
            "src",
            OperatorInvocation::new("Beacon")
                .source()
                .param("rate", 50.0),
        );
        m.operator(
            "out",
            OperatorInvocation::new("Export").export(0, ExportSpec::by_id("evens")),
        );
        m.pipe("src", "out");
        let producer = AppModelBuilder::new("Producer")
            .build(m.build().unwrap())
            .unwrap();

        let mut m = CompositeGraphBuilder::main();
        m.operator(
            "in",
            OperatorInvocation::new("Import")
                .source()
                .import_spec(ImportSpec::by_id("evens")),
        );
        m.operator("snk", OperatorInvocation::new("Sink").sink());
        m.pipe("in", "snk");
        let consumer = AppModelBuilder::new("Consumer")
            .build(m.build().unwrap())
            .unwrap();

        let _p = k
            .submit_job(compile(&producer, CompileOptions::default()).unwrap(), None)
            .unwrap();
        let c = k
            .submit_job(compile(&consumer, CompileOptions::default()).unwrap(), None)
            .unwrap();
        assert_eq!(k.broker.num_connections(), 1);
        run(&mut k, 20);
        let tap = k.tap(c, "snk").unwrap();
        assert!(
            !tap.is_empty(),
            "imported tuples should reach consumer sink"
        );
        // Cancelling the consumer dissolves the connection.
        k.cancel_job(c).unwrap();
        assert_eq!(k.broker.num_connections(), 0);
    }

    #[test]
    fn exclusive_pools_keep_jobs_apart() {
        let mut k = kernel(3);
        let make = |name: &str| {
            let mut m = CompositeGraphBuilder::main();
            m.operator("src", OperatorInvocation::new("Beacon").source());
            let model = AppModelBuilder::new(name)
                .build(m.build().unwrap())
                .unwrap();
            let mut adl = compile(&model, CompileOptions::default()).unwrap();
            adl.make_host_pools_exclusive(name);
            adl
        };
        let j1 = k.submit_job(make("R0"), None).unwrap();
        let j2 = k.submit_job(make("R1"), None).unwrap();
        let h1 = k
            .cluster
            .host_of_pe(k.pe_id_of(j1, 0).unwrap())
            .unwrap()
            .to_string();
        let h2 = k
            .cluster
            .host_of_pe(k.pe_id_of(j2, 0).unwrap())
            .unwrap()
            .to_string();
        assert_ne!(h1, h2, "exclusive jobs must not share hosts");
        // A third exclusive job fits on the remaining host; a fourth fails.
        let _j3 = k.submit_job(make("R2"), None).unwrap();
        assert!(matches!(
            k.submit_job(make("R3"), None),
            Err(RuntimeError::PlacementFailed(_))
        ));
    }

    #[test]
    fn host_exlocation_spreads_pes() {
        let mut k = kernel(2);
        let mut m = CompositeGraphBuilder::main();
        m.operator(
            "a",
            OperatorInvocation::new("Beacon")
                .source()
                .host_exlocate("spread"),
        );
        m.operator(
            "b",
            OperatorInvocation::new("Beacon")
                .source()
                .host_exlocate("spread"),
        );
        let model = AppModelBuilder::new("S").build(m.build().unwrap()).unwrap();
        let adl = compile(&model, CompileOptions::default()).unwrap();
        let job = k.submit_job(adl, None).unwrap();
        let h0 = k.cluster.host_of_pe(k.pe_id_of(job, 0).unwrap()).unwrap();
        let h1 = k.cluster.host_of_pe(k.pe_id_of(job, 1).unwrap()).unwrap();
        assert_ne!(h0, h1);
    }

    #[test]
    fn inject_reaches_operator() {
        let mut k = kernel(1);
        let job = k.submit_job(pipeline_adl("P", 0.0), None).unwrap();
        k.inject(
            job,
            "snk",
            0,
            StreamItem::Tuple(Tuple::new().with("seq", 0i64)),
        )
        .unwrap();
        run(&mut k, 2);
        assert_eq!(k.tap(job, "snk").unwrap().len(), 1);
        assert!(k
            .inject(job, "ghost", 0, StreamItem::Punct(sps_engine::Punct::Final))
            .is_err());
    }

    fn ckpt_kernel(hosts: usize, every_quanta: u32) -> Kernel {
        Kernel::new(
            Cluster::with_hosts(hosts),
            OperatorRegistry::with_builtins(),
            RuntimeConfig {
                checkpoint: crate::ckpt::CheckpointPolicy::every(every_quanta),
                ..RuntimeConfig::default()
            },
        )
    }

    #[test]
    fn restart_restores_newest_checkpoint() {
        let mut k = ckpt_kernel(2, 5); // checkpoint every 500 ms
        let job = k.submit_job(pipeline_adl("P", 50.0), None).unwrap();
        run(&mut k, 10); // 1 s: two checkpoint rounds taken
        assert!(k.ckpt.saved() > 0);
        assert!(k.ckpt.latest(job, 2).is_some());
        let sink_pe = k.pe_id_of(job, 2).unwrap();
        let before = k.tap(job, "snk").unwrap().len();
        assert!(before > 0);

        k.kill_pe(sink_pe).unwrap();
        let new_pe = k.restart_pe(sink_pe).unwrap();
        // Even while still `Starting`, the restored container already holds
        // the checkpointed sink contents.
        let after = k.tap(job, "snk").unwrap().len();
        assert!(after > 0, "restored sink must keep pre-crash tuples");
        assert!(after <= before); // at most the checkpoint lag is lost
        let rec = k.restart_log().last().unwrap().clone();
        assert_eq!(rec.new_pe, new_pe);
        assert_eq!(rec.adl_index, 2);
        match rec.restore {
            RestoreOutcome::Restored {
                verified,
                ops_restored,
                ..
            } => {
                assert!(verified, "self-verification must pass");
                assert!(ops_restored >= 1);
            }
            other => panic!("expected restored state, got {other:?}"),
        }
        assert!(rec
            .restored_op_counts
            .iter()
            .any(|(op, n)| op == "snk" && *n > 0));
        // Metric continuity: the revived PE's nTuplesProcessed carries on
        // from the checkpoint instead of resetting to zero.
        run(&mut k, 25);
        let processed = k.op_metric(job, "snk", "nTuplesProcessed").unwrap();
        assert!(processed as usize >= before, "{processed} < {before}");
        assert_eq!(k.ckpt.restored(), 1);
    }

    #[test]
    fn restart_without_checkpoint_or_policy_is_fresh() {
        // Policy off: even after a long run there is nothing to restore.
        let mut k = kernel(2);
        let job = k.submit_job(pipeline_adl("P", 50.0), None).unwrap();
        run(&mut k, 10);
        assert_eq!(k.ckpt.saved(), 0);
        let pe = k.pe_id_of(job, 2).unwrap();
        k.kill_pe(pe).unwrap();
        k.restart_pe(pe).unwrap();
        assert_eq!(
            k.restart_log().last().unwrap().restore,
            RestoreOutcome::Fresh {
                reason: FreshReason::Disabled
            }
        );

        // Policy on but the kill lands before the first snapshot round.
        let mut k = ckpt_kernel(2, 1_000_000);
        let job = k.submit_job(pipeline_adl("P", 50.0), None).unwrap();
        run(&mut k, 3);
        let pe = k.pe_id_of(job, 2).unwrap();
        k.kill_pe(pe).unwrap();
        k.restart_pe(pe).unwrap();
        assert_eq!(
            k.restart_log().last().unwrap().restore,
            RestoreOutcome::Fresh {
                reason: FreshReason::NoCheckpoint
            }
        );
        assert_eq!(k.ckpt.fallbacks(), 1);
    }

    #[test]
    fn non_checkpointable_operator_opts_its_pe_out() {
        let mut k = ckpt_kernel(1, 2);
        let mut m = CompositeGraphBuilder::main();
        m.operator(
            "src",
            OperatorInvocation::new("Beacon")
                .source()
                .param("rate", 20.0)
                .not_checkpointable(),
        );
        let model = AppModelBuilder::new("N").build(m.build().unwrap()).unwrap();
        let adl = compile(&model, CompileOptions::default()).unwrap();
        let job = k.submit_job(adl, None).unwrap();
        run(&mut k, 10);
        assert!(!k.pe_checkpointable(job, 0));
        assert!(k.ckpt.latest(job, 0).is_none());
        let pe = k.pe_id_of(job, 0).unwrap();
        k.kill_pe(pe).unwrap();
        k.restart_pe(pe).unwrap();
        assert_eq!(
            k.restart_log().last().unwrap().restore,
            RestoreOutcome::Fresh {
                reason: FreshReason::NotCheckpointable
            }
        );
    }

    #[test]
    fn lossy_restore_fails_self_verification() {
        let mut k = Kernel::new(
            Cluster::with_hosts(2),
            OperatorRegistry::with_builtins(),
            RuntimeConfig {
                checkpoint: crate::ckpt::CheckpointPolicy::every(5).lossy(true),
                ..RuntimeConfig::default()
            },
        );
        let job = k.submit_job(pipeline_adl("P", 50.0), None).unwrap();
        run(&mut k, 10);
        let pe = k.pe_id_of(job, 2).unwrap();
        let before = k.tap(job, "snk").unwrap().len();
        assert!(before > 0);
        k.kill_pe(pe).unwrap();
        k.restart_pe(pe).unwrap();
        match &k.restart_log().last().unwrap().restore {
            RestoreOutcome::Restored { verified, .. } => {
                assert!(!verified, "dropping a blob must trip verification")
            }
            other => panic!("expected lossy restored outcome, got {other:?}"),
        }
        // The sink (last stateful op of the PE) indeed lost its contents.
        assert_eq!(k.tap(job, "snk").unwrap().len(), 0);
    }

    #[test]
    fn cancel_job_drops_checkpoints() {
        let mut k = ckpt_kernel(2, 2);
        let job = k.submit_job(pipeline_adl("P", 50.0), None).unwrap();
        run(&mut k, 6);
        assert!(!k.ckpt.is_empty());
        assert!(k.ckpt.state_bytes() > 0);
        k.cancel_job(job).unwrap();
        assert_eq!(k.ckpt.len(), 0);
    }

    fn storage_kernel(hosts: usize, policy: crate::ckpt::CheckpointPolicy) -> Kernel {
        Kernel::new(
            Cluster::with_hosts(hosts),
            OperatorRegistry::with_builtins(),
            RuntimeConfig {
                checkpoint: policy,
                ..RuntimeConfig::default()
            },
        )
    }

    /// With write latency, a snapshot issued at the boundary is invisible
    /// (unrestorable, untrimmed) until its commit time passes — the
    /// in-flight window the async store exists to model.
    #[test]
    fn write_latency_defers_commit_and_trim() {
        let mut k = storage_kernel(
            2,
            crate::ckpt::CheckpointPolicy::every(5)
                .upstream_backup(true)
                .storage(crate::ckpt::StorageModel::default().with_write(250, 0)),
        );
        let job = k.submit_job(pipeline_adl("P", 50.0), None).unwrap();
        run(&mut k, 5); // t = 500 ms: snapshots issued, commit at 750 ms
        assert!(k.ckpt.issued() > 0);
        assert_eq!(k.ckpt.saved(), 0, "nothing durable yet");
        assert!(k.ckpt.write_in_flight(job, 2));
        assert!(k.ckpt.latest(job, 2).is_none());
        assert!(k.backup.buffered_now() > 0);
        assert_eq!(
            k.backup.stats().trimmed,
            0,
            "an uncommitted snapshot must not trim the backup buffers"
        );
        run(&mut k, 3); // t = 800 ms >= commit time
        assert!(k.ckpt.saved() > 0);
        assert!(!k.ckpt.has_pending());
        assert!(k.ckpt.latest(job, 2).is_some());
        assert!(
            k.backup.stats().trimmed > 0,
            "the durable commit acks the covered deliveries"
        );
    }

    /// A restore reads the chain back through the storage model: the paid
    /// latency lands in the restart record and delays promotion.
    #[test]
    fn restore_latency_delays_promotion() {
        let mut k = storage_kernel(
            2,
            crate::ckpt::CheckpointPolicy::every(5)
                .storage(crate::ckpt::StorageModel::default().with_restore(300, 0)),
        );
        let job = k.submit_job(pipeline_adl("P", 50.0), None).unwrap();
        run(&mut k, 10); // t = 1 s, two snapshot rounds committed
        let pe = k.pe_id_of(job, 2).unwrap();
        k.kill_pe(pe).unwrap();
        let new_pe = k.restart_pe(pe).unwrap();
        let rec = k.restart_log().last().unwrap().clone();
        assert!(rec.restore.restored());
        assert_eq!(rec.restore_ms, 300);
        // restart_delay (2 s = 20 quanta) alone is no longer enough…
        run(&mut k, 22); // t = 3.2 s < 1 s + 2 s + 300 ms
        assert_eq!(
            k.cluster.process(new_pe).unwrap().status,
            PeStatus::Starting
        );
        // …the storage read must finish first.
        run(&mut k, 1); // t = 3.3 s
        assert_eq!(k.cluster.process(new_pe).unwrap().status, PeStatus::Up);
    }

    /// Budget pressure never touches the chains of `Up` PEs, but a crashed
    /// PE's slot is fair game — and its restart then reports `Evicted`.
    #[test]
    fn budget_eviction_reclaims_crashed_slot_and_reports_evicted() {
        let mut k = storage_kernel(
            2,
            crate::ckpt::CheckpointPolicy::every(2)
                .storage(crate::ckpt::StorageModel::default().with_budget(1)),
        );
        let job = k.submit_job(pipeline_adl("P", 50.0), None).unwrap();
        run(&mut k, 10);
        // Hopelessly over budget, yet nothing was evicted: every slot
        // belongs to an Up PE and is protected.
        assert!(k.ckpt.state_bytes() > 1);
        assert_eq!(k.ckpt.evictions(), 0);
        let pe = k.pe_id_of(job, 2).unwrap();
        k.kill_pe(pe).unwrap();
        run(&mut k, 2); // next boundary: the dead slot is now evictable
        assert!(k.ckpt.was_evicted(job, 2));
        assert!(k.ckpt.latest(job, 2).is_none());
        assert!(k.ckpt.latest(job, 0).is_some(), "live slots survive");
        k.restart_pe(pe).unwrap();
        let rec = k.restart_log().last().unwrap().clone();
        assert_eq!(
            rec.restore,
            RestoreOutcome::Fresh {
                reason: FreshReason::Evicted
            }
        );
        assert_eq!(rec.restore_ms, 0);
    }

    /// Satellite regression for the `delivered_at <= taken_at` trim
    /// boundary, end to end: deliveries landing on the snapshot instant are
    /// captured inside the v2 queue snapshot *and* acked by the commit, so
    /// a crash-restart around that boundary neither loses nor duplicates
    /// them — the faulted run converges to the fault-free twin exactly.
    #[test]
    fn snapshot_instant_delivery_is_neither_lost_nor_duplicated() {
        let policy = crate::ckpt::CheckpointPolicy::every(5).upstream_backup(true);
        let mut k = storage_kernel(2, policy);
        let job = k.submit_job(pipeline_adl("P", 50.0), None).unwrap();
        run(&mut k, 10); // kill lands exactly on a snapshot boundary
        let cov = k.checkpoint_coverage(job, 2).unwrap();
        assert_eq!(cov, SimTime::from_millis(1000));
        // Every buffered entry at or before the snapshot instant was
        // trimmed by the commit — none survive to be replayed on top of
        // the restored queues.
        assert!(k
            .backup
            .replay_entries((job, 2))
            .iter()
            .all(|e| e.delivered_at > cov));
        let pe = k.pe_id_of(job, 2).unwrap();
        k.kill_pe(pe).unwrap();
        k.restart_pe(pe).unwrap();
        run(&mut k, 40);

        let mut twin = storage_kernel(2, policy);
        let twin_job = twin.submit_job(pipeline_adl("P", 50.0), None).unwrap();
        run(&mut twin, 50);
        let seqs = |k: &Kernel, j: JobId| {
            k.tap(j, "snk")
                .unwrap()
                .iter()
                .map(|t| t.get_int("seq").unwrap())
                .collect::<Vec<_>>()
        };
        assert_eq!(seqs(&k, job), seqs(&twin, twin_job));
    }

    /// Re-execution after a restore batches the same tuple sequence at other
    /// boundaries than the crashed incarnation did, so a replayed run can
    /// begin below a channel's high-water mark and end above it: exactly
    /// its tail is delivered (and buffered), exactly its prefix counted as
    /// suppressed.
    #[test]
    fn replayed_run_straddling_the_high_water_mark_delivers_only_its_tail() {
        let policy = crate::ckpt::CheckpointPolicy::every(1000).upstream_backup(true);
        let mut k = storage_kernel(3, policy);
        // An idle source: the only traffic is what the test sends.
        let job = k.submit_job(pipeline_adl("P", 0.0), None).unwrap();
        run(&mut k, 5);
        let run_of = |seqs: std::ops::Range<i64>| sps_engine::RemoteDelivery {
            dest: sps_engine::pe::RemoteDest {
                pe: 2,
                op: "snk".into(),
                port: 0,
            },
            frame: Frame::Batch(
                seqs.map(|seq| Tuple::new().with("seq", seq))
                    .collect::<Vec<_>>()
                    .into(),
            ),
        };
        // flt (slot 1) sends seq 0..5; it is then restored to a snapshot
        // taken when it had sent three, and its re-execution emits seq 3..8
        // as one run.
        k.transport_remote(job, 1, run_of(0..5));
        let sent = k.backup.sender_snapshot(job, 1);
        assert_eq!(sent.len(), 1);
        assert_eq!(sent[0].1, 5);
        k.backup.rollback_sender(job, 1, &[(sent[0].0.clone(), 3)]);
        k.transport_remote(job, 1, run_of(3..8));
        assert_eq!(k.ub_stats().suppressed, 2);
        assert_eq!(k.ub_stats().buffered, 5 + 3);
        // A run wholly below the mark is suppressed whole, and not buffered.
        k.backup.rollback_sender(job, 1, &[(sent[0].0.clone(), 3)]);
        k.transport_remote(job, 1, run_of(3..8));
        assert_eq!(k.ub_stats().suppressed, 2 + 5);
        assert_eq!(k.ub_stats().buffered, 5 + 3);
        run(&mut k, 1);
        let seqs: Vec<i64> = k
            .tap(job, "snk")
            .unwrap()
            .iter()
            .map(|t| t.get_int("seq").unwrap())
            .collect();
        assert_eq!(seqs, (0..8).collect::<Vec<_>>());
        let buffered: Vec<u64> = k
            .backup
            .replay_entries((job, 2))
            .iter()
            .map(|e| e.item.items())
            .collect();
        assert_eq!(buffered, [5, 3]);
    }

    /// Regression (SRM hygiene): every path that retires or crashes a PE
    /// must drop its per-PE metric snapshot. Previously only `restart_pe`
    /// forgot metrics, so a `kill_host` cascade left stale snapshots behind.
    #[test]
    fn crashed_and_retired_pes_drop_srm_snapshots() {
        let mut k = kernel(2);
        let job = k.submit_job(pipeline_adl("P", 50.0), None).unwrap();
        run(&mut k, 30); // past the 3 s metric push
        let full = k.srm.query_jobs(&[job])[&job].values.len();
        assert!(full > 0);

        // kill_pe drops exactly that PE's rows.
        let sink_pe = k.pe_id_of(job, 2).unwrap();
        k.kill_pe(sink_pe).unwrap();
        let after_kill = k.srm.query_jobs(&[job])[&job].values.len();
        assert!(after_kill < full, "{after_kill} vs {full}");
        assert!(!k.srm.query_jobs(&[job])[&job]
            .values
            .iter()
            .any(|(key, _)| key.operator_name() == Some("snk")));

        // kill_host cascades drop every victim's rows.
        let pe0 = k.pe_id_of(job, 0).unwrap();
        let host0 = k.cluster.host_of_pe(pe0).unwrap().to_string();
        k.kill_host(&host0).unwrap();
        let snap = k.srm.query_jobs(&[job]);
        let remaining = snap.get(&job).map(|s| s.values.len()).unwrap_or(0);
        assert!(remaining < after_kill, "{remaining} vs {after_kill}");

        // cancel_job wipes the rest.
        k.cancel_job(job).unwrap();
        assert!(k.srm.query_jobs(&[job]).is_empty());
    }

    /// A SAM/HC partition that outlives the liveness deadline: SAM declares
    /// the (actually healthy) hosts dead, crashes their PEs with
    /// `HostFailure`, and counts the false declarations. Generated plans
    /// bound partitions below the deadline, so this path is reached only by
    /// deliberately over-long partitions like this one.
    #[test]
    fn over_deadline_partition_falsely_declares_hosts() {
        let mut k = kernel(2);
        let orca = k.sam.register_orchestrator();
        let job = k.submit_job(pipeline_adl("P", 10.0), Some(orca)).unwrap();
        run(&mut k, 5);
        // Partition for 7 s > the 6 s default deadline.
        k.partition_sam_hc(SimDuration::from_secs(7));
        run(&mut k, 61); // past the deadline, partition still open
        let stats = k.control_stats();
        assert_eq!(stats.hc_partitions, 1);
        assert_eq!(stats.false_declarations, 2, "both hosts declared");
        // The hosts themselves are still up — only their PEs were crashed.
        assert!(k.cluster.hosts().all(|h| h.up));
        for idx in 0..3 {
            let pe = k.pe_id_of(job, idx).unwrap();
            assert_eq!(k.pe_status(pe), Some(PeStatus::Crashed));
        }
        // Every crash was pushed to the owner as a HostFailure.
        let notes = k.sam.drain_notifications(orca);
        assert_eq!(notes.len(), 3);
        assert!(notes.iter().all(|n| matches!(
            n,
            OrcaNotification::PeFailure {
                reason: CrashReason::HostFailure,
                ..
            }
        )));
        // The partition heals and fresh heartbeats resume: no re-declaration.
        run(&mut k, 20);
        assert_eq!(k.control_stats().false_declarations, 2);
    }

    /// A partition bounded below the deadline declares nobody dead — the
    /// property generated `ps:` faults rely on.
    #[test]
    fn under_deadline_partition_is_harmless() {
        let mut k = kernel(2);
        let job = k.submit_job(pipeline_adl("P", 10.0), None).unwrap();
        run(&mut k, 5);
        k.partition_sam_hc(SimDuration::from_secs(4));
        run(&mut k, 100);
        assert_eq!(k.control_stats().false_declarations, 0);
        let pe = k.pe_id_of(job, 0).unwrap();
        assert_eq!(k.pe_status(pe), Some(PeStatus::Up));
    }

    /// ORCA crash window: notifications pushed while the service is down
    /// stay durably queued, and recovery reports the backlog it replays.
    #[test]
    fn orca_crash_window_preserves_backlog() {
        let mut k = kernel(2);
        let orca = k.sam.register_orchestrator();
        let job = k.submit_job(pipeline_adl("P", 10.0), Some(orca)).unwrap();
        assert!(!k.crash_orchestrator(OrcaId(99)), "unknown orca refused");
        assert!(k.crash_orchestrator(orca));
        assert!(k.orca_is_down(orca));
        let pe = k.pe_id_of(job, 0).unwrap();
        k.kill_pe(pe).unwrap();
        assert_eq!(k.sam.notifications_pending(orca), 1);
        run(&mut k, 21); // past the 2 s control restart delay
        assert!(!k.orca_is_down(orca));
        let stats = k.control_stats();
        assert_eq!(stats.orca_crashes, 1);
        assert_eq!(stats.orca_recoveries, 1);
        assert_eq!(stats.notifications_replayed, 1);
        assert_eq!(k.sam.drain_notifications(orca).len(), 1);
    }

    /// SAM restart on the replicated metastore: drains go unavailable for
    /// the window, recovery replays the op log (digest-verified inside the
    /// store), and notification conservation holds throughout.
    #[test]
    fn sam_restart_replays_the_metastore_log() {
        let mut k = Kernel::new(
            Cluster::with_hosts(2),
            OperatorRegistry::with_builtins(),
            RuntimeConfig {
                metastore: MetastoreKind::Replicated,
                ..RuntimeConfig::default()
            },
        );
        let orca = k.sam.register_orchestrator();
        let job = k.submit_job(pipeline_adl("P", 10.0), Some(orca)).unwrap();
        run(&mut k, 5);
        let pe = k.pe_id_of(job, 0).unwrap();
        k.kill_pe(pe).unwrap();
        assert!(k.restart_sam());
        assert!(!k.restart_sam(), "window already open");
        assert!(!k.sam.is_available());
        assert!(k.sam.drain_notifications(orca).is_empty(), "unavailable");
        run(&mut k, 21);
        assert!(k.sam.is_available());
        let stats = k.control_stats();
        assert_eq!(stats.sam_restarts, 1);
        assert!(stats.meta_ops_replayed > 0);
        // Nothing pushed was lost or double-drained.
        let pending = k.sam.notifications_pending(orca) as u64;
        assert_eq!(
            k.sam.notifications_pushed(orca),
            k.sam.notifications_drained(orca) + pending
        );
        assert_eq!(k.sam.drain_notifications(orca).len(), pending as usize);
        assert!(k.sam.metastore_verify());
    }

    /// The replicated store is a pure drop-in: a fault-free run produces a
    /// bit-identical trace digest under either store kind.
    #[test]
    fn fault_free_trace_digest_identical_across_stores() {
        let drive = |kind: MetastoreKind| {
            let mut k = Kernel::new(
                Cluster::with_hosts(2),
                OperatorRegistry::with_builtins(),
                RuntimeConfig {
                    metastore: kind,
                    checkpoint: crate::ckpt::CheckpointPolicy::every(5),
                    ..RuntimeConfig::default()
                },
            );
            let job = k.submit_job(pipeline_adl("P", 50.0), None).unwrap();
            run(&mut k, 30);
            let pe = k.pe_id_of(job, 2).unwrap();
            k.kill_pe(pe).unwrap();
            k.restart_pe(pe).unwrap();
            run(&mut k, 30);
            k.trace.digest()
        };
        assert_eq!(
            drive(MetastoreKind::Memory),
            drive(MetastoreKind::Replicated)
        );
    }

    /// Durable checkpoint commits land in the metastore's index and survive
    /// a SAM restart.
    #[test]
    fn ckpt_commits_recorded_in_metastore() {
        let mut k = Kernel::new(
            Cluster::with_hosts(2),
            OperatorRegistry::with_builtins(),
            RuntimeConfig {
                metastore: MetastoreKind::Replicated,
                checkpoint: crate::ckpt::CheckpointPolicy::every(5),
                ..RuntimeConfig::default()
            },
        );
        let job = k.submit_job(pipeline_adl("P", 50.0), None).unwrap();
        run(&mut k, 10);
        let indexed = k.sam.ckpt_commit(job, 2);
        assert!(indexed.is_some());
        assert_eq!(indexed, k.checkpoint_coverage(job, 2));
        k.restart_sam();
        run(&mut k, 21);
        // Later commits keep advancing the index; the restart lost nothing
        // and the recovered index still agrees with the authoritative store.
        let after = k.sam.ckpt_commit(job, 2);
        assert!(after >= indexed, "index survives restart: {after:?}");
        assert_eq!(after, k.checkpoint_coverage(job, 2));
        k.cancel_job(job).unwrap();
        assert_eq!(k.sam.ckpt_commit(job, 2), None);
    }

    #[test]
    fn stopped_pe_does_not_run() {
        let mut k = kernel(1);
        let job = k.submit_job(pipeline_adl("P", 50.0), None).unwrap();
        run(&mut k, 5);
        let count1 = k.tap(job, "snk").unwrap().len();
        let sink_pe = k.pe_id_of(job, 2).unwrap();
        k.stop_pe(sink_pe).unwrap();
        run(&mut k, 5);
        let count2 = k.tap(job, "snk").unwrap().len();
        assert_eq!(count1, count2);
        // Restart brings it back (fresh) after the spawn delay.
        let new_pe = k.restart_pe(sink_pe).unwrap();
        assert_eq!(k.pe_status(new_pe), Some(PeStatus::Starting));
        run(&mut k, 21);
        assert_eq!(k.pe_status(new_pe), Some(PeStatus::Up));
    }
}
