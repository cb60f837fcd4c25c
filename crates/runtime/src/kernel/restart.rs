//! PE restart: where the replacement goes (`place_restart`), what state it
//! comes back with ([`restore_slot`]), and the process swap that makes it
//! the slot's PE (`swap_process`).

use super::{fused_all, host_pool_of, Kernel};
use crate::{CheckpointStore, JobId, PeId, PeStatus, RestoreCandidate, RuntimeError};
use sps_engine::metrics::builtin;
use sps_engine::{EngineError, MetricKey, PeCheckpoint, PeRuntime};
use sps_model::logical::HostPool;
use sps_sim::{SimDuration, SimTime, TraceRing};
use std::collections::BTreeSet;

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

/// Seeds `runtime` — a freshly built container for `slot` — from the head of
/// the slot's chain in `store`, self-verifying the result by
/// re-checkpointing the revived container and comparing digests (`taken_at`
/// is excluded from the digest). A head the container rejects is traced and
/// discarded — partial restores corrupt state, so `runtime` is replaced by
/// `rebuild()` — and the container stays fresh; the reason says why.
/// Returns the outcome and the head restored from, if any, and counts one
/// restore or one fallback in `store` per call.
pub(super) fn restore_slot(
    store: &mut CheckpointStore,
    (job, adl_index): (JobId, usize),
    runtime: &mut PeRuntime,
    rebuild: impl Fn() -> Result<PeRuntime, EngineError>,
    now: SimTime,
    trace: &mut TraceRing,
) -> Result<(RestoreOutcome, Option<RestoreCandidate>), EngineError> {
    // Any write still in flight for this slot belongs to the dead
    // incarnation — were it to commit *after* the restore rolled back to an
    // older snapshot, its (newer) head would misrepresent the revived PE's
    // state and, under upstream backup, trim buffered tuples the
    // replacement still needs. Abort it.
    store.abort_inflight(job, adl_index);
    let reason = match store.restore_candidate(job, adl_index) {
        Some(head) => match runtime.restore(&head.ckpt) {
            Ok(ops_restored) => {
                let digest = head.ckpt.digest();
                store.count_restore();
                let outcome = RestoreOutcome::Restored {
                    taken_at: head.ckpt.taken_at,
                    digest,
                    verified: runtime.checkpoint(now).digest() == digest,
                    ops_restored,
                };
                return Ok((outcome, Some(head)));
            }
            Err(e) => {
                *runtime = rebuild()?;
                let msg = format!("restore of PE slot {job}/{adl_index} rejected: {e}");
                trace.push(now, "ckpt", msg);
                FreshReason::Incompatible
            }
        },
        None if store.was_evicted(job, adl_index) => FreshReason::Evicted,
        None => FreshReason::NoCheckpoint,
    };
    store.count_fallback();
    Ok((RestoreOutcome::Fresh { reason }, None))
}

fn fresh(reason: FreshReason) -> RestoreOutcome {
    RestoreOutcome::Fresh { reason }
}

/// `nTuplesProcessed` per operator, as a checkpoint recorded it.
fn processed_counts(ckpt: &PeCheckpoint) -> Vec<(String, i64)> {
    ckpt.metrics
        .iter()
        .filter_map(|(key, v)| match key.as_ref() {
            MetricKey::Operator(op, m) if m == builtin::N_TUPLES_PROCESSED => {
                Some((op.clone(), *v))
            }
            _ => None,
        })
        .collect()
}

impl Kernel {
    /// Restarts a crashed or stopped PE. When checkpointing is enabled
    /// ([`super::RuntimeConfig::checkpoint`]) and the PE is checkpointable
    /// (every fused operator has `checkpointable = true`), the replacement
    /// process is seeded from the newest stored [`PeCheckpoint`] of this
    /// `(job, ADL PE index)` slot, and the restore is self-verified by
    /// re-checkpointing the revived container and comparing digests.
    /// **Fallback:** when checkpointing is off, no snapshot exists yet, or
    /// the stored snapshot no longer matches the ADL shape, the PE comes
    /// back with fresh operator state — the §5.2 window-refill behavior.
    /// The outcome is recorded in the [`RestartRecord`]. Returns the
    /// replacement PE id.
    pub fn restart_pe(&mut self, pe: PeId) -> Result<PeId, RuntimeError> {
        let (job, adl_index) = self.sam.pe_lookup(pe).ok_or(RuntimeError::UnknownPe(pe))?;
        let info = self.sam.job(job).ok_or(RuntimeError::UnknownJob(job))?;
        if !fused_all(&info.adl, adl_index, |o| o.restartable) {
            return Err(RuntimeError::NotRestartable(pe));
        }
        let adl = info.adl.clone();
        let pool = host_pool_of(&adl, &adl.pes[adl_index]);
        // Placement happens *before* the old process is removed, so a
        // failed restart (no host available) leaves the crashed process in
        // place and a later attempt can still succeed.
        let old_host = self.cluster.host_of_pe(pe).map(str::to_string);
        let host = self.place_restart(pe, job, pool, old_host.as_deref())?;
        let new_pe = self.sam.alloc_pe_id();
        let pe_rng = self.rng.fork(new_pe.0);
        let build = || PeRuntime::build(&adl, adl_index, &self.registry, pe_rng.clone());
        let mut runtime = build()?;

        let policy = &self.config.checkpoint;
        let (restore, from) = if !policy.enabled() {
            (fresh(FreshReason::Disabled), None)
        } else if !fused_all(&adl, adl_index, |o| o.checkpointable) {
            (fresh(FreshReason::NotCheckpointable), None)
        } else {
            restore_slot(
                &mut self.ckpt,
                (job, adl_index),
                &mut runtime,
                build,
                self.now,
                &mut self.trace,
            )?
        };
        if self
            .transport
            .restarted(pe, new_pe, (job, adl_index), from.as_ref())
        {
            // The revived PE equals its snapshot; an immediate periodic
            // re-snapshot would be pure overhead.
            let quanta_now = self.now.as_millis() / self.config.quantum.as_millis();
            self.ckpt.mark_snapshot_quantum(job, adl_index, quanta_now);
        }

        // Reading the chain back from storage costs sim-time, paid on top
        // of the spawn delay: replay begins only once it has been read.
        let storage = self.ckpt.storage();
        let read = from.as_ref().map(|c| storage.restore_latency(c.read_bytes));
        let restore_ms = read.map_or(0, |latency| latency.as_millis());
        let up_at = self.now + self.config.restart_delay + SimDuration::from_millis(restore_ms);
        self.swap_process(pe, job, old_host.as_deref(), &host, pool);
        let slot = (job, &*adl, adl_index);
        self.spawn(&host, new_pe, slot, runtime, (PeStatus::Starting, up_at));
        self.sam.replace_pe(job, adl_index, new_pe);
        self.srm.forget_pe(job, pe);
        let how = match &restore {
            RestoreOutcome::Restored { taken_at, .. } => {
                format!("state restored from checkpoint @{taken_at}")
            }
            RestoreOutcome::Fresh { reason } => format!("fresh state ({reason})"),
        };
        self.note(
            "sam",
            format!("PE {pe} of job {job} restarted as {new_pe} on {host}, {how}"),
        );
        self.restart_log.push(RestartRecord {
            at: self.now,
            old_pe: pe,
            new_pe,
            job,
            host,
            adl_index,
            restore,
            restored_op_counts: from.map_or_else(Vec::new, |c| processed_counts(&c.ckpt)),
            restore_ms,
        });
        Ok(new_pe)
    }

    /// Where a restarted PE goes: its previous host when that is still up,
    /// otherwise wherever the slot's original constraints place it.
    fn place_restart(
        &self,
        pe: PeId,
        job: JobId,
        pool: Option<&HostPool>,
        old_host: Option<&str>,
    ) -> Result<String, RuntimeError> {
        match old_host.filter(|h| self.cluster.host(h).is_some_and(|h| h.up)) {
            Some(h) => Ok(h.to_string()),
            None => self.pick_host(job, pool, &BTreeSet::new()).ok_or_else(|| {
                RuntimeError::PlacementFailed(format!("no host available to restart PE {pe}"))
            }),
        }
    }

    /// Removes the old process of a restarted slot and moves the job's
    /// exclusive-pool reservation with it: the claim on the dead host
    /// follows the job to its new home, so a later revive returns that host
    /// to the free pool instead of leaving it locked by a job that no
    /// longer lives there. The old claim is released only once no process
    /// of the job remains there (other crashed PEs of the same job may
    /// still await their own relocation).
    fn swap_process(
        &mut self,
        pe: PeId,
        job: JobId,
        old_host: Option<&str>,
        host: &str,
        pool: Option<&HostPool>,
    ) {
        self.cluster.remove_process(pe);
        if !pool.is_some_and(|p| p.exclusive) {
            return;
        }
        if let Some(old_host) = old_host.filter(|&h| h != host) {
            if self.sam.host_reservation(old_host) == Some(job)
                && self
                    .cluster
                    .host(old_host)
                    .is_none_or(|h| !h.processes().iter().any(|p| p.job == job))
            {
                self.sam.unreserve_host(old_host);
            }
        }
        self.sam.reserve_host(host, job);
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{forgetful_registry, sink_adl};
    use super::*;
    use crate::StorageModel;
    use sps_engine::{OperatorRegistry, StreamItem, Tuple};
    use sps_model::adl::Adl;
    use sps_sim::SimRng;

    const SLOT: (JobId, usize) = (JobId(1), 0);

    /// What `restore_slot` needs and a kernel would otherwise supply: a
    /// store, a blank container for the slot and the means to build another.
    struct Fixture {
        adl: Adl,
        registry: OperatorRegistry,
        store: CheckpointStore,
        trace: TraceRing,
    }

    impl Fixture {
        fn new(budget_bytes: usize) -> Self {
            let storage = StorageModel::default().with_budget(budget_bytes);
            Fixture {
                adl: sink_adl(),
                registry: OperatorRegistry::with_builtins(),
                store: CheckpointStore::with_storage(storage),
                trace: TraceRing::new(64),
            }
        }

        fn blank(&self) -> PeRuntime {
            PeRuntime::build(&self.adl, SLOT.1, &self.registry, SimRng::new(1)).unwrap()
        }

        /// A snapshot, taken at `at_ms`, of a container whose sink holds
        /// `tuples` tuples.
        fn snapshot(&self, tuples: i64, at_ms: u64) -> PeCheckpoint {
            let mut pe = self.blank();
            for seq in 0..tuples {
                let item = StreamItem::Tuple(Tuple::new().with("seq", seq));
                pe.inject("snk", 0, item).unwrap();
            }
            let (now, quantum) = (SimTime::from_millis(at_ms), SimDuration::from_millis(100));
            pe.step(now, quantum, 10_000);
            pe.checkpoint(now)
        }

        /// A snapshot no container of this build accepts (a format version
        /// ahead of it), so saving one compacts the chain to a fresh base
        /// instead of stacking a delta on it.
        fn unrestorable(&self, at_ms: u64) -> PeCheckpoint {
            let mut ckpt = self.snapshot(1, at_ms);
            ckpt.format_version += 1;
            ckpt
        }

        fn save(&mut self, ckpt: PeCheckpoint) {
            assert!(self.store.save(SLOT.0, SLOT.1, ckpt, Vec::new(), 0));
        }

        fn restore(&mut self) -> (RestoreOutcome, Option<RestoreCandidate>, PeRuntime) {
            let mut runtime = self.blank();
            let rebuild = || PeRuntime::build(&self.adl, SLOT.1, &self.registry, SimRng::new(1));
            let now = SimTime::from_secs(1);
            let (outcome, from) = restore_slot(
                &mut self.store,
                SLOT,
                &mut runtime,
                rebuild,
                now,
                &mut self.trace,
            )
            .unwrap();
            (outcome, from, runtime)
        }

        fn counters(&self) -> (u64, u64) {
            (self.store.restored(), self.store.fallbacks())
        }
    }

    #[test]
    fn fresh_reason_tells_nothing_stored_from_evicted_from_all_rejected() {
        // Nothing was ever saved.
        let mut f = Fixture::new(0);
        let (outcome, from, _) = f.restore();
        let fresh = |reason| RestoreOutcome::Fresh { reason };
        assert_eq!(outcome, fresh(FreshReason::NoCheckpoint));
        assert!(from.is_none());
        assert_eq!(f.counters(), (0, 1));

        // A chain was saved, and the budget reclaimed it.
        let mut f = Fixture::new(1);
        f.save(f.snapshot(3, 100));
        f.store.enforce_budget(&BTreeSet::new());
        assert!(f.store.restore_candidate(SLOT.0, SLOT.1).is_none());
        assert_eq!(f.restore().0, fresh(FreshReason::Evicted));
        assert_eq!(f.counters(), (0, 1));

        // A chain exists, and the container rejects its head: the restore
        // is traced once and leaves a blank container, and the restorable
        // base the head compacted away is not tried.
        let mut f = Fixture::new(1 << 20);
        f.save(f.snapshot(3, 100));
        f.save(f.unrestorable(200));
        let (outcome, from, runtime) = f.restore();
        assert_eq!(outcome, fresh(FreshReason::Incompatible));
        assert!(from.is_none());
        assert_eq!(runtime.tap("snk").unwrap().len(), 0);
        assert_eq!(f.trace.find("rejected").len(), 1);
        assert_eq!(f.counters(), (0, 1));
    }

    #[test]
    fn lossy_restore_is_caught_by_self_verification() {
        let mut f = Fixture::new(0);
        f.save(f.snapshot(3, 100));
        let (faithful, ..) = f.restore();
        f.registry = forgetful_registry();
        let (lossy, _, runtime) = f.restore();
        let verified = |outcome: &RestoreOutcome| match outcome {
            RestoreOutcome::Restored { verified, .. } => *verified,
            other => panic!("expected a restore, got {other:?}"),
        };
        assert!(verified(&faithful));
        assert!(!verified(&lossy));
        assert_eq!(runtime.tap("snk").unwrap().len(), 0, "the blob was lost");
        // One count per call, whatever the call found.
        assert_eq!(f.counters(), (2, 0));
    }
}
