//! Metastore — the kernel's durable control-plane state (§3).
//!
//! Everything SAM must not lose across its own crash lives here: the job
//! table, the PE index, orchestrator notification queues, exclusive host
//! reservations, the id counters, and the checkpoint-commit index. All
//! mutations funnel through [`MetaOp`] so the store can log them; reads go
//! through the materialized [`MetaTables`].
//!
//! One store type, [`SamStore`]: the tables, their counters, and an optional
//! op log. [`MetastoreKind::Memory`] builds it without a log, so `recover()`
//! keeps the tables as they are (state survives by fiat, the immortal-SAM
//! assumption) and costs nothing. [`MetastoreKind::Replicated`] builds it
//! with a log: every op is appended in application order, and recovery
//! replays the whole log into fresh tables and digest-verifies the replay
//! against the pre-crash state. The log stands for a strongly consistent
//! store's committed prefix.
//!
//! Determinism: no clock or RNG anywhere in this module — log replay is a
//! pure fold over `MetaOp`s. The table digest hashes integers and strings
//! only (never the ADL body, whose operator parameters are floats).

use crate::ids::{JobId, OrcaId, PeId};
use crate::sam::{JobInfo, JobStatus, OrcaNotification};
use sps_sim::{fnv1a, SimTime, FNV_OFFSET};
use std::collections::{BTreeMap, VecDeque};

/// Whether the kernel's store keeps an op log.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum MetastoreKind {
    /// In-memory tables, no log, `recover()` keeps state by fiat.
    #[default]
    Memory,
    /// Append-only op log, replayed and digest-verified on recovery.
    Replicated,
}

impl MetastoreKind {
    pub fn as_str(&self) -> &'static str {
        match self {
            MetastoreKind::Memory => "memory",
            MetastoreKind::Replicated => "replicated",
        }
    }

    /// Parses the campaign-bin / env spelling. `None` on unknown input.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "memory" => Some(MetastoreKind::Memory),
            "replicated" => Some(MetastoreKind::Replicated),
            _ => None,
        }
    }
}

impl std::fmt::Display for MetastoreKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::str::FromStr for MetastoreKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        MetastoreKind::parse(s).ok_or_else(|| format!("`{s}` (expected memory|replicated)"))
    }
}

/// One logged mutation of the control-plane state. Replaying the sequence of
/// ops applied since boot onto empty tables reproduces the live tables
/// exactly — that is the recovery contract [`Metastore::verify`] checks.
#[derive(Clone, Debug)]
pub enum MetaOp {
    AllocJobId,
    AllocPeId,
    RegisterOrchestrator,
    InsertJob(JobInfo),
    RemoveJob(JobId),
    SetJobStatus(JobId, JobStatus),
    ReplacePe {
        job: JobId,
        adl_index: usize,
        new_pe: PeId,
    },
    PushNotification(OrcaId, OrcaNotification),
    DrainNotifications(OrcaId),
    ReserveHost(String, JobId),
    ReleaseHost(String),
    RecordCkptCommit {
        job: JobId,
        adl_index: usize,
        taken_at: SimTime,
    },
}

/// The materialized control-plane tables — exactly the state the pre-refactor
/// `Sam` struct held, plus the checkpoint-commit index.
#[derive(Default, Clone, Debug)]
pub struct MetaTables {
    pub next_job: u64,
    pub next_pe: u64,
    pub next_orca: u64,
    pub jobs: BTreeMap<JobId, JobInfo>,
    pub pe_index: BTreeMap<PeId, (JobId, usize)>,
    pub orca_queues: BTreeMap<OrcaId, VecDeque<OrcaNotification>>,
    /// host → owning job for exclusive host pools (§4.3).
    pub exclusive_hosts: BTreeMap<String, JobId>,
    /// Delivery accounting per orchestrator: ever-enqueued / ever-drained.
    pub pushed: BTreeMap<OrcaId, u64>,
    pub drained: BTreeMap<OrcaId, u64>,
    /// `(job, adl_index)` → commit time of the newest durable checkpoint.
    pub ckpt_commits: BTreeMap<(JobId, usize), SimTime>,
}

fn mix(h: u64, v: u64) -> u64 {
    fnv1a(h, &v.to_le_bytes())
}

fn mix_str(h: u64, s: &str) -> u64 {
    fnv1a(mix(h, s.len() as u64), s.as_bytes())
}

fn mix_notification(mut h: u64, n: &OrcaNotification) -> u64 {
    match n {
        OrcaNotification::PeFailure {
            job,
            pe,
            adl_index,
            reason,
            detected_at,
        } => {
            h = mix(h, job.0);
            h = mix(h, pe.0);
            h = mix(h, *adl_index as u64);
            h = mix_str(h, reason.class());
            mix(h, detected_at.as_millis())
        }
    }
}

impl MetaTables {
    /// Applies one op. This is the single transition function the live
    /// tables and log replay share, so "replay reproduces the tables" holds by
    /// construction as long as ops are logged in application order.
    pub fn apply(&mut self, op: &MetaOp) {
        match op {
            MetaOp::AllocJobId => self.next_job += 1,
            MetaOp::AllocPeId => self.next_pe += 1,
            MetaOp::RegisterOrchestrator => {
                self.orca_queues
                    .insert(OrcaId(self.next_orca), VecDeque::new());
                self.next_orca += 1;
            }
            MetaOp::InsertJob(info) => {
                for (idx, &pe) in info.pe_ids.iter().enumerate() {
                    self.pe_index.insert(pe, (info.id, idx));
                }
                self.jobs.insert(info.id, info.clone());
            }
            MetaOp::RemoveJob(id) => {
                if let Some(info) = self.jobs.remove(id) {
                    for pe in &info.pe_ids {
                        self.pe_index.remove(pe);
                    }
                    self.exclusive_hosts.retain(|_, owner| owner != id);
                    self.ckpt_commits.retain(|(j, _), _| j != id);
                }
            }
            MetaOp::SetJobStatus(id, status) => {
                if let Some(info) = self.jobs.get_mut(id) {
                    info.status = *status;
                }
            }
            MetaOp::ReplacePe {
                job,
                adl_index,
                new_pe,
            } => {
                if let Some(info) = self.jobs.get_mut(job) {
                    if let Some(slot) = info.pe_ids.get_mut(*adl_index) {
                        self.pe_index.remove(slot);
                        *slot = *new_pe;
                        self.pe_index.insert(*new_pe, (*job, *adl_index));
                    }
                }
            }
            MetaOp::PushNotification(orca, n) => {
                if let Some(q) = self.orca_queues.get_mut(orca) {
                    q.push_back(n.clone());
                    *self.pushed.entry(*orca).or_insert(0) += 1;
                }
            }
            MetaOp::DrainNotifications(orca) => {
                if let Some(q) = self.orca_queues.get_mut(orca) {
                    let n = q.len() as u64;
                    q.clear();
                    if n > 0 {
                        *self.drained.entry(*orca).or_insert(0) += n;
                    }
                }
            }
            MetaOp::ReserveHost(host, job) => {
                self.exclusive_hosts.insert(host.clone(), *job);
            }
            MetaOp::ReleaseHost(host) => {
                self.exclusive_hosts.remove(host);
            }
            MetaOp::RecordCkptCommit {
                job,
                adl_index,
                taken_at,
            } => {
                self.ckpt_commits.insert((*job, *adl_index), *taken_at);
            }
        }
    }

    /// FNV digest over every table, integers and strings only. The ADL body
    /// is deliberately excluded: its operator parameters are floats, and the
    /// job's identity is already pinned by `(id, app_name, pe_ids)` — an ADL
    /// cannot change under a fixed job id.
    pub fn digest(&self) -> u64 {
        let mut h = FNV_OFFSET;
        h = mix(h, self.next_job);
        h = mix(h, self.next_pe);
        h = mix(h, self.next_orca);
        for (id, info) in &self.jobs {
            h = mix(h, id.0);
            h = mix_str(h, &info.app_name);
            h = mix(h, info.pe_ids.len() as u64);
            for pe in &info.pe_ids {
                h = mix(h, pe.0);
            }
            h = mix(h, matches!(info.status, JobStatus::Cancelled) as u64);
            h = mix(h, info.submitted_at.as_millis());
            h = mix(h, info.owner.map(|o| o.0 + 1).unwrap_or(0));
        }
        for (pe, (job, idx)) in &self.pe_index {
            h = mix(h, pe.0);
            h = mix(h, job.0);
            h = mix(h, *idx as u64);
        }
        for (orca, q) in &self.orca_queues {
            h = mix(h, orca.0);
            h = mix(h, q.len() as u64);
            for n in q {
                h = mix_notification(h, n);
            }
        }
        for (host, job) in &self.exclusive_hosts {
            h = mix_str(h, host);
            h = mix(h, job.0);
        }
        for (orca, count) in &self.pushed {
            h = mix(h, orca.0);
            h = mix(h, *count);
        }
        for (orca, count) in &self.drained {
            h = mix(h, orca.0);
            h = mix(h, *count);
        }
        for ((job, idx), at) in &self.ckpt_commits {
            h = mix(h, job.0);
            h = mix(h, *idx as u64);
            h = mix(h, at.as_millis());
        }
        h
    }
}

/// Counters a store accumulates over its lifetime (campaign-report hooks).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MetaStats {
    /// Ops applied to the live tables since boot.
    pub ops_applied: u64,
    /// `recover()` invocations that completed.
    pub recoveries: u64,
    /// Total ops replayed from the log across all recoveries.
    pub ops_replayed: u64,
}

/// Result of one [`Metastore::recover`] call.
#[derive(Clone, Copy, Debug, Default)]
pub struct MetaRecovery {
    /// Ops replayed from the durable log to rebuild the tables. Zero for a
    /// store without a log, whose tables survive by fiat.
    pub ops_replayed: u64,
}

/// The store's mutation and recovery calls. The frozen `perf/probes.rs`
/// imports this trait to call them on `ReplicatedMetastore::new(seed)`, so
/// they stay trait methods; [`SamStore`] is the one impl. Like the rest of a
/// world, a store stays on the thread that built it.
pub trait Metastore {
    /// Applies one mutation and, when the store keeps a log, records it.
    fn apply(&mut self, op: MetaOp);
    /// Rebuilds the tables as a post-crash restart would. With a log, replays
    /// all of it and panics if the replay diverges from the pre-crash tables;
    /// without one, keeps the tables untouched.
    fn recover(&mut self) -> MetaRecovery;
}

/// SAM's durable state: the tables, their counters, and, for
/// [`MetastoreKind::Replicated`], the op log recovery replays.
#[derive(Default)]
pub struct SamStore {
    tables: MetaTables,
    stats: MetaStats,
    log: Option<Vec<MetaOp>>,
}

/// The logging store under the name `perf/` builds it by.
pub type ReplicatedMetastore = SamStore;

fn replay(log: &[MetaOp]) -> MetaTables {
    let mut fresh = MetaTables::default();
    for op in log {
        fresh.apply(op);
    }
    fresh
}

impl SamStore {
    /// The store for a kind: with an op log for `Replicated`, without for
    /// `Memory`.
    pub(crate) fn with_kind(kind: MetastoreKind) -> Self {
        SamStore {
            log: (kind == MetastoreKind::Replicated).then(Vec::new),
            ..SamStore::default()
        }
    }

    /// The store with an op log. The seed is unused: the store draws no
    /// randomness.
    pub fn new(_seed: u64) -> Self {
        SamStore::with_kind(MetastoreKind::Replicated)
    }

    /// The live, materialized tables. All SAM reads go through here.
    pub(crate) fn tables(&self) -> &MetaTables {
        &self.tables
    }

    /// True iff replaying the log reproduces the live tables (trivially true
    /// without a log). Oracle hook.
    pub(crate) fn verify(&self) -> bool {
        self.log
            .as_deref()
            .is_none_or(|log| replay(log).digest() == self.tables.digest())
    }

    pub(crate) fn stats(&self) -> MetaStats {
        self.stats
    }
}

impl Metastore for SamStore {
    fn apply(&mut self, op: MetaOp) {
        self.tables.apply(&op);
        if let Some(log) = &mut self.log {
            log.push(op);
        }
        self.stats.ops_applied += 1;
    }

    fn recover(&mut self) -> MetaRecovery {
        self.stats.recoveries += 1;
        let Some(log) = &self.log else {
            return MetaRecovery::default();
        };
        let fresh = replay(log);
        let ops_replayed = log.len() as u64;
        assert_eq!(
            fresh.digest(),
            self.tables.digest(),
            "metastore recovery diverged: log replay ({ops_replayed} ops) does \
             not reproduce the pre-crash tables"
        );
        self.tables = fresh;
        self.stats.ops_replayed += ops_replayed;
        MetaRecovery { ops_replayed }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sam::CrashReason;
    use sps_model::adl::Adl;

    fn adl() -> Adl {
        Adl {
            app_name: "A".into(),
            operators: vec![],
            pes: vec![],
            streams: vec![],
            imports: vec![],
            exports: vec![],
            host_pools: vec![],
        }
    }

    fn job(id: u64) -> JobInfo {
        JobInfo {
            id: JobId(id),
            app_name: "A".into(),
            adl: adl(),
            pe_ids: vec![PeId(id * 10)],
            status: JobStatus::Running,
            submitted_at: SimTime::from_secs(1),
            owner: Some(OrcaId(0)),
        }
    }

    fn notification() -> OrcaNotification {
        OrcaNotification::PeFailure {
            job: JobId(1),
            pe: PeId(10),
            adl_index: 0,
            reason: CrashReason::Killed,
            detected_at: SimTime::from_secs(2),
        }
    }

    fn script(store: &mut SamStore) {
        store.apply(MetaOp::RegisterOrchestrator);
        store.apply(MetaOp::AllocJobId);
        store.apply(MetaOp::AllocPeId);
        store.apply(MetaOp::InsertJob(job(1)));
        store.apply(MetaOp::ReserveHost("h1".into(), JobId(1)));
        store.apply(MetaOp::PushNotification(OrcaId(0), notification()));
        store.apply(MetaOp::RecordCkptCommit {
            job: JobId(1),
            adl_index: 0,
            taken_at: SimTime::from_secs(3),
        });
        store.apply(MetaOp::DrainNotifications(OrcaId(0)));
        store.apply(MetaOp::ReplacePe {
            job: JobId(1),
            adl_index: 0,
            new_pe: PeId(99),
        });
    }

    /// The store with a log against the store without one.
    #[test]
    fn both_stores_materialize_identical_tables() {
        let mut mem = SamStore::with_kind(MetastoreKind::Memory);
        let mut rep = SamStore::with_kind(MetastoreKind::Replicated);
        script(&mut mem);
        script(&mut rep);
        assert_eq!(mem.tables().digest(), rep.tables().digest());
        assert_eq!(mem.tables().jobs[&JobId(1)].pe_ids, vec![PeId(99)]);
        assert_eq!(mem.tables().pe_index[&PeId(99)], (JobId(1), 0));
        assert_eq!(mem.stats(), rep.stats());
    }

    #[test]
    fn replicated_recovery_replays_the_full_log() {
        let mut rep = ReplicatedMetastore::new(7);
        script(&mut rep);
        let before = rep.tables().digest();
        let rec = rep.recover();
        assert_eq!(rec.ops_replayed, 9);
        assert_eq!(rep.tables().digest(), before);
        assert_eq!(rep.stats().recoveries, 1);
        assert_eq!(rep.stats().ops_replayed, 9);
        assert!(rep.verify());
    }

    #[test]
    fn memory_recovery_keeps_tables_by_fiat() {
        let mut mem = SamStore::with_kind(MetastoreKind::Memory);
        script(&mut mem);
        let before = mem.tables().digest();
        let rec = mem.recover();
        assert_eq!(rec.ops_replayed, 0);
        assert_eq!(mem.tables().digest(), before);
        assert_eq!(mem.stats().recoveries, 1);
        assert_eq!(mem.stats().ops_replayed, 0);
        assert!(mem.verify());
    }

    /// A store whose live tables moved without the log: bypasses `apply`.
    fn diverged() -> SamStore {
        let mut rep = SamStore::with_kind(MetastoreKind::Replicated);
        script(&mut rep);
        rep.tables.apply(&MetaOp::ReleaseHost("h1".into()));
        rep
    }

    #[test]
    fn verify_fails_when_the_tables_leave_the_log() {
        assert!(!diverged().verify());
    }

    #[test]
    #[should_panic(expected = "metastore recovery diverged")]
    fn recovery_panics_when_the_tables_leave_the_log() {
        diverged().recover();
    }

    #[test]
    fn remove_job_clears_all_derived_state() {
        let mut mem = SamStore::with_kind(MetastoreKind::Memory);
        script(&mut mem);
        mem.apply(MetaOp::RemoveJob(JobId(1)));
        let t = mem.tables();
        assert!(t.jobs.is_empty());
        assert!(t.pe_index.is_empty());
        assert!(t.exclusive_hosts.is_empty());
        assert!(t.ckpt_commits.is_empty());
    }

    #[test]
    fn digest_moves_with_every_table() {
        let mut t = MetaTables::default();
        let mut last = t.digest();
        let step = |t: &mut MetaTables, op: MetaOp, last: &mut u64| {
            t.apply(&op);
            let d = t.digest();
            assert_ne!(d, *last, "digest must move after {op:?}");
            *last = d;
        };
        step(&mut t, MetaOp::AllocJobId, &mut last);
        step(&mut t, MetaOp::RegisterOrchestrator, &mut last);
        step(&mut t, MetaOp::InsertJob(job(1)), &mut last);
        step(&mut t, MetaOp::ReserveHost("h".into(), JobId(1)), &mut last);
        step(
            &mut t,
            MetaOp::PushNotification(OrcaId(0), notification()),
            &mut last,
        );
        step(
            &mut t,
            MetaOp::SetJobStatus(JobId(1), JobStatus::Cancelled),
            &mut last,
        );
    }

    #[test]
    fn kind_spelling_round_trips() {
        for kind in [MetastoreKind::Memory, MetastoreKind::Replicated] {
            assert_eq!(MetastoreKind::parse(kind.as_str()), Some(kind));
        }
        assert_eq!(MetastoreKind::parse("raft"), None);
    }
}
