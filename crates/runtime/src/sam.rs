//! SAM — Streams Application Manager (§2.2/§3).
//!
//! Receives application submission and cancellation requests, spawns PEs per
//! placement constraints, can stop and restart PEs, and treats orchestrators
//! as first-class manageable entities: it keeps track of registered
//! orchestrators and their associated jobs, and pushes PE-failure
//! notifications to the orchestrator owning the crashed PE.
//!
//! As of the control-plane fault-tolerance work, SAM itself is crashable: all
//! durable state lives in its [`SamStore`] (every mutation is a [`MetaOp`],
//! logged when the store keeps a log), and this struct keeps only volatile
//! daemon state — the availability flag for an in-progress restart and the
//! host-heartbeat table the liveness deadline is judged against. A
//! `RestartSam` fault flips `available` off, drops nothing durable, and
//! recovery rebuilds the tables from the store's log.
//!
//! This module holds SAM's bookkeeping; the RPC-like coordination with the
//! cluster and broker lives in [`crate::kernel::Kernel`].

use crate::ids::{JobId, OrcaId, PeId};
use crate::metastore::{MetaOp, MetaRecovery, MetaStats, Metastore, MetastoreKind, SamStore};
use sps_model::adl::Adl;
use sps_sim::{SimDuration, SimTime};

/// Job lifecycle state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobStatus {
    Running,
    Cancelled,
}

/// Why a PE crashed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CrashReason {
    /// Uncaught failure inside operator code.
    OperatorFault(String),
    /// Explicit external kill (fault injection / operator error).
    Killed,
    /// The PE's host went down.
    HostFailure,
}

impl CrashReason {
    /// Coarse class used for failure-event epoch correlation (§4.2).
    pub fn class(&self) -> &'static str {
        match self {
            CrashReason::OperatorFault(_) => "operatorFault",
            CrashReason::Killed => "killed",
            CrashReason::HostFailure => "hostFailure",
        }
    }
}

/// Everything SAM remembers about a job.
#[derive(Clone, Debug)]
pub struct JobInfo {
    pub id: JobId,
    pub app_name: String,
    pub adl: Adl,
    /// PE ids by ADL PE index.
    pub pe_ids: Vec<PeId>,
    pub status: JobStatus,
    pub submitted_at: SimTime,
    /// The orchestrator managing this job, if any. Jobs started outside an
    /// orchestrator have no owner; an orchestrator acting on them is a
    /// runtime error (§3).
    pub owner: Option<OrcaId>,
}

/// Push notification from SAM to an ORCA service.
#[derive(Clone, Debug, PartialEq)]
pub enum OrcaNotification {
    /// A PE belonging to a managed job crashed. Carries the PE id, failure
    /// detection timestamp, and the crash reason (§4.2).
    PeFailure {
        job: JobId,
        pe: PeId,
        adl_index: usize,
        reason: CrashReason,
        detected_at: SimTime,
    },
}

/// SAM daemon: durable tables in the metastore, volatile state here.
pub struct Sam {
    store: SamStore,
    /// False while a `RestartSam` fault window is active: drains return
    /// empty (the Unavailable path) instead of panicking or serving stale
    /// queues; pushes keep landing in the durable store.
    available: bool,
    /// The last heartbeat SAM saw through each host's HC, by host position
    /// in the cluster's name order (`None`: not heard from, or forgotten).
    /// Volatile on purpose: a real SAM rebuilds its liveness view from fresh
    /// heartbeats after a restart, so it is not part of the metastore.
    host_liveness: Vec<Option<SimTime>>,
}

impl Default for Sam {
    fn default() -> Self {
        Sam::new()
    }
}

impl Sam {
    /// A store without an op log — the zero-cost default, byte-identical to
    /// the pre-metastore SAM.
    pub fn new() -> Self {
        Sam::with_store(MetastoreKind::Memory)
    }

    /// `Replicated` keeps an op log that a restart replays and verifies;
    /// `Memory` keeps none. Neither draws randomness.
    pub fn with_store(kind: MetastoreKind) -> Self {
        Sam {
            store: SamStore::with_kind(kind),
            available: true,
            host_liveness: Vec::new(),
        }
    }

    fn tables(&self) -> &crate::metastore::MetaTables {
        self.store.tables()
    }

    // ---- availability / restart (control-plane faults) ---------------------

    /// Whether SAM is serving. False only inside a `RestartSam` window.
    pub fn is_available(&self) -> bool {
        self.available
    }

    /// Enters the restart window: the daemon is down, drains go unavailable.
    pub fn begin_restart(&mut self) {
        self.available = false;
    }

    /// Completes the restart: the store recovers (a logging store replays
    /// its op log and digest-verifies the replay) and SAM serves again.
    pub fn complete_restart(&mut self) -> MetaRecovery {
        let rec = self.store.recover();
        self.available = true;
        rec
    }

    pub fn metastore_stats(&self) -> MetaStats {
        self.store.stats()
    }

    /// Oracle hook: does replaying the store's log reproduce its tables?
    pub fn metastore_verify(&self) -> bool {
        self.store.verify()
    }

    // ---- host liveness (HC heartbeats, §2.2) -------------------------------

    /// Records one heartbeat relayed by the controller of each of `hosts`
    /// (positions in the cluster's name order) in one pass: no search and,
    /// once every host has been heard from, no allocation.
    pub fn record_heartbeats(&mut self, hosts: impl IntoIterator<Item = usize>, now: SimTime) {
        for host in hosts {
            if self.host_liveness.len() <= host {
                self.host_liveness.resize(host + 1, None);
            }
            self.host_liveness[host] = Some(now);
        }
    }

    /// Forgets a host's heartbeat state (host decommissioned or declared).
    pub fn clear_heartbeat(&mut self, host: usize) {
        if let Some(last) = self.host_liveness.get_mut(host) {
            *last = None;
        }
    }

    /// The first host, in the cluster's name order, whose last heartbeat is
    /// older than `deadline`. Only hosts SAM has heard from are candidates
    /// — an unknown host is not stale.
    pub fn stale_host(&self, now: SimTime, deadline: SimDuration) -> Option<usize> {
        let stale = |last: &Option<SimTime>| last.is_some_and(|t| now.since(t) > deadline);
        self.host_liveness.iter().position(stale)
    }

    // ---- id allocation -----------------------------------------------------

    pub fn alloc_job_id(&mut self) -> JobId {
        self.store.apply(MetaOp::AllocJobId);
        JobId(self.tables().next_job)
    }

    pub fn alloc_pe_id(&mut self) -> PeId {
        self.store.apply(MetaOp::AllocPeId);
        PeId(self.tables().next_pe)
    }

    // ---- orchestrator registry ---------------------------------------------

    /// Registers a new orchestrator as a manageable entity; SAM will queue
    /// failure notifications for jobs it owns.
    pub fn register_orchestrator(&mut self) -> OrcaId {
        self.store.apply(MetaOp::RegisterOrchestrator);
        OrcaId(self.tables().next_orca - 1)
    }

    pub fn push_notification(&mut self, orca: OrcaId, n: OrcaNotification) {
        // Unknown orchestrator: silently dropped, uncounted, unlogged.
        if self.tables().orca_queues.contains_key(&orca) {
            self.store.apply(MetaOp::PushNotification(orca, n));
        }
    }

    /// The ORCA service pulls its pending notifications (the simulated
    /// SAM→ORCA RPC). While a restart window is active this is the explicit
    /// Unavailable path: the call returns empty without draining or counting
    /// anything, and the queued notifications stay durable for after
    /// recovery.
    pub fn drain_notifications(&mut self, orca: OrcaId) -> Vec<OrcaNotification> {
        if !self.available {
            return Vec::new();
        }
        let out: Vec<OrcaNotification> = self
            .tables()
            .orca_queues
            .get(&orca)
            .map(|q| q.iter().cloned().collect())
            .unwrap_or_default();
        if !out.is_empty() {
            self.store.apply(MetaOp::DrainNotifications(orca));
        }
        out
    }

    /// Notifications ever enqueued for an orchestrator.
    pub fn notifications_pushed(&self, orca: OrcaId) -> u64 {
        self.tables().pushed.get(&orca).copied().unwrap_or(0)
    }

    /// Notifications an orchestrator has drained so far.
    pub fn notifications_drained(&self, orca: OrcaId) -> u64 {
        self.tables().drained.get(&orca).copied().unwrap_or(0)
    }

    /// Currently queued, undelivered notifications for an orchestrator.
    pub fn notifications_pending(&self, orca: OrcaId) -> usize {
        self.tables()
            .orca_queues
            .get(&orca)
            .map(|q| q.len())
            .unwrap_or(0)
    }

    /// Total notifications ever enqueued across all orchestrators.
    pub fn total_notifications_pushed(&self) -> u64 {
        self.tables().pushed.values().sum()
    }

    /// Registered orchestrator ids, in registration order.
    pub fn orchestrators(&self) -> Vec<OrcaId> {
        self.tables().orca_queues.keys().copied().collect()
    }

    // ---- job / PE tables ---------------------------------------------------

    pub fn insert_job(&mut self, info: JobInfo) {
        self.store.apply(MetaOp::InsertJob(info));
    }

    pub fn job(&self, id: JobId) -> Option<&JobInfo> {
        self.tables().jobs.get(&id)
    }

    pub fn jobs(&self) -> impl Iterator<Item = &JobInfo> {
        self.tables().jobs.values()
    }

    pub fn running_jobs(&self) -> Vec<JobId> {
        self.running().collect()
    }

    /// [`Sam::running_jobs`] (id order) without the `Vec`.
    pub fn running(&self) -> impl Iterator<Item = JobId> + Clone + '_ {
        let jobs = self.tables().jobs.values();
        jobs.filter(|j| j.status == JobStatus::Running)
            .map(|j| j.id)
    }

    /// Resolves a PE id to its `(job, ADL PE index)`.
    pub fn pe_lookup(&self, pe: PeId) -> Option<(JobId, usize)> {
        self.tables().pe_index.get(&pe).copied()
    }

    pub fn remove_job(&mut self, id: JobId) -> Option<JobInfo> {
        let info = self.tables().jobs.get(&id).cloned()?;
        // The op also releases the job's exclusive host reservations and
        // forgets its checkpoint-commit index entries.
        self.store.apply(MetaOp::RemoveJob(id));
        Some(info)
    }

    /// Re-points a job's ADL index at a replacement PE id (restart).
    pub fn replace_pe(&mut self, job: JobId, adl_index: usize, new_pe: PeId) {
        self.store.apply(MetaOp::ReplacePe {
            job,
            adl_index,
            new_pe,
        });
    }

    // ---- exclusive host reservations ----------------------------------------

    pub fn reserve_host(&mut self, host: &str, job: JobId) {
        self.store.apply(MetaOp::ReserveHost(host.to_string(), job));
    }

    /// Drops a reservation (submission rollback).
    pub fn unreserve_host(&mut self, host: &str) {
        self.store.apply(MetaOp::ReleaseHost(host.to_string()));
    }

    /// `None` = unreserved; `Some(job)` = reserved for that job only.
    pub fn host_reservation(&self, host: &str) -> Option<JobId> {
        self.tables().exclusive_hosts.get(host).copied()
    }

    // ---- checkpoint-commit index --------------------------------------------

    /// Records a durable checkpoint commit in the metastore log. The
    /// authoritative snapshot chain stays in [`crate::ckpt::CheckpointStore`];
    /// this index exists so a recovered SAM can prove which commits it knew
    /// about (the replay digest covers it).
    pub fn record_ckpt_commit(&mut self, job: JobId, adl_index: usize, taken_at: SimTime) {
        self.store.apply(MetaOp::RecordCkptCommit {
            job,
            adl_index,
            taken_at,
        });
    }

    /// Commit time of the newest known checkpoint for `(job, adl_index)`.
    pub fn ckpt_commit(&self, job: JobId, adl_index: usize) -> Option<SimTime> {
        self.tables().ckpt_commits.get(&(job, adl_index)).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sps_model::adl::AdlPe;

    fn adl() -> Adl {
        Adl {
            app_name: "A".into(),
            operators: vec![],
            pes: vec![AdlPe {
                index: 0,
                operators: vec![],
                host_pool: None,
                host_exlocate: None,
            }],
            streams: vec![],
            imports: vec![],
            exports: vec![],
            host_pools: vec![],
        }
    }

    fn job_info(sam: &mut Sam, owner: Option<OrcaId>) -> JobInfo {
        let id = sam.alloc_job_id();
        let pe = sam.alloc_pe_id();
        JobInfo {
            id,
            app_name: "A".into(),
            adl: adl(),
            pe_ids: vec![pe],
            status: JobStatus::Running,
            submitted_at: SimTime::ZERO,
            owner,
        }
    }

    #[test]
    fn id_allocation_is_monotonic() {
        let mut sam = Sam::new();
        assert_eq!(sam.alloc_job_id(), JobId(1));
        assert_eq!(sam.alloc_job_id(), JobId(2));
        assert_eq!(sam.alloc_pe_id(), PeId(1));
        assert_eq!(sam.alloc_pe_id(), PeId(2));
    }

    #[test]
    fn job_table_roundtrip() {
        let mut sam = Sam::new();
        let info = job_info(&mut sam, None);
        let (id, pe) = (info.id, info.pe_ids[0]);
        sam.insert_job(info);
        assert_eq!(sam.job(id).unwrap().app_name, "A");
        assert_eq!(sam.pe_lookup(pe), Some((id, 0)));
        assert_eq!(sam.running_jobs(), vec![id]);
        let removed = sam.remove_job(id).unwrap();
        assert_eq!(removed.id, id);
        assert!(sam.job(id).is_none());
        assert!(sam.pe_lookup(pe).is_none());
    }

    #[test]
    fn replace_pe_updates_index() {
        let mut sam = Sam::new();
        let info = job_info(&mut sam, None);
        let (id, old_pe) = (info.id, info.pe_ids[0]);
        sam.insert_job(info);
        let new_pe = sam.alloc_pe_id();
        sam.replace_pe(id, 0, new_pe);
        assert!(sam.pe_lookup(old_pe).is_none());
        assert_eq!(sam.pe_lookup(new_pe), Some((id, 0)));
        assert_eq!(sam.job(id).unwrap().pe_ids[0], new_pe);
    }

    #[test]
    fn notifications_queue_per_orchestrator() {
        let mut sam = Sam::new();
        let o1 = sam.register_orchestrator();
        let o2 = sam.register_orchestrator();
        assert_ne!(o1, o2);
        let n = OrcaNotification::PeFailure {
            job: JobId(1),
            pe: PeId(1),
            adl_index: 0,
            reason: CrashReason::Killed,
            detected_at: SimTime::from_secs(5),
        };
        sam.push_notification(o1, n.clone());
        assert_eq!(sam.drain_notifications(o1), vec![n]);
        assert!(sam.drain_notifications(o1).is_empty());
        assert!(sam.drain_notifications(o2).is_empty());
        // Unknown orchestrator: silently dropped.
        sam.push_notification(
            OrcaId(99),
            OrcaNotification::PeFailure {
                job: JobId(1),
                pe: PeId(1),
                adl_index: 0,
                reason: CrashReason::HostFailure,
                detected_at: SimTime::ZERO,
            },
        );
        assert!(sam.drain_notifications(OrcaId(99)).is_empty());
    }

    #[test]
    fn notification_counters_balance() {
        let mut sam = Sam::new();
        let o = sam.register_orchestrator();
        let n = OrcaNotification::PeFailure {
            job: JobId(1),
            pe: PeId(1),
            adl_index: 0,
            reason: CrashReason::Killed,
            detected_at: SimTime::ZERO,
        };
        sam.push_notification(o, n.clone());
        sam.push_notification(o, n.clone());
        assert_eq!(sam.notifications_pushed(o), 2);
        assert_eq!(sam.notifications_pending(o), 2);
        assert_eq!(sam.notifications_drained(o), 0);
        sam.drain_notifications(o);
        assert_eq!(sam.notifications_drained(o), 2);
        assert_eq!(sam.notifications_pending(o), 0);
        // Pushes to unknown orchestrators are dropped, not counted.
        sam.push_notification(OrcaId(99), n);
        assert_eq!(sam.total_notifications_pushed(), 2);
        assert_eq!(sam.notifications_pushed(OrcaId(99)), 0);
    }

    #[test]
    fn exclusive_reservations_released_on_removal() {
        let mut sam = Sam::new();
        let info = job_info(&mut sam, None);
        let id = info.id;
        sam.insert_job(info);
        sam.reserve_host("host1", id);
        assert_eq!(sam.host_reservation("host1"), Some(id));
        assert_eq!(sam.host_reservation("host2"), None);
        sam.remove_job(id);
        assert_eq!(sam.host_reservation("host1"), None);
    }

    #[test]
    fn crash_reason_classes() {
        assert_eq!(CrashReason::Killed.class(), "killed");
        assert_eq!(CrashReason::HostFailure.class(), "hostFailure");
        assert_eq!(
            CrashReason::OperatorFault("x".into()).class(),
            "operatorFault"
        );
    }

    /// Pins the Unavailable path: drains inside a restart window return
    /// empty without counting, pushes stay durable, and conservation
    /// (`pushed == drained + pending`) holds through recovery.
    #[test]
    fn drain_during_restart_window_is_unavailable_not_stale() {
        for kind in [MetastoreKind::Memory, MetastoreKind::Replicated] {
            let mut sam = Sam::with_store(kind);
            let o = sam.register_orchestrator();
            let n = OrcaNotification::PeFailure {
                job: JobId(1),
                pe: PeId(1),
                adl_index: 0,
                reason: CrashReason::Killed,
                detected_at: SimTime::ZERO,
            };
            sam.push_notification(o, n.clone());
            sam.begin_restart();
            assert!(!sam.is_available());
            // The Unavailable path: empty, no drained-counter movement.
            assert!(sam.drain_notifications(o).is_empty());
            assert_eq!(sam.notifications_drained(o), 0);
            // Pushes during the window land durably.
            sam.push_notification(o, n.clone());
            assert_eq!(sam.notifications_pending(o), 2);
            sam.complete_restart();
            assert!(sam.is_available());
            assert_eq!(sam.drain_notifications(o), vec![n.clone(), n.clone()]);
            assert_eq!(
                sam.notifications_pushed(o),
                sam.notifications_drained(o) + sam.notifications_pending(o) as u64
            );
            assert!(sam.metastore_verify(), "{kind:?} replay must verify");
        }
    }

    /// The same call script with and without the op log materializes identical
    /// state — the byte-identity claim behind the memory default.
    #[test]
    fn facade_behaves_identically_across_stores() {
        let drive = |kind: MetastoreKind| {
            let mut sam = Sam::with_store(kind);
            let o = sam.register_orchestrator();
            let info = job_info(&mut sam, Some(o));
            let (id, pe) = (info.id, info.pe_ids[0]);
            sam.insert_job(info);
            sam.reserve_host("h1", id);
            sam.push_notification(
                o,
                OrcaNotification::PeFailure {
                    job: id,
                    pe,
                    adl_index: 0,
                    reason: CrashReason::HostFailure,
                    detected_at: SimTime::from_secs(4),
                },
            );
            let drained = sam.drain_notifications(o).len();
            sam.record_ckpt_commit(id, 0, SimTime::from_secs(9));
            (
                drained,
                sam.notifications_pushed(o),
                sam.host_reservation("h1"),
                sam.ckpt_commit(id, 0),
            )
        };
        assert_eq!(
            drive(MetastoreKind::Memory),
            drive(MetastoreKind::Replicated)
        );
    }

    #[test]
    fn heartbeats_drive_staleness() {
        let mut sam = Sam::new();
        let deadline = SimDuration::from_secs(6);
        sam.record_heartbeats([1], SimTime::from_secs(1));
        sam.record_heartbeats([2], SimTime::from_secs(9));
        // Host 1 is 9s stale at t=10; host 2 is fresh; hosts 0 and 3 were
        // never heard from.
        let at_10 = SimTime::from_secs(10);
        assert_eq!(sam.stale_host(at_10, deadline), Some(1));
        sam.clear_heartbeat(1);
        sam.clear_heartbeat(3);
        assert_eq!(sam.stale_host(at_10, deadline), None);
        // Later, host 2 is stale too, and the first host in name order
        // comes first.
        sam.record_heartbeats([0, 2], SimTime::from_secs(2));
        assert_eq!(sam.stale_host(SimTime::from_secs(20), deadline), Some(0));
        sam.clear_heartbeat(0);
        assert_eq!(sam.stale_host(SimTime::from_secs(20), deadline), Some(2));
    }
}
