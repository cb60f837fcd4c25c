//! The ORCA service: event detection, scope filtering, one-at-a-time
//! delivery, graph inspection, and actuation (§3, §4).
//!
//! The service runs as a [`Controller`] of the simulated runtime world
//! (standing in for the separate orchestrator process SAM forks in System
//! S). `OrcaService::on_quantum` is the order of these steps and nothing
//! else; each quantum it:
//!
//! 1. delivers the start callback, first quantum only (`deliver_start`),
//! 2. converts SAM failure notifications into PE-failure events
//!    (`pull_failures`),
//! 3. converts injected user events (`pull_user_events`),
//! 4. fires due timers (`fire_timers`),
//! 5. advances the dependency manager: ordered submissions, GC
//!    cancellations (`advance_dependencies`),
//! 6. polls SRM for metrics when the poll period elapsed, default 15 s,
//!    changeable at runtime — §4.2 (`poll_metrics`),
//! 7. drains the event queue, dispatching to the ORCA logic one event at a
//!    time (`drain_queue`).
//!
//! Every decision on the way has one owner: which subscopes an observation
//! matches is `ScopeSet::matching`, a metric event is built by
//! `MetricSource::event`, a job starts in `ServiceCore::submit` and ends in
//! `ServiceCore::cancel`, and the `Journal` ties actuations to the event
//! being delivered.

use crate::deps::{AppConfig, DependencyManager};
use crate::error::OrcaError;
use crate::event::*;
use crate::orchestrator::Orchestrator;
use crate::scope::{EventScope, ScopeSet, Subject};
use sps_engine::{MetricKey, StreamItem, Tuple};
use sps_model::adl::Adl;
use sps_model::value::ParamMap;
use sps_model::{GraphStore, Value};
use sps_runtime::{Controller, JobId, Kernel, OrcaId, OrcaNotification, PeId, RuntimeError};
use sps_sim::{SimDuration, SimTime};
use std::any::Any;
use std::collections::{BTreeMap, VecDeque};

/// Safety cap on events dispatched per quantum (guards against handler ↔
/// event feedback loops).
const MAX_EVENTS_PER_QUANTUM: usize = 10_000;

/// Journal retention (most recent entries kept).
const JOURNAL_CAP: usize = 100_000;

/// Human-readable one-liner for a queued event (journal rendering).
fn describe_event(event: &QueuedEvent) -> String {
    match event {
        QueuedEvent::OperatorMetric(c, _) => format!(
            "operatorMetric {}@{} {}={} epoch={}",
            c.instance_name, c.app_name, c.metric, c.value, c.epoch
        ),
        QueuedEvent::OperatorPortMetric(c, _) => format!(
            "portMetric {}:{}@{} {}={}",
            c.instance_name, c.port, c.app_name, c.metric, c.value
        ),
        QueuedEvent::PeMetric(c, _) => {
            format!("peMetric {}@{} {}={}", c.pe, c.app_name, c.metric, c.value)
        }
        QueuedEvent::PeFailure(c, _) => format!(
            "peFailure {}@{} reason={} epoch={}",
            c.pe,
            c.app_name,
            c.reason.class(),
            c.epoch
        ),
        QueuedEvent::JobSubmitted(c, _) => format!("jobSubmitted {} ({})", c.job, c.app_name),
        QueuedEvent::JobCancelled(c, _) => format!("jobCancelled {} ({})", c.job, c.app_name),
        QueuedEvent::Timer(c) => format!("timer {}", c.key),
        QueuedEvent::User(c, _) => format!("userEvent {}", c.name),
    }
}

/// The orchestrator description submitted to SAM (the paper's `MyORCA.xml`):
/// a name plus the applications the orchestrator may manage, each with its
/// compiled ADL.
#[derive(Clone, Debug)]
pub struct OrcaDescriptor {
    pub name: String,
    pub apps: Vec<(String, Adl)>,
}

impl OrcaDescriptor {
    pub fn new(name: &str) -> Self {
        OrcaDescriptor {
            name: name.to_string(),
            apps: Vec::new(),
        }
    }

    /// Registers an application under its ADL's application name.
    pub fn app(mut self, adl: Adl) -> Self {
        self.apps.push((adl.app_name.clone(), adl));
        self
    }
}

/// A managed application: its ADL and the in-memory stream-graph
/// representation built from it (§3).
#[derive(Clone, Debug)]
pub struct ManagedApp {
    pub name: String,
    pub adl: Adl,
    pub graph: GraphStore,
}

/// Record of a job the service started.
#[derive(Clone, Debug)]
struct JobRecord {
    app_name: String,
    config_id: Option<String>,
}

impl JobRecord {
    /// The context of this job's submission or cancellation event.
    fn into_event(self, job: JobId, at: SimTime) -> JobEventContext {
        JobEventContext {
            job,
            app_name: self.app_name,
            config_id: self.config_id,
            at,
        }
    }
}

/// Delivery/bookkeeping counters (observability + benches).
#[derive(Clone, Copy, Debug, Default)]
pub struct ServiceStats {
    pub events_delivered: u64,
    pub metric_observations_seen: u64,
    pub metric_events_matched: u64,
    pub polls: u64,
    pub failures_seen: u64,
}

/// One entry of the event/actuation journal (paper §7 future work:
/// "adding transaction IDs to delivered events, and associating actuations
/// taking place via the ORCA service to the event transaction ID", enabling
/// reliable delivery and actuation replay).
#[derive(Clone, Debug, PartialEq)]
pub struct JournalEntry {
    /// Transaction id: one per delivered event, monotonically increasing.
    pub txn: u64,
    pub at: SimTime,
    /// Event summary (type + identifying fields).
    pub event: String,
    /// Actuations the handler performed under this transaction.
    pub actuations: Vec<String>,
}

/// The journal: one entry per delivered event, newest last, capped at
/// [`JOURNAL_CAP`]. The last entry is *open* while its event's handler runs.
#[derive(Default)]
struct Journal {
    entries: Vec<JournalEntry>,
    next_txn: u64,
    open: bool,
}

impl Journal {
    /// Opens a transaction for an event about to be delivered.
    fn open(&mut self, at: SimTime, event: String) {
        self.next_txn += 1;
        self.entries.push(JournalEntry {
            txn: self.next_txn,
            at,
            event,
            actuations: Vec::new(),
        });
        if self.entries.len() > JOURNAL_CAP {
            self.entries.remove(0);
        }
        self.open = true;
    }

    /// Ties an actuation to the open transaction. Outside event handling
    /// (the start callback, GC cancellations, config-driven submissions)
    /// nothing is open and nothing is recorded.
    fn record(&mut self, actuation: String) {
        if let (true, Some(entry)) = (self.open, self.entries.last_mut()) {
            entry.actuations.push(actuation);
        }
    }

    fn close(&mut self) {
        self.open = false;
    }
}

/// One managed job as a metric poll round sees it: everything a metric
/// event's context takes besides the observation itself.
struct MetricSource<'a> {
    job: JobId,
    app_name: &'a str,
    graph: &'a GraphStore,
    /// PE ids by ADL PE index (empty when SAM no longer knows the job).
    pe_ids: &'a [PeId],
    epoch: u64,
    collected_at: SimTime,
}

impl MetricSource<'_> {
    /// The observation as the scopes see it.
    fn subject<'s>(&'s self, key: &'s MetricKey) -> Subject<'s> {
        match key {
            MetricKey::Operator(op, metric) => {
                Subject::OperatorMetric(self.app_name, self.graph, op, metric)
            }
            MetricKey::OperatorPort(op, port, metric) => {
                Subject::OperatorPortMetric(self.app_name, op, *port, metric)
            }
            MetricKey::Pe(_, metric) => Subject::PeMetric(self.app_name, metric),
        }
    }

    /// The event for an observation that matched `keys`; `None` when it
    /// names an operator the graph does not have.
    fn event(&self, key: &MetricKey, value: i64, keys: Vec<String>) -> Option<QueuedEvent> {
        let app_name = || self.app_name.to_string();
        let pe_at = |adl_index: usize| self.pe_ids.get(adl_index).copied().unwrap_or(PeId(0));
        let (op_name, port, metric) = match key {
            MetricKey::Operator(op, metric) => (op, None, metric),
            MetricKey::OperatorPort(op, port, metric) => (op, Some(*port), metric),
            MetricKey::Pe(adl_index, metric) => {
                let context = PeMetricContext {
                    job: self.job,
                    app_name: app_name(),
                    pe: pe_at(*adl_index),
                    adl_index: *adl_index,
                    metric: metric.clone(),
                    value,
                    epoch: self.epoch,
                    collected_at: self.collected_at,
                };
                return Some(QueuedEvent::PeMetric(context, keys));
            }
        };
        let op = self.graph.operator(op_name)?;
        let (instance_name, operator_kind, pe) = (op_name.clone(), op.kind.clone(), pe_at(op.pe));
        let metric = metric.clone();
        Some(match port {
            None => QueuedEvent::OperatorMetric(
                OperatorMetricContext {
                    job: self.job,
                    app_name: app_name(),
                    instance_name,
                    operator_kind,
                    metric,
                    value,
                    epoch: self.epoch,
                    pe,
                    collected_at: self.collected_at,
                },
                keys,
            ),
            Some(port) => QueuedEvent::OperatorPortMetric(
                OperatorPortMetricContext {
                    job: self.job,
                    app_name: app_name(),
                    instance_name,
                    operator_kind,
                    port,
                    metric,
                    value,
                    epoch: self.epoch,
                    pe,
                    collected_at: self.collected_at,
                },
                keys,
            ),
        })
    }
}

/// Internal state shared between the service loop and handler contexts.
pub(crate) struct ServiceCore {
    orca_id: OrcaId,
    name: String,
    apps: BTreeMap<String, ManagedApp>,
    scopes: ScopeSet,
    queue: VecDeque<QueuedEvent>,
    deps: DependencyManager,
    jobs: BTreeMap<JobId, JobRecord>,
    poll_period: SimDuration,
    last_poll: Option<SimTime>,
    metric_epoch: u64,
    failure_epochs: BTreeMap<(String, u64), u64>,
    next_failure_epoch: u64,
    timers: Vec<(SimTime, String)>,
    pending_user_events: VecDeque<(String, ParamMap)>,
    status: BTreeMap<String, String>,
    exclusive_uniquifier: u64,
    stats: ServiceStats,
    journal: Journal,
}

impl ServiceCore {
    /// Enqueues a job lifecycle event if any JobEvent scope matches.
    fn enqueue_job_event(&mut self, submitted: bool, ctx: JobEventContext) {
        let subject = Subject::JobEvent(&ctx.app_name, ctx.config_id.as_deref());
        let keys = self.scopes.matching(subject);
        if keys.is_empty() {
            return;
        }
        self.queue.push_back(if submitted {
            QueuedEvent::JobSubmitted(ctx, keys)
        } else {
            QueuedEvent::JobCancelled(ctx, keys)
        });
    }

    /// Epoch for a PE failure: failures sharing (reason class, detection
    /// time) correlate to one physical event (§4.2).
    fn failure_epoch(&mut self, class: &str, detected_at: SimTime) -> u64 {
        let key = (class.to_string(), detected_at.as_millis());
        if let Some(&e) = self.failure_epochs.get(&key) {
            return e;
        }
        self.next_failure_epoch += 1;
        let e = self.next_failure_epoch;
        self.failure_epochs.insert(key, e);
        e
    }

    /// ADL ready for submission for a config: parameter substitution plus
    /// the exclusive-host-pool rewrite.
    fn prepare_adl(
        &mut self,
        app_name: &str,
        config: Option<&AppConfig>,
    ) -> Result<Adl, OrcaError> {
        let app = self
            .apps
            .get(app_name)
            .ok_or_else(|| OrcaError::UnknownApp(app_name.to_string()))?;
        let mut adl = app.adl.clone();
        if let Some(cfg) = config {
            for op in &mut adl.operators {
                for value in op.params.values_mut() {
                    if let Value::Str(s) = value {
                        if let Some(key) = s.strip_prefix("${").and_then(|r| r.strip_suffix('}')) {
                            let replacement = cfg.params.get(key).cloned().ok_or_else(|| {
                                OrcaError::MissingParam {
                                    config: cfg.id.clone(),
                                    param: key.to_string(),
                                }
                            })?;
                            *value = replacement;
                        }
                    }
                }
            }
            if cfg.exclusive_hosts {
                self.exclusive_uniquifier += 1;
                let tag = format!("{}#{}", cfg.id, self.exclusive_uniquifier);
                adl.make_host_pools_exclusive(&tag);
            }
        }
        Ok(adl)
    }

    fn require_managed(&self, job: JobId) -> Result<&JobRecord, OrcaError> {
        self.jobs.get(&job).ok_or(OrcaError::NotManaged(job))
    }

    /// The one submission: kernel call → `jobs` table → dependency manager →
    /// job event → journal. `config_id` is the application configuration the
    /// dependency manager is starting, `None` for a direct submission.
    fn submit(
        &mut self,
        kernel: &mut Kernel,
        adl: Adl,
        app_name: &str,
        config_id: Option<&str>,
    ) -> Result<JobId, RuntimeError> {
        let job = kernel.submit_job(adl, Some(self.orca_id))?;
        let at = kernel.now();
        let record = JobRecord {
            app_name: app_name.to_string(),
            config_id: config_id.map(str::to_string),
        };
        self.jobs.insert(job, record.clone());
        if let Some(cfg) = config_id {
            self.deps.mark_submitted(cfg, job, at);
        }
        self.enqueue_job_event(true, record.into_event(job, at));
        self.journal.record(format!("submit({app_name}) -> {job}"));
        Ok(job)
    }

    /// The one cancellation, in the same order: kernel call → `jobs` table →
    /// dependency manager → job event → journal.
    fn cancel(&mut self, kernel: &mut Kernel, job: JobId) -> Result<(), OrcaError> {
        self.require_managed(job)?;
        kernel.cancel_job(job).map_err(OrcaError::Runtime)?;
        let record = self.jobs.remove(&job).expect("managed, checked above");
        if let Some(cfg) = &record.config_id {
            self.deps.mark_cancelled(cfg);
        }
        self.enqueue_job_event(false, record.into_event(job, kernel.now()));
        self.journal.record(format!("cancel({job})"));
        Ok(())
    }
}

/// Handler-facing API: actuation, inspection, and service configuration.
///
/// Borrowing both the runtime kernel (the simulated SAM/SRM RPC surface) and
/// the service core, so handlers can act synchronously — the paper's ORCA
/// service proxies these calls to the middleware (§3).
pub struct OrcaCtx<'a> {
    kernel: &'a mut Kernel,
    core: &'a mut ServiceCore,
}

impl<'a> OrcaCtx<'a> {
    pub fn now(&self) -> SimTime {
        self.kernel.now()
    }

    pub fn orca_id(&self) -> OrcaId {
        self.core.orca_id
    }

    // ---- event scope management (§4.1) -----------------------------------

    /// Registers a subscope with the ORCA service event scope.
    pub fn register_event_scope(&mut self, scope: impl Into<EventScope>) {
        self.core.scopes.register(scope.into());
    }

    /// Changes the SRM metric poll period (§4.2: "developers can change it
    /// at any point of the execution").
    pub fn set_metric_poll_period(&mut self, period: SimDuration) {
        self.core.poll_period = period;
    }

    /// Registers a one-shot timer; [`Orchestrator::on_timer`] fires with the
    /// given key.
    pub fn set_timer(&mut self, delay: SimDuration, key: &str) {
        let due = self.now() + delay;
        self.core.timers.push((due, key.to_string()));
        self.core
            .timers
            .sort_by(|a, b| a.0.cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
    }

    // ---- application registry --------------------------------------------

    /// Dynamically registers an additional manageable application (listed as
    /// future work in the paper's §7; supported here directly).
    pub fn register_app(&mut self, adl: Adl) {
        let graph = GraphStore::from_adl(&adl);
        self.core.apps.insert(
            adl.app_name.clone(),
            ManagedApp {
                name: adl.app_name.clone(),
                adl,
                graph,
            },
        );
    }

    /// The in-memory stream-graph representation of a managed application.
    pub fn graph(&self, app_name: &str) -> Option<&GraphStore> {
        self.core.apps.get(app_name).map(|a| &a.graph)
    }

    /// Graph of the application a managed job runs.
    pub fn graph_of_job(&self, job: JobId) -> Option<&GraphStore> {
        let rec = self.core.jobs.get(&job)?;
        self.graph(&rec.app_name)
    }

    // ---- direct actuation (§4) --------------------------------------------

    /// Submits a managed application directly (no configuration). The job is
    /// owned by this orchestrator.
    pub fn submit_app(&mut self, app_name: &str) -> Result<JobId, OrcaError> {
        let adl = self.core.prepare_adl(app_name, None)?;
        self.core
            .submit(self.kernel, adl, app_name, None)
            .map_err(OrcaError::Runtime)
    }

    /// Submits a managed application with its host pools rewritten to be
    /// exclusive (§4.3) — the replica-manager pattern of §5.2.
    pub fn submit_app_exclusive(&mut self, app_name: &str) -> Result<JobId, OrcaError> {
        let mut adl = self.core.prepare_adl(app_name, None)?;
        self.core.exclusive_uniquifier += 1;
        let tag = format!("{app_name}#{}", self.core.exclusive_uniquifier);
        adl.make_host_pools_exclusive(&tag);
        self.core
            .submit(self.kernel, adl, app_name, None)
            .map_err(OrcaError::Runtime)
    }

    /// Cancels a job started through this ORCA service.
    pub fn cancel_job(&mut self, job: JobId) -> Result<(), OrcaError> {
        self.core.cancel(self.kernel, job)
    }

    /// Checks that a PE exists and belongs to a job this service manages.
    fn require_managed_pe(&self, pe: PeId) -> Result<(), OrcaError> {
        let Some((job, _)) = self.kernel.sam.pe_lookup(pe) else {
            return Err(OrcaError::Runtime(RuntimeError::UnknownPe(pe)));
        };
        self.core.require_managed(job).map(|_| ())
    }

    /// Restarts a PE of a managed job. Operator state is recovered from the
    /// kernel's newest compatible checkpoint when checkpointing is enabled,
    /// and comes back fresh otherwise (see [`Kernel::restart_pe`]). Returns
    /// the replacement PE id.
    pub fn restart_pe(&mut self, pe: PeId) -> Result<PeId, OrcaError> {
        self.require_managed_pe(pe)?;
        let new_pe = self.kernel.restart_pe(pe).map_err(OrcaError::Runtime)?;
        let how = match self.kernel.restart_log().last() {
            Some(rec) if rec.new_pe == new_pe && rec.restore.restored() => "restored",
            _ => "fresh",
        };
        self.core
            .journal
            .record(format!("restart({pe}) -> {new_pe} [{how}]"));
        Ok(new_pe)
    }

    /// Stops a PE of a managed job.
    pub fn stop_pe(&mut self, pe: PeId) -> Result<(), OrcaError> {
        self.require_managed_pe(pe)?;
        self.kernel.stop_pe(pe).map_err(OrcaError::Runtime)?;
        self.core.journal.record(format!("stop({pe})"));
        Ok(())
    }

    /// Sends a control item directly into an operator of a managed job (the
    /// "dynamic filter receiving a control command" pattern of §3).
    pub fn inject(
        &mut self,
        job: JobId,
        op: &str,
        port: usize,
        item: StreamItem,
    ) -> Result<(), OrcaError> {
        self.core.require_managed(job)?;
        self.kernel
            .inject(job, op, port, item)
            .map_err(OrcaError::Runtime)
    }

    /// Reads a sink-like operator's recent output (managed jobs only).
    pub fn tap(&self, job: JobId, op: &str) -> Option<Vec<Tuple>> {
        self.core.jobs.get(&job)?;
        self.kernel.tap(job, op)
    }

    /// Time of the newest checkpoint covering a job's ADL PE slot, if any —
    /// the freshness a recovery of that slot would come back with.
    /// Orchestrators rank failover candidates by this instead of by
    /// submission age when checkpointing is active.
    pub fn checkpoint_coverage(&self, job: JobId, adl_index: usize) -> Option<SimTime> {
        self.kernel.checkpoint_coverage(job, adl_index)
    }

    /// Whether the runtime buffers and replays in-flight tuples around
    /// restarts (exactly-once recovery): a restored replica loses nothing,
    /// not even the gap past its snapshot.
    pub fn upstream_backup_enabled(&self) -> bool {
        self.kernel.upstream_backup_enabled()
    }

    // ---- application configurations & dependencies (§4.4) -----------------

    /// Creates an application configuration for later dependency-driven
    /// submission.
    pub fn create_app_config(&mut self, config: AppConfig) -> Result<(), OrcaError> {
        if !self.core.apps.contains_key(&config.app_name) {
            return Err(OrcaError::UnknownApp(config.app_name.clone()));
        }
        self.core.deps.register_config(config)
    }

    /// Registers `dependent` → `dependency` with an uptime requirement;
    /// rejects cycles.
    pub fn register_dependency(
        &mut self,
        dependent: &str,
        dependency: &str,
        uptime: SimDuration,
    ) -> Result<(), OrcaError> {
        self.core
            .deps
            .register_dependency(dependent, dependency, uptime)
    }

    /// Requests a configuration start: the ORCA service submits its
    /// not-yet-running dependencies in order, honouring uptime requirements,
    /// then the target.
    pub fn request_start(&mut self, config_id: &str) -> Result<(), OrcaError> {
        let now = self.kernel.now();
        self.core.deps.request_start(config_id, now)?;
        Ok(())
    }

    /// Requests a configuration cancellation, with starvation protection and
    /// garbage collection of unused upstream applications.
    pub fn request_cancel(&mut self, config_id: &str) -> Result<(), OrcaError> {
        let now = self.kernel.now();
        let job = self.core.deps.job_of(config_id);
        self.core.deps.request_cancel(config_id, now)?;
        // The target is cancelled immediately; its now-unused upstream waits
        // in the dependency manager's GC queue.
        job.map_or(Ok(()), |job| self.core.cancel(self.kernel, job))
    }

    /// Job currently running a configuration.
    pub fn job_of_config(&self, config_id: &str) -> Option<JobId> {
        self.core.deps.job_of(config_id)
    }

    /// Configuration a managed job was started from (None for direct
    /// submissions).
    pub fn config_of_job(&self, job: JobId) -> Option<String> {
        self.core.jobs.get(&job).and_then(|r| r.config_id.clone())
    }

    /// Configs currently running under the dependency manager.
    pub fn running_configs(&self) -> Vec<String> {
        self.core
            .deps
            .running_configs()
            .into_iter()
            .map(str::to_string)
            .collect()
    }

    // ---- graph inspection by PE (§4.2 inspection queries) ------------------

    /// Graph and ADL PE index behind a PE id of a managed job.
    fn graph_of_pe(&self, pe: PeId) -> Option<(&GraphStore, usize)> {
        let (job, adl_index) = self.kernel.sam.pe_lookup(pe)?;
        Some((self.graph_of_job(job)?, adl_index))
    }

    /// "Which stream operators reside in PE with id x?"
    pub fn operators_in_pe(&self, pe: PeId) -> Vec<String> {
        let ops = self.graph_of_pe(pe).map(|(g, i)| g.operators_in_pe(i));
        ops.into_iter().flatten().map(|o| o.name.clone()).collect()
    }

    /// "Which composites reside in PE with id x?"
    pub fn composites_in_pe(&self, pe: PeId) -> Vec<String> {
        let composites = self.graph_of_pe(pe).map(|(g, i)| g.composites_in_pe(i));
        composites
            .into_iter()
            .flatten()
            .map(|c| c.path.clone())
            .collect()
    }

    /// "What is the PE id for operator instance y?"
    pub fn pe_of_operator(&self, job: JobId, op: &str) -> Option<PeId> {
        let graph = self.graph_of_job(job)?;
        let adl_index = graph.pe_of_operator(op)?;
        self.kernel.pe_id_of(job, adl_index)
    }

    /// "What is the enclosing composite operator instance name for operator
    /// instance y?"
    pub fn enclosing_composite(&self, job: JobId, op: &str) -> Option<String> {
        self.graph_of_job(job)?
            .enclosing_composite(op)
            .map(|c| c.path.clone())
    }

    /// Jobs this orchestrator manages for an application.
    pub fn jobs_of_app(&self, app_name: &str) -> Vec<JobId> {
        self.core
            .jobs
            .iter()
            .filter(|(_, r)| r.app_name == app_name)
            .map(|(&j, _)| j)
            .collect()
    }

    /// Application name of a managed job.
    pub fn app_of_job(&self, job: JobId) -> Option<&str> {
        self.core.jobs.get(&job).map(|r| r.app_name.as_str())
    }

    // ---- status board (the §5.2 "status file" read by the GUI) -------------

    pub fn set_status(&mut self, key: &str, value: &str) {
        self.core.status.insert(key.to_string(), value.to_string());
    }

    pub fn status(&self, key: &str) -> Option<&str> {
        self.core.status.get(key).map(String::as_str)
    }

    /// Direct kernel access for advanced inspection (simulation-only
    /// capability; real deployments would use dedicated RPCs).
    pub fn kernel(&mut self) -> &mut Kernel {
        self.kernel
    }
}

/// The ORCA service runtime component.
pub struct OrcaService {
    core: ServiceCore,
    logic: Box<dyn Orchestrator>,
    started: bool,
}

impl OrcaService {
    /// Submits an orchestrator to SAM: registers it as a manageable entity
    /// and builds the in-memory graphs of its applications. Attach the
    /// returned service to the [`sps_runtime::World`] as a controller.
    pub fn submit(
        kernel: &mut Kernel,
        descriptor: OrcaDescriptor,
        logic: Box<dyn Orchestrator>,
    ) -> OrcaService {
        let orca_id = kernel.sam.register_orchestrator();
        let mut apps = BTreeMap::new();
        for (name, adl) in descriptor.apps {
            let graph = GraphStore::from_adl(&adl);
            apps.insert(name.clone(), ManagedApp { name, adl, graph });
        }
        kernel.trace.push(
            kernel.now(),
            "orca",
            format!("orchestrator '{}' registered as {orca_id}", descriptor.name),
        );
        OrcaService {
            core: ServiceCore {
                orca_id,
                name: descriptor.name,
                apps,
                scopes: ScopeSet::default(),
                queue: VecDeque::new(),
                deps: DependencyManager::new(),
                jobs: BTreeMap::new(),
                poll_period: SimDuration::from_secs(15),
                last_poll: None,
                metric_epoch: 0,
                failure_epochs: BTreeMap::new(),
                next_failure_epoch: 0,
                timers: Vec::new(),
                pending_user_events: VecDeque::new(),
                status: BTreeMap::new(),
                exclusive_uniquifier: 0,
                stats: ServiceStats::default(),
                journal: Journal::default(),
            },
            logic,
            started: false,
        }
    }

    pub fn orca_id(&self) -> OrcaId {
        self.core.orca_id
    }

    pub fn name(&self) -> &str {
        &self.core.name
    }

    pub fn stats(&self) -> ServiceStats {
        self.core.stats
    }

    /// Status board read access (what the paper's GUI polls from the status
    /// file, §5.2).
    pub fn status(&self, key: &str) -> Option<&str> {
        self.core.status.get(key).map(String::as_str)
    }

    /// Injects a user-generated event (the §4.1 command tool). Delivered on
    /// the next quantum if it matches a registered [`crate::UserEventScope`].
    pub fn inject_user_event(&mut self, name: &str, payload: ParamMap) {
        self.core
            .pending_user_events
            .push_back((name.to_string(), payload));
    }

    /// Downcast access to the ORCA logic (test/harness inspection).
    pub fn logic<T: Orchestrator>(&self) -> Option<&T> {
        let any: &dyn Any = self.logic.as_ref();
        any.downcast_ref::<T>()
    }

    /// Jobs currently managed by this service (submitted, not cancelled).
    pub fn managed_jobs(&self) -> Vec<JobId> {
        self.core.jobs.keys().copied().collect()
    }

    /// Convergence probe for the fault-injection campaign harness: the
    /// service has no undelivered events, SAM holds no pending notifications
    /// for it, and every PE of every managed job is running. After the last
    /// injected fault, a correct adaptation logic must bring this back to
    /// `true` within a bounded number of quanta.
    pub fn quiescent(&self, kernel: &Kernel) -> bool {
        self.core.queue.is_empty()
            && kernel.sam.notifications_pending(self.core.orca_id) == 0
            && self.core.jobs.keys().all(|&job| {
                kernel.sam.job(job).is_some_and(|info| {
                    info.pe_ids
                        .iter()
                        .all(|&pe| kernel.pe_status(pe) == Some(sps_runtime::PeStatus::Up))
                })
            })
    }

    /// The event/actuation journal (§7 extension): one entry per delivered
    /// event, carrying its transaction id and the actuations the handler
    /// performed — sufficient to audit or replay adaptation decisions.
    pub fn journal(&self) -> &[JournalEntry] {
        &self.core.journal.entries
    }

    // ---- the steps of a quantum, in order ------------------------------------

    fn deliver_start(&mut self, kernel: &mut Kernel) {
        if self.started {
            return;
        }
        self.started = true;
        let start = OrcaStartContext {
            orca_id: self.core.orca_id,
            now: kernel.now(),
        };
        let mut ctx = OrcaCtx {
            kernel,
            core: &mut self.core,
        };
        self.logic.on_start(&mut ctx, &start);
    }

    fn pull_failures(&mut self, kernel: &mut Kernel) {
        let core = &mut self.core;
        for n in kernel.sam.drain_notifications(core.orca_id) {
            let OrcaNotification::PeFailure {
                job,
                pe,
                adl_index,
                reason,
                detected_at,
            } = n;
            core.stats.failures_seen += 1;
            let Some(rec) = core.jobs.get(&job) else {
                continue;
            };
            let subject = Subject::PeFailure(&rec.app_name, reason.class());
            let keys = core.scopes.matching(subject);
            if keys.is_empty() {
                continue;
            }
            let context = PeFailureContext {
                job,
                app_name: rec.app_name.clone(),
                pe,
                adl_index,
                epoch: core.failure_epoch(reason.class(), detected_at),
                reason,
                detected_at,
            };
            core.queue.push_back(QueuedEvent::PeFailure(context, keys));
        }
    }

    fn pull_user_events(&mut self, kernel: &Kernel) {
        let core = &mut self.core;
        while let Some((name, payload)) = core.pending_user_events.pop_front() {
            let keys = core.scopes.matching(Subject::UserEvent(&name));
            if keys.is_empty() {
                continue;
            }
            let context = UserEventContext {
                name,
                payload,
                at: kernel.now(),
            };
            core.queue.push_back(QueuedEvent::User(context, keys));
        }
    }

    fn fire_timers(&mut self, kernel: &Kernel) {
        let now = kernel.now();
        while let Some((due, _)) = self.core.timers.first() {
            if *due > now {
                break;
            }
            let (_, key) = self.core.timers.remove(0);
            self.core
                .queue
                .push_back(QueuedEvent::Timer(TimerContext { key, fired_at: now }));
        }
    }

    fn advance_dependencies(&mut self, kernel: &mut Kernel) {
        let now = kernel.now();
        let core = &mut self.core;
        // Ordered submissions.
        while let Some(config_id) = core.deps.next_due_submission(now) {
            let cfg = core
                .deps
                .config(&config_id)
                .expect("pending config exists")
                .clone();
            let outcome = match core.prepare_adl(&cfg.app_name, Some(&cfg)) {
                Ok(adl) => core
                    .submit(kernel, adl, &cfg.app_name, Some(&config_id))
                    .map_err(|e| format!("submission of config '{config_id}' failed: {e}")),
                Err(e) => Err(format!("ADL preparation for '{config_id}' failed: {e}")),
            };
            if let Err(why) = outcome {
                kernel.trace.push(now, "orca", why);
                for dependent in core.deps.abandon_dependents_of(&config_id) {
                    let why = format!("config '{dependent}' abandoned: it needs '{config_id}'");
                    kernel.trace.push(now, "orca", why);
                }
            }
        }
        // Garbage-collection cancellations.
        for config_id in core.deps.due_cancellations(now) {
            let Some(job) = core.deps.job_of(&config_id) else {
                continue;
            };
            if core.cancel(kernel, job).is_ok() {
                kernel.trace.push(
                    now,
                    "orca",
                    format!("garbage-collected config '{config_id}'"),
                );
            }
        }
    }

    fn poll_metrics(&mut self, kernel: &Kernel) {
        let now = kernel.now();
        let core = &mut self.core;
        let since_last = core.last_poll.map(|last| now.since(last));
        if since_last.is_some_and(|elapsed| elapsed < core.poll_period) {
            return;
        }
        core.last_poll = Some(now);
        core.stats.polls += 1;
        let jobs: Vec<JobId> = core.jobs.keys().copied().collect();
        if jobs.is_empty() {
            return;
        }
        // One epoch per SRM query round (§4.2).
        core.metric_epoch += 1;
        for (job, snapshot) in kernel.srm.query_jobs(&jobs) {
            let app_name = &core.jobs[&job].app_name;
            let Some(app) = core.apps.get(app_name) else {
                continue;
            };
            let source = MetricSource {
                job,
                app_name,
                graph: &app.graph,
                pe_ids: kernel.sam.job(job).map_or(&[], |info| &info.pe_ids),
                epoch: core.metric_epoch,
                collected_at: snapshot.collected_at,
            };
            for (key, value) in &snapshot.values {
                core.stats.metric_observations_seen += 1;
                let keys = core.scopes.matching(source.subject(key));
                if keys.is_empty() {
                    continue;
                }
                if let Some(event) = source.event(key, *value, keys) {
                    core.stats.metric_events_matched += 1;
                    core.queue.push_back(event);
                }
            }
        }
    }

    fn drain_queue(&mut self, kernel: &mut Kernel) {
        let mut delivered = 0;
        while let Some(event) = self.core.queue.pop_front() {
            self.core.stats.events_delivered += 1;
            // One transaction per delivery (§7 extension): the journal ties
            // every actuation to the event that caused it.
            self.core.journal.open(kernel.now(), describe_event(&event));
            let mut ctx = OrcaCtx {
                kernel,
                core: &mut self.core,
            };
            match &event {
                QueuedEvent::OperatorMetric(c, keys) => {
                    self.logic.on_operator_metric(&mut ctx, c, keys)
                }
                QueuedEvent::OperatorPortMetric(c, keys) => {
                    self.logic.on_operator_port_metric(&mut ctx, c, keys)
                }
                QueuedEvent::PeMetric(c, keys) => self.logic.on_pe_metric(&mut ctx, c, keys),
                QueuedEvent::PeFailure(c, keys) => self.logic.on_pe_failure(&mut ctx, c, keys),
                QueuedEvent::JobSubmitted(c, keys) => {
                    self.logic.on_job_submitted(&mut ctx, c, keys)
                }
                QueuedEvent::JobCancelled(c, keys) => {
                    self.logic.on_job_cancelled(&mut ctx, c, keys)
                }
                QueuedEvent::Timer(c) => self.logic.on_timer(&mut ctx, c),
                QueuedEvent::User(c, keys) => self.logic.on_user_event(&mut ctx, c, keys),
            }
            self.core.journal.close();
            delivered += 1;
            if delivered >= MAX_EVENTS_PER_QUANTUM {
                kernel.trace.push(
                    kernel.now(),
                    "orca",
                    "event delivery cap hit; deferring remainder to next quantum",
                );
                break;
            }
        }
    }
}

impl Controller for OrcaService {
    fn on_quantum(&mut self, kernel: &mut Kernel) {
        // A crashed ORCA service does nothing until its recovery completes:
        // its internal queue freezes intact and SAM keeps queueing its
        // notifications durably — the backlog is replayed on the first pull
        // after recovery.
        if kernel.orca_is_down(self.core.orca_id) {
            return;
        }
        self.deliver_start(kernel);
        self.pull_failures(kernel);
        self.pull_user_events(kernel);
        self.fire_timers(kernel);
        self.advance_dependencies(kernel);
        self.poll_metrics(kernel);
        self.drain_queue(kernel);
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scope::{JobEventScope, OperatorMetricScope, PeFailureScope, UserEventScope};
    use sps_model::compiler::{compile, CompileOptions};
    use sps_model::logical::{AppModelBuilder, CompositeGraphBuilder, OperatorInvocation};
    use sps_runtime::{Cluster, RuntimeConfig, World};

    /// beacon → filter (queueSize-heavy) → sink.
    fn pipeline_adl(name: &str) -> Adl {
        let mut m = CompositeGraphBuilder::main();
        m.operator(
            "src",
            OperatorInvocation::new("Beacon")
                .source()
                .param("rate", 100.0),
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

    /// Scripted ORCA logic recording everything it sees.
    #[derive(Default)]
    struct Recorder {
        started: bool,
        metric_events: Vec<(String, String, i64, u64)>,
        failures: Vec<(PeId, String, u64)>,
        submissions: Vec<String>,
        cancellations: Vec<String>,
        timers: Vec<String>,
        user_events: Vec<String>,
        submit_on_start: Vec<&'static str>,
        act_on_failure_restart: bool,
        restart_results: Vec<Result<PeId, OrcaError>>,
    }

    impl Orchestrator for Recorder {
        fn on_start(&mut self, ctx: &mut OrcaCtx<'_>, _s: &OrcaStartContext) {
            self.started = true;
            ctx.register_event_scope(
                OperatorMetricScope::new("procScope")
                    .add_operator_instance("flt")
                    .add_metric("nTuplesProcessed"),
            );
            ctx.register_event_scope(PeFailureScope::new("failScope"));
            ctx.register_event_scope(JobEventScope::new("jobScope"));
            ctx.register_event_scope(UserEventScope::new("userScope").add_name("go"));
            ctx.set_metric_poll_period(SimDuration::from_secs(5));
            for app in self.submit_on_start.clone() {
                ctx.submit_app(app).unwrap();
            }
        }

        fn on_operator_metric(
            &mut self,
            _ctx: &mut OrcaCtx<'_>,
            e: &OperatorMetricContext,
            scopes: &[String],
        ) {
            assert_eq!(scopes, ["procScope".to_string()]);
            self.metric_events
                .push((e.instance_name.clone(), e.metric.clone(), e.value, e.epoch));
        }

        fn on_pe_failure(
            &mut self,
            ctx: &mut OrcaCtx<'_>,
            e: &PeFailureContext,
            scopes: &[String],
        ) {
            assert_eq!(scopes, ["failScope".to_string()]);
            self.failures
                .push((e.pe, e.reason.class().to_string(), e.epoch));
            if self.act_on_failure_restart {
                self.restart_results.push(ctx.restart_pe(e.pe));
            }
        }

        fn on_job_submitted(&mut self, _ctx: &mut OrcaCtx<'_>, e: &JobEventContext, _s: &[String]) {
            self.submissions.push(e.app_name.clone());
        }

        fn on_job_cancelled(&mut self, _ctx: &mut OrcaCtx<'_>, e: &JobEventContext, _s: &[String]) {
            self.cancellations.push(e.app_name.clone());
        }

        fn on_timer(&mut self, _ctx: &mut OrcaCtx<'_>, e: &TimerContext) {
            self.timers.push(e.key.clone());
        }

        fn on_user_event(&mut self, _ctx: &mut OrcaCtx<'_>, e: &UserEventContext, _s: &[String]) {
            self.user_events.push(e.name.clone());
        }
    }

    fn world_with(recorder: Recorder, apps: Vec<Adl>) -> (World, usize) {
        world_with_logic(Box::new(recorder), apps)
    }

    fn world_with_logic(logic: Box<dyn Orchestrator>, apps: Vec<Adl>) -> (World, usize) {
        let kernel = Kernel::new(
            Cluster::with_hosts(3),
            sps_engine::OperatorRegistry::with_builtins(),
            RuntimeConfig::default(),
        );
        let mut world = World::new(kernel);
        let mut desc = OrcaDescriptor::new("TestOrca");
        for adl in apps {
            desc = desc.app(adl);
        }
        let service = OrcaService::submit(&mut world.kernel, desc, logic);
        let idx = world.add_controller(Box::new(service));
        (world, idx)
    }

    fn recorder(world: &World, idx: usize) -> &Recorder {
        world
            .controller::<OrcaService>(idx)
            .unwrap()
            .logic::<Recorder>()
            .unwrap()
    }

    #[test]
    fn start_event_fires_once_and_submissions_deliver_job_events() {
        let rec = Recorder {
            submit_on_start: vec!["App"],
            ..Default::default()
        };
        let (mut world, idx) = world_with(rec, vec![pipeline_adl("App")]);
        world.run_for(SimDuration::from_millis(300));
        let r = recorder(&world, idx);
        assert!(r.started);
        assert_eq!(r.submissions, vec!["App".to_string()]);
        // The job actually runs.
        let svc = world.controller::<OrcaService>(idx).unwrap();
        assert_eq!(svc.stats().events_delivered, 1);
        assert_eq!(world.kernel.sam.running_jobs().len(), 1);
    }

    #[test]
    fn metric_events_flow_with_shared_epoch() {
        let rec = Recorder {
            submit_on_start: vec!["App"],
            ..Default::default()
        };
        let (mut world, idx) = world_with(rec, vec![pipeline_adl("App")]);
        // Poll period 5 s; metrics push every 3 s. Run 11 s → at least one
        // poll with data (polls at ~0.1 s [empty], ~5.1 s, ~10.1 s).
        world.run_for(SimDuration::from_secs(11));
        let r = recorder(&world, idx);
        assert!(!r.metric_events.is_empty());
        // Only the scoped (flt, nTuplesProcessed) pairs got through.
        for (op, metric, value, _) in &r.metric_events {
            assert_eq!(op, "flt");
            assert_eq!(metric, "nTuplesProcessed");
            assert!(*value > 0);
        }
        // Values grow over successive polls (epochs increase).
        let epochs: Vec<u64> = r.metric_events.iter().map(|(_, _, _, e)| *e).collect();
        assert!(epochs.windows(2).all(|w| w[0] <= w[1]));
        assert!(epochs.last().unwrap() > epochs.first().unwrap());
        // Unscoped metrics were filtered service-side.
        let svc = world.controller::<OrcaService>(idx).unwrap();
        let stats = svc.stats();
        assert!(stats.metric_observations_seen > stats.metric_events_matched);
    }

    #[test]
    fn quiescence_probe_tracks_failure_and_recovery() {
        let rec = Recorder {
            submit_on_start: vec!["App"],
            act_on_failure_restart: true,
            ..Default::default()
        };
        let (mut world, idx) = world_with(rec, vec![pipeline_adl("App")]);
        world.run_for(SimDuration::from_secs(1));
        assert!(world
            .controller::<OrcaService>(idx)
            .unwrap()
            .quiescent(&world.kernel));
        let job = world.kernel.sam.running_jobs()[0];
        let pe = world.kernel.pe_id_of(job, 1).unwrap();
        world.kernel.kill_pe(pe).unwrap();
        // A crashed PE (and, once drained, the replacement's spawn gap)
        // breaks quiescence…
        assert!(!world
            .controller::<OrcaService>(idx)
            .unwrap()
            .quiescent(&world.kernel));
        // …until the handler restarted it and the spawn delay elapsed.
        world.run_for(SimDuration::from_secs(3));
        assert!(world
            .controller::<OrcaService>(idx)
            .unwrap()
            .quiescent(&world.kernel));
        assert_eq!(
            world.controller::<OrcaService>(idx).unwrap().managed_jobs(),
            vec![job]
        );
    }

    #[test]
    fn pe_failure_event_delivery_and_restart_actuation() {
        let rec = Recorder {
            submit_on_start: vec!["App"],
            act_on_failure_restart: true,
            ..Default::default()
        };
        let (mut world, idx) = world_with(rec, vec![pipeline_adl("App")]);
        world.run_for(SimDuration::from_secs(1));
        let job = world.kernel.sam.running_jobs()[0];
        let pe = world.kernel.pe_id_of(job, 1).unwrap();
        world.kernel.kill_pe(pe).unwrap();
        world.run_for(SimDuration::from_secs(3)); // covers the restart delay
        let r = recorder(&world, idx);
        assert_eq!(r.failures.len(), 1);
        assert_eq!(r.failures[0].0, pe);
        assert_eq!(r.failures[0].1, "killed");
        // The handler's restart succeeded and produced a fresh PE.
        assert_eq!(r.restart_results.len(), 1);
        let new_pe = *r.restart_results[0].as_ref().unwrap();
        assert_ne!(new_pe, pe);
        assert_eq!(
            world.kernel.pe_status(new_pe),
            Some(sps_runtime::PeStatus::Up)
        );
    }

    #[test]
    fn host_failure_groups_epochs() {
        let rec = Recorder {
            submit_on_start: vec!["App"],
            ..Default::default()
        };
        // One host → all three PEs on it; host kill crashes all at once.
        let kernel = Kernel::new(
            Cluster::with_hosts(1),
            sps_engine::OperatorRegistry::with_builtins(),
            RuntimeConfig::default(),
        );
        let mut world = World::new(kernel);
        let service = OrcaService::submit(
            &mut world.kernel,
            OrcaDescriptor::new("O").app(pipeline_adl("App")),
            Box::new(rec),
        );
        let idx = world.add_controller(Box::new(service));
        world.run_for(SimDuration::from_secs(1));
        world.kernel.kill_host("host0").unwrap();
        world.run_for(SimDuration::from_secs(1));
        let r = recorder(&world, idx);
        assert_eq!(r.failures.len(), 3);
        let epochs: Vec<u64> = r.failures.iter().map(|(_, _, e)| *e).collect();
        assert!(
            epochs.windows(2).all(|w| w[0] == w[1]),
            "one physical event must share an epoch: {epochs:?}"
        );
        assert!(r.failures.iter().all(|(_, c, _)| c == "hostFailure"));
    }

    #[test]
    fn timers_and_user_events() {
        let rec = Recorder::default();
        let (mut world, idx) = world_with(rec, vec![]);
        world.step(); // deliver start (registers scopes)
        {
            let svc = world.controller_mut::<OrcaService>(idx).unwrap();
            svc.inject_user_event("go", ParamMap::new());
            svc.inject_user_event("ignored", ParamMap::new());
        }
        world.run_for(SimDuration::from_millis(200));
        let r = recorder(&world, idx);
        assert_eq!(r.user_events, vec!["go".to_string()]);

        // Timer set via a user-event handler? Use a fresh world with a
        // timer-setting orchestrator instead: reuse Recorder by setting the
        // timer directly through a scripted controller is overkill — the
        // sentiment app covers timers; here check service-level plumbing.
    }

    /// Orchestrator that sets a timer in on_start.
    struct TimerLogic {
        fired: Vec<(String, SimTime)>,
    }

    impl Orchestrator for TimerLogic {
        fn on_start(&mut self, ctx: &mut OrcaCtx<'_>, _s: &OrcaStartContext) {
            ctx.set_timer(SimDuration::from_millis(500), "first");
            ctx.set_timer(SimDuration::from_millis(1500), "second");
        }
        fn on_timer(&mut self, _ctx: &mut OrcaCtx<'_>, e: &TimerContext) {
            self.fired.push((e.key.clone(), e.fired_at));
        }
    }

    #[test]
    fn timers_fire_in_order_at_due_times() {
        let kernel = Kernel::new(
            Cluster::with_hosts(1),
            sps_engine::OperatorRegistry::with_builtins(),
            RuntimeConfig::default(),
        );
        let mut world = World::new(kernel);
        let service = OrcaService::submit(
            &mut world.kernel,
            OrcaDescriptor::new("T"),
            Box::new(TimerLogic { fired: vec![] }),
        );
        let idx = world.add_controller(Box::new(service));
        world.run_for(SimDuration::from_secs(2));
        let svc = world.controller::<OrcaService>(idx).unwrap();
        let logic = svc.logic::<TimerLogic>().unwrap();
        assert_eq!(logic.fired.len(), 2);
        assert_eq!(logic.fired[0].0, "first");
        // Start was delivered at the end of the first quantum (t=100ms), so
        // "first" fires at 600 ms.
        assert_eq!(logic.fired[0].1, SimTime::from_millis(600));
        assert_eq!(logic.fired[1].0, "second");
        assert_eq!(logic.fired[1].1, SimTime::from_millis(1600));
    }

    /// Orchestrator that tries to act on a job it does not manage.
    struct Trespasser {
        victim: JobId,
        victim_pe: PeId,
        results: Vec<OrcaError>,
    }

    impl Orchestrator for Trespasser {
        fn on_start(&mut self, ctx: &mut OrcaCtx<'_>, _s: &OrcaStartContext) {
            if let Err(e) = ctx.cancel_job(self.victim) {
                self.results.push(e);
            }
            if let Err(e) = ctx.restart_pe(self.victim_pe) {
                self.results.push(e);
            }
            if let Err(e) = ctx.stop_pe(self.victim_pe) {
                self.results.push(e);
            }
            if let Err(e) = ctx.inject(self.victim, "snk", 0, StreamItem::Tuple(Tuple::new())) {
                self.results.push(e);
            }
        }
    }

    #[test]
    fn acting_on_unmanaged_jobs_is_a_runtime_error() {
        let kernel = Kernel::new(
            Cluster::with_hosts(1),
            sps_engine::OperatorRegistry::with_builtins(),
            RuntimeConfig::default(),
        );
        let mut world = World::new(kernel);
        // Victim job submitted outside any orchestrator.
        let victim = world
            .kernel
            .submit_job(pipeline_adl("Victim"), None)
            .unwrap();
        let victim_pe = world.kernel.pe_id_of(victim, 0).unwrap();
        let service = OrcaService::submit(
            &mut world.kernel,
            OrcaDescriptor::new("T"),
            Box::new(Trespasser {
                victim,
                victim_pe,
                results: vec![],
            }),
        );
        let idx = world.add_controller(Box::new(service));
        world.step();
        let svc = world.controller::<OrcaService>(idx).unwrap();
        let logic = svc.logic::<Trespasser>().unwrap();
        assert_eq!(logic.results.len(), 4);
        assert!(logic
            .results
            .iter()
            .all(|e| matches!(e, OrcaError::NotManaged(_))));
        // The victim is untouched.
        assert_eq!(world.kernel.sam.running_jobs(), vec![victim]);
    }

    /// Orchestrator using the graph-inspection API after submitting.
    struct Inspector {
        report: Vec<String>,
    }

    impl Orchestrator for Inspector {
        fn on_start(&mut self, ctx: &mut OrcaCtx<'_>, _s: &OrcaStartContext) {
            let job = ctx.submit_app("App").unwrap();
            let pe = ctx.pe_of_operator(job, "flt").unwrap();
            self.report.push(format!("flt in {pe}"));
            for op in ctx.operators_in_pe(pe) {
                self.report.push(format!("pe has {op}"));
            }
            assert!(ctx.enclosing_composite(job, "flt").is_none());
            assert_eq!(ctx.jobs_of_app("App"), vec![job]);
            assert_eq!(ctx.app_of_job(job), Some("App"));
            ctx.set_status("active", "replica0");
        }
    }

    #[test]
    fn inspection_api_and_status_board() {
        let kernel = Kernel::new(
            Cluster::with_hosts(1),
            sps_engine::OperatorRegistry::with_builtins(),
            RuntimeConfig::default(),
        );
        let mut world = World::new(kernel);
        let service = OrcaService::submit(
            &mut world.kernel,
            OrcaDescriptor::new("I").app(pipeline_adl("App")),
            Box::new(Inspector { report: vec![] }),
        );
        let idx = world.add_controller(Box::new(service));
        world.step();
        let svc = world.controller::<OrcaService>(idx).unwrap();
        let logic = svc.logic::<Inspector>().unwrap();
        assert_eq!(logic.report.len(), 2);
        assert!(logic.report[1].contains("flt"));
        assert_eq!(svc.status("active"), Some("replica0"));
        assert_eq!(svc.status("ghost"), None);
    }

    #[test]
    fn unknown_app_submission_fails() {
        struct BadSubmit {
            err: Option<OrcaError>,
        }
        impl Orchestrator for BadSubmit {
            fn on_start(&mut self, ctx: &mut OrcaCtx<'_>, _s: &OrcaStartContext) {
                self.err = ctx.submit_app("Ghost").err();
            }
        }
        let kernel = Kernel::new(
            Cluster::with_hosts(1),
            sps_engine::OperatorRegistry::with_builtins(),
            RuntimeConfig::default(),
        );
        let mut world = World::new(kernel);
        let service = OrcaService::submit(
            &mut world.kernel,
            OrcaDescriptor::new("B"),
            Box::new(BadSubmit { err: None }),
        );
        let idx = world.add_controller(Box::new(service));
        world.step();
        let svc = world.controller::<OrcaService>(idx).unwrap();
        assert!(matches!(
            svc.logic::<BadSubmit>().unwrap().err,
            Some(OrcaError::UnknownApp(_))
        ));
    }

    /// Starts config `b` (which depends on `a`, `uptime` after it) on start,
    /// and cancels the config a user event names from inside that event's
    /// handler.
    #[derive(Default)]
    struct ConfigLogic {
        uptime: SimDuration,
        submitted: Vec<Option<String>>,
        cancel_result: Option<Result<(), OrcaError>>,
    }

    impl Orchestrator for ConfigLogic {
        fn on_start(&mut self, ctx: &mut OrcaCtx<'_>, _s: &OrcaStartContext) {
            ctx.register_event_scope(JobEventScope::new("jobs"));
            ctx.register_event_scope(UserEventScope::new("user"));
            ctx.create_app_config(AppConfig::new("a", "A")).unwrap();
            ctx.create_app_config(AppConfig::new("b", "B")).unwrap();
            ctx.register_dependency("b", "a", self.uptime).unwrap();
            ctx.request_start("b").unwrap();
        }

        fn on_job_submitted(&mut self, _ctx: &mut OrcaCtx<'_>, e: &JobEventContext, _s: &[String]) {
            self.submitted.push(e.config_id.clone());
        }

        fn on_user_event(&mut self, ctx: &mut OrcaCtx<'_>, e: &UserEventContext, _s: &[String]) {
            self.cancel_result = Some(ctx.request_cancel(&e.name));
        }
    }

    #[test]
    fn request_cancel_journals_its_actuation_under_the_handlers_transaction() {
        let (mut world, idx) = world_with_logic(
            Box::<ConfigLogic>::default(),
            vec![pipeline_adl("A"), pipeline_adl("B")],
        );
        world.run_for(SimDuration::from_secs(1));
        let svc = world.controller_mut::<OrcaService>(idx).unwrap();
        assert_eq!(svc.managed_jobs().len(), 2);
        svc.inject_user_event("b", ParamMap::new());
        let job = world.kernel.sam.running_jobs()[1];
        world.run_for(SimDuration::from_secs(1));

        let svc = world.controller::<OrcaService>(idx).unwrap();
        assert_eq!(
            svc.logic::<ConfigLogic>().unwrap().cancel_result,
            Some(Ok(()))
        );
        // The handler's cancellation is tied to the user event's transaction…
        let entry = svc.journal().iter().find(|e| e.event == "userEvent b");
        assert_eq!(entry.unwrap().actuations, [format!("cancel({job})")]);
        // …while the GC cancellation of the now-unused `a` ran outside any
        // transaction: both jobs are gone, no other entry carries a cancel.
        assert!(svc.managed_jobs().is_empty());
        let cancels = svc.journal().iter().flat_map(|e| &e.actuations);
        assert_eq!(cancels.filter(|a| a.starts_with("cancel(")).count(), 1);
    }

    /// Submits `A` on start and stops its source PE on any user event.
    #[derive(Default)]
    struct Shedder {
        job: Option<JobId>,
        stopped: Option<PeId>,
    }

    impl Orchestrator for Shedder {
        fn on_start(&mut self, ctx: &mut OrcaCtx<'_>, _s: &OrcaStartContext) {
            ctx.register_event_scope(UserEventScope::new("user"));
            self.job = Some(ctx.submit_app("A").unwrap());
        }

        fn on_user_event(&mut self, ctx: &mut OrcaCtx<'_>, _e: &UserEventContext, _s: &[String]) {
            let pe = ctx.pe_of_operator(self.job.unwrap(), "src").unwrap();
            ctx.stop_pe(pe).unwrap();
            self.stopped = Some(pe);
        }
    }

    #[test]
    fn stop_pe_stops_the_pe_under_the_handlers_transaction() {
        let (mut world, idx) = world_with_logic(Box::<Shedder>::default(), vec![pipeline_adl("A")]);
        world.run_for(SimDuration::from_secs(1));
        let svc = world.controller_mut::<OrcaService>(idx).unwrap();
        svc.inject_user_event("shed", ParamMap::new());
        world.run_for(SimDuration::from_secs(1));

        let svc = world.controller::<OrcaService>(idx).unwrap();
        let pe = svc.logic::<Shedder>().unwrap().stopped.unwrap();
        let status = world.kernel.pe_status(pe);
        assert_eq!(status, Some(sps_runtime::PeStatus::Stopped));
        let entry = svc.journal().iter().find(|e| e.event == "userEvent shed");
        assert_eq!(entry.unwrap().actuations, [format!("stop({pe})")]);
    }

    #[test]
    fn rejected_config_submission_is_traced_and_abandons_its_dependents() {
        // `A` names an operator kind the registry lacks: SAM rejects it.
        let mut bad = pipeline_adl("A");
        bad.operators[1].kind = "NoSuchKind".into();
        // With an uptime, `b` is still pending when `a` fails; with none it
        // came due in the same instant and is next in line.
        for uptime in [SimDuration::from_millis(300), SimDuration::ZERO] {
            let logic = Box::new(ConfigLogic {
                uptime,
                ..ConfigLogic::default()
            });
            let (mut world, idx) = world_with_logic(logic, vec![bad.clone(), pipeline_adl("B")]);
            world.run_for(SimDuration::from_secs(1));
            let trace = &world.kernel.trace;
            let failures = trace.find("submission of config 'a' failed");
            assert_eq!(failures.len(), 1, "{}", trace.dump());
            // `b` was abandoned with it: nothing runs, no JobSubmitted was queued.
            let abandoned = trace.find("config 'b' abandoned: it needs 'a'");
            assert_eq!(abandoned.len(), 1, "{}", trace.dump());
            let svc = world.controller::<OrcaService>(idx).unwrap();
            assert!(svc.managed_jobs().is_empty(), "uptime {uptime:?}");
            assert!(world.kernel.sam.running_jobs().is_empty());
            assert!(svc.logic::<ConfigLogic>().unwrap().submitted.is_empty());
            assert_eq!(svc.stats().events_delivered, 0);
        }
    }
}
