//! Application sets and dependencies (§4.4).
//!
//! Developers create *application configurations* and register
//! unidirectional dependencies between them (with cycle rejection and
//! per-edge *uptime requirements*). On a start request, the manager snapshots
//! the dependency graph, prunes everything not needed by the requested
//! application, and plans ordered submissions: an application is due only
//! after each of its dependencies has been running for that edge's uptime.
//! On a cancellation request, it refuses to starve running dependents, and
//! otherwise garbage-collects now-unused upstream applications after their
//! configured timeouts — removing an application from the cancellation queue
//! ("resurrection") if a new start request reuses it before the timeout.

use crate::error::OrcaError;
use sps_model::value::ParamMap;
use sps_model::Value;
use sps_runtime::JobId;
use sps_sim::{SimDuration, SimTime};
use std::collections::{BTreeMap, BTreeSet};

/// An application configuration (§4.4): identifier, application name,
/// submission-time parameters, and garbage-collection policy.
#[derive(Clone, Debug, PartialEq)]
pub struct AppConfig {
    pub id: String,
    pub app_name: String,
    /// Submission-time parameters, substituted into ADL operator params of
    /// the form `"${key}"`.
    pub params: ParamMap,
    /// May the ORCA service cancel this application automatically when it is
    /// no longer used?
    pub garbage_collectable: bool,
    /// How long a garbage-collectable application keeps running after
    /// becoming unused.
    pub gc_timeout: SimDuration,
    /// Rewrite host pools to be exclusive before submission (§4.3).
    pub exclusive_hosts: bool,
}

impl AppConfig {
    pub fn new(id: &str, app_name: &str) -> Self {
        AppConfig {
            id: id.to_string(),
            app_name: app_name.to_string(),
            params: ParamMap::new(),
            garbage_collectable: true,
            gc_timeout: SimDuration::ZERO,
            exclusive_hosts: false,
        }
    }

    pub fn param(mut self, key: &str, value: impl Into<Value>) -> Self {
        self.params.insert(key.to_string(), value.into());
        self
    }

    pub fn not_garbage_collectable(mut self) -> Self {
        self.garbage_collectable = false;
        self
    }

    pub fn gc_timeout(mut self, d: SimDuration) -> Self {
        self.gc_timeout = d;
        self
    }

    pub fn exclusive_hosts(mut self) -> Self {
        self.exclusive_hosts = true;
        self
    }
}

/// A dependency edge: `dependent` requires `dependency`, and may only start
/// `uptime` after `dependency` was submitted.
#[derive(Clone, Debug, PartialEq)]
struct Edge {
    dependent: String,
    dependency: String,
    uptime: SimDuration,
}

/// A planned cancellation: `(due time, config id)`.
pub type CancelEntry = (SimTime, String);

/// Result of a cancellation request.
#[derive(Clone, Debug, PartialEq)]
pub struct CancelPlan {
    /// Cancelled immediately (the request target).
    pub immediate: String,
    /// Upstream applications queued for garbage collection.
    pub queued: Vec<CancelEntry>,
}

/// The dependency bookkeeping of one ORCA service.
#[derive(Default)]
pub struct DependencyManager {
    configs: BTreeMap<String, AppConfig>,
    edges: Vec<Edge>,
    /// Running configs and their jobs.
    running: BTreeMap<String, JobId>,
    /// When each running config was submitted.
    submit_times: BTreeMap<String, SimTime>,
    /// Configs exempt from GC because the logic submitted them explicitly.
    explicit: BTreeSet<String>,
    /// Planned future submissions, `(due, config)`, in submission order.
    pending_submissions: Vec<(SimTime, String)>,
    /// GC queue, `(due, config)`, kept sorted.
    cancel_queue: Vec<CancelEntry>,
}

impl DependencyManager {
    pub fn new() -> Self {
        Self::default()
    }

    // ---- configuration -------------------------------------------------

    pub fn register_config(&mut self, config: AppConfig) -> Result<(), OrcaError> {
        if self.configs.contains_key(&config.id) {
            return Err(OrcaError::DuplicateConfig(config.id));
        }
        self.configs.insert(config.id.clone(), config);
        Ok(())
    }

    pub fn config(&self, id: &str) -> Option<&AppConfig> {
        self.configs.get(id)
    }

    /// Registers `dependent` → `dependency` with an uptime requirement.
    /// Returns an error when either endpoint is unknown or the edge would
    /// create a cycle.
    pub fn register_dependency(
        &mut self,
        dependent: &str,
        dependency: &str,
        uptime: SimDuration,
    ) -> Result<(), OrcaError> {
        for id in [dependent, dependency] {
            if !self.configs.contains_key(id) {
                return Err(OrcaError::UnknownConfig(id.to_string()));
            }
        }
        if dependent == dependency {
            return Err(OrcaError::DependencyCycle(format!(
                "{dependent} cannot depend on itself"
            )));
        }
        // Cycle iff `dependency` already (transitively) depends on
        // `dependent`.
        if self.depends_on(dependency, dependent) {
            return Err(OrcaError::DependencyCycle(format!(
                "{dependency} already depends on {dependent}"
            )));
        }
        self.edges.push(Edge {
            dependent: dependent.to_string(),
            dependency: dependency.to_string(),
            uptime,
        });
        Ok(())
    }

    /// Is there a (transitive) dependency path from `from` to `to`?
    fn depends_on(&self, from: &str, to: &str) -> bool {
        let mut stack = vec![from];
        let mut seen = BTreeSet::new();
        while let Some(node) = stack.pop() {
            if node == to {
                return true;
            }
            if !seen.insert(node) {
                continue;
            }
            for e in &self.edges {
                if e.dependent == node {
                    stack.push(&e.dependency);
                }
            }
        }
        false
    }

    /// Direct dependencies of a config: `(dependency id, uptime)`.
    fn dependencies_of(&self, id: &str) -> Vec<(&str, SimDuration)> {
        self.edges
            .iter()
            .filter(|e| e.dependent == id)
            .map(|e| (e.dependency.as_str(), e.uptime))
            .collect()
    }

    /// `id` and everything it (transitively) depends on.
    fn upstream_closure(&self, id: &str) -> BTreeSet<String> {
        let mut closure = BTreeSet::new();
        let mut stack = vec![id.to_string()];
        while let Some(node) = stack.pop() {
            if !closure.insert(node.clone()) {
                continue;
            }
            for (dep, _) in self.dependencies_of(&node) {
                stack.push(dep.to_string());
            }
        }
        closure
    }

    /// Direct dependents of a config.
    fn dependents_of(&self, id: &str) -> Vec<&str> {
        self.edges
            .iter()
            .filter(|e| e.dependency == id)
            .map(|e| e.dependent.as_str())
            .collect()
    }

    // ---- start requests --------------------------------------------------

    /// Plans the submissions needed to start `id` at `now`. The plan covers
    /// `id` and all of its transitive dependencies that are not yet running,
    /// each with an absolute due time honouring every uptime requirement
    /// along the way. Side effects: the plan entries are queued as pending
    /// submissions, the target is marked explicitly-submitted, and every
    /// reused application is pulled back off the GC queue.
    pub fn request_start(
        &mut self,
        id: &str,
        now: SimTime,
    ) -> Result<Vec<(SimTime, String)>, OrcaError> {
        if !self.configs.contains_key(id) {
            return Err(OrcaError::UnknownConfig(id.to_string()));
        }
        if self.running.contains_key(id) {
            return Err(OrcaError::AlreadyRunning(id.to_string()));
        }

        // Snapshot: the closure of `id` over dependency edges.
        let needed = self.upstream_closure(id);

        // Resurrection: reusing an app enqueued for cancellation removes it
        // from the queue, avoiding an unnecessary restart.
        self.cancel_queue.retain(|(_, c)| !needed.contains(c));

        // Compute due times in topological order (the needed set is acyclic
        // by construction).
        let mut due: BTreeMap<String, SimTime> = BTreeMap::new();
        for c in &needed {
            if let Some(&t) = self.submit_times.get(c) {
                due.insert(c.clone(), t); // already running
            }
        }
        while due.len() < needed.len() {
            let mut progressed = false;
            for c in &needed {
                if due.contains_key(c) {
                    continue;
                }
                let deps = self.dependencies_of(c);
                if deps.iter().any(|(d, _)| !due.contains_key(*d)) {
                    continue;
                }
                let mut t = now;
                for (d, uptime) in deps {
                    let dep_start = due[d];
                    t = t.max(dep_start + uptime);
                }
                due.insert(c.clone(), t);
                progressed = true;
            }
            assert!(progressed, "dependency graph must be acyclic");
        }

        self.explicit.insert(id.to_string());

        let mut plan: Vec<(SimTime, String)> = due
            .into_iter()
            .filter(|(c, _)| {
                !self.running.contains_key(c)
                    && !self.pending_submissions.iter().any(|(_, p)| p == c)
            })
            .map(|(c, t)| (t, c))
            .collect();
        self.sort_submissions(&mut plan);
        let mut pending = std::mem::take(&mut self.pending_submissions);
        pending.extend(plan.iter().cloned());
        self.sort_submissions(&mut pending);
        self.pending_submissions = pending;
        Ok(plan)
    }

    /// Orders submissions by due time, then by [`Self::rank`], then by id:
    /// an uptime of zero makes a dependent due in the same instant as its
    /// dependency, and the dependency still goes first.
    fn sort_submissions(&self, submissions: &mut [(SimTime, String)]) {
        submissions.sort_by_cached_key(|(t, c)| (*t, self.rank(c), c.clone()));
    }

    /// Topological rank: 0 for a config that depends on nothing, else one
    /// more than its highest-ranked dependency.
    fn rank(&self, id: &str) -> usize {
        self.dependencies_of(id)
            .into_iter()
            .map(|(d, _)| 1 + self.rank(d))
            .max()
            .unwrap_or(0)
    }

    /// Pops the next submission whose due time has arrived. One at a time,
    /// so that when the caller fails it, [`Self::abandon_dependents_of`]
    /// still finds the dependents that came due with it — an uptime of zero
    /// makes a dependent due in the same instant as its dependency.
    pub fn next_due_submission(&mut self, now: SimTime) -> Option<String> {
        let (due, _) = self.pending_submissions.first()?;
        (*due <= now).then(|| self.pending_submissions.remove(0).1)
    }

    /// Pops every submission whose due time has arrived.
    pub fn due_submissions(&mut self, now: SimTime) -> Vec<String> {
        std::iter::from_fn(|| self.next_due_submission(now)).collect()
    }

    /// Records a successful submission.
    pub fn mark_submitted(&mut self, id: &str, job: JobId, at: SimTime) {
        self.running.insert(id.to_string(), job);
        self.submit_times.insert(id.to_string(), at);
    }

    /// Drops pending submissions that (transitively) depend on a config
    /// whose submission failed.
    pub fn abandon_dependents_of(&mut self, failed: &str) -> Vec<String> {
        let pending = std::mem::take(&mut self.pending_submissions);
        let (abandoned, kept): (Vec<_>, Vec<_>) = pending
            .into_iter()
            .partition(|(_, c)| c == failed || self.depends_on(c, failed));
        self.pending_submissions = kept;
        abandoned.into_iter().map(|(_, c)| c).collect()
    }

    // ---- cancellation ------------------------------------------------------

    /// Requests cancellation of a running config. Refuses when running
    /// dependents would starve. On success, returns the plan: the target is
    /// cancelled immediately and now-unused upstream apps are queued for GC
    /// after their timeouts.
    pub fn request_cancel(&mut self, id: &str, now: SimTime) -> Result<CancelPlan, OrcaError> {
        if !self.configs.contains_key(id) {
            return Err(OrcaError::UnknownConfig(id.to_string()));
        }
        if !self.running.contains_key(id) {
            return Err(OrcaError::NotRunning(id.to_string()));
        }
        // Starvation check: a running dependent feeds on this app.
        let hungry: Vec<&str> = self
            .dependents_of(id)
            .into_iter()
            .filter(|d| self.running.contains_key(*d))
            .collect();
        if !hungry.is_empty() {
            return Err(OrcaError::WouldStarve(format!(
                "'{id}' feeds running application(s): {}",
                hungry.join(", ")
            )));
        }

        // The target goes down immediately.
        self.mark_cancelled(id);

        // Fixpoint GC sweep over upstream apps: an app is collectable when
        // it is running, garbage collectable, not explicitly submitted, and
        // no running app outside the doomed set depends on it. Every doomed
        // app feeds `id`, so "feeds the doomed set" is "`id` transitively
        // depends on it": the candidates are `id`'s upstream closure,
        // computed once.
        let upstream = self.upstream_closure(id);
        let mut doomed = BTreeSet::from([id.to_string()]);
        loop {
            let before = doomed.len();
            for c in &upstream {
                if doomed.contains(c)
                    || !self.running.contains_key(c)
                    || !self.configs[c].garbage_collectable
                    || self.explicit.contains(c)
                {
                    continue;
                }
                let used_elsewhere = self
                    .dependents_of(c)
                    .into_iter()
                    .any(|d| self.running.contains_key(d) && !doomed.contains(d));
                if !used_elsewhere {
                    doomed.insert(c.clone());
                }
            }
            if doomed.len() == before {
                break;
            }
        }

        let mut queued: Vec<CancelEntry> = doomed
            .iter()
            .filter(|c| c.as_str() != id)
            .map(|c| (now + self.configs[c].gc_timeout, c.clone()))
            .collect();
        queued.sort_by(|a, b| a.0.cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
        self.cancel_queue.extend(queued.iter().cloned());
        self.cancel_queue
            .sort_by(|a, b| a.0.cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
        Ok(CancelPlan {
            immediate: id.to_string(),
            queued,
        })
    }

    /// Pops GC cancellations whose timeout has expired, re-validating that
    /// each is still unused (a dependent may have started meanwhile).
    pub fn due_cancellations(&mut self, now: SimTime) -> Vec<String> {
        let mut out = Vec::new();
        while let Some((t, _)) = self.cancel_queue.first() {
            if *t > now {
                break;
            }
            let (_, c) = self.cancel_queue.remove(0);
            if !self.running.contains_key(&c) {
                continue; // already gone
            }
            let used = self
                .dependents_of(&c)
                .into_iter()
                .any(|d| self.running.contains_key(d));
            if used {
                continue; // resurrected by a dependent
            }
            out.push(c);
        }
        out
    }

    /// Records that a config's job is gone.
    pub fn mark_cancelled(&mut self, id: &str) {
        self.running.remove(id);
        self.submit_times.remove(id);
        self.explicit.remove(id);
    }

    // ---- introspection ----------------------------------------------------

    pub fn job_of(&self, id: &str) -> Option<JobId> {
        self.running.get(id).copied()
    }

    pub fn config_of_job(&self, job: JobId) -> Option<&str> {
        self.running
            .iter()
            .find(|(_, &j)| j == job)
            .map(|(c, _)| c.as_str())
    }

    pub fn running_configs(&self) -> Vec<&str> {
        self.running.keys().map(String::as_str).collect()
    }

    pub fn pending_submission_count(&self) -> usize {
        self.pending_submissions.len()
    }

    pub fn cancel_queue_len(&self) -> usize {
        self.cancel_queue.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn secs(s: u64) -> SimDuration {
        SimDuration::from_secs(s)
    }

    fn at(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    /// The paper's Figure 7 graph: sn depends on fb and tw (uptime 20);
    /// all depends on fb, tw, fox and msnbc (uptime 80). fox is not
    /// garbage-collectable; everything else is.
    fn figure7() -> DependencyManager {
        let mut m = DependencyManager::new();
        for (id, gc) in [
            ("fb", true),
            ("tw", true),
            ("fox", false),
            ("msnbc", true),
            ("sn", true),
            ("all", true),
        ] {
            let mut cfg = AppConfig::new(id, id).gc_timeout(secs(5));
            if !gc {
                cfg = cfg.not_garbage_collectable();
            }
            m.register_config(cfg).unwrap();
        }
        for dep in ["fb", "tw"] {
            m.register_dependency("sn", dep, secs(20)).unwrap();
        }
        for dep in ["fb", "tw", "fox", "msnbc"] {
            m.register_dependency("all", dep, secs(80)).unwrap();
        }
        m
    }

    #[test]
    fn config_registration_rejects_duplicates() {
        let mut m = DependencyManager::new();
        m.register_config(AppConfig::new("a", "AppA")).unwrap();
        assert!(matches!(
            m.register_config(AppConfig::new("a", "AppA2")),
            Err(OrcaError::DuplicateConfig(_))
        ));
    }

    #[test]
    fn dependency_validation() {
        let mut m = DependencyManager::new();
        m.register_config(AppConfig::new("a", "A")).unwrap();
        m.register_config(AppConfig::new("b", "B")).unwrap();
        m.register_config(AppConfig::new("c", "C")).unwrap();
        assert!(matches!(
            m.register_dependency("a", "ghost", secs(0)),
            Err(OrcaError::UnknownConfig(_))
        ));
        assert!(matches!(
            m.register_dependency("a", "a", secs(0)),
            Err(OrcaError::DependencyCycle(_))
        ));
        m.register_dependency("a", "b", secs(0)).unwrap();
        m.register_dependency("b", "c", secs(0)).unwrap();
        // c → a would close the cycle a → b → c → a.
        assert!(matches!(
            m.register_dependency("c", "a", secs(0)),
            Err(OrcaError::DependencyCycle(_))
        ));
    }

    #[test]
    fn figure7_start_all_plans_roots_then_target() {
        let mut m = figure7();
        let plan = m.request_start("all", at(0)).unwrap();
        // sn is pruned: not needed by all.
        let names: Vec<&str> = plan.iter().map(|(_, c)| c.as_str()).collect();
        assert_eq!(names, vec!["fb", "fox", "msnbc", "tw", "all"]);
        // Roots due immediately; all due 80 s later (the paper's "the thread
        // sleeps for 80 seconds before submitting all").
        for (t, c) in &plan {
            if c == "all" {
                assert_eq!(*t, at(80));
            } else {
                assert_eq!(*t, at(0));
            }
        }
    }

    #[test]
    fn figure7_sn_before_all_when_both_requested() {
        let mut m = figure7();
        m.request_start("all", at(0)).unwrap();
        m.request_start("sn", at(0)).unwrap();
        // Simulate the roots being submitted now.
        for c in m.due_submissions(at(0)) {
            let job = JobId(c.len() as u64); // arbitrary distinct ids
            m.mark_submitted(&c, job, at(0));
        }
        // sn due at 20, all due at 80 — sn submits first (paper: "sn would
        // be submitted first because its required sleeping time (20) is
        // lower than all's (80)").
        assert!(m.due_submissions(at(19)).is_empty());
        assert_eq!(m.due_submissions(at(20)), vec!["sn".to_string()]);
        assert!(m.due_submissions(at(79)).is_empty());
        assert_eq!(m.due_submissions(at(80)), vec!["all".to_string()]);
    }

    #[test]
    fn chained_uptimes_accumulate() {
        let mut m = DependencyManager::new();
        for id in ["a", "b", "c"] {
            m.register_config(AppConfig::new(id, id)).unwrap();
        }
        // c depends on b (uptime 10); b depends on a (uptime 5).
        m.register_dependency("b", "a", secs(5)).unwrap();
        m.register_dependency("c", "b", secs(10)).unwrap();
        let plan = m.request_start("c", at(100)).unwrap();
        let due: BTreeMap<&str, SimTime> = plan.iter().map(|(t, c)| (c.as_str(), *t)).collect();
        assert_eq!(due["a"], at(100));
        assert_eq!(due["b"], at(105));
        assert_eq!(due["c"], at(115));
    }

    #[test]
    fn same_instant_submissions_follow_dependencies_not_names() {
        let mut m = DependencyManager::new();
        for id in ["a", "m", "z"] {
            m.register_config(AppConfig::new(id, id)).unwrap();
        }
        // a → m → z, every uptime zero: all three come due at once, and
        // the names sort the other way round.
        m.register_dependency("a", "m", secs(0)).unwrap();
        m.register_dependency("m", "z", secs(0)).unwrap();
        let plan = m.request_start("a", at(0)).unwrap();
        let names: Vec<&str> = plan.iter().map(|(_, c)| c.as_str()).collect();
        assert_eq!(names, vec!["z", "m", "a"]);
        assert_eq!(m.due_submissions(at(0)), vec!["z", "m", "a"]);
    }

    #[test]
    fn running_dependencies_count_from_their_submit_time() {
        let mut m = figure7();
        // fb/tw already running for a long time.
        m.mark_submitted("fb", JobId(1), at(0));
        m.mark_submitted("tw", JobId(2), at(0));
        let plan = m.request_start("sn", at(1000)).unwrap();
        // Uptime requirement long satisfied → sn due immediately.
        assert_eq!(plan, vec![(at(1000), "sn".to_string())]);
    }

    #[test]
    fn start_rejects_running_or_unknown() {
        let mut m = figure7();
        m.mark_submitted("fb", JobId(1), at(0));
        assert!(matches!(
            m.request_start("fb", at(1)),
            Err(OrcaError::AlreadyRunning(_))
        ));
        assert!(matches!(
            m.request_start("nope", at(1)),
            Err(OrcaError::UnknownConfig(_))
        ));
    }

    fn run_figure7_fully(m: &mut DependencyManager) {
        // Bring up the whole graph: all + sn.
        m.request_start("all", at(0)).unwrap();
        m.request_start("sn", at(0)).unwrap();
        let mut job = 0;
        for t in 0..=80 {
            for c in m.due_submissions(at(t)) {
                job += 1;
                m.mark_submitted(&c, JobId(job), at(t));
            }
        }
        assert_eq!(m.running_configs().len(), 6);
    }

    #[test]
    fn cancel_refuses_to_starve() {
        let mut m = figure7();
        run_figure7_fully(&mut m);
        // fb feeds running sn and all.
        assert!(matches!(
            m.request_cancel("fb", at(100)),
            Err(OrcaError::WouldStarve(_))
        ));
    }

    #[test]
    fn cancel_all_gcs_unused_feeders_respecting_flags() {
        let mut m = figure7();
        run_figure7_fully(&mut m);
        // Cancel sn first (no dependents).
        let plan = m.request_cancel("sn", at(100)).unwrap();
        assert_eq!(plan.immediate, "sn");
        // fb/tw still feed `all` → not queued.
        assert!(plan.queued.is_empty());

        // Now cancel all: fb, tw, msnbc become unused and GC-able; fox is
        // not garbage collectable.
        let plan = m.request_cancel("all", at(200)).unwrap();
        assert_eq!(plan.immediate, "all");
        let queued: Vec<&str> = plan.queued.iter().map(|(_, c)| c.as_str()).collect();
        assert_eq!(queued, vec!["fb", "msnbc", "tw"]);
        assert!(plan.queued.iter().all(|(t, _)| *t == at(205)));
        // fox survives.
        assert!(m.running_configs().contains(&"fox"));
    }

    #[test]
    fn explicitly_submitted_apps_survive_gc() {
        let mut m = figure7();
        // fb explicitly started by the logic.
        m.request_start("fb", at(0)).unwrap();
        for c in m.due_submissions(at(0)) {
            m.mark_submitted(&c, JobId(1), at(0));
        }
        // Then all starts (reusing fb).
        m.request_start("all", at(10)).unwrap();
        let mut job = 10;
        for t in 10..=95 {
            for c in m.due_submissions(at(t)) {
                job += 1;
                m.mark_submitted(&c, JobId(job), at(t));
            }
        }
        let plan = m.request_cancel("all", at(200)).unwrap();
        let queued: Vec<&str> = plan.queued.iter().map(|(_, c)| c.as_str()).collect();
        // fb exempt (explicit), fox exempt (not GC-able).
        assert_eq!(queued, vec!["msnbc", "tw"]);
    }

    #[test]
    fn gc_queue_fires_after_timeout_and_revalidates() {
        let mut m = figure7();
        run_figure7_fully(&mut m);
        m.request_cancel("sn", at(100)).unwrap();
        let plan = m.request_cancel("all", at(100)).unwrap();
        assert_eq!(plan.queued.len(), 3);
        assert_eq!(m.cancel_queue_len(), 3);
        // Not due yet.
        assert!(m.due_cancellations(at(104)).is_empty());
        // Due at 105 (gc_timeout = 5 s).
        let due = m.due_cancellations(at(105));
        assert_eq!(due, vec!["fb", "msnbc", "tw"]);
        for c in &due {
            m.mark_cancelled(c);
        }
        assert_eq!(m.running_configs(), vec!["fox"]);
    }

    #[test]
    fn resurrection_removes_from_cancel_queue() {
        let mut m = figure7();
        run_figure7_fully(&mut m);
        m.request_cancel("sn", at(100)).unwrap();
        m.request_cancel("all", at(100)).unwrap();
        assert_eq!(m.cancel_queue_len(), 3);
        // Re-request sn before the GC timeout: fb/tw are reused and must be
        // pulled off the queue ("immediately removed from the cancellation
        // queue, avoiding an unnecessary application restart").
        let plan = m.request_start("sn", at(102)).unwrap();
        // fb and tw are still running → only sn itself needs submission, and
        // its uptime requirements are long satisfied.
        assert_eq!(plan, vec![(at(102), "sn".to_string())]);
        assert_eq!(m.cancel_queue_len(), 1); // only msnbc remains
        let due = m.due_cancellations(at(105));
        assert_eq!(due, vec!["msnbc"]);
    }

    #[test]
    fn cancel_rejects_not_running_or_unknown() {
        let mut m = figure7();
        assert!(matches!(
            m.request_cancel("fb", at(0)),
            Err(OrcaError::NotRunning(_))
        ));
        assert!(matches!(
            m.request_cancel("ghost", at(0)),
            Err(OrcaError::UnknownConfig(_))
        ));
    }

    #[test]
    fn abandon_dependents_after_failed_submission() {
        let mut m = figure7();
        m.request_start("all", at(0)).unwrap();
        assert_eq!(m.pending_submission_count(), 5);
        // fox fails to submit: all (which depends on fox) is abandoned.
        let abandoned = m.abandon_dependents_of("fox");
        assert!(abandoned.contains(&"all".to_string()));
        assert!(abandoned.contains(&"fox".to_string()));
        // fb/tw/msnbc remain pending.
        assert_eq!(m.pending_submission_count(), 3);
    }

    #[test]
    fn job_config_mapping() {
        let mut m = figure7();
        m.mark_submitted("fb", JobId(42), at(0));
        assert_eq!(m.job_of("fb"), Some(JobId(42)));
        assert_eq!(m.config_of_job(JobId(42)), Some("fb"));
        assert_eq!(m.job_of("tw"), None);
        assert_eq!(m.config_of_job(JobId(1)), None);
    }

    #[test]
    fn duplicate_start_requests_do_not_duplicate_pending() {
        let mut m = figure7();
        m.request_start("all", at(0)).unwrap();
        let n = m.pending_submission_count();
        // A second overlapping request (sn shares fb/tw) only adds sn.
        m.request_start("sn", at(0)).unwrap();
        assert_eq!(m.pending_submission_count(), n + 1);
    }

    #[test]
    fn app_config_builder() {
        let cfg = AppConfig::new("c1", "App")
            .param("attribute", "gender")
            .not_garbage_collectable()
            .gc_timeout(secs(30))
            .exclusive_hosts();
        assert_eq!(cfg.params["attribute"], Value::Str("gender".into()));
        assert!(!cfg.garbage_collectable);
        assert_eq!(cfg.gc_timeout, secs(30));
        assert!(cfg.exclusive_hosts);
    }
}
