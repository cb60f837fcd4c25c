//! SRM — Streams Resource Manager (§2.2).
//!
//! Maintains host availability, component liveness, and serves as the
//! collector for all metrics in the system: HCs push per-PE metric
//! snapshots every few seconds (3 s by default), and consumers — notably the
//! ORCA service — *pull* per-job snapshots on their own schedule. Pulling
//! from SRM never generates further calls to operators, which is why metric
//! polling stays off the application hot path (§3).

use crate::ids::{JobId, PeId};
use sps_engine::MetricKey;
use sps_sim::SimTime;
use std::collections::BTreeMap;
use std::fmt;
use std::rc::Rc;

/// Latest metric values collected for one job.
///
/// Keys are the owning `MetricStore`'s interned `Rc`s, so HC pushes and
/// per-job merges move refcounts around rather than cloning name strings.
#[derive(Clone, Debug, Default)]
pub struct MetricSnapshot {
    /// Time of the most recent HC push contributing to this snapshot.
    pub collected_at: SimTime,
    /// Per-PE metric vectors, merged.
    pub values: Vec<(Rc<MetricKey>, i64)>,
}

/// One PE's snapshot: collection time plus metric rows.
type PeSnapshot = (SimTime, Vec<(Rc<MetricKey>, i64)>);

/// One job's merged snapshot read in place: what a [`MetricSnapshot`] holds,
/// without copying the per-PE vectors. Prints (`{:?}`) as the
/// `MetricSnapshot` it stands for.
#[derive(Clone, Copy)]
pub struct JobMetrics<'a>(&'a BTreeMap<PeId, PeSnapshot>);

impl<'a> JobMetrics<'a> {
    /// Time of the most recent HC push contributing to this job's rows.
    pub fn collected_at(self) -> SimTime {
        let pushes = self.0.values().map(|(at, _)| *at);
        pushes.max().unwrap_or_default()
    }

    /// Every metric row, PE by PE in `PeId` order.
    pub fn rows(self) -> impl Iterator<Item = &'a (Rc<MetricKey>, i64)> + Clone {
        self.0.values().flat_map(|(_, values)| values)
    }

    pub fn to_snapshot(self) -> MetricSnapshot {
        MetricSnapshot {
            collected_at: self.collected_at(),
            values: self.rows().cloned().collect(),
        }
    }
}

impl fmt::Debug for JobMetrics<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        struct Rows<'a>(JobMetrics<'a>);
        impl fmt::Debug for Rows<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.debug_list().entries(self.0.rows()).finish()
            }
        }
        f.debug_struct("MetricSnapshot")
            .field("collected_at", &self.collected_at())
            .field("values", &Rows(*self))
            .finish()
    }
}

/// The SRM daemon state.
#[derive(Default)]
pub struct Srm {
    /// host name → up?
    host_status: BTreeMap<String, bool>,
    /// job → (pe → snapshot at last push)
    metrics: BTreeMap<JobId, BTreeMap<PeId, PeSnapshot>>,
    /// Count of pushes received (observability).
    pushes: u64,
}

impl Srm {
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers or updates host liveness.
    pub fn set_host_status(&mut self, host: &str, up: bool) {
        self.host_status.insert(host.to_string(), up);
    }

    pub fn host_up(&self, host: &str) -> Option<bool> {
        self.host_status.get(host).copied()
    }

    /// An HC pushes the metric snapshot of one local PE.
    pub fn push_pe_metrics(
        &mut self,
        job: JobId,
        pe: PeId,
        at: SimTime,
        values: Vec<(Rc<MetricKey>, i64)>,
    ) {
        self.pushes += 1;
        self.metrics
            .entry(job)
            .or_default()
            .insert(pe, (at, values));
    }

    /// Total HC pushes received.
    pub fn pushes(&self) -> u64 {
        self.pushes
    }

    /// Drops all state for a cancelled job.
    pub fn forget_job(&mut self, job: JobId) {
        self.metrics.remove(&job);
    }

    /// Drops state for a single PE (e.g. after restart the old incarnation's
    /// metrics are replaced on the next push anyway; this is for removal).
    pub fn forget_pe(&mut self, job: JobId, pe: PeId) {
        if let Some(per_pe) = self.metrics.get_mut(&job) {
            per_pe.remove(&pe);
        }
    }

    /// The pull interface used by the ORCA service: merged snapshots for a
    /// set of jobs. "SRM's response contains all metrics associated with a
    /// set of jobs" (§4.2).
    pub fn query_jobs(&self, jobs: &[JobId]) -> BTreeMap<JobId, MetricSnapshot> {
        jobs.iter()
            .filter_map(|&job| Some((job, self.job_metrics(job)?.to_snapshot())))
            .collect()
    }

    /// One job's rows lent rather than copied (`None` until an HC has
    /// pushed for the job): the read [`Srm::query_jobs`] copies from.
    pub fn job_metrics(&self, job: JobId) -> Option<JobMetrics<'_>> {
        self.metrics.get(&job).map(JobMetrics)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(op: &str, m: &str) -> Rc<MetricKey> {
        Rc::new(MetricKey::Operator(op.into(), m.into()))
    }

    #[test]
    fn host_status_tracking() {
        let mut srm = Srm::new();
        srm.set_host_status("h1", true);
        srm.set_host_status("h2", true);
        srm.set_host_status("h1", false);
        assert_eq!(srm.host_up("h1"), Some(false));
        assert_eq!(srm.host_up("ghost"), None);
    }

    #[test]
    fn pushes_merge_per_job() {
        let mut srm = Srm::new();
        srm.push_pe_metrics(
            JobId(1),
            PeId(10),
            SimTime::from_secs(3),
            vec![(key("a", "m"), 5)],
        );
        srm.push_pe_metrics(
            JobId(1),
            PeId(11),
            SimTime::from_secs(4),
            vec![(key("b", "m"), 7)],
        );
        srm.push_pe_metrics(
            JobId(2),
            PeId(20),
            SimTime::from_secs(4),
            vec![(key("c", "m"), 9)],
        );
        let result = srm.query_jobs(&[JobId(1)]);
        let snap = &result[&JobId(1)];
        assert_eq!(snap.values.len(), 2);
        assert_eq!(snap.collected_at, SimTime::from_secs(4));
        assert!(!result.contains_key(&JobId(2)));
        assert_eq!(srm.pushes(), 3);
    }

    #[test]
    fn repeated_push_replaces_pe_values() {
        let mut srm = Srm::new();
        srm.push_pe_metrics(
            JobId(1),
            PeId(10),
            SimTime::from_secs(3),
            vec![(key("a", "m"), 5)],
        );
        srm.push_pe_metrics(
            JobId(1),
            PeId(10),
            SimTime::from_secs(6),
            vec![(key("a", "m"), 9)],
        );
        let result = srm.query_jobs(&[JobId(1)]);
        let snap = &result[&JobId(1)];
        assert_eq!(snap.values, vec![(key("a", "m"), 9)]);
        assert_eq!(snap.collected_at, SimTime::from_secs(6));
    }

    #[test]
    fn the_lent_view_is_the_snapshot() {
        let mut srm = Srm::new();
        let pe_key = Rc::new(MetricKey::Pe(1, "m".into()));
        let port_key = Rc::new(MetricKey::OperatorPort("b".into(), 2, "m".into()));
        srm.push_pe_metrics(
            JobId(1),
            PeId(11),
            SimTime::from_secs(3),
            vec![(pe_key, -7)],
        );
        srm.push_pe_metrics(
            JobId(1),
            PeId(10),
            SimTime::from_secs(4),
            vec![(key("a", "m"), 5), (port_key, 6)],
        );
        // The newest push dates it; rows come PE by PE in `PeId` order.
        let view = srm.job_metrics(JobId(1)).unwrap();
        assert_eq!(view.collected_at(), SimTime::from_secs(4));
        let values: Vec<i64> = view.rows().map(|(_, v)| *v).collect();
        assert_eq!(values, [5, 6, -7]);
        // It prints as the owned snapshot's derived `Debug` does.
        let snap = view.to_snapshot();
        assert_eq!(format!("{view:?}"), format!("{snap:?}"));
        assert_eq!(format!("{view:#?}"), format!("{snap:#?}"));
        assert!(srm.job_metrics(JobId(2)).is_none());
    }

    #[test]
    fn unknown_job_query_is_empty() {
        let srm = Srm::new();
        assert!(srm.query_jobs(&[JobId(9)]).is_empty());
    }

    #[test]
    fn forget_clears_state() {
        let mut srm = Srm::new();
        srm.push_pe_metrics(JobId(1), PeId(10), SimTime::ZERO, vec![(key("a", "m"), 1)]);
        srm.push_pe_metrics(JobId(1), PeId(11), SimTime::ZERO, vec![(key("b", "m"), 2)]);
        srm.forget_pe(JobId(1), PeId(10));
        assert_eq!(srm.query_jobs(&[JobId(1)])[&JobId(1)].values.len(), 1);
        srm.forget_job(JobId(1));
        assert!(srm.query_jobs(&[JobId(1)]).is_empty());
        // Forgetting unknown entities is a no-op.
        srm.forget_pe(JobId(5), PeId(50));
        srm.forget_job(JobId(5));
    }
}
