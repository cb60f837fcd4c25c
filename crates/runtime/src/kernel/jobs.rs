//! SAM's job lifecycle (§2.2): submission with placement-constraint
//! resolution, process spawning, cancellation.

use super::Kernel;
use crate::{JobId, JobInfo, JobStatus, OrcaId, PeId, PeProcess, PeStatus, RuntimeError};
use sps_engine::{EngineError, PeRuntime};
use sps_model::adl::{Adl, AdlOperator, AdlPe};
use sps_model::logical::HostPool;
use sps_sim::SimTime;
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

/// Whether every operator fused into a PE slot satisfies `opted_in` — the
/// rule by which a PE is `restartable` or `checkpointable` only if all of
/// its operators are.
pub(super) fn fused_all(adl: &Adl, pe: usize, opted_in: fn(&AdlOperator) -> bool) -> bool {
    adl.operators.iter().filter(|o| o.pe == pe).all(opted_in)
}

/// The host pool a PE must be placed in (`None` = the default pool).
pub(super) fn host_pool_of<'a>(adl: &'a Adl, pe_def: &AdlPe) -> Option<&'a HostPool> {
    let name = pe_def.host_pool.as_ref()?;
    adl.host_pools.iter().find(|p| &p.name == name)
}

impl Kernel {
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
        let pe_ids = self.place_and_spawn(job, &adl)?;

        let exports = adl
            .exports
            .iter()
            .map(|e| (e.op.clone(), e.port, e.spec.clone()));
        let imports = adl.imports.iter().map(|i| (i.op.clone(), i.spec.clone()));
        self.broker
            .register_job(job, &adl.app_name, exports, imports);

        self.note(
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
            adl: Rc::new(adl),
            pe_ids,
            status: JobStatus::Running,
            submitted_at: self.now,
            owner,
        });
        Ok(job)
    }

    /// Places and spawns every PE of a submission, in ADL order, and
    /// returns their ids — or, when some PE fits nowhere, rolls back what
    /// was placed and reserved so far.
    fn place_and_spawn(&mut self, job: JobId, adl: &Adl) -> Result<Vec<PeId>, RuntimeError> {
        let mut pe_ids = Vec::with_capacity(adl.pes.len());
        let mut reserved: Vec<String> = Vec::new();
        // host-exlocate tag → hosts already used within this submission.
        let mut exlocate_used: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();

        for pe_def in &adl.pes {
            let pool = host_pool_of(adl, pe_def);
            let excluded: &BTreeSet<String> = pe_def
                .host_exlocate
                .as_ref()
                .and_then(|tag| exlocate_used.get(tag))
                .unwrap_or(const { &BTreeSet::new() });

            let Some(host) = self.pick_host(job, pool, excluded) else {
                for pe in &pe_ids {
                    self.cluster.remove_process(*pe);
                }
                for host in &reserved {
                    self.sam.unreserve_host(host);
                }
                return Err(RuntimeError::PlacementFailed(format!(
                    "no host satisfies constraints of PE {} of {} (pool={:?})",
                    pe_def.index, adl.app_name, pe_def.host_pool
                )));
            };

            let pe_id = self.sam.alloc_pe_id();
            let runtime =
                PeRuntime::build(adl, pe_def.index, &self.registry, self.rng.fork(pe_id.0))?;
            let up_now = (PeStatus::Up, self.now);
            self.spawn(&host, pe_id, (job, adl, pe_def.index), runtime, up_now);
            if pool.is_some_and(|p| p.exclusive) && self.sam.host_reservation(&host) != Some(job) {
                // Reserve eagerly so later PEs of this submission pack onto
                // the same hosts.
                self.sam.reserve_host(&host, job);
                reserved.push(host.clone());
            }
            if let Some(tag) = &pe_def.host_exlocate {
                exlocate_used.entry(tag.clone()).or_default().insert(host);
            }
            pe_ids.push(pe_id);
        }
        Ok(pe_ids)
    }

    /// The host controller of `host` starts a process for a PE slot: `Up`
    /// at once for a submission (`up_at` = now), `Starting` until `up_at`
    /// for a restart.
    pub(super) fn spawn(
        &mut self,
        host: &str,
        pe_id: PeId,
        (job, adl, adl_index): (JobId, &Adl, usize),
        runtime: PeRuntime,
        (status, up_at): (PeStatus, SimTime),
    ) {
        let proc = PeProcess {
            pe_id,
            job,
            adl_index,
            checkpointable: fused_all(adl, adl_index, |o| o.checkpointable),
            status,
            up_at,
            runtime,
        };
        self.cluster.insert(host, proc);
    }

    /// Chooses the least-loaded eligible host for a PE.
    ///
    /// Exclusive pools *pack*: once a job has reserved hosts, later PEs of
    /// the same job prefer those hosts, keeping the exclusive footprint (and
    /// the number of hosts denied to other jobs) minimal — so e.g. three
    /// exclusive replicas fit a three-host cluster (§5.2).
    pub(super) fn pick_host(
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
                .iter()
                .filter(|h| {
                    h.up && !excluded.contains(&h.name)
                        && self.sam.host_reservation(&h.name) == Some(job)
                })
                .map(|h| (h.live_processes().count(), h.name.as_str()))
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
                    host.tags.iter().any(|t| t == tag)
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
            if pool.is_some_and(|p| p.exclusive) && host.processes().iter().any(|p| p.job != job) {
                continue;
            }
            let load = host.live_processes().count();
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
        }
        self.broker.unregister_job(job);
        self.srm.forget_job(job);
        self.ckpt.forget_job(job);
        self.transport.forget_job(job, &info.pe_ids);
        self.note("sam", format!("job {job} ({}) cancelled", info.app_name));
        Ok(())
    }
}
