//! Controllers that drive a [`FaultPlan`] into a running [`World`].
//!
//! [`FaultInjector`] resolves symbolic plan actions against the live system
//! each quantum and injects them through the kernel's fault surface
//! ([`Kernel::schedule_kill`] / [`KillTarget`], `revive_host`). [`Janitor`]
//! is a baseline recovery policy for scenarios whose ORCA logic does not
//! handle PE failures itself: it restarts every crashed PE it can, retrying
//! while hosts are down.

use crate::plan::{FaultAction, FaultEvent, FaultPlan};
use sps_runtime::{Controller, Kernel, KillTarget, PeId, PeStatus};
use std::any::Any;

/// Replays a [`FaultPlan`], resolving slots at fire time.
pub struct FaultInjector {
    /// Plan events, time-ordered; `next` advances through them so
    /// same-instant events fire in plan order.
    events: Vec<FaultEvent>,
    next: usize,
    /// Human-readable record of what each event resolved to.
    pub fired: Vec<String>,
}

impl FaultInjector {
    pub fn new(plan: FaultPlan) -> Self {
        FaultInjector {
            events: plan.events,
            next: 0,
            fired: Vec::new(),
        }
    }

    /// True once every plan event has been injected.
    pub fn done(&self) -> bool {
        self.next >= self.events.len()
    }

    fn fire(&mut self, kernel: &mut Kernel, event: FaultEvent) {
        let now = kernel.now();
        match event.action {
            FaultAction::KillPe { job_slot, pe_slot } => {
                let jobs = kernel.sam.running_jobs();
                if jobs.is_empty() {
                    self.fired
                        .push(format!("[{now}] {} -> no jobs", event.action));
                    return;
                }
                let job = jobs[job_slot as usize % jobs.len()];
                let pe_ids = &kernel.sam.job(job).expect("running job").pe_ids;
                let pe = pe_ids[pe_slot as usize % pe_ids.len()];
                // Only live processes can be killed; a slot resolving to an
                // already-crashed PE is a no-op (the plan stays replayable
                // even when earlier faults changed the population).
                if matches!(
                    kernel.pe_status(pe),
                    Some(PeStatus::Up | PeStatus::Starting)
                ) {
                    kernel.schedule_kill(now, KillTarget::Pe(pe));
                    self.fired.push(format!("[{now}] {} -> {pe}", event.action));
                } else {
                    self.fired
                        .push(format!("[{now}] {} -> {pe} not live", event.action));
                }
            }
            FaultAction::KillHost { host_slot } => {
                let hosts = kernel.cluster.hosts();
                let host = &hosts[host_slot as usize % hosts.len()];
                let (name, up) = (host.name.clone(), host.up);
                if up {
                    kernel.schedule_kill(now, KillTarget::Host(name.clone()));
                    self.fired
                        .push(format!("[{now}] {} -> {name}", event.action));
                } else {
                    self.fired
                        .push(format!("[{now}] {} -> {name} already down", event.action));
                }
            }
            FaultAction::ReviveHost { host_slot } => {
                let hosts = kernel.cluster.hosts();
                let host = &hosts[host_slot as usize % hosts.len()];
                let (name, up) = (host.name.clone(), host.up);
                if !up {
                    let _ = kernel.revive_host(&name);
                    self.fired
                        .push(format!("[{now}] {} -> {name}", event.action));
                } else {
                    self.fired
                        .push(format!("[{now}] {} -> {name} already up", event.action));
                }
            }
            FaultAction::CrashOrchestrator => {
                // Every registered orchestrator loses its process; unmanaged
                // scenarios (no orca) record the no-op so the plan replay
                // trace stays complete.
                let orcas = kernel.sam.orchestrators();
                if orcas.is_empty() {
                    self.fired
                        .push(format!("[{now}] {} -> no orchestrator", event.action));
                    return;
                }
                for orca in orcas {
                    if kernel.crash_orchestrator(orca) {
                        self.fired
                            .push(format!("[{now}] {} -> {orca}", event.action));
                    } else {
                        self.fired
                            .push(format!("[{now}] {} -> {orca} already down", event.action));
                    }
                }
            }
            FaultAction::RestartSam => {
                if kernel.restart_sam() {
                    self.fired.push(format!("[{now}] {}", event.action));
                } else {
                    self.fired
                        .push(format!("[{now}] {} -> already restarting", event.action));
                }
            }
            FaultAction::PartitionSamHc { duration_ms } => {
                kernel.partition_sam_hc(sps_sim::SimDuration::from_millis(duration_ms as u64));
                self.fired.push(format!("[{now}] {}", event.action));
            }
        }
    }
}

impl Controller for FaultInjector {
    fn on_quantum(&mut self, kernel: &mut Kernel) {
        while self
            .events
            .get(self.next)
            .is_some_and(|e| e.at <= kernel.now())
        {
            let event = self.events[self.next];
            self.next += 1;
            self.fire(kernel, event);
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Baseline self-healing: restart every crashed PE, every quantum, until it
/// sticks. Used by scenarios whose orchestrator logic adapts to metrics
/// rather than failures (sentiment, social) and by unmanaged apps (live).
#[derive(Default)]
pub struct Janitor {
    /// (old, new) PE ids of successful restarts.
    pub restarts: Vec<(PeId, PeId)>,
    /// Restart attempts that failed (e.g. no host up); retried next quantum.
    pub deferred: u64,
}

impl Controller for Janitor {
    fn on_quantum(&mut self, kernel: &mut Kernel) {
        // A quiet quantum — nearly all of them — costs one counter read.
        if kernel.cluster.count(PeStatus::Crashed) == 0 {
            return;
        }
        // Job × PE order: restart order assigns the new PE ids, and those
        // are in the trace.
        let mut crashed: Vec<PeId> = Vec::new();
        for job in kernel.sam.running() {
            let Some(info) = kernel.sam.job(job) else {
                continue;
            };
            for &pe in &info.pe_ids {
                if kernel.pe_status(pe) == Some(PeStatus::Crashed) {
                    crashed.push(pe);
                }
            }
        }
        for pe in crashed {
            match kernel.restart_pe(pe) {
                Ok(new_pe) => self.restarts.push((pe, new_pe)),
                Err(_) => self.deferred += 1,
            }
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}
