//! PE and host failures: the fault-injection surface (kill, stop, scheduled
//! kills, host down/up) and the one path by which a crash — injected,
//! declared, or an operator fault — reaches SRM, the crash log and the
//! owning orchestrator.

use super::Kernel;
use crate::{CrashReason, JobId, OrcaNotification, PeId, PeStatus, RuntimeError};
use sps_sim::SimTime;

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

impl Kernel {
    /// Stops a PE without removing it (it can be restarted later).
    pub fn stop_pe(&mut self, pe: PeId) -> Result<(), RuntimeError> {
        let proc = self
            .cluster
            .process(pe)
            .ok_or(RuntimeError::UnknownPe(pe))?;
        if proc.status != PeStatus::Up {
            return Err(RuntimeError::BadPeState(pe, "up"));
        }
        self.cluster.set_status(pe, PeStatus::Stopped);
        self.note("sam", format!("PE {pe} stopped"));
        Ok(())
    }

    /// Kills a PE process (fault injection / external crash). A `Starting`
    /// process can crash just like an `Up` one — mid-spawn is exactly when
    /// kill-during-restart faults land.
    pub fn kill_pe(&mut self, pe: PeId) -> Result<(), RuntimeError> {
        let proc = self
            .cluster
            .process(pe)
            .ok_or(RuntimeError::UnknownPe(pe))?;
        if !matches!(proc.status, PeStatus::Up | PeStatus::Starting) {
            return Err(RuntimeError::BadPeState(pe, "up or starting"));
        }
        self.cluster.set_status(pe, PeStatus::Crashed);
        self.note("hc", format!("PE {pe} killed"));
        self.notify_pe_failure(pe, CrashReason::Killed);
        Ok(())
    }

    /// Takes a host down: all its live PEs crash with `HostFailure`.
    pub fn kill_host(&mut self, host_name: &str) -> Result<(), RuntimeError> {
        let host = self
            .cluster
            .set_up(host_name, false)
            .ok_or_else(|| RuntimeError::Invalid(format!("unknown host {host_name}")))?;
        let victims = self.cluster.crash_host(host_name);
        self.srm.set_host_status(host_name, false);
        // A down host sends no heartbeats; forget its last one so the
        // liveness deadline never "detects" a failure SAM already handled.
        self.sam.clear_heartbeat(host);
        self.note(
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
            .set_up(host_name, true)
            .ok_or_else(|| RuntimeError::Invalid(format!("unknown host {host_name}")))?;
        self.srm.set_host_status(host_name, true);
        // An immediate heartbeat: the revived host must get a full deadline
        // of grace even if a partition window is still open.
        self.sam.record_heartbeats([host], self.now);
        self.note("srm", format!("host {host_name} up"));
        Ok(())
    }

    /// Schedules a fault injection at an absolute simulation time.
    pub fn schedule_kill(&mut self, at: SimTime, target: KillTarget) {
        self.scheduled_kills.push_back((at, target));
        self.scheduled_kills
            .make_contiguous()
            .sort_by_key(|(t, _)| *t);
    }

    /// Fires every scheduled fault injection that has come due.
    pub(super) fn fire_scheduled_kills(&mut self) {
        while self
            .scheduled_kills
            .front()
            .is_some_and(|(t, _)| *t <= self.now)
        {
            let (_, target) = self.scheduled_kills.pop_front().expect("front is due");
            let result = match &target {
                KillTarget::Pe(pe) => self.kill_pe(*pe),
                KillTarget::Host(h) => self.kill_host(h),
            };
            if let Err(e) = result {
                self.note("faults", format!("scheduled kill failed: {e}"));
            }
        }
    }

    /// Crash notifications for the PEs an operator fault took down during
    /// this quantum's step (SRM detects, SAM routes to the orchestrator).
    pub(super) fn report_crashes(&mut self, crashes: Vec<(PeId, String)>) {
        for (pe, msg) in crashes {
            self.note("srm", format!("PE {pe} crashed: {msg}"));
            self.notify_pe_failure(pe, CrashReason::OperatorFault(msg));
        }
    }

    pub(super) fn notify_pe_failure(&mut self, pe: PeId, reason: CrashReason) {
        let lookup = self.sam.pe_lookup(pe);
        let owner = lookup.and_then(|(job, _)| self.sam.job(job).and_then(|j| j.owner));
        // A dead process pushes no more metrics; drop its stale SRM snapshot
        // so metric consumers only ever see live state — on every crash
        // path, `kill_host` cascades and never-restarted PEs included.
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
        // An unmanaged job has nobody to tell.
        if let (Some((job, adl_index)), Some(owner)) = (lookup, owner) {
            let note = OrcaNotification::PeFailure {
                job,
                pe,
                adl_index,
                reason,
                detected_at: self.now,
            };
            self.sam.push_notification(owner, note);
        }
    }
}
