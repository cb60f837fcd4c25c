//! Control-plane faults (§3: the middleware itself is crashable) and the
//! heartbeat/liveness machinery they are judged by.
//!
//! [`ControlFaults`] owns the three open fault windows — crashed ORCA
//! services, a restarting SAM, a SAM/HC partition — and their counters; the
//! kernel's public fault methods delegate to it, and the first phase of
//! every quantum expires the windows, records heartbeats and declares
//! heartbeat-stale hosts dead.

use super::Kernel;
use crate::{CrashReason, OrcaId, Sam};
use sps_sim::{SimDuration, SimTime, TraceRing};
use std::collections::BTreeMap;

/// How long a crashed control-plane component (ORCA service, SAM) stays
/// down before its recovery completes.
const CONTROL_RESTART_DELAY: SimDuration = SimDuration::from_secs(2);

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

/// The open control-plane fault windows and what they have cost so far.
#[derive(Default)]
pub(super) struct ControlFaults {
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
    stats: ControlStats,
}

impl ControlFaults {
    /// Closes every window that `now` has reached: ORCA services resume
    /// next quantum with their durable notification backlog, SAM's
    /// metastore rebuilds (and verifies) its tables, the partition heals.
    fn expire(&mut self, now: SimTime, sam: &mut Sam, trace: &mut TraceRing) {
        while let Some((&orca, _)) = self.orca_down.iter().find(|(_, &until)| now >= until) {
            self.orca_down.remove(&orca);
            let backlog = sam.notifications_pending(orca) as u64;
            self.stats.orca_recoveries += 1;
            self.stats.notifications_replayed += backlog;
            trace.push(
                now,
                "faults",
                format!("orchestrator {orca} recovered, replaying {backlog} notifications"),
            );
        }
        if self.sam_down_until.is_some_and(|until| now >= until) {
            self.sam_down_until = None;
            let rec = sam.complete_restart();
            self.stats.sam_restarts += 1;
            self.stats.meta_ops_replayed += rec.ops_replayed;
            trace.push(
                now,
                "faults",
                format!("SAM recovered, {} metastore ops replayed", rec.ops_replayed),
            );
        }
        if self.hc_partition_until.is_some_and(|until| now >= until) {
            self.hc_partition_until = None;
            trace.push(now, "faults", "SAM/HC partition healed".to_string());
        }
    }
}

impl Kernel {
    /// Crashes a registered ORCA service: it skips its quanta until the
    /// recovery completes at `now +` [`CONTROL_RESTART_DELAY`]. SAM keeps
    /// queueing the service's notifications durably throughout; on recovery
    /// the backlog is replayed into the service's next pull. Returns false
    /// for an unknown orchestrator.
    pub fn crash_orchestrator(&mut self, orca: OrcaId) -> bool {
        if !self.sam.orchestrators().contains(&orca) {
            return false;
        }
        let until = self.now + CONTROL_RESTART_DELAY;
        self.control.orca_down.insert(orca, until);
        self.control.stats.orca_crashes += 1;
        self.note(
            "faults",
            format!("orchestrator {orca} crashed, recovery at {until}"),
        );
        true
    }

    /// Whether an ORCA service is inside a crash window (its controller
    /// must skip its quantum).
    pub fn orca_is_down(&self, orca: OrcaId) -> bool {
        self.control.orca_down.contains_key(&orca)
    }

    /// Restarts SAM: the daemon goes unavailable (drains return empty — the
    /// explicit Unavailable path) until `now +` [`CONTROL_RESTART_DELAY`], when
    /// the metastore recovers (replays its op log, digest-verified) and SAM
    /// serves again. Returns false if a restart window is already open.
    pub fn restart_sam(&mut self) -> bool {
        if self.control.sam_down_until.is_some() {
            return false;
        }
        let until = self.now + CONTROL_RESTART_DELAY;
        self.control.sam_down_until = Some(until);
        self.sam.begin_restart();
        self.note("faults", format!("SAM restarting, recovery at {until}"));
        true
    }

    /// Partitions SAM from the host controllers for `duration`: heartbeats
    /// stop arriving, and the liveness deadline starts running down against
    /// every host's last recorded heartbeat. Injected partitions are
    /// bounded below the deadline, so a correct SAM declares nobody dead.
    pub fn partition_sam_hc(&mut self, duration: SimDuration) {
        let until = self.now + duration;
        // Overlapping partitions extend, never shorten, the window.
        if self.control.hc_partition_until.is_none_or(|t| t < until) {
            self.control.hc_partition_until = Some(until);
        }
        self.control.stats.hc_partitions += 1;
        self.note("faults", format!("SAM/HC partition until {until}"));
    }

    pub fn control_stats(&self) -> ControlStats {
        self.control.stats
    }

    /// SAM's failure-detection verdict on a heartbeat-stale host: crash its
    /// PEs with `HostFailure`. The host process itself keeps running (it is
    /// merely unreachable), which is exactly why a declaration before the
    /// deadline is a *false* one — counted, and required zero by the
    /// control-plane oracle.
    fn declare_host_dead(&mut self, host: usize) {
        self.sam.clear_heartbeat(host);
        let host_name = self.cluster.hosts()[host].name.clone();
        let victims = self.cluster.crash_host(&host_name);
        self.control.stats.false_declarations += 1;
        self.note(
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
    pub(super) fn control_plane_quantum(&mut self) {
        self.control
            .expire(self.now, &mut self.sam, &mut self.trace);

        // Heartbeats: every up host's controller pings SAM each quantum,
        // unless the partition swallows them. A host is known to SAM by its
        // position in the cluster's name order, so SAM records them all in
        // one pass with no search by name.
        if self.control.hc_partition_until.is_none() {
            let hosts = self.cluster.hosts().iter().enumerate();
            let up = hosts.filter(|(_, h)| h.up).map(|(i, _)| i);
            self.sam.record_heartbeats(up, self.now);
        }

        // Failure detection: hosts whose last heartbeat outlived the
        // deadline, in name order (a declaration clears the host's
        // heartbeat, so the next read finds the next one). Unreachable on
        // the fault-free path (heartbeats land every quantum) and under
        // generated plans (partition durations are bounded below the
        // deadline) — a declaration here is a modeling bug the oracle
        // catches via `false_declarations`.
        let deadline = self.config.liveness_deadline;
        while let Some(host) = self.sam.stale_host(self.now, deadline) {
            self.declare_host_dead(host);
        }
    }
}
