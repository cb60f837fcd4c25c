//! The simulated cluster: hosts, host controllers, and PE processes.
//!
//! Each host runs a Host Controller (HC, §2.2) — a local daemon that starts
//! and stops PE processes on behalf of SAM, tracks their status, and
//! periodically snapshots their metrics for SRM.

use crate::ids::{JobId, PeId};
use sps_engine::PeRuntime;
use sps_sim::SimTime;
use std::collections::BTreeMap;

/// Lifecycle state of a PE process.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PeStatus {
    /// Spawning: the process exists but has not finished starting (restart
    /// latency); it executes nothing and loses arriving input.
    Starting,
    Up,
    Crashed,
    Stopped,
}

/// One operating-system process hosting a PE.
pub struct PeProcess {
    pub pe_id: PeId,
    pub job: JobId,
    /// Index of this PE within its job's ADL.
    pub adl_index: usize,
    /// Whether every operator fused into this PE opted into checkpointing
    /// — a property of the ADL, resolved when the process is spawned.
    pub checkpointable: bool,
    pub status: PeStatus,
    pub started_at: SimTime,
    /// When a `Starting` process becomes `Up`.
    pub up_at: SimTime,
    /// The engine container. Rebuilt on restart; operator state (windows!)
    /// survives only when the kernel's checkpoint policy is enabled and a
    /// compatible snapshot exists — otherwise the replacement starts fresh,
    /// which is the premise of §5.2.
    pub runtime: PeRuntime,
}

/// A cluster host with its controller state.
pub struct Host {
    pub name: String,
    pub tags: Vec<String>,
    pub up: bool,
    /// Local PE processes, keyed by PE id (the HC's process table).
    pub processes: BTreeMap<PeId, PeProcess>,
}

impl Host {
    pub fn new(name: &str, tags: &[&str]) -> Self {
        Host {
            name: name.to_string(),
            tags: tags.iter().map(|t| t.to_string()).collect(),
            up: true,
            processes: BTreeMap::new(),
        }
    }

    /// Number of live PE processes (load-balance metric; spawning processes
    /// count, since they are about to consume capacity).
    pub fn live_processes(&self) -> usize {
        self.processes
            .values()
            .filter(|p| matches!(p.status, PeStatus::Up | PeStatus::Starting))
            .count()
    }

    pub fn has_tag(&self, tag: &str) -> bool {
        self.tags.iter().any(|t| t == tag)
    }

    /// [`Cluster::crash_host`]'s walk; only the cluster may call it, because
    /// the cluster counts what it crashes.
    fn crash_live(&mut self) -> Vec<PeId> {
        self.processes
            .values_mut()
            .filter(|p| matches!(p.status, PeStatus::Up | PeStatus::Starting))
            .map(|p| {
                p.status = PeStatus::Crashed;
                p.pe_id
            })
            .collect()
    }
}

/// The set of hosts available to the runtime.
#[derive(Default)]
pub struct Cluster {
    hosts: BTreeMap<String, Host>,
    /// How many processes are `Crashed`. A process becomes `Crashed` only
    /// through [`Cluster::crash`] and [`Cluster::crash_host`] and stops
    /// being one only by [`Cluster::remove_process`] (its slot restarted,
    /// its job cancelled), so a quiet cluster is known without a scan.
    crashed: usize,
}

impl Cluster {
    pub fn new() -> Self {
        Self::default()
    }

    /// Convenience: a cluster of `n` identical hosts named `host0..`.
    pub fn with_hosts(n: usize) -> Self {
        let mut c = Cluster::new();
        for i in 0..n {
            c.add_host(Host::new(&format!("host{i}"), &[]));
        }
        c
    }

    pub fn add_host(&mut self, host: Host) {
        self.hosts.insert(host.name.clone(), host);
    }

    pub fn host(&self, name: &str) -> Option<&Host> {
        self.hosts.get(name)
    }

    pub fn host_mut(&mut self, name: &str) -> Option<&mut Host> {
        self.hosts.get_mut(name)
    }

    pub fn hosts(&self) -> impl Iterator<Item = &Host> {
        self.hosts.values()
    }

    pub fn host_names(&self) -> Vec<&str> {
        self.hosts.keys().map(String::as_str).collect()
    }

    /// Locates the host running a given PE.
    pub fn host_of_pe(&self, pe: PeId) -> Option<&str> {
        self.hosts
            .values()
            .find(|h| h.processes.contains_key(&pe))
            .map(|h| h.name.as_str())
    }

    /// Mutable access to a process wherever it lives.
    pub fn process_mut(&mut self, pe: PeId) -> Option<&mut PeProcess> {
        self.hosts
            .values_mut()
            .find_map(|h| h.processes.get_mut(&pe))
    }

    pub fn process(&self, pe: PeId) -> Option<&PeProcess> {
        self.hosts.values().find_map(|h| h.processes.get(&pe))
    }

    /// Marks a process `Crashed` (no-op for an unknown or already crashed
    /// one). The only way, with [`Cluster::crash_host`], that a process
    /// gets there.
    pub fn crash(&mut self, pe: PeId) {
        if let Some(p) = self.process_mut(pe) {
            if p.status != PeStatus::Crashed {
                p.status = PeStatus::Crashed;
                self.crashed += 1;
            }
        }
    }

    /// Crashes every live process of a host and returns the victims in
    /// `PeId` order — what a host failure, or SAM declaring the host dead,
    /// does to it. `Starting` processes die too: a PE whose restart was in
    /// flight would otherwise sit `Starting` forever with nobody notified.
    pub fn crash_host(&mut self, name: &str) -> Vec<PeId> {
        let victims = self.hosts.get_mut(name).map(Host::crash_live);
        let victims = victims.unwrap_or_default();
        self.crashed += victims.len();
        victims
    }

    /// Number of `Crashed` processes, without looking at any. Debug builds
    /// hold the count to a scan.
    pub fn crashed(&self) -> usize {
        let processes = self.hosts.values().flat_map(|h| h.processes.values());
        debug_assert_eq!(
            self.crashed,
            processes.filter(|p| p.status == PeStatus::Crashed).count(),
            "a process changed to or from Crashed behind the cluster's back"
        );
        self.crashed
    }

    fn on_up_hosts_mut(&mut self) -> impl Iterator<Item = &mut PeProcess> {
        self.hosts
            .values_mut()
            .filter(|h| h.up)
            .flat_map(|h| h.processes.values_mut())
    }

    /// The live walk: every `Up` process on an up host, hosts in name order
    /// and each host's processes in `PeId` order. Every per-quantum phase
    /// (step, checkpoint issue, eviction protection, metrics push) visits
    /// PEs in this order, and every trace digest depends on it.
    pub fn live(&self) -> impl Iterator<Item = &PeProcess> {
        self.hosts
            .values()
            .filter(|h| h.up)
            .flat_map(|h| h.processes.values())
            .filter(|p| p.status == PeStatus::Up)
    }

    pub fn live_mut(&mut self) -> impl Iterator<Item = &mut PeProcess> {
        self.on_up_hosts_mut().filter(|p| p.status == PeStatus::Up)
    }

    /// Promotes every `Starting` process whose spawn latency has elapsed to
    /// `Up` (same walk order) and returns `(PE, job, ADL index)` of each.
    /// Processes on a down host are not promoted.
    pub fn promote_due(&mut self, now: SimTime) -> Vec<(PeId, JobId, usize)> {
        self.on_up_hosts_mut()
            .filter(|p| p.status == PeStatus::Starting && now >= p.up_at)
            .map(|p| {
                p.status = PeStatus::Up;
                (p.pe_id, p.job, p.adl_index)
            })
            .collect()
    }

    /// Removes a process (job cancellation, restart of its slot).
    pub fn remove_process(&mut self, pe: PeId) -> Option<PeProcess> {
        let hosts = &mut self.hosts;
        let removed = hosts.values_mut().find_map(|h| h.processes.remove(&pe))?;
        if removed.status == PeStatus::Crashed {
            self.crashed -= 1;
        }
        Some(removed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sps_engine::OperatorRegistry;
    use sps_model::adl::{Adl, AdlPe};
    use sps_sim::SimRng;

    fn empty_adl() -> Adl {
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

    fn proc(pe: u64) -> PeProcess {
        PeProcess {
            pe_id: PeId(pe),
            job: JobId(1),
            adl_index: 0,
            checkpointable: true,
            status: PeStatus::Up,
            started_at: SimTime::ZERO,
            up_at: SimTime::ZERO,
            runtime: PeRuntime::build(
                &empty_adl(),
                0,
                &OperatorRegistry::with_builtins(),
                SimRng::new(1),
            )
            .unwrap(),
        }
    }

    #[test]
    fn with_hosts_names_sequentially() {
        let c = Cluster::with_hosts(3);
        assert_eq!(c.host_names(), vec!["host0", "host1", "host2"]);
        assert!(c.host("host1").unwrap().up);
    }

    #[test]
    fn tags_and_load() {
        let mut h = Host::new("h", &["gpu", "fast"]);
        assert!(h.has_tag("gpu"));
        assert!(!h.has_tag("slow"));
        assert_eq!(h.live_processes(), 0);
        h.processes.insert(PeId(1), proc(1));
        assert_eq!(h.live_processes(), 1);
        h.processes.get_mut(&PeId(1)).unwrap().status = PeStatus::Crashed;
        assert_eq!(h.live_processes(), 0);
    }

    #[test]
    fn process_location_and_removal() {
        let mut c = Cluster::with_hosts(2);
        c.host_mut("host1")
            .unwrap()
            .processes
            .insert(PeId(7), proc(7));
        assert_eq!(c.host_of_pe(PeId(7)), Some("host1"));
        assert_eq!(c.host_of_pe(PeId(9)), None);
        assert!(c.process(PeId(7)).is_some());
        assert!(c.process_mut(PeId(7)).is_some());
        let removed = c.remove_process(PeId(7)).unwrap();
        assert_eq!(removed.pe_id, PeId(7));
        assert!(c.process(PeId(7)).is_none());
        assert!(c.remove_process(PeId(7)).is_none());
    }

    /// The order every per-quantum phase visits PEs in, and therefore every
    /// trace digest depends on: hosts by name, each host's processes by
    /// `PeId`, skipping down hosts and every process that is not `Up`.
    #[test]
    fn live_walk_is_host_name_then_pe_id_over_up_processes_on_up_hosts() {
        let mut c = Cluster::new();
        // Added out of name order; PE ids interleave across hosts.
        for name in ["hostB", "hostC", "hostA"] {
            c.add_host(Host::new(name, &[]));
        }
        let place = |c: &mut Cluster, host: &str, pe: u64, status: PeStatus| {
            let mut p = proc(pe);
            p.status = status;
            p.up_at = SimTime::from_millis(pe * 100);
            c.host_mut(host).unwrap().processes.insert(PeId(pe), p);
        };
        place(&mut c, "hostB", 9, PeStatus::Up);
        place(&mut c, "hostB", 2, PeStatus::Up);
        place(&mut c, "hostB", 5, PeStatus::Crashed);
        place(&mut c, "hostA", 7, PeStatus::Up);
        place(&mut c, "hostA", 3, PeStatus::Starting);
        place(&mut c, "hostA", 4, PeStatus::Stopped);
        place(&mut c, "hostA", 1, PeStatus::Up);
        place(&mut c, "hostC", 6, PeStatus::Up);
        place(&mut c, "hostC", 8, PeStatus::Starting);
        c.host_mut("hostC").unwrap().up = false;

        let live = |c: &Cluster| c.live().map(|p| p.pe_id.0).collect::<Vec<_>>();
        assert_eq!(live(&c), [1, 7, 2, 9]);
        let live_mut: Vec<u64> = c.live_mut().map(|p| p.pe_id.0).collect();
        assert_eq!(live_mut, live(&c));

        // Promotion walks the same way: PE 3 is due, PE 8 sits on a down host.
        assert!(c.promote_due(SimTime::from_millis(299)).is_empty());
        let promoted = c.promote_due(SimTime::from_millis(900));
        assert_eq!(promoted, [(PeId(3), JobId(1), 0)]);
        assert_eq!(live(&c), [1, 3, 7, 2, 9]);

        // A host failure takes the live and the spawning, in `PeId` order.
        c.host_mut("hostC").unwrap().up = true;
        assert_eq!(c.crash_host("hostC"), [PeId(6), PeId(8)]);
        assert_eq!(live(&c), [1, 3, 7, 2, 9]);
    }

    #[test]
    fn crashed_count_follows_crashes_and_removals() {
        let mut c = Cluster::with_hosts(2);
        for (host, pe) in [("host0", 1), ("host0", 2), ("host1", 3)] {
            let processes = &mut c.host_mut(host).unwrap().processes;
            processes.insert(PeId(pe), proc(pe));
        }
        assert_eq!(c.crashed(), 0);
        c.crash(PeId(1));
        c.crash(PeId(1)); // already crashed
        c.crash(PeId(99)); // unknown
        assert_eq!(c.crashed(), 1);
        assert_eq!(c.process(PeId(1)).unwrap().status, PeStatus::Crashed);
        // A host failure counts its live victims only.
        assert_eq!(c.crash_host("host0"), [PeId(2)]);
        assert!(c.crash_host("ghost").is_empty());
        assert_eq!(c.crashed(), 2);
        // Removing a crashed process uncounts it; removing a live one does not.
        c.remove_process(PeId(1));
        c.remove_process(PeId(3));
        assert_eq!(c.crashed(), 1);
    }
}
