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
}

/// The set of hosts available to the runtime.
pub struct Cluster {
    hosts: BTreeMap<String, Host>,
}

impl Cluster {
    pub fn new() -> Self {
        Cluster {
            hosts: BTreeMap::new(),
        }
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

    pub fn hosts_mut(&mut self) -> impl Iterator<Item = &mut Host> {
        self.hosts.values_mut()
    }

    pub fn host_names(&self) -> Vec<&str> {
        self.hosts.keys().map(String::as_str).collect()
    }

    pub fn num_hosts(&self) -> usize {
        self.hosts.len()
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

    /// Removes a process (job cancellation).
    pub fn remove_process(&mut self, pe: PeId) -> Option<PeProcess> {
        for h in self.hosts.values_mut() {
            if let Some(p) = h.processes.remove(&pe) {
                return Some(p);
            }
        }
        None
    }
}

impl Default for Cluster {
    fn default() -> Self {
        Self::new()
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
        assert_eq!(c.num_hosts(), 3);
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
}
