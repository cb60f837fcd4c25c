//! The simulated cluster: hosts, host controllers, and PE processes.
//!
//! Each host runs a Host Controller (HC, §2.2) — a local daemon that starts
//! and stops PE processes on behalf of SAM, tracks their status, and
//! periodically snapshots their metrics for SRM.
//!
//! Every table is addressed by position, not searched per quantum: hosts
//! are a name-sorted `Vec` fixed at construction, each host's processes a
//! `PeId`-sorted `Vec`, a table indexed by `PeId` gives any process's host
//! and slot, and per-status counts say without a walk whether anything is
//! crashed or spawning.

use crate::ids::{JobId, PeId};
use sps_engine::PeRuntime;
use sps_sim::SimTime;

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
    /// Changed only by the [`Cluster`] once the process is placed: it
    /// counts processes per status.
    pub status: PeStatus,
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
    /// Local PE processes in `PeId` order (the HC's process table); only
    /// the cluster changes it, so its index and counts cannot drift.
    procs: Vec<PeProcess>,
}

impl Host {
    pub fn new(name: &str, tags: &[&str]) -> Self {
        Host {
            name: name.to_string(),
            tags: tags.iter().map(|t| t.to_string()).collect(),
            up: true,
            // A handful of processes in one allocation: a `Vec` of these
            // grows 4 → 8 → 16 from empty.
            procs: Vec::with_capacity(8),
        }
    }

    /// The live PE processes, `Up` or `Starting`, in `PeId` order (their
    /// count is the load-balance metric; spawning processes count, since
    /// they are about to consume capacity).
    pub fn live_processes(&self) -> impl Iterator<Item = &PeProcess> {
        let live = |p: &&PeProcess| matches!(p.status, PeStatus::Up | PeStatus::Starting);
        self.procs.iter().filter(live)
    }

    /// The host's processes in `PeId` order.
    pub fn processes(&self) -> &[PeProcess] {
        &self.procs
    }
}

/// The set of hosts available to the runtime.
#[derive(Default)]
pub struct Cluster {
    /// In name order; the set is fixed when the cluster is built.
    hosts: Vec<Host>,
    /// Where each process lives, `(host position, slot)`, indexed by
    /// `PeId`: SAM hands out PE ids from one counter, so the table is dense.
    place: Vec<Option<(usize, usize)>>,
    /// Processes per [`PeStatus`] (indexed by `status as usize`). A status
    /// changes only through the cluster, so a quiet cluster — nothing
    /// crashed, nothing spawning — is known without a scan.
    counts: [usize; 4],
}

impl Cluster {
    /// A cluster of `hosts`, kept in name order. Panics on a repeated name.
    pub fn new(mut hosts: Vec<Host>) -> Self {
        hosts.sort_by(|a, b| a.name.cmp(&b.name));
        let unique = hosts.windows(2).all(|w| w[0].name < w[1].name);
        assert!(unique, "host names must be unique");
        Cluster {
            hosts,
            ..Cluster::default()
        }
    }

    /// Convenience: a cluster of `n` identical hosts named `host0..`.
    pub fn with_hosts(n: usize) -> Self {
        let hosts = (0..n).map(|i| Host::new(&format!("host{i}"), &[]));
        Cluster::new(hosts.collect())
    }

    fn position(&self, name: &str) -> Result<usize, usize> {
        self.hosts.binary_search_by_key(&name, |h| &h.name)
    }

    pub fn host(&self, name: &str) -> Option<&Host> {
        self.position(name).ok().map(|h| &self.hosts[h])
    }

    /// Marks a host up or down and returns its position in name order;
    /// `None` for an unknown host.
    pub fn set_up(&mut self, name: &str, up: bool) -> Option<usize> {
        self.position(name).ok().inspect(|&h| self.hosts[h].up = up)
    }

    /// Every host, in name order.
    pub fn hosts(&self) -> &[Host] {
        &self.hosts
    }

    /// Where a process lives: its host's position and its slot there.
    fn locate(&self, pe: PeId) -> Option<(usize, usize)> {
        *self.place.get(pe.0 as usize)?
    }

    /// Points the index at host `h`'s processes where they now sit.
    fn reslot(&mut self, h: usize) {
        let slots = self.hosts[h].procs.iter().enumerate();
        slots.for_each(|(slot, p)| self.place[p.pe_id.0 as usize] = Some((h, slot)));
    }

    /// Locates the host running a given PE.
    pub fn host_of_pe(&self, pe: PeId) -> Option<&str> {
        self.locate(pe).map(|(h, _)| self.hosts[h].name.as_str())
    }

    /// Mutable access to a process wherever it lives.
    pub fn process_mut(&mut self, pe: PeId) -> Option<&mut PeProcess> {
        self.locate(pe).map(|(h, s)| &mut self.hosts[h].procs[s])
    }

    pub fn process(&self, pe: PeId) -> Option<&PeProcess> {
        self.locate(pe).map(|(h, s)| &self.hosts[h].procs[s])
    }

    /// The host controller of `host` takes a newly spawned process. Panics
    /// for an unknown host or a PE id that already has a process.
    pub(crate) fn insert(&mut self, host: &str, proc: PeProcess) {
        let h = self.position(host).expect("a process goes to a known host");
        let pe = proc.pe_id.0 as usize;
        self.place.resize(self.place.len().max(pe + 1), None);
        assert!(self.place[pe].is_none(), "one process per PE");
        self.counts[proc.status as usize] += 1;
        let processes = &mut self.hosts[h].procs;
        processes.insert(processes.partition_point(|p| p.pe_id < proc.pe_id), proc);
        self.reslot(h);
    }

    /// Moves a process to status `to` (no-op for an unknown one). With
    /// [`Cluster::insert`] and [`Cluster::remove_process`] the only way the
    /// counts change.
    pub fn set_status(&mut self, pe: PeId, to: PeStatus) {
        if let Some((h, slot)) = self.locate(pe) {
            let from = std::mem::replace(&mut self.hosts[h].procs[slot].status, to);
            self.counts[from as usize] -= 1;
            self.counts[to as usize] += 1;
        }
    }

    fn set_each(&mut self, pes: impl IntoIterator<Item = PeId>, to: PeStatus) {
        pes.into_iter().for_each(|pe| self.set_status(pe, to));
    }

    /// Crashes every live process of a host and returns the victims in
    /// `PeId` order — what a host failure, or SAM declaring the host dead,
    /// does to it. `Starting` processes die too: a PE whose restart was in
    /// flight would otherwise sit `Starting` forever with nobody notified.
    pub fn crash_host(&mut self, name: &str) -> Vec<PeId> {
        let live = self.host(name).into_iter().flat_map(Host::live_processes);
        let victims: Vec<PeId> = live.map(|p| p.pe_id).collect();
        self.set_each(victims.iter().copied(), PeStatus::Crashed);
        victims
    }

    /// Whether a scan of every process gives the counts and the `PeId`
    /// index the cluster keeps.
    fn agrees_with_scan(&self) -> bool {
        let (mut counts, mut placed) = ([0; 4], true);
        for (h, host) in self.hosts.iter().enumerate() {
            for (slot, p) in host.procs.iter().enumerate() {
                counts[p.status as usize] += 1;
                placed &= self.locate(p.pe_id) == Some((h, slot));
            }
        }
        let indexed = self.place.iter().flatten().count();
        placed && counts == self.counts && indexed == counts.iter().sum::<usize>()
    }

    /// Number of processes in `status`, without looking at any. Debug
    /// builds hold the counts and the index to a scan.
    pub fn count(&self, status: PeStatus) -> usize {
        debug_assert!(self.agrees_with_scan(), "cluster tables drifted");
        self.counts[status as usize]
    }

    /// The live walk: every `Up` process on an up host, hosts in name order
    /// and each host's processes in `PeId` order. Every per-quantum phase
    /// (step, checkpoint issue, metrics push) visits PEs in this order, and
    /// every trace digest depends on it.
    pub fn live(&self) -> impl Iterator<Item = &PeProcess> {
        let processes = self.hosts.iter().filter(|h| h.up).flat_map(Host::processes);
        processes.filter(|p| p.status == PeStatus::Up)
    }

    pub fn live_mut(&mut self) -> impl Iterator<Item = &mut PeProcess> {
        let up_hosts = self.hosts.iter_mut().filter(|h| h.up);
        let processes = up_hosts.flat_map(|h| &mut h.procs);
        processes.filter(|p| p.status == PeStatus::Up)
    }

    /// Promotes every `Starting` process whose spawn latency has elapsed to
    /// `Up` (live-walk order) and returns `(PE, job, ADL index)` of each.
    /// Processes on a down host are not promoted. With nothing `Starting`
    /// it visits no process.
    pub fn promote_due(&mut self, now: SimTime) -> Vec<(PeId, JobId, usize)> {
        // Nothing `Starting`: no host is looked at.
        let any = self.count(PeStatus::Starting) > 0;
        let hosts = if any { &self.hosts[..] } else { &[] };
        let due = hosts.iter().filter(|h| h.up).flat_map(Host::processes);
        let due = due.filter(|p| p.status == PeStatus::Starting && now >= p.up_at);
        let promoted: Vec<_> = due.map(|p| (p.pe_id, p.job, p.adl_index)).collect();
        self.set_each(promoted.iter().map(|p| p.0), PeStatus::Up);
        promoted
    }

    /// Removes a process (job cancellation, restart of its slot).
    pub fn remove_process(&mut self, pe: PeId) -> Option<PeProcess> {
        let (h, slot) = self.locate(pe)?;
        self.place[pe.0 as usize] = None;
        let removed = self.hosts[h].procs.remove(slot);
        self.reslot(h);
        self.counts[removed.status as usize] -= 1;
        Some(removed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use sps_engine::OperatorRegistry;
    use sps_model::adl::{Adl, AdlPe};
    use sps_sim::SimRng;
    use std::collections::BTreeMap;

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

    fn names(c: &Cluster) -> Vec<&str> {
        c.hosts().iter().map(|h| h.name.as_str()).collect()
    }

    #[test]
    fn with_hosts_names_sequentially() {
        let c = Cluster::with_hosts(3);
        assert_eq!(names(&c), vec!["host0", "host1", "host2"]);
        assert!(c.host("host1").unwrap().up);
    }

    /// Hosts are fixed when the cluster is built, kept in name order
    /// whatever order they came in, and a repeated name is refused rather
    /// than silently replacing the first host.
    #[test]
    fn hosts_are_sorted_at_construction() {
        let c = Cluster::new(["b", "c", "a"].map(|n| Host::new(n, &[])).into());
        assert_eq!(names(&c), ["a", "b", "c"]);
        assert_eq!(Cluster::with_hosts(11).hosts()[2].name, "host10");
        assert!(c.host("d").is_none());
        let mut c = c;
        assert_eq!(c.set_up("b", false), Some(1));
        assert!(!c.host("b").unwrap().up);
        assert_eq!(c.set_up("d", false), None);
    }

    #[test]
    #[should_panic(expected = "host names must be unique")]
    fn a_repeated_host_name_is_refused() {
        Cluster::new(vec![Host::new("a", &[]), Host::new("a", &["gpu"])]);
    }

    #[test]
    fn tags_and_load() {
        let mut h = Host::new("h", &["gpu", "fast"]);
        assert_eq!(h.tags, ["gpu", "fast"]);
        assert_eq!(h.live_processes().count(), 0);
        h.procs.push(proc(1));
        assert_eq!(h.live_processes().count(), 1);
        h.procs[0].status = PeStatus::Crashed;
        assert_eq!(h.live_processes().count(), 0);
    }

    #[test]
    fn process_location_and_removal() {
        let mut c = Cluster::with_hosts(2);
        c.insert("host1", proc(7));
        assert_eq!(c.host_of_pe(PeId(7)), Some("host1"));
        assert_eq!(c.host_of_pe(PeId(9)), None);
        assert!(c.process(PeId(7)).is_some());
        assert!(c.process_mut(PeId(7)).is_some());
        let removed = c.remove_process(PeId(7)).unwrap();
        assert_eq!(removed.pe_id, PeId(7));
        assert!(c.process(PeId(7)).is_none());
        assert_eq!(c.host_of_pe(PeId(7)), None);
        assert!(c.remove_process(PeId(7)).is_none());
    }

    #[test]
    #[should_panic(expected = "one process per PE")]
    fn a_pe_id_runs_one_process() {
        let mut c = Cluster::with_hosts(2);
        c.insert("host0", proc(7));
        c.insert("host1", proc(7));
    }

    /// The order every per-quantum phase visits PEs in, and therefore every
    /// trace digest depends on: hosts by name, each host's processes by
    /// `PeId`, skipping down hosts and every process that is not `Up`.
    #[test]
    fn live_walk_is_host_name_then_pe_id_over_up_processes_on_up_hosts() {
        // Added out of name order; PE ids interleave across hosts.
        let hosts = ["hostB", "hostC", "hostA"].map(|name| Host::new(name, &[]));
        let mut c = Cluster::new(hosts.into());
        let place = |c: &mut Cluster, host: &str, pe: u64, status: PeStatus| {
            let mut p = proc(pe);
            p.status = status;
            p.up_at = SimTime::from_millis(pe * 100);
            c.insert(host, p);
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
        c.set_up("hostC", false);

        let live = |c: &Cluster| c.live().map(|p| p.pe_id.0).collect::<Vec<_>>();
        assert_eq!(live(&c), [1, 7, 2, 9]);
        let live_mut: Vec<u64> = c.live_mut().map(|p| p.pe_id.0).collect();
        assert_eq!(live_mut, live(&c));

        // Promotion walks the same way: PE 3 is due, PE 8 sits on a down host.
        assert!(c.promote_due(SimTime::from_millis(299)).is_empty());
        let promoted = c.promote_due(SimTime::from_millis(900));
        assert_eq!(promoted, [(PeId(3), JobId(1), 0)]);
        assert_eq!(live(&c), [1, 3, 7, 2, 9]);
        assert_eq!(c.count(PeStatus::Starting), 1);

        // A host failure takes the live and the spawning, in `PeId` order.
        c.set_up("hostC", true);
        assert_eq!(c.crash_host("hostC"), [PeId(6), PeId(8)]);
        assert_eq!(live(&c), [1, 3, 7, 2, 9]);
        assert_eq!(c.count(PeStatus::Starting), 0);
        // With nothing spawning, promotion looks at nothing.
        assert!(c.promote_due(SimTime::from_secs(60)).is_empty());
    }

    #[test]
    fn crashed_count_follows_crashes_and_removals() {
        let mut c = Cluster::with_hosts(2);
        for (host, pe) in [("host0", 1), ("host0", 2), ("host1", 3)] {
            c.insert(host, proc(pe));
        }
        assert_eq!(c.count(PeStatus::Crashed), 0);
        assert_eq!(c.count(PeStatus::Up), 3);
        c.set_status(PeId(1), PeStatus::Crashed);
        c.set_status(PeId(1), PeStatus::Crashed); // already crashed
        c.set_status(PeId(99), PeStatus::Crashed); // unknown
        assert_eq!(c.count(PeStatus::Crashed), 1);
        assert_eq!(c.process(PeId(1)).unwrap().status, PeStatus::Crashed);
        // A host failure counts its live victims only.
        assert_eq!(c.crash_host("host0"), [PeId(2)]);
        assert!(c.crash_host("ghost").is_empty());
        assert_eq!(c.count(PeStatus::Crashed), 2);
        // Removing a crashed process uncounts it; removing a live one does not.
        c.remove_process(PeId(1));
        c.remove_process(PeId(3));
        assert_eq!(c.count(PeStatus::Crashed), 1);
        assert_eq!(c.count(PeStatus::Up), 0);
    }

    /// What one process is to the model: its status and when it is due.
    type ModelProc = (PeStatus, SimTime);

    /// The cluster before it kept an index: hosts in an ordered map by
    /// name, each with its processes in an ordered map by `PeId`, and every
    /// lookup a search host after host.
    #[derive(Default)]
    struct Model {
        hosts: BTreeMap<String, (bool, BTreeMap<PeId, ModelProc>)>,
    }

    impl Model {
        fn find(&mut self, pe: PeId) -> Option<(&String, &mut ModelProc)> {
            let mut hosts = self.hosts.iter_mut();
            hosts.find_map(|(name, (_, procs))| Some((name, procs.get_mut(&pe)?)))
        }

        /// `(PeId, status)` of every process on an up host, in walk order.
        fn walk(&self) -> impl Iterator<Item = (PeId, PeStatus)> + '_ {
            let up = self.hosts.values().filter(|(up, _)| *up);
            up.flat_map(|(_, procs)| procs.iter().map(|(&pe, &(s, _))| (pe, s)))
        }

        fn count(&self, status: PeStatus) -> usize {
            let all = self.hosts.values().flat_map(|(_, procs)| procs.values());
            all.filter(|(s, _)| *s == status).count()
        }
    }

    #[derive(Clone, Debug)]
    enum Op {
        Insert(usize, u64, bool, u64),
        SetStatus(u64, u8),
        CrashHost(usize),
        SetUp(usize, bool),
        Promote(u64),
        Remove(u64),
    }

    fn arb_op() -> impl Strategy<Value = Op> {
        let pe = || 0u64..24;
        prop_oneof![
            4 => (any::<usize>(), pe(), any::<bool>(), 0u64..8)
                .prop_map(|(h, pe, starting, due)| Op::Insert(h, pe, starting, due)),
            3 => (pe(), 0u8..4).prop_map(|(pe, s)| Op::SetStatus(pe, s)),
            1 => any::<usize>().prop_map(Op::CrashHost),
            2 => (any::<usize>(), any::<bool>()).prop_map(|(h, up)| Op::SetUp(h, up)),
            2 => (0u64..8).prop_map(Op::Promote),
            2 => pe().prop_map(Op::Remove),
        ]
    }

    const STATUSES: [PeStatus; 4] = [
        PeStatus::Starting,
        PeStatus::Up,
        PeStatus::Crashed,
        PeStatus::Stopped,
    ];

    /// Everything a caller can read of the cluster, held to the model.
    fn assert_agrees(c: &mut Cluster, m: &mut Model) {
        let names: Vec<&String> = m.hosts.keys().collect();
        assert_eq!(c.hosts().iter().map(|h| &h.name).collect::<Vec<_>>(), names);
        for host in c.hosts() {
            let (up, procs) = &m.hosts[&host.name];
            assert_eq!(host.up, *up);
            let ids: Vec<PeId> = host.processes().iter().map(|p| p.pe_id).collect();
            assert_eq!(ids, procs.keys().copied().collect::<Vec<_>>());
            let is_alive = |(s, _): &ModelProc| matches!(s, PeStatus::Up | PeStatus::Starting);
            let live: Vec<PeId> = host.live_processes().map(|p| p.pe_id).collect();
            let alive = procs.iter().filter(|(_, p)| is_alive(p)).map(|(&pe, _)| pe);
            assert_eq!(live, alive.collect::<Vec<_>>());
        }
        let live = m
            .walk()
            .filter(|(_, s)| *s == PeStatus::Up)
            .map(|(pe, _)| pe);
        let live: Vec<PeId> = live.collect();
        assert_eq!(c.live().map(|p| p.pe_id).collect::<Vec<_>>(), live);
        assert_eq!(c.live_mut().map(|p| p.pe_id).collect::<Vec<_>>(), live);
        for pe in (0..24).map(PeId) {
            let found = m.find(pe).map(|(name, &mut (s, _))| (name.clone(), s));
            let host = c.host_of_pe(pe).map(str::to_string);
            assert_eq!(host.zip(c.process(pe).map(|p| p.status)), found);
            assert_eq!(c.process_mut(pe).map(|p| p.pe_id), found.map(|_| pe));
        }
        for status in STATUSES {
            assert_eq!(c.count(status), m.count(status), "{status:?}");
        }
    }

    /// Applies one operation to both and checks what it returned.
    fn step(c: &mut Cluster, m: &mut Model, hosts: &[String], op: Op) {
        // One slot past the hosts names a host the cluster does not have.
        let name = |h: usize| {
            hosts
                .get(h % (hosts.len() + 1))
                .map_or("ghost", |n| n.as_str())
        };
        match op {
            Op::Insert(h, pe, starting, due) => {
                if m.find(PeId(pe)).is_some() {
                    return;
                }
                let host = &hosts[h % hosts.len()];
                let mut p = proc(pe);
                p.status = if starting {
                    PeStatus::Starting
                } else {
                    PeStatus::Up
                };
                p.up_at = SimTime::from_millis(due * 100);
                let procs = &mut m.hosts.get_mut(host).unwrap().1;
                procs.insert(PeId(pe), (p.status, p.up_at));
                c.insert(host, p);
            }
            Op::SetStatus(pe, s) => {
                let to = STATUSES[s as usize];
                if let Some((_, p)) = m.find(PeId(pe)) {
                    p.0 = to;
                }
                c.set_status(PeId(pe), to);
            }
            Op::CrashHost(h) => {
                let mut victims = Vec::new();
                if let Some((_, procs)) = m.hosts.get_mut(name(h)) {
                    for (pe, p) in procs {
                        if matches!(p.0, PeStatus::Up | PeStatus::Starting) {
                            p.0 = PeStatus::Crashed;
                            victims.push(*pe);
                        }
                    }
                }
                assert_eq!(c.crash_host(name(h)), victims);
            }
            Op::SetUp(h, up) => {
                let at = m.hosts.keys().position(|n| n == name(h));
                if let Some(host) = m.hosts.get_mut(name(h)) {
                    host.0 = up;
                }
                assert_eq!(c.set_up(name(h), up), at);
            }
            Op::Promote(now) => {
                let now = SimTime::from_millis(now * 100);
                let up = m.hosts.values_mut().filter(|(up, _)| *up);
                let mut promoted = Vec::new();
                for (pe, p) in up.flat_map(|(_, procs)| procs.iter_mut()) {
                    if p.0 == PeStatus::Starting && now >= p.1 {
                        p.0 = PeStatus::Up;
                        promoted.push((*pe, JobId(1), 0));
                    }
                }
                assert_eq!(c.promote_due(now), promoted);
            }
            Op::Remove(pe) => {
                let gone = m
                    .hosts
                    .values_mut()
                    .find_map(|(_, procs)| procs.remove(&PeId(pe)));
                let removed = c.remove_process(PeId(pe));
                assert_eq!(removed.map(|p| (p.status, p.up_at)), gone);
            }
        }
    }

    proptest! {
        /// The indexed cluster against the ordered-map cluster it replaced,
        /// over random hosts (given out of name order, with names such as
        /// `h10` that sort before `h2`) and random operation sequences:
        /// the live walk, promotion and host-failure orders, every lookup
        /// and the per-status counts agree after every step.
        #[test]
        fn cluster_agrees_with_an_ordered_map_model(
            ids in prop::collection::vec(0u8..30, 1..6),
            ops in prop::collection::vec(arb_op(), 1..120),
        ) {
            let mut hosts: Vec<String> = Vec::new();
            for name in ids.iter().map(|i| format!("h{i}")) {
                if !hosts.contains(&name) {
                    hosts.push(name);
                }
            }
            let mut c = Cluster::new(hosts.iter().map(|n| Host::new(n, &[])).collect());
            let mut m = Model::default();
            for name in &hosts {
                m.hosts.insert(name.clone(), (true, BTreeMap::new()));
            }
            for op in ops {
                step(&mut c, &mut m, &hosts, op);
                assert_agrees(&mut c, &mut m);
            }
        }
    }
}
