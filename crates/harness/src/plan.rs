//! Fault plans: seeded, symbolic kill/revive schedules.
//!
//! A plan is a time-ordered list of *symbolic* fault actions. Actions name
//! jobs, PEs, and hosts by **slot** — an index resolved modulo the live
//! population at fire time — rather than by concrete id, because PE ids
//! change on every restart and job sets change under dynamic composition.
//! The same plan therefore stays meaningful across apps and across the very
//! perturbations it causes, and a plan round-trips through a compact string
//! encoding (`--replay …`) for one-line reproducers.

use sps_runtime::RuntimeConfig;
use sps_sim::{SimDuration, SimRng, SimTime};
use std::fmt;

/// One symbolic fault action.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultAction {
    /// Kill the PE at `pe_slot` (mod the job's PE count) of the running job
    /// at `job_slot` (mod the number of running jobs).
    KillPe { job_slot: u8, pe_slot: u8 },
    /// Take down the host at `host_slot` (mod the cluster size).
    KillHost { host_slot: u8 },
    /// Bring the host at `host_slot` back up.
    ReviveHost { host_slot: u8 },
    /// Control plane: crash every registered ORCA service mid-adaptation.
    /// Each skips its quanta until recovery, then replays its durably
    /// queued notification backlog.
    CrashOrchestrator,
    /// Control plane: restart SAM. Drains go unavailable for the restart
    /// window; recovery rebuilds the tables from the metastore log.
    RestartSam,
    /// Control plane: SAM stops seeing host heartbeats for `duration_ms`.
    /// Each generated duration is bounded below the liveness deadline, so
    /// one partition makes a correct SAM declare no host dead. Their union
    /// is not bounded: two chained partitions can outlast the deadline, and
    /// then SAM declares live hosts dead (an open hole, ROADMAP *Honest
    /// recovery* (2); 3 of the first 32,000 `campaign_durable` plans).
    PartitionSamHc { duration_ms: u32 },
}

/// A fault action bound to an absolute simulation time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultEvent {
    pub at: SimTime,
    pub action: FaultAction,
}

/// A complete fault schedule, ordered by time.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    pub events: Vec<FaultEvent>,
}

/// Bounds for plan generation, derived from the scenario under test.
#[derive(Clone, Copy, Debug)]
pub struct PlanSpec {
    /// Cluster size (host slots are drawn in `0..hosts`).
    pub hosts: usize,
    /// Faults are injected within `[window.0, window.1)`.
    pub window: (SimTime, SimTime),
    /// When true, the incident mix includes control-plane faults (ORCA
    /// crash, SAM restart, SAM/HC partition). Off by default: the draw
    /// sequence with this off is byte-identical to pre-control-fault plans.
    pub control_faults: bool,
}

impl fmt::Display for FaultAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultAction::KillPe { job_slot, pe_slot } => write!(f, "kp:{job_slot}:{pe_slot}"),
            FaultAction::KillHost { host_slot } => write!(f, "kh:{host_slot}"),
            FaultAction::ReviveHost { host_slot } => write!(f, "rh:{host_slot}"),
            FaultAction::CrashOrchestrator => write!(f, "co"),
            FaultAction::RestartSam => write!(f, "rs"),
            FaultAction::PartitionSamHc { duration_ms } => write!(f, "ps:{duration_ms}"),
        }
    }
}

/// Whether a host is down at instant `t` according to the events generated
/// so far: some host kill at or before `t` that no revive of its host
/// follows by `t`, in `(time, generation)` order.
fn any_host_down_at(events: &[FaultEvent], t: SimTime) -> bool {
    // Events due by `t`, keyed by when they fire (ties in generation order).
    let due = || {
        let keyed = events
            .iter()
            .enumerate()
            .map(|(i, e)| ((e.at, i), e.action));
        keyed.filter(move |((at, _), _)| *at <= t)
    };
    due().any(|(kill, action)| match action {
        FaultAction::KillHost { host_slot } => {
            let revive = FaultAction::ReviveHost { host_slot };
            !due().any(|(later, action)| later > kill && action == revive)
        }
        _ => false,
    })
}

/// Slot draw ranges — wide enough to reach every member of the largest
/// populations the scenarios produce (social peaks at 8 running jobs,
/// sentiment at 6 PEs per job); slots resolve modulo the live population at
/// fire time, so oversized draws still land on real targets.
const JOB_SLOTS: u64 = 8;
const PE_SLOTS: u64 = 6;

/// Most incidents a plan samples, in every scenario (an incident may expand
/// to several events: cascades, kill-during-restart, kill+revive pairs).
const MAX_INCIDENTS: usize = 5;

/// A plain PE kill at `t` on a drawn job and PE slot.
fn kill_pe(rng: &mut SimRng, events: &mut Vec<FaultEvent>, t: u64) {
    events.push(FaultEvent {
        at: SimTime::from_millis(t),
        action: FaultAction::KillPe {
            job_slot: rng.gen_range(0, JOB_SLOTS) as u8,
            pe_slot: rng.gen_range(0, PE_SLOTS) as u8,
        },
    });
}

/// The runtime's PE spawn latency, in ms: kills are aimed into the restart
/// gap, and host revives are drawn against it.
fn restart_delay_ms() -> u64 {
    RuntimeConfig::default().restart_delay.as_millis()
}

/// A host kill at `t`, paired with a revive before `end` (scenarios whose
/// adaptation logic never retries a failed placement need every host back).
/// One host is down at a time, so generated plans never exhaust placement
/// capacity by construction and a stuck PE is always a runtime/ORCA bug,
/// not a resource shortfall; while one is down it degrades to a PE kill, so
/// the incident count is preserved.
fn kill_host(rng: &mut SimRng, spec: &PlanSpec, events: &mut Vec<FaultEvent>, t: u64, end: u64) {
    let at = SimTime::from_millis(t);
    if any_host_down_at(events, at) {
        kill_pe(rng, events, t);
        return;
    }
    let host_slot = rng.gen_range(0, spec.hosts as u64) as u8;
    events.push(FaultEvent {
        at,
        action: FaultAction::KillHost { host_slot },
    });
    let lo = restart_delay_ms().max(100);
    let revive_at = (t + lo + rng.gen_range(0, lo + 1))
        .min(end - 1)
        .max(t + 100);
    events.push(FaultEvent {
        at: SimTime::from_millis(revive_at),
        action: FaultAction::ReviveHost { host_slot },
    });
}

impl FaultPlan {
    /// Samples a plan from `rng` under `spec`. Incident mix: plain PE
    /// kills, host kill (+revive), simultaneous-kill cascades, and kills
    /// aimed into the restart gap of a just-killed PE.
    pub fn generate(rng: &mut SimRng, spec: &PlanSpec) -> FaultPlan {
        let (start, end) = (spec.window.0.as_millis(), spec.window.1.as_millis());
        assert!(start < end, "empty fault window");
        let n = rng.gen_range(1, MAX_INCIDENTS as u64 + 1) as usize;
        let mut times: Vec<u64> = (0..n).map(|_| rng.gen_range(start, end)).collect();
        times.sort_unstable();

        let mut events: Vec<FaultEvent> = Vec::new();
        // With control faults off, the weight vector (and therefore the
        // whole draw sequence) is byte-identical to pre-control-fault plans.
        let weights: &[f64] = if spec.control_faults {
            &[40.0, 25.0, 15.0, 20.0, 10.0, 8.0, 7.0]
        } else {
            &[40.0, 25.0, 15.0, 20.0]
        };
        for t in times {
            match rng.pick_weighted(weights) {
                // Plain PE kill.
                0 => kill_pe(rng, &mut events, t),
                // Host kill, usually paired with a revive.
                1 => kill_host(rng, spec, &mut events, t, end),
                // Cascade: several PEs die in the same instant (one physical
                // event as seen by the failure-epoch correlator).
                2 => {
                    for _ in 0..rng.gen_range(2, 4) {
                        kill_pe(rng, &mut events, t);
                    }
                }
                // Kill-during-restart: the same slot dies again mid-spawn.
                3 => {
                    let (job_slot, pe_slot) = (
                        rng.gen_range(0, JOB_SLOTS) as u8,
                        rng.gen_range(0, PE_SLOTS) as u8,
                    );
                    for dt in [0, restart_delay_ms() / 2] {
                        events.push(FaultEvent {
                            at: SimTime::from_millis(t + dt),
                            action: FaultAction::KillPe { job_slot, pe_slot },
                        });
                    }
                }
                // Control plane: ORCA crash / SAM restart / SAM–HC
                // partition (reached only when `spec.control_faults`).
                4 => events.push(FaultEvent {
                    at: SimTime::from_millis(t),
                    action: FaultAction::CrashOrchestrator,
                }),
                5 => events.push(FaultEvent {
                    at: SimTime::from_millis(t),
                    action: FaultAction::RestartSam,
                }),
                _ => events.push(FaultEvent {
                    at: SimTime::from_millis(t),
                    // Bounded well below the 6 s liveness deadline, so one
                    // partition alone never triggers a false host
                    // declaration (two chained ones can).
                    action: FaultAction::PartitionSamHc {
                        duration_ms: rng.gen_range(500, 4001) as u32,
                    },
                }),
            }
        }
        // Stable sort: simultaneous events keep their generation order.
        events.sort_by_key(|e| e.at);
        FaultPlan { events }
    }

    /// Time the plan's last effect lands: the last event time, extended to
    /// the end of any partition window still open then.
    pub fn horizon(&self) -> Option<SimTime> {
        self.events
            .iter()
            .map(|e| match e.action {
                FaultAction::PartitionSamHc { duration_ms } => {
                    e.at + SimDuration::from_millis(duration_ms as u64)
                }
                _ => e.at,
            })
            .max()
    }

    /// Compact, shell-safe encoding: `millis:action[,millis:action…]`; the
    /// empty plan encodes as `-`.
    pub fn encode(&self) -> String {
        if self.events.is_empty() {
            return "-".to_string();
        }
        self.events
            .iter()
            .map(|e| format!("{}:{}", e.at.as_millis(), e.action))
            .collect::<Vec<_>>()
            .join(",")
    }

    /// Parses [`FaultPlan::encode`] output.
    pub fn decode(s: &str) -> Result<FaultPlan, String> {
        let s = s.trim();
        if s.is_empty() || s == "-" {
            return Ok(FaultPlan::default());
        }
        let mut events = Vec::new();
        for part in s.split(',') {
            let fields: Vec<&str> = part.split(':').collect();
            let err = |what: &str| format!("bad plan event `{part}`: {what}");
            let ms: u64 = fields
                .first()
                .and_then(|f| f.parse().ok())
                .ok_or_else(|| err("missing/invalid time"))?;
            let num = |i: usize| -> Result<u8, String> {
                fields
                    .get(i)
                    .and_then(|f| f.parse().ok())
                    .ok_or_else(|| err("missing/invalid slot"))
            };
            let action = match (fields.get(1).copied(), fields.len()) {
                (Some("kp"), 4) => FaultAction::KillPe {
                    job_slot: num(2)?,
                    pe_slot: num(3)?,
                },
                (Some("kh"), 3) => FaultAction::KillHost { host_slot: num(2)? },
                (Some("rh"), 3) => FaultAction::ReviveHost { host_slot: num(2)? },
                (Some("co"), 2) => FaultAction::CrashOrchestrator,
                (Some("rs"), 2) => FaultAction::RestartSam,
                (Some("ps"), 3) => FaultAction::PartitionSamHc {
                    duration_ms: fields
                        .get(2)
                        .and_then(|f| f.parse().ok())
                        .ok_or_else(|| err("missing/invalid duration"))?,
                },
                _ => return Err(err("unknown action")),
            };
            events.push(FaultEvent {
                at: SimTime::from_millis(ms),
                action,
            });
        }
        events.sort_by_key(|e| e.at);
        Ok(FaultPlan { events })
    }

    /// The plan without the event at `index` (shrinking candidate).
    pub fn without(&self, index: usize) -> FaultPlan {
        let mut events = self.events.clone();
        events.remove(index);
        FaultPlan { events }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> PlanSpec {
        PlanSpec {
            hosts: 4,
            window: (SimTime::from_secs(5), SimTime::from_secs(15)),
            control_faults: false,
        }
    }

    fn control_spec() -> PlanSpec {
        PlanSpec {
            control_faults: true,
            ..spec()
        }
    }

    fn is_control(a: &FaultAction) -> bool {
        matches!(
            a,
            FaultAction::CrashOrchestrator
                | FaultAction::RestartSam
                | FaultAction::PartitionSamHc { .. }
        )
    }

    #[test]
    fn generation_is_deterministic_and_in_window() {
        let a = FaultPlan::generate(&mut SimRng::new(9), &spec());
        let b = FaultPlan::generate(&mut SimRng::new(9), &spec());
        assert_eq!(a, b);
        assert!(!a.events.is_empty());
        for e in &a.events {
            assert!(e.at >= SimTime::from_secs(5));
            assert!(e.at < SimTime::from_secs(16), "{e:?}"); // +restart-gap slack
        }
        assert!(a.events.windows(2).all(|w| w[0].at <= w[1].at));
    }

    #[test]
    fn host_down_budget_is_respected_and_revives_pair_up() {
        for seed in 0..200u64 {
            let plan = FaultPlan::generate(&mut SimRng::new(seed), &spec());
            let mut down = 0usize;
            let mut kills = 0usize;
            for e in &plan.events {
                match e.action {
                    FaultAction::KillHost { .. } => {
                        down += 1;
                        kills += 1;
                        assert!(down <= 1, "seed {seed}: >1 host down in {plan:?}");
                    }
                    FaultAction::ReviveHost { .. } => down = down.saturating_sub(1),
                    _ => {}
                }
            }
            // Every kill has its revive.
            let revives = plan
                .events
                .iter()
                .filter(|e| matches!(e.action, FaultAction::ReviveHost { .. }))
                .count();
            assert_eq!(kills, revives, "seed {seed}: {plan:?}");
        }
    }

    /// The down set replayed the long way: every event sorted by time
    /// (a stable sort, so ties stay in generation order), kills adding
    /// their host and revives removing it.
    fn hosts_down_replayed(events: &[FaultEvent], t: SimTime) -> Vec<u8> {
        let mut ordered: Vec<&FaultEvent> = events.iter().collect();
        ordered.sort_by_key(|e| e.at);
        let mut down = Vec::new();
        for e in ordered.into_iter().take_while(|e| e.at <= t) {
            match e.action {
                FaultAction::KillHost { host_slot } if !down.contains(&host_slot) => {
                    down.push(host_slot)
                }
                FaultAction::ReviveHost { host_slot } => down.retain(|&h| h != host_slot),
                _ => {}
            }
        }
        down
    }

    #[test]
    fn any_host_down_agrees_with_a_replay_of_the_events() {
        let at = SimTime::from_millis;
        let event = |ms, action| FaultEvent { at: at(ms), action };
        let (kill, revive) = (
            FaultAction::KillHost { host_slot: 1 },
            FaultAction::ReviveHost { host_slot: 1 },
        );
        // Equal times fire in generation order.
        let kill_then_revive = [event(10, kill), event(10, revive)];
        let revive_then_kill = [event(10, revive), event(10, kill)];
        assert!(!any_host_down_at(&kill_then_revive, at(10)));
        assert!(any_host_down_at(&revive_then_kill, at(10)));
        let mut plans = Vec::new();
        for seed in 0..200u64 {
            let mut events = FaultPlan::generate(&mut SimRng::new(seed), &spec()).events;
            plans.push(events.clone());
            // Out of time order, as a plan is while it is generated.
            events.reverse();
            plans.push(events);
        }
        let mut downs = 0;
        for events in &plans {
            for e in events {
                for t in [e.at.as_millis() - 1, e.at.as_millis(), e.at.as_millis() + 1] {
                    let replayed = !hosts_down_replayed(events, at(t)).is_empty();
                    assert_eq!(any_host_down_at(events, at(t)), replayed, "{events:?} @{t}");
                    downs += replayed as usize;
                }
            }
        }
        assert!(downs > 0, "the generated plans take hosts down");
    }

    #[test]
    fn encode_decode_roundtrip() {
        for seed in [1u64, 7, 42, 99] {
            let plan = FaultPlan::generate(&mut SimRng::new(seed), &spec());
            let encoded = plan.encode();
            assert_eq!(FaultPlan::decode(&encoded).unwrap(), plan, "{encoded}");
        }
        assert_eq!(FaultPlan::decode("-").unwrap(), FaultPlan::default());
        assert_eq!(FaultPlan::default().encode(), "-");
        assert!(FaultPlan::decode("1000:xx:0").is_err());
        assert!(FaultPlan::decode("abc:kp:0:1").is_err());
        assert!(FaultPlan::decode("1000:kp:0").is_err());
        assert!(FaultPlan::decode("1000:ps").is_err());
        assert!(FaultPlan::decode("1000:ps:abc").is_err());
        assert!(FaultPlan::decode("1000:co:1").is_err());
    }

    #[test]
    fn control_actions_encode_and_roundtrip() {
        let plan = FaultPlan::decode("1000:co,2000:rs,3000:ps:1500").unwrap();
        assert_eq!(plan.encode(), "1000:co,2000:rs,3000:ps:1500");
        assert_eq!(plan.events[0].action, FaultAction::CrashOrchestrator);
        assert_eq!(plan.events[1].action, FaultAction::RestartSam);
        assert_eq!(
            plan.events[2].action,
            FaultAction::PartitionSamHc { duration_ms: 1500 }
        );
        // The horizon covers the partition's full window, not just its start.
        assert_eq!(plan.horizon(), Some(SimTime::from_millis(4500)));
    }

    /// With the knob off, no control action is ever generated; with it on,
    /// the mix reaches all three, and every partition stays bounded below
    /// the 6 s liveness deadline.
    #[test]
    fn control_fault_generation_is_gated_and_bounded() {
        let mut saw = [false; 3];
        for seed in 0..200u64 {
            let plain = FaultPlan::generate(&mut SimRng::new(seed), &spec());
            assert!(
                plain.events.iter().all(|e| !is_control(&e.action)),
                "seed {seed}: control action without the knob: {plain:?}"
            );
            let ctrl = FaultPlan::generate(&mut SimRng::new(seed), &control_spec());
            for e in &ctrl.events {
                match e.action {
                    FaultAction::CrashOrchestrator => saw[0] = true,
                    FaultAction::RestartSam => saw[1] = true,
                    FaultAction::PartitionSamHc { duration_ms } => {
                        saw[2] = true;
                        assert!(
                            (500..=4000).contains(&duration_ms),
                            "seed {seed}: {duration_ms}"
                        );
                    }
                    _ => {}
                }
            }
        }
        assert_eq!(saw, [true; 3], "200 seeds must reach every control action");
    }

    #[test]
    fn without_removes_exactly_one_event() {
        let plan = FaultPlan::decode("1000:kp:0:1,2000:kh:1,3000:rh:1").unwrap();
        let smaller = plan.without(1);
        assert_eq!(smaller.events.len(), 2);
        assert!(smaller
            .events
            .iter()
            .all(|e| !matches!(e.action, FaultAction::KillHost { .. })));
        assert_eq!(plan.horizon(), Some(SimTime::from_secs(3)));
    }
}
