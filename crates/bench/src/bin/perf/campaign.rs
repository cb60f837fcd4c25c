//! The campaign workloads: closed-loop evaluation of seeded fault plans, one
//! at a time on one thread, exactly as `run_campaign_cached` evaluates them
//! (generate, baseline if the policy checkpoints, primary run, determinism
//! replay, digest compare) — through the product's `run_plan` when untraced
//! and through its traced twin in `mirror.rs` otherwise.

use crate::clock::Tick;
use crate::mirror;
use crate::run::Block;
use crate::spec::{durable_policy, Share};
use crate::trace::Tracer;
use orca_harness::{
    by_name, default_oracles, plan_seeds, run_plan, BaselineCache, BaselineSource, FaultAction,
    FaultPlan, Oracle, Scenario, WorldPolicy,
};
use sps_runtime::RuntimeConfig;
use sps_sim::{fnv1a, SimDuration, SimRng, SimTime, FNV_OFFSET};

/// Campaign seed of every run's warm-up block ("warmup" in ASCII): not a
/// seed anyone passes as `--seed`, so no timed plan finds its baseline
/// already cached by the warm-up.
pub const WARMUP_SEED: u64 = 0x0077_6172_6d75_7000;

/// One app's share of every block.
struct Lane {
    scenario: Scenario,
    oracles: Vec<Box<dyn Oracle>>,
    plans_per_block: usize,
}

/// Everything the timed loop needs, built by set-up.
pub struct Campaign {
    policy: WorldPolicy,
    control_faults: bool,
    lanes: Vec<Lane>,
    campaign_seed: u64,
    /// `plan_seeds(campaign_seed, n)` prefix, grown on demand: timed plan `i`
    /// of every lane runs on `seeds[i]`, as each app's campaign would.
    seeds: Vec<u64>,
    cache: BaselineCache,
}

/// Quanta `settled_world` steps for a plan with this horizon and floor.
fn world_quanta(
    scenario: &Scenario,
    horizon: Option<SimTime>,
    floor: Option<SimTime>,
    quantum_ms: u64,
) -> u64 {
    let mut fault_end = (scenario.warmup + scenario.fault_window).as_millis();
    for h in horizon.into_iter().chain(floor) {
        fault_end = fault_end.max(h.as_millis() + quantum_ms);
    }
    fault_end.div_ceil(quantum_ms) + scenario.settle.as_millis() / quantum_ms
}

impl Campaign {
    /// Scenario lookup, oracle sets, policy, seed stream, empty cache.
    pub fn new(mix: &[Share], durable: bool, campaign_seed: u64, smoke: bool) -> Campaign {
        let policy = if durable {
            durable_policy()
        } else {
            WorldPolicy::default()
        };
        let lanes = mix
            .iter()
            .map(|share| Lane {
                scenario: by_name(share.app).expect("mix names a registered scenario"),
                oracles: default_oracles(false, policy.checkpoint.enabled(), durable),
                plans_per_block: if smoke { 1 } else { share.plans },
            })
            .collect();
        Campaign {
            policy,
            control_faults: durable,
            lanes,
            campaign_seed,
            seeds: Vec::new(),
            cache: BaselineCache::new(),
        }
    }

    pub fn plans_per_block(&self) -> usize {
        self.lanes.iter().map(|l| l.plans_per_block).sum()
    }

    /// Seed of plan `i` of a `k`-plan lane in block `block`. Block 0, the
    /// warm-up, always runs the [`WARMUP_SEED`] campaign, so set-up time, the
    /// `sim_digest` and the traced counts do not depend on `--seed`; timed
    /// blocks 1.. walk the `--seed` campaign from its first plan.
    fn plan_seed(&mut self, block: usize, k: usize, i: usize) -> u64 {
        if block == 0 {
            return plan_seeds(WARMUP_SEED, k)[i];
        }
        let index = (block - 1) * k + i;
        if index >= self.seeds.len() {
            self.seeds = plan_seeds(self.campaign_seed, (index + 1).next_power_of_two().max(256));
        }
        self.seeds[index]
    }

    /// Evaluates block `index`: `k` plans of each lane.
    pub fn run_block(&mut self, index: usize, mut tracer: Option<&mut Tracer>) -> Block {
        let mut block = Block {
            digest: FNV_OFFSET,
            ..Block::default()
        };
        let start = Tick::now();
        for lane_idx in 0..self.lanes.len() {
            let k = self.lanes[lane_idx].plans_per_block;
            let mut lane_digest = FNV_OFFSET;
            for i in 0..k {
                let plan_seed = self.plan_seed(index, k, i);
                let t0 = Tick::now();
                let eval = match tracer.as_deref_mut() {
                    Some(tr) => {
                        tr.plan_id = (index * self.plans_per_block() + block.plans) as u32;
                        tr.span("plan", |tr| self.evaluate(lane_idx, plan_seed, Some(tr)))
                    }
                    None => self.evaluate(lane_idx, plan_seed, None),
                };
                let Eval::Ran {
                    digest,
                    quanta,
                    violation,
                } = eval
                else {
                    block.skipped += 1;
                    continue;
                };
                block.plan_ms.push(Tick::now().since(t0) as f64 / 1e6);
                lane_digest = fnv1a(lane_digest, &digest.to_le_bytes());
                block.plans += 1;
                block.quanta += quanta;
                if let Some(v) = violation {
                    block.failed += 1;
                    block.first_violation.get_or_insert(v);
                }
            }
            block.digest = fnv1a(block.digest, &lane_digest.to_le_bytes());
        }
        block.wall_ns = Tick::now().since(start);
        block
    }

    /// `runner::evaluate_plan` through public pieces.
    fn evaluate(&self, lane_idx: usize, plan_seed: u64, mut tracer: Option<&mut Tracer>) -> Eval {
        let lane = &self.lanes[lane_idx];
        let scenario = &lane.scenario;
        let spec = scenario.plan_spec_with(self.control_faults);
        let plan = match tracer.as_deref_mut() {
            Some(tr) => tr.span("harness.plan.generate", |_| {
                FaultPlan::generate(&mut SimRng::new(plan_seed), &spec)
            }),
            None => FaultPlan::generate(&mut SimRng::new(plan_seed), &spec),
        };
        if partitions_outlast_deadline(&plan) {
            return Eval::Skipped;
        }
        let floor = plan.horizon();
        let source = BaselineSource::new(&self.cache, floor);
        let misses_before = self.cache.stats().misses;
        let run = |tracer: Option<&mut Tracer>| match tracer {
            Some(tr) => mirror::run_plan(
                scenario,
                plan_seed,
                &plan,
                &lane.oracles,
                self.policy,
                source,
                tr,
            ),
            None => run_plan(
                scenario,
                plan_seed,
                &plan,
                &lane.oracles,
                self.policy,
                source,
            ),
        };
        let primary = run(tracer.as_deref_mut());
        let replay = run(tracer);
        let baselines = self.cache.stats().misses - misses_before;

        let quantum_ms = RuntimeConfig::default().quantum.as_millis();
        let quanta = 2 * world_quanta(scenario, floor, None, quantum_ms)
            + baselines * world_quanta(scenario, None, floor, quantum_ms);
        let violation = if let Some(v) = primary.violations.first() {
            Some(format!(
                "{} seed={plan_seed} plan={} {}: {}",
                scenario.name,
                plan.encode(),
                v.oracle,
                v.message
            ))
        } else if replay.digest != primary.digest {
            Some(format!(
                "{} seed={plan_seed} plan={} determinism: {:#018x} vs {:#018x}",
                scenario.name,
                plan.encode(),
                primary.digest,
                replay.digest
            ))
        } else {
            None
        };
        Eval::Ran {
            digest: primary.digest,
            quanta,
            violation,
        }
    }

    /// Per-lane digest folds of block 1 — each must equal
    /// `run_campaign_cached(..).digest` for the same seed and plan count.
    #[cfg(test)]
    pub fn lane_digests(&mut self) -> Vec<(&'static str, usize, u64)> {
        (0..self.lanes.len())
            .map(|lane_idx| {
                let k = self.lanes[lane_idx].plans_per_block;
                let mut digest = FNV_OFFSET;
                for i in 0..k {
                    let seed = self.plan_seed(1, k, i);
                    let Eval::Ran { digest: d, .. } = self.evaluate(lane_idx, seed, None) else {
                        panic!("the digest test needs plans the workload keeps");
                    };
                    digest = fnv1a(digest, &d.to_le_bytes());
                }
                (self.lanes[lane_idx].scenario.name, k, digest)
            })
            .collect()
    }
}

enum Eval {
    Ran {
        digest: u64,
        quanta: u64,
        violation: Option<String>,
    },
    /// Left out of the workload, see [`partitions_outlast_deadline`].
    Skipped,
}

/// Whether the plan's SAM<->HC partitions overlap or chain into one blind
/// window as long as the liveness deadline. The generator bounds every
/// partition below the deadline but not their union, the kernel extends an
/// open window, SAM then declares live hosts dead and the control-plane
/// oracle rightly fails the plan: 3 of the first 32 000 durable plans
/// measured. A benchmark runs workloads on which no operation fails, so
/// such plans are left out — by this property of the input, which any real
/// plan stream has. Closing the hole in the generator is a later issue.
fn partitions_outlast_deadline(plan: &FaultPlan) -> bool {
    let config = RuntimeConfig::default();
    let mut blind: Option<(SimTime, SimTime)> = None;
    plan.events.iter().any(|e| {
        let FaultAction::PartitionSamHc { duration_ms } = e.action else {
            return false;
        };
        let until = e.at + SimDuration::from_millis(duration_ms as u64);
        let window = match blind {
            Some((from, open_until)) if e.at <= open_until => (from, open_until.max(until)),
            _ => (e.at, until),
        };
        blind = Some(window);
        // One quantum of slack: the last heartbeat SAM saw is a quantum old
        // when the injector opens the window.
        window.1.since(window.0) + config.quantum >= config.liveness_deadline
    })
}
