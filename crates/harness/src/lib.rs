//! Seeded fault-injection campaign harness.
//!
//! Converts the hand-scripted failover suites into thousands of
//! machine-generated failure scenarios: a seeded [`FaultPlan`] generator
//! samples kill/revive schedules (PE kills, host kills and revives,
//! simultaneous cascades, kills aimed into the restart gap) over any
//! registered application scenario; the [`runner`] executes plans through
//! the simulated [`sps_runtime::World`] and checks a pluggable set of
//! invariant [`oracle`]s — every killed PE returns to running or is cleanly
//! reaped, the ORCA loop reconverges within a bounded number of quanta, SAM
//! notifications are conserved, and the same seed reproduces a bit-identical
//! `sim::trace`. Under a checkpoint policy ([`CheckpointPolicy`]) the
//! [`StatePreservationOracle`] additionally requires every stateful-PE
//! recovery to revive verified operator state, compared against a
//! fault-free baseline run of the same seed. Failing schedules are greedily
//! [`shrink`]ed to a 1-minimal reproducer and reported as the `campaign`
//! argv that replays it ([`reproducer_line`]: `--replay PLAN --app A --seed
//! S` plus the run's policy flags).
//! Campaigns shard plan evaluation (and the shrinking of distinct failures)
//! across a worker [`pool`] (`CampaignConfig::jobs` / `--jobs`); per-plan
//! seeds are a pure function of `(campaign_seed, plan_index)` and results
//! fold in plan-index order, so every report is bit-identical at any
//! parallelism. Fault-free baselines are memoized in a [`BaselineCache`]
//! keyed by `(scenario, seed, horizon floor)` — a deterministic replay
//! artifact cached under its inputs, built as the plain world whatever the
//! plan's policy — shared by plan evaluation, the shrink walk, and
//! `--replay`.
//!
//! Replay a failing plan locally with the `campaign` binary:
//!
//! ```text
//! cargo run -p orca_bench --bin campaign -- \
//!     --replay 6500:kp:0:1 --app trend --seed 123
//! ```

#![forbid(unsafe_code)]

pub mod artifacts;
pub mod cache;
pub mod inject;
pub mod oracle;
pub mod plan;
pub mod pool;
pub mod runner;
pub mod scenario;
pub mod shrink;

pub use artifacts::{render_artifacts, render_artifacts_to, ArtifactSink};
pub use cache::{BaselineCache, BaselineKey, CacheStats, DEFAULT_BASELINE_CAPACITY};
pub use inject::{FaultInjector, Janitor};
pub use oracle::{
    default_oracles, BaselineSummary, ControlPlaneOracle, ConvergenceOracle, NotificationOracle,
    Oracle, OracleCtx, RecoveryOracle, StatePreservationOracle, Violation,
};
pub use plan::{FaultAction, FaultEvent, FaultPlan, PlanSpec};
pub use pool::indexed_pool;
pub use runner::{
    compute_baseline, evaluate, plan_seeds, quiescent, reproducer_line, run_campaign,
    run_campaign_cached, run_plan, settled_world, BaselineSource, CampaignConfig, CampaignFailure,
    CampaignReport, PlanOutcome,
};
pub use scenario::{by_name, Built, Scenario, WorldPolicy};
pub use shrink::shrink;
pub use sps_runtime::{CheckpointPolicy, ControlStats, MetastoreKind, StorageModel, UbStats};
