//! Checkpoint storage-cost sweep: recovery time as a function of
//! checkpoint interval and storage budget.
//!
//! ```text
//! cargo run --release -p orca_bench --bin ckpt_sweep
//! cargo run --release -p orca_bench --bin ckpt_sweep -- \
//!     --apps live,trend --intervals 5,10,20,40 --budgets 0,16384 \
//!     --plans 6 --json BENCH_checkpoint.json
//! ```
//!
//! For every `(app, interval, budget)` grid point the sweep executes the
//! same seeded fault plans the campaign would generate, under a nonzero
//! [`StorageModel`] (per-snapshot write/restore op latency plus a byte
//! throughput term), and mines the settled kernel's restart log:
//!
//! - **staleness**: sim-time between the restored snapshot's `taken_at`
//!   and the restart — the work a longer checkpoint interval forces the
//!   replacement PE to redo,
//! - **recovery**: `restart_delay + restore read latency + staleness` —
//!   the end-to-end cost of one recovery,
//! - **fresh** restarts (no restorable checkpoint — including budget
//!   evictions) and the store's eviction/peak-byte counters.
//!
//! Every row is deterministic in `(seed, grid point)`; stdout `sweep …`
//! lines and the `--json` artifact can be diffed across runs. Upstream
//! backup stays off: under a finite budget an evicted chain can force a
//! fresh restore that legitimately breaks exactly-once replay, which would
//! conflate transport loss with the storage effect this sweep isolates.

#![forbid(unsafe_code)]

use orca_harness::{
    plan_seeds, scenario, settled_world, CheckpointPolicy, FaultPlan, StorageModel, WorldPolicy,
};
use sps_sim::SimRng;
use std::process::ExitCode;

/// The storage cost every grid point runs under, before its budget; the
/// JSON header records it.
const STORAGE: StorageModel = StorageModel {
    write_op_ms: 5,
    write_bytes_per_ms: 64,
    restore_op_ms: 5,
    restore_bytes_per_ms: 64,
    budget_bytes: 0,
};

struct Args {
    apps: Vec<String>,
    intervals: Vec<u32>,
    budgets: Vec<usize>,
    plans: usize,
    seed: u64,
    json: Option<String>,
}

fn parse_list<T: std::str::FromStr>(name: &str, raw: &str) -> Result<Vec<T>, String>
where
    T::Err: std::fmt::Display,
{
    raw.split(',')
        .map(|tok| {
            tok.trim()
                .parse()
                .map_err(|e| format!("bad {name} element `{tok}`: {e}"))
        })
        .collect()
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        apps: vec!["live".into(), "trend".into()],
        intervals: vec![5, 10, 20, 40],
        budgets: vec![0, 16_384],
        plans: 6,
        seed: 7,
        json: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match arg.as_str() {
            "--apps" => args.apps = parse_list("--apps", &value("--apps")?)?,
            "--intervals" => args.intervals = parse_list("--intervals", &value("--intervals")?)?,
            "--budgets" => args.budgets = parse_list("--budgets", &value("--budgets")?)?,
            "--plans" => args.plans = value("--plans")?.parse().map_err(|e| format!("{e}"))?,
            "--seed" => args.seed = value("--seed")?.parse().map_err(|e| format!("{e}"))?,
            "--json" => args.json = Some(value("--json")?),
            "--help" | "-h" => {
                return Err(
                    "usage: ckpt_sweep [--apps A,B] [--intervals N,..] [--budgets B,..] \
                     [--plans N] [--seed S] [--json PATH]"
                        .to_string(),
                )
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if args.intervals.contains(&0) {
        return Err("--intervals entries must be >= 1 (0 disables checkpointing)".to_string());
    }
    Ok(args)
}

/// Aggregated restart-log metrics over every plan of one grid point.
#[derive(Default)]
struct Point {
    restores: u64,
    fresh: u64,
    /// Sums over *restored* restarts only.
    recovery_ms_total: u64,
    staleness_ms_total: u64,
    restore_read_ms_total: u64,
    fallbacks: u64,
    evictions: u64,
    peak_bytes: usize,
}

impl Point {
    fn mean(total: u64, n: u64) -> f64 {
        if n == 0 {
            0.0
        } else {
            total as f64 / n as f64
        }
    }

    fn recovery_ms(&self) -> f64 {
        Self::mean(self.recovery_ms_total, self.restores)
    }

    fn staleness_ms(&self) -> f64 {
        Self::mean(self.staleness_ms_total, self.restores)
    }

    fn restore_read_ms(&self) -> f64 {
        Self::mean(self.restore_read_ms_total, self.restores)
    }
}

fn run_point(app: &str, interval: u32, budget: usize, args: &Args) -> Result<Point, String> {
    let sc = scenario::by_name(app).ok_or_else(|| format!("unknown app `{app}`"))?;
    let opts = CheckpointPolicy::every(interval).storage(STORAGE.with_budget(budget));
    let mut point = Point::default();
    for plan_seed in plan_seeds(args.seed, args.plans) {
        let plan = FaultPlan::generate(&mut SimRng::new(plan_seed), &sc.plan_spec());
        let (world, _, _) =
            settled_world(&sc, plan_seed, &plan, WorldPolicy::checkpointed(opts), None);
        let kernel = &world.kernel;
        let restart_delay_ms = kernel.config.restart_delay.as_millis();
        for rec in kernel.restart_log() {
            match rec.restore {
                sps_runtime::RestoreOutcome::Restored { taken_at, .. } => {
                    let staleness = rec.at.as_millis().saturating_sub(taken_at.as_millis());
                    point.restores += 1;
                    point.staleness_ms_total += staleness;
                    point.restore_read_ms_total += rec.restore_ms;
                    point.recovery_ms_total += restart_delay_ms + rec.restore_ms + staleness;
                }
                sps_runtime::RestoreOutcome::Fresh { .. } => point.fresh += 1,
            }
        }
        point.fallbacks += kernel.ckpt.fallbacks();
        point.evictions += kernel.ckpt.evictions();
        point.peak_bytes = point.peak_bytes.max(kernel.ckpt.peak_state_bytes());
    }
    Ok(point)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let mut rows = Vec::new();
    for app in &args.apps {
        for &interval in &args.intervals {
            for &budget in &args.budgets {
                let point = match run_point(app, interval, budget, &args) {
                    Ok(p) => p,
                    Err(e) => {
                        eprintln!("{e}");
                        return ExitCode::FAILURE;
                    }
                };
                println!(
                    "sweep app={app} interval={interval} budget={budget} \
                     recovery_ms={:.1} staleness_ms={:.1} restore_read_ms={:.1} \
                     restores={} fresh={} fallbacks={} evictions={} peak_bytes={}",
                    point.recovery_ms(),
                    point.staleness_ms(),
                    point.restore_read_ms(),
                    point.restores,
                    point.fresh,
                    point.fallbacks,
                    point.evictions,
                    point.peak_bytes
                );
                rows.push(format!(
                    "    {{\n      \"app\": \"{app}\",\n      \"interval\": {interval},\n      \
                     \"budget\": {budget},\n      \"recovery_ms\": {:.1},\n      \
                     \"staleness_ms\": {:.1},\n      \"restore_read_ms\": {:.1},\n      \
                     \"restores\": {},\n      \"fresh\": {},\n      \"fallbacks\": {},\n      \
                     \"evictions\": {},\n      \"peak_bytes\": {}\n    }}",
                    point.recovery_ms(),
                    point.staleness_ms(),
                    point.restore_read_ms(),
                    point.restores,
                    point.fresh,
                    point.fallbacks,
                    point.evictions,
                    point.peak_bytes
                ));
            }
        }
    }
    if let Some(path) = &args.json {
        let json = format!(
            "{{\n  \"seed\": {},\n  \"plans\": {},\n  \"write_op_ms\": {},\n  \
             \"write_bytes_per_ms\": {},\n  \"restore_op_ms\": {},\n  \
             \"restore_bytes_per_ms\": {},\n  \"rows\": [\n{}\n  ]\n}}\n",
            args.seed,
            args.plans,
            STORAGE.write_op_ms,
            STORAGE.write_bytes_per_ms,
            STORAGE.restore_op_ms,
            STORAGE.restore_bytes_per_ms,
            rows.join(",\n")
        );
        if let Err(e) = std::fs::write(path, json) {
            eprintln!("writing {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("sweep results written to {path}");
    }
    ExitCode::SUCCESS
}
