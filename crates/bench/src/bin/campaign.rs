//! Seeded fault-injection campaign driver.
//!
//! ```text
//! cargo run --release -p orca_bench --bin campaign -- --plans 200 --seed 7
//! cargo run --release -p orca_bench --bin campaign -- --app trend --plans 50
//! cargo run --release -p orca_bench --bin campaign -- --plans 100 --jobs 8 --timing
//! cargo run --release -p orca_bench --bin campaign -- --checkpoint-interval 10
//! cargo run --release -p orca_bench --bin campaign -- \
//!     --replay 6500:kp:0:1 --app trend --seed 123 --checkpoint-interval 10
//! cargo run --release -p orca_bench --bin campaign -- \
//!     --replay 6000:kh:0,6000:kh:1,6000:kh:2,6000:kh:3 --app trend --seed 7
//! ```
//!
//! The last line kills every trend host and revives none, so it fails the
//! recovery oracle and exits 1: the quickest way to see a failing run.
//!
//! A run is described by flags. The binary reads no environment variable
//! of its own; the engine reads `SPS_BATCH` (batched or per-tuple data
//! path), and stdout does not depend on it: `scripts/stdout-matrix.sh`'s
//! `<app>-batch-off` cell is byte-identical to its `<app>-j1-plain` cell.
//! `--replay PLAN --app A --seed S` executes one encoded plan instead of
//! generating `--plans` of them, under the same policy flags, parsed and
//! validated by the same code as a campaign command line. Every
//! failing plan's `reproduce:` line is such a command (see
//! `orca_harness::reproducer_line`), so running it as printed replays the
//! shrunk plan under the policy of the campaign that found it.
//!
//! `--jobs N` (default 1) shards plan evaluation and failure shrinking
//! across N worker threads; the report is folded in plan-index order, so
//! stdout is byte-identical for any `--jobs` value.
//!
//! `--checkpoint-interval N` enables PE checkpointing every N scheduling
//! quanta and activates the `StatePreservation` oracle. `--ckpt-write-latency
//! MS` adds a fixed per-snapshot write latency (commits — and upstream-backup
//! trims — land that much sim time after the snapshot is taken);
//! `--ckpt-budget BYTES` turns on oldest-first eviction of the chains of PEs
//! that are neither `Up` nor `Starting` while stored bytes exceed it; the
//! chains it may not evict can keep storage over it. All of these need an
//! interval.
//!
//! `--upstream-backup on` additionally buffers in-flight deliveries at the
//! sender and replays the post-checkpoint gap into restored PEs, making
//! recovery of checkpointable jobs exactly-once — the `StatePreservation`
//! oracle then asserts tap-count *equality* (not bounds) on each scenario's
//! structurally-exact taps. Transport counters (buffered / replayed /
//! suppressed / trimmed / peak) join the report and the `--timing` line.
//!
//! `--control-faults on` adds orchestrator crashes, SAM restarts and SAM↔HC
//! partitions to the generated mix and the control-plane oracle to the set.
//! SAM's store keeps its op log in every world, so a SAM restart replays it
//! whichever flags a campaign runs under.
//!
//! Fault-free baselines are memoized process-wide in a `BaselineCache`
//! keyed by `(scenario, seed, horizon floor)` and built as the plain world
//! whatever the checkpoint policy; the determinism replay and `--replay`
//! hit entries instead of re-simulating baseline worlds. The memo keeps
//! only what a campaign revisits, so the shrink walk of a failing plan may
//! recompute its baseline once (phase 1 may have evicted it) and hits that
//! entry for every further candidate. The cache cannot change any report:
//! entries are pure functions of their key.
//!
//! Stdout is bit-identical across runs with the same arguments (timings go
//! to stderr), so campaign output itself can be diffed for determinism.
//! `--timing` additionally prints per-app wall-clock, plans/sec, and
//! baseline cache hit/miss lines to stdout — deliberately opt-in, so the
//! default stream stays byte-stable (wall-clock and, under `--jobs > 1`,
//! counter interleavings are nondeterministic).

#![forbid(unsafe_code)]

use orca_harness::{
    evaluate, run_campaign_cached, scenario, BaselineCache, BaselineSource, CampaignConfig,
    CheckpointPolicy, FaultPlan, Scenario, StorageModel,
};
use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str = "usage: campaign [--plans N] [--seed S] [--app NAME] [--jobs N] [--timing] \
     [--checkpoint-interval QUANTA] \
     [--upstream-backup on|off] [--ckpt-write-latency MS] [--ckpt-budget BYTES] \
     [--control-faults on|off] [--replay PLAN --app NAME --seed S]";

#[derive(Debug)]
struct Args {
    /// Seed, policy, oracles and parallelism, validated. Under `--replay`,
    /// `seed` is the plan's own seed and `plans` is unused.
    cfg: CampaignConfig,
    app: Option<String>,
    /// `--replay`: execute this plan instead of generating `cfg.plans`.
    replay: Option<FaultPlan>,
    timing: bool,
}

fn parse<T: std::str::FromStr>(flag: &str, raw: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    raw.parse().map_err(|e| format!("bad {flag} `{raw}`: {e}"))
}

fn on_off(flag: &str, raw: &str) -> Result<bool, String> {
    match raw {
        "on" => Ok(true),
        "off" => Ok(false),
        other => Err(format!("{flag} {other}: expected on|off")),
    }
}

fn parse_args(argv: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut cfg = CampaignConfig::default();
    let (mut plans, mut seed, mut app, mut replay) = (None, None, None, None);
    let mut timing = false;
    let (mut interval, mut ub, mut write_latency, mut budget) = (0, false, 0, 0);
    let mut it = argv.into_iter();
    while let Some(arg) = it.next() {
        let flag = arg.as_str();
        let mut value = || it.next().ok_or_else(|| format!("{flag} requires a value"));
        match flag {
            "--plans" => plans = Some(parse(flag, &value()?)?),
            "--seed" => seed = Some(parse(flag, &value()?)?),
            "--app" => app = Some(value()?),
            "--jobs" => cfg.jobs = parse(flag, &value()?)?,
            "--timing" => timing = true,
            "--checkpoint-interval" => interval = parse(flag, &value()?)?,
            "--upstream-backup" => ub = on_off(flag, &value()?)?,
            "--ckpt-write-latency" => write_latency = parse(flag, &value()?)?,
            "--ckpt-budget" => budget = parse(flag, &value()?)?,
            "--control-faults" => cfg.control_faults = on_off(flag, &value()?)?,
            "--replay" => replay = Some(FaultPlan::decode(&value()?)?),
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if interval == 0 {
        // A zero latency or budget is the default and asks for nothing.
        for (on, flag) in [
            (ub, "--upstream-backup on"),
            (write_latency != 0, "--ckpt-write-latency"),
            (budget != 0, "--ckpt-budget"),
        ] {
            if on {
                return Err(format!("{flag} requires --checkpoint-interval"));
            }
        }
    }
    if replay.is_some() {
        // The default seed is a campaign's master seed; a plan's own seed
        // is one of its draws, so falling back to it would replay the plan
        // against a different world than the one it failed in.
        if app.is_none() || seed.is_none() {
            return Err("--replay needs --app and --seed (the `seed=` of the FAIL line)".into());
        }
        if plans.is_some() {
            return Err("--replay runs the one plan it names; drop --plans".into());
        }
    }
    if cfg.jobs == 0 {
        return Err("--jobs must be >= 1".into());
    }
    cfg.plans = plans.unwrap_or(cfg.plans);
    cfg.seed = seed.unwrap_or(cfg.seed);
    cfg.checkpoint = CheckpointPolicy::every(interval)
        .upstream_backup(ub)
        .storage(
            StorageModel::default()
                .with_write(write_latency, 0)
                .with_budget(budget),
        );
    Ok(Args {
        cfg,
        app,
        replay,
        timing,
    })
}

fn scenarios_for(app: &Option<String>) -> Result<Vec<Scenario>, String> {
    match app {
        None => Ok(scenario::all()),
        Some(name) => scenario::by_name(name)
            .map(|s| vec![s])
            .ok_or_else(|| format!("unknown app `{name}` (try: live, sentiment, social, trend)")),
    }
}

/// `--replay`: one plan, every oracle of the campaign that printed it.
fn replay(cfg: &CampaignConfig, sc: &Scenario, plan: &FaultPlan) -> ExitCode {
    // The baseline is fetched through the cache at the point of use: one
    // computation for the whole replay (the determinism re-run hits the
    // entry the first run populated).
    let cache = BaselineCache::new();
    let outcome = evaluate(
        sc,
        cfg.seed,
        plan,
        &cfg.oracles(),
        cfg.check_determinism,
        cfg.policy(),
        BaselineSource::new(&cache, plan.horizon()),
    );
    println!(
        "replay app={} seed={} ckpt={} plan={} digest={:016x}",
        sc.name,
        cfg.seed,
        cfg.checkpoint.every_quanta,
        plan.encode(),
        outcome.digest
    );
    if outcome.violations.is_empty() {
        println!("all oracles passed");
        ExitCode::SUCCESS
    } else {
        for v in &outcome.violations {
            println!("oracle {} violated: {}", v.oracle, v.message);
        }
        ExitCode::FAILURE
    }
}

fn run(args: &Args) -> Result<ExitCode, String> {
    let scenarios = scenarios_for(&args.app)?;
    let cfg = &args.cfg;
    if let Some(plan) = &args.replay {
        // `parse_args` insisted on `--app`: this is the one scenario.
        return Ok(replay(cfg, &scenarios[0], plan));
    }
    // One cache for the whole invocation: multi-app campaigns keep per-app
    // entries apart by key, and any repeated evaluation (determinism
    // replays, shrink walks) hits instead of re-simulating.
    let cache = BaselineCache::new();
    let mut failed = false;
    for sc in &scenarios {
        let before = cache.stats();
        // sslint: allow(ambient-authority, wall-clock timing is printed only under --timing and never reaches default stdout)
        let start = Instant::now();
        let report = run_campaign_cached(sc, cfg, &cache);
        let wall = start.elapsed().as_secs_f64();
        eprintln!("[{}] {} plans in {:.1}s", sc.name, report.plans_run, wall);
        print!("{}", report.render());
        if args.timing {
            // Wall-clock is nondeterministic, hence flag-gated (see module
            // docs). plans/sec is the CI matrix's throughput headline; the
            // baseline hit/miss counters expose whether memoization is
            // actually engaging (hits ≈ misses under the determinism
            // replay).
            let stats = cache.stats().since(before);
            println!(
                "timing app={} jobs={} phase=campaign wall_s={wall:.2} plans_per_sec={:.2} \
                 baseline_hits={} baseline_misses={} baseline_hit_rate={:.2} \
                 ub_buffered={} ub_replayed={} ub_suppressed={} ub_trimmed={} ub_peak={}",
                sc.name,
                cfg.jobs,
                report.plans_run as f64 / wall.max(f64::EPSILON),
                stats.hits,
                stats.misses,
                stats.hit_rate(),
                report.ub.buffered,
                report.ub.replayed,
                report.ub.suppressed,
                report.ub.trimmed,
                report.ub.peak_buffered,
            );
        }
        failed |= report.plans_failed > 0;
    }
    Ok(if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn main() -> ExitCode {
    match parse_args(std::env::args().skip(1)).and_then(|args| run(&args)) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orca_harness::reproducer_line;

    fn parse_line(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(String::from))
    }

    /// What a `reproduce:` line prints after `--` is what the campaign ran under,
    /// read back by the parser every command line goes through.
    #[test]
    fn reproducer_line_round_trips_through_parse_args() {
        let sc = scenario::by_name("trend").unwrap();
        let plan = FaultPlan::decode("1000:co,2000:rs,3000:ps:1500,6500:kp:0:1").unwrap();
        let stored = StorageModel::default()
            .with_write(250, 0)
            .with_budget(16_384);
        let mut lines = std::collections::BTreeSet::new();
        for checkpoint in [
            CheckpointPolicy::default(),
            CheckpointPolicy::every(10),
            CheckpointPolicy::every(5).upstream_backup(true),
            CheckpointPolicy::every(10).storage(stored),
        ] {
            for control_faults in [false, true] {
                let cfg = CampaignConfig {
                    checkpoint,
                    control_faults,
                    ..CampaignConfig::default()
                };
                let line = reproducer_line(&sc, 123, &plan, &cfg);
                let args = parse_line(&line).unwrap_or_else(|e| panic!("`{line}`: {e}"));
                assert_eq!(args.app.as_deref(), Some("trend"), "`{line}`");
                assert_eq!(args.replay.as_ref(), Some(&plan), "`{line}`");
                assert_eq!(args.cfg.seed, 123, "`{line}`");
                assert_eq!(args.cfg.policy(), cfg.policy(), "`{line}`");
                assert_eq!(args.cfg.control_faults, control_faults, "`{line}`");
                assert!(args.cfg.check_determinism, "`{line}`");
                lines.insert(line);
            }
        }
        assert_eq!(lines.len(), 8, "two settings printed the same line");
        // The empty plan has an encoding, too.
        let line = reproducer_line(&sc, 9, &FaultPlan::default(), &CampaignConfig::default());
        assert_eq!(
            parse_line(&line).unwrap().replay,
            Some(FaultPlan::default())
        );
    }

    #[test]
    fn storage_knobs_require_an_interval() {
        for prefix in ["", "--replay 6500:kp:0:1 --app trend --seed 123 "] {
            for (knob, names) in [
                ("--upstream-backup on", "--upstream-backup on"),
                ("--ckpt-write-latency 5", "--ckpt-write-latency"),
                ("--ckpt-budget 4096", "--ckpt-budget"),
            ] {
                let err = parse_line(&format!("{prefix}{knob}")).unwrap_err();
                assert_eq!(err, format!("{names} requires --checkpoint-interval"));
                let err = parse_line(&format!("{prefix}{knob} --checkpoint-interval 0"));
                assert!(err.is_err(), "`{prefix}{knob}` with interval 0");
                let ok = parse_line(&format!("{prefix}--checkpoint-interval 10 {knob}"));
                assert!(ok.unwrap().cfg.checkpoint.enabled());
            }
            // Zero-valued knobs are no-ops and must not demand an interval.
            let zeros = "--upstream-backup off --ckpt-write-latency 0 --ckpt-budget 0";
            let args = parse_line(&format!("{prefix}{zeros}")).unwrap();
            assert_eq!(args.cfg.checkpoint, CheckpointPolicy::default());
        }
        // Flags the binary once had are unknown, not ignored.
        for (line, flag) in [
            (
                "--checkpoint-interval 10 --lossy-restore",
                "--lossy-restore",
            ),
            ("--metastore memory", "--metastore"),
            ("--broken-oracle convergence", "--broken-oracle"),
        ] {
            let err = parse_line(line).unwrap_err();
            assert_eq!(err, format!("unknown argument `{flag}`"));
        }
    }

    #[test]
    fn replay_names_its_app_and_seed_and_takes_no_plan_count() {
        for line in [
            "--replay 6500:kp:0:1",
            "--replay 6500:kp:0:1 --app trend",
            "--replay 6500:kp:0:1 --seed 123",
            "--replay 6500:kp:0:1 --app trend --seed 123 --plans 1",
            "--replay --app trend --seed 123",
            "--replay",
        ] {
            assert!(parse_line(line).is_err(), "`{line}` was accepted");
        }
        let args = parse_line("--replay 6500:kp:0:1 --app trend --seed 123").unwrap();
        assert_eq!(args.replay.unwrap().encode(), "6500:kp:0:1");
        // Outside a replay all three have defaults.
        let args = parse_line("").unwrap();
        assert!(args.replay.is_none() && args.app.is_none());
        assert_eq!((args.cfg.plans, args.cfg.seed, args.cfg.jobs), (50, 7, 1));
        assert!(parse_line("--jobs 0").is_err());
    }
}
