//! Baseline-cache semantics: memoizing fault-free baselines by their input
//! fingerprint must be invisible in every campaign report — byte-identical
//! with the cache enabled, disabled, warmed, capacity-squeezed, and at any
//! `--jobs` count — while the hit/miss accounting itself stays
//! deterministic so `--timing` numbers are comparable across runs.

#![forbid(unsafe_code)]

use orca_harness::{
    run_campaign_cached, scenario, BaselineCache, CacheStats, CampaignConfig, CampaignReport,
    CheckpointPolicy, StorageModel, DEFAULT_BASELINE_CAPACITY,
};

/// Canonical whole-report rendering (see `CampaignReport::render`).
fn render_of(report: CampaignReport) -> String {
    report.render()
}

fn cfg(plans: usize, jobs: usize, ckpt: u32) -> CampaignConfig {
    CampaignConfig {
        plans,
        seed: 0xC0FFEE,
        jobs,
        checkpoint: if ckpt > 0 {
            CheckpointPolicy::every(ckpt)
        } else {
            CheckpointPolicy::default()
        },
        ..Default::default()
    }
}

#[test]
fn reports_are_byte_identical_cache_on_vs_off_on_every_app() {
    // Plain and checkpointed, across all four apps: memoization must be
    // pure perf — not a single report byte may depend on it.
    for sc in scenario::all() {
        for ckpt in [0u32, 10] {
            let config = cfg(3, 1, ckpt);
            let cached = render_of(run_campaign_cached(&sc, &config, &BaselineCache::new()));
            let uncached = render_of(run_campaign_cached(
                &sc,
                &config,
                &BaselineCache::disabled(),
            ));
            assert_eq!(
                cached, uncached,
                "[{} ckpt={ckpt}] report depends on the baseline cache",
                sc.name
            );
        }
    }
}

#[test]
fn cache_hit_accounting_is_deterministic_across_jobs() {
    // Per-plan keys are disjoint (unique seeds) and the determinism replay
    // always follows its primary run, so hit/miss totals are a pure
    // function of the campaign — identical at jobs 1 and jobs 4, run to
    // run. One miss per plan (the primary), one hit per plan (the replay).
    let sc = scenario::trend();
    let mut stats: Vec<CacheStats> = Vec::new();
    for jobs in [1usize, 4, 4] {
        let cache = BaselineCache::new();
        let report = run_campaign_cached(&sc, &cfg(4, jobs, 10), &cache);
        assert_eq!(report.plans_failed, 0, "jobs={jobs}");
        stats.push(cache.stats());
    }
    assert_eq!(stats[0], stats[1], "hit accounting depends on --jobs");
    assert_eq!(stats[1], stats[2], "hit accounting is nondeterministic");
    assert_eq!(stats[0], CacheStats { hits: 4, misses: 4 });
}

#[test]
fn warm_cache_reuses_every_baseline_across_repeated_campaigns() {
    // The repeated-campaign regime the memo exists for: a second identical
    // campaign on the same cache computes zero baselines and reports the
    // same bytes.
    let sc = scenario::live();
    let cache = BaselineCache::new();
    let config = cfg(3, 1, 10);
    let first = render_of(run_campaign_cached(&sc, &config, &cache));
    let cold = cache.stats();
    assert_eq!(cold.misses, 3, "one baseline per plan seed");
    let second = render_of(run_campaign_cached(&sc, &config, &cache));
    let warm = cache.stats().since(cold);
    assert_eq!(first, second);
    assert_eq!(warm.misses, 0, "warm campaign recomputed a baseline");
    assert_eq!(warm.hits, 6, "2 lookups per plan (primary + replay)");
    assert_eq!(warm.hit_rate(), 1.0);
}

#[test]
fn one_baseline_serves_every_checkpointed_policy() {
    // A baseline is the plain world whatever the plan's policy, keyed by
    // `(scenario, seed, floor)`: campaigns of one seed under other
    // checkpointed policies find every baseline a `ckpt=10` campaign left,
    // and report what they report on a fresh cache.
    let sc = scenario::trend();
    let cache = BaselineCache::new();
    run_campaign_cached(&sc, &cfg(3, 1, 10), &cache);
    let with = |checkpoint: CheckpointPolicy| CampaignConfig {
        checkpoint,
        ..cfg(3, 1, 10)
    };
    let budget = StorageModel::default().with_write(250, 0).with_budget(4096);
    for config in [
        with(CheckpointPolicy::every(10).upstream_backup(true)),
        with(CheckpointPolicy::every(5).storage(budget)),
    ] {
        let before = cache.stats();
        let warm = render_of(run_campaign_cached(&sc, &config, &cache));
        assert_eq!(cache.stats().since(before).misses, 0, "{config:?}");
        let fresh = render_of(run_campaign_cached(&sc, &config, &BaselineCache::new()));
        assert_eq!(warm, fresh, "{config:?}");
    }
}

#[test]
fn capacity_squeezed_cache_still_yields_identical_reports() {
    // A one-entry cache thrashes (plans evict each other) but eviction only
    // costs recomputation — the report must not move by a byte, and the
    // memo must never exceed its bound.
    let sc = scenario::trend();
    let config = cfg(3, 1, 10);
    let tiny = BaselineCache::with_capacity(1);
    let squeezed = render_of(run_campaign_cached(&sc, &config, &tiny));
    let roomy = render_of(run_campaign_cached(&sc, &config, &BaselineCache::new()));
    assert_eq!(squeezed, roomy, "eviction leaked into the report");
    assert!(tiny.len() <= 1, "capacity bound violated");
    // Sequential plans never revisit a key mid-plan, so the replay hit
    // pattern survives even a single-slot memo.
    assert_eq!(tiny.stats(), CacheStats { hits: 3, misses: 3 });
}

#[test]
fn a_default_memo_holds_what_a_longer_campaign_revisits() {
    // More plans than the default capacity: the memo evicts what no lookup
    // will ask for again, yet every determinism replay still hits its
    // primary run's entry, at one worker and at four, and the report is
    // the one a disabled cache gives.
    let sc = scenario::live();
    let plans = 80;
    assert!(plans > DEFAULT_BASELINE_CAPACITY);
    let reference = render_of(run_campaign_cached(
        &sc,
        &cfg(plans, 1, 10),
        &BaselineCache::disabled(),
    ));
    for jobs in [1usize, 4] {
        let cache = BaselineCache::new();
        let report = render_of(run_campaign_cached(&sc, &cfg(plans, jobs, 10), &cache));
        assert!(cache.len() <= DEFAULT_BASELINE_CAPACITY, "jobs={jobs}");
        let n = plans as u64;
        assert_eq!(
            cache.stats(),
            CacheStats { hits: n, misses: n },
            "jobs={jobs}"
        );
        assert_eq!(report, reference, "jobs={jobs}");
    }
}
