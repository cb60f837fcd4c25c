use crate::campaign::Campaign;
use crate::compare::{compare, parse_set, Verdict};
use crate::json::{self, Json};
use crate::run::{run, RunArgs};
use crate::spec::{durable_policy, Share, END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats::{nearest_rank, percentile, quartiles, supported};
use crate::trace::{self_times, Span};
use orca_harness::{by_name, run_campaign_cached, BaselineCache, CampaignConfig};

#[test]
fn nearest_rank_percentiles() {
    let v: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(nearest_rank(100, 50.0), 50);
    assert_eq!(percentile(&v, 50.0), 50.0);
    assert_eq!(percentile(&v, 90.0), 90.0);
    assert_eq!(percentile(&v, 100.0), 100.0);
    assert_eq!(percentile(&v[..7], 50.0), 4.0);
    assert_eq!(percentile(&v[..1], 90.0), 1.0);
}

#[test]
fn percentile_needs_ten_samples_beyond_it() {
    // p90 of 100 samples is rank 90: exactly ten beyond.
    assert!(supported(100, 90.0));
    assert!(!supported(99, 90.0));
    assert!(supported(200, 95.0));
    assert!(!supported(199, 95.0));
    assert!(supported(20, 50.0));
    assert!(!supported(19, 50.0));
    assert!(!supported(0, 50.0));
}

#[test]
fn quartiles_match_python_statistics_quantiles() {
    let v: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&v), (2.75, 8.25));
    assert_eq!(quartiles(&[3.0, 1.0, 2.0, 4.0]), (1.25, 3.75));
}

fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
    Span {
        name,
        start_ns,
        end_ns,
        parent,
        plan_id: 0,
    }
}

#[test]
fn self_time_is_parent_minus_children_nested_and_adjacent() {
    let spans = [
        span("plan", 0, 100, None),
        span("world", 10, 90, Some(0)),
        // Two adjacent children and one nested grandchild.
        span("build", 10, 30, Some(1)),
        span("drive", 30, 80, Some(1)),
        span("inner", 40, 50, Some(3)),
        // A second root of the same name folds into the same entry.
        span("plan", 100, 130, None),
    ];
    let t = self_times(&spans);
    assert_eq!(t["plan"], (2, 130, 20 + 30));
    assert_eq!(t["world"], (1, 80, 10));
    assert_eq!(t["build"], (1, 20, 20));
    assert_eq!(t["drive"], (1, 50, 40));
    assert_eq!(t["inner"], (1, 10, 10));
    // Self times partition the roots' wall time.
    let total: u64 = t.values().map(|v| v.2).sum();
    assert_eq!(total, 130);
}

#[test]
fn json_round_trip() {
    let text = r#"{"a": [1, 2.5, -3e2], "b": {"c": "x\"y\n", "d": true, "e": null}}"#;
    let v = json::parse(text).unwrap();
    assert_eq!(v.get("a").unwrap().as_arr().unwrap()[2], Json::Num(-300.0));
    let b = v.get("b").unwrap();
    assert_eq!(b.get("c").unwrap().as_str(), Some("x\"y\n"));
    assert_eq!(json::quote("x\"y\n"), r#""x\"y\n""#);
    assert_eq!(b.get("d").unwrap().as_bool(), Some(true));
    assert_eq!(b.get("e"), Some(&Json::Null));
    assert!(json::parse("{\"a\": 1} x").is_err());
    assert!(json::parse("[1, ]").is_err());
}

/// `BENCHMARK.json` sits at the repository root: above this directory
/// whichever of the two manifests built the test.
fn benchmark_json() -> Json {
    let mut dir = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    loop {
        let candidate = dir.join("BENCHMARK.json");
        if candidate.is_file() {
            let text = std::fs::read_to_string(candidate).unwrap();
            return json::parse(&text).unwrap();
        }
        assert!(dir.pop(), "BENCHMARK.json not found above the manifest");
    }
}

#[test]
fn benchmark_json_names_match_the_binary() {
    let b = benchmark_json();
    let names = |key: &str, field: &str| -> Vec<String> {
        b.get(key)
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no array `{key}`"))
            .iter()
            .map(|m| m.get(field).and_then(Json::as_str).unwrap().to_string())
            .collect()
    };
    let workloads: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
    assert_eq!(names("workloads", "name"), workloads);
    let whys: Vec<_> = WORKLOADS.iter().map(|w| w.why).collect();
    assert_eq!(names("workloads", "why"), whys);
    for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        assert_eq!(
            names(key, "name"),
            defs.iter().map(|d| d.name).collect::<Vec<_>>()
        );
        assert_eq!(
            names(key, "unit"),
            defs.iter().map(|d| d.unit).collect::<Vec<_>>()
        );
        assert_eq!(
            names(key, "better"),
            defs.iter().map(|d| d.better.as_str()).collect::<Vec<_>>()
        );
    }
    let bounds: Vec<f64> = b
        .get("end_to_end")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|m| m.get("bound").and_then(Json::as_f64).unwrap())
        .collect();
    let declared: Vec<f64> = END_TO_END.iter().map(|d| d.bound.unwrap()).collect();
    assert_eq!(bounds, declared);
    assert!(bounds.iter().all(|&x| x > 0.0 && x <= 0.25));
    assert!(END_TO_END.iter().any(|d| d.name == "setup_s"));
    assert!(PER_LAYER.len() <= 128);
}

fn smoke(workload: &'static str, trace: bool) {
    let result = run(&RunArgs {
        workload: WORKLOADS.iter().find(|w| w.name == workload).unwrap(),
        seed: 7,
        seconds: 1.0,
        trace,
        smoke: true,
        trace_out: None,
    });
    assert_eq!(result.problems, Vec::<String>::new());
    assert_eq!(result.failed, 0);
    assert!(result.correct() && result.attempted > 0);
    let expected = if trace { PER_LAYER } else { END_TO_END };
    let names: Vec<_> = result.metrics.iter().map(|m| m.name).collect();
    assert_eq!(names, expected.iter().map(|d| d.name).collect::<Vec<_>>());
    assert!(result.metrics.iter().all(|m| m.value.median.is_finite()));
}

#[test]
fn smoke_campaign_small() {
    smoke("campaign_small", false);
}

#[test]
fn smoke_campaign_social() {
    smoke("campaign_social", false);
}

#[test]
fn smoke_campaign_durable() {
    smoke("campaign_durable", false);
}

#[test]
fn smoke_datapath() {
    smoke("datapath", false);
}

/// The traced twin reproduces the product path's digests and step counts
/// (any mismatch is a reported problem), on a campaign workload and, through
/// the reference block, under the durable policy.
#[test]
fn smoke_traced_datapath_with_durable_reference() {
    smoke("datapath", true);
}

/// The benchmark measures the product path, not a look-alike: its per-plan
/// digest fold is `run_campaign_cached`'s, plain and durable.
#[test]
fn digest_fold_equals_campaign_report() {
    let seed = 7;
    let plain = [
        Share {
            app: "live",
            plans: 3,
        },
        Share {
            app: "trend",
            plans: 2,
        },
    ];
    let durable = [Share {
        app: "sentiment",
        plans: 2,
    }];
    for (mix, is_durable) in [(&plain[..], false), (&durable[..], true)] {
        let mut campaign = Campaign::new(mix, is_durable, seed, false);
        for (app, plans, digest) in campaign.lane_digests() {
            let policy = if is_durable {
                durable_policy()
            } else {
                Default::default()
            };
            let cfg = CampaignConfig {
                plans,
                seed,
                checkpoint: policy.checkpoint,
                metastore: policy.metastore,
                control_faults: is_durable,
                ..CampaignConfig::default()
            };
            let report = run_campaign_cached(&by_name(app).unwrap(), &cfg, &BaselineCache::new());
            assert_eq!(report.plans_failed, 0);
            assert_eq!(digest, report.digest, "{app} durable={is_durable}");
        }
    }
}

fn record(workload: &str, seed: u64, digest: &str, plans_per_s: f64, p50: f64) -> String {
    format!(
        r#"{{"workload": "{workload}", "seed": {seed}, "seconds": 15, "trace": false, "smoke": false, "sim_digest": "{digest}", "correct": true, "attempted": 10, "failed": 0, "metrics": {{"plans_per_s": {{"value": {plans_per_s}, "unit": "1/s", "min": {plans_per_s}, "max": {plans_per_s}, "samples": 1}}, "plan_ms_p50": {{"value": {p50}, "unit": "ms", "min": {p50}, "max": {p50}, "samples": 1}}}}}}"#
    )
}

#[test]
fn compare_verdicts() {
    let set = |rows: &[(u64, &str, f64, f64)]| {
        let text: Vec<String> = rows
            .iter()
            .map(|&(seed, d, r, p)| record("datapath", seed, d, r, p))
            .collect();
        parse_set(&text.join("\n")).unwrap()
    };
    let before = set(&[(7, "aa", 100.0, 10.0), (7, "aa", 102.0, 10.1)]);
    // Throughput 3 % down (within 10 %), latency 30 % up (beyond it).
    let after = set(&[(7, "aa", 97.0, 13.0), (7, "aa", 99.0, 13.2)]);
    let (rows, mismatches) = compare(&before, &after);
    assert!(mismatches.is_empty());
    let verdict = |rows: &[crate::compare::Row], m: &str| {
        rows.iter().find(|r| r.metric == m).unwrap().verdict
    };
    assert_eq!(verdict(&rows, "plans_per_s"), Verdict::Ok);
    assert_eq!(verdict(&rows, "plan_ms_p50"), Verdict::Worse);
    let row = rows.iter().find(|r| r.metric == "plans_per_s").unwrap();
    assert!((row.worse_by - 0.0297).abs() < 1e-3, "{}", row.worse_by);

    // Runs that disagree by more than the bound cannot show "unchanged".
    let noisy = set(&[(7, "aa", 80.0, 10.0), (7, "aa", 120.0, 10.0)]);
    let (rows, _) = compare(&before, &noisy);
    assert_eq!(verdict(&rows, "plans_per_s"), Verdict::Unresolved);

    // Same seed, different simulation: reported whatever the timings say.
    let drifted = set(&[(7, "bb", 100.0, 10.0)]);
    let (_, mismatches) = compare(&before, &drifted);
    assert_eq!(mismatches.len(), 1);
    // A different seed is a different simulation by design.
    let other_seed = set(&[(8, "cc", 100.0, 10.0)]);
    assert!(compare(&before, &other_seed).1.is_empty());

    let smoke =
        record("datapath", 7, "aa", 1.0, 1.0).replace("\"smoke\": false", "\"smoke\": true");
    assert!(parse_set(&smoke).is_err());
}
