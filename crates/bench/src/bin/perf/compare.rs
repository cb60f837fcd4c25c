//! `perf compare A B`: two result sets (files of `--out` records), one row
//! per workload and end-to-end metric, judged against the metric's bound.

use crate::json::{self, Json};
use crate::spec::{Better, MetricDef, END_TO_END, WORKLOADS};
use crate::stats::{median, quartiles};
use std::collections::BTreeMap;
use std::process::ExitCode;

/// One untraced run of a result set.
#[derive(Clone, Debug, PartialEq)]
pub struct Record {
    pub workload: String,
    pub seed: u64,
    pub sim_digest: String,
    /// name -> (value, min, max) of the run.
    pub metrics: BTreeMap<String, (f64, f64, f64)>,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    pub workload: &'static str,
    pub metric: &'static str,
    pub before: f64,
    pub after: f64,
    /// Share of `before` by which `after` is worse (negative: better).
    pub worse_by: f64,
    /// The wider of the two sets' spreads, as a share of the set's median.
    pub spread: f64,
    pub verdict: Verdict,
}

/// Parses a result set: one JSON record per non-empty line. Traced records
/// carry no end-to-end metrics and are skipped; smoke records are refused.
pub fn parse_set(text: &str) -> Result<Vec<Record>, String> {
    let mut out = Vec::new();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let rec = json::parse(line).map_err(|e| format!("line {}: {e}", n + 1))?;
        let field = |key: &str| rec.get(key).ok_or(format!("line {}: no `{key}`", n + 1));
        if field("smoke")?.as_bool() == Some(true) {
            return Err(format!("line {}: smoke runs are not comparable", n + 1));
        }
        if field("trace")?.as_bool() == Some(true) {
            continue;
        }
        let mut metrics = BTreeMap::new();
        for (name, m) in field("metrics")?.as_obj().into_iter().flatten() {
            let num = |key: &str| m.get(key).and_then(Json::as_f64);
            if let Some(value) = num("value") {
                metrics.insert(
                    name.clone(),
                    (
                        value,
                        num("min").unwrap_or(value),
                        num("max").unwrap_or(value),
                    ),
                );
            }
        }
        out.push(Record {
            workload: field("workload")?.as_str().unwrap_or_default().to_string(),
            seed: field("seed")?.as_f64().unwrap_or(0.0) as u64,
            sim_digest: field("sim_digest")?
                .as_str()
                .unwrap_or_default()
                .to_string(),
            metrics,
        });
    }
    Ok(out)
}

/// Median of a metric over a set's runs and the set's spread: quartile
/// distance over median with four or more runs, (max - min) over median with
/// two or three, and the single run's own min-max otherwise.
fn centre_and_spread(runs: &[(f64, f64, f64)]) -> (f64, f64) {
    let values: Vec<f64> = runs.iter().map(|r| r.0).collect();
    let centre = median(&values);
    let width = match runs {
        [(_, min, max)] => max - min,
        _ if runs.len() >= 4 => {
            let (q1, q3) = quartiles(&values);
            q3 - q1
        }
        _ => {
            values.iter().copied().fold(f64::NEG_INFINITY, f64::max)
                - values.iter().copied().fold(f64::INFINITY, f64::min)
        }
    };
    (centre, (width / centre).abs())
}

fn judge(def: &MetricDef, before: f64, after: f64, spread: f64) -> (f64, Verdict) {
    let worse_by = match def.better {
        Better::Higher => (before - after) / before,
        Better::Lower => (after - before) / before,
    };
    let bound = def.bound.expect("end-to-end metrics carry a bound");
    let verdict = if worse_by > bound {
        Verdict::Worse
    } else if spread > bound {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    };
    (worse_by, verdict)
}

/// Rows for every workload both sets ran, plus the `sim_digest` mismatches
/// between runs of the same workload and seed.
pub fn compare<'a>(before: &'a [Record], after: &'a [Record]) -> (Vec<Row>, Vec<String>) {
    let mut rows = Vec::new();
    let mut mismatches = Vec::new();
    for w in WORKLOADS {
        let of = |set: &'a [Record]| -> Vec<&'a Record> {
            set.iter().filter(|r| r.workload == w.name).collect()
        };
        let (a, b) = (of(before), of(after));
        if a.is_empty() || b.is_empty() {
            continue;
        }
        for ra in &a {
            for rb in b.iter().filter(|rb| rb.seed == ra.seed) {
                if ra.sim_digest != rb.sim_digest {
                    mismatches.push(format!(
                        "{} seed {}: sim_digest {} vs {}",
                        w.name, ra.seed, ra.sim_digest, rb.sim_digest
                    ));
                }
            }
        }
        mismatches.dedup();
        for def in END_TO_END {
            let runs = |set: &[&Record]| -> Vec<(f64, f64, f64)> {
                set.iter()
                    .filter_map(|r| r.metrics.get(def.name).copied())
                    .collect()
            };
            let (ra, rb) = (runs(&a), runs(&b));
            if ra.is_empty() || rb.is_empty() {
                continue;
            }
            let (before, spread_a) = centre_and_spread(&ra);
            let (after, spread_b) = centre_and_spread(&rb);
            let spread = spread_a.max(spread_b);
            let (worse_by, verdict) = judge(def, before, after, spread);
            rows.push(Row {
                workload: w.name,
                metric: def.name,
                before,
                after,
                worse_by,
                spread,
                verdict,
            });
        }
    }
    (rows, mismatches)
}

pub fn command(before_path: &str, after_path: &str) -> Result<ExitCode, String> {
    let read = |path: &str| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("{path}: {e}"))
            .and_then(|text| parse_set(&text).map_err(|e| format!("{path}: {e}")))
    };
    let (rows, mismatches) = compare(&read(before_path)?, &read(after_path)?);
    if rows.is_empty() {
        return Err("the two sets share no workload".to_string());
    }
    println!(
        "{:<18} {:<14} {:>14} {:>14} {:>9} {:>8} {:>7}  verdict",
        "workload", "metric", "before", "after", "worse by", "spread", "bound"
    );
    for r in &rows {
        let def = END_TO_END
            .iter()
            .find(|d| d.name == r.metric)
            .expect("rows are built from END_TO_END");
        println!(
            "{:<18} {:<14} {:>14.4} {:>14.4} {:>8.2}% {:>7.2}% {:>6.0}%  {}",
            r.workload,
            r.metric,
            r.before,
            r.after,
            r.worse_by * 100.0,
            r.spread * 100.0,
            def.bound.unwrap_or(0.0) * 100.0,
            r.verdict.as_str()
        );
    }
    for m in &mismatches {
        println!("sim_digest mismatch: {m}");
    }
    let worse = rows.iter().filter(|r| r.verdict == Verdict::Worse).count();
    let unresolved = rows
        .iter()
        .filter(|r| r.verdict == Verdict::Unresolved)
        .count();
    println!(
        "{} rows: {worse} worse, {unresolved} unresolved, {} sim_digest mismatches",
        rows.len(),
        mismatches.len()
    );
    Ok(if worse > 0 || !mismatches.is_empty() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}
