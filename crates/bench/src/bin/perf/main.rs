//! `perf` — the repository's benchmark: campaign throughput, simulator speed
//! and the data path, measured from outside through the layers' public
//! functions, with a separate traced run that says where the time goes.
//! See `README.md` beside this file for the metric glossary and run shape.
//!
//! ```text
//! perf run --workload campaign_small --seed 7 --seconds 20 --trace 0
//! perf run --workload campaign_social --seed 7 --seconds 20 --trace 1 --trace-out spans.jsonl
//! perf run --workload datapath --smoke
//! perf compare before.jsonl after.jsonl
//! ```
//!
//! `run` prints every metric by name with unit, direction and bound, checks
//! the outputs, and ends with one JSON line `{"correct", "attempted",
//! "failed", "metrics"}`; it exits non-zero when any check failed. `--out
//! FILE` appends the run as one JSON record, the input of `compare`.

mod calib;
mod campaign;
mod clock;
mod compare;
mod datapath;
mod json;
mod mirror;
mod probes;
mod run;
mod spec;
mod stats;
#[cfg(test)]
mod tests;
mod trace;

use run::{RunArgs, RunResult};
use spec::{MetricDef, END_TO_END, PER_LAYER, WORKLOADS};
use std::io::Write;
use std::process::ExitCode;

const USAGE: &str = "usage: perf run --workload <name> [--seed N] [--seconds S] [--trace 0|1] \
                     [--smoke] [--out FILE] [--trace-out FILE]\n       \
                     perf compare <before.jsonl> <after.jsonl>";

struct Cli {
    run: RunArgs,
    out: Option<String>,
}

fn parse_run(mut it: impl Iterator<Item = String>) -> Result<Cli, String> {
    let mut workload = None;
    let mut cli = Cli {
        run: RunArgs {
            workload: &WORKLOADS[0],
            seed: 7,
            seconds: 20.0,
            trace: false,
            smoke: false,
            trace_out: None,
        },
        out: None,
    };
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(spec::workload(&name).ok_or_else(|| {
                    let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload `{name}` (one of: {})", names.join(", "))
                })?);
            }
            "--seed" => cli.run.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                cli.run.seconds = s;
            }
            "--trace" => {
                cli.run.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--smoke" => cli.run.smoke = true,
            "--out" => cli.out = Some(value()?),
            "--trace-out" => cli.run.trace_out = Some(value()?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    cli.run.workload = workload.ok_or("--workload is required")?;
    Ok(cli)
}

fn def_of(name: &str) -> &'static MetricDef {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|d| d.name == name)
        .expect("every emitted metric is declared in spec.rs")
}

fn print_report(r: &RunResult) {
    println!(
        "perf run: workload={} seed={} seconds={} trace={} smoke={} load=one thread, closed loop",
        r.workload, r.seed, r.seconds, r.trace as u8, r.smoke
    );
    if let Some(w) = spec::workload(r.workload) {
        println!("  why: {}", w.why);
    }
    for m in &r.metrics {
        let def = def_of(m.name);
        let bound = def
            .bound
            .map_or(String::new(), |b| format!(" bound {:.0}%", b * 100.0));
        let spread = if m.value.samples > 1 {
            format!(
                " [min {:.4} max {:.4} over {}]",
                m.value.min, m.value.max, m.value.samples
            )
        } else {
            String::new()
        };
        println!(
            "  {:<48} {:>16.4} {:<6} {}-is-better{bound}{spread}",
            m.name,
            m.value.median,
            m.unit,
            def.better.as_str()
        );
    }
    if let (Some(raw), Some(slow)) = (&r.raw_plans_per_s, &r.slowdown) {
        println!(
            "  times and rates are at reference speed; wall clock: plans_per_s={:.4} \
             [min {:.4} max {:.4}], host slowdown {:.3} [min {:.3} max {:.3}]",
            raw.median, raw.min, raw.max, slow.median, slow.min, slow.max
        );
    }
    println!(
        "  sim_digest={:016x} (block 0) run_digest={:016x} over {} timed blocks",
        r.sim_digest, r.run_digest, r.blocks
    );
    println!(
        "  failed_frac={} ({} of {} operations)",
        r.failed as f64 / r.attempted.max(1) as f64,
        r.failed,
        r.attempted
    );
    if r.skipped > 0 {
        println!(
            "  {} plans left out: their partitions outlast the liveness deadline",
            r.skipped
        );
    }
    if !r.trace && !r.p90_supported && !r.smoke {
        println!("  note: fewer than 10 samples beyond plan_ms_p90; run longer");
    }
    for p in &r.problems {
        println!("  FAILED: {p}");
    }
}

fn metrics_json(r: &RunResult, rich: bool) -> String {
    let items: Vec<String> = r
        .metrics
        .iter()
        .map(|m| {
            let mut fields = format!(
                "\"value\": {}, \"unit\": {}",
                json::num(m.value.median),
                json::quote(m.unit)
            );
            if rich {
                fields.push_str(&format!(
                    ", \"min\": {}, \"max\": {}, \"samples\": {}",
                    json::num(m.value.min),
                    json::num(m.value.max),
                    m.value.samples
                ));
            }
            format!("{}: {{{fields}}}", json::quote(m.name))
        })
        .collect();
    format!("{{{}}}", items.join(", "))
}

/// The driver's contract: exactly these four keys, as the last stdout line.
fn result_line(r: &RunResult) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        r.correct(),
        r.attempted.max(1),
        r.failed,
        metrics_json(r, false)
    )
}

/// One record of a result set (`--out`), the input of `perf compare`.
fn record_line(r: &RunResult) -> String {
    format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"smoke\": {}, \
         \"sim_digest\": \"{:016x}\", \"correct\": {}, \"attempted\": {}, \"failed\": {}, \
         \"metrics\": {}}}",
        json::quote(r.workload),
        r.seed,
        json::num(r.seconds),
        r.trace,
        r.smoke,
        r.sim_digest,
        r.correct(),
        r.attempted,
        r.failed,
        metrics_json(r, true)
    )
}

fn run_command(cli: &Cli) -> Result<ExitCode, String> {
    let result = run::run(&cli.run);
    print_report(&result);
    if let Some(path) = &cli.out {
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("{path}: {e}"))?;
        writeln!(file, "{}", record_line(&result)).map_err(|e| format!("{path}: {e}"))?;
    }
    println!("{}", result_line(&result));
    Ok(if result.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let outcome = match args.next().as_deref() {
        Some("run") => parse_run(args).and_then(|cli| run_command(&cli)),
        Some("compare") => match (args.next(), args.next(), args.next()) {
            (Some(a), Some(b), None) => compare::command(&a, &b),
            _ => Err(USAGE.to_string()),
        },
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(code) => code,
        Err(message) => {
            eprintln!("perf: {message}");
            ExitCode::from(2)
        }
    }
}
