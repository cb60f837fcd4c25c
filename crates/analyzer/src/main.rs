//! `sslint` CLI.
//!
//! ```text
//! sslint [--deny] [--adl] [--paths P...]
//! ```
//!
//! Default mode lints every `.rs` file under the workspace `crates/`
//! directory (vendor/, target/, tests/, fixtures/ excluded) and prints one
//! `sslint: <rule> <path>:<line> <message>` diagnostic per finding plus a
//! trailing summary line. `--adl` additionally compiles the campaign
//! applications and runs the static graph verifier over each. `--deny`
//! turns findings (and ADL verifier errors) into a non-zero exit — the CI
//! gate. `--paths` restricts the lint to explicit files/directories (used
//! to lint the fixture corpus on purpose).

#![forbid(unsafe_code)]

use std::path::{Path, PathBuf};
use std::process::ExitCode;

const HELP: &str = "sslint [--deny] [--adl] [--adl-only] [--paths P...]\n\
                    \n\
                    --deny       exit non-zero on any finding or verifier error\n\
                    --adl        also statically verify the campaign application graphs\n\
                    --adl-only   skip the source lint, run only the graph verifier\n\
                    --paths P..  lint these files/dirs instead of the workspace";

/// What the command line asked for.
struct Options {
    deny: bool,
    adl: bool,
    lint: bool,
    paths: Vec<PathBuf>,
}

/// The options, or the exit code of `--help` or of an unknown argument.
fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Options, ExitCode> {
    let mut options = Options {
        deny: false,
        adl: false,
        lint: true,
        paths: Vec::new(),
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--deny" => options.deny = true,
            "--adl" => options.adl = true,
            "--adl-only" => {
                options.adl = true;
                options.lint = false;
            }
            "--paths" => options.paths.extend(args.by_ref().map(PathBuf::from)),
            "--help" | "-h" => {
                println!("{HELP}");
                return Err(ExitCode::SUCCESS);
            }
            other => {
                eprintln!("sslint: unknown argument `{other}` (try --help)");
                return Err(ExitCode::from(2));
            }
        }
    }
    Ok(options)
}

/// Lints `paths` (the workspace's `crates/` when empty) and prints every
/// finding and a summary; the number of findings, or the exit code of a
/// failed scan.
fn lint(base: &Path, paths: Vec<PathBuf>) -> Result<usize, ExitCode> {
    let roots = if paths.is_empty() {
        vec![base.join("crates")]
    } else {
        paths
    };
    match analyzer::scan_paths(base, &roots) {
        Ok(diags) => {
            for d in &diags {
                println!("{}", d.render());
            }
            println!(
                "sslint: lint summary: {} finding(s) across {} root(s)",
                diags.len(),
                roots.len()
            );
            Ok(diags.len())
        }
        Err(e) => {
            eprintln!("sslint: scan failed: {e}");
            Err(ExitCode::from(2))
        }
    }
}

/// Verifies the campaign application graphs and prints every verifier line
/// and a summary; the number of errors.
fn verify_adls() -> usize {
    let reports = analyzer::adl::verify_campaign_apps();
    let (mut errors, mut warnings) = (0, 0);
    for r in &reports {
        for line in &r.lines {
            println!("sslint: adl {line}");
        }
        errors += r.errors;
        warnings += r.warnings;
    }
    println!(
        "sslint: adl summary: {} app(s), {} error(s), {} warning(s)",
        reports.len(),
        errors,
        warnings
    );
    errors
}

fn main() -> ExitCode {
    let options = match parse_args(std::env::args().skip(1)) {
        Ok(options) => options,
        Err(code) => return code,
    };
    let cwd = std::env::current_dir().expect("cwd");
    let base = analyzer::workspace_root(&cwd).unwrap_or_else(|| cwd.clone());
    let mut failures = 0usize;
    if options.lint {
        match lint(&base, options.paths) {
            Ok(findings) => failures += findings,
            Err(code) => return code,
        }
    }
    if options.adl {
        failures += verify_adls();
    }
    if options.deny && failures > 0 {
        eprintln!("sslint: denying: {failures} blocking finding(s)");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
