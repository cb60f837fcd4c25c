//! `sslint` — workspace determinism linter + static ADL verifier.
//!
//! Every claim the campaign pipeline makes (bit-identical replay,
//! byte-identical reports across `--jobs`, digest-verified restores) rests
//! on the codebase staying free of nondeterminism hazards. This crate is the
//! static pass that keeps it that way at PR time:
//!
//! - **R1 `unordered-iter`** — no iteration over `HashMap`/`HashSet`
//!   (`.iter()`, `.keys()`, `.values()`, `.drain()`, `for … in &map`) in
//!   crates on the digest path ([`DIGEST_PATH_CRATES`]), unless the site
//!   feeds a sorting adapter within two lines or carries an allow.
//! - **R2 `ambient-authority`** — no `Instant::now`, `SystemTime`,
//!   `thread_rng`, `rand::random`, or `std::thread::spawn` anywhere in the
//!   workspace (the metastore's replicated follower choice is the canonical
//!   seeded-draw site the `rand::random` matcher protects),
//!   outside [`AMBIENT_ALLOWED_FILES`] (the deterministic harness pool) or
//!   an annotated allow.
//! - **R3 `ckpt-contract`** — an `impl Operator` whose type has mutable
//!   state must override both `checkpoint` and `restore` (state that exists
//!   but is never saved silently breaks every recovery claim).
//! - **R4 `float-digest`** — no `f32`/`f64` formatting or hashing inside
//!   digest / `StateWriter` paths; floats must round-trip through
//!   `to_bits`/`from_bits` or the `*_le` canonical codec.
//!
//! Escape hatch: `// sslint: allow(rule, reason)` on the offending line or
//! the line above. The reason is mandatory (`bad-allow` otherwise) and the
//! allow must actually suppress something (`unused-allow` otherwise).
//!
//! The scanner is deliberately dependency-free: a lightweight lexer
//! ([`lexer`]) rather than `syn`, so it builds instantly and works in the
//! vendored, no-crates.io environment. The second layer, `sslint --adl`,
//! compiles the four real applications and runs
//! [`sps_model::verify_graph`] over them (see [`adl`]).

#![forbid(unsafe_code)]

pub mod adl;
pub mod lexer;
pub mod rules;

use rules::{FileClass, Finding};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Crates whose in-tree order can reach a digest, a determinism artifact,
/// or checkpoint state; R1/R4 apply here.
pub const DIGEST_PATH_CRATES: &[&str] = &["sim", "engine", "runtime", "model", "harness"];

/// Files exempt from R2: the harness worker pool is the one sanctioned
/// thread-spawn site (deterministic indexed scope-join, no ambient input).
pub const AMBIENT_ALLOWED_FILES: &[&str] = &["crates/harness/src/pool.rs"];

/// Directory names never descended into during a workspace walk. `tests`
/// directories hold integration tests (exempt, like `#[cfg(test)]` blocks);
/// `fixtures` hold the linter's own deliberately-broken corpus.
const SKIP_DIRS: &[&str] = &["target", "vendor", ".git", "tests", "fixtures"];

/// One workspace-level finding: a rule violation pinned to file and line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    pub rule: &'static str,
    /// Path relative to the scan root where possible.
    pub path: String,
    pub line: u32,
    pub message: String,
}

impl Diagnostic {
    /// Stable machine-readable form: `sslint: <rule> <path>:<line> <msg>`.
    pub fn render(&self) -> String {
        format!(
            "sslint: {} {}:{} {}",
            self.rule, self.path, self.line, self.message
        )
    }
}

/// Determines which rule sets apply to a file, from its path alone.
///
/// The linter's own fixture corpus is classified as digest-path so R1/R4
/// fixtures exercise the strictest class.
pub fn classify(rel_path: &Path) -> FileClass {
    let components: Vec<&str> = rel_path
        .components()
        .filter_map(|c| c.as_os_str().to_str())
        .collect();
    let digest_path = components
        .iter()
        .position(|c| *c == "crates")
        .and_then(|i| components.get(i + 1))
        .is_some_and(|krate| DIGEST_PATH_CRATES.contains(krate))
        || components.contains(&"fixtures");
    let unix: String = components.join("/");
    let ambient_allowed = AMBIENT_ALLOWED_FILES.iter().any(|f| unix.ends_with(f));
    FileClass {
        digest_path,
        ambient_allowed,
    }
}

/// Lints one file's source text under its path-derived classification.
pub fn check_source(rel_path: &Path, src: &str) -> Vec<Diagnostic> {
    let rel = rel_path.display().to_string();
    rules::check_file(src, classify(rel_path))
        .into_iter()
        .map(
            |Finding {
                 rule,
                 line,
                 message,
             }| Diagnostic {
                rule,
                path: rel.clone(),
                line,
                message,
            },
        )
        .collect()
}

/// Walks each root (file or directory) and lints every `.rs` file found,
/// skipping [`SKIP_DIRS`] during descent. Explicitly-passed roots are always
/// scanned, even when named like a skipped directory — that is how the
/// fixture corpus is linted on purpose.
pub fn scan_paths(base: &Path, roots: &[PathBuf]) -> io::Result<Vec<Diagnostic>> {
    let mut files = Vec::new();
    for root in roots {
        collect_rs_files(root, &mut files)?;
    }
    files.sort();
    files.dedup();
    let mut out = Vec::new();
    for file in files {
        let src = fs::read_to_string(&file)?;
        let rel = file.strip_prefix(base).unwrap_or(&file);
        out.extend(check_source(rel, &src));
    }
    Ok(out)
}

fn collect_rs_files(root: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    if root.is_file() {
        if root.extension().is_some_and(|e| e == "rs") {
            out.push(root.to_path_buf());
        }
        return Ok(());
    }
    // Deterministic traversal order: sort directory entries by name.
    let mut entries: Vec<PathBuf> = fs::read_dir(root)?
        .map(|e| e.map(|e| e.path()))
        .collect::<io::Result<_>>()?;
    entries.sort();
    for entry in entries {
        if entry.is_dir() {
            let name = entry.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if SKIP_DIRS.contains(&name) {
                continue;
            }
            collect_rs_files(&entry, out)?;
        } else if entry.extension().is_some_and(|e| e == "rs") {
            out.push(entry);
        }
    }
    Ok(())
}

/// Finds the workspace root by walking up from `start` to the first
/// directory whose `Cargo.toml` declares `[workspace]`.
pub fn workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_digest_path_crates() {
        assert!(classify(Path::new("crates/sim/src/scheduler.rs")).digest_path);
        assert!(classify(Path::new("crates/harness/src/cache.rs")).digest_path);
        assert!(!classify(Path::new("crates/apps/src/live.rs")).digest_path);
        assert!(!classify(Path::new("crates/bench/src/bin/campaign.rs")).digest_path);
    }

    #[test]
    fn classify_ambient_allowlist() {
        assert!(classify(Path::new("crates/harness/src/pool.rs")).ambient_allowed);
        assert!(!classify(Path::new("crates/harness/src/runner.rs")).ambient_allowed);
    }

    #[test]
    fn classify_fixture_corpus_is_digest_path() {
        let c = classify(Path::new("crates/analyzer/tests/fixtures/r1/bad.rs"));
        assert!(c.digest_path);
        assert!(!c.ambient_allowed);
    }

    #[test]
    fn render_is_greppable() {
        let d = Diagnostic {
            rule: rules::R2_AMBIENT_AUTHORITY,
            path: "crates/x/src/lib.rs".into(),
            line: 7,
            message: "wall clock".into(),
        };
        assert_eq!(
            d.render(),
            "sslint: ambient-authority crates/x/src/lib.rs:7 wall clock"
        );
    }
}
