//! The benchmark's only source of host time and host memory readings.
//!
//! Everything else in `perf/` measures through [`Tick`], so the one place
//! that reads the wall clock is the one place that needs an sslint allow.

use std::time::Instant;

/// A point in host time. Differences are reported in nanoseconds.
#[derive(Clone, Copy, Debug)]
pub struct Tick(Instant);

impl Tick {
    pub fn now() -> Tick {
        // sslint: allow(ambient-authority, the benchmark times calls into the layers from outside; no reading reaches a digest or the simulation)
        Tick(Instant::now())
    }

    /// Nanoseconds from `earlier` to `self` (0 if `earlier` is later).
    pub fn since(self, earlier: Tick) -> u64 {
        self.0.saturating_duration_since(earlier.0).as_nanos() as u64
    }
}

/// Nanoseconds as fractional seconds.
pub fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// Peak resident set of this process in MiB (`VmHWM`), if the platform
/// exposes it.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
