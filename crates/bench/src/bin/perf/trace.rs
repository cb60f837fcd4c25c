//! In-memory spans around the benchmark's own calls into each layer, the
//! quantum-level folds too numerous to keep as spans, and the self-time
//! arithmetic that turns both into per-layer shares.

use crate::clock::Tick;
use crate::stats::Agg;
use std::collections::BTreeMap;

/// One timed interval at run level or above.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, `None` for a root.
    pub parent: Option<u32>,
    /// Operation (plan) the span belongs to.
    pub plan_id: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Per-name `(spans, total ns, self ns)`; self = duration minus the part
/// covered by direct children.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p as usize] += s.dur_ns();
        }
    }
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for (s, &covered) in spans.iter().zip(&child_ns) {
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.dur_ns();
        e.2 += s.dur_ns().saturating_sub(covered);
    }
    out
}

/// Exact counts harvested from settled worlds.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    pub plans: u64,
    pub worlds: u64,
    pub quanta: u64,
    pub crashes: u64,
    pub restarts: u64,
    pub ckpt_issued: u64,
    pub ckpt_saved: u64,
    pub ckpt_deltas_saved: u64,
    pub ckpt_fulls_saved: u64,
    pub ckpt_restored: u64,
    pub ckpt_fallbacks: u64,
    pub ub_buffered: u64,
    pub ub_replayed: u64,
    pub ub_suppressed: u64,
    pub ub_trimmed: u64,
    pub meta_ops_applied: u64,
    pub meta_recoveries: u64,
    pub meta_ops_replayed: u64,
    pub orca_crashes: u64,
    pub sam_restarts: u64,
    pub false_declarations: u64,
    pub svc_polls: u64,
    pub svc_events_delivered: u64,
    pub svc_metric_observations_seen: u64,
    pub svc_metric_events_matched: u64,
    pub svc_failures_seen: u64,
    pub sink_tuples: u64,
    /// Crash -> `Up` of every restart, simulated milliseconds.
    pub recovery_sim_ms: Vec<u64>,
}

/// Collects the spans, folds and counts of one traced run.
pub struct Tracer {
    origin: Tick,
    pub spans: Vec<Span>,
    stack: Vec<u32>,
    pub plan_id: u32,
    /// `Kernel::quantum` self time per quantum.
    pub kernel: Agg,
    /// `OrcaService::on_quantum` per quantum of a world that has a service.
    pub service: Agg,
    /// `Janitor` + `FaultInjector` per quantum.
    pub inject: Agg,
    /// Counts are harvested only while this is set (block 0).
    pub counting: bool,
    pub counts: Counts,
    /// Baseline-cache lookups and hits seen by the traced plans.
    pub cache_lookups: u64,
    pub cache_hits: u64,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Tick::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            plan_id: 0,
            kernel: Agg::default(),
            service: Agg::default(),
            inject: Agg::default(),
            counting: false,
            counts: Counts::default(),
            cache_lookups: 0,
            cache_hits: 0,
        }
    }

    /// Forgets spans and folds (not counts): what came before was warm-up.
    pub fn reset_timing(&mut self) {
        debug_assert!(self.stack.is_empty());
        self.spans.clear();
        self.kernel = Agg::default();
        self.service = Agg::default();
        self.inject = Agg::default();
        self.cache_lookups = 0;
        self.cache_hits = 0;
    }

    /// Times `f` as a child of the innermost open span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent: self.stack.last().copied(),
            plan_id: self.plan_id,
        });
        self.stack.push(id);
        self.spans[id as usize].start_ns = Tick::now().since(self.origin);
        let out = f(self);
        self.spans[id as usize].end_ns = Tick::now().since(self.origin);
        self.stack.pop();
        out
    }

    /// One JSON object per line, in start order.
    pub fn write_spans(&self, path: &str) -> std::io::Result<()> {
        use std::io::Write;
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"plan_id\": {}}}",
                s.name, s.start_ns, s.end_ns, s.plan_id
            )?;
        }
        w.flush()
    }
}
