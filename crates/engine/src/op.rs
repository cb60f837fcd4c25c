//! The operator abstraction and its execution context.

use crate::ckpt::{StateBlob, StateReader, StateWriter};
use crate::error::EngineError;
use crate::metrics::{MetricId, MetricStore};
use crate::queue::{Emission, Emissions};
use crate::tuple::Tuple;
use sps_sim::{SimDuration, SimRng, SimTime};
use std::collections::VecDeque;

/// Stream punctuation marks (§2.1/§5.3). `Final` indicates an operator will
/// never produce tuples again; its generation and forwarding is managed by
/// the runtime and drives the dynamic-composition use case.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Punct {
    Window,
    Final,
}

/// What flows on a stream: tuples interleaved with punctuation.
#[derive(Clone, Debug, PartialEq)]
pub enum StreamItem {
    Tuple(Tuple),
    Punct(Punct),
}

/// A run of consecutive tuples on one port: what a transport frame carries
/// and what the PE pops from one input queue per slot visit. Batch
/// boundaries never cross punctuation or quantum boundaries, and the PE
/// hands a batch to its operator one tuple at a time, so batching is
/// invisible to determinism: an operator sees exactly the tuples, in
/// exactly the order, that per-tuple delivery would have produced.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TupleBatch {
    items: Vec<Tuple>,
}

impl TupleBatch {
    pub fn new() -> Self {
        TupleBatch { items: Vec::new() }
    }

    pub fn with_capacity(n: usize) -> Self {
        TupleBatch {
            items: Vec::with_capacity(n),
        }
    }

    pub fn push(&mut self, t: Tuple) {
        self.items.push(t);
    }

    pub fn len(&self) -> usize {
        self.items.len()
    }

    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    pub fn iter(&self) -> std::slice::Iter<'_, Tuple> {
        self.items.iter()
    }

    /// Sum of the per-tuple size estimates, used for byte-level metrics.
    pub fn approx_bytes(&self) -> usize {
        self.items.iter().map(|t| t.approx_bytes()).sum()
    }

    pub fn as_slice(&self) -> &[Tuple] {
        &self.items
    }

    /// Drops the first `n` tuples (all of them when there are fewer).
    pub fn drop_front(&mut self, n: usize) {
        self.items.drain(..n.min(self.items.len()));
    }
}

impl From<Vec<Tuple>> for TupleBatch {
    fn from(items: Vec<Tuple>) -> Self {
        TupleBatch { items }
    }
}

impl From<TupleBatch> for Vec<Tuple> {
    fn from(batch: TupleBatch) -> Self {
        batch.items
    }
}

impl IntoIterator for TupleBatch {
    type Item = Tuple;
    type IntoIter = std::vec::IntoIter<Tuple>;
    fn into_iter(self) -> Self::IntoIter {
        self.items.into_iter()
    }
}

impl<'a> IntoIterator for &'a TupleBatch {
    type Item = &'a Tuple;
    type IntoIter = std::slice::Iter<'a, Tuple>;
    fn into_iter(self) -> Self::IntoIter {
        self.items.iter()
    }
}

/// Execution context handed to operator callbacks.
///
/// Collects submissions — consecutive tuples on one port as one run, routed
/// by the PE container after the callback returns — and exposes
/// custom-metric updates, deterministic randomness, the simulation clock,
/// and a fault channel: an operator raising a fault crashes its whole PE,
/// modelling the uncaught-exception PE crash of §4.2.
pub struct OpCtx<'a> {
    now: SimTime,
    quantum: SimDuration,
    op_name: &'a str,
    num_outputs: usize,
    metrics: &'a mut MetricStore,
    rng: &'a mut SimRng,
    emitted: Emissions,
    fault: Option<String>,
    all_inputs_final: bool,
}

impl<'a> OpCtx<'a> {
    pub(crate) fn new(
        now: SimTime,
        quantum: SimDuration,
        op_name: &'a str,
        num_outputs: usize,
        metrics: &'a mut MetricStore,
        rng: &'a mut SimRng,
    ) -> Self {
        OpCtx {
            now,
            quantum,
            op_name,
            num_outputs,
            metrics,
            rng,
            emitted: Emissions::new(),
            fault: None,
            all_inputs_final: true,
        }
    }

    /// Set by the PE container before delivering punctuation: whether every
    /// input port of this operator has now received a final punctuation.
    pub(crate) fn set_all_inputs_final(&mut self, v: bool) {
        self.all_inputs_final = v;
    }

    /// True when a final punctuation has arrived on *every* input port of
    /// this operator (the container tracks per-port finals). The default
    /// [`Operator::on_punct`] consults this so multi-input operators do not
    /// finalize downstream as soon as their first input finishes.
    pub fn all_inputs_final(&self) -> bool {
        self.all_inputs_final
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Duration of one scheduling quantum (tick period for sources).
    pub fn quantum(&self) -> SimDuration {
        self.quantum
    }

    /// This operator's full instance name.
    pub fn op_name(&self) -> &str {
        self.op_name
    }

    /// Number of output ports of this operator.
    pub fn num_outputs(&self) -> usize {
        self.num_outputs
    }

    /// Submits a tuple on an output port.
    pub fn submit(&mut self, port: usize, tuple: Tuple) {
        debug_assert!(port < self.num_outputs, "submit on nonexistent port");
        self.emitted.tuple(port, tuple);
    }

    /// Submits punctuation on an output port.
    pub fn submit_punct(&mut self, port: usize, punct: Punct) {
        debug_assert!(port < self.num_outputs, "punct on nonexistent port");
        self.emitted.punct(port, punct);
    }

    /// Adds to (creating if needed) a custom metric of this operator.
    pub fn metric_add(&mut self, metric: &str, delta: i64) {
        self.metrics.op_add(self.op_name, metric, delta);
    }

    /// Sets a custom metric of this operator to an absolute value.
    pub fn metric_set(&mut self, metric: &str, value: i64) {
        self.metrics.op_set(self.op_name, metric, value);
    }

    /// Resolves one of this operator's custom metrics to a handle for
    /// [`OpCtx::metric_add_by`] / [`OpCtx::metric_set_by`], which update it
    /// without a lookup by name. An operator instance resolves a handle
    /// once and keeps it: it stays valid for the instance's lifetime,
    /// checkpoint restores included. Resolving creates nothing — the metric
    /// exists from its first update.
    pub fn metric_id(&mut self, metric: &str) -> MetricId {
        self.metrics.op_resolve(self.op_name, metric)
    }

    pub fn metric_add_by(&mut self, id: MetricId, delta: i64) {
        self.metrics.add_by(id, delta);
    }

    pub fn metric_set_by(&mut self, id: MetricId, value: i64) {
        self.metrics.set_by(id, value);
    }

    /// Reads back one of this operator's metrics.
    pub fn metric_get(&self, metric: &str) -> Option<i64> {
        self.metrics.op_get(self.op_name, metric)
    }

    /// Deterministic per-PE random stream.
    pub fn rng(&mut self) -> &mut SimRng {
        self.rng
    }

    /// Raises a fatal operator fault: the containing PE crashes, SAM is
    /// notified, and (if scoped) the orchestrator receives a PE-failure
    /// event.
    pub fn raise_fault(&mut self, message: impl Into<String>) {
        self.fault = Some(message.into());
    }

    /// True once [`OpCtx::raise_fault`] has been called since this context
    /// was made. The PE reads it between the tuples of a run and stops
    /// delivering once it is set: everything after the faulting tuple is
    /// lost with the crashing PE, like its cleared input queues.
    pub fn has_fault(&self) -> bool {
        self.fault.is_some()
    }

    pub(crate) fn take_emitted(&mut self) -> Vec<Emission> {
        self.emitted.take()
    }

    pub(crate) fn take_fault(&mut self) -> Option<String> {
        self.fault.take()
    }
}

/// A stream operator. Implementations are instantiated per ADL invocation by
/// the [`crate::registry::OperatorRegistry`].
pub trait Operator {
    /// Called for every tuple arriving on `port`, one at a time and in
    /// arrival order. The PE hands a run of queued tuples down by calling
    /// this once per tuple, and stops after one raises a fault.
    fn on_tuple(&mut self, port: usize, tuple: Tuple, ctx: &mut OpCtx);

    /// Called for punctuation arriving on `port`. The default forwards
    /// window punctuation to every output port, and forwards a `Final` only
    /// once *every* input port has delivered its own final (the container
    /// tracks per-port finals and exposes [`OpCtx::all_inputs_final`]) — so
    /// a multi-input operator using the default does not finalize downstream
    /// as soon as its first input finishes. Operators needing custom
    /// finalization (flush-on-final, per-side bookkeeping) still override
    /// this, typically with a [`FinalPunctTracker`].
    fn on_punct(&mut self, port: usize, punct: Punct, ctx: &mut OpCtx) {
        let _ = port;
        if punct == Punct::Final && !ctx.all_inputs_final() {
            return;
        }
        for p in 0..ctx.num_outputs() {
            ctx.submit_punct(p, punct);
        }
    }

    /// Called once per scheduling quantum; sources produce tuples here.
    fn on_tick(&mut self, ctx: &mut OpCtx) {
        let _ = ctx;
    }

    /// Processing-budget units charged per tuple (default 1). CPU-heavy
    /// operators report more, so fused PEs saturate realistically.
    fn cost_per_tuple(&self) -> u32 {
        1
    }

    /// Observable contents for sink-like operators (`None` otherwise),
    /// oldest first, lent: a reader that keeps them clones. The PE container
    /// surfaces this via [`crate::pe::PeRuntime::tap`].
    fn tap(&self) -> Option<&VecDeque<Tuple>> {
        None
    }

    /// Serializes this operator's recoverable state. The default (`None`)
    /// declares the operator stateless; stateful operators return a
    /// [`StateBlob`] the runtime's checkpoint store persists and feeds back
    /// through [`Operator::restore`] when the PE is recovered after a crash.
    /// Encoding must be canonical: checkpoint → restore → checkpoint has to
    /// reproduce identical bytes, which is how restores self-verify.
    fn checkpoint(&self) -> Option<StateBlob> {
        None
    }

    /// Reconstructs state from a blob produced by [`Operator::checkpoint`].
    /// Only called with blobs this operator kind wrote; the default errors
    /// so an operator that checkpoints without implementing restore fails
    /// loudly instead of silently coming back empty.
    fn restore(&mut self, blob: &StateBlob) -> Result<(), EngineError> {
        let _ = blob;
        Err(EngineError::Checkpoint(
            "operator produced a checkpoint but does not implement restore".into(),
        ))
    }
}

/// Helper for multi-input operators: emits `Final` downstream only after a
/// final punctuation arrived on every input port.
#[derive(Clone, Debug)]
pub struct FinalPunctTracker {
    seen: Vec<bool>,
    fired: bool,
}

impl FinalPunctTracker {
    pub fn new(num_inputs: usize) -> Self {
        FinalPunctTracker {
            seen: vec![false; num_inputs],
            fired: false,
        }
    }

    /// Records a final punct on `port`; returns true exactly once, when all
    /// ports have seen their final.
    pub fn mark(&mut self, port: usize) -> bool {
        if port < self.seen.len() {
            self.seen[port] = true;
        }
        if !self.fired && self.seen.iter().all(|&s| s) {
            self.fired = true;
            true
        } else {
            false
        }
    }

    pub fn is_complete(&self) -> bool {
        self.fired
    }

    /// Serializes the tracker into an operator state blob.
    pub fn encode(&self, w: &mut StateWriter) {
        w.put_u32(self.seen.len() as u32);
        for &s in &self.seen {
            w.put_bool(s);
        }
        w.put_bool(self.fired);
    }

    /// Reads a tracker back from [`FinalPunctTracker::encode`] output.
    pub fn decode(r: &mut StateReader) -> Result<Self, EngineError> {
        let n = r.get_u32()? as usize;
        let mut seen = Vec::with_capacity(n);
        for _ in 0..n {
            seen.push(r.get_bool()?);
        }
        Ok(FinalPunctTracker {
            seen,
            fired: r.get_bool()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::testutil::items;

    fn with_ctx<R>(f: impl FnOnce(&mut OpCtx) -> R) -> (R, MetricStore) {
        let mut metrics = MetricStore::new();
        let mut rng = SimRng::new(1);
        let mut ctx = OpCtx::new(
            SimTime::from_secs(1),
            SimDuration::from_millis(100),
            "op1",
            2,
            &mut metrics,
            &mut rng,
        );
        let r = f(&mut ctx);
        (r, metrics)
    }

    #[test]
    fn ctx_accessors() {
        with_ctx(|ctx| {
            assert_eq!(ctx.now(), SimTime::from_secs(1));
            assert_eq!(ctx.quantum(), SimDuration::from_millis(100));
            assert_eq!(ctx.op_name(), "op1");
            assert_eq!(ctx.num_outputs(), 2);
            let _ = ctx.rng().next_f64();
        });
    }

    #[test]
    fn submissions_collected_in_order() {
        let (emitted, _) = with_ctx(|ctx| {
            ctx.submit(0, Tuple::new().with("a", 1i64));
            ctx.submit_punct(1, Punct::Final);
            ctx.submit(1, Tuple::new().with("b", 2i64));
            items(ctx.take_emitted())
        });
        assert_eq!(emitted.len(), 3);
        assert!(matches!(emitted[0], (0, StreamItem::Tuple(_))));
        assert!(matches!(emitted[1], (1, StreamItem::Punct(Punct::Final))));
        assert!(matches!(emitted[2], (1, StreamItem::Tuple(_))));
    }

    #[test]
    fn metrics_through_ctx() {
        let (_, metrics) = with_ctx(|ctx| {
            ctx.metric_add("nKnown", 3);
            ctx.metric_add("nKnown", 2);
            ctx.metric_set("nUnknown", 7);
            assert_eq!(ctx.metric_get("nKnown"), Some(5));
            assert_eq!(ctx.metric_get("ghost"), None);
        });
        assert_eq!(metrics.op_get("op1", "nKnown"), Some(5));
        assert_eq!(metrics.op_get("op1", "nUnknown"), Some(7));
    }

    #[test]
    fn metric_handles_update_the_named_metric_and_create_it_lazily() {
        let (_, metrics) = with_ctx(|ctx| {
            ctx.metric_add("nKnown", 1);
            let known = ctx.metric_id("nKnown");
            let fresh = ctx.metric_id("nFresh");
            let unused = ctx.metric_id("nUnused");
            assert_ne!(fresh, unused);
            // Resolved, never updated: not there yet.
            assert_eq!(ctx.metric_get("nFresh"), None);
            ctx.metric_add_by(known, 4);
            ctx.metric_add_by(fresh, 2);
            ctx.metric_set_by(fresh, 9);
            assert_eq!(ctx.metric_get("nKnown"), Some(5));
            assert_eq!(ctx.metric_get("nFresh"), Some(9));
            assert_eq!(ctx.metric_get("nUnused"), None);
        });
        assert_eq!(metrics.len(), 2);
        assert!(metrics
            .snapshot()
            .iter()
            .all(|(k, _)| k.metric_name() != "nUnused"));
    }

    #[test]
    fn fault_channel() {
        let (fault, _) = with_ctx(|ctx| {
            assert!(ctx.take_fault().is_none());
            ctx.raise_fault("segfault in model reload");
            ctx.take_fault()
        });
        assert_eq!(fault.as_deref(), Some("segfault in model reload"));
    }

    #[test]
    fn default_punct_forwarding() {
        struct PassThrough;
        impl Operator for PassThrough {
            fn on_tuple(&mut self, _p: usize, t: Tuple, ctx: &mut OpCtx) {
                ctx.submit(0, t);
            }
        }
        let (emitted, _) = with_ctx(|ctx| {
            let mut op = PassThrough;
            op.on_punct(0, Punct::Final, ctx);
            items(ctx.take_emitted())
        });
        // Forwarded to both output ports.
        assert_eq!(emitted.len(), 2);
        assert!(emitted
            .iter()
            .all(|(_, i)| matches!(i, StreamItem::Punct(Punct::Final))));
    }

    /// Regression for the multi-input early-final bug: when the container
    /// reports that not every input port is final yet, the default
    /// `on_punct` must swallow a `Final` (but still pass `Window` through).
    #[test]
    fn default_punct_waits_for_all_inputs() {
        struct PassThrough;
        impl Operator for PassThrough {
            fn on_tuple(&mut self, _p: usize, t: Tuple, ctx: &mut OpCtx) {
                ctx.submit(0, t);
            }
        }
        let (emitted, _) = with_ctx(|ctx| {
            ctx.set_all_inputs_final(false);
            let mut op = PassThrough;
            op.on_punct(0, Punct::Final, ctx);
            op.on_punct(0, Punct::Window, ctx);
            assert!(!ctx.all_inputs_final());
            ctx.set_all_inputs_final(true);
            op.on_punct(1, Punct::Final, ctx);
            items(ctx.take_emitted())
        });
        // One swallowed final, one window through (2 ports), then the real
        // final (2 ports).
        assert_eq!(emitted.len(), 4);
        assert!(matches!(emitted[0].1, StreamItem::Punct(Punct::Window)));
        assert!(matches!(emitted[2].1, StreamItem::Punct(Punct::Final)));
    }

    #[test]
    fn tuple_batch_accessors() {
        let mut b = TupleBatch::with_capacity(2);
        assert!(b.is_empty());
        b.push(Tuple::new().with("a", 1i64));
        b.push(Tuple::new().with("b", 2i64));
        assert_eq!(b.len(), 2);
        assert_eq!(
            b.approx_bytes(),
            b.iter().map(|t| t.approx_bytes()).sum::<usize>()
        );
        assert_eq!(b.as_slice().len(), 2);
        let names: Vec<&str> = (&b)
            .into_iter()
            .flat_map(|t| t.iter().map(|(n, _)| &**n))
            .collect();
        assert_eq!(names, ["a", "b"]);
    }

    #[test]
    fn final_tracker_roundtrips_through_state_blob() {
        let mut t = FinalPunctTracker::new(3);
        t.mark(1);
        let mut w = crate::ckpt::StateWriter::new();
        t.encode(&mut w);
        let blob = w.finish();
        let mut r = crate::ckpt::StateReader::new(&blob);
        let mut back = FinalPunctTracker::decode(&mut r).unwrap();
        assert!(r.is_exhausted());
        assert!(!back.mark(1)); // duplicate final still remembered
        assert!(!back.mark(0));
        assert!(back.mark(2)); // completes exactly as the original would
    }

    #[test]
    fn final_tracker_fires_once_when_all_seen() {
        let mut t = FinalPunctTracker::new(3);
        assert!(!t.mark(0));
        assert!(!t.mark(0)); // duplicate final on same port
        assert!(!t.mark(2));
        assert!(!t.is_complete());
        assert!(t.mark(1));
        assert!(t.is_complete());
        assert!(!t.mark(1)); // never fires twice
    }

    #[test]
    fn final_tracker_ignores_out_of_range_port() {
        let mut t = FinalPunctTracker::new(1);
        assert!(!t.mark(5));
        assert!(t.mark(0));
    }

    #[test]
    fn final_tracker_zero_inputs_fires_immediately() {
        let mut t = FinalPunctTracker::new(0);
        // Degenerate but defined: all (zero) ports have finals.
        assert!(t.mark(0));
    }
}
