//! §5.1 — Adaptation to the incoming data distribution (Figure 8).
//!
//! A sentiment-analysis application consumes synthetic tweets about a
//! product, classifies sentiment, correlates negative tweets with a
//! pre-computed *cause model*, and aggregates top causes. When the share of
//! negative tweets with **unknown** causes overtakes the known ones, the
//! application must recompute the model — in the paper via a Hadoop /
//! BigInsights batch job over the stored tweets; here via [`HadoopJobSim`],
//! a latency-accurate stand-in that recomputes the model from the shared
//! tweet archive.
//!
//! Two variants are provided:
//! - **orchestrated** (the paper's contribution): the graph contains only
//!   data-processing operators; [`SentimentOrca`] subscribes to the
//!   correlator's custom metrics and triggers the recomputation (§5.1),
//! - **embedded** (the Figure 1 baseline): two extra operators (op8
//!   detector + op9 actuator) are fused into the graph, coupling control
//!   and data logic.

use crate::SharedStores;
use orca::{
    OperatorMetricContext, OperatorMetricScope, OrcaCtx, OrcaStartContext, Orchestrator,
    TimerContext,
};
use sps_engine::ops::{opt_f64, opt_i64};
use sps_engine::{
    EngineError, MetricId, OpCtx, Operator, OperatorRegistry, Schema, StateBlob, StateReader,
    StateWriter, Tuple,
};
use sps_model::compiler::{compile, CompileOptions};
use sps_model::logical::{AppModelBuilder, CompositeGraphBuilder, OperatorInvocation};
use sps_model::{Adl, Value};
use sps_sim::{SimDuration, SimRng, SimTime};
use std::cell::{OnceCell, RefCell};
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;

// ---------------------------------------------------------------------------
// Shared state: cause model + tweet archive (the paper's HDFS files)
// ---------------------------------------------------------------------------

/// The cause model: the set of known complaint causes and a version number.
#[derive(Clone, Debug, Default)]
pub struct CauseModel {
    pub known_causes: Vec<String>,
    pub version: u64,
}

/// Shared handle to the cause model ("the list of causes is computed offline
/// ... and loaded by the streaming application"). Like every store of
/// [`SharedStores`], it is built per world and never leaves that world's
/// thread.
#[derive(Clone, Default)]
pub struct CauseModelHandle(Rc<RefCell<CauseModel>>);

impl CauseModelHandle {
    pub fn set(&self, causes: &[&str]) {
        let mut m = self.0.borrow_mut();
        m.known_causes = causes.iter().map(|c| c.to_string()).collect();
        m.version += 1;
    }

    pub fn snapshot(&self) -> CauseModel {
        self.0.borrow().clone()
    }

    pub fn version(&self) -> u64 {
        self.0.borrow().version
    }
}

/// Archive of recent negative-tweet causes ("stored on disk for later batch
/// processing"). Bounded so long runs stay bounded.
#[derive(Clone, Default)]
pub struct TweetArchiveHandle(Rc<RefCell<VecDeque<String>>>);

const ARCHIVE_CAP: usize = 50_000;

impl TweetArchiveHandle {
    pub fn record(&self, cause: &str) {
        let mut a = self.0.borrow_mut();
        if a.len() == ARCHIVE_CAP {
            a.pop_front();
        }
        a.push_back(cause.to_string());
    }

    pub fn len(&self) -> usize {
        self.0.borrow().len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.borrow().is_empty()
    }

    /// Cause frequencies over the archived tweets.
    pub fn cause_histogram(&self) -> BTreeMap<String, usize> {
        let mut h = BTreeMap::new();
        for c in self.0.borrow().iter() {
            *h.entry(c.clone()).or_insert(0) += 1;
        }
        h
    }
}

/// The simulated Hadoop/BigInsights model-recomputation job: given the tweet
/// archive, the top causes covering at least `coverage` of archived tweets
/// become the new model. Latency is paid by the caller (the ORCA logic waits
/// on a timer before applying the result, mirroring the real job's runtime).
pub struct HadoopJobSim;

impl HadoopJobSim {
    /// Runs the batch computation against the archive and installs the new
    /// model. Returns the new known-cause list.
    pub fn recompute(archive: &TweetArchiveHandle, model: &CauseModelHandle) -> Vec<String> {
        let hist = archive.cause_histogram();
        let total: usize = hist.values().sum();
        if total == 0 {
            return model.snapshot().known_causes;
        }
        // Keep every cause accounting for ≥ 5% of archived complaints.
        let mut causes: Vec<(String, usize)> = hist.into_iter().collect();
        causes.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        let kept: Vec<String> = causes
            .into_iter()
            .filter(|(_, n)| *n * 20 >= total)
            .map(|(c, _)| c)
            .collect();
        let refs: Vec<&str> = kept.iter().map(String::as_str).collect();
        model.set(&refs);
        kept
    }
}

// ---------------------------------------------------------------------------
// Workload: synthetic tweet source with cause drift
// ---------------------------------------------------------------------------

/// Synthetic tweet source. Emits `{product, sentiment, cause, ts}` tuples.
/// Until `drift_at_secs`, negative-tweet causes are drawn from
/// `{flash, screen}`; afterwards, predominantly `{antenna}` — reproducing
/// the paper's experiment where "users complain about antenna issues"
/// around epoch 250.
pub struct TweetSource {
    rate: f64,
    drift_at: SimTime,
    credit: f64,
    rng: Option<SimRng>,
    seed: u64,
    schema: Rc<Schema>,
}

impl TweetSource {
    fn from_params(
        op: &str,
        params: &sps_model::value::ParamMap,
    ) -> Result<Self, sps_engine::EngineError> {
        let rate = opt_f64(params, op, "rate")?.unwrap_or(20.0);
        let drift = opt_f64(params, op, "drift_at_secs")?.unwrap_or(f64::MAX);
        let seed = opt_i64(params, op, "seed")?.unwrap_or(1) as u64;
        if rate < 0.0 {
            return Err(sps_engine::EngineError::BadParam {
                op: op.to_string(),
                message: "rate must be non-negative".into(),
            });
        }
        Ok(TweetSource {
            rate,
            drift_at: if drift == f64::MAX {
                SimTime::from_millis(u64::MAX)
            } else {
                SimTime::from_millis((drift * 1000.0) as u64)
            },
            credit: 0.0,
            rng: Some(SimRng::new(seed)),
            seed,
            schema: Schema::new(&["product", "sentiment", "cause", "ts"]),
        })
    }
}

impl Operator for TweetSource {
    fn on_tuple(&mut self, _port: usize, _t: Tuple, _ctx: &mut OpCtx) {}

    fn on_tick(&mut self, ctx: &mut OpCtx) {
        let _ = self.seed;
        let rng = self.rng.as_mut().expect("rng present");
        self.credit += self.rate * ctx.quantum().as_secs_f64();
        let drifted = ctx.now() >= self.drift_at;
        while self.credit >= 1.0 - 1e-9 {
            self.credit -= 1.0;
            let product = if rng.gen_bool(0.8) { "iphone" } else { "other" };
            let negative = rng.gen_bool(0.6);
            // A long tail of rare causes (each far below the model's 5%
            // coverage threshold) keeps a small unknown background, so the
            // post-adaptation ratio stabilizes near but below 1.0 as in the
            // paper's Figure 8 rather than collapsing to zero.
            let rare = ["cable", "case", "gps", "wifi", "mic", "camera"];
            let cause = if !negative {
                "none"
            } else if drifted {
                // Post-drift: antenna dominates; older causes linger.
                match rng.pick_weighted(&[0.68, 0.14, 0.10, 0.08]) {
                    0 => "antenna",
                    1 => "flash",
                    2 => "screen",
                    _ => rare[rng.gen_range(0, rare.len() as u64) as usize],
                }
            } else {
                match rng.pick_weighted(&[0.48, 0.38, 0.14]) {
                    0 => "flash",
                    1 => "screen",
                    _ => rare[rng.gen_range(0, rare.len() as u64) as usize],
                }
            };
            let t = Tuple::from_schema(
                &self.schema,
                vec![
                    Value::from(product),
                    Value::from(if negative { "neg" } else { "pos" }),
                    Value::from(cause),
                    Value::Timestamp(ctx.now().as_millis()),
                ],
            );
            ctx.submit(0, t);
        }
    }

    fn checkpoint(&self) -> Option<StateBlob> {
        let mut w = StateWriter::new();
        w.put_f64(self.credit);
        w.put_rng(self.rng.as_ref().expect("rng present"));
        Some(w.finish())
    }

    fn restore(&mut self, blob: &StateBlob) -> Result<(), EngineError> {
        let mut r = StateReader::new(blob);
        self.credit = r.get_f64()?;
        self.rng = Some(r.get_rng()?);
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Operators
// ---------------------------------------------------------------------------

/// Correlates negative tweets with the cause model. Maintains the two custom
/// metrics the ORCA logic subscribes to (`nKnownCauses` / `nUnknownCauses`)
/// over a sliding accounting window, archives negative tweets, and reloads
/// the model whenever its version changes (the paper's "automatically
/// reloads the output of the Hadoop job").
pub struct CauseCorrelator {
    model: CauseModelHandle,
    archive: TweetArchiveHandle,
    loaded: CauseModel,
    /// (timestamp, known?) ring for windowed metric accounting.
    window: VecDeque<(SimTime, bool)>,
    window_span: SimDuration,
    /// Handles of `nKnownCauses`, `nUnknownCauses` and `modelVersion`,
    /// resolved at the first refresh.
    gauges: OnceCell<[MetricId; 3]>,
}

impl CauseCorrelator {
    fn new(model: CauseModelHandle, archive: TweetArchiveHandle, window_secs: f64) -> Self {
        let loaded = model.snapshot();
        CauseCorrelator {
            model,
            archive,
            loaded,
            window: VecDeque::new(),
            window_span: SimDuration::from_millis((window_secs * 1000.0) as u64),
            gauges: OnceCell::new(),
        }
    }

    fn refresh_metrics(&mut self, now: SimTime, ctx: &mut OpCtx) {
        while let Some((t, _)) = self.window.front() {
            if now.since(*t) > self.window_span {
                self.window.pop_front();
            } else {
                break;
            }
        }
        let known = self.window.iter().filter(|(_, k)| *k).count() as i64;
        let unknown = self.window.len() as i64 - known;
        let [n_known, n_unknown, version] = *self.gauges.get_or_init(|| {
            ["nKnownCauses", "nUnknownCauses", "modelVersion"].map(|m| ctx.metric_id(m))
        });
        ctx.metric_set_by(n_known, known);
        ctx.metric_set_by(n_unknown, unknown);
        ctx.metric_set_by(version, self.loaded.version as i64);
    }
}

impl Operator for CauseCorrelator {
    fn on_tuple(&mut self, _port: usize, tuple: Tuple, ctx: &mut OpCtx) {
        // Hot reload when the batch job published a new model version.
        if self.model.version() != self.loaded.version {
            self.loaded = self.model.snapshot();
        }
        let Some(cause) = tuple.get_str("cause") else {
            ctx.raise_fault("tweet without cause attribute");
            return;
        };
        self.archive.record(cause);
        let known = self.loaded.known_causes.iter().any(|c| c == cause);
        self.window.push_back((ctx.now(), known));
        self.refresh_metrics(ctx.now(), ctx);
        let out = tuple.with("known", known);
        ctx.submit(0, out);
    }

    fn on_tick(&mut self, ctx: &mut OpCtx) {
        // Keep metrics fresh even when the stream goes quiet.
        let now = ctx.now();
        self.refresh_metrics(now, ctx);
    }

    fn checkpoint(&self) -> Option<StateBlob> {
        let mut w = StateWriter::new();
        // Loaded model mirror: a revived correlator must not silently jump
        // to a newer model version than the one it was classifying with.
        w.put_u64(self.loaded.version);
        w.put_u32(self.loaded.known_causes.len() as u32);
        for c in &self.loaded.known_causes {
            w.put_str(c);
        }
        w.put_u32(self.window.len() as u32);
        for (at, known) in &self.window {
            w.put_time(*at);
            w.put_bool(*known);
        }
        Some(w.finish())
    }

    fn restore(&mut self, blob: &StateBlob) -> Result<(), EngineError> {
        let mut r = StateReader::new(blob);
        self.loaded.version = r.get_u64()?;
        let n = r.get_u32()? as usize;
        self.loaded.known_causes.clear();
        for _ in 0..n {
            self.loaded.known_causes.push(r.get_str()?);
        }
        let n = r.get_u32()? as usize;
        self.window.clear();
        for _ in 0..n {
            let at = r.get_time()?;
            let known = r.get_bool()?;
            self.window.push_back((at, known));
        }
        Ok(())
    }
}

/// Figure 1 baseline, operator op8: watches the correlator output in-graph
/// and emits a trigger tuple when unknown > known over its own window.
pub struct EmbeddedDetector {
    window: VecDeque<(SimTime, bool)>,
    span: SimDuration,
    last_trigger: Option<SimTime>,
    holdoff: SimDuration,
    /// Handle of `nTriggers`, resolved at the first trigger.
    triggers: OnceCell<MetricId>,
}

impl Operator for EmbeddedDetector {
    fn on_tuple(&mut self, _port: usize, tuple: Tuple, ctx: &mut OpCtx) {
        let Some(known) = tuple.get_bool("known") else {
            return;
        };
        let now = ctx.now();
        self.window.push_back((now, known));
        while let Some((t, _)) = self.window.front() {
            if now.since(*t) > self.span {
                self.window.pop_front();
            } else {
                break;
            }
        }
        let known_n = self.window.iter().filter(|(_, k)| *k).count();
        let unknown_n = self.window.len() - known_n;
        let held_off = self
            .last_trigger
            .is_some_and(|t| now.since(t) < self.holdoff);
        if unknown_n > known_n && !held_off && self.window.len() >= 20 {
            self.last_trigger = Some(now);
            let id = *self.triggers.get_or_init(|| ctx.metric_id("nTriggers"));
            ctx.metric_add_by(id, 1);
            ctx.submit(0, Tuple::new().with("trigger", true));
        }
    }

    fn checkpoint(&self) -> Option<StateBlob> {
        let mut w = StateWriter::new();
        w.put_opt(&self.last_trigger, |w, t| w.put_time(*t));
        w.put_u32(self.window.len() as u32);
        for (at, known) in &self.window {
            w.put_time(*at);
            w.put_bool(*known);
        }
        Some(w.finish())
    }

    fn restore(&mut self, blob: &StateBlob) -> Result<(), EngineError> {
        let mut r = StateReader::new(blob);
        self.last_trigger = r.get_opt(|r| r.get_time())?;
        let n = r.get_u32()? as usize;
        self.window.clear();
        for _ in 0..n {
            let at = r.get_time()?;
            let known = r.get_bool()?;
            self.window.push_back((at, known));
        }
        Ok(())
    }
}

/// Figure 1 baseline, operator op9: "calls an external script that invokes
/// the cause recomputation" — here it runs the batch recomputation after a
/// simulated delay, embedded in the data path.
pub struct EmbeddedActuator {
    model: CauseModelHandle,
    archive: TweetArchiveHandle,
    latency: SimDuration,
    pending_done_at: Option<SimTime>,
    /// Handle of `nJobsLaunched`, resolved at the first launch.
    launched: OnceCell<MetricId>,
}

impl Operator for EmbeddedActuator {
    fn on_tuple(&mut self, _port: usize, _t: Tuple, ctx: &mut OpCtx) {
        if self.pending_done_at.is_none() {
            self.pending_done_at = Some(ctx.now() + self.latency);
            let id = *self.launched.get_or_init(|| ctx.metric_id("nJobsLaunched"));
            ctx.metric_add_by(id, 1);
        }
    }

    fn on_tick(&mut self, ctx: &mut OpCtx) {
        if let Some(due) = self.pending_done_at {
            if ctx.now() >= due {
                self.pending_done_at = None;
                HadoopJobSim::recompute(&self.archive, &self.model);
            }
        }
    }

    fn checkpoint(&self) -> Option<StateBlob> {
        let mut w = StateWriter::new();
        w.put_opt(&self.pending_done_at, |w, t| w.put_time(*t));
        Some(w.finish())
    }

    fn restore(&mut self, blob: &StateBlob) -> Result<(), EngineError> {
        self.pending_done_at = StateReader::new(blob).get_opt(|r| r.get_time())?;
        Ok(())
    }
}

/// Registers the sentiment operator kinds.
pub fn register_ops(r: &mut OperatorRegistry, stores: &SharedStores) {
    r.register("TweetSource", |op| {
        Ok(Box::new(TweetSource::from_params(&op.name, &op.params)?))
    });
    let model = stores.cause_model.clone();
    let archive = stores.tweet_archive.clone();
    r.register("CauseCorrelator", move |op| {
        let window = opt_f64(&op.params, &op.name, "window_secs")?.unwrap_or(60.0);
        Ok(Box::new(CauseCorrelator::new(
            model.clone(),
            archive.clone(),
            window,
        )))
    });
    r.register("EmbeddedDetector", |op| {
        let span = opt_f64(&op.params, &op.name, "window_secs")?.unwrap_or(60.0);
        let holdoff = opt_f64(&op.params, &op.name, "holdoff_secs")?.unwrap_or(600.0);
        Ok(Box::new(EmbeddedDetector {
            window: VecDeque::new(),
            span: SimDuration::from_millis((span * 1000.0) as u64),
            last_trigger: None,
            holdoff: SimDuration::from_millis((holdoff * 1000.0) as u64),
            triggers: OnceCell::new(),
        }))
    });
    let model = stores.cause_model.clone();
    let archive = stores.tweet_archive.clone();
    r.register("EmbeddedActuator", move |op| {
        let latency = opt_f64(&op.params, &op.name, "latency_secs")?.unwrap_or(30.0);
        Ok(Box::new(EmbeddedActuator {
            model: model.clone(),
            archive: archive.clone(),
            latency: SimDuration::from_millis((latency * 1000.0) as u64),
            pending_done_at: None,
            launched: OnceCell::new(),
        }))
    });
}

// ---------------------------------------------------------------------------
// Application graphs
// ---------------------------------------------------------------------------

/// Tunables for the sentiment application.
#[derive(Clone, Copy, Debug)]
pub struct SentimentParams {
    pub tweet_rate: f64,
    pub drift_at_secs: f64,
    pub metric_window_secs: f64,
    pub seed: u64,
}

impl Default for SentimentParams {
    fn default() -> Self {
        SentimentParams {
            tweet_rate: 20.0,
            drift_at_secs: 250.0,
            metric_window_secs: 60.0,
            seed: 42,
        }
    }
}

/// The orchestrated variant: pure data-processing graph (Figure 1 *without*
/// op8/op9 — the whole point of §5.1).
pub fn sentiment_app(p: SentimentParams) -> Adl {
    let mut m = CompositeGraphBuilder::main();
    m.operator(
        "tweets",
        OperatorInvocation::new("TweetSource")
            .source()
            .param("rate", p.tweet_rate)
            .param("drift_at_secs", p.drift_at_secs)
            .param("seed", p.seed as i64),
    );
    m.operator(
        "product_filter",
        OperatorInvocation::new("Filter").param("predicate", "product == \"iphone\""),
    );
    m.operator(
        "neg_filter",
        OperatorInvocation::new("Filter").param("predicate", "sentiment == \"neg\""),
    );
    m.operator(
        "correlator",
        OperatorInvocation::new("CauseCorrelator")
            .param("window_secs", p.metric_window_secs)
            .custom_metric("nKnownCauses")
            .custom_metric("nUnknownCauses")
            .custom_metric("modelVersion"),
    );
    m.operator(
        "agg",
        OperatorInvocation::new("Aggregate")
            .param("value", "ts")
            .param("window_secs", p.metric_window_secs)
            .param("period_secs", 5.0)
            .param("group_by", "cause"),
    );
    m.operator("display", OperatorInvocation::new("Sink").sink());
    m.pipe("tweets", "product_filter");
    m.pipe("product_filter", "neg_filter");
    m.pipe("neg_filter", "correlator");
    m.pipe("correlator", "agg");
    m.pipe("agg", "display");
    let model = AppModelBuilder::new("SentimentAnalysis")
        .build(m.build().unwrap())
        .unwrap();
    compile(&model, CompileOptions::default()).unwrap()
}

/// The Figure-1 baseline: same pipeline plus embedded op8/op9 control
/// operators, coupling adaptation into the data-flow graph.
pub fn sentiment_app_embedded(p: SentimentParams) -> Adl {
    let mut m = CompositeGraphBuilder::main();
    m.operator(
        "tweets",
        OperatorInvocation::new("TweetSource")
            .source()
            .param("rate", p.tweet_rate)
            .param("drift_at_secs", p.drift_at_secs)
            .param("seed", p.seed as i64),
    );
    m.operator(
        "product_filter",
        OperatorInvocation::new("Filter").param("predicate", "product == \"iphone\""),
    );
    m.operator(
        "neg_filter",
        OperatorInvocation::new("Filter").param("predicate", "sentiment == \"neg\""),
    );
    m.operator(
        "correlator",
        OperatorInvocation::new("CauseCorrelator")
            .param("window_secs", p.metric_window_secs)
            .custom_metric("nKnownCauses")
            .custom_metric("nUnknownCauses"),
    );
    m.operator("display", OperatorInvocation::new("Sink").sink());
    // The extra control operators of Figure 1.
    m.operator(
        "op8_detector",
        OperatorInvocation::new("EmbeddedDetector")
            .param("window_secs", p.metric_window_secs)
            .custom_metric("nTriggers"),
    );
    m.operator(
        "op9_actuator",
        OperatorInvocation::new("EmbeddedActuator")
            .sink()
            .param("latency_secs", 30.0)
            .custom_metric("nJobsLaunched"),
    );
    m.pipe("tweets", "product_filter");
    m.pipe("product_filter", "neg_filter");
    m.pipe("neg_filter", "correlator");
    m.pipe("correlator", "display");
    m.pipe("correlator", "op8_detector");
    m.pipe("op8_detector", "op9_actuator");
    let model = AppModelBuilder::new("SentimentEmbedded")
        .build(m.build().unwrap())
        .unwrap();
    compile(&model, CompileOptions::default()).unwrap()
}

// ---------------------------------------------------------------------------
// The ORCA logic (§5.1) — the paper reports 114 lines of C++ for this
// ---------------------------------------------------------------------------

/// One measurement of the unknown/known ratio.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RatioSample {
    pub epoch: u64,
    pub at: SimTime,
    pub ratio: f64,
    pub model_version: u64,
}

/// The sentiment orchestrator: subscribes to the correlator's two custom
/// metrics; when (within one epoch) unknown > known, launches the Hadoop
/// recomputation — at most once per 10 minutes (§5.1's retrigger guard).
pub struct SentimentOrca {
    stores: SharedStores,
    hadoop_latency: SimDuration,
    retrigger_guard: SimDuration,
    poll_period: SimDuration,
    // Mirrors of the last metric values (the paper's Figure 6 pattern).
    known: Option<(u64, i64)>,
    unknown: Option<(u64, i64)>,
    model_version: u64,
    last_job_at: Option<SimTime>,
    pub samples: Vec<RatioSample>,
    pub jobs_launched: u32,
    pub jobs_completed: u32,
}

impl SentimentOrca {
    pub fn new(stores: SharedStores, poll_period: SimDuration) -> Self {
        SentimentOrca {
            stores,
            hadoop_latency: SimDuration::from_secs(30),
            retrigger_guard: SimDuration::from_secs(600),
            poll_period,
            known: None,
            unknown: None,
            model_version: 0,
            last_job_at: None,
            samples: Vec::new(),
            jobs_launched: 0,
            jobs_completed: 0,
        }
    }

    /// Threshold evaluation once both metrics from the same epoch arrived.
    fn evaluate(&mut self, ctx: &mut OrcaCtx<'_>) {
        let (Some((ek, known)), Some((eu, unknown))) = (self.known, self.unknown) else {
            return;
        };
        if ek != eu {
            return; // measurements from different rounds — wait (§4.2)
        }
        let ratio = if known <= 0 {
            if unknown > 0 {
                2.0 // all-unknown: saturate above threshold
            } else {
                0.0
            }
        } else {
            unknown as f64 / known as f64
        };
        self.samples.push(RatioSample {
            epoch: ek,
            at: ctx.now(),
            ratio,
            model_version: self.model_version,
        });
        let guard_active = self
            .last_job_at
            .is_some_and(|t| ctx.now().since(t) < self.retrigger_guard);
        if ratio > 1.0 && !guard_active {
            self.last_job_at = Some(ctx.now());
            self.jobs_launched += 1;
            // "Issue the Hadoop job": completion arrives via timer.
            ctx.set_timer(self.hadoop_latency, "hadoop_done");
            ctx.set_status("hadoop", "running");
        }
    }
}

impl Orchestrator for SentimentOrca {
    fn on_start(&mut self, ctx: &mut OrcaCtx<'_>, _s: &OrcaStartContext) {
        // Bootstrap model (the offline pre-computation on the large corpus).
        self.stores.cause_model.set(&["flash", "screen"]);
        ctx.register_event_scope(
            OperatorMetricScope::new("causeMetrics")
                .add_application("SentimentAnalysis")
                .add_operator_instance("correlator")
                .add_metric("nKnownCauses")
                .add_metric("nUnknownCauses")
                .add_metric("modelVersion"),
        );
        ctx.set_metric_poll_period(self.poll_period);
        ctx.submit_app("SentimentAnalysis").unwrap();
        ctx.set_status("hadoop", "idle");
    }

    fn on_operator_metric(
        &mut self,
        ctx: &mut OrcaCtx<'_>,
        e: &OperatorMetricContext,
        _scopes: &[String],
    ) {
        match e.metric.as_str() {
            "nKnownCauses" => self.known = Some((e.epoch, e.value)),
            "nUnknownCauses" => self.unknown = Some((e.epoch, e.value)),
            "modelVersion" => self.model_version = e.value as u64,
            _ => return,
        }
        self.evaluate(ctx);
    }

    fn on_timer(&mut self, ctx: &mut OrcaCtx<'_>, e: &TimerContext) {
        if e.key == "hadoop_done" {
            // Batch job finished: publish the recomputed model; the
            // correlator hot-reloads it on its next tuple.
            HadoopJobSim::recompute(&self.stores.tweet_archive, &self.stores.cause_model);
            self.jobs_completed += 1;
            ctx.set_status("hadoop", "idle");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orca::{OrcaDescriptor, OrcaService};
    use sps_runtime::{Cluster, Kernel, RuntimeConfig, World};

    fn build_world(p: SentimentParams) -> (World, usize, SharedStores) {
        let stores = SharedStores::new();
        let kernel = Kernel::new(
            Cluster::with_hosts(2),
            crate::registry(&stores),
            RuntimeConfig::default(),
        );
        let mut world = World::new(kernel);
        let orca_logic = SentimentOrca::new(stores.clone(), SimDuration::from_secs(3));
        let service = OrcaService::submit(
            &mut world.kernel,
            OrcaDescriptor::new("SentimentOrca").app(sentiment_app(p)),
            Box::new(orca_logic),
        );
        let idx = world.add_controller(Box::new(service));
        (world, idx, stores)
    }

    fn orca_logic(world: &World, idx: usize) -> &SentimentOrca {
        world
            .controller::<OrcaService>(idx)
            .unwrap()
            .logic::<SentimentOrca>()
            .unwrap()
    }

    /// The correlator's three gauges go through handles it resolves at its
    /// first refresh: absent before that, and the same handles keep
    /// updating the same metrics after the PE is restored.
    #[test]
    fn correlator_gauges_are_lazy_and_survive_restore() {
        use sps_engine::{PeRuntime, StreamItem};
        use sps_model::adl::{AdlOperator, AdlPe};

        let adl = Adl {
            app_name: "Cor".into(),
            pes: vec![AdlPe {
                index: 0,
                operators: vec!["cor".into()],
                host_pool: None,
                host_exlocate: None,
            }],
            operators: vec![AdlOperator {
                name: "cor".into(),
                kind: "CauseCorrelator".into(),
                pe: 0,
                composite_path: vec![],
                params: Default::default(),
                inputs: 1,
                outputs: 1,
                custom_metrics: vec![],
                restartable: true,
                checkpointable: true,
            }],
            streams: vec![],
            imports: vec![],
            exports: vec![],
            host_pools: vec![],
        };
        let stores = SharedStores::new();
        let mut pe = PeRuntime::build(&adl, 0, &crate::registry(&stores), SimRng::new(1)).unwrap();
        let q = SimDuration::from_millis(100);
        let feed = |pe: &mut PeRuntime, tweets: usize| {
            for _ in 0..tweets {
                let tweet = Tuple::new().with("cause", "flash");
                pe.inject("cor", 0, StreamItem::Tuple(tweet)).unwrap();
            }
            pe.step(SimTime::from_millis(100), q, 100);
        };
        let gauge = |pe: &PeRuntime, m: &str| pe.metrics().op_get("cor", m);
        let in_window =
            |pe: &PeRuntime| Some(gauge(pe, "nKnownCauses")? + gauge(pe, "nUnknownCauses")?);
        let gauges = ["nKnownCauses", "nUnknownCauses", "modelVersion"];

        // Nothing refreshed yet: none of the three exists.
        let before_first = pe.checkpoint(SimTime::ZERO);
        assert!(gauges.iter().all(|m| gauge(&pe, m).is_none()));
        feed(&mut pe, 1);
        assert!(gauges.iter().all(|m| gauge(&pe, m).is_some()));
        assert_eq!(in_window(&pe), Some(1));
        let at_one = pe.checkpoint(SimTime::ZERO);
        feed(&mut pe, 2);
        assert_eq!(in_window(&pe), Some(3));

        // Rolled back, the handles resolved before the restore set the
        // same three metrics.
        pe.restore(&at_one).unwrap();
        assert_eq!(in_window(&pe), Some(1));
        feed(&mut pe, 1);
        assert_eq!(in_window(&pe), Some(2));

        pe.restore(&before_first).unwrap();
        assert!(gauges.iter().all(|m| gauge(&pe, m).is_none()));
        feed(&mut pe, 0);
        assert_eq!(in_window(&pe), Some(0));
    }

    #[test]
    fn ratio_stays_low_without_drift() {
        let (mut world, idx, _) = build_world(SentimentParams {
            drift_at_secs: f64::MAX,
            ..Default::default()
        });
        world.run_for(SimDuration::from_secs(120));
        let logic = orca_logic(&world, idx);
        assert!(logic.samples.len() > 10);
        // Skip warmup; after that the known causes dominate.
        for s in &logic.samples[5..] {
            assert!(s.ratio < 1.0, "epoch {}: ratio {}", s.epoch, s.ratio);
        }
        assert_eq!(logic.jobs_launched, 0);
    }

    #[test]
    fn drift_triggers_exactly_one_job_and_ratio_recovers() {
        let p = SentimentParams {
            drift_at_secs: 100.0,
            ..Default::default()
        };
        let (mut world, idx, stores) = build_world(p);
        world.run_for(SimDuration::from_secs(400));
        let logic = orca_logic(&world, idx);
        assert_eq!(logic.jobs_launched, 1, "10-minute guard must hold");
        assert_eq!(logic.jobs_completed, 1);
        // The model was recomputed to include antenna.
        let model = stores.cause_model.snapshot();
        assert!(
            model.known_causes.iter().any(|c| c == "antenna"),
            "model: {model:?}"
        );
        assert!(model.version >= 2);
        // Ratio shape: low → crosses 1.0 after drift → recovers below 1.0.
        let crossed = logic.samples.iter().position(|s| s.ratio > 1.0).unwrap();
        assert!(logic.samples[crossed].at >= SimTime::from_secs(100));
        let last = logic.samples.last().unwrap();
        assert!(last.ratio < 1.0, "final ratio {}", last.ratio);
        // Status board returned to idle.
        let svc = world.controller::<OrcaService>(idx).unwrap();
        assert_eq!(svc.status("hadoop"), Some("idle"));
    }

    #[test]
    fn hadoop_sim_selects_dominant_causes() {
        let archive = TweetArchiveHandle::default();
        let model = CauseModelHandle::default();
        model.set(&["flash"]);
        for _ in 0..100 {
            archive.record("antenna");
        }
        for _ in 0..50 {
            archive.record("screen");
        }
        for _ in 0..2 {
            archive.record("rare"); // below the 5% threshold
        }
        let kept = HadoopJobSim::recompute(&archive, &model);
        assert_eq!(kept, vec!["antenna".to_string(), "screen".to_string()]);
        assert_eq!(model.snapshot().version, 2);
    }

    #[test]
    fn hadoop_sim_with_empty_archive_keeps_model() {
        let archive = TweetArchiveHandle::default();
        let model = CauseModelHandle::default();
        model.set(&["flash"]);
        let kept = HadoopJobSim::recompute(&archive, &model);
        assert_eq!(kept, vec!["flash".to_string()]);
        assert_eq!(model.snapshot().version, 1); // unchanged
    }

    #[test]
    fn embedded_variant_adapts_without_orchestrator() {
        let stores = SharedStores::new();
        stores.cause_model.set(&["flash", "screen"]);
        let mut kernel = Kernel::new(
            Cluster::with_hosts(1),
            crate::registry(&stores),
            RuntimeConfig::default(),
        );
        let adl = sentiment_app_embedded(SentimentParams {
            drift_at_secs: 60.0,
            ..Default::default()
        });
        let job = kernel.submit_job(adl, None).unwrap();
        for _ in 0..(300 * 10) {
            kernel.quantum();
        }
        // The embedded actuator recomputed the model in-graph.
        let model = stores.cause_model.snapshot();
        assert!(
            model.known_causes.iter().any(|c| c == "antenna"),
            "embedded adaptation should have updated the model: {model:?}"
        );
        let _ = job;
    }

    #[test]
    fn tweet_archive_caps_and_histograms() {
        let archive = TweetArchiveHandle::default();
        assert!(archive.is_empty());
        for i in 0..(ARCHIVE_CAP + 100) {
            archive.record(if i % 2 == 0 { "a" } else { "b" });
        }
        assert_eq!(archive.len(), ARCHIVE_CAP);
        let h = archive.cause_histogram();
        assert_eq!(h.len(), 2);
        assert_eq!(h["a"] + h["b"], ARCHIVE_CAP);
    }
}
