//! The application-visible artifacts of a settled world — per running job
//! the SRM snapshot, then per job × tap the retained tuples — walked once,
//! as typed values lent by their owners, for two consumers.
//!
//! A `String` renders them as text, for a human and for the determinism
//! suite's byte comparison. A [`DigestWriter`] folds them into the run
//! digest as values: no formatter, no decimal floats, no quoting. Both are
//! handed the same pieces by the same walk, so what the digest covers and
//! what the text shows cannot silently diverge.

use sps_engine::{MetricKey, Tuple};
use sps_model::Value;
use sps_runtime::{JobId, JobMetrics, Srm, World};
use sps_sim::DigestWriter;
use std::collections::VecDeque;
use std::fmt::{self, Write};

/// A consumer of the artifact walk.
pub trait ArtifactSink {
    /// The SRM snapshot of every running job that has one, in job order.
    /// Called once, before any tap.
    fn snapshots<'a, I>(&mut self, snapshots: I) -> fmt::Result
    where
        I: Iterator<Item = (JobId, JobMetrics<'a>)> + Clone;

    /// One tap of one running job: its retained tuples, oldest first.
    fn tap(&mut self, job: JobId, tap: &str, tuples: &VecDeque<Tuple>) -> fmt::Result;
}

/// The walk: which jobs, which taps, in which order. `jobs` are the running
/// jobs in id order and `tap_of` lends a tap's ring (`None` when the job has
/// no such operator, or its PE is gone).
pub(crate) fn walk<'a, W: ArtifactSink>(
    jobs: impl Iterator<Item = JobId> + Clone,
    srm: &'a Srm,
    tap_of: impl Fn(JobId, &str) -> Option<&'a VecDeque<Tuple>>,
    taps: &[&str],
    out: &mut W,
) -> fmt::Result {
    let with_metrics = jobs.clone();
    out.snapshots(with_metrics.filter_map(|job| Some((job, srm.job_metrics(job)?))))?;
    for job in jobs {
        for tap in taps {
            if let Some(tuples) = tap_of(job, tap) {
                out.tap(job, tap, tuples)?;
            }
        }
    }
    Ok(())
}

/// Hands the artifacts of `world` — SRM snapshots plus the `taps` of every
/// running job — to `out`: text into a `String`, a typed fold into a
/// [`DigestWriter`]. Nothing is copied or allocated on the way.
pub fn render_artifacts_to<W: ArtifactSink>(
    world: &World,
    taps: &[&str],
    out: &mut W,
) -> fmt::Result {
    let kernel = &world.kernel;
    let tap_of = |job, tap: &str| kernel.tap_ref(job, tap);
    walk(kernel.sam.running(), &kernel.srm, tap_of, taps, out)
}

/// [`render_artifacts_to`] into a fresh `String`.
pub fn render_artifacts(world: &World, taps: &[&str]) -> String {
    let mut out = String::new();
    render_artifacts_to(world, taps, &mut out).expect("String sink never fails");
    out
}

/// The text: `{:?}` of the snapshots as a map keyed by job, then one
/// `JobId(n).tap: [tuples]` line per tap.
impl ArtifactSink for String {
    fn snapshots<'a, I>(&mut self, snapshots: I) -> fmt::Result
    where
        I: Iterator<Item = (JobId, JobMetrics<'a>)> + Clone,
    {
        struct ByJob<I>(I);
        impl<'a, I> fmt::Debug for ByJob<I>
        where
            I: Iterator<Item = (JobId, JobMetrics<'a>)> + Clone,
        {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.debug_map().entries(self.0.clone()).finish()
            }
        }
        writeln!(self, "{:?}", ByJob(snapshots))
    }

    fn tap(&mut self, job: JobId, tap: &str, tuples: &VecDeque<Tuple>) -> fmt::Result {
        writeln!(self, "{job:?}.{tap}: {tuples:?}")
    }
}

/// The fold, covering what the text shows in the order it shows it. It is
/// prefix-free by framing: every sequence is preceded by its length (and a
/// string by its own, [`DigestWriter::bytes`]), every enum by a variant tag,
/// and every scalar is one word — a float its `to_bits()`.
impl ArtifactSink for DigestWriter {
    fn snapshots<'a, I>(&mut self, snapshots: I) -> fmt::Result
    where
        I: Iterator<Item = (JobId, JobMetrics<'a>)> + Clone,
    {
        self.word(snapshots.clone().count() as u64);
        for (job, metrics) in snapshots {
            self.word(job.0);
            self.word(metrics.collected_at().as_millis());
            self.word(metrics.rows().count() as u64);
            for (key, value) in metrics.rows() {
                fold_key(self, key);
                self.word(*value as u64);
            }
        }
        Ok(())
    }

    fn tap(&mut self, job: JobId, tap: &str, tuples: &VecDeque<Tuple>) -> fmt::Result {
        self.word(job.0);
        self.bytes(tap.as_bytes());
        self.word(tuples.len() as u64);
        for tuple in tuples {
            self.word(tuple.len() as u64);
            for (name, value) in tuple.iter() {
                self.bytes(name.as_bytes());
                fold_value(self, value);
            }
        }
        Ok(())
    }
}

fn fold_key(w: &mut DigestWriter, key: &MetricKey) {
    match key {
        MetricKey::Operator(op, metric) => {
            w.word(0);
            w.bytes(op.as_bytes());
            w.bytes(metric.as_bytes());
        }
        MetricKey::OperatorPort(op, port, metric) => {
            w.word(1);
            w.bytes(op.as_bytes());
            w.word(*port as u64);
            w.bytes(metric.as_bytes());
        }
        MetricKey::Pe(pe, metric) => {
            w.word(2);
            w.word(*pe as u64);
            w.bytes(metric.as_bytes());
        }
    }
}

fn fold_value(w: &mut DigestWriter, value: &Value) {
    match value {
        Value::Int(i) => {
            w.word(0);
            w.word(*i as u64);
        }
        Value::Float(x) => {
            w.word(1);
            w.word(x.to_bits());
        }
        Value::Str(s) => {
            w.word(2);
            w.bytes(s.as_bytes());
        }
        Value::Bool(b) => {
            w.word(3);
            w.word(u64::from(*b));
        }
        Value::Timestamp(t) => {
            w.word(4);
            w.word(*t);
        }
        Value::List(items) => {
            w.word(5);
            w.word(items.len() as u64);
            for item in items {
                fold_value(w, item);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        by_name, default_oracles, plan_seeds, run_plan, settled_world, BaselineCache,
        BaselineSource, FaultPlan, Scenario, WorldPolicy,
    };
    use proptest::prelude::*;
    use sps_runtime::PeId;
    use sps_sim::{fnv1a, SimRng, SimTime, FNV_OFFSET};
    use std::collections::BTreeMap;
    use std::rc::Rc;

    // ---- a model of an artifact set, and the real walk over it ------------

    const TAPS: [&str; 2] = ["snk", "graph"];
    /// Names that are prefixes of each other, one empty, one multi-byte, one
    /// longer than a word.
    const NAMES: [&str; 7] = ["a", "ab", "b", "", "seq", "größe", "nTuplesProcessed"];
    const STRS: [&str; 6] = ["", "a", "ab", "c", "héllo ✓", "abcdefghi"];

    type Row = Vec<(&'static str, Value)>;

    #[derive(Clone, Debug)]
    struct Job {
        /// One HC push per PE: `(collected_at ms, rows)`. None pushed yet →
        /// the job has no snapshot.
        pushes: Vec<(u64, Vec<(MetricKey, i64)>)>,
        /// The tuples of `TAPS[i]`; `None` → the job has no such operator.
        taps: [Option<Vec<Row>>; 2],
    }

    /// Jobs 1..=n, all running.
    type Model = Vec<Job>;

    fn tuple_of(row: &Row) -> Tuple {
        let mut t = Tuple::new();
        for (name, value) in row {
            t.set(name, value.clone());
        }
        t
    }

    /// Drives [`walk`] — the production walk — over a model.
    fn feed<W: ArtifactSink>(model: &Model, out: &mut W) {
        let mut srm = Srm::new();
        let mut rings: BTreeMap<JobId, BTreeMap<&str, VecDeque<Tuple>>> = BTreeMap::new();
        for (job, id) in model.iter().zip(1..) {
            for ((at, rows), pe) in job.pushes.iter().zip(0..) {
                let rows = rows.iter().map(|(k, v)| (Rc::new(k.clone()), *v));
                srm.push_pe_metrics(
                    JobId(id),
                    PeId(pe),
                    SimTime::from_millis(*at),
                    rows.collect(),
                );
            }
            for (tap, tuples) in TAPS.iter().zip(&job.taps) {
                if let Some(tuples) = tuples {
                    let ring = tuples.iter().map(tuple_of).collect();
                    rings.entry(JobId(id)).or_default().insert(tap, ring);
                }
            }
        }
        let jobs = (1..=model.len() as u64).map(JobId);
        let tap_of = |job, tap: &str| rings.get(&job)?.get(tap);
        walk(jobs, &srm, tap_of, &TAPS, out).expect("neither sink fails");
    }

    fn text(model: &Model) -> String {
        let mut out = String::new();
        feed(model, &mut out);
        out
    }

    fn digest(model: &Model) -> u64 {
        let mut out = DigestWriter::default();
        feed(model, &mut out);
        out.digest()
    }

    // ---- generators -------------------------------------------------------

    fn arb_value() -> impl Strategy<Value = Value> {
        const FLOATS: [f64; 6] = [0.0, -0.0, 1.0, -1.5, f64::INFINITY, f64::MIN_POSITIVE];
        // Small payloads on purpose: `Int(1)`, `Timestamp(1)` and
        // `Bool(true)` must meet.
        let leaf = prop_oneof![
            (-2i64..3).prop_map(Value::Int),
            any::<i64>().prop_map(Value::Int),
            (0..FLOATS.len()).prop_map(|i| Value::Float(FLOATS[i])),
            (0..STRS.len()).prop_map(|i| Value::Str(STRS[i].into())),
            any::<bool>().prop_map(Value::Bool),
            (0u64..3).prop_map(Value::Timestamp),
        ];
        leaf.prop_recursive(2, 8, 3, |inner| {
            prop::collection::vec(inner, 0..3).prop_map(Value::List)
        })
    }

    fn arb_row() -> impl Strategy<Value = Row> {
        let attr = ((0..NAMES.len()).prop_map(|i| NAMES[i]), arb_value());
        prop::collection::vec(attr, 0..4)
    }

    fn arb_key() -> impl Strategy<Value = MetricKey> {
        let name = || (0..NAMES.len()).prop_map(|i| NAMES[i].to_string());
        prop_oneof![
            (name(), name()).prop_map(|(op, m)| MetricKey::Operator(op, m)),
            (name(), 0usize..3, name()).prop_map(|(op, p, m)| MetricKey::OperatorPort(op, p, m)),
            (0usize..3, name()).prop_map(|(pe, m)| MetricKey::Pe(pe, m)),
        ]
    }

    fn arb_job() -> impl Strategy<Value = Job> {
        let push = (0u64..5, prop::collection::vec((arb_key(), -2i64..3), 0..11));
        let tap = || prop::option::of(prop::collection::vec(arb_row(), 0..41));
        (prop::collection::vec(push, 0..3), tap(), tap()).prop_map(|(pushes, snk, graph)| Job {
            pushes,
            taps: [snk, graph],
        })
    }

    // ---- single-site mutations --------------------------------------------

    #[derive(Clone, Copy, Debug)]
    enum Mutation {
        RenameAttr,
        ChangeValue,
        RetagValue,
        SwapTuples,
        DropTuple,
        MoveTupleBoundary,
        MoveTuplesToNextTap,
        MoveTapToNextJob,
        SwapTapsOfJob,
        MoveSnapshotToNextJob,
        DropMetricRow,
        ChangeMetricRow,
        SwapMetricRows,
        ChangeCollectedAt,
        DropSnapshot,
        TupleReadAsTap,
    }

    const MUTATIONS: [Mutation; 16] = [
        Mutation::RenameAttr,
        Mutation::ChangeValue,
        Mutation::RetagValue,
        Mutation::SwapTuples,
        Mutation::DropTuple,
        Mutation::MoveTupleBoundary,
        Mutation::MoveTuplesToNextTap,
        Mutation::MoveTapToNextJob,
        Mutation::SwapTapsOfJob,
        Mutation::MoveSnapshotToNextJob,
        Mutation::DropMetricRow,
        Mutation::ChangeMetricRow,
        Mutation::SwapMetricRows,
        Mutation::ChangeCollectedAt,
        Mutation::DropSnapshot,
        Mutation::TupleReadAsTap,
    ];

    /// Another variant over the same payload word(s).
    fn retagged(value: &Value) -> Value {
        match value {
            Value::Int(i) => Value::Timestamp(*i as u64),
            Value::Timestamp(t) => Value::Int(*t as i64),
            Value::Bool(b) => Value::Int(i64::from(*b)),
            Value::Float(x) => Value::Timestamp(x.to_bits()),
            Value::Str(s) if s.is_empty() => Value::List(Vec::new()),
            Value::Str(s) => Value::Str(s.clone()),
            Value::List(items) if items.is_empty() => Value::Str(String::new()),
            Value::List(items) => Value::List(items.iter().map(retagged).collect()),
        }
    }

    fn pick(rng: &mut SimRng, n: usize) -> usize {
        rng.gen_range(0, n as u64) as usize
    }

    /// Applies one mutation at one site drawn from `rng`; the model comes
    /// back unchanged when it has no such site. (`TupleReadAsTap` first
    /// plants its site in `model`.)
    fn mutate(model: &mut Model, mutation: Mutation, rng: &mut SimRng) -> Model {
        let mut m = model.clone();
        let job = pick(rng, m.len());
        let tap = pick(rng, TAPS.len());
        let next_job = (job + 1) % m.len();
        match mutation {
            Mutation::TupleReadAsTap if model.len() > 1 => {
                // The last tuple before job 2's `snk` spells that tap's
                // header — the word 2, a three-byte name, "snk" — and then
                // five zero words, which is what five empty tuples are.
                // Only the tuple counts tell the two apart.
                let header_like = vec![("snk", Value::Int(0)), ("", Value::Int(0))];
                model[0].taps[1]
                    .get_or_insert_with(Vec::new)
                    .push(header_like);
                model[1].taps[0] = None;
                m[0].taps[1].get_or_insert_with(Vec::new);
                m[1].taps[0] = Some(vec![Vec::new(); 5]);
            }
            Mutation::MoveTapToNextJob => {
                let moved = m[job].taps[tap].take();
                let displaced = std::mem::replace(&mut m[next_job].taps[tap], moved);
                m[job].taps[tap] = displaced;
            }
            Mutation::SwapTapsOfJob => m[job].taps.swap(0, 1),
            Mutation::MoveSnapshotToNextJob => {
                let moved = std::mem::take(&mut m[job].pushes);
                m[job].pushes = std::mem::replace(&mut m[next_job].pushes, moved);
            }
            Mutation::MoveTuplesToNextTap => {
                // The tail of one tap becomes the head of the next tap the
                // walk visits (the other tap of this job, or the next job's).
                let (to_job, to_tap) = if tap == 0 { (job, 1) } else { (next_job, 0) };
                let Some(from) = m[job].taps[tap].as_mut().filter(|t| !t.is_empty()) else {
                    return m;
                };
                let tail = from.split_off(pick(rng, from.len()));
                match &mut m[to_job].taps[to_tap] {
                    Some(to) => to.splice(0..0, tail).for_each(drop),
                    None => m[job].taps[tap].as_mut().unwrap().extend(tail),
                }
            }
            Mutation::DropMetricRow
            | Mutation::ChangeMetricRow
            | Mutation::SwapMetricRows
            | Mutation::ChangeCollectedAt
            | Mutation::DropSnapshot => mutate_metrics(&mut m[job], mutation, rng),
            _ => {
                if let Some(tuples) = m[job].taps[tap].as_mut().filter(|t| !t.is_empty()) {
                    mutate_tuples(tuples, mutation, rng);
                }
            }
        }
        m
    }

    fn mutate_metrics(job: &mut Job, mutation: Mutation, rng: &mut SimRng) {
        if job.pushes.is_empty() {
            return;
        }
        let pe = pick(rng, job.pushes.len());
        if matches!(mutation, Mutation::DropSnapshot) {
            job.pushes.clear();
            return;
        }
        if matches!(mutation, Mutation::ChangeCollectedAt) {
            job.pushes[pe].0 += 1 + rng.gen_range(0, 3);
            return;
        }
        let rows = &mut job.pushes[pe].1;
        if rows.is_empty() {
            return;
        }
        let (row, other) = (pick(rng, rows.len()), pick(rng, rows.len()));
        let (key, value) = &mut rows[row];
        match (mutation, pick(rng, 3)) {
            (Mutation::DropMetricRow, _) => drop(rows.remove(row)),
            (Mutation::SwapMetricRows, _) => rows.swap(row, other),
            (_, 0) => *value += 1,
            (_, 1) => {
                // The same strings under another variant.
                if let MetricKey::Operator(op, m) = key {
                    *key = MetricKey::OperatorPort(op.clone(), 0, m.clone());
                }
            }
            _ => match key {
                MetricKey::Operator(name, _)
                | MetricKey::OperatorPort(name, ..)
                | MetricKey::Pe(_, name) => name.push('c'),
            },
        }
    }

    fn mutate_tuples(tuples: &mut Vec<Row>, mutation: Mutation, rng: &mut SimRng) {
        let (at, other) = (pick(rng, tuples.len()), pick(rng, tuples.len()));
        match mutation {
            Mutation::SwapTuples => tuples.swap(at, other),
            Mutation::DropTuple => drop(tuples.remove(at)),
            Mutation::MoveTupleBoundary => {
                // The last attribute of one tuple becomes the first of the next.
                if at + 1 < tuples.len() {
                    if let Some(attr) = tuples[at].pop() {
                        tuples[at + 1].insert(0, attr);
                    }
                }
            }
            _ => {
                let row = &mut tuples[at];
                if row.is_empty() {
                    return;
                }
                let attr = pick(rng, row.len());
                match mutation {
                    Mutation::RenameAttr => row[attr].0 = NAMES[pick(rng, NAMES.len())],
                    Mutation::RetagValue => row[attr].1 = retagged(&row[attr].1),
                    _ => match &mut row[attr].1 {
                        Value::Str(s) => s.push('\0'),
                        Value::Float(x) => *x = -*x,
                        other => *other = Value::Int(rng.gen_range(0, 3) as i64),
                    },
                }
            }
        }
    }

    proptest! {
        /// What the text sees, the fold sees — and nothing the text does
        /// not show (a schema pointer, a capacity) reaches the fold.
        #[test]
        fn a_mutation_the_text_shows_changes_the_digest(
            model in prop::collection::vec(arb_job(), 1..4),
            mutation in (0..MUTATIONS.len()).prop_map(|i| MUTATIONS[i]),
            site in any::<u64>(),
        ) {
            let mut model = model;
            let mutant = mutate(&mut model, mutation, &mut SimRng::new(site));
            let same_text = text(&model) == text(&mutant);
            let same_digest = digest(&model) == digest(&mutant);
            prop_assert_eq!(same_text, same_digest, "{:?}\n{}\n{}", mutation, text(&model), text(&mutant));
        }
    }

    // ---- the framing cases, one by one ------------------------------------

    fn one_tap(tuples: Vec<Row>) -> Model {
        vec![Job {
            pushes: Vec::new(),
            taps: [Some(tuples), None],
        }]
    }

    fn one_value(value: Value) -> Model {
        one_tap(vec![vec![("v", value)]])
    }

    fn one_key(key: MetricKey) -> Model {
        vec![Job {
            pushes: vec![(3000, vec![(key, 1)])],
            taps: [None, None],
        }]
    }

    fn assert_all_differ(what: &str, models: &[Model]) {
        for (i, a) in models.iter().enumerate() {
            for b in &models[i + 1..] {
                assert_ne!(text(a), text(b), "{what}: the cases are meant to differ");
                assert_ne!(digest(a), digest(b), "{what}:\n{}{}", text(a), text(b));
            }
        }
    }

    #[test]
    fn the_fold_is_framed() {
        let str = |s: &str| Value::Str(s.into());
        assert_all_differ(
            "adjacent strings do not trade bytes",
            &[
                one_tap(vec![vec![("ab", str("c"))]]),
                one_tap(vec![vec![("a", str("bc"))]]),
                one_tap(vec![vec![("", str("abc"))]]),
            ],
        );
        assert_all_differ(
            "an attribute is its name and its value",
            &[
                one_tap(vec![vec![("a", str("c"))]]),
                one_tap(vec![vec![("b", str("c"))]]),
                one_tap(vec![vec![("a", str("d"))]]),
            ],
        );
        assert_all_differ(
            "a variant tag goes in with its payload",
            &[
                one_value(Value::Int(1)),
                one_value(Value::Timestamp(1)),
                one_value(Value::Bool(true)),
                one_value(Value::Float(f64::from_bits(1))),
                one_value(Value::List(vec![Value::Int(1)])),
            ],
        );
        assert_all_differ(
            "floats go in as bits",
            &[
                one_value(Value::Float(0.0)),
                one_value(Value::Float(-0.0)),
                one_value(Value::Int(0)),
            ],
        );
        assert_all_differ(
            "empty things are still things",
            &[
                one_value(str("")),
                one_value(Value::List(Vec::new())),
                one_value(Value::List(vec![str("")])),
                one_value(Value::List(vec![Value::List(Vec::new())])),
            ],
        );
        assert_all_differ(
            "a NUL is a byte, not padding",
            &[one_value(str("a")), one_value(str("a\0"))],
        );
        let int = Value::Int;
        assert_all_differ(
            "a list carries its length",
            &[
                one_value(Value::List(vec![Value::List(vec![int(1), int(2)])])),
                one_value(Value::List(vec![Value::List(vec![int(1)]), int(2)])),
                one_value(Value::List(vec![Value::List(Vec::new()), int(1), int(2)])),
            ],
        );
        assert_all_differ(
            "a tuple carries its attribute count, a tap its tuple count",
            &[
                one_tap(vec![vec![("a", int(1)), ("b", int(2))]]),
                one_tap(vec![vec![("a", int(1))], vec![("b", int(2))]]),
                one_tap(vec![vec![], vec![("a", int(1)), ("b", int(2))]]),
                one_tap(vec![vec![("a", int(1)), ("b", int(2))], vec![]]),
            ],
        );
        // Which job and which tap the tuples sit in; a tap that is absent
        // against one that is empty.
        let placed = |job: usize, tap: usize, empty_elsewhere: bool| {
            let elsewhere = || empty_elsewhere.then(Vec::new);
            let mut model: Model = (0..2)
                .map(|_| Job {
                    pushes: Vec::new(),
                    taps: [elsewhere(), elsewhere()],
                })
                .collect();
            model[job].taps[tap] = Some(vec![vec![("a", int(1))]]);
            model
        };
        assert_all_differ(
            "tuples belong to a job and a tap",
            &[
                placed(0, 0, true),
                placed(0, 1, true),
                placed(1, 0, true),
                placed(1, 1, true),
                placed(0, 0, false),
                placed(0, 1, false),
                placed(1, 0, false),
                placed(1, 1, false),
            ],
        );
        let op = |op: &str, m: &str| MetricKey::Operator(op.into(), m.into());
        assert_all_differ(
            "metric keys carry their variant and every field",
            &[
                one_key(op("ab", "c")),
                one_key(op("a", "bc")),
                one_key(MetricKey::OperatorPort("ab".into(), 0, "c".into())),
                one_key(MetricKey::OperatorPort("ab".into(), 1, "c".into())),
                one_key(MetricKey::Pe(0, "c".into())),
                one_key(MetricKey::Pe(1, "c".into())),
            ],
        );
        let snapshot = |pushes: Vec<(u64, Vec<(MetricKey, i64)>)>| {
            vec![Job {
                pushes,
                taps: [None, None],
            }]
        };
        let snapshot_of = |job: usize| {
            let mut model = snapshot(Vec::new());
            model.push(model[0].clone());
            model[job].pushes.push((3000, Vec::new()));
            model
        };
        assert_all_differ(
            "a snapshot belongs to a job",
            &[snapshot_of(0), snapshot_of(1)],
        );
        assert_all_differ(
            "a snapshot is its time and its rows, PE by PE",
            &[
                snapshot(Vec::new()),
                snapshot(vec![(3000, Vec::new())]),
                snapshot(vec![(6000, Vec::new())]),
                snapshot(vec![(6000, vec![(op("a", "m"), 1)])]),
                snapshot(vec![(6000, vec![(op("a", "m"), -1)])]),
                snapshot(vec![(6000, vec![(op("a", "m"), 1), (op("b", "m"), 1)])]),
                snapshot(vec![(6000, vec![(op("b", "m"), 1), (op("a", "m"), 1)])]),
            ],
        );
    }

    // ---- the four applications, after a faulted run -----------------------

    const APPS: [&str; 4] = ["live", "sentiment", "social", "trend"];

    /// The first plan `campaign --seed 7 --app <app>` runs.
    fn first_plan(app: &str) -> (Scenario, u64, FaultPlan) {
        let scenario = by_name(app).expect("a campaign app");
        let seed = plan_seeds(7, 1)[0];
        let spec = scenario.plan_spec_with(false);
        let plan = FaultPlan::generate(&mut SimRng::new(seed), &spec);
        assert!(!plan.events.is_empty());
        (scenario, seed, plan)
    }

    /// The rendering as it was before the walk lent anything: an owned
    /// `query_jobs` map and owned taps through `{:?}`. Kept as the reference
    /// the `String` sink is held to, byte for byte.
    fn reference_rendering(world: &World, taps: &[&str]) -> String {
        let jobs = world.kernel.sam.running_jobs();
        let mut out = format!("{:?}\n", world.kernel.srm.query_jobs(&jobs));
        for &job in &jobs {
            for tap in taps {
                if let Some(tuples) = world.kernel.tap(job, tap) {
                    out.push_str(&format!("{job:?}.{tap}: {tuples:?}\n"));
                }
            }
        }
        out
    }

    #[test]
    fn the_string_sink_renders_what_the_owned_rendering_did() {
        for app in APPS {
            let (scenario, seed, plan) = first_plan(app);
            let (world, _, _) = settled_world(&scenario, seed, &plan, WorldPolicy::default(), None);
            let rendered = render_artifacts(&world, scenario.taps);
            assert!(
                rendered.contains("Tuple { attrs: ["),
                "{app} retained no tuples"
            );
            assert!(rendered.contains("MetricSnapshot { collected_at: "));
            assert_eq!(
                rendered,
                reference_rendering(&world, scenario.taps),
                "{app}"
            );
        }
    }

    /// The benchmark's traced twin of `run_plan` (`perf/mirror.rs`, a
    /// directory this repository may not edit while a gain is claimed)
    /// computes the run digest itself, with the three calls below spelled
    /// exactly so. They must keep compiling and keep giving `run_plan`'s
    /// digest.
    #[test]
    fn the_benchmarks_three_calls_give_run_plans_digest() {
        for app in APPS {
            let (scenario, seed, plan) = first_plan(app);
            let policy = WorldPolicy::default();
            let cache = BaselineCache::default();
            let oracles = default_oracles(false, false, false);
            let baseline = BaselineSource::new(&cache, plan.horizon());
            let outcome = run_plan(&scenario, seed, &plan, &oracles, policy, baseline);
            assert_eq!(outcome.violations, [], "{app}");

            let (world, _, _) = settled_world(&scenario, seed, &plan, policy, None);
            let mut w = DigestWriter::new(fnv1a(
                FNV_OFFSET,
                &world.kernel.trace.digest().to_le_bytes(),
            ));
            render_artifacts_to(&world, scenario.taps, &mut w).expect("digest sink never fails");
            assert_eq!(w.digest(), outcome.digest, "{app}");
        }
    }
}
