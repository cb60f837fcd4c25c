//! Relational-style operators: Filter, Functor, Split, Merge.

use crate::ckpt::{StateBlob, StateReader, StateWriter};
use crate::expr::{BoundExpr, Expr, Scalar};
use crate::metrics::MetricId;
use crate::op::{FinalPunctTracker, OpCtx, Operator, Punct};
use crate::ops::{opt_str, req_str};
use crate::tuple::{Schema, Tuple};
use crate::EngineError;
use sps_model::value::ParamMap;
use std::cell::OnceCell;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::rc::Rc;

/// Forwards tuples matching a predicate; maintains the custom metric
/// `nDiscarded` (the paper's example of an operator-specific custom metric,
/// §2.1).
///
/// Parameters: `predicate` (str expression, required).
pub struct Filter {
    predicate: BoundExpr,
    /// Handle of `nDiscarded`, resolved at the first discard. Written once
    /// and the same after a restore, so a Filter still has no state.
    discarded: OnceCell<MetricId>,
}

impl Filter {
    pub fn from_params(op: &str, params: &ParamMap) -> Result<Self, EngineError> {
        let src = req_str(params, op, "predicate")?;
        Ok(Filter {
            predicate: BoundExpr::parse(src)?,
            discarded: OnceCell::new(),
        })
    }
}

impl Operator for Filter {
    fn on_tuple(&mut self, _port: usize, tuple: Tuple, ctx: &mut OpCtx) {
        let keep = match self.predicate.eval_scalar(&tuple) {
            Some(Scalar::Bool(keep)) => Ok(keep),
            _ => self.predicate.expr().eval_bool(&tuple),
        };
        match keep {
            Ok(true) => ctx.submit(0, tuple),
            Ok(false) => {
                let id = *self.discarded.get_or_init(|| ctx.metric_id("nDiscarded"));
                ctx.metric_add_by(id, 1);
            }
            Err(e) => ctx.raise_fault(format!("predicate failed: {e}")),
        }
    }
}

/// Per-tuple transformation: evaluates assignment expressions and optionally
/// projects a subset of attributes.
///
/// Parameters:
/// - `set:<attr>` (str expression): assign `<attr>` = expression result,
/// - `project` (str, optional): comma-separated attributes to keep (applied
///   after assignments).
pub struct Functor {
    assignments: Vec<(String, BoundExpr)>,
    project: Option<Vec<String>>,
    layout: LayoutCache,
}

/// What a Functor does to the rows of one input schema: where each
/// assignment's value goes, and what `project` keeps of the result.
struct Layout {
    input: Rc<Schema>,
    /// One per assignment, in order.
    targets: Vec<Target>,
    project: Option<Projection>,
}

enum Target {
    /// The name is in the schema already: overwrite in place.
    Slot(usize),
    /// A new name: the row moves to this child schema (the one `Tuple::set`
    /// would find through the parent's memo) and grows by one value.
    Append(Rc<Schema>),
}

struct Projection {
    /// The kept names the assigned row has, in `project` order.
    schema: Rc<Schema>,
    /// Where each of them sits in the assigned row.
    sources: Vec<usize>,
}

/// The layout for the input schema last seen. A cache — a pure function of
/// (parameters, schema), rebuilt when the stream changes shape and on the
/// first tuple after a restore — so a Functor still has no state.
#[derive(Default)]
struct LayoutCache(Option<Layout>);

impl LayoutCache {
    fn get(
        &mut self,
        input: &Rc<Schema>,
        assignments: &[(String, BoundExpr)],
        project: Option<&[String]>,
    ) -> &Layout {
        let fresh = |layout: &Layout| Rc::ptr_eq(&layout.input, input);
        if !self.0.as_ref().is_some_and(fresh) {
            self.0 = Some(Layout::resolve(input, assignments, project));
        }
        self.0.as_ref().expect("resolved above")
    }
}

impl Layout {
    #[cold]
    fn resolve(
        input: &Rc<Schema>,
        assignments: &[(String, BoundExpr)],
        project: Option<&[String]>,
    ) -> Layout {
        let mut schema = Rc::clone(input);
        let targets = assignments
            .iter()
            .map(|(attr, _)| match schema.position(attr) {
                Some(slot) => Target::Slot(slot),
                None => {
                    schema = schema.extended(attr);
                    Target::Append(Rc::clone(&schema))
                }
            })
            .collect();
        let project = project.map(|keep| {
            // The schema a `Tuple::new()` + `set` chain over the kept
            // values arrives at, so every projection of these names on this
            // thread shares it.
            let mut kept = Schema::empty();
            let mut sources = Vec::new();
            for name in keep {
                // A kept name the row lacks is skipped, one repeated is
                // kept once.
                if let Some(slot) = schema.position(name) {
                    if kept.position(name).is_none() {
                        kept = kept.extended(name);
                        sources.push(slot);
                    }
                }
            }
            Projection {
                schema: kept,
                sources,
            }
        });
        Layout {
            input: Rc::clone(input),
            targets,
            project,
        }
    }
}

impl Functor {
    pub fn from_params(op: &str, params: &ParamMap) -> Result<Self, EngineError> {
        let mut assignments = Vec::new();
        for (key, value) in params {
            if let Some(attr) = key.strip_prefix("set:") {
                let src = value.as_str().ok_or_else(|| EngineError::BadParam {
                    op: op.to_string(),
                    message: format!("assignment '{key}' must be a string expression"),
                })?;
                assignments.push((attr.to_string(), BoundExpr::parse(src)?));
            }
        }
        let project = opt_str(params, "project").map(|s| {
            s.split(',')
                .map(|a| a.trim().to_string())
                .filter(|a| !a.is_empty())
                .collect()
        });
        Ok(Functor {
            assignments,
            project,
            layout: LayoutCache::default(),
        })
    }
}

/// Writes `expr`'s value over `slot` of `tuple` when the fast path decides
/// it, and says whether it did: a number, flag or timestamp in place, a
/// string (which may borrow from the row it is written into) as an owned
/// copy.
fn assign_in_place(expr: &mut BoundExpr, tuple: &mut Tuple, slot: usize) -> bool {
    let value = match expr.eval_scalar(tuple) {
        None => return false,
        Some(Scalar::Str(s)) => {
            let value = Scalar::Str(s).to_value();
            tuple.set_at(slot, value);
            return true;
        }
        Some(Scalar::Int(i)) => Scalar::Int(i),
        Some(Scalar::Float(f)) => Scalar::Float(f),
        Some(Scalar::Bool(b)) => Scalar::Bool(b),
        Some(Scalar::Timestamp(t)) => Scalar::Timestamp(t),
    };
    tuple.set_scalar_at(slot, value);
    true
}

impl Operator for Functor {
    fn on_tuple(&mut self, _port: usize, mut tuple: Tuple, ctx: &mut OpCtx) {
        let layout = self
            .layout
            .get(tuple.schema(), &self.assignments, self.project.as_deref());
        for ((attr, expr), target) in self.assignments.iter_mut().zip(&layout.targets) {
            let written = match target {
                Target::Slot(slot) => {
                    if assign_in_place(expr, &mut tuple, *slot) {
                        continue;
                    }
                    expr.expr().eval(&tuple).map(|v| tuple.set_at(*slot, v))
                }
                Target::Append(child) => expr.eval(&tuple).map(|v| tuple.push_as(child, v)),
            };
            if let Err(e) = written {
                ctx.raise_fault(format!("assignment to '{attr}' failed: {e}"));
                return;
            }
        }
        let out = match &layout.project {
            None => tuple,
            Some(keep) => {
                let values = tuple.values();
                Tuple::from_schema(
                    &keep.schema,
                    keep.sources.iter().map(|&i| values[i].clone()).collect(),
                )
            }
        };
        ctx.submit(0, out);
    }
}

/// Routes tuples across all output ports, round-robin or by key hash.
///
/// Parameters:
/// - `mode` (str, default "roundrobin"): `roundrobin` or `hash`,
/// - `key` (str, required for hash mode): attribute to hash.
pub struct Split {
    mode: SplitMode,
    next: usize,
}

enum SplitMode {
    RoundRobin,
    /// The key attribute, as the expression that reads it.
    Hash(BoundExpr),
}

impl Split {
    pub fn from_params(op: &str, params: &ParamMap) -> Result<Self, EngineError> {
        let mode = match opt_str(params, "mode").unwrap_or("roundrobin") {
            "roundrobin" => SplitMode::RoundRobin,
            // Any attribute name is a key, whether or not it would parse.
            "hash" => SplitMode::Hash(BoundExpr::new(Expr::Attr(
                req_str(params, op, "key")?.to_string(),
            ))),
            other => {
                return Err(EngineError::BadParam {
                    op: op.to_string(),
                    message: format!("unknown split mode '{other}'"),
                })
            }
        };
        Ok(Split { mode, next: 0 })
    }
}

/// The output port, of `n`, that the tuple's key hashes to; raises the
/// fault and returns `None` when the key is missing or a list.
fn hash_port(key: &mut BoundExpr, tuple: &Tuple, n: usize, ctx: &mut OpCtx) -> Option<usize> {
    let mut hasher = DefaultHasher::new();
    match key.eval_scalar(tuple) {
        Some(Scalar::Str(s)) => s.hash(&mut hasher),
        Some(Scalar::Int(i)) => i.hash(&mut hasher),
        Some(Scalar::Timestamp(t)) => t.hash(&mut hasher),
        Some(Scalar::Bool(b)) => b.hash(&mut hasher),
        Some(Scalar::Float(f)) => f.to_bits().hash(&mut hasher),
        None => {
            let Expr::Attr(key) = key.expr() else {
                unreachable!("a split key is an attribute");
            };
            ctx.raise_fault(format!("split key '{key}' missing or unhashable"));
            return None;
        }
    }
    Some((hasher.finish() % n as u64) as usize)
}

impl Operator for Split {
    fn on_tuple(&mut self, _port: usize, tuple: Tuple, ctx: &mut OpCtx) {
        let n = ctx.num_outputs().max(1);
        let port = match &mut self.mode {
            SplitMode::RoundRobin => {
                let p = self.next % n;
                self.next = self.next.wrapping_add(1);
                p
            }
            SplitMode::Hash(key) => match hash_port(key, &tuple, n, ctx) {
                Some(p) => p,
                None => return,
            },
        };
        ctx.submit(port, tuple);
    }

    fn checkpoint(&self) -> Option<StateBlob> {
        let mut w = StateWriter::new();
        w.put_u64(self.next as u64);
        Some(w.finish())
    }

    fn restore(&mut self, blob: &StateBlob) -> Result<(), EngineError> {
        self.next = StateReader::new(blob).get_u64()? as usize;
        Ok(())
    }
}

/// Merges all input ports onto output port 0, forwarding a final
/// punctuation only after every input has delivered its own.
pub struct Merge {
    finals: FinalPunctTracker,
}

impl Merge {
    pub fn new(num_inputs: usize) -> Self {
        Merge {
            finals: FinalPunctTracker::new(num_inputs),
        }
    }
}

impl Operator for Merge {
    fn on_tuple(&mut self, _port: usize, tuple: Tuple, ctx: &mut OpCtx) {
        ctx.submit(0, tuple);
    }

    fn on_punct(&mut self, port: usize, punct: Punct, ctx: &mut OpCtx) {
        match punct {
            Punct::Window => ctx.submit_punct(0, Punct::Window),
            Punct::Final => {
                if self.finals.mark(port) {
                    ctx.submit_punct(0, Punct::Final);
                }
            }
        }
    }

    fn checkpoint(&self) -> Option<StateBlob> {
        let mut w = StateWriter::new();
        self.finals.encode(&mut w);
        Some(w.finish())
    }

    fn restore(&mut self, blob: &StateBlob) -> Result<(), EngineError> {
        self.finals = FinalPunctTracker::decode(&mut StateReader::new(blob))?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::StreamItem;
    use crate::ops::testutil::Harness;
    use sps_model::Value;

    fn params(pairs: &[(&str, &str)]) -> ParamMap {
        pairs
            .iter()
            .map(|(k, v)| (k.to_string(), Value::Str(v.to_string())))
            .collect()
    }

    #[test]
    fn filter_forwards_and_counts_discards() {
        let mut f = Filter::from_params("f", &params(&[("predicate", "x > 5")])).unwrap();
        let mut h = Harness::new(1);
        assert_eq!(h.tuple(&mut f, 0, Tuple::new().with("x", 10i64)).len(), 1);
        assert_eq!(h.tuple(&mut f, 0, Tuple::new().with("x", 3i64)).len(), 0);
        assert_eq!(h.tuple(&mut f, 0, Tuple::new().with("x", 1i64)).len(), 0);
        assert_eq!(h.metrics.op_get("test_op", "nDiscarded"), Some(2));
    }

    #[test]
    fn filter_requires_predicate() {
        assert!(Filter::from_params("f", &ParamMap::new()).is_err());
        assert!(Filter::from_params("f", &params(&[("predicate", "x +")])).is_err());
    }

    #[test]
    fn filter_faults_on_eval_error() {
        let mut f = Filter::from_params("f", &params(&[("predicate", "ghost > 1")])).unwrap();
        let mut h = Harness::new(1);
        // Direct harness doesn't intercept faults; simulate via ctx.
        let mut ctx_metrics = std::mem::take(&mut h.metrics);
        let mut rng = sps_sim::SimRng::new(1);
        let mut ctx = crate::op::OpCtx::new(h.now, h.quantum, "f", 1, &mut ctx_metrics, &mut rng);
        f.on_tuple(0, Tuple::new().with("x", 1i64), &mut ctx);
        assert!(ctx.take_fault().is_some());
    }

    #[test]
    fn functor_assigns_and_projects() {
        let mut params = ParamMap::new();
        params.insert("set:double".into(), Value::Str("x * 2".into()));
        params.insert("set:label".into(), Value::Str("\"v\" + name".into()));
        params.insert("project".into(), Value::Str("double, label".into()));
        let mut f = Functor::from_params("f", &params).unwrap();
        let mut h = Harness::new(1);
        let out = Harness::tuples_only(h.tuple(
            &mut f,
            0,
            Tuple::new().with("x", 21i64).with("name", "a"),
        ));
        let t = &out[0].1;
        assert_eq!(t.get_int("double"), Some(42));
        assert_eq!(t.get_str("label"), Some("va"));
        assert_eq!(t.len(), 2); // x and name projected away
    }

    #[test]
    fn functor_rejects_non_string_assignment() {
        let mut params = ParamMap::new();
        params.insert("set:y".into(), Value::Int(5));
        assert!(Functor::from_params("f", &params).is_err());
    }

    #[test]
    fn functor_no_params_is_identity() {
        let mut f = Functor::from_params("f", &ParamMap::new()).unwrap();
        let mut h = Harness::new(1);
        let input = Tuple::new().with("a", 1i64);
        let out = Harness::tuples_only(h.tuple(&mut f, 0, input.clone()));
        assert_eq!(out[0].1, input);
    }

    #[test]
    fn split_round_robin_cycles_ports() {
        let mut s = Split::from_params("s", &ParamMap::new()).unwrap();
        let mut h = Harness::new(3);
        let mut ports = Vec::new();
        for i in 0..6 {
            let out = h.tuple(&mut s, 0, Tuple::new().with("i", i as i64));
            ports.push(out[0].0);
        }
        assert_eq!(ports, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn split_hash_is_stable_per_key() {
        let mut s = Split::from_params("s", &params(&[("mode", "hash"), ("key", "sym")])).unwrap();
        let mut h = Harness::new(4);
        let p1 = h.tuple(&mut s, 0, Tuple::new().with("sym", "IBM"))[0].0;
        for _ in 0..10 {
            let p = h.tuple(&mut s, 0, Tuple::new().with("sym", "IBM"))[0].0;
            assert_eq!(p, p1);
        }
    }

    #[test]
    fn split_rejects_unknown_mode_and_missing_key() {
        assert!(Split::from_params("s", &params(&[("mode", "magic")])).is_err());
        assert!(Split::from_params("s", &params(&[("mode", "hash")])).is_err());
    }

    #[test]
    fn merge_forwards_and_coalesces_finals() {
        let mut m = Merge::new(2);
        let mut h = Harness::new(1);
        assert_eq!(h.tuple(&mut m, 1, Tuple::new().with("a", 1i64))[0].0, 0);
        // First final: swallowed.
        assert!(h.punct(&mut m, 0, Punct::Final).is_empty());
        // Window puncts pass through.
        assert_eq!(h.punct(&mut m, 0, Punct::Window).len(), 1);
        // Second final: emitted once.
        let out = h.punct(&mut m, 1, Punct::Final);
        assert_eq!(out.len(), 1);
        assert!(matches!(out[0].1, StreamItem::Punct(Punct::Final)));
        // No further finals.
        assert!(h.punct(&mut m, 1, Punct::Final).is_empty());
    }
}
