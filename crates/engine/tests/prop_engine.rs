//! Property tests: tuple codec round-trips (item frames, batch frames, a
//! port decoder carrying its schema across frames, and every frame a PE
//! hands the transport — which no longer encodes it), schema-shared
//! copy-on-write tuples against an owned-list model, expression-parser
//! robustness, the bound expression evaluator against `Expr::eval` (over
//! generated ASTs, and through `Filter`/`Functor`/`Split` in a PE against
//! naive reference operators), a PE's routing of emitted items against a
//! per-item reference over generated route tables, a fused chain against
//! the same chain one PE per operator, and window invariants.

#![forbid(unsafe_code)]

use bytes::Bytes;
use proptest::prelude::*;
use sps_engine::codec::{
    decode, decode_batch, decode_frame, encode, encode_queue, Frame, PortDecoder, TupleCodec,
};
use sps_engine::expr::{BinaryOp, BoundExpr, Expr, Scalar, UnaryOp};
use sps_engine::metrics::builtin::{N_TUPLES_SUBMITTED, N_TUPLE_BYTES_PROCESSED};
use sps_engine::window::{SlidingTimeWindow, TumblingCountWindow};
use sps_engine::{
    EngineError, MetricKey, OpCtx, Operator, OperatorRegistry, PeCheckpoint, PeRuntime, Punct,
    Schema, StateBlob, StateWriter, StreamItem, Tuple,
};
use sps_model::adl::{Adl, AdlExport, AdlOperator, AdlPe, AdlStream};
use sps_model::logical::ExportSpec;
use sps_model::value::ParamMap;
use sps_model::Value;
use sps_sim::{SimDuration, SimRng, SimTime};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::rc::{Rc, Weak};

fn arb_value() -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        any::<i64>().prop_map(Value::Int),
        any::<f64>()
            .prop_filter("finite", |f| f.is_finite())
            .prop_map(Value::Float),
        // Arbitrary unicode strings are fine for the binary codec.
        ".{0,24}".prop_map(Value::Str),
        any::<bool>().prop_map(Value::Bool),
        any::<u64>().prop_map(Value::Timestamp),
    ];
    leaf.prop_recursive(2, 12, 4, |inner| {
        prop::collection::vec(inner, 0..4).prop_map(Value::List)
    })
}

fn arb_tuple() -> impl Strategy<Value = Tuple> {
    prop::collection::vec(("[a-zA-Z][a-zA-Z0-9_]{0,10}", arb_value()), 0..8).prop_map(|attrs| {
        let mut t = Tuple::new();
        for (k, v) in attrs {
            t.set(&k, v);
        }
        t
    })
}

/// Names that are prefixes of each other, so a carried name can only be
/// reused on a byte-exact match.
const NAMES: [&str; 6] = ["a", "ab", "abc", "b", "ba", "seq"];

/// The attributes of one tuple as they appear on the wire: any order, names
/// may repeat, possibly none.
fn arb_wire_attrs() -> impl Strategy<Value = Vec<(usize, Value)>> {
    prop::collection::vec((0..NAMES.len(), arb_value()), 0..7)
}

/// A batch whose schema changes mid-batch: each tuple either keeps the
/// previous tuple's names (fresh values, cycled) or brings its own.
fn arb_wire_batch() -> impl Strategy<Value = Vec<Vec<(usize, Value)>>> {
    prop::collection::vec((any::<bool>(), arb_wire_attrs()), 0..8).prop_map(|rows| {
        let mut batch: Vec<Vec<(usize, Value)>> = Vec::new();
        for (keep_schema, attrs) in rows {
            let row = match batch.last() {
                Some(prev) if keep_schema && !attrs.is_empty() => prev
                    .iter()
                    .zip(attrs.iter().cycle())
                    .map(|((name, _), (_, value))| (*name, value.clone()))
                    .collect(),
                _ => attrs,
            };
            batch.push(row);
        }
        batch
    })
}

/// What `Tuple::set` makes of a wire attribute list: a later value replaces
/// the earlier attribute of the same name, at the position of the first.
fn tuple_of(attrs: &[(usize, Value)]) -> Tuple {
    let mut t = Tuple::new();
    for (name, value) in attrs {
        t.set(NAMES[*name], value.clone());
    }
    t
}

/// A batch frame written attribute by attribute — unlike the encoder, it can
/// repeat a name inside one tuple. An attribute's bytes are those of a
/// one-attribute item frame minus its tag and count.
fn hand_built_batch_frame(batch: &[Vec<(usize, Value)>]) -> Bytes {
    let mut frame = vec![3u8];
    frame.extend_from_slice(&(batch.len() as u32).to_le_bytes());
    for attrs in batch {
        frame.push(0);
        frame.extend_from_slice(&(attrs.len() as u16).to_le_bytes());
        for (name, value) in attrs {
            let one = encode(&StreamItem::Tuple(
                Tuple::new().with(NAMES[*name], value.clone()),
            ));
            frame.extend_from_slice(&one[3..]);
        }
    }
    Bytes::from(frame)
}

#[derive(Clone, Debug)]
enum TupleOp {
    Set(usize, Value),
    With(usize, Value),
    Remove(usize),
}

/// One frame as a port sees it: a batch, a lone tuple, or punctuation.
#[derive(Clone, Debug)]
enum WireFrame {
    Batch(Vec<Vec<(usize, Value)>>),
    Item(Vec<(usize, Value)>),
    Punct(bool),
}

fn arb_wire_frame() -> impl Strategy<Value = WireFrame> {
    prop_oneof![
        arb_wire_batch().prop_map(WireFrame::Batch),
        arb_wire_attrs().prop_map(WireFrame::Item),
        any::<bool>().prop_map(WireFrame::Punct),
    ]
}

fn frame_bytes(frame: &WireFrame) -> Bytes {
    match frame {
        WireFrame::Batch(batch) => hand_built_batch_frame(batch),
        // A batch frame of one tuple minus its tag and count is that
        // tuple's item frame — repeated names and all.
        WireFrame::Item(attrs) => hand_built_batch_frame(std::slice::from_ref(attrs)).slice(5..),
        WireFrame::Punct(window) => encode(&StreamItem::Punct(if *window {
            Punct::Window
        } else {
            Punct::Final
        })),
    }
}

/// The same names and values, by every road to a schema there is.
fn same_content_by_other_paths(t: &Tuple) -> Vec<Tuple> {
    let names: Vec<&str> = t.iter().map(|(n, _)| &**n).collect();
    let mut chained = Tuple::new();
    for (n, v) in t.iter() {
        chained.set(n, v.clone());
    }
    let values = t.iter().map(|(_, v)| v.clone()).collect();
    let resolved = Tuple::from_schema(&Schema::new(&names), values);
    let StreamItem::Tuple(decoded) = decode(encode(&StreamItem::Tuple(t.clone()))).unwrap() else {
        panic!("a tuple frame decodes to a tuple");
    };
    // Through a wider schema and back down by `remove`.
    let mut narrowed = Tuple::new().with("zz_extra", 0i64);
    for (n, v) in t.iter() {
        narrowed.set(n, v.clone());
    }
    narrowed.remove("zz_extra");
    vec![chained, resolved, decoded, narrowed]
}

fn arb_tuple_op() -> impl Strategy<Value = TupleOp> {
    prop_oneof![
        (0..NAMES.len(), arb_value()).prop_map(|(n, v)| TupleOp::Set(n, v)),
        (0..NAMES.len(), arb_value()).prop_map(|(n, v)| TupleOp::With(n, v)),
        (0..NAMES.len()).prop_map(TupleOp::Remove),
    ]
}

/// The reference a COW tuple must behave like: a plain owned list.
fn apply_to_model(model: &mut Vec<(String, Value)>, op: &TupleOp) {
    match op {
        TupleOp::Set(n, v) | TupleOp::With(n, v) => {
            match model.iter_mut().find(|(name, _)| name == NAMES[*n]) {
                Some(slot) => slot.1 = v.clone(),
                None => model.push((NAMES[*n].to_string(), v.clone())),
            }
        }
        TupleOp::Remove(n) => model.retain(|(name, _)| name != NAMES[*n]),
    }
}

fn apply_to_tuple(t: &mut Tuple, op: &TupleOp) {
    match op {
        TupleOp::Set(n, v) => t.set(NAMES[*n], v.clone()),
        TupleOp::With(n, v) => *t = t.clone().with(NAMES[*n], v.clone()),
        TupleOp::Remove(n) => {
            t.remove(NAMES[*n]);
        }
    }
}

fn matches_model(t: &Tuple, model: &[(String, Value)]) -> bool {
    t.len() == model.len()
        && t.iter()
            .zip(model)
            .all(|((n, v), (mn, mv))| **n == **mn && v == mv)
}

// ---------------------------------------------------------------------------
// Bound expressions against `Expr::eval`
// ---------------------------------------------------------------------------

/// Attributes an expression may read. `ghost` is in no tuple; `v` only once
/// a Functor has assigned it.
const EXPR_ATTRS: [&str; 6] = ["a", "b", "c", "d", "v", "ghost"];

const BINARY_OPS: [BinaryOp; 13] = [
    BinaryOp::Or,
    BinaryOp::And,
    BinaryOp::Eq,
    BinaryOp::Ne,
    BinaryOp::Lt,
    BinaryOp::Le,
    BinaryOp::Gt,
    BinaryOp::Ge,
    BinaryOp::Add,
    BinaryOp::Sub,
    BinaryOp::Mul,
    BinaryOp::Div,
    BinaryOp::Mod,
];

const STRS: [&str; 4] = ["", "a", "b", "iphone"];

/// A value of kind `kind` (0 int, 1 float, 2 timestamp, 3 string, 4 bool,
/// 5 list), the values arithmetic and comparison turn on drawn often: zero,
/// minus one, the integer extremes, NaN, both float zeros, and timestamps
/// past 2^53 that differ as integers and not as floats.
fn arb_value_of(kind: usize) -> BoxedStrategy<Value> {
    const INTS: [i64; 7] = [i64::MIN, i64::MAX, -1, 0, 1, 2, 7];
    const FLOATS: [f64; 8] = [
        f64::NAN,
        0.0,
        -0.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        1.0,
        -1.5,
        7.0,
    ];
    const STAMPS: [u64; 7] = [0, 1, 7, 1 << 53, (1 << 53) + 1, u64::MAX - 1, u64::MAX];
    match kind {
        0 => prop_oneof![
            any::<i64>().prop_map(Value::Int),
            (0..INTS.len()).prop_map(|i| Value::Int(INTS[i])),
        ]
        .boxed(),
        1 => prop_oneof![
            any::<f64>().prop_map(Value::Float),
            (0..FLOATS.len()).prop_map(|i| Value::Float(FLOATS[i])),
        ]
        .boxed(),
        2 => prop_oneof![
            1 => any::<u64>().prop_map(Value::Timestamp),
            3 => (0..STAMPS.len()).prop_map(|i| Value::Timestamp(STAMPS[i])),
        ]
        .boxed(),
        3 => (0..STRS.len())
            .prop_map(|i| Value::Str(STRS[i].into()))
            .boxed(),
        4 => any::<bool>().prop_map(Value::Bool).boxed(),
        _ => prop::collection::vec((0i64..2).prop_map(Value::Int), 0..3)
            .prop_map(Value::List)
            .boxed(),
    }
}

/// A value of any kind.
fn arb_expr_value() -> BoxedStrategy<Value> {
    (0..6usize).prop_flat_map(arb_value_of).boxed()
}

fn attr(i: usize) -> Expr {
    Expr::Attr(EXPR_ATTRS[i].into())
}

fn binary(op: BinaryOp, l: Expr, r: Expr) -> Expr {
    Expr::Binary(op, Box::new(l), Box::new(r))
}

/// A binary operator: the logical, comparison and arithmetic ones in equal
/// shares.
fn arb_binary_op() -> BoxedStrategy<BinaryOp> {
    prop_oneof![0..2usize, 2..8usize, 8..BINARY_OPS.len()]
        .prop_map(|op| BINARY_OPS[op])
        .boxed()
}

/// Any AST over `literals` and [`EXPR_ATTRS`]: every operator over every
/// operand, typed or not, so most of them are errors somewhere. One binary
/// node in five has the same expression on both sides — equal operands are
/// where `<` and `<=` part, and random ones almost never are.
fn arb_wild_expr(literals: BoxedStrategy<Value>) -> BoxedStrategy<Expr> {
    let leaf = prop_oneof![
        literals.prop_map(Expr::Literal),
        (0..EXPR_ATTRS.len()).prop_map(attr),
    ]
    .boxed();
    let branch = |inner: BoxedStrategy<Expr>| {
        prop_oneof![
            1 => (any::<bool>(), inner.clone()).prop_map(|(not, e)| {
                Expr::Unary(if not { UnaryOp::Not } else { UnaryOp::Neg }, Box::new(e))
            }),
            1 => (arb_binary_op(), inner.clone()).prop_map(|(op, e)| binary(op, e.clone(), e)),
            4 => (arb_binary_op(), inner.clone(), inner).prop_map(|(op, l, r)| binary(op, l, r)),
        ]
    };
    // A branch at the root: a lone leaf exercises nothing.
    branch(leaf.prop_recursive(2, 8, 2, branch)).boxed()
}

/// A stream whose shape changes under the evaluator: three shapes (name
/// lists over `a`..`d`, in any order), and per tuple which shape it has,
/// whether it arrives under the `Rc` that shape had last time or under a
/// fresh one of the same names, and its values. A `tame` stream is one
/// typed expressions mostly evaluate on: two of its shapes have all four
/// names and carry seven tuples in eight, and fifteen values in sixteen have
/// the kind their name usually has (`a`, `b` ints, `c` a float, `d` a
/// string). Otherwise any names, any kinds.
fn arb_stream(tame: bool) -> impl Strategy<Value = Vec<Tuple>> {
    let value = |name: usize| -> BoxedStrategy<Value> {
        let usual = match name {
            0 | 1 => (-3i64..8).prop_map(Value::Int).boxed(),
            2 => (-2.0f64..2.0).prop_map(Value::Float).boxed(),
            _ => (0..STRS.len())
                .prop_map(|i| Value::Str(STRS[i].into()))
                .boxed(),
        };
        if tame {
            prop_oneof![15 => usual, 1 => arb_expr_value()].boxed()
        } else {
            arb_expr_value()
        }
    };
    // Half of the untamed rows are of one kind throughout: operators are
    // defined on like operands, and four independent kinds rarely agree.
    let row = if tame {
        (value(0), value(1), value(2), value(3)).boxed()
    } else {
        let of = arb_value_of;
        prop_oneof![
            (value(0), value(1), value(2), value(3)),
            (0..6usize).prop_flat_map(move |k| (of(k), of(k), of(k), of(k))),
        ]
        .boxed()
    };
    let some_names = || prop::collection::vec(0..4usize, 0..6);
    // Four distinct names in a drawn order: sorted by drawn keys.
    let all_names = || {
        prop::collection::vec(any::<u32>(), 4).prop_map(|keys| {
            let mut names: Vec<usize> = (0..4).collect();
            names.sort_by_key(|&n| (keys[n], n));
            names
        })
    };
    let shapes = if tame {
        (
            all_names().boxed(),
            all_names().boxed(),
            some_names().boxed(),
        )
    } else {
        (
            some_names().boxed(),
            some_names().boxed(),
            some_names().boxed(),
        )
    };
    let shape_of_step = if tame {
        (0..8usize)
            .prop_map(|i| [0, 0, 0, 0, 1, 1, 1, 2][i])
            .boxed()
    } else {
        (0..3usize).boxed()
    };
    let step = (shape_of_step, any::<bool>(), row);
    (shapes, prop::collection::vec(step, 1..12)).prop_map(|(shapes, steps)| {
        let shapes: Vec<Vec<usize>> = [shapes.0, shapes.1, shapes.2]
            .into_iter()
            .map(|names| {
                let mut unique = Vec::new();
                for n in names {
                    if !unique.contains(&n) {
                        unique.push(n);
                    }
                }
                unique
            })
            .collect();
        let resolve = |shape: &[usize]| {
            Schema::new(&shape.iter().map(|&n| EXPR_ATTRS[n]).collect::<Vec<_>>())
        };
        let mut schemas: Vec<Rc<Schema>> = shapes.iter().map(|s| resolve(s)).collect();
        steps
            .into_iter()
            .map(|(shape, fresh_arc, (a, b, c, d))| {
                if fresh_arc {
                    schemas[shape] = resolve(&shapes[shape]);
                }
                let by_name = [a, b, c, d];
                let values = shapes[shape].iter().map(|&n| by_name[n].clone()).collect();
                Tuple::from_schema(&schemas[shape], values)
            })
            .collect()
    })
}

/// `Ok` values equal bit for bit (so NaN equals NaN and the zeros differ;
/// the generated lists hold ints only), errors by their text.
fn same_outcome(a: &Result<Value, EngineError>, b: &Result<Value, EngineError>) -> bool {
    match (a, b) {
        (Ok(Value::Float(a)), Ok(Value::Float(b))) => a.to_bits() == b.to_bits(),
        (Ok(a), Ok(b)) => a == b,
        (Err(a), Err(b)) => a.to_string() == b.to_string(),
        _ => false,
    }
}

/// Whether evaluation can meet something the fast path has no scalar for:
/// a list, or `+` (which may concatenate).
fn may_defer_a_value(e: &Expr) -> bool {
    match e {
        Expr::Literal(v) => matches!(v, Value::List(_)),
        Expr::Attr(_) => false,
        Expr::Unary(_, inner) => may_defer_a_value(inner),
        Expr::Binary(op, l, r) => {
            *op == BinaryOp::Add || may_defer_a_value(l) || may_defer_a_value(r)
        }
    }
}

// ---------------------------------------------------------------------------
// Filter / Functor / Split in a PE against naive reference operators
// ---------------------------------------------------------------------------

/// Literals that have a source form the lexer reads back exactly.
fn arb_source_literal() -> BoxedStrategy<Value> {
    const FLOATS: [f64; 4] = [0.0, 0.5, 2.0, 100.25];
    prop_oneof![
        (0i64..4).prop_map(Value::Int),
        Just(Value::Int(i64::MAX)),
        (0..FLOATS.len()).prop_map(|i| Value::Float(FLOATS[i])),
        (0..STRS.len()).prop_map(|i| Value::Str(STRS[i].into())),
        any::<bool>().prop_map(Value::Bool),
    ]
    .boxed()
}

/// A numeric expression over the attributes that are usually numbers.
fn arb_num_expr(depth: u32) -> BoxedStrategy<Expr> {
    let leaf = prop_oneof![
        9 => (0..3usize).prop_map(attr),
        1 => Just(attr(4)),
        3 => (0i64..4).prop_map(|i| Expr::Literal(Value::Int(i))),
        2 => Just(Expr::Literal(Value::Float(0.5))),
    ]
    .boxed();
    if depth == 0 {
        return leaf;
    }
    let sub = arb_num_expr(depth - 1);
    prop_oneof![
        2 => leaf,
        4 => (8..BINARY_OPS.len(), sub.clone(), sub.clone())
            .prop_map(|(op, l, r)| binary(BINARY_OPS[op], l, r)),
        1 => sub.prop_map(|e| Expr::Unary(UnaryOp::Neg, Box::new(e))),
    ]
    .boxed()
}

/// A predicate: comparisons of numbers and of strings, combined.
fn arb_bool_expr(depth: u32) -> BoxedStrategy<Expr> {
    let string = prop_oneof![
        Just(attr(3)),
        (0..STRS.len()).prop_map(|i| Expr::Literal(Value::Str(STRS[i].into()))),
    ]
    .boxed();
    let comparison = prop_oneof![
        3 => (2..8usize, arb_num_expr(depth), arb_num_expr(depth))
            .prop_map(|(op, l, r)| binary(BINARY_OPS[op], l, r)),
        1 => (2..8usize, arb_num_expr(depth))
            .prop_map(|(op, e)| binary(BINARY_OPS[op], e.clone(), e)),
        1 => (2..8usize, string.clone(), string)
            .prop_map(|(op, l, r)| binary(BINARY_OPS[op], l, r)),
    ]
    .boxed();
    if depth == 0 {
        return comparison;
    }
    let sub = arb_bool_expr(depth - 1);
    prop_oneof![
        3 => comparison,
        2 => (0..2usize, sub.clone(), sub.clone())
            .prop_map(|(op, l, r)| binary(BINARY_OPS[op], l, r)),
        1 => sub.prop_map(|e| Expr::Unary(UnaryOp::Not, Box::new(e))),
    ]
    .boxed()
}

/// The source text of an AST built over [`arb_source_literal`], fully
/// parenthesised so it parses back to the same tree.
fn source(e: &Expr) -> String {
    match e {
        Expr::Literal(Value::Str(s)) => format!("\"{s}\""),
        Expr::Literal(Value::Float(f)) => format!("{f:?}"),
        Expr::Literal(Value::Int(i)) => i.to_string(),
        Expr::Literal(Value::Bool(b)) => b.to_string(),
        Expr::Literal(other) => panic!("{other:?} has no source form"),
        Expr::Attr(name) => name.clone(),
        Expr::Unary(UnaryOp::Not, inner) => format!("!({})", source(inner)),
        Expr::Unary(UnaryOp::Neg, inner) => format!("-({})", source(inner)),
        Expr::Binary(op, l, r) => {
            let symbol = [
                "||", "&&", "==", "!=", "<", "<=", ">", ">=", "+", "-", "*", "/", "%",
            ][BINARY_OPS.iter().position(|o| o == op).unwrap()];
            format!("({}) {symbol} ({})", source(l), source(r))
        }
    }
}

/// Filter as it was before expressions were bound: `Expr::eval` by name.
struct NaiveFilter(Expr);

impl Operator for NaiveFilter {
    fn on_tuple(&mut self, _port: usize, tuple: Tuple, ctx: &mut OpCtx) {
        match self.0.eval_bool(&tuple) {
            Ok(true) => ctx.submit(0, tuple),
            Ok(false) => ctx.metric_add("nDiscarded", 1),
            Err(e) => ctx.raise_fault(format!("predicate failed: {e}")),
        }
    }
}

/// Functor on `Expr::eval` and `Tuple::set`, projecting through a fresh
/// `Tuple::new()` chain.
struct NaiveFunctor {
    assignments: Vec<(String, Expr)>,
    project: Option<Vec<String>>,
}

impl Operator for NaiveFunctor {
    fn on_tuple(&mut self, _port: usize, mut tuple: Tuple, ctx: &mut OpCtx) {
        for (attr, expr) in &self.assignments {
            match expr.eval(&tuple) {
                Ok(v) => tuple.set(attr, v),
                Err(e) => {
                    ctx.raise_fault(format!("assignment to '{attr}' failed: {e}"));
                    return;
                }
            }
        }
        let out = match &self.project {
            None => tuple,
            Some(keep) => keep
                .iter()
                .filter_map(|k| tuple.get(k).map(|v| (k.clone(), v.clone())))
                .collect(),
        };
        ctx.submit(0, out);
    }
}

/// Split in hash mode, the key looked up by name per tuple.
struct NaiveHashSplit(String);

impl Operator for NaiveHashSplit {
    fn on_tuple(&mut self, _port: usize, tuple: Tuple, ctx: &mut OpCtx) {
        let mut hasher = DefaultHasher::new();
        match tuple.get(&self.0) {
            Some(Value::Str(s)) => s.hash(&mut hasher),
            Some(Value::Int(i)) => i.hash(&mut hasher),
            Some(Value::Timestamp(t)) => t.hash(&mut hasher),
            Some(Value::Bool(b)) => b.hash(&mut hasher),
            Some(Value::Float(f)) => f.to_bits().hash(&mut hasher),
            Some(Value::List(_)) | None => {
                ctx.raise_fault(format!("split key '{}' missing or unhashable", self.0));
                return;
            }
        }
        let n = ctx.num_outputs().max(1) as u64;
        ctx.submit((hasher.finish() % n) as usize, tuple);
    }

    // Split's blob is its round-robin cursor, which hash mode leaves at 0.
    fn checkpoint(&self) -> Option<StateBlob> {
        let mut w = StateWriter::new();
        w.put_u64(0);
        Some(w.finish())
    }

    fn restore(&mut self, _blob: &StateBlob) -> Result<(), EngineError> {
        Ok(())
    }
}

/// The built-ins, with the three kinds under test replaced by the naive
/// operators — under the same kind names, so checkpoints compare as they
/// are.
fn naive_registry() -> OperatorRegistry {
    let str_param = |op: &AdlOperator, key: &str| op.params[key].as_str().unwrap().to_string();
    let mut registry = OperatorRegistry::with_builtins();
    registry.register("Filter", move |op| {
        Ok(Box::new(NaiveFilter(Expr::parse(&str_param(
            op,
            "predicate",
        ))?)))
    });
    registry.register("Functor", move |op| {
        let mut assignments = Vec::new();
        for (key, value) in &op.params {
            if let Some(attr) = key.strip_prefix("set:") {
                assignments.push((attr.to_string(), Expr::parse(value.as_str().unwrap())?));
            }
        }
        let project = op.params.get("project").map(|names| {
            let names = names.as_str().unwrap().split(',');
            names
                .map(|n| n.trim().to_string())
                .filter(|n| !n.is_empty())
                .collect()
        });
        Ok(Box::new(NaiveFunctor {
            assignments,
            project,
        }))
    });
    registry.register("Split", move |op| {
        Ok(Box::new(NaiveHashSplit(str_param(op, "key"))))
    });
    registry
}

fn adl_operator(
    name: &str,
    kind: &str,
    pe: usize,
    inputs: usize,
    outputs: usize,
    params: ParamMap,
) -> AdlOperator {
    AdlOperator {
        name: name.into(),
        kind: kind.into(),
        composite_path: vec![],
        params,
        inputs,
        outputs,
        custom_metrics: vec![],
        pe,
        restartable: true,
        checkpointable: true,
    }
}

fn adl_stream(from_op: &str, from_port: usize, to_op: &str, to_port: usize) -> AdlStream {
    AdlStream {
        from_op: from_op.into(),
        from_port,
        to_op: to_op.into(),
        to_port,
    }
}

/// An application whose PEs are the ones its operators name.
fn adl_of(app_name: &str, operators: Vec<AdlOperator>, streams: Vec<AdlStream>) -> Adl {
    let pes = operators.iter().map(|o| o.pe + 1).max().unwrap_or(0);
    Adl {
        app_name: app_name.into(),
        pes: (0..pes)
            .map(|pe| AdlPe {
                index: pe,
                operators: operators
                    .iter()
                    .filter(|o| o.pe == pe)
                    .map(|o| o.name.clone())
                    .collect(),
                host_pool: None,
                host_exlocate: None,
            })
            .collect(),
        streams,
        operators,
        imports: vec![],
        exports: vec![],
        host_pools: vec![],
    }
}

/// PE 0 holds `op` (the operator under test) and one sink per output port;
/// each port also feeds a sink in PE 1, which is never built: what `op`
/// emits ahead of a fault dies in the local sinks' queues with the PE, but
/// has left for PE 1 already, as frames.
fn differential_adl(kind: &str, params: ParamMap, outputs: usize) -> Adl {
    let keep: ParamMap = [("keep".to_string(), Value::Int(1024))].into();
    let mut operators = vec![adl_operator("op", kind, 0, 1, outputs, params)];
    let mut streams = Vec::new();
    for port in 0..outputs {
        for (pe, sink) in [(0, format!("snk{port}")), (1, format!("far{port}"))] {
            streams.push(adl_stream("op", port, &sink, 0));
            operators.push(adl_operator(&sink, "Sink", pe, 1, 0, keep.clone()));
        }
    }
    adl_of("Differential", operators, streams)
}

/// What one quantum of the PE under test shows from outside.
#[derive(Debug, PartialEq)]
struct Quantum {
    /// Every remote delivery: destination, tuple count, and the frame in
    /// wire encoding — bytes tell NaN payloads and attribute orders apart
    /// where `==` on tuples does not.
    remote: Vec<(String, usize, Bytes)>,
    crashed: Option<String>,
    /// `Debug` text of what each local sink holds.
    taps: Vec<Vec<String>>,
    discarded: Option<i64>,
    /// Operator state, queues and metrics; the sinks' blobs are their
    /// tuples in wire encoding.
    checkpoint: PeCheckpoint,
}

const QUANTUM: SimDuration = SimDuration::from_millis(100);

/// A frame in wire encoding: what the transport carried while it still
/// serialized, and what a checkpointed queue holds for the same run.
fn wire_bytes(frame: &Frame) -> Bytes {
    match frame {
        Frame::Item(item) => encode(item),
        Frame::Batch(batch) => TupleCodec::new().encode_batch(batch.as_slice()),
    }
}

/// Feeds `pe` one chunk per quantum, `first` being the index of the first.
fn drive(pe: &mut PeRuntime, outputs: usize, chunks: &[Vec<Tuple>], first: usize) -> Vec<Quantum> {
    let mut quanta = Vec::new();
    for (i, chunk) in chunks.iter().enumerate() {
        for tuple in chunk {
            pe.inject("op", 0, StreamItem::Tuple(tuple.clone()))
                .unwrap();
        }
        let now = SimTime::from_millis(100 * (first + i) as u64);
        let out = pe.step(now, QUANTUM, 10_000);
        quanta.push(Quantum {
            remote: out
                .remote
                .iter()
                .map(|d| (d.dest.op.to_string(), d.items(), wire_bytes(&d.frame)))
                .collect(),
            crashed: out.crashed,
            taps: (0..outputs)
                .map(|port| {
                    let tap = pe.tap(&format!("snk{port}")).unwrap();
                    tap.iter().map(|t| format!("{t:?}")).collect()
                })
                .collect(),
            discarded: pe.metrics().op_get("op", "nDiscarded"),
            checkpoint: pe.checkpoint(now),
        });
    }
    quanta
}

/// For each tuple a sink holds, the first tuple of that sink whose schema
/// it shares (by `Rc`).
fn schema_sharing(pe: &PeRuntime, outputs: usize) -> Vec<Vec<usize>> {
    (0..outputs)
        .map(|port| {
            let tap = pe.tap(&format!("snk{port}")).unwrap();
            tap.iter()
                .map(|t| {
                    tap.iter()
                        .position(|u| Rc::ptr_eq(u.schema(), t.schema()))
                        .unwrap()
                })
                .collect()
        })
        .collect()
}

/// Runs `chunks` through the built-in `kind` and through its naive
/// reference, in whichever mode `SPS_BATCH` puts this process: the same
/// bytes out, taps, discards, fault and checkpoints quantum by quantum, and
/// the same schema sharing in the sinks. Then restores the checkpoint taken
/// after chunk `cut` — into a fresh PE, as a restart does, and into the PE
/// that ran on — and expects the uninterrupted run's remaining quanta again.
fn assert_same_as_naive(kind: &str, params: ParamMap, chunks: &[Vec<Tuple>], cut: usize) {
    let outputs = if kind == "Split" { 2 } else { 1 };
    let adl = differential_adl(kind, params.clone(), outputs);
    let build =
        |registry: &OperatorRegistry| PeRuntime::build(&adl, 0, registry, SimRng::new(1)).unwrap();
    let builtins = OperatorRegistry::with_builtins();
    let mut bound = build(&builtins);
    let quanta = drive(&mut bound, outputs, chunks, 0);
    let mut naive = build(&naive_registry());
    assert_eq!(
        quanta,
        drive(&mut naive, outputs, chunks, 0),
        "{kind} {params:?}"
    );
    assert_eq!(
        schema_sharing(&bound, outputs),
        schema_sharing(&naive, outputs)
    );

    let cut = cut % chunks.len();
    if quanta[..=cut].iter().any(|q| q.crashed.is_some()) {
        return;
    }
    let mut restarted = build(&builtins);
    restarted.restore(&quanta[cut].checkpoint).unwrap();
    let rest = &chunks[cut + 1..];
    assert_eq!(
        drive(&mut restarted, outputs, rest, cut + 1),
        quanta[cut + 1..]
    );
    if !bound.is_crashed() {
        bound.restore(&quanta[cut].checkpoint).unwrap();
        assert_eq!(drive(&mut bound, outputs, rest, cut + 1), quanta[cut + 1..]);
    }
}

fn str_params(pairs: &[(&str, &str)]) -> ParamMap {
    pairs
        .iter()
        .map(|(k, v)| (k.to_string(), Value::Str(v.to_string())))
        .collect()
}

/// The stream the pinned cases below run on: `{a, b, c, d}` rows, the same
/// shape under a second `Rc` mid-chunk, then a shape without `b`.
fn pinned_chunks() -> Vec<Vec<Tuple>> {
    let row = |schema: &Rc<Schema>, a: i64| {
        let values = vec![
            Value::Int(a),
            Value::Int(a % 3),
            Value::Float(0.5 * a as f64),
            Value::Str(STRS[a as usize % STRS.len()].into()),
        ];
        Tuple::from_schema(schema, values)
    };
    let first = Schema::new(&["a", "b", "c", "d"]);
    let second = Schema::new(&["a", "b", "c", "d"]);
    let short = |a: i64| Tuple::new().with("d", "iphone").with("a", a);
    vec![
        (0..6).map(|a| row(&first, a)).collect(),
        vec![
            row(&first, 6),
            row(&second, 7),
            row(&second, 8),
            row(&first, 9),
        ],
        vec![row(&second, 10), short(11), short(12), row(&first, 13)],
    ]
}

/// The cases the issue names, one by one, whatever the generator draws.
#[test]
fn operator_differential_on_pinned_cases() {
    let cases: [(&str, &[(&str, &str)]); 13] = [
        ("Filter", &[("predicate", "a % 2 == 0 && d != \"iphone\"")]),
        // Discards, then faults where `b` is missing: the chunk's earlier
        // tuples are out, its later ones lost.
        ("Filter", &[("predicate", "b > 0")]),
        ("Filter", &[("predicate", "a")]),
        // A new name; overwrites, the first reading its own target and the
        // second the first's result; a new name read by the next
        // assignment; a target read before anything has set it (a fault).
        ("Functor", &[("set:v", "a * 2")]),
        ("Functor", &[("set:a", "a + 1"), ("set:c", "c * a")]),
        ("Functor", &[("set:v", "a"), ("set:w", "v + v")]),
        ("Functor", &[("set:v", "v + 1")]),
        ("Functor", &[("set:s", "d + \"!\""), ("set:q", "a / b")]),
        // `project`: reordered, with a name no row has, one only some rows
        // have, a repeat, and a name an assignment has just added.
        ("Functor", &[("project", "d, ghost, a, d")]),
        ("Functor", &[("set:v", "a - 1"), ("project", " v , b ,a")]),
        ("Functor", &[("project", "ghost")]),
        ("Split", &[("mode", "hash"), ("key", "d")]),
        ("Split", &[("mode", "hash"), ("key", "b")]),
    ];
    let chunks = pinned_chunks();
    for (kind, params) in cases {
        for cut in 0..chunks.len() {
            assert_same_as_naive(kind, str_params(params), &chunks, cut);
        }
    }
    // A key of every kind, several values each, the list (a fault) last.
    let keys = (0..24)
        .map(|i| match i % 6 {
            _ if i == 23 => Value::List(vec![]),
            0 => Value::Int(i - 9),
            1 => Value::Float(0.25 * i as f64),
            2 => Value::Timestamp(1000 * i as u64),
            3 => Value::Str(format!("k{i}")),
            4 => Value::Bool(i % 4 == 0),
            _ => Value::Timestamp(u64::MAX - i as u64),
        })
        .map(|k| Tuple::new().with("k", k))
        .collect::<Vec<_>>();
    let chunks: Vec<Vec<Tuple>> = keys.chunks(8).map(<[Tuple]>::to_vec).collect();
    let cases: [(&str, &[(&str, &str)]); 3] = [
        ("Split", &[("mode", "hash"), ("key", "k")]),
        ("Functor", &[("set:v", "k"), ("set:k", "v == k")]),
        ("Filter", &[("predicate", "k <= k && k == k")]),
    ];
    for (kind, params) in cases {
        assert_same_as_naive(kind, str_params(params), &chunks, 1);
    }
}

/// `SPS_BATCH` is read once per process, so the per-tuple dispatch gets a
/// process of its own: this test binary again, the two differentials, the
/// frame round-trip, `route` against its reference and fused against
/// unfused only.
#[test]
fn operator_differentials_hold_with_batching_off() {
    let out = std::process::Command::new(std::env::current_exe().unwrap())
        .args([
            "operator_differential_",
            "remote_frames_",
            "route_matches_",
            "fused_pipeline_",
        ])
        .env("SPS_BATCH", "off")
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    // Green, and not because the filter matched nothing.
    assert!(
        out.status.success() && !stdout.contains(" 0 passed"),
        "{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// One operator under test with generated parameters.
fn arb_operator() -> impl Strategy<Value = (&'static str, ParamMap)> {
    // Mostly typed, so streams get somewhere; wild ones fault early and
    // compare fault strings.
    let expr = |typed: BoxedStrategy<Expr>| {
        prop_oneof![3 => typed, 1 => arb_wild_expr(arb_source_literal())].prop_map(|e| {
            let src = source(&e);
            assert_eq!(Expr::parse(&src).as_ref(), Ok(&e), "{src}");
            Value::Str(src)
        })
    };
    let any_typed = prop_oneof![arb_num_expr(2), arb_bool_expr(1), Just(attr(3))].boxed();
    // Targets: the stream's own names and two new ones.
    const TARGETS: [&str; 6] = ["a", "b", "c", "d", "v", "w"];
    let assignments = prop::collection::vec((0..TARGETS.len(), expr(any_typed)), 0..4);
    let project = prop::option::of(prop::collection::vec(
        (0..EXPR_ATTRS.len()).prop_map(|i| EXPR_ATTRS[i]),
        0..5,
    ));
    prop_oneof![
        expr(arb_bool_expr(2)).prop_map(|predicate| {
            (
                "Filter",
                ParamMap::from([("predicate".to_string(), predicate)]),
            )
        }),
        (assignments, project).prop_map(|(assignments, project)| {
            let mut params: ParamMap = assignments
                .into_iter()
                .map(|(target, src)| (format!("set:{}", TARGETS[target]), src))
                .collect();
            if let Some(keep) = project {
                params.insert("project".into(), Value::Str(keep.join(", ")));
            }
            ("Functor", params)
        }),
        prop_oneof![4 => 0..4usize, 1 => 4..EXPR_ATTRS.len()].prop_map(|key| {
            (
                "Split",
                str_params(&[("mode", "hash"), ("key", EXPR_ATTRS[key])]),
            )
        }),
    ]
}

#[test]
fn batch_frame_repeating_a_name_keeps_first_position_and_last_value() {
    let v = |i: i64| Value::Int(i);
    let batch = vec![
        // Repeats inside the first tuple of a frame (no carried schema).
        vec![(0, v(1)), (3, v(2)), (0, v(3))],
        // On the carried schema for two names, then a repeat.
        vec![(0, v(4)), (3, v(5)), (3, v(6))],
        // Off the carried schema at once, by repeating its first name.
        vec![(0, v(7)), (0, v(8))],
    ];
    let decoded = decode_batch(hand_built_batch_frame(&batch)).unwrap();
    let expect = [
        Tuple::new().with("a", 3i64).with("b", 2i64),
        Tuple::new().with("a", 4i64).with("b", 6i64),
        Tuple::new().with("a", 8i64),
    ];
    assert_eq!(decoded.as_slice(), &expect[..]);
}

/// The sequence the carry has to survive: a steady run, a schema change, a
/// shorter tuple, a repeated name, and item frames in between.
#[test]
fn port_decoder_carries_its_schema_across_frames() {
    let v = |i: i64| Value::Int(i);
    let frames = [
        // {a, b} twice.
        WireFrame::Batch(vec![vec![(0, v(1)), (3, v(2))], vec![(0, v(3)), (3, v(4))]]),
        // Punctuation carries nothing and disturbs nothing.
        WireFrame::Punct(true),
        // Still {a, b}: shared with the first frame's tuples.
        WireFrame::Batch(vec![vec![(0, v(5)), (3, v(6))]]),
        // A lone tuple of the same shape.
        WireFrame::Item(vec![(0, v(7)), (3, v(8))]),
        // A shorter tuple: {a} is a prefix of the carried {a, b}.
        WireFrame::Item(vec![(0, v(9))]),
        // The schema changes: {a, b, seq}, then {b, a}.
        WireFrame::Batch(vec![
            vec![(0, v(10)), (3, v(11)), (5, v(12))],
            vec![(3, v(13)), (0, v(14))],
        ]),
        // A repeated name, on the carried schema until the repeat.
        WireFrame::Item(vec![(3, v(15)), (0, v(16)), (3, v(17))]),
        // The empty tuple.
        WireFrame::Item(vec![]),
        WireFrame::Punct(false),
        WireFrame::Batch(vec![vec![(0, v(18)), (3, v(19))]]),
    ];
    let mut port = PortDecoder::new();
    let mut decoded: Vec<Tuple> = Vec::new();
    for frame in &frames {
        let bytes = frame_bytes(frame);
        for cut in 0..bytes.len() {
            assert!(port.decode_frame(&bytes[..cut]).is_err());
        }
        let carried = port.decode_frame(&bytes).unwrap();
        assert_eq!(carried, decode_frame(bytes).unwrap());
        match carried {
            Frame::Batch(batch) => decoded.extend(batch),
            Frame::Item(StreamItem::Tuple(t)) => decoded.push(t),
            Frame::Item(StreamItem::Punct(_)) => {}
        }
    }
    let expect = [
        Tuple::new().with("a", 1i64).with("b", 2i64),
        Tuple::new().with("a", 3i64).with("b", 4i64),
        Tuple::new().with("a", 5i64).with("b", 6i64),
        Tuple::new().with("a", 7i64).with("b", 8i64),
        Tuple::new().with("a", 9i64),
        Tuple::new()
            .with("a", 10i64)
            .with("b", 11i64)
            .with("seq", 12i64),
        Tuple::new().with("b", 13i64).with("a", 14i64),
        Tuple::new().with("b", 17i64).with("a", 16i64),
        Tuple::new(),
        Tuple::new().with("a", 18i64).with("b", 19i64),
    ];
    assert_eq!(decoded, expect);
    // The steady stretch — two batch frames, punctuation between them, and
    // an item frame — is one schema: its names were allocated once.
    for t in &decoded[1..4] {
        assert!(Rc::ptr_eq(t.schema(), decoded[0].schema()));
    }
    // After the schema changed, the old shape is a new schema again.
    assert!(!Rc::ptr_eq(decoded[9].schema(), decoded[0].schema()));
    // Carry-free decoding shares within a frame and not beyond it.
    let again = decode_batch(frame_bytes(&frames[0])).unwrap();
    assert!(Rc::ptr_eq(
        again.as_slice()[0].schema(),
        again.as_slice()[1].schema()
    ));
    assert!(!Rc::ptr_eq(
        again.as_slice()[0].schema(),
        decoded[0].schema()
    ));
}

/// Schemas built from wire names stand alone: a stream whose every frame
/// brings names never seen before leaves nothing behind — each schema dies
/// with its tuples once the port has moved on, so no memo can have kept it.
#[test]
fn fresh_wire_names_leave_no_schema_behind() {
    let mut port = PortDecoder::new();
    let mut codec = TupleCodec::new();
    let mut previous: Option<[Weak<Schema>; 2]> = None;
    for i in 0..200 {
        let tuples = vec![
            Tuple::new()
                .with(&format!("x{i}"), i as i64)
                .with(&format!("y{i}"), 0i64);
            3
        ];
        let Frame::Batch(batch) = port.decode_frame(&codec.encode_batch(&tuples)).unwrap() else {
            panic!("a batch frame decodes to a batch");
        };
        assert_eq!(batch.as_slice(), &tuples[..]);
        // The decoded names are the wire's own, not the encoder's.
        assert!(!Rc::ptr_eq(
            batch.as_slice()[0].schema(),
            tuples[0].schema()
        ));
        // An operator extends the decoded shape: the link hangs off the
        // wire schema, and goes when it goes.
        let mut extended = batch.as_slice()[0].clone();
        extended.set("v", 1i64);
        let live = [batch.as_slice()[0].schema(), extended.schema()].map(Rc::downgrade);
        drop((batch, extended));
        // Carried by the port, and memoised on what the port carries —
        // until the next shape arrives.
        assert!(live.iter().all(|schema| schema.upgrade().is_some()));
        if let Some(dead) = previous.replace(live) {
            assert!(
                dead.iter().all(|schema| schema.upgrade().is_none()),
                "frame {i}: a schema outlived its stream"
            );
        }
    }
    drop(port);
    assert!(previous
        .unwrap()
        .iter()
        .all(|schema| schema.upgrade().is_none()));
}

// ---------------------------------------------------------------------------
// `route` against a per-item reference, and fused against unfused
// ---------------------------------------------------------------------------

/// Whether this process runs the batched data path (`SPS_BATCH` as the
/// engine reads it).
fn batching_on() -> bool {
    !matches!(
        std::env::var("SPS_BATCH").as_deref(),
        Ok("off") | Ok("0") | Ok("false")
    )
}

/// Submits, on its `n`th tick, the `n`th part of the script it was built
/// with, and nothing once the script is out.
struct Scripted {
    parts: Vec<Vec<(usize, StreamItem)>>,
    ticks: usize,
}

impl Operator for Scripted {
    fn on_tuple(&mut self, _port: usize, _tuple: Tuple, _ctx: &mut OpCtx) {}

    fn on_tick(&mut self, ctx: &mut OpCtx) {
        for (port, item) in self.parts.get(self.ticks).into_iter().flatten() {
            match item {
                StreamItem::Tuple(t) => ctx.submit(*port, t.clone()),
                StreamItem::Punct(p) => ctx.submit_punct(*port, *p),
            }
        }
        self.ticks += 1;
    }
}

/// Input ports a route may name in the emitter's own PE: `src`'s own (a
/// self-loop) and those of two downstream slots. Slot `i / 2`, port `i % 2`.
const LOCAL_DESTS: [(&str, usize); 6] = [
    ("src", 0),
    ("src", 1),
    ("d0", 0),
    ("d0", 1),
    ("d1", 0),
    ("d1", 1),
];

/// Input ports in another PE, which is never built.
const REMOTE_DESTS: [(&str, usize); 4] = [("r0", 0), ("r0", 1), ("r1", 0), ("r1", 1)];

/// Where one output port of `src` goes: streams to `LOCAL_DESTS` and to
/// `REMOTE_DESTS` (by index, in ADL order), and whether it is exported.
#[derive(Clone, Debug)]
struct PortRoutes {
    local: Vec<usize>,
    remote: Vec<usize>,
    exported: bool,
}

/// 0–3 local destinations — often two identical streams, which the ADL
/// allows — 0–2 remote ones, and an export flag.
fn arb_port_routes() -> impl Strategy<Value = PortRoutes> {
    let local = (
        prop::collection::vec(0..LOCAL_DESTS.len(), 0..3),
        prop::option::of(0..3usize),
    )
        .prop_map(|(mut local, repeat)| {
            if let (Some(i), false) = (repeat, local.is_empty()) {
                local.push(local[i % local.len()]);
            }
            local
        });
    let remote = prop::collection::vec(0..REMOTE_DESTS.len(), 0..3);
    (local, remote, any::<bool>()).prop_map(|(local, remote, exported)| PortRoutes {
        local,
        remote,
        exported,
    })
}

/// One tick's emissions: stretches on one port each, of tuples of mixed
/// shapes and both kinds of punctuation.
fn arb_emissions(outputs: usize) -> impl Strategy<Value = Vec<(usize, StreamItem)>> {
    let item = prop_oneof![
        6 => arb_wire_attrs().prop_map(|attrs| StreamItem::Tuple(tuple_of(&attrs))),
        1 => Just(StreamItem::Punct(Punct::Final)),
        1 => Just(StreamItem::Punct(Punct::Window)),
    ];
    let stretch = (0..outputs, prop::collection::vec(item, 1..5));
    prop::collection::vec(stretch, 0..6).prop_map(|stretches| {
        stretches
            .into_iter()
            .flat_map(|(port, items)| items.into_iter().map(move |item| (port, item)))
            .collect()
    })
}

/// `src` (scripted, two input ports, one output port per route table) with
/// `d0`, `d1` in PE 0 and `r0`, `r1` in PE 1.
fn route_adl(routes: &[PortRoutes]) -> Adl {
    let none = ParamMap::new;
    let mut operators = vec![adl_operator("src", "Scripted", 0, 2, routes.len(), none())];
    for (name, pe) in [("d0", 0), ("d1", 0), ("r0", 1), ("r1", 1)] {
        operators.push(adl_operator(name, "Sink", pe, 2, 0, none()));
    }
    let mut streams = Vec::new();
    for (port, table) in routes.iter().enumerate() {
        let dests = table.local.iter().map(|&i| LOCAL_DESTS[i]);
        let dests = dests.chain(table.remote.iter().map(|&i| REMOTE_DESTS[i]));
        streams.extend(dests.map(|(op, to_port)| adl_stream("src", port, op, to_port)));
    }
    let mut adl = adl_of("Route", operators, streams);
    for (port, table) in routes.iter().enumerate() {
        if table.exported {
            let spec = ExportSpec::by_id("scripted");
            adl.exports.push(AdlExport {
                op: "src".into(),
                port,
                spec,
            });
        }
    }
    adl
}

/// What `route` must make of `src`'s emissions, worked out one item at a
/// time: every item goes to each local destination of its port in table
/// order, and to the export outbox if the port is exported.
struct RouteModel {
    /// Per slot of PE 0 (`src`, `d0`, `d1`), per input port.
    queues: [[Vec<StreamItem>; 2]; 3],
    /// Tuples submitted per output port so far.
    submitted: Vec<i64>,
}

/// The remote and export outboxes of one quantum: destination operator,
/// port and frame in wire bytes; exporting port and item in wire bytes.
type Outboxes = (Vec<(String, usize, Bytes)>, Vec<(usize, Bytes)>);

impl RouteModel {
    fn route(&mut self, routes: &[PortRoutes], emitted: &[(usize, StreamItem)]) -> Outboxes {
        let mut exported = Vec::new();
        for (port, item) in emitted {
            let table = &routes[*port];
            for &i in &table.local {
                self.queues[i / 2][i % 2].push(item.clone());
            }
            if table.exported {
                exported.push((*port, encode(item)));
            }
            if let StreamItem::Tuple(_) = item {
                self.submitted[*port] += 1;
            }
        }
        // A remote channel carries one frame per run: consecutive tuples on
        // one port (one tuple with batching off), or one punctuation.
        let mut remote = Vec::new();
        let mut rest = emitted;
        let tuple = |item: &StreamItem| match item {
            StreamItem::Tuple(t) => Some(t.clone()),
            StreamItem::Punct(_) => None,
        };
        while let Some((port, first)) = rest.first() {
            let mut len = 1;
            if tuple(first).is_some() && batching_on() {
                let more = rest[1..]
                    .iter()
                    .take_while(|(p, it)| p == port && tuple(it).is_some());
                len += more.count();
            }
            let (run, tail) = rest.split_at(len);
            let frame = match run {
                [(_, item)] => encode(item),
                _ => {
                    let tuples: Vec<Tuple> = run.iter().filter_map(|(_, it)| tuple(it)).collect();
                    TupleCodec::new().encode_batch(&tuples)
                }
            };
            for &i in &routes[*port].remote {
                let (op, to_port) = REMOTE_DESTS[i];
                remote.push((op.to_string(), to_port, frame.clone()));
            }
            rest = tail;
        }
        (remote, exported)
    }
}

/// `(n > 0).then_some(n)`: a metric exists from its first update.
fn counted(n: i64) -> Option<i64> {
    (n > 0).then_some(n)
}

/// `Beacon → 8 × Functor(v = seq * 2) → Sink`, in one PE or in ten.
fn functor_chain_adl(fused: bool) -> Adl {
    let pe = |i: usize| if fused { 0 } else { i };
    let rate = [("rate".to_string(), Value::Float(500.0))].into();
    let keep = [("keep".to_string(), Value::Int(4096))].into();
    let mut operators = vec![adl_operator("src", "Beacon", 0, 0, 1, rate)];
    for i in 1..=8 {
        let (name, params) = (format!("f{i}"), str_params(&[("set:v", "seq * 2")]));
        operators.push(adl_operator(&name, "Functor", pe(i), 1, 1, params));
    }
    operators.push(adl_operator("snk", "Sink", pe(9), 1, 0, keep));
    let streams: Vec<AdlStream> = operators
        .windows(2)
        .map(|w| adl_stream(&w[0].name, 0, &w[1].name, 0))
        .collect();
    adl_of("Chain", operators, streams)
}

/// The only guard on the fused path's order used to be `datapath`'s
/// `v == seq * 2` check and its sink count. Here a fused chain's sink holds,
/// tuple for tuple, what the same chain's sink holds with every operator in
/// a PE of its own — hand-stepped, one quantum per hop — once the unfused
/// chain has caught up its nine hops.
#[test]
fn fused_pipeline_delivers_what_an_unfused_one_delivers() {
    const QUANTA: usize = 12;
    const HOPS: usize = 9;
    let registry = OperatorRegistry::with_builtins();
    let build = |adl: &Adl| -> Vec<PeRuntime> {
        let pes = 0..adl.pes.len();
        pes.map(|pe| PeRuntime::build(adl, pe, &registry, SimRng::new(1)).unwrap())
            .collect()
    };
    let tap = |pe: &PeRuntime| -> Vec<String> {
        let tap = pe.tap("snk").unwrap();
        tap.iter().map(|t| format!("{t:?}")).collect()
    };
    let (mut fused, mut unfused) = (
        build(&functor_chain_adl(true)),
        build(&functor_chain_adl(false)),
    );
    assert_eq!((fused.len(), unfused.len()), (1, 10));
    let mut fused_taps = Vec::new();
    for q in 0..QUANTA + HOPS {
        let now = SimTime::from_millis(100 * q as u64);
        if q < QUANTA {
            let out = fused[0].step(now, QUANTUM, 1_000_000);
            assert!(out.crashed.is_none() && out.remote.is_empty());
            fused_taps.push(tap(&fused[0]));
        }
        // What a PE sends in one quantum is received before the next.
        let mut sent = Vec::new();
        for pe in &mut unfused {
            let out = pe.step(now, QUANTUM, 1_000_000);
            assert!(out.crashed.is_none());
            sent.extend(out.remote);
        }
        for delivery in sent {
            let to = delivery.dest.pe;
            unfused[to].receive(delivery).unwrap();
        }
        if q >= HOPS {
            assert_eq!(tap(&unfused[9]), fused_taps[q - HOPS], "quantum {q}");
        }
    }
    // Not vacuous: every tuple the beacon emitted went through all eight
    // functors, in order.
    let sunk = fused[0].tap("snk").unwrap();
    assert_eq!(sunk.len(), 50 * QUANTA);
    for (seq, t) in sunk.iter().enumerate() {
        assert_eq!(t.get_int("seq"), Some(seq as i64));
        assert_eq!(t.get_int("v"), Some(2 * seq as i64));
    }
    // The byte metric, which no workload digest covers: the fused PE counts
    // each tuple at each of its nine operator inputs; an unfused PE counts
    // a remote tuple on arrival and again at its one operator, and the
    // source-only PE 0 never has the metric. PE 1's tuples do not carry
    // `v` yet, and each later PE is one quantum further behind.
    let bytes = |pe: &PeRuntime, idx: usize| pe.metrics().pe_get(idx, N_TUPLE_BYTES_PROCESSED);
    assert_eq!(bytes(&fused[0], 0), Some(214_200));
    let unfused_bytes: Vec<Option<i64>> = unfused
        .iter()
        .enumerate()
        .map(|(i, pe)| bytes(pe, i))
        .collect();
    assert_eq!(
        unfused_bytes,
        [
            None,
            Some(59_450),
            Some(79_950),
            Some(75_850),
            Some(71_750),
            Some(67_650),
            Some(63_550),
            Some(59_450),
            Some(55_350),
            Some(51_250),
        ]
    );
}

proptest! {
    #[test]
    fn batch_decode_matches_tuple_set_semantics(batch in arb_wire_batch()) {
        let expect: Vec<Tuple> = batch.iter().map(|attrs| tuple_of(attrs)).collect();
        let frame = hand_built_batch_frame(&batch);
        let decoded = decode_batch(frame.clone()).unwrap();
        prop_assert_eq!(decoded.as_slice(), &expect[..]);
        // Every strict prefix fails cleanly (no panic, no success).
        for cut in 0..frame.len() {
            prop_assert!(decode_batch(frame.slice(0..cut)).is_err());
        }
    }

    #[test]
    fn batch_codec_roundtrip(batch in arb_wire_batch()) {
        let tuples: Vec<Tuple> = batch.iter().map(|attrs| tuple_of(attrs)).collect();
        let payload = TupleCodec::new().encode_batch(&tuples);
        let decoded = decode_batch(payload).unwrap();
        prop_assert_eq!(decoded.as_slice(), &tuples[..]);
        // A tuple decodes the same inside a batch (schema carried) and
        // alone in an item frame (nothing carried).
        for t in &tuples {
            let alone = decode(encode(&StreamItem::Tuple(t.clone()))).unwrap();
            prop_assert_eq!(alone, StreamItem::Tuple(t.clone()));
        }
    }

    #[test]
    fn tuples_match_the_owned_list_model_and_clones_never_alias(
        start in arb_wire_attrs(),
        from_resolved_schema in any::<bool>(),
        ops in prop::collection::vec((0usize..8, prop::option::of(arb_tuple_op())), 0..32),
    ) {
        // A pool of tuples, each beside the owned list it must behave
        // like. `None` forks the target: its clone joins the pool.
        let first = tuple_of(&start);
        let first = if from_resolved_schema {
            let names: Vec<&str> = first.iter().map(|(n, _)| &**n).collect();
            let values = first.iter().map(|(_, v)| v.clone()).collect();
            Tuple::from_schema(&Schema::new(&names), values)
        } else {
            first
        };
        let model: Vec<(String, Value)> = first
            .iter()
            .map(|(n, v)| (n.to_string(), v.clone()))
            .collect();
        let mut pool = vec![(first, model)];
        for (target, op) in &ops {
            let target = target % pool.len();
            match op {
                Some(op) => {
                    let (t, model) = &mut pool[target];
                    apply_to_tuple(t, op);
                    apply_to_model(model, op);
                }
                None => {
                    let fork = pool[target].clone();
                    prop_assert_eq!(&fork.0, &pool[target].0);
                    pool.push(fork);
                }
            }
            // Mutating one tuple leaves every other exactly as it was.
            for (t, model) in &pool {
                prop_assert!(matches_model(t, model), "{t:?} vs {model:?}");
            }
        }
        // Equality is by content: the same attributes reached through a
        // `set` chain, a resolved schema, the wire, or a `remove` share no
        // schema with the tuple and still equal it, and render like it.
        for (t, model) in &pool {
            for other in same_content_by_other_paths(t) {
                prop_assert!(matches_model(&other, model));
                prop_assert_eq!(&other, t);
                prop_assert_eq!(format!("{other:?}"), format!("{t:?}"));
                prop_assert_eq!(other.approx_bytes(), t.approx_bytes());
            }
            prop_assert_eq!(t.clone(), t.clone());
        }
        // Pool members agree with each other exactly when their models do.
        for (a, model_a) in &pool {
            for (b, model_b) in &pool {
                prop_assert_eq!(a == b, model_a == model_b);
            }
        }
    }

    #[test]
    fn port_decoder_matches_carry_free_decoding(
        frames in prop::collection::vec(arb_wire_frame(), 0..10),
    ) {
        // One port, one decoder, every frame in order: whatever schema the
        // port carries in, a frame decodes to what it decodes to alone.
        let mut port = PortDecoder::new();
        for frame in &frames {
            let bytes = frame_bytes(frame);
            // Every strict prefix fails cleanly, whatever is carried — and
            // a failed frame leaves the port fit for the next one.
            for cut in 0..bytes.len() {
                prop_assert!(port.decode_frame(&bytes[..cut]).is_err());
            }
            let carried = port.decode_frame(&bytes).unwrap();
            prop_assert_eq!(&carried, &decode_frame(bytes.clone()).unwrap());
            match (frame, &carried) {
                (WireFrame::Batch(batch), Frame::Batch(decoded)) => {
                    let expect: Vec<Tuple> = batch.iter().map(|a| tuple_of(a)).collect();
                    prop_assert_eq!(decoded.as_slice(), &expect[..]);
                    prop_assert_eq!(decoded, &decode_batch(bytes).unwrap());
                }
                (WireFrame::Item(attrs), Frame::Item(item)) => {
                    prop_assert_eq!(item, &StreamItem::Tuple(tuple_of(attrs)));
                    prop_assert_eq!(item, &decode(bytes).unwrap());
                }
                (WireFrame::Punct(_), Frame::Item(StreamItem::Punct(_))) => {}
                other => prop_assert!(false, "frame kind changed in decoding: {other:?}"),
            }
        }
    }

    #[test]
    fn codec_roundtrip(t in arb_tuple()) {
        let item = StreamItem::Tuple(t);
        let decoded = decode(encode(&item)).unwrap();
        prop_assert_eq!(decoded, item);
    }

    #[test]
    fn codec_puncts_roundtrip(window in any::<bool>()) {
        let p = if window { Punct::Window } else { Punct::Final };
        let decoded = decode(encode(&StreamItem::Punct(p))).unwrap();
        prop_assert_eq!(decoded, StreamItem::Punct(p));
    }

    #[test]
    fn codec_rejects_any_truncation(t in arb_tuple()) {
        let bytes = encode(&StreamItem::Tuple(t));
        // Every strict prefix fails cleanly (no panic, no success).
        for cut in 0..bytes.len() {
            prop_assert!(decode(bytes.slice(0..cut)).is_err());
        }
    }

    #[test]
    fn expr_parse_never_panics(src in ".{0,48}") {
        let _ = Expr::parse(&src);
    }

    #[test]
    fn expr_eval_is_deterministic_and_total(
        src in "[a-z0-9 ()+*<>=&|!\"-]{0,32}",
        x in any::<i64>(),
    ) {
        if let Ok(e) = Expr::parse(&src) {
            let t = Tuple::new().with("a", x).with("b", 2i64);
            let r1 = e.eval(&t);
            let r2 = e.eval(&t);
            prop_assert_eq!(r1, r2);
        }
    }

    /// The fast path decides or defers, never disagrees — on every operator
    /// over every value kind, across a stream that changes shape under one
    /// binding. Where nothing can be a list or a concatenation it must
    /// decide whenever `Expr::eval` has a value: deferring everything would
    /// pass the rest of this test.
    #[test]
    fn bound_expr_agrees_with_eval_on_generated_asts(
        expr in prop_oneof![
            2 => arb_wild_expr(arb_expr_value()),
            1 => arb_num_expr(2),
            1 => arb_bool_expr(2),
        ],
        stream in prop_oneof![3 => arb_stream(false), 1 => arb_stream(true)],
    ) {
        let mut bound = BoundExpr::new(expr.clone());
        for tuple in &stream {
            let want = expr.eval(tuple);
            let fast = bound.eval_scalar(tuple).map(Scalar::to_value);
            if let Some(v) = &fast {
                prop_assert!(same_outcome(&Ok(v.clone()), &want), "{fast:?} vs {want:?}");
            } else if want.is_ok() {
                let has_list = tuple.iter().any(|(_, v)| matches!(v, Value::List(_)));
                prop_assert!(
                    has_list || may_defer_a_value(&expr),
                    "deferred {want:?} on {tuple:?}"
                );
            }
            let full = bound.eval(tuple);
            prop_assert!(same_outcome(&full, &want), "{full:?} vs {want:?}");
        }
    }

    #[test]
    fn operator_differential_on_generated_operators(
        (kind, params) in arb_operator(),
        stream in arb_stream(true),
        chunk_len in 1usize..6,
        cut in 0usize..12,
    ) {
        let chunks: Vec<Vec<Tuple>> = stream.chunks(chunk_len).map(<[Tuple]>::to_vec).collect();
        assert_same_as_naive(kind, params, &chunks, cut);
    }

    /// The transport hands frames over as they are, so nothing on the data
    /// path checks any more that a frame is what its encoding says: this
    /// does, for every frame a PE emits. `==` on tuples is by content and
    /// NaN equals nothing, itself included: a frame holding one differs from
    /// its own copy as well, and the bytes cover that case.
    #[test]
    fn remote_frames_round_trip_through_the_wire_codec(
        (kind, params) in arb_operator(),
        stream in arb_stream(true),
        chunk_len in 1usize..6,
    ) {
        let outputs = if kind == "Split" { 2 } else { 1 };
        let adl = differential_adl(kind, params, outputs);
        let registry = OperatorRegistry::with_builtins();
        let mut pe = PeRuntime::build(&adl, 0, &registry, SimRng::new(1)).unwrap();
        for (i, chunk) in stream.chunks(chunk_len).enumerate() {
            for tuple in chunk {
                pe.inject("op", 0, StreamItem::Tuple(tuple.clone())).unwrap();
            }
            let out = pe.step(SimTime::from_millis(100 * i as u64), QUANTUM, 10_000);
            for delivery in &out.remote {
                let frame = &delivery.frame;
                let bytes = wire_bytes(frame);
                let back = decode_frame(bytes.clone()).unwrap();
                prop_assert_eq!(&back == frame, &frame.clone() == frame, "{:?}", frame);
                prop_assert_eq!(format!("{back:?}"), format!("{frame:?}"));
                prop_assert_eq!(back.approx_bytes(), frame.approx_bytes());
                prop_assert_eq!(back.items(), delivery.items());
                prop_assert_eq!(wire_bytes(&back), bytes);
            }
        }
    }

    /// `route` hands a run to a lone local queue whole and to anything else
    /// item by item; from outside, both must be the per-item reference.
    /// Generated route tables (duplicate streams, self-loops, remote
    /// destinations and exports on one port) and emissions (runs, port
    /// switches, punctuation); budget 0, so nothing downstream drains and
    /// every queue shows what `route` put there. Two quanta, so a route
    /// table the first call failed to give back shows in the second.
    #[test]
    fn route_matches_a_per_item_reference(
        (routes, parts) in (1..4usize).prop_flat_map(|outputs| (
            prop::collection::vec(arb_port_routes(), outputs),
            prop::collection::vec(arb_emissions(outputs), 2),
        )),
    ) {
        let mut registry = OperatorRegistry::with_builtins();
        let script = parts.clone();
        registry.register("Scripted", move |_| {
            Ok(Box::new(Scripted { parts: script.clone(), ticks: 0 }))
        });
        let mut pe = PeRuntime::build(&route_adl(&routes), 0, &registry, SimRng::new(1)).unwrap();
        let mut model = RouteModel {
            queues: Default::default(),
            submitted: vec![0; routes.len()],
        };
        for (i, emitted) in parts.iter().enumerate() {
            let now = SimTime::from_millis(100 * i as u64);
            let out = pe.step(now, QUANTUM, 0);
            let (remote, exported) = model.route(&routes, emitted);
            let queues = pe.checkpoint(now).queues;
            for (slot, ports) in model.queues.iter().enumerate() {
                for (port, items) in ports.iter().enumerate() {
                    prop_assert_eq!(&queues[slot][port], &encode_queue(items), "{} {}", slot, port);
                }
            }
            let sent: Vec<_> = out
                .remote
                .iter()
                .map(|d| (d.dest.op.to_string(), d.dest.port, wire_bytes(&d.frame)))
                .collect();
            prop_assert_eq!(sent, remote);
            prop_assert!(out.remote.iter().all(|d| d.dest.pe == 1));
            prop_assert!(out.exported.iter().all(|e| &*e.op == "src"));
            let exports: Vec<_> = out.exported.iter().map(|e| (e.port, encode(&e.item))).collect();
            prop_assert_eq!(exports, exported);
            let metrics = pe.metrics();
            let total = model.submitted.iter().sum();
            prop_assert_eq!(metrics.op_get("src", N_TUPLES_SUBMITTED), counted(total));
            for (port, &n) in model.submitted.iter().enumerate() {
                let key = MetricKey::OperatorPort("src".into(), port, N_TUPLES_SUBMITTED.into());
                prop_assert_eq!(metrics.get(&key), counted(n), "port {}", port);
            }
        }
    }

    #[test]
    fn expr_int_comparison_semantics(a in -1000i64..1000, b in -1000i64..1000) {
        let t = Tuple::new().with("a", a).with("b", b);
        let lt = Expr::parse("a < b").unwrap().eval_bool(&t).unwrap();
        prop_assert_eq!(lt, a < b);
        let arith = Expr::parse("a + b * 2").unwrap().eval(&t).unwrap();
        prop_assert_eq!(arith, Value::Int(a.wrapping_add(b.wrapping_mul(2))));
    }

    #[test]
    fn sliding_window_never_retains_expired(
        deltas in prop::collection::vec(0u64..5000, 1..60),
        span_ms in 1u64..10_000,
    ) {
        let span = SimDuration::from_millis(span_ms);
        let mut w = SlidingTimeWindow::new(span);
        let mut now = SimTime::ZERO;
        let mut pushes = 0usize;
        for d in deltas {
            now += SimDuration::from_millis(d);
            w.push(now, 1.0f64);
            pushes += 1;
            // Invariants after every push:
            prop_assert!(w.len() <= pushes);
            if let Some(oldest) = w.oldest() {
                prop_assert!(now.since(oldest) <= span);
            }
            // Aggregates agree with the raw contents.
            let agg = w.aggregates().unwrap();
            prop_assert_eq!(agg.count, w.len());
        }
    }

    #[test]
    fn sliding_window_fullness_definition(
        span_s in 1u64..100,
        age_s in 0u64..200,
    ) {
        let mut w = SlidingTimeWindow::new(SimDuration::from_secs(span_s));
        // Keep the entry from being evicted: eviction happens on push/evict
        // only, and we never call evict at `now`.
        w.push(SimTime::ZERO, 1.0f64);
        let now = SimTime::from_secs(age_s);
        prop_assert_eq!(w.is_full(now), age_s >= span_s);
    }

    #[test]
    fn tumbling_window_batches_exactly(size in 1usize..20, n in 0usize..100) {
        let mut w = TumblingCountWindow::new(size);
        let mut flushed = 0usize;
        for i in 0..n {
            if let Some(batch) = w.push(i) {
                prop_assert_eq!(batch.len(), size);
                flushed += batch.len();
            }
        }
        prop_assert_eq!(flushed + w.pending(), n);
        prop_assert!(w.pending() < size);
    }
}
