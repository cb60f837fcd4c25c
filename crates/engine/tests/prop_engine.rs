//! Property tests: tuple codec round-trips (item frames and schema-carrying
//! batch frames), copy-on-write tuple aliasing, expression-parser robustness,
//! and window invariants.

use bytes::Bytes;
use proptest::prelude::*;
use sps_engine::codec::{decode, decode_batch, encode, TupleCodec};
use sps_engine::expr::Expr;
use sps_engine::window::{SlidingTimeWindow, TumblingCountWindow};
use sps_engine::{Punct, StreamItem, Tuple};
use sps_model::Value;
use sps_sim::{SimDuration, SimTime};

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
        && t.attrs()
            .iter()
            .zip(model)
            .all(|((n, v), (mn, mv))| **n == **mn && v == mv)
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
    fn clones_never_alias(
        start in arb_wire_attrs(),
        ops in prop::collection::vec((any::<bool>(), arb_tuple_op()), 0..24),
    ) {
        let mut original = tuple_of(&start);
        let mut model_original: Vec<(String, Value)> = original
            .attrs()
            .iter()
            .map(|(n, v)| (n.to_string(), v.clone()))
            .collect();
        let mut copy = original.clone();
        let mut model_copy = model_original.clone();
        prop_assert_eq!(&copy, &original);
        for (on_copy, op) in &ops {
            if *on_copy {
                apply_to_tuple(&mut copy, op);
                apply_to_model(&mut model_copy, op);
            } else {
                apply_to_tuple(&mut original, op);
                apply_to_model(&mut model_original, op);
            }
            // Mutating either side leaves the other exactly as it was.
            prop_assert!(matches_model(&original, &model_original));
            prop_assert!(matches_model(&copy, &model_copy));
        }
        // Equality is by content: a tuple rebuilt from scratch shares
        // nothing with `original` and still equals it.
        let mut rebuilt = Tuple::new();
        for (n, v) in &model_original {
            rebuilt.set(n, v.clone());
        }
        prop_assert_eq!(&rebuilt, &original);
        prop_assert_eq!(original.clone(), original);
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
