//! Property tests: tuple codec round-trips (item frames, batch frames, and
//! a port decoder carrying its schema across frames), schema-shared
//! copy-on-write tuples against an owned-list model, expression-parser
//! robustness, and window invariants.

use bytes::Bytes;
use proptest::prelude::*;
use sps_engine::codec::{
    decode, decode_batch, decode_frame, encode, Decoded, PortDecoder, TupleCodec,
};
use sps_engine::expr::Expr;
use sps_engine::window::{SlidingTimeWindow, TumblingCountWindow};
use sps_engine::{Punct, Schema, StreamItem, Tuple};
use sps_model::Value;
use sps_sim::{SimDuration, SimTime};
use std::sync::{Arc, Weak};

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
            Decoded::Batch(batch) => decoded.extend(batch),
            Decoded::Item(StreamItem::Tuple(t)) => decoded.push(t),
            Decoded::Item(StreamItem::Punct(_)) => {}
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
        assert!(Arc::ptr_eq(t.schema(), decoded[0].schema()));
    }
    // After the schema changed, the old shape is a new schema again.
    assert!(!Arc::ptr_eq(decoded[9].schema(), decoded[0].schema()));
    // Carry-free decoding shares within a frame and not beyond it.
    let again = decode_batch(frame_bytes(&frames[0])).unwrap();
    assert!(Arc::ptr_eq(
        again.as_slice()[0].schema(),
        again.as_slice()[1].schema()
    ));
    assert!(!Arc::ptr_eq(
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
        let Decoded::Batch(batch) = port.decode_frame(&codec.encode_batch(&tuples)).unwrap() else {
            panic!("a batch frame decodes to a batch");
        };
        assert_eq!(batch.as_slice(), &tuples[..]);
        // The decoded names are the wire's own, not the encoder's.
        assert!(!Arc::ptr_eq(
            batch.as_slice()[0].schema(),
            tuples[0].schema()
        ));
        // An operator extends the decoded shape: the link hangs off the
        // wire schema, and goes when it goes.
        let mut extended = batch.as_slice()[0].clone();
        extended.set("v", 1i64);
        let live = [batch.as_slice()[0].schema(), extended.schema()].map(Arc::downgrade);
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
                (WireFrame::Batch(batch), Decoded::Batch(decoded)) => {
                    let expect: Vec<Tuple> = batch.iter().map(|a| tuple_of(a)).collect();
                    prop_assert_eq!(decoded.as_slice(), &expect[..]);
                    prop_assert_eq!(decoded, &decode_batch(bytes).unwrap());
                }
                (WireFrame::Item(attrs), Decoded::Item(item)) => {
                    prop_assert_eq!(item, &StreamItem::Tuple(tuple_of(attrs)));
                    prop_assert_eq!(item, &decode(bytes).unwrap());
                }
                (WireFrame::Punct(_), Decoded::Item(StreamItem::Punct(_))) => {}
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
