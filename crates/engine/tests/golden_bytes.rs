//! Golden bytes: the wire format and the checkpoint encoding, pinned.
//!
//! Checkpoint budgets, eviction and delta chains are sized in these bytes,
//! and campaign digests fold them; a change to the tuple representation or
//! the codec must leave every value below exactly as it is. A drift fails
//! here, in `sps_engine`, instead of as a shifted campaign digest.

#![forbid(unsafe_code)]

use sps_engine::codec::{decode, decode_batch, encode, TupleCodec};
use sps_engine::{OperatorRegistry, PeRuntime, StreamItem, Tuple};
use sps_model::adl::{Adl, AdlOperator, AdlPe, AdlStream};
use sps_model::value::ParamMap;
use sps_model::Value;
use sps_sim::{SimDuration, SimRng, SimTime};

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// One attribute of each of the six value kinds.
fn all_kinds(i: i64) -> Tuple {
    Tuple::new()
        .with("i", i)
        .with("f", 0.5 * i as f64)
        .with("s", format!("v{i}").as_str())
        .with("b", i % 2 == 0)
        .with("ts", Value::Timestamp((1000 + i) as u64))
        .with(
            "l",
            Value::List(vec![
                Value::Int(i),
                Value::List(vec![Value::Str("n".into())]),
            ]),
        )
}

#[test]
fn item_frame_bytes_are_pinned() {
    let item = StreamItem::Tuple(all_kinds(-7));
    let frame = encode(&item);
    assert_eq!(
        hex(&frame),
        "000600010069\
         00f9ffffffffffffff\
         01006601\
         0000000000000cc0\
         01007302\
         0300000076\
         2d37\
         01006203\
         00\
         0200747304\
         e103000000000000\
         01006c05\
         02000000\
         00f9ffffffffffffff\
         05010000000201000000\
         6e"
    );
    assert_eq!(decode(frame).unwrap(), item);
}

#[test]
fn batch_frame_bytes_are_pinned() {
    // Same schema twice, then a different one: the carried schema of the
    // decoder must not show on the wire.
    let tuples = vec![all_kinds(1), all_kinds(2), Tuple::new().with("other", "x")];
    let payload = TupleCodec::new().encode_batch(&tuples);
    assert_eq!(
        hex(&payload),
        "0303000000\
         00060001006900010000000000000001006601000000000000e03f\
         0100730202000000763101006203000200747304e90300000000000001006c05\
         0200000000010000000000000005010000000201000000\
         6e\
         00060001006900020000000000000001006601000000000000f03f\
         0100730202000000763201006203010200747304ea0300000000000001006c05\
         0200000000020000000000000005010000000201000000\
         6e\
         00010005006f74686572020100000078"
    );
    assert_eq!(decode_batch(payload).unwrap().as_slice(), &tuples[..]);
}

fn op(name: &str, kind: &str, inputs: usize, outputs: usize, params: ParamMap) -> AdlOperator {
    AdlOperator {
        name: name.into(),
        kind: kind.into(),
        composite_path: vec![],
        params,
        inputs,
        outputs,
        custom_metrics: vec![],
        pe: 0,
        restartable: true,
        checkpointable: true,
    }
}

/// `Beacon(50/s, payload) -> Sink` fused into one PE.
fn two_operator_adl() -> Adl {
    let beacon: ParamMap = [
        ("rate".to_string(), Value::Float(50.0)),
        ("payload".to_string(), Value::Str("golden".into())),
    ]
    .into_iter()
    .collect();
    let operators = vec![
        op("src", "Beacon", 0, 1, beacon),
        op("snk", "Sink", 1, 0, ParamMap::new()),
    ];
    Adl {
        app_name: "Golden".into(),
        pes: vec![AdlPe {
            index: 0,
            operators: operators.iter().map(|o| o.name.clone()).collect(),
            host_pool: None,
            host_exlocate: None,
        }],
        streams: vec![AdlStream {
            from_op: "src".into(),
            from_port: 0,
            to_op: "snk".into(),
            to_port: 0,
        }],
        operators,
        imports: vec![],
        exports: vec![],
        host_pools: vec![],
    }
}

#[test]
fn checkpoint_of_a_fixed_pe_is_pinned() {
    let adl = two_operator_adl();
    let registry = OperatorRegistry::with_builtins();
    let mut pe = PeRuntime::build(&adl, 0, &registry, SimRng::new(7)).unwrap();
    let quantum = SimDuration::from_millis(100);
    // Five tuples arrive per quantum and the budget drains three, so the
    // sink's input queue holds a backlog when the snapshot is taken.
    for q in 1..=20u64 {
        pe.step(SimTime::from_millis(q * 100), quantum, 3);
    }
    let ckpt = pe.checkpoint(SimTime::from_millis(2000));
    assert_eq!(
        (ckpt.digest(), ckpt.state_bytes(), ckpt.queue_bytes()),
        (1921745153951691752, 5282, 2005)
    );

    // The revived container re-encodes to the same bytes.
    let mut revived = PeRuntime::build(&adl, 0, &registry, SimRng::new(8)).unwrap();
    revived.restore(&ckpt).unwrap();
    let again = revived.checkpoint(SimTime::from_millis(2000));
    assert_eq!(again.digest(), ckpt.digest());
    assert_eq!(again.metrics, ckpt.metrics);
}

/// The same PE snapshotted after every quantum: each sink blob is then
/// built from the one before it, and the last must still be the pinned one.
#[test]
fn checkpointing_every_quantum_ends_at_the_pinned_bytes() {
    let adl = two_operator_adl();
    let registry = OperatorRegistry::with_builtins();
    let mut pe = PeRuntime::build(&adl, 0, &registry, SimRng::new(7)).unwrap();
    let quantum = SimDuration::from_millis(100);
    for q in 1..=20u64 {
        pe.step(SimTime::from_millis(q * 100), quantum, 3);
        pe.checkpoint(SimTime::from_millis(q * 100));
    }
    let ckpt = pe.checkpoint(SimTime::from_millis(2000));
    assert_eq!(
        (ckpt.digest(), ckpt.state_bytes(), ckpt.queue_bytes()),
        (1921745153951691752, 5282, 2005)
    );
}
