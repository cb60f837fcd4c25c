//! Checkpoint hot-path costs: snapshot encoding (tuple-heavy operator state
//! through `StateWriter`, the per-quantum work of a checkpointing kernel)
//! and `PeCheckpoint::digest` (computed once per snapshot *and* once per
//! restore self-verification).
//!
//! `put_tuple` is the allocation-cut target: it borrows tuples into a
//! reusable scratch buffer instead of cloning each one into a throwaway
//! encode buffer, so a 600 s trend window snapshots without a deep copy of
//! its contents.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use sps_engine::ckpt::CKPT_FORMAT_VERSION;
use sps_engine::{MetricKey, OpCheckpoint, PeCheckpoint, StateBlob, StateWriter, Tuple};
use sps_model::Value;
use sps_sim::SimTime;
use std::sync::Arc;

fn tuple(i: usize) -> Tuple {
    Tuple::new()
        .with("sym", format!("S{}", i % 3).as_str())
        .with("price", 100.0 + i as f64 * 0.25)
        .with("seq", i as i64)
        .with("ts", Value::Timestamp(i as u64 * 50))
}

/// Serializes a window of `n` tuples the way stateful operators do.
fn encode_window(n: usize) -> StateBlob {
    let mut w = StateWriter::new();
    w.put_u32(n as u32);
    for i in 0..n {
        w.put_tuple(&tuple(i));
    }
    w.finish()
}

/// A PE checkpoint shaped like a fused stateful container: `ops` operator
/// slots with window blobs plus a realistic metric table.
fn sample_checkpoint(ops: usize, tuples_per_op: usize) -> PeCheckpoint {
    let metrics = (0..ops)
        .flat_map(|o| {
            ["nTuplesProcessed", "nTuplesSubmitted", "queueSize"]
                .into_iter()
                .map(move |m| {
                    (
                        Arc::new(MetricKey::Operator(format!("op{o}"), m.to_string())),
                        (o * 1000) as i64,
                    )
                })
        })
        .collect();
    PeCheckpoint {
        format_version: CKPT_FORMAT_VERSION,
        pe_index: 0,
        taken_at: SimTime::from_secs(60),
        ops: (0..ops)
            .map(|o| {
                Arc::new(OpCheckpoint {
                    name: format!("op{o}").into(),
                    kind: "Aggregate".into(),
                    finals_seen: vec![false],
                    blob: Some(encode_window(tuples_per_op)),
                })
            })
            .collect(),
        queues: (0..ops).map(|_| vec![bytes::Bytes::new()]).collect(),
        metrics,
    }
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("checkpoint");
    for tuples in [64usize, 512, 4096] {
        group.throughput(Throughput::Elements(tuples as u64));
        group.bench_with_input(
            BenchmarkId::new("snapshot_encode", format!("{tuples}tuples")),
            &tuples,
            |b, &n| b.iter(|| black_box(encode_window(n)).len()),
        );
    }
    for (ops, tuples) in [(2usize, 64usize), (4, 512)] {
        let ckpt = sample_checkpoint(ops, tuples);
        group.throughput(Throughput::Bytes(ckpt.state_bytes() as u64));
        group.bench_with_input(
            BenchmarkId::new("digest", format!("{ops}ops_{tuples}tuples")),
            &ckpt,
            |b, ckpt| b.iter(|| black_box(ckpt.digest())),
        );
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
