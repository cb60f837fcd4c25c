//! Heap requests per quantum, pinned.
//!
//! The simulator is deterministic, so the number of times a scenario asks
//! the allocator for memory is an exact count, not a measurement: the same
//! seed gives the same number on every run. The process allocator
//! (`sps_sim::alloc`) counts the requests each thread makes; this binary
//! runs the four scenarios fault-free, under the plain policy and under the
//! durable one, reads that count around each run (per thread, because the
//! test harness runs tests side by side and a world is stepped by the thread
//! that built it), and holds each to a recorded ceiling of requests per
//! quantum — a per-tuple path that starts allocating again fails here
//! instead of waiting for someone to profile it.

#![forbid(unsafe_code)]

use orca_harness::{
    by_name, Built, CheckpointPolicy, Janitor, MetastoreKind, StorageModel, WorldPolicy,
};
use sps_sim::alloc::requests;

/// Heap requests made while a built world of `scenario` runs fault-free
/// under `policy` through warm-up, fault window and settle, and the quanta
/// that took.
fn requests_over_a_run(scenario: &str, seed: u64, policy: WorldPolicy) -> (u64, u64) {
    let scenario = by_name(scenario).expect("a registered scenario");
    let Built { mut world, .. } = (scenario.build)(seed, policy);
    if scenario.janitor {
        world.add_controller(Box::new(Janitor::default()));
    }
    let span = scenario.warmup + scenario.fault_window + scenario.settle;
    let quanta = span.as_millis() / world.kernel.config.quantum.as_millis();
    let before = requests();
    world.run_for(span);
    (requests() - before, quanta)
}

/// `(scenario, requests per quantum it may make)`, seed 7: what this tree
/// makes (130.3, 37.7, 28.3 and 25.1, the same in debug and release
/// builds), rounded up. Lower them when a change earns it. While the
/// profile store was a B-tree, which allocates its nodes one at a time,
/// `social` made 131.6; the arena and index that replaced it grow by
/// doubling. While a tuple
/// crossing a PE boundary was encoded by the sender and decoded by the
/// receiver, the same runs made 436.7, 65.2, 63.7 and 48.2: a payload per
/// frame, then a row, a value vector and a `String` per `Str` value for
/// every tuple decoded — `live` moved with the rest because every scenario
/// is a graph of one-operator PEs. Before the
/// profile store held its entries in place and `Aggregate` kept one
/// group-key buffer, they made 528.7 (`social`) and 83.0 (`trend`);
/// before `Filter` compared strings in place, `sentiment` made 70.7 — two
/// `String` clones per tuple to test `product == "iphone"`. `live`'s
/// predicates are on integers and never allocated: it is the control for
/// operator changes, and moves only if the container or transport does.
const CEILINGS: [(&str, u64); 4] = [
    ("social", 131),
    ("trend", 38),
    ("sentiment", 29),
    ("live", 26),
];

/// The same under the `campaign_durable` benchmark's policy: checkpoints
/// every 10 quanta, upstream backup, 5 ms writes, the replicated metastore.
/// This tree makes 161.4, 53.5, 43.5 and 36.0 in a release build, rounded
/// up here. A fault-free run under this policy executes what the plain one
/// does, so the surplus is the write side alone: snapshots, sink blobs, the
/// backup's buffered deliveries and the metastore's op log. A debug build
/// makes 174.9, 62.8, 47.7 and 42.1: its debug assertions run on the write
/// side too (a `Sink` compares every blob with a full encode).
const DURABLE_CEILINGS: [(&str, u64); 4] = if cfg!(debug_assertions) {
    [
        ("social", 175),
        ("trend", 63),
        ("sentiment", 48),
        ("live", 43),
    ]
} else {
    [
        ("social", 162),
        ("trend", 54),
        ("sentiment", 44),
        ("live", 37),
    ]
};

/// Both tables again for the per-tuple reference path (`SPS_BATCH=off`:
/// single-tuple runs, one transport frame per tuple), as this tree makes
/// them, rounded up. Plain, the same in debug and release builds: 292.9,
/// 39.0, 30.2 and 27.1 — a frame per tuple is a request per tuple, and
/// `social` moves most because it moves the most tuples across PEs. Under
/// the durable policy, release: 318.2, 51.5, 43.5 and 35.7; debug: 331.7,
/// 60.8, 47.6 and 41.8.
const PER_TUPLE_CEILINGS: [(&str, u64); 4] = [
    ("social", 293),
    ("trend", 39),
    ("sentiment", 31),
    ("live", 28),
];

const PER_TUPLE_DURABLE_CEILINGS: [(&str, u64); 4] = if cfg!(debug_assertions) {
    [
        ("social", 332),
        ("trend", 61),
        ("sentiment", 48),
        ("live", 42),
    ]
} else {
    [
        ("social", 319),
        ("trend", 52),
        ("sentiment", 44),
        ("live", 36),
    ]
};

/// Whether this process runs the batched data path (`SPS_BATCH` as the
/// engine reads it).
fn batching_on() -> bool {
    !matches!(
        std::env::var("SPS_BATCH").as_deref(),
        Ok("off") | Ok("0") | Ok("false")
    )
}

fn durable_policy() -> WorldPolicy {
    WorldPolicy {
        checkpoint: CheckpointPolicy::every(10)
            .upstream_backup(true)
            .storage(StorageModel::default().with_write(5, 0)),
        metastore: MetastoreKind::Replicated,
    }
}

fn check_ceilings(policy: WorldPolicy, ceilings: [(&str, u64); 4]) {
    // The data path reads `SPS_BATCH` once a process, on the first step of
    // any world, and when the variable is set that read allocates. A
    // warm-up run pays for it before anything is counted.
    requests_over_a_run("live", 7, policy);
    for (scenario, ceiling) in ceilings {
        let (requests, quanta) = requests_over_a_run(scenario, 7, policy);
        assert_eq!(
            requests_over_a_run(scenario, 7, policy),
            (requests, quanta),
            "{scenario}: a second run of the same seed"
        );
        let per_quantum = requests as f64 / quanta as f64;
        println!(
            "{scenario}: {requests} requests over {quanta} quanta, {per_quantum:.1} a quantum"
        );
        assert!(
            requests <= ceiling * quanta,
            "{scenario}: {per_quantum:.1} heap requests a quantum, recorded ceiling {ceiling}"
        );
    }
}

#[test]
fn heap_requests_repeat_exactly_and_stay_under_their_ceiling() {
    let ceilings = if batching_on() {
        CEILINGS
    } else {
        PER_TUPLE_CEILINGS
    };
    check_ceilings(WorldPolicy::default(), ceilings);
}

#[test]
fn durable_heap_requests_repeat_exactly_and_stay_under_their_ceiling() {
    let ceilings = if batching_on() {
        DURABLE_CEILINGS
    } else {
        PER_TUPLE_DURABLE_CEILINGS
    };
    check_ceilings(durable_policy(), ceilings);
}
