//! Heap requests per quantum, pinned.
//!
//! The simulator is deterministic, so the number of times a scenario asks
//! the allocator for memory is an exact count, not a measurement: the same
//! seed gives the same number on every run. The process allocator
//! (`sps_sim::alloc`) counts the requests each thread makes; this binary
//! runs the four scenarios fault-free, under the plain policy and under the
//! durable one, and reads that count around each run (per thread, because
//! the test harness runs tests side by side and a world is stepped by the
//! thread that built it). A run splits in two. Its set-up — the quanta until
//! every job of the scenario is running — submits jobs and builds their
//! operators, which allocates per job, so its count is pinned exactly. The
//! steady state after it is held to a recorded ceiling of requests per
//! quantum — a per-tuple path that starts allocating again fails here
//! instead of waiting for someone to profile it.

#![forbid(unsafe_code)]

use orca_harness::{
    by_name, Built, CheckpointPolicy, Janitor, MetastoreKind, StorageModel, WorldPolicy,
};
use sps_runtime::{PeStatus, World};
use sps_sim::alloc::requests;

/// Heap requests of one fault-free run, split where set-up ends.
#[derive(Debug, PartialEq)]
struct Run {
    setup: u64,
    setup_quanta: u64,
    steady: u64,
    steady_quanta: u64,
}

/// Runs a built world of `scenario` fault-free under `policy` through
/// warm-up, fault window and settle. Set-up is the quanta until `jobs` jobs
/// are running and no process is still starting; the rest is the steady
/// state.
fn requests_over_a_run(scenario: &str, jobs: usize, seed: u64, policy: WorldPolicy) -> Run {
    let scenario = by_name(scenario).expect("a registered scenario");
    let Built { mut world, .. } = (scenario.build)(seed, policy);
    if scenario.janitor {
        world.add_controller(Box::new(Janitor::default()));
    }
    let span = scenario.warmup + scenario.fault_window + scenario.settle;
    let quanta = span.as_millis() / world.kernel.config.quantum.as_millis();
    let until = world.now() + span;
    // Reads the tables in place: the check itself allocates nothing.
    let set_up = |w: &World| {
        w.kernel.sam.running().count() == jobs && w.kernel.cluster.count(PeStatus::Starting) == 0
    };
    let before = requests();
    let mut setup_quanta = 0;
    while !set_up(&world) {
        assert!(setup_quanta < quanta, "never ran {jobs} jobs");
        world.step();
        setup_quanta += 1;
    }
    let setup = requests() - before;
    let before = requests();
    world.run_until(until);
    Run {
        setup,
        setup_quanta,
        steady: requests() - before,
        steady_quanta: quanta - setup_quanta,
    }
}

/// `(scenario, jobs it runs once set up, set-up requests under the plain
/// policy, under the durable one)`, seed 7: exact, and the same in debug and
/// release builds, batched or not. `live` submits its two pipelines before
/// the first quantum, so it has no set-up to count; the ORCA logics submit
/// theirs in their first quantum (`social`'s five are the C1 readers and
/// the C2 queries; its C3 jobs come and go later, in the steady state).
/// The durable policy's set-up makes two or three requests more.
const SETUP: [(&str, usize, u64, u64); 4] = [
    ("social", 5, 1036, 1039),
    ("trend", 3, 733, 736),
    ("sentiment", 1, 448, 450),
    ("live", 2, 0, 0),
];

/// `(scenario, requests per steady quantum it may make)`, seed 7: what this
/// tree makes (114.3, 35.5, 26.4 and 25.0, the same in debug and release
/// builds), rounded up. Lower them when a change earns it. Whole runs, set-up
/// included, make 117.3, 37.7, 28.1 and 25.0 a quantum; that is what the
/// history below counts. While the ORCA service wrote a text journal entry
/// for every event it delivered, `social` made 118.4 (115.3 steady). While
/// C1 named each user with `format!` (an allocation, then a reallocation),
/// `social` made 130.4 (127.3 steady).
/// While the profile store was a B-tree, which allocates its nodes one at a
/// time, `social` made 131.6; the arena and index that replaced it grow by
/// doubling. While a tuple crossing a PE boundary was encoded by the sender
/// and decoded by the receiver, the same runs made 436.7, 65.2, 63.7 and 48.2: a payload per
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
    ("social", 115),
    ("trend", 36),
    ("sentiment", 27),
    ("live", 26),
];

/// The same under the `campaign_durable` benchmark's policy: checkpoints
/// every 10 quanta, upstream backup, 5 ms writes, the replicated metastore.
/// The steady state makes 144.4, 50.6, 41.2 and 35.5 in a release build,
/// rounded up here. A fault-free run under this policy executes what the
/// plain one does, so the surplus is the write side alone: snapshots, sink
/// blobs, the backup's buffered deliveries and the metastore's op log. A
/// debug build makes 149.2, 54.1, 41.6 and 37.8: its debug assertions run
/// on the write side too (a `Sink` compares every blob with a full encode).
/// While a checkpoint slot kept its chain's snapshots and each delta a mask
/// of what it re-stored (the debug build replaying the chain after every
/// save), release made 145.5, 51.4, 41.8 and 36.0 and debug 159.0, 60.7,
/// 45.9 and 42.1.
const DURABLE_CEILINGS: [(&str, u64); 4] = if cfg!(debug_assertions) {
    [
        ("social", 150),
        ("trend", 55),
        ("sentiment", 42),
        ("live", 38),
    ]
} else {
    [
        ("social", 145),
        ("trend", 51),
        ("sentiment", 42),
        ("live", 36),
    ]
};

/// Both ceiling tables again for the per-tuple reference path
/// (`SPS_BATCH=off`: single-tuple runs, one transport frame per tuple), as
/// this tree's steady state makes them, rounded up. Plain, the same in debug
/// and release builds: 277.3, 36.8, 28.4 and 27.1 — a frame per tuple is a
/// request per tuple, and `social` moves most because it moves the most
/// tuples across PEs. Under the durable policy, release: 301.6, 48.6, 41.2
/// and 35.2; debug: 306.5, 52.1, 41.5 and 37.5 (302.7, 49.4, 41.7 and 35.7,
/// and 316.2, 58.7, 45.9 and 41.8, while slots kept their chains).
const PER_TUPLE_CEILINGS: [(&str, u64); 4] = [
    ("social", 278),
    ("trend", 37),
    ("sentiment", 29),
    ("live", 28),
];

const PER_TUPLE_DURABLE_CEILINGS: [(&str, u64); 4] = if cfg!(debug_assertions) {
    [
        ("social", 307),
        ("trend", 53),
        ("sentiment", 42),
        ("live", 38),
    ]
} else {
    [
        ("social", 302),
        ("trend", 49),
        ("sentiment", 42),
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

fn check_budgets(policy: WorldPolicy, durable: bool, ceilings: [(&str, u64); 4]) {
    // The data path reads `SPS_BATCH` once a process, on the first step of
    // any world, and when the variable is set that read allocates. A
    // warm-up run pays for it before anything is counted.
    requests_over_a_run("live", 2, 7, policy);
    for ((scenario, ceiling), (named, jobs, plain, durable_setup)) in
        ceilings.into_iter().zip(SETUP)
    {
        assert_eq!(scenario, named, "the tables list scenarios in one order");
        let setup = if durable { durable_setup } else { plain };
        let run = requests_over_a_run(scenario, jobs, 7, policy);
        assert_eq!(
            requests_over_a_run(scenario, jobs, 7, policy),
            run,
            "{scenario}: a second run of the same seed"
        );
        let per_quantum = run.steady as f64 / run.steady_quanta as f64;
        println!(
            "{scenario}: set-up {} requests over {} quanta, then {} over {} quanta, \
             {per_quantum:.1} a quantum ({} in all)",
            run.setup,
            run.setup_quanta,
            run.steady,
            run.steady_quanta,
            run.setup + run.steady
        );
        assert_eq!(run.setup, setup, "{scenario}: set-up heap requests");
        assert!(
            run.steady <= ceiling * run.steady_quanta,
            "{scenario}: {per_quantum:.1} heap requests a steady quantum, recorded ceiling {ceiling}"
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
    check_budgets(WorldPolicy::default(), false, ceilings);
}

#[test]
fn durable_heap_requests_repeat_exactly_and_stay_under_their_ceiling() {
    let ceilings = if batching_on() {
        DURABLE_CEILINGS
    } else {
        PER_TUPLE_DURABLE_CEILINGS
    };
    check_budgets(durable_policy(), true, ceilings);
}
