//! Property tests for [`sps_runtime::CheckpointStore`].
//!
//! Eviction under a finite storage budget:
//!
//! 1. eviction never leaves a protected (`Up`, checkpointable) slot without
//!    a restorable chain, for any save sequence and any budget,
//! 2. after every save + budget pass, either stored bytes fit the budget or
//!    everything still stored belongs to protected live chains (the only
//!    state eviction refuses to reclaim),
//! 3. every stored chain offers its head to a restore, with the chain's
//!    bytes as the read size.
//!
//! The chains themselves, in every build profile (the store's own checks
//! are `debug_assert`s): for arbitrary snapshot sequences — operators
//! handed out again, rebuilt equal, changed at equal length, resized, blobs
//! appearing and vanishing, shape changes, stale `taken_at`, finite and
//! unbounded budgets — each chain replays to its head, and the running byte
//! counter, the delta/full/compaction counts, every delta's dirty operators
//! and every write size are those of a naive model that owns plain copies
//! and compares them byte by byte. One slot saved more than [`FULL_EVERY`]
//! times without a shape change compacts on every `FULL_EVERY`-th save.

#![forbid(unsafe_code)]

use proptest::prelude::*;
use sps_engine::ckpt::{OpCheckpoint, PeCheckpoint, CKPT_FORMAT_VERSION};
use sps_engine::StateWriter;
use sps_runtime::ckpt::FULL_EVERY;
use sps_runtime::{CheckpointStore, JobId, StorageModel};
use sps_sim::SimTime;
use std::collections::BTreeSet;
use std::sync::Arc;

/// A checkpoint whose serialized size grows with `weight` (the state blob
/// carries `weight` i64 words), so save sequences exercise uneven chains.
fn ckpt(at_secs: u64, weight: usize) -> PeCheckpoint {
    let mut w = StateWriter::new();
    for i in 0..weight as i64 + 1 {
        w.put_i64(i);
    }
    PeCheckpoint {
        format_version: CKPT_FORMAT_VERSION,
        pe_index: 0,
        taken_at: SimTime::from_secs(at_secs),
        ops: vec![Arc::new(OpCheckpoint {
            name: "agg".into(),
            kind: "Aggregate".into(),
            finals_seen: vec![false],
            blob: Some(w.finish()),
        })],
        queues: vec![vec![bytes::Bytes::new()]],
        metrics: vec![],
    }
}

/// One scripted save: which of the 4 slots, how heavy the snapshot is.
/// Long enough that slots fill their chains and compact.
fn arb_saves() -> impl Strategy<Value = Vec<(usize, usize)>> {
    prop::collection::vec((0usize..4, 0usize..16), 1..120)
}

fn slot_key(slot: usize) -> (JobId, usize) {
    // Two jobs × two ADL slots, so eviction crosses job boundaries.
    (JobId(1 + (slot / 2) as u64), slot % 2)
}

proptest! {
    #[test]
    fn eviction_never_strands_a_protected_slot(
        saves in arb_saves(),
        budget in 1usize..2_000,
        protected_mask in 0usize..16,
    ) {
        let mut store = CheckpointStore::with_storage(StorageModel::default().with_budget(budget));
        let protected: BTreeSet<(JobId, usize)> = (0..4)
            .filter(|s| protected_mask & (1 << s) != 0)
            .map(slot_key)
            .collect();
        let mut saved_to: BTreeSet<(JobId, usize)> = BTreeSet::new();

        for (tick, &(slot, weight)) in saves.iter().enumerate() {
            let (job, adl) = slot_key(slot);
            // Monotonically increasing timestamps keep every save accepted.
            let accepted = store.save(job, adl, ckpt(tick as u64 + 1, weight), vec![], tick as u64);
            prop_assert!(accepted);
            saved_to.insert((job, adl));
            store.enforce_budget(&protected);

            // (1) Protected slots that ever saved stay restorable.
            for &(job, adl) in protected.intersection(&saved_to) {
                prop_assert!(
                    store.latest(job, adl).is_some(),
                    "protected slot {job:?}/{adl} lost its chain under budget {budget}"
                );
            }

            // (2) Within budget, or only protected live chains remain.
            if store.state_bytes() > budget {
                let survivors: Vec<_> = saved_to
                    .iter()
                    .filter(|&&(job, adl)| store.latest(job, adl).is_some())
                    .collect();
                prop_assert!(
                    survivors.iter().all(|k| protected.contains(k)),
                    "over budget ({} > {budget}) with evictable state left",
                    store.state_bytes()
                );
            }

            // (3) Every stored chain offers its head to a restore, and the
            // advertised read size is the bytes a restore would stream back.
            for &(job, adl) in &saved_to {
                let Some(head) = store.latest(job, adl) else {
                    prop_assert!(store.restore_candidate(job, adl).is_none());
                    continue;
                };
                let cand = store.restore_candidate(job, adl);
                prop_assert!(cand.is_some(), "{job:?}/{adl} stored but not restorable");
                let cand = cand.unwrap();
                prop_assert_eq!(cand.ckpt.taken_at, head.taken_at);
                let chain = store.materialize(job, adl).expect("chain replays");
                prop_assert_eq!(chain.digest(), cand.ckpt.digest());
                prop_assert!(cand.read_bytes > 0);
            }
        }

        // Unprotected slots may have been evicted, but never silently: a
        // missing chain must carry an eviction tombstone.
        for &(job, adl) in &saved_to {
            if store.latest(job, adl).is_none() {
                prop_assert!(store.was_evicted(job, adl));
            }
        }
    }

    #[test]
    fn unbounded_budget_never_evicts(saves in arb_saves()) {
        let mut store = CheckpointStore::new();
        for (tick, &(slot, weight)) in saves.iter().enumerate() {
            let (job, adl) = slot_key(slot);
            store.save(job, adl, ckpt(tick as u64 + 1, weight), vec![], tick as u64);
            store.enforce_budget(&BTreeSet::new());
            prop_assert!(store.latest(job, adl).is_some());
        }
        prop_assert_eq!(store.evictions(), 0);
    }
}

// ---- the chains against a naive model ------------------------------------

/// What the model remembers of one operator entry: plain owned data,
/// compared field by field and byte by byte.
#[derive(Clone, Debug, PartialEq)]
struct ModelOp {
    name: String,
    kind: String,
    finals: Vec<bool>,
    blob: Option<Vec<u8>>,
}

impl ModelOp {
    fn of(op: &OpCheckpoint) -> Self {
        ModelOp {
            name: op.name.to_string(),
            kind: op.kind.to_string(),
            finals: op.finals_seen.clone(),
            blob: op.blob.as_ref().map(|b| b.bytes().to_vec()),
        }
    }

    fn blob_len(&self) -> usize {
        self.blob.as_ref().map_or(0, Vec::len)
    }
}

#[derive(Clone, Debug)]
struct ModelSnap {
    at: u64,
    ops: Vec<ModelOp>,
    queue_bytes: usize,
}

impl ModelSnap {
    fn of(c: &PeCheckpoint) -> Self {
        ModelSnap {
            at: c.taken_at.as_millis(),
            ops: c.ops.iter().map(|op| ModelOp::of(op)).collect(),
            queue_bytes: c.queues.iter().flatten().map(|q| q.len()).sum(),
        }
    }

    fn full_bytes(&self) -> usize {
        self.ops.iter().map(ModelOp::blob_len).sum::<usize>() + self.queue_bytes
    }

    fn compatible(&self, next: &ModelSnap) -> bool {
        self.ops.len() == next.ops.len()
            && self
                .ops
                .iter()
                .zip(&next.ops)
                .all(|(a, b)| a.name == b.name && a.kind == b.kind)
    }

    /// Operators of `next` that differ from this snapshot's, by deep compare.
    fn dirty<'a>(&self, next: &'a ModelSnap) -> Vec<&'a ModelOp> {
        self.ops
            .iter()
            .zip(&next.ops)
            .filter(|(old, new)| old != new)
            .map(|(_, new)| new)
            .collect()
    }
}

/// One slot of the model store: the head, the chain's byte count and how
/// many operators each delta re-stored.
struct ModelSlot {
    head: ModelSnap,
    chain_bytes: usize,
    delta_dirty: Vec<usize>,
}

#[derive(Default)]
struct Model {
    slots: std::collections::BTreeMap<(JobId, usize), ModelSlot>,
    saved: u64,
    deltas_saved: u64,
    fulls_saved: u64,
    compactions: u64,
    stale_rejected: u64,
}

impl Model {
    /// Bytes a save of `next` would write if issued now.
    fn write_bytes(&self, key: (JobId, usize), next: &ModelSnap) -> usize {
        match self.slots.get(&key) {
            Some(slot) if slot.delta_dirty.len() + 1 < FULL_EVERY && slot.head.compatible(next) => {
                slot.head
                    .dirty(next)
                    .iter()
                    .map(|op| op.blob_len())
                    .sum::<usize>()
                    + next.queue_bytes
            }
            _ => next.full_bytes(),
        }
    }

    fn commit(&mut self, key: (JobId, usize), next: ModelSnap) -> bool {
        let Some(slot) = self.slots.get_mut(&key) else {
            self.slots.insert(
                key,
                ModelSlot {
                    chain_bytes: next.full_bytes(),
                    head: next,
                    delta_dirty: Vec::new(),
                },
            );
            self.fulls_saved += 1;
            self.saved += 1;
            return true;
        };
        if next.at < slot.head.at {
            self.stale_rejected += 1;
            return false;
        }
        if slot.delta_dirty.len() + 1 >= FULL_EVERY || !slot.head.compatible(&next) {
            slot.chain_bytes = next.full_bytes();
            slot.delta_dirty.clear();
            self.fulls_saved += 1;
            self.compactions += 1;
        } else {
            let dirty = slot.head.dirty(&next);
            slot.chain_bytes +=
                dirty.iter().map(|op| op.blob_len()).sum::<usize>() + next.queue_bytes;
            slot.delta_dirty.push(dirty.len());
            self.deltas_saved += 1;
        }
        slot.head = next;
        self.saved += 1;
        true
    }

    fn state_bytes(&self) -> usize {
        self.slots.values().map(|s| s.chain_bytes).sum()
    }
}

/// What one step does to one operator of the slot's previous snapshot.
#[derive(Clone, Copy, Debug)]
enum Touch {
    /// The previous entry again — the same `Arc`, as a PE hands it out.
    Same,
    /// Equal content from a fresh writer behind a fresh `Arc`.
    Rebuilt,
    /// One byte changed, length kept.
    FlipByte(usize),
    /// A byte appended.
    Grow,
    /// `None` <-> `Some`.
    ToggleBlob,
    /// The container's final tracking moved.
    FlipFinal,
}

fn touch(code: usize) -> Touch {
    match code {
        0..=3 => Touch::Same,
        4..=5 => Touch::Rebuilt,
        6..=8 => Touch::FlipByte(code),
        9 => Touch::Grow,
        10 => Touch::ToggleBlob,
        _ => Touch::FlipFinal,
    }
}

fn blob_from(bytes: &[u8]) -> sps_engine::StateBlob {
    let mut w = StateWriter::new();
    for &b in bytes {
        w.put_u8(b);
    }
    w.finish()
}

fn touched(prev: &Arc<OpCheckpoint>, how: Touch) -> Arc<OpCheckpoint> {
    let mut bytes = prev.blob.as_ref().map(|b| b.bytes().to_vec());
    let mut finals = prev.finals_seen.clone();
    match how {
        Touch::Same => return Arc::clone(prev),
        Touch::Rebuilt => {}
        Touch::FlipByte(at) => match &mut bytes {
            Some(b) if !b.is_empty() => {
                let at = at * 7 % b.len();
                b[at] ^= 0x5a;
            }
            other => *other = Some(vec![1]),
        },
        Touch::Grow => bytes.get_or_insert_with(Vec::new).push(0xee),
        Touch::ToggleBlob => {
            bytes = match bytes {
                Some(_) => None,
                None => Some(vec![3; 24]),
            }
        }
        Touch::FlipFinal => finals[0] = !finals[0],
    }
    Arc::new(OpCheckpoint {
        name: Arc::clone(&prev.name),
        kind: Arc::clone(&prev.kind),
        finals_seen: finals,
        blob: bytes.as_deref().map(blob_from),
    })
}

fn first_ops() -> Vec<Arc<OpCheckpoint>> {
    [
        ("src", "Beacon", 12),
        ("agg", "Aggregate", 40),
        ("snk", "Sink", 0),
    ]
    .into_iter()
    .map(|(name, kind, len)| {
        Arc::new(OpCheckpoint {
            name: name.into(),
            kind: kind.into(),
            finals_seen: vec![false],
            blob: (len > 0).then(|| blob_from(&vec![7; len])),
        })
    })
    .collect()
}

/// One scripted snapshot: slot, what happens to each of its three
/// operators, shape change (0 = rename an operator), clock step (0 = a
/// stale `taken_at`), queued bytes.
type Step = (usize, [usize; 3], usize, u64, usize);

fn arb_steps() -> impl Strategy<Value = Vec<Step>> {
    prop::collection::vec(
        (
            0usize..3,
            prop::array::uniform3(0usize..12),
            0usize..24,
            0u64..8,
            0usize..6,
        ),
        1..120,
    )
}

/// Drives `steps` through a store (one byte per sim-millisecond of write
/// latency, `budget` bytes, `0` unbounded) and the naive model side by
/// side, comparing them after every step; returns the store.
fn check_against_model(steps: &[Step], budget: usize, protected_mask: usize) -> CheckpointStore {
    let mut store =
        CheckpointStore::with_storage(StorageModel::default().with_write(0, 1).with_budget(budget));
    let protected: BTreeSet<(JobId, usize)> = (0..3)
        .filter(|s| protected_mask & (1 << s) != 0)
        .map(slot_key)
        .collect();
    let mut model = Model::default();
    // Per slot: the entries of the last snapshot taken (the PE's side).
    let mut last_ops: Vec<Vec<Arc<OpCheckpoint>>> = vec![first_ops(); 3];
    let mut taken_at = [10u64; 3];
    let mut now = SimTime::from_millis(1);

    for (tick, &(slot, touches, shape, clock, queued)) in steps.iter().enumerate() {
        let key = slot_key(slot);
        let mut ops: Vec<_> = last_ops[slot]
            .iter()
            .zip(touches)
            .map(|(prev, code)| touched(prev, touch(code)))
            .collect();
        if shape == 0 {
            let renamed = OpCheckpoint {
                name: format!("agg{tick}").into(),
                ..OpCheckpoint::clone(&ops[1])
            };
            ops[1] = Arc::new(renamed);
        }
        last_ops[slot] = ops.clone();
        taken_at[slot] = match clock {
            0 => taken_at[slot].saturating_sub(3),
            step => taken_at[slot] + step,
        };
        let snap = PeCheckpoint {
            format_version: CKPT_FORMAT_VERSION,
            pe_index: key.1,
            taken_at: SimTime::from_millis(taken_at[slot]),
            ops,
            queues: vec![vec![bytes::Bytes::from(vec![9u8; queued])], vec![], vec![]],
            metrics: vec![],
        };
        let expected = ModelSnap::of(&snap);

        let write_bytes = model.write_bytes(key, &expected);
        let commit_at = store.begin_save(key.0, key.1, snap, vec![], tick as u64, now);
        prop_assert_eq!(
            commit_at.since(now).as_millis(),
            write_bytes as u64,
            "write size of step {}",
            tick
        );
        now = commit_at;
        let commits = store.poll_commits(now, &protected);
        prop_assert_eq!(commits.len(), 1);
        let accepted = model.commit(key, expected);
        prop_assert_eq!(commits[0].accepted, accepted);

        // Eviction policy has its own property above; here the model
        // follows what the store evicted and checks the arithmetic.
        model
            .slots
            .retain(|&(job, adl), _| store.latest(job, adl).is_some());

        prop_assert_eq!(store.state_bytes(), model.state_bytes());
        prop_assert_eq!(store.saved(), model.saved);
        prop_assert_eq!(store.deltas_saved(), model.deltas_saved);
        prop_assert_eq!(store.fulls_saved(), model.fulls_saved);
        prop_assert_eq!(store.compactions(), model.compactions);
        prop_assert_eq!(store.stale_rejected(), model.stale_rejected);
        for (&(job, adl), slot) in &model.slots {
            let dirty: Vec<usize> = store
                .deltas(job, adl)
                .iter()
                .map(|d| d.dirty_ops())
                .collect();
            prop_assert_eq!(&dirty, &slot.delta_dirty);
            let head = store.latest(job, adl).expect("model slot is stored");
            let replayed = store.materialize(job, adl).expect("chain replays");
            prop_assert_eq!(replayed.digest(), head.digest());
            prop_assert_eq!(&replayed, head);
            prop_assert_eq!(head.taken_at.as_millis(), slot.head.at);
            let read = store.restore_candidate(job, adl).expect("head restores");
            prop_assert_eq!(read.read_bytes, slot.chain_bytes);
        }
    }
    store
}

/// Unbounded, tight enough to evict chains often, and roomy enough to evict
/// them rarely.
const BUDGETS: [usize; 3] = [0, 150, 600];

proptest! {
    /// Whatever the snapshots share, rebuild or change, the store's chains,
    /// counters and write sizes are those of a model that owns plain copies
    /// and compares them byte by byte — and every chain replays to its head.
    #[test]
    fn chains_match_a_naive_model(
        steps in arb_steps(),
        budget in 0usize..3,
        protected_mask in 0usize..8,
    ) {
        check_against_model(&steps, BUDGETS[budget], protected_mask);
    }

    /// One protected slot saved more than `FULL_EVERY` times with no shape
    /// change and no stale clock: every `FULL_EVERY`-th save after the
    /// first compacts, and the chain between holds the rest as deltas.
    #[test]
    fn a_full_chain_compacts(
        touches in prop::collection::vec(
            (prop::array::uniform3(0usize..12), 0usize..6),
            FULL_EVERY + 1..4 * FULL_EVERY,
        ),
        budget in 0usize..3,
    ) {
        let steps: Vec<Step> = touches
            .iter()
            .map(|&(touches, queued)| (0, touches, 1, 1, queued))
            .collect();
        let store = check_against_model(&steps, BUDGETS[budget], 1);
        let n = steps.len();
        prop_assert!(store.compactions() >= 1);
        prop_assert_eq!(store.compactions(), ((n - 1) / FULL_EVERY) as u64);
        prop_assert_eq!(store.deltas(JobId(1), 0).len(), (n - 1) % FULL_EVERY);
    }
}
