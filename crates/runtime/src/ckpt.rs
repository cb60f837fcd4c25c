//! The runtime checkpoint store.
//!
//! The paper's recovery story distinguishes restarting a PE with *fresh*
//! state (§5.2 — the Trend Calculator deliberately runs without
//! checkpointing and pays a window-refill gap) from recovering it with its
//! operator state intact. This module supplies the latter: the kernel
//! periodically snapshots every checkpointable, `Up` PE into a
//! [`PeCheckpoint`] keyed by `(job, ADL PE index)` — the identity that
//! survives restarts, unlike [`PeId`]s which are minted fresh each time —
//! and [`crate::kernel::Kernel::restart_pe`] restores the newest snapshot
//! into the replacement process, falling back to fresh state when none
//! exists or the shape changed.
//!
//! Since checkpoint format v2 snapshots also capture the PE's input queues,
//! and the store accounts each slot as an *incremental chain*: a full base
//! snapshot plus per-interval deltas that re-store only the operators whose
//! checkpoint entry actually changed. The dirty rule is equality: same
//! name, kind and final tracking, and a [`StateBlob`] of the same bytes.
//! Nothing is hashed. Entries are shared `Rc`s, and a PE hands its previous
//! entry out again while the operator's bytes stay the same, so the test is a
//! pointer compare for an unchanged operator and a byte compare that leaves
//! at the first difference otherwise.
//!
//! A slot keeps its chain's head and the chain only as numbers: its bytes,
//! how many operators each delta re-stored, and when its base was taken.
//! Restores read the head; everything else a chain decides — what a save
//! writes, what a restore reads, when the chain compacts and which chain
//! eviction takes first — needs nothing more, so the snapshots behind the
//! head are dropped as soon as it moves on.
//!
//! A chain holds at most [`FULL_EVERY`] snapshots — one full base plus
//! `FULL_EVERY - 1` deltas; the save that would stack one more delta
//! instead compacts the chain back into a fresh full base, bounding
//! recovery-chain length. Alongside each snapshot the store records the
//! sender-side upstream-backup channel positions, so a restore can roll the
//! sender's duplicate-suppression counters back in lockstep with its state.
//!
//! The store models a highly available external service (the real system
//! would keep this in a distributed file system): host failures do not lose
//! checkpoints, only job cancellation discards them. What the service does
//! cost is *time* and *space*, captured by a [`StorageModel`]: saves are
//! issued with [`CheckpointStore::begin_save`] and only become visible
//! (restorable, upstream-backup-trimmable) once
//! [`CheckpointStore::poll_commits`] reaches `issue + write_latency(bytes)`
//! in sim-time. A finite byte budget evicts unprotected chains whole,
//! oldest base first, and never claims the chain of a PE the kernel marks
//! protected (its `Up` and `Starting` checkpointable PEs), so protected
//! chains alone can exceed it. A slot holds one restorable thing, its
//! chain: compaction discards the old one, and a restore whose head the
//! container rejects comes back fresh.
//!
//! [`StateBlob`]: sps_engine::StateBlob
//! [`PeId`]: crate::ids::PeId

use crate::broker::ChannelKey;
use crate::ids::JobId;
use sps_engine::{PeCheckpoint, StateBlob};
use sps_sim::{SimDuration, SimTime};
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

/// Chain compaction bound: a slot's chain holds at most this many snapshots
/// (base + deltas); the save that would exceed it lands as a fresh full base
/// instead.
pub const FULL_EVERY: usize = 8;

/// Simulated storage cost model for the checkpoint service.
///
/// The default is the free, instant store of earlier revisions: zero
/// latency on both paths and an unbounded budget. With those defaults every
/// save issued by [`CheckpointStore::begin_save`] commits within the same
/// scheduling quantum, in issue order, so kernel behavior is byte-identical
/// to the synchronous store.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct StorageModel {
    /// Fixed per-write latency in sim-milliseconds (seek/RPC cost).
    pub write_op_ms: u64,
    /// Write throughput in bytes per sim-millisecond; `0` = infinite.
    pub write_bytes_per_ms: u64,
    /// Fixed per-restore latency in sim-milliseconds.
    pub restore_op_ms: u64,
    /// Restore throughput in bytes per sim-millisecond; `0` = infinite.
    pub restore_bytes_per_ms: u64,
    /// Serialized-byte budget across all chains; `0` = unbounded. A finite
    /// budget evicts unprotected chains, oldest base first, and can be
    /// exceeded: protected chains are never evicted.
    pub budget_bytes: usize,
}

impl StorageModel {
    fn latency(op_ms: u64, bytes_per_ms: u64, bytes: usize) -> SimDuration {
        let transfer = if bytes_per_ms == 0 {
            0
        } else {
            (bytes as u64).div_ceil(bytes_per_ms)
        };
        SimDuration::from_millis(op_ms + transfer)
    }

    /// Sim-time between a save being issued and the snapshot committing.
    pub fn write_latency(&self, bytes: usize) -> SimDuration {
        Self::latency(self.write_op_ms, self.write_bytes_per_ms, bytes)
    }

    /// Sim-time a restore spends reading `bytes` back before replay begins.
    pub fn restore_latency(&self, bytes: usize) -> SimDuration {
        Self::latency(self.restore_op_ms, self.restore_bytes_per_ms, bytes)
    }

    /// Builder: write-path cost (fixed per-op latency, throughput).
    pub fn with_write(mut self, op_ms: u64, bytes_per_ms: u64) -> Self {
        self.write_op_ms = op_ms;
        self.write_bytes_per_ms = bytes_per_ms;
        self
    }

    /// Builder: restore-path cost (fixed per-op latency, throughput).
    pub fn with_restore(mut self, op_ms: u64, bytes_per_ms: u64) -> Self {
        self.restore_op_ms = op_ms;
        self.restore_bytes_per_ms = bytes_per_ms;
        self
    }

    /// Builder: finite byte budget. It evicts unprotected chains, oldest
    /// base first, and can be exceeded by protected ones.
    pub fn with_budget(mut self, bytes: usize) -> Self {
        self.budget_bytes = bytes;
        self
    }
}

/// Per-kernel checkpointing policy. The default is off: no snapshots, no
/// backup, the free store.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CheckpointPolicy {
    /// Snapshot period, in scheduling quanta; `0` disables checkpointing
    /// entirely (the seed behavior, and the paper's §5.2 setup).
    pub every_quanta: u32,
    /// Sender-side upstream backup: buffer every delivery to a
    /// checkpointable PE, trim on checkpoint commit, and replay the gap
    /// into restored PEs — exactly-once recovery instead of losing the
    /// tuples in flight between the snapshot and the crash.
    pub upstream_backup: bool,
    /// Simulated write/restore latency and byte budget of the store.
    pub storage: StorageModel,
}

impl CheckpointPolicy {
    /// Checkpointing every `quanta` scheduling quanta.
    pub fn every(quanta: u32) -> Self {
        CheckpointPolicy {
            every_quanta: quanta,
            ..Default::default()
        }
    }

    pub fn enabled(&self) -> bool {
        self.every_quanta > 0
    }

    /// Builder: sender-side upstream backup for exactly-once recovery.
    pub fn upstream_backup(mut self, on: bool) -> Self {
        self.upstream_backup = on;
        self
    }

    /// Builder: storage cost model for the simulated checkpoint service.
    pub fn storage(mut self, storage: StorageModel) -> Self {
        self.storage = storage;
        self
    }

    /// The wall-clock period between snapshots under a given quantum.
    pub fn period(&self, quantum: SimDuration) -> SimDuration {
        SimDuration::from_millis(quantum.as_millis() * self.every_quanta as u64)
    }
}

/// One PE slot: its chain's head, the replay bookkeeping saved with it, and
/// the chain itself as numbers (module doc).
struct Slot {
    /// The newest committed snapshot: what restores use.
    head: Rc<PeCheckpoint>,
    /// Sender-side upstream-backup channel positions at snapshot time.
    sender_pos: Vec<(ChannelKey, u64)>,
    /// Serialized bytes of the chain — its base plus every delta, what a
    /// restore reads — added up as snapshots land.
    chain_bytes: usize,
    /// Operators each delta on top of the base re-stored, oldest first: the
    /// chain holds `1 + delta_dirty.len()` snapshots.
    delta_dirty: Vec<usize>,
    /// When the chain's base was taken; eviction takes the oldest first.
    base_taken_at: SimTime,
}

/// A save issued but not yet durable: commits at `commit_at`.
struct PendingWrite {
    job: JobId,
    adl_index: usize,
    ckpt: PeCheckpoint,
    sender_pos: Vec<(ChannelKey, u64)>,
    quanta_now: u64,
}

/// One durable commit reported by [`CheckpointStore::poll_commits`]. The
/// kernel trims upstream-backup buffers on *accepted* commits only — an
/// in-flight snapshot must never trim tuples it has not durably covered.
pub struct CommittedSave {
    pub job: JobId,
    pub adl_index: usize,
    pub taken_at: SimTime,
    /// `false` when the store rejected the commit as stale.
    pub accepted: bool,
}

/// What a restore of a slot reads: its chain's head, the sender-side
/// positions recorded alongside it, and the chain's bytes.
pub struct RestoreCandidate {
    pub ckpt: Rc<PeCheckpoint>,
    pub sender_pos: Vec<(ChannelKey, u64)>,
    /// Bytes a restore reads back (the whole chain, base and deltas) —
    /// drives restore latency.
    pub read_bytes: usize,
}

/// Newest checkpoint chain per `(job, ADL PE index)`, plus observability
/// counters.
pub struct CheckpointStore {
    slots: BTreeMap<(JobId, usize), Slot>,
    /// Simulated latency/budget model (default: instant and unbounded).
    storage: StorageModel,
    /// Saves issued but not yet committed, keyed by `(commit time, issue
    /// sequence)`: the order they commit in, with equal commit times
    /// falling back to issue order.
    pending: BTreeMap<(SimTime, u64), PendingWrite>,
    next_seq: u64,
    /// Global quantum index of each slot's newest snapshot *issue* (or
    /// restore), for the per-PE cadence skip. Store-level so an in-flight
    /// write already counts as recent capture.
    cadence: BTreeMap<(JobId, usize), u64>,
    /// Slots whose chain eviction reclaimed — restarts report
    /// `FreshReason::Evicted` instead of `NoCheckpoint` for these.
    evicted: BTreeSet<(JobId, usize)>,
    /// Running total of serialized chain bytes, maintained on
    /// save/compact/evict/forget so `state_bytes()` is O(1) per SRM push.
    bytes: usize,
    saved: u64,
    restored: u64,
    fallbacks: u64,
    stale_rejected: u64,
    deltas_saved: u64,
    fulls_saved: u64,
    compactions: u64,
    issued: u64,
    aborted: u64,
    evictions: u64,
    peak_bytes: usize,
}

impl Default for CheckpointStore {
    fn default() -> Self {
        CheckpointStore::new()
    }
}

impl CheckpointStore {
    pub fn new() -> Self {
        CheckpointStore::with_storage(StorageModel::default())
    }

    /// A store simulating `storage`'s latencies and budget.
    pub fn with_storage(storage: StorageModel) -> Self {
        CheckpointStore {
            slots: BTreeMap::new(),
            storage,
            pending: BTreeMap::new(),
            next_seq: 0,
            cadence: BTreeMap::new(),
            evicted: BTreeSet::new(),
            bytes: 0,
            saved: 0,
            restored: 0,
            fallbacks: 0,
            stale_rejected: 0,
            deltas_saved: 0,
            fulls_saved: 0,
            compactions: 0,
            issued: 0,
            aborted: 0,
            evictions: 0,
            peak_bytes: 0,
        }
    }

    /// The storage model this store simulates.
    pub fn storage(&self) -> &StorageModel {
        &self.storage
    }

    /// Issues an asynchronous save: the snapshot becomes durable (and
    /// restorable) only when [`Self::poll_commits`] reaches
    /// `now + write_latency`. Records the slot's snapshot cadence at issue
    /// time so the kernel does not re-issue while a write is in flight.
    /// Returns the commit time.
    pub fn begin_save(
        &mut self,
        job: JobId,
        adl_index: usize,
        ckpt: PeCheckpoint,
        sender_pos: Vec<(ChannelKey, u64)>,
        quanta_now: u64,
        now: SimTime,
    ) -> SimTime {
        // Estimate the write size against the committed head: a compatible
        // non-full chain pays only the delta, anything else a full base.
        // Skipped entirely when throughput is infinite (bytes cost nothing).
        let write_bytes = if self.storage.write_bytes_per_ms == 0 {
            0
        } else {
            match self.slots.get(&(job, adl_index)) {
                Some(slot)
                    if slot.delta_dirty.len() + 1 < FULL_EVERY
                        && delta_compatible(&slot.head, &ckpt) =>
                {
                    delta_cost(&ckpt, dirty_ops(&slot.head, &ckpt)).1
                }
                _ => ckpt.state_bytes(),
            }
        };
        let commit_at = now + self.storage.write_latency(write_bytes);
        self.cadence.insert((job, adl_index), quanta_now);
        self.issued += 1;
        let seq = self.next_seq;
        self.next_seq += 1;
        self.pending.insert(
            (commit_at, seq),
            PendingWrite {
                job,
                adl_index,
                ckpt,
                sender_pos,
                quanta_now,
            },
        );
        commit_at
    }

    /// Commits every pending write due by `now` (in `(commit_at, issue)`
    /// order, so zero-latency saves commit exactly as the old synchronous
    /// store did), then enforces the byte budget. `protected` lists the PE
    /// slots whose chain eviction must never reclaim — the kernel passes
    /// its `Up` and `Starting` checkpointable PEs.
    pub fn poll_commits(
        &mut self,
        now: SimTime,
        protected: &BTreeSet<(JobId, usize)>,
    ) -> Vec<CommittedSave> {
        if self.pending.is_empty() {
            return Vec::new();
        }
        let mut out = Vec::new();
        while let Some(first) = self.pending.first_entry() {
            if first.key().0 > now {
                break;
            }
            let w = first.remove();
            let taken_at = w.ckpt.taken_at;
            let accepted = self.save(w.job, w.adl_index, w.ckpt, w.sender_pos, w.quanta_now);
            out.push(CommittedSave {
                job: w.job,
                adl_index: w.adl_index,
                taken_at,
                accepted,
            });
        }
        self.enforce_budget(protected);
        out
    }

    /// Whether any issued save has yet to commit.
    pub fn has_pending(&self) -> bool {
        !self.pending.is_empty()
    }

    /// Whether a save for this PE slot is issued but not yet committed.
    pub fn write_in_flight(&self, job: JobId, adl_index: usize) -> bool {
        self.pending
            .values()
            .any(|w| w.job == job && w.adl_index == adl_index)
    }

    /// Drops this slot's in-flight writes (a restart must not let a
    /// snapshot of the dead incarnation commit later and shadow the
    /// restored state's cadence). Returns how many were aborted.
    pub fn abort_inflight(&mut self, job: JobId, adl_index: usize) -> usize {
        let before = self.pending.len();
        self.pending
            .retain(|_, w| !(w.job == job && w.adl_index == adl_index));
        let aborted = before - self.pending.len();
        self.aborted += aborted as u64;
        aborted
    }

    /// Installs a snapshot for a PE slot, extending its incremental chain
    /// (or compacting to a fresh full base). Snapshots older than the
    /// stored head are rejected — a stale snapshot racing a restart must
    /// never roll a slot backwards. Returns whether the snapshot was
    /// accepted.
    ///
    /// This is the synchronous commit step; latency-modelled callers go
    /// through [`Self::begin_save`] / [`Self::poll_commits`] instead.
    pub fn save(
        &mut self,
        job: JobId,
        adl_index: usize,
        ckpt: PeCheckpoint,
        sender_pos: Vec<(ChannelKey, u64)>,
        quanta_now: u64,
    ) -> bool {
        match self.slots.get_mut(&(job, adl_index)) {
            Some(slot) => {
                if ckpt.taken_at < slot.head.taken_at {
                    self.stale_rejected += 1;
                    return false;
                }
                // The chain holds at most `FULL_EVERY` snapshots (base +
                // `FULL_EVERY - 1` deltas): once this save would stack one
                // more delta — or the shape changed — compact to a fresh
                // full base instead.
                let chain_full = slot.delta_dirty.len() + 1 >= FULL_EVERY;
                if chain_full || !delta_compatible(&slot.head, &ckpt) {
                    let full_bytes = ckpt.state_bytes();
                    self.bytes = self.bytes - slot.chain_bytes + full_bytes;
                    slot.chain_bytes = full_bytes;
                    slot.delta_dirty.clear();
                    slot.base_taken_at = ckpt.taken_at;
                    self.fulls_saved += 1;
                    self.compactions += 1;
                } else {
                    let (ops, bytes) = delta_cost(&ckpt, dirty_ops(&slot.head, &ckpt));
                    self.bytes += bytes;
                    slot.chain_bytes += bytes;
                    slot.delta_dirty.push(ops);
                    self.deltas_saved += 1;
                }
                slot.head = Rc::new(ckpt);
                slot.sender_pos = sender_pos;
            }
            None => {
                let chain_bytes = ckpt.state_bytes();
                self.bytes += chain_bytes;
                self.fulls_saved += 1;
                self.slots.insert(
                    (job, adl_index),
                    Slot {
                        base_taken_at: ckpt.taken_at,
                        head: Rc::new(ckpt),
                        sender_pos,
                        chain_bytes,
                        delta_dirty: Vec::new(),
                    },
                );
            }
        }
        self.cadence.insert((job, adl_index), quanta_now);
        self.saved += 1;
        self.peak_bytes = self.peak_bytes.max(self.bytes);
        debug_assert!(self.consistent());
        true
    }

    /// The store's redundant bookkeeping agrees with what it stores: the
    /// running byte counter with the slots' chains, and every chain's length
    /// with the compaction bound.
    fn consistent(&self) -> bool {
        let recount = self.slots.values().map(|s| s.chain_bytes).sum::<usize>();
        self.bytes == recount
            && self
                .slots
                .values()
                .all(|s| s.delta_dirty.len() < FULL_EVERY)
    }

    /// Evicts whole chains, oldest base first (ties by slot), until stored
    /// bytes fit the budget or only protected chains remain (no-op when
    /// unbounded). A chain in `protected` is never evicted, so a protected
    /// PE can always restore, and stored bytes can stay over the budget.
    /// Public so the eviction-safety property test can drive it directly.
    pub fn enforce_budget(&mut self, protected: &BTreeSet<(JobId, usize)>) {
        let budget = self.storage.budget_bytes;
        if budget == 0 {
            return;
        }
        while self.bytes > budget {
            let victim = self
                .slots
                .iter()
                .filter(|(key, _)| !protected.contains(key))
                .min_by_key(|(key, slot)| (slot.base_taken_at, **key));
            // Only protected chains remain: stop rather than evict one.
            let Some((&key, _)) = victim else { break };
            let slot = self.slots.remove(&key).expect("victim slot exists");
            self.bytes -= slot.chain_bytes;
            self.evicted.insert(key);
            self.evictions += 1;
        }
    }

    /// Newest committed snapshot for a PE slot, if any (the chain's cached
    /// head). In-flight writes are invisible here until they commit.
    pub fn latest(&self, job: JobId, adl_index: usize) -> Option<&PeCheckpoint> {
        self.slots.get(&(job, adl_index)).map(|s| &*s.head)
    }

    /// What a restore of this slot reads — its chain's head, with the
    /// sender-side positions recorded alongside it and the chain's bytes —
    /// or `None` when the slot holds nothing.
    pub fn restore_candidate(&self, job: JobId, adl_index: usize) -> Option<RestoreCandidate> {
        let slot = self.slots.get(&(job, adl_index))?;
        Some(RestoreCandidate {
            ckpt: Rc::clone(&slot.head),
            sender_pos: slot.sender_pos.clone(),
            read_bytes: slot.chain_bytes,
        })
    }

    /// Whether this slot's chain was ever reclaimed by eviction — a restart
    /// that finds nothing distinguishes `Evicted` from plain `NoCheckpoint`.
    pub fn was_evicted(&self, job: JobId, adl_index: usize) -> bool {
        self.evicted.contains(&(job, adl_index))
    }

    /// The deltas stacked on a slot's base, oldest first, as the number of
    /// operators each re-stored.
    pub fn deltas(&self, job: JobId, adl_index: usize) -> &[usize] {
        self.slots
            .get(&(job, adl_index))
            .map_or(&[], |s| s.delta_dirty.as_slice())
    }

    /// Sender-side channel positions recorded with a slot's newest snapshot.
    pub fn sender_pos(&self, job: JobId, adl_index: usize) -> &[(ChannelKey, u64)] {
        self.slots
            .get(&(job, adl_index))
            .map(|s| s.sender_pos.as_slice())
            .unwrap_or(&[])
    }

    /// Quanta elapsed since a slot's newest snapshot issue (or restore), if
    /// it has one. The kernel skips the periodic snapshot of a PE whose
    /// state was captured less than half a period ago.
    pub fn quanta_since_snapshot(
        &self,
        job: JobId,
        adl_index: usize,
        quanta_now: u64,
    ) -> Option<u64> {
        self.cadence
            .get(&(job, adl_index))
            .map(|last| quanta_now.saturating_sub(*last))
    }

    /// Marks a slot as freshly captured at `quanta_now` without saving
    /// (used on restore: the revived PE equals its snapshot, so an
    /// immediate re-snapshot would be pure overhead).
    pub fn mark_snapshot_quantum(&mut self, job: JobId, adl_index: usize, quanta_now: u64) {
        if let Some(last) = self.cadence.get_mut(&(job, adl_index)) {
            *last = quanta_now;
        }
    }

    /// Drops every snapshot (committed and in-flight) of a cancelled job,
    /// plus its cadence and eviction bookkeeping.
    pub fn forget_job(&mut self, job: JobId) {
        let mut removed = 0usize;
        self.slots.retain(|(j, _), slot| {
            if *j == job {
                removed += slot.chain_bytes;
                false
            } else {
                true
            }
        });
        self.bytes -= removed;
        self.pending.retain(|_, w| w.job != job);
        self.cadence.retain(|(j, _), _| *j != job);
        self.evicted.retain(|(j, _)| *j != job);
    }

    /// Number of PE slots currently holding a snapshot.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Total snapshots ever accepted.
    pub fn saved(&self) -> u64 {
        self.saved
    }

    /// Restores that applied a checkpoint.
    pub fn restored(&self) -> u64 {
        self.restored
    }

    /// Restarts that fell back to fresh state (no/incompatible checkpoint).
    pub fn fallbacks(&self) -> u64 {
        self.fallbacks
    }

    /// Snapshots rejected for being older than the stored head.
    pub fn stale_rejected(&self) -> u64 {
        self.stale_rejected
    }

    /// Snapshots stored incrementally (dirty ops only).
    pub fn deltas_saved(&self) -> u64 {
        self.deltas_saved
    }

    /// Snapshots stored as full bases (first save or compaction).
    pub fn fulls_saved(&self) -> u64 {
        self.fulls_saved
    }

    /// Chain compactions performed.
    pub fn compactions(&self) -> u64 {
        self.compactions
    }

    /// Saves issued through [`Self::begin_save`].
    pub fn issued(&self) -> u64 {
        self.issued
    }

    /// In-flight writes dropped by [`Self::abort_inflight`].
    pub fn aborted(&self) -> u64 {
        self.aborted
    }

    /// Chains reclaimed by the budget.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// High-water mark of `state_bytes()` across the store's lifetime.
    pub fn peak_state_bytes(&self) -> usize {
        self.peak_bytes
    }

    pub(crate) fn count_restore(&mut self) {
        self.restored += 1;
    }

    pub(crate) fn count_fallback(&mut self) {
        self.fallbacks += 1;
    }

    /// Total serialized state bytes currently held across all chains
    /// (observability). O(1): maintained as a running counter on
    /// save/compact/evict/forget.
    pub fn state_bytes(&self) -> usize {
        self.bytes
    }
}

/// Can `next` extend the chain ending at `head` as a delta? Any shape
/// change (which [`crate::kernel`] never produces for a live job, since the
/// ADL is immutable) forces a full snapshot instead.
fn delta_compatible(head: &PeCheckpoint, next: &PeCheckpoint) -> bool {
    head.format_version == next.format_version
        && head.pe_index == next.pe_index
        && head.ops.len() == next.ops.len()
        && head
            .ops
            .iter()
            .zip(&next.ops)
            .all(|(a, b)| a.name == b.name && a.kind == b.kind)
}

/// Which operators of `next` a delta on top of `head` re-stores. The dirty
/// rule: an operator is clean iff its entry equals the head's — name, kind,
/// final tracking and blob bytes. An entry the PE handed out again is the
/// same `Rc` and never reaches the byte compare; one it rebuilt differs
/// from its predecessor, and the compare (length first) leaves at the first
/// differing byte.
fn dirty_ops<'a>(
    head: &'a PeCheckpoint,
    next: &'a PeCheckpoint,
) -> impl Iterator<Item = bool> + 'a {
    head.ops
        .iter()
        .zip(&next.ops)
        .map(|(old, new)| !(Rc::ptr_eq(old, new) || old == new))
}

/// What a delta re-storing the `dirty` operators of `snap` costs: how many
/// operators it re-stores, and the serialized bytes it writes and adds to
/// its chain — their blobs plus every queue.
fn delta_cost(snap: &PeCheckpoint, dirty: impl Iterator<Item = bool>) -> (usize, usize) {
    let (ops, blobs) = snap
        .ops
        .iter()
        .zip(dirty)
        .filter(|(_, dirty)| *dirty)
        .fold((0, 0), |(ops, bytes), (op, _)| {
            (ops + 1, bytes + op.blob.as_ref().map_or(0, StateBlob::len))
        });
    (ops, blobs + snap.queue_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use sps_engine::ckpt::CKPT_FORMAT_VERSION;
    use sps_engine::{OpCheckpoint, StateWriter};

    fn blob(v: i64) -> sps_engine::StateBlob {
        let mut w = StateWriter::new();
        w.put_i64(v);
        w.finish()
    }

    fn ckpt_with(at: u64, state: i64, queued: &[&'static [u8]]) -> PeCheckpoint {
        PeCheckpoint {
            format_version: CKPT_FORMAT_VERSION,
            pe_index: 0,
            taken_at: SimTime::from_secs(at),
            ops: vec![
                Rc::new(OpCheckpoint {
                    name: "agg".into(),
                    kind: "Aggregate".into(),
                    finals_seen: vec![false],
                    blob: Some(blob(state)),
                }),
                Rc::new(OpCheckpoint {
                    name: "snk".into(),
                    kind: "Sink".into(),
                    finals_seen: vec![false],
                    blob: None,
                }),
            ],
            queues: vec![vec![Bytes::from(queued.concat())], vec![Bytes::new()]],
            metrics: vec![],
        }
    }

    fn ckpt(at: u64) -> PeCheckpoint {
        ckpt_with(at, 7, &[])
    }

    fn save(s: &mut CheckpointStore, job: u64, adl: usize, c: PeCheckpoint) -> bool {
        let q = c.taken_at.as_millis() / 100;
        s.save(JobId(job), adl, c, vec![], q)
    }

    /// A store with a finite byte budget (instant writes).
    fn budgeted(budget: usize) -> CheckpointStore {
        CheckpointStore::with_storage(StorageModel::default().with_budget(budget))
    }

    #[test]
    fn save_replaces_and_forget_clears() {
        let mut s = CheckpointStore::new();
        assert!(s.is_empty());
        save(&mut s, 1, 0, ckpt(1));
        save(&mut s, 1, 0, ckpt(2));
        save(&mut s, 1, 1, ckpt(2));
        save(&mut s, 2, 0, ckpt(2));
        assert_eq!(s.len(), 3);
        assert_eq!(s.saved(), 4);
        assert_eq!(
            s.latest(JobId(1), 0).unwrap().taken_at,
            SimTime::from_secs(2)
        );
        s.forget_job(JobId(1));
        assert_eq!(s.len(), 1);
        assert!(s.latest(JobId(1), 0).is_none());
        assert!(s.latest(JobId(2), 0).is_some());
        assert_eq!(s.state_bytes(), 8);
    }

    #[test]
    fn stale_snapshot_is_rejected() {
        let mut s = CheckpointStore::new();
        assert!(save(&mut s, 1, 0, ckpt_with(5, 50, &[])));
        // A snapshot of the pre-restart incarnation arriving late must not
        // roll the slot backwards.
        assert!(!save(&mut s, 1, 0, ckpt_with(3, 30, &[])));
        assert_eq!(s.stale_rejected(), 1);
        assert_eq!(s.saved(), 1);
        let head = s.latest(JobId(1), 0).unwrap();
        assert_eq!(head.taken_at, SimTime::from_secs(5));
        assert_eq!(head.ops[0].blob.as_ref().unwrap(), &blob(50));
        // Same-time saves (restore-time re-marks) still replace.
        assert!(save(&mut s, 1, 0, ckpt_with(5, 55, &[])));
    }

    #[test]
    fn delta_chain_stores_dirty_ops_and_compacts() {
        let full = FULL_EVERY as u64;
        let mut s = CheckpointStore::new();
        save(&mut s, 1, 0, ckpt_with(1, 10, &[b"aa"]));
        assert_eq!((s.fulls_saved(), s.deltas_saved()), (1, 0));
        // Unchanged operator state: the delta re-stores only the queues.
        save(&mut s, 1, 0, ckpt_with(2, 10, &[b"bb", b"cc"]));
        assert_eq!((s.fulls_saved(), s.deltas_saved()), (1, 1));
        assert_eq!(s.deltas(JobId(1), 0).len(), 1);
        assert_eq!(
            s.state_bytes(),
            (8 + 2) + 4,
            "base blob+queue, delta queues only"
        );
        // Dirty operator: its blob rides in the second delta.
        save(&mut s, 1, 0, ckpt_with(3, 30, &[]));
        assert_eq!((s.fulls_saved(), s.deltas_saved()), (1, 2));
        assert_eq!(s.state_bytes(), (8 + 2) + 4 + 8);
        // Fill the chain to FULL_EVERY snapshots (base + 7 deltas): the
        // next save compacts instead of stacking an eighth delta.
        for at in 4..=full {
            save(&mut s, 1, 0, ckpt_with(at, at as i64 * 10, &[]));
        }
        assert_eq!(s.deltas(JobId(1), 0).len(), FULL_EVERY - 1);
        assert_eq!((s.fulls_saved(), s.compactions()), (1, 0));
        save(&mut s, 1, 0, ckpt_with(full + 1, 90, &[]));
        assert_eq!(s.deltas(JobId(1), 0).len(), 0);
        assert_eq!(s.compactions(), 1);
        assert_eq!(s.fulls_saved(), 2);
        assert_eq!(s.state_bytes(), 8);
        assert_eq!(
            s.latest(JobId(1), 0).unwrap().ops[0].blob.as_ref().unwrap(),
            &blob(90)
        );
        // The cycle repeats: fulls land on every FULL_EVERY-th save of the
        // slot (1, 9, 17).
        for at in full + 2..=2 * full {
            save(&mut s, 1, 0, ckpt_with(at, at as i64 * 10, &[]));
        }
        assert_eq!((s.fulls_saved(), s.compactions()), (2, 1));
        save(&mut s, 1, 0, ckpt_with(2 * full + 1, 170, &[]));
        assert_eq!((s.fulls_saved(), s.compactions()), (3, 2));
        assert_eq!(s.deltas(JobId(1), 0).len(), 0);
    }

    #[test]
    fn dirty_rule_is_byte_equality() {
        let mut s = CheckpointStore::new();
        let dirty = |s: &CheckpointStore| s.deltas(JobId(1), 0).to_vec();
        save(&mut s, 1, 0, ckpt_with(1, 10, &[]));
        // The same bytes from a separate writer, behind separate `Rc`s:
        // clean, and the delta stores no blob.
        save(&mut s, 1, 0, ckpt_with(2, 10, &[]));
        assert_eq!(dirty(&s), [0]);
        assert_eq!(s.state_bytes(), 8);
        // One byte changed at equal length: dirty.
        save(&mut s, 1, 0, ckpt_with(3, 11, &[]));
        assert_eq!(dirty(&s), [0, 1]);
        assert_eq!(s.state_bytes(), 16);
        // The very entries of the head again: clean by pointer.
        let mut shared = ckpt_with(4, 0, &[]);
        shared.ops = s.latest(JobId(1), 0).unwrap().ops.clone();
        save(&mut s, 1, 0, shared);
        assert_eq!(dirty(&s), [0, 1, 0]);
        // A blob appearing where there was none is dirty, and so is its
        // disappearing again — even an empty one.
        let mut appeared = ckpt_with(5, 11, &[]);
        Rc::make_mut(&mut appeared.ops[1]).blob = Some(StateWriter::new().finish());
        save(&mut s, 1, 0, appeared);
        assert_eq!(dirty(&s), [0, 1, 0, 1]);
        save(&mut s, 1, 0, ckpt_with(6, 11, &[]));
        assert_eq!(dirty(&s), [0, 1, 0, 1, 1]);
        assert_eq!(s.state_bytes(), 16, "an empty blob weighs nothing");
        // Final tracking is part of the entry.
        let mut finals = ckpt_with(7, 11, &[]);
        Rc::make_mut(&mut finals.ops[1]).finals_seen[0] = true;
        save(&mut s, 1, 0, finals);
        assert_eq!(dirty(&s), [0, 1, 0, 1, 1, 1]);
        assert_eq!((s.fulls_saved(), s.deltas_saved()), (1, 6));
    }

    #[test]
    fn write_size_is_the_delta_it_would_store() {
        // One byte per millisecond: latency reads as bytes.
        let mut s = CheckpointStore::with_storage(StorageModel::default().with_write(0, 1));
        let none = BTreeSet::new();
        let mut now = SimTime::from_secs(1);
        let mut write = |s: &mut CheckpointStore, c: PeCheckpoint| {
            let commit_at = s.begin_save(JobId(1), 0, c, vec![], 0, now);
            let bytes = commit_at.since(now).as_millis();
            now = commit_at;
            assert_eq!(s.poll_commits(now, &none).len(), 1);
            bytes
        };
        // First save: the full snapshot. Then a clean operator pays for its
        // queues only, a dirty one for its blob as well.
        assert_eq!(write(&mut s, ckpt_with(1, 10, &[b"aa"])), 8 + 2);
        assert_eq!(write(&mut s, ckpt_with(2, 10, &[b"bbb"])), 3);
        assert_eq!(write(&mut s, ckpt_with(3, 30, &[b"c"])), 8 + 1);
        for at in 4..=FULL_EVERY as u64 {
            assert_eq!(write(&mut s, ckpt_with(at, 30, &[b"d"])), 1);
        }
        // The chain is full: the next write is a full base, clean or not.
        assert_eq!(write(&mut s, ckpt_with(FULL_EVERY as u64 + 1, 30, &[])), 8);
        assert_eq!(
            (s.fulls_saved(), s.deltas_saved()),
            (2, FULL_EVERY as u64 - 1)
        );
    }

    #[test]
    fn a_slot_keeps_only_its_head() {
        // Three compaction cycles of one slot: the chain is accounted for
        // (its bytes and deltas), but every snapshot behind the head, and
        // every operator entry only they held, is gone, and the head is
        // held by the store alone once the caller lets go of it.
        let mut s = CheckpointStore::new();
        let mut taken = Vec::new();
        for at in 1..=3 * FULL_EVERY as u64 {
            save(&mut s, 1, 0, ckpt_with(at, at as i64 * 10, &[b"zz"]));
            let head = s.restore_candidate(JobId(1), 0).unwrap().ckpt;
            taken.push((Rc::downgrade(&head), Rc::downgrade(&head.ops[0])));
        }
        assert_eq!(s.deltas(JobId(1), 0), [1; FULL_EVERY - 1]);
        assert_eq!(s.state_bytes(), FULL_EVERY * (8 + 2));
        let ((head, head_op), older) = taken.split_last().unwrap();
        for (snap, op) in older {
            assert_eq!((snap.strong_count(), op.strong_count()), (0, 0));
        }
        assert_eq!((head.strong_count(), head_op.strong_count()), (1, 1));
    }

    #[test]
    fn cadence_tracking() {
        let mut s = CheckpointStore::new();
        assert_eq!(s.quanta_since_snapshot(JobId(1), 0, 50), None);
        s.save(JobId(1), 0, ckpt(1), vec![], 10);
        assert_eq!(s.quanta_since_snapshot(JobId(1), 0, 14), Some(4));
        s.mark_snapshot_quantum(JobId(1), 0, 13);
        assert_eq!(s.quanta_since_snapshot(JobId(1), 0, 14), Some(1));
    }

    #[test]
    fn sender_pos_roundtrips() {
        let mut s = CheckpointStore::new();
        let key = ChannelKey::Intra {
            job: JobId(1),
            from: 0,
            to: 1,
            op: "flt".into(),
            port: 0,
        };
        s.save(JobId(1), 0, ckpt(1), vec![(key.clone(), 42)], 10);
        assert_eq!(s.sender_pos(JobId(1), 0), &[(key, 42)]);
        assert!(s.sender_pos(JobId(1), 1).is_empty());
    }

    #[test]
    fn policy_defaults_off() {
        let p = CheckpointPolicy::default();
        assert!(!p.enabled());
        assert!(!p.upstream_backup);
        assert_eq!(p.storage, StorageModel::default());
        let p = CheckpointPolicy::every(10);
        assert!(p.enabled());
        assert_eq!(
            p.period(SimDuration::from_millis(100)),
            SimDuration::from_secs(1)
        );
    }

    #[test]
    fn storage_latency_math() {
        let m = StorageModel {
            write_op_ms: 5,
            write_bytes_per_ms: 4,
            restore_op_ms: 2,
            restore_bytes_per_ms: 0,
            ..Default::default()
        };
        // op cost + ceil(bytes / throughput)
        assert_eq!(m.write_latency(0), SimDuration::from_millis(5));
        assert_eq!(m.write_latency(9), SimDuration::from_millis(5 + 3));
        // infinite throughput: only the op cost
        assert_eq!(m.restore_latency(1 << 20), SimDuration::from_millis(2));
        // defaults are free
        assert_eq!(
            StorageModel::default().write_latency(1 << 20),
            SimDuration::from_millis(0)
        );
    }

    #[test]
    fn async_save_commits_at_write_latency() {
        let mut s = CheckpointStore::with_storage(StorageModel::default().with_write(250, 0));
        let none = BTreeSet::new();
        let t0 = SimTime::from_secs(1);
        let commit_at = s.begin_save(JobId(1), 0, ckpt(1), vec![], 10, t0);
        assert_eq!(commit_at, t0 + SimDuration::from_millis(250));
        assert!(s.write_in_flight(JobId(1), 0));
        // Cadence counts from issue, so the kernel won't re-issue mid-write.
        assert_eq!(s.quanta_since_snapshot(JobId(1), 0, 12), Some(2));
        // Not yet durable: invisible to restores, and polling early is a
        // no-op.
        assert!(s.latest(JobId(1), 0).is_none());
        assert!(s.poll_commits(t0, &none).is_empty());
        assert!(s.has_pending());
        let commits = s.poll_commits(commit_at, &none);
        assert_eq!(commits.len(), 1);
        assert!(commits[0].accepted);
        assert_eq!(commits[0].taken_at, SimTime::from_secs(1));
        assert!(!s.has_pending());
        assert!(s.latest(JobId(1), 0).is_some());
        assert_eq!((s.issued(), s.saved()), (1, 1));
    }

    #[test]
    fn zero_latency_saves_commit_in_issue_order() {
        let mut s = CheckpointStore::new();
        let none = BTreeSet::new();
        let t = SimTime::from_secs(2);
        s.begin_save(JobId(1), 0, ckpt_with(2, 20, &[]), vec![], 20, t);
        s.begin_save(JobId(1), 1, ckpt_with(2, 21, &[]), vec![], 20, t);
        let commits = s.poll_commits(t, &none);
        assert_eq!(commits.len(), 2);
        assert_eq!((commits[0].job, commits[0].adl_index), (JobId(1), 0));
        assert_eq!((commits[1].job, commits[1].adl_index), (JobId(1), 1));
        assert!(commits.iter().all(|c| c.accepted));
    }

    #[test]
    fn abort_inflight_drops_pending_writes() {
        let mut s = CheckpointStore::with_storage(StorageModel::default().with_write(100, 0));
        let t = SimTime::from_secs(1);
        s.begin_save(JobId(1), 0, ckpt(1), vec![], 10, t);
        s.begin_save(JobId(1), 1, ckpt(1), vec![], 10, t);
        assert_eq!(s.abort_inflight(JobId(1), 0), 1);
        assert!(!s.write_in_flight(JobId(1), 0));
        assert!(s.write_in_flight(JobId(1), 1));
        assert_eq!(s.aborted(), 1);
        let commits = s.poll_commits(SimTime::from_secs(5), &BTreeSet::new());
        assert_eq!(commits.len(), 1);
        assert_eq!(commits[0].adl_index, 1);
    }

    #[test]
    fn eviction_reclaims_oldest_unprotected_chain() {
        // Two slots, 8 bytes each; budget fits only one.
        let mut s = budgeted(12);
        save(&mut s, 1, 0, ckpt_with(1, 10, &[]));
        save(&mut s, 1, 1, ckpt_with(2, 20, &[]));
        assert_eq!(s.state_bytes(), 16);
        s.enforce_budget(&BTreeSet::new());
        // Oldest chain (slot 0, taken at t=1) goes first.
        assert!(s.latest(JobId(1), 0).is_none());
        assert!(s.latest(JobId(1), 1).is_some());
        assert!(s.was_evicted(JobId(1), 0));
        assert!(!s.was_evicted(JobId(1), 1));
        assert_eq!(s.evictions(), 1);
        assert!(s.state_bytes() <= 12);
        assert_eq!(s.peak_state_bytes(), 16);
    }

    #[test]
    fn eviction_never_claims_protected_live_chain() {
        let mut s = budgeted(4);
        save(&mut s, 1, 0, ckpt_with(1, 10, &[]));
        save(&mut s, 1, 1, ckpt_with(2, 20, &[]));
        let protected: BTreeSet<_> = [(JobId(1), 0), (JobId(1), 1)].into_iter().collect();
        s.enforce_budget(&protected);
        // Both slots protected: over budget, but neither chain is evicted.
        assert!(s.latest(JobId(1), 0).is_some());
        assert!(s.latest(JobId(1), 1).is_some());
        assert_eq!(s.evictions(), 0);
        assert!(s.state_bytes() > 4);
    }

    #[test]
    fn compaction_keeps_one_generation_under_any_budget() {
        // Unbounded and finite alike, saves 9 and 17 compact and the old
        // chain goes with them: the slot stores one base and reads back
        // its head.
        let full = FULL_EVERY as u64;
        for mut s in [CheckpointStore::new(), budgeted(1 << 20)] {
            for at in 1..=2 * full + 1 {
                save(&mut s, 1, 0, ckpt_with(at, at as i64 * 10, &[]));
            }
            assert_eq!(s.compactions(), 2);
            assert_eq!(s.state_bytes(), 8);
            let head = s.restore_candidate(JobId(1), 0).unwrap();
            assert_eq!(head.ckpt.taken_at, SimTime::from_secs(2 * full + 1));
            assert_eq!(head.read_bytes, 8);
        }
    }

    #[test]
    fn forget_job_clears_pending_and_tombstones() {
        let mut s = budgeted(8);
        save(&mut s, 1, 0, ckpt_with(1, 10, &[]));
        save(&mut s, 1, 1, ckpt_with(2, 20, &[]));
        s.enforce_budget(&BTreeSet::new());
        assert!(s.was_evicted(JobId(1), 0));
        s.begin_save(
            JobId(1),
            1,
            ckpt_with(3, 30, &[]),
            vec![],
            30,
            SimTime::from_secs(3),
        );
        s.forget_job(JobId(1));
        assert!(!s.has_pending());
        assert!(!s.was_evicted(JobId(1), 0));
        assert_eq!(s.quanta_since_snapshot(JobId(1), 1, 40), None);
        assert_eq!(s.state_bytes(), 0);
    }
}
