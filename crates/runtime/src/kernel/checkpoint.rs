//! The checkpoint phases of the quantum: issue on the policy's cadence,
//! commit what the storage model has finished writing.

use super::Kernel;
use crate::cluster::Host;
use std::collections::BTreeSet;

impl Kernel {
    /// Periodic checkpointing: every `every_quanta` ticks, snapshot each
    /// live PE whose operators all opted in. A PE that crashed this very
    /// quantum is already `Crashed` and keeps its previous snapshot —
    /// exactly the state a subsequent restart should revive. Snapshots run
    /// *after* transport, so the captured input queues include this
    /// quantum's deliveries — which is what lets the checkpoint commit ack
    /// (trim) every buffered delivery up to `taken_at`. Issue only: a
    /// snapshot becomes durable — and acks the upstream-backup gap — at
    /// commit time.
    pub(super) fn issue_checkpoints(&mut self) {
        let policy = &self.config.checkpoint;
        if !policy.enabled() {
            return;
        }
        let quanta_elapsed = self.now.as_millis() / self.config.quantum.as_millis();
        if !quanta_elapsed.is_multiple_of(policy.every_quanta as u64) {
            return;
        }
        let half_period = (policy.every_quanta / 2) as u64;
        for proc in self.cluster.live().filter(|p| p.checkpointable) {
            let slot = (proc.job, proc.adl_index);
            // Per-PE cadence: a slot captured (or restored) less than half
            // a period ago skips this boundary — a PE revived just before
            // the tick would otherwise be re-snapshotted immediately for no
            // recovery gain.
            if self
                .ckpt
                .quanta_since_snapshot(slot.0, slot.1, quanta_elapsed)
                .is_some_and(|since| since < half_period)
            {
                continue;
            }
            self.ckpt.begin_save(
                slot.0,
                slot.1,
                proc.runtime.checkpoint(self.now),
                self.transport.sender_snapshot(slot),
                quanta_elapsed,
                self.now,
            );
        }
    }

    /// Commits every in-flight write whose latency elapsed (with the
    /// default zero-latency model that is this quantum's issues, in issue
    /// order). Upstream-backup trimming fires here, on durable *commit*,
    /// never at issue — an in-flight snapshot must not trim tuples it has
    /// not yet covered.
    pub(super) fn commit_checkpoints(&mut self) {
        if !self.ckpt.has_pending() {
            return;
        }
        // PE slots whose chain budget eviction must never reclaim: every
        // checkpointable PE that is `Up` (it may need to restore at any
        // moment) or `Starting` (it restored from that chain, and its replay
        // has not run yet), on an up host. Slots of crashed PEs are
        // deliberately *not* protected — losing a dead PE's chain to the
        // budget is exactly the recovery cost the storage model exists to
        // expose.
        let mut protected = BTreeSet::new();
        if self.ckpt.storage().budget_bytes > 0 {
            let up_hosts = self.cluster.hosts().iter().filter(|h| h.up);
            let live = up_hosts.flat_map(Host::live_processes);
            let restorable = live.filter(|p| p.checkpointable);
            protected.extend(restorable.map(|p| (p.job, p.adl_index)));
        }
        for commit in self.ckpt.poll_commits(self.now, &protected) {
            if commit.accepted {
                // The commit lands in the metastore's checkpoint index too,
                // so a recovered SAM can prove which commits it knew about.
                // The snapshot chain itself stays authoritative in the
                // CheckpointStore.
                self.sam
                    .record_ckpt_commit(commit.job, commit.adl_index, commit.taken_at);
                self.transport
                    .ack((commit.job, commit.adl_index), commit.taken_at);
            }
        }
    }
}
