//! Moving what PEs emit: intra-job deliveries, cross-job export routing,
//! and — when upstream backup is on — the exactly-once machinery around
//! them (duplicate suppression, receiver-side buffering, gap replay into
//! checkpoint-restored PEs).

use super::Kernel;
use crate::{BackupEntry, BackupItem, ChannelKey, CrashReason, JobId, PeId, PeProcess, PeStatus};
use crate::{RestoreCandidate, UbStats, UpstreamBackup};
use sps_engine::codec::Frame;
use sps_engine::pe::ExportedItem;
use sps_engine::{EngineError, RemoteDelivery};
use sps_sim::SimTime;
use std::collections::BTreeMap;
use std::sync::Arc;

/// What one restored PE replays at promotion: its id and slot, the snapshot
/// time it rewound to, and the deliveries buffered for it since.
type Replay = (PeId, JobId, usize, SimTime, Vec<BackupEntry>);

/// The kernel's transport state. Whether upstream backup runs is decided
/// once, when the kernel is built: `backup` is `None` when it is off, and
/// every method below then buffers nothing and counts nothing.
pub(super) struct Transport {
    /// Sender-side output buffers + duplicate suppression.
    pub(super) backup: Option<UpstreamBackup>,
    /// Checkpoint-restored PEs awaiting their replay at promotion time,
    /// keyed by the replacement PE id → snapshot time the restore rewound
    /// to. Consumed when the PE is promoted `Starting` → `Up`.
    pending_replay: BTreeMap<PeId, SimTime>,
}

impl Transport {
    pub(super) fn new(upstream_backup: bool) -> Self {
        Transport {
            backup: upstream_backup.then(UpstreamBackup::new),
            pending_replay: BTreeMap::new(),
        }
    }

    pub(super) fn stats(&self) -> UbStats {
        self.backup
            .as_ref()
            .map(UpstreamBackup::stats)
            .unwrap_or_default()
    }

    /// One emission on channel `key` — callers name the channel only when
    /// there are books to keep on it — to the receiver `proc` (slot `to`).
    /// With upstream backup on, the emission first advances its channel's
    /// position counter: what lies at or below the high-water mark
    /// duplicates traffic the channel already carried and is suppressed — a
    /// replayed run can straddle the mark, and then only its tail goes
    /// through. What is left is retained for a checkpointable receiver
    /// until a checkpoint commit acks it. A receiver that is not `Up`
    /// misses the delivery — but when buffered, its restored incarnation
    /// replays it.
    pub(super) fn deliver(
        &mut self,
        key: Option<&ChannelKey>,
        to: (JobId, usize),
        proc: &mut PeProcess,
        mut item: BackupItem,
        now: SimTime,
    ) -> Result<(), EngineError> {
        if let (Some(backup), Some(key)) = (&mut self.backup, key) {
            let items = item.items();
            let dup = backup.advance_n(key, items);
            if dup == items {
                return Ok(());
            }
            // Only a batch carries more than one item, so only a batch
            // can straddle the mark.
            if let BackupItem::Remote(d) = &mut item {
                if let Frame::Batch(batch) = &mut d.frame {
                    batch.drop_front(dup as usize);
                }
            }
            if proc.checkpointable {
                backup.buffer(to, now, item.clone());
            }
        }
        if proc.status == PeStatus::Up {
            item.deliver_to(&mut proc.runtime)?;
        }
        Ok(())
    }

    /// Sender-side channel positions to store with a checkpoint of `slot`.
    pub(super) fn sender_snapshot(&self, slot: (JobId, usize)) -> Vec<(ChannelKey, u64)> {
        let snapshot = |b: &UpstreamBackup| b.sender_snapshot(slot.0, slot.1);
        self.backup.as_ref().map(snapshot).unwrap_or_default()
    }

    /// A checkpoint of `slot` taken at `taken_at` committed: it covers every
    /// delivery at or before that instant, so the buffered gap is acked.
    pub(super) fn ack(&mut self, slot: (JobId, usize), taken_at: SimTime) {
        if let Some(backup) = &mut self.backup {
            backup.trim(slot, taken_at);
        }
    }

    /// Bookkeeping for replacing `old_pe` by `new_pe` in `slot`, seeded from
    /// the chain head `from` (fresh state if `None`). Returns
    /// whether a gap replay is now pending for `new_pe`.
    pub(super) fn restarted(
        &mut self,
        old_pe: PeId,
        new_pe: PeId,
        slot: (JobId, usize),
        from: Option<&RestoreCandidate>,
    ) -> bool {
        self.pending_replay.remove(&old_pe);
        match (&mut self.backup, from) {
            (Some(backup), Some(from)) => {
                // Roll the sender-side duplicate-suppression counters back
                // in lockstep with the restored state, so the deterministic
                // replay walks the already-delivered range back up under
                // the high-water marks instead of past them.
                backup.rollback_sender(slot.0, slot.1, &from.sender_pos);
                // Replay the buffered gap once the process finishes
                // spawning (`Starting` → `Up`), not before: a replay into a
                // process that dies mid-spawn must be re-runnable.
                self.pending_replay.insert(new_pe, from.ckpt.taken_at);
                true
            }
            // Fresh state: the buffered gap assumes the checkpoint base and
            // is meaningless to replay into a blank container.
            (Some(backup), None) => {
                backup.drop_receiver(slot);
                false
            }
            (None, _) => false,
        }
    }

    /// Drops a cancelled job's channels, buffers and pending replays.
    pub(super) fn forget_job(&mut self, job: JobId, pes: &[PeId]) {
        for pe in pes {
            self.pending_replay.remove(pe);
        }
        if let Some(backup) = &mut self.backup {
            backup.forget_job(job);
        }
    }
}

impl Kernel {
    /// Delivers one intra-job remote delivery to the PE its destination
    /// names.
    pub(super) fn transport_remote(
        &mut self,
        job: JobId,
        from_adl: usize,
        delivery: RemoteDelivery,
    ) {
        let to_adl = delivery.dest.pe;
        let Some(proc) = self.sam.job(job).and_then(|info| {
            let target_pe = info.pe_ids.get(to_adl)?;
            self.cluster.process_mut(*target_pe)
        }) else {
            return;
        };
        let key = self.transport.backup.as_ref().map(|_| ChannelKey::Intra {
            job,
            from: from_adl,
            to: to_adl,
            op: delivery.dest.op.clone(),
            port: delivery.dest.port,
        });
        let item = BackupItem::Remote(delivery);
        if let Err(e) = self
            .transport
            .deliver(key.as_ref(), (job, to_adl), proc, item, self.now)
        {
            self.note("transport", format!("delivery failed: {e}"));
        }
    }

    /// Routes what one PE exported during a step to every matching
    /// importer (each `(exporter, importer)` pair is its own channel). A
    /// run of consecutive items from one exported port resolves each
    /// importer once and hands it the whole run: an importer still sees its
    /// items in emission order, and nothing orders one importer's channel
    /// against another's.
    pub(super) fn transport_export(&mut self, job: JobId, from_adl: usize, items: &[ExportedItem]) {
        for run in items.chunk_by(|a, b| a.port == b.port && a.op == b.op) {
            let (op, port) = (&run[0].op, run[0].port);
            for (target_job, import_op) in self.broker.route(job, op, port) {
                let target_job = *target_job;
                let Some((to_adl, proc)) = self.sam.job(target_job).and_then(|info| {
                    let to_adl = info.adl.operator(import_op)?.pe;
                    let target_pe = info.pe_ids.get(to_adl)?;
                    Some((to_adl, self.cluster.process_mut(*target_pe)?))
                }) else {
                    continue;
                };
                let key = self.transport.backup.as_ref().map(|_| ChannelKey::Export {
                    from_job: job,
                    from: from_adl,
                    op: Arc::clone(op),
                    port,
                    to_job: target_job,
                    to_op: Arc::clone(import_op),
                });
                for item in run {
                    // No books are kept: spare the item the wrapping they
                    // would need (an `Arc` bump per item, 4 % of a social
                    // plan) and hand it straight over.
                    if key.is_none() {
                        if proc.status == PeStatus::Up {
                            let _ = proc.runtime.inject(import_op, 0, item.item.clone());
                        }
                        continue;
                    }
                    let item = BackupItem::Import {
                        op: Arc::clone(import_op),
                        item: item.item.clone(),
                    };
                    let to = (target_job, to_adl);
                    let _ = self
                        .transport
                        .deliver(key.as_ref(), to, proc, item, self.now);
                }
            }
        }
    }

    /// Replays the upstream-backup gap into the checkpoint-restored PEs
    /// among this quantum's promotions. Buffers are snapshotted for *all* of
    /// them before any replay runs: an emission one replay forwards to a
    /// fellow restored PE this same quantum is delivered directly (it is
    /// already `Up`) and must not also appear in that PE's replayed gap.
    pub(super) fn run_replays(&mut self, promoted: Vec<(PeId, JobId, usize)>) {
        let Some(backup) = &self.transport.backup else {
            return;
        };
        let mut replays: Vec<Replay> = promoted
            .into_iter()
            .filter_map(|(pe, job, adl_index)| {
                let from = self.transport.pending_replay.remove(&pe)?;
                let entries = backup.replay_entries((job, adl_index));
                Some((pe, job, adl_index, from, entries))
            })
            .collect();
        // Upstream slots replay first, so a downstream replica re-executing
        // the same quantum sees deterministic channel-counter evolution.
        replays.sort_by_key(|&(pe, job, adl_index, _, _)| (job, adl_index, pe));
        for replay in replays {
            self.replay_gap(replay);
        }
    }

    /// Re-executes one restored PE through every grid quantum between its
    /// snapshot (`from`) and now, injecting the buffered deliveries at
    /// their original delivery quanta between steps. Deterministic
    /// re-execution reproduces the fault-free internal state; re-emissions
    /// the old incarnation already delivered downstream are suppressed by
    /// the channel high-water marks, while emissions the crash swallowed
    /// are delivered — late, but exactly once.
    fn replay_gap(&mut self, (pe, job, adl_index, from, entries): Replay) {
        let (now, quantum, budget) = (self.now, self.config.quantum, self.config.pe_budget);
        let Some(proc) = self.cluster.process_mut(pe) else {
            return;
        };
        // Entries at or before the snapshot are already part of the
        // restored state (the commit trims them, but be defensive).
        let mut entries = entries
            .into_iter()
            .skip_while(|e| e.delivered_at <= from)
            .peekable();
        let mut outs = Vec::new();
        let mut crashed: Option<String> = None;
        let mut injected = 0u64;
        let mut g = from + quantum;
        while g < now && crashed.is_none() {
            let mut out = proc.runtime.step(g, quantum, budget);
            if let Some(msg) = out.crashed.take() {
                crashed = Some(msg);
            }
            outs.push(out);
            while let Some(entry) = entries.next_if(|e| e.delivered_at <= g) {
                injected += entry.item.items();
                let _ = entry.item.deliver_to(&mut proc.runtime);
            }
            g += quantum;
        }
        if crashed.is_some() {
            self.cluster.set_status(pe, PeStatus::Crashed);
        }
        if let Some(backup) = &mut self.transport.backup {
            backup.count_replayed(injected);
        }
        self.note(
            "ckpt",
            format!(
                "PE {pe} (job {job} slot {adl_index}) replayed {} quanta, \
                 {injected} buffered deliveries",
                outs.len()
            ),
        );
        for out in outs {
            for d in out.remote {
                self.transport_remote(job, adl_index, d);
            }
            self.transport_export(job, adl_index, &out.exported);
        }
        if let Some(msg) = crashed {
            self.note("srm", format!("PE {pe} crashed during replay: {msg}"));
            self.notify_pe_failure(pe, CrashReason::OperatorFault(msg));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::sink_adl;
    use super::*;
    use crate::Cluster;
    use sps_engine::{OperatorRegistry, PeRuntime, StreamItem, Tuple};
    use sps_sim::SimRng;

    const SLOT: (JobId, usize) = (JobId(1), 0);

    /// A checkpointable, `Up` sink process — the receiver that upstream
    /// backup would buffer for.
    fn sink_process() -> PeProcess {
        let adl = sink_adl();
        let registry = OperatorRegistry::with_builtins();
        PeProcess {
            pe_id: PeId(1),
            job: SLOT.0,
            adl_index: SLOT.1,
            checkpointable: true,
            status: PeStatus::Up,
            up_at: SimTime::ZERO,
            runtime: PeRuntime::build(&adl, SLOT.1, &registry, SimRng::new(1)).unwrap(),
        }
    }

    fn send(transport: &mut Transport, proc: &mut PeProcess, seq: i64) {
        let key = ChannelKey::Export {
            from_job: JobId(2),
            from: 0,
            op: "out".into(),
            port: 0,
            to_job: SLOT.0,
            to_op: "snk".into(),
        };
        let item = BackupItem::Import {
            op: "snk".into(),
            item: StreamItem::Tuple(Tuple::new().with("seq", seq)),
        };
        let now = SimTime::from_millis(100);
        let key = transport.backup.as_ref().map(|_| key);
        transport
            .deliver(key.as_ref(), SLOT, proc, item, now)
            .unwrap();
    }

    fn delivered(proc: &mut PeProcess) -> usize {
        let quantum = sps_sim::SimDuration::from_millis(100);
        proc.runtime
            .step(SimTime::from_millis(200), quantum, 10_000);
        proc.runtime.tap("snk").unwrap().len()
    }

    #[test]
    fn without_backup_transport_delivers_and_keeps_no_books() {
        let mut transport = Transport::new(false);
        let mut proc = sink_process();
        for seq in 0..3 {
            send(&mut transport, &mut proc, seq);
        }
        assert_eq!(delivered(&mut proc), 3);
        assert!(transport.backup.is_none());
        assert_eq!(transport.stats(), UbStats::default());
        assert!(transport.sender_snapshot((JobId(2), 0)).is_empty());
        // Nothing was buffered, so there is nothing to ack, roll back or replay.
        transport.ack(SLOT, SimTime::from_millis(100));
        assert!(!transport.restarted(PeId(1), PeId(2), SLOT, None));
        assert_eq!(transport.stats(), UbStats::default());
    }

    /// The same traffic with backup on, as the reference for the test above:
    /// every delivery is counted and buffered, and a receiver that is not
    /// `Up` misses it but keeps it buffered.
    #[test]
    fn with_backup_transport_buffers_for_a_checkpointable_receiver() {
        let mut transport = Transport::new(true);
        let mut proc = sink_process();
        send(&mut transport, &mut proc, 0);
        proc.status = PeStatus::Crashed;
        send(&mut transport, &mut proc, 1);
        proc.status = PeStatus::Up;
        assert_eq!(delivered(&mut proc), 1);
        assert_eq!(transport.stats().buffered, 2);
        assert_eq!(transport.sender_snapshot((JobId(2), 0)).len(), 1);
        transport.ack(SLOT, SimTime::from_millis(100));
        assert_eq!(transport.stats().trimmed, 2);
    }

    #[test]
    fn upstream_backup_is_decided_once_when_the_kernel_is_built() {
        let kernel = |policy| {
            let config = crate::RuntimeConfig {
                checkpoint: policy,
                ..Default::default()
            };
            Kernel::new(
                Cluster::with_hosts(1),
                OperatorRegistry::with_builtins(),
                config,
            )
        };
        let on = crate::CheckpointPolicy::every(5).upstream_backup(true);
        assert!(kernel(on).upstream_backup_enabled());
        // Backup without checkpoints has nothing to replay from.
        let off = crate::CheckpointPolicy::default().upstream_backup(true);
        assert!(!kernel(off).upstream_backup_enabled());
        assert!(!kernel(crate::CheckpointPolicy::every(5)).upstream_backup_enabled());
    }
}
