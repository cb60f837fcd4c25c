//! Dynamic stream import/export broker (§2.1) and the sender-side
//! upstream-backup buffers for exactly-once recovery.
//!
//! When both an exporting and an importing application are running, the
//! runtime automatically connects them; connections form and dissolve as
//! jobs come and go — the substrate for incremental deployment and the §5.3
//! dynamic-composition use case.
//!
//! [`UpstreamBackup`] implements the classic upstream-backup design from
//! the rollback-recovery literature the paper builds on: every delivery to
//! a checkpointable PE is also retained in a per-receiver buffer, trimmed
//! when a checkpoint commits (the snapshot now covers those tuples), and
//! replayed into the restored PE after a crash. Per-channel position
//! counters with high-water marks suppress the duplicates a deterministic
//! replay re-emits downstream, which is what turns checkpoint-based
//! at-most-once recovery into exactly-once.

use crate::ids::JobId;
use sps_engine::{EngineError, PeRuntime, RemoteDelivery, StreamItem};
use sps_model::logical::{ExportSpec, ImportSpec};
use sps_sim::SimTime;
use std::collections::BTreeMap;
use std::sync::Arc;

/// A registered export endpoint.
#[derive(Clone, Debug)]
struct ExportReg {
    job: JobId,
    app_name: String,
    op: Arc<str>,
    port: usize,
    spec: ExportSpec,
}

/// A registered import endpoint.
#[derive(Clone, Debug)]
struct ImportReg {
    job: JobId,
    op: Arc<str>,
    spec: ImportSpec,
}

/// An importing endpoint an exported item is routed to: `(job, operator)`.
pub type ImportTarget = (JobId, Arc<str>);

/// Matches exported streams to import subscriptions across running jobs.
#[derive(Default)]
pub struct Broker {
    exports: Vec<ExportReg>,
    imports: Vec<ImportReg>,
    /// Cached resolution: (export job, port) → op → [(import job, import
    /// op)]. The operator name is the inner key so that routing an item
    /// looks it up by `&str`; the names are shared with the registrations.
    routes: BTreeMap<(JobId, usize), BTreeMap<Arc<str>, Vec<ImportTarget>>>,
}

impl Broker {
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a job's imports and exports at submission time.
    pub fn register_job(
        &mut self,
        job: JobId,
        app_name: &str,
        exports: impl IntoIterator<Item = (String, usize, ExportSpec)>,
        imports: impl IntoIterator<Item = (String, ImportSpec)>,
    ) {
        for (op, port, spec) in exports {
            self.exports.push(ExportReg {
                job,
                app_name: app_name.to_string(),
                op: op.into(),
                port,
                spec,
            });
        }
        for (op, spec) in imports {
            self.imports.push(ImportReg {
                job,
                op: op.into(),
                spec,
            });
        }
        self.rebuild_routes();
    }

    /// Unregisters everything belonging to a cancelled job.
    pub fn unregister_job(&mut self, job: JobId) {
        self.exports.retain(|e| e.job != job);
        self.imports.retain(|i| i.job != job);
        self.rebuild_routes();
    }

    fn rebuild_routes(&mut self) {
        self.routes.clear();
        for export in &self.exports {
            let targets: Vec<ImportTarget> = self
                .imports
                .iter()
                .filter(|imp| {
                    // A job never imports its own export through the broker
                    // (that would be a static stream).
                    imp.job != export.job && imp.spec.matches(&export.spec, &export.app_name)
                })
                .map(|imp| (imp.job, Arc::clone(&imp.op)))
                .collect();
            if !targets.is_empty() {
                self.routes
                    .entry((export.job, export.port))
                    .or_default()
                    .insert(Arc::clone(&export.op), targets);
            }
        }
    }

    /// Destinations for an item emitted on an exported port:
    /// `(importing job, importing operator)` pairs.
    pub fn route(&self, job: JobId, op: &str, port: usize) -> &[ImportTarget] {
        self.routes
            .get(&(job, port))
            .and_then(|by_op| by_op.get(op))
            .map_or(&[], Vec::as_slice)
    }

    /// Current number of live cross-job connections.
    pub fn num_connections(&self) -> usize {
        self.routes
            .values()
            .flat_map(BTreeMap::values)
            .map(Vec::len)
            .sum()
    }
}

// ---- upstream backup -------------------------------------------------------

/// Identity of one logical stream channel crossing the kernel, from the
/// sender's `(job, ADL PE index)` — the identity that survives restarts —
/// to a receiving operator port.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum ChannelKey {
    /// Intra-job PE-to-PE stream.
    Intra {
        job: JobId,
        from: usize,
        to: usize,
        op: Arc<str>,
        port: usize,
    },
    /// Cross-job export, resolved by the broker to an importing operator.
    Export {
        from_job: JobId,
        from: usize,
        op: Arc<str>,
        port: usize,
        to_job: JobId,
        to_op: Arc<str>,
    },
}

impl ChannelKey {
    /// The sending PE slot, for checkpoint-time position snapshots.
    pub fn sender(&self) -> (JobId, usize) {
        match self {
            ChannelKey::Intra { job, from, .. } => (*job, *from),
            ChannelKey::Export { from_job, from, .. } => (*from_job, *from),
        }
    }

    /// Jobs this channel touches (for cancellation cleanup).
    fn touches_job(&self, job: JobId) -> bool {
        match self {
            ChannelKey::Intra { job: j, .. } => *j == job,
            ChannelKey::Export {
                from_job, to_job, ..
            } => *from_job == job || *to_job == job,
        }
    }
}

/// One buffered delivery, replayable into a restored receiver.
#[derive(Clone, Debug)]
pub enum BackupItem {
    /// An intra-job delivery as it was delivered (replayed via `receive`, so
    /// byte-accounting metrics match the original delivery): the frame —
    /// possibly a whole batch — shares its rows with the receiver's queue
    /// and whoever else holds them, so buffering costs pointers, not copies.
    Remote(RemoteDelivery),
    /// A cross-job import (replayed via `inject` on the importing operator).
    Import { op: Arc<str>, item: StreamItem },
}

impl BackupItem {
    /// Tuples (or punctuations) this delivery carries. A batch frame
    /// counts every tuple, keeping the upstream-backup counters
    /// tuple-granular regardless of how the transport frames them.
    pub fn items(&self) -> u64 {
        match self {
            BackupItem::Remote(d) => d.items() as u64,
            BackupItem::Import { .. } => 1,
        }
    }

    /// Hands the delivery to the receiving container, the way it first
    /// arrived: `receive` for a remote frame, `inject` for an import.
    pub fn deliver_to(self, runtime: &mut PeRuntime) -> Result<(), EngineError> {
        match self {
            BackupItem::Remote(d) => runtime.receive(d),
            BackupItem::Import { op, item } => runtime.inject(&op, 0, item),
        }
    }
}

/// A buffered delivery plus the quantum it originally landed in; replay
/// re-injects it at the same point of the receiver's re-executed grid.
#[derive(Clone, Debug)]
pub struct BackupEntry {
    pub delivered_at: SimTime,
    pub item: BackupItem,
}

/// Upstream-backup counters surfaced through the campaign's `--timing`
/// line and CI summaries.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct UbStats {
    /// Deliveries retained in receiver buffers.
    pub buffered: u64,
    /// Buffered deliveries re-injected into restored PEs.
    pub replayed: u64,
    /// Duplicate re-emissions suppressed by channel high-water marks.
    pub suppressed: u64,
    /// Buffered deliveries acked away by checkpoint commits.
    pub trimmed: u64,
    /// Peak simultaneous buffered deliveries across all receivers.
    pub peak_buffered: u64,
}

impl UbStats {
    pub fn any(&self) -> bool {
        *self != UbStats::default()
    }

    /// Fold for campaign aggregation: counters add, the peak maxes.
    pub fn absorb(&mut self, other: &UbStats) {
        self.buffered += other.buffered;
        self.replayed += other.replayed;
        self.suppressed += other.suppressed;
        self.trimmed += other.trimmed;
        self.peak_buffered = self.peak_buffered.max(other.peak_buffered);
    }
}

/// One channel's emission counters. Every emission advances `pos`; an
/// emission whose position is at or below the high-water mark `hwm` is a
/// replay duplicate of something the channel already carried and is
/// suppressed outright. `pos` is `None` until the channel's first emission
/// and again after a rollback to a snapshot that predates the channel: it
/// then counts from zero, and no snapshot records it.
#[derive(Default)]
struct Channel {
    pos: Option<u64>,
    hwm: u64,
}

/// Sender-side output buffering with duplicate suppression.
///
/// Two cooperating maps:
/// - `channels`: per-channel emission counters ([`Channel`]), one search
///   per delivery. On checkpoint restore the kernel rolls the *sender's*
///   positions back to the snapshot ([`rollback_sender`]) so the restored
///   PE's deterministic re-execution walks `pos` back up through the
///   already-delivered range; `hwm` never rolls back.
/// - `buffers`: per-receiver `(job, ADL index)` retained deliveries, in
///   delivery order, trimmed on checkpoint commit.
///
/// [`rollback_sender`]: UpstreamBackup::rollback_sender
#[derive(Default)]
pub struct UpstreamBackup {
    channels: BTreeMap<ChannelKey, Channel>,
    buffers: BTreeMap<(JobId, usize), Vec<BackupEntry>>,
    current: u64,
    stats: UbStats,
}

impl UpstreamBackup {
    pub fn new() -> Self {
        Self::default()
    }

    /// Advances a channel's position for one emission. Returns `true` when
    /// the emission is a duplicate (position at or below the high-water
    /// mark) and must be suppressed — not delivered, not re-buffered.
    pub fn advance(&mut self, key: &ChannelKey) -> bool {
        self.advance_n(key, 1) == 1
    }

    /// Advances a channel's position for a delivery carrying `n` tuples (a
    /// batch frame) and returns how many of them — always a prefix of the
    /// run — duplicate traffic the channel already carried (`n` means the
    /// whole delivery is suppressed). Positions and the suppressed counter
    /// stay tuple-granular. A replayed run can *straddle* the high-water
    /// mark: re-execution after restore starts from checkpointed queues,
    /// so its quantum schedule batches the same tuple sequence at
    /// different boundaries than the crashed incarnation did. The caller
    /// must drop exactly the duplicated prefix and deliver the tail.
    pub fn advance_n(&mut self, key: &ChannelKey, n: u64) -> u64 {
        // Look up before `entry`: a key (two `Arc<str>`) is cloned only for
        // a channel's first emission.
        let channel = match self.channels.get_mut(key) {
            Some(channel) => channel,
            None => self.channels.entry(key.clone()).or_default(),
        };
        let before = channel.pos.unwrap_or(0);
        let after = before + n;
        channel.pos = Some(after);
        let dup = if after <= channel.hwm {
            n
        } else {
            channel.hwm.saturating_sub(before)
        };
        self.stats.suppressed += dup;
        channel.hwm = channel.hwm.max(after);
        dup
    }

    /// Retains one delivery for a receiver slot until a checkpoint covers
    /// it. Counters advance by the delivery's tuple count.
    pub fn buffer(&mut self, slot: (JobId, usize), delivered_at: SimTime, item: BackupItem) {
        let n = item.items();
        self.buffers
            .entry(slot)
            .or_default()
            .push(BackupEntry { delivered_at, item });
        self.stats.buffered += n;
        self.current += n;
        self.stats.peak_buffered = self.stats.peak_buffered.max(self.current);
    }

    /// The retained deliveries for a receiver slot, in delivery order.
    pub fn replay_entries(&self, slot: (JobId, usize)) -> Vec<BackupEntry> {
        self.buffers.get(&slot).cloned().unwrap_or_default()
    }

    /// Acks every buffered delivery at or before `upto` for a receiver
    /// slot: the checkpoint taken at `upto` captured their effects.
    pub fn trim(&mut self, slot: (JobId, usize), upto: SimTime) {
        let Some(buf) = self.buffers.get_mut(&slot) else {
            return;
        };
        // `buffer` appends at the kernel's clock, so the acked entries are
        // a prefix.
        debug_assert!(buf.is_sorted_by_key(|e| e.delivered_at));
        let acked = buf.partition_point(|e| e.delivered_at <= upto);
        let removed: u64 = buf.drain(..acked).map(|e| e.item.items()).sum();
        self.stats.trimmed += removed;
        self.current -= removed;
        if buf.is_empty() {
            self.buffers.remove(&slot);
        }
    }

    /// Drops a receiver's buffer entirely (fresh restart: nothing to replay
    /// into, and the new incarnation re-accumulates from scratch).
    pub fn drop_receiver(&mut self, slot: (JobId, usize)) {
        if let Some(buf) = self.buffers.remove(&slot) {
            self.current -= buf.iter().map(|e| e.item.items()).sum::<u64>();
        }
    }

    /// Snapshot of a sender's channel positions, stored alongside its
    /// checkpoint so a restore can roll the counters back in lockstep.
    pub fn sender_snapshot(&self, job: JobId, adl_index: usize) -> Vec<(ChannelKey, u64)> {
        self.channels
            .iter()
            .filter(|(k, _)| k.sender() == (job, adl_index))
            .filter_map(|(k, channel)| Some((k.clone(), channel.pos?)))
            .collect()
    }

    /// Rolls a sender's channel positions back to a checkpoint-time
    /// snapshot. Channels the sender created *after* the snapshot lose
    /// their positions outright — leaving them at their crash-time
    /// positions would let replay re-emissions sail past the high-water
    /// marks as apparent new traffic. High-water marks are deliberately
    /// untouched.
    pub fn rollback_sender(
        &mut self,
        job: JobId,
        adl_index: usize,
        snapshot: &[(ChannelKey, u64)],
    ) {
        for (k, channel) in &mut self.channels {
            if k.sender() == (job, adl_index) {
                channel.pos = None;
            }
        }
        for (k, v) in snapshot {
            self.channels.entry(k.clone()).or_default().pos = Some(*v);
        }
    }

    /// Counts replayed deliveries (the kernel re-injects them itself).
    pub fn count_replayed(&mut self, n: u64) {
        self.stats.replayed += n;
    }

    /// Drops all channel state and buffers touching a cancelled job.
    pub fn forget_job(&mut self, job: JobId) {
        self.channels.retain(|k, _| !k.touches_job(job));
        let mut removed = 0u64;
        self.buffers.retain(|(j, _), buf| {
            if *j == job {
                removed += buf.iter().map(|e| e.item.items()).sum::<u64>();
                false
            } else {
                true
            }
        });
        self.current -= removed;
    }

    /// Deliveries currently buffered across all receivers.
    pub fn buffered_now(&self) -> u64 {
        self.current
    }

    pub fn stats(&self) -> UbStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn by_id_export(id: &str) -> ExportSpec {
        ExportSpec::by_id(id)
    }

    #[test]
    fn id_matching_connects_jobs() {
        let mut b = Broker::new();
        b.register_job(
            JobId(1),
            "Producer",
            vec![("out".into(), 0, by_id_export("feed"))],
            vec![],
        );
        assert_eq!(b.num_connections(), 0);
        b.register_job(
            JobId(2),
            "Consumer",
            vec![],
            vec![("in".into(), ImportSpec::by_id("feed"))],
        );
        assert_eq!(b.num_connections(), 1);
        assert_eq!(b.route(JobId(1), "out", 0), &[(JobId(2), "in".into())]);
        assert!(b.route(JobId(1), "out", 1).is_empty());
    }

    #[test]
    fn property_subscription_matching() {
        let mut b = Broker::new();
        b.register_job(
            JobId(1),
            "P",
            vec![(
                "out".into(),
                0,
                ExportSpec::default()
                    .with_property("topic", "profiles")
                    .with_property("source", "twitter"),
            )],
            vec![],
        );
        b.register_job(
            JobId(2),
            "C1",
            vec![],
            vec![(
                "in".into(),
                ImportSpec::default().subscribe("topic", "profiles"),
            )],
        );
        b.register_job(
            JobId(3),
            "C2",
            vec![],
            vec![(
                "in".into(),
                ImportSpec::default().subscribe("topic", "other"),
            )],
        );
        let routes = b.route(JobId(1), "out", 0);
        assert_eq!(routes, &[(JobId(2), "in".into())]);
    }

    #[test]
    fn late_exporter_connects_to_existing_importer() {
        let mut b = Broker::new();
        b.register_job(
            JobId(2),
            "C",
            vec![],
            vec![("in".into(), ImportSpec::by_id("feed"))],
        );
        assert_eq!(b.num_connections(), 0);
        b.register_job(
            JobId(5),
            "P",
            vec![("out".into(), 0, by_id_export("feed"))],
            vec![],
        );
        assert_eq!(b.route(JobId(5), "out", 0).len(), 1);
    }

    #[test]
    fn cancellation_dissolves_connections() {
        let mut b = Broker::new();
        b.register_job(
            JobId(1),
            "P",
            vec![("out".into(), 0, by_id_export("feed"))],
            vec![],
        );
        b.register_job(
            JobId(2),
            "C",
            vec![],
            vec![("in".into(), ImportSpec::by_id("feed"))],
        );
        assert_eq!(b.num_connections(), 1);
        b.unregister_job(JobId(2));
        assert_eq!(b.num_connections(), 0);
    }

    #[test]
    fn no_self_import() {
        let mut b = Broker::new();
        b.register_job(
            JobId(1),
            "SelfLoop",
            vec![("out".into(), 0, by_id_export("x"))],
            vec![("in".into(), ImportSpec::by_id("x"))],
        );
        assert_eq!(b.num_connections(), 0);
    }

    #[test]
    fn one_export_fans_out_to_many_importers() {
        let mut b = Broker::new();
        b.register_job(
            JobId(1),
            "P",
            vec![("out".into(), 0, by_id_export("feed"))],
            vec![],
        );
        for j in 2..5 {
            b.register_job(
                JobId(j),
                "C",
                vec![],
                vec![("in".into(), ImportSpec::by_id("feed"))],
            );
        }
        assert_eq!(b.route(JobId(1), "out", 0).len(), 3);
    }

    #[test]
    fn app_filter_restricts_source() {
        let mut b = Broker::new();
        b.register_job(
            JobId(1),
            "AppA",
            vec![("o".into(), 0, by_id_export("s"))],
            vec![],
        );
        b.register_job(
            JobId(2),
            "AppB",
            vec![("o".into(), 0, by_id_export("s"))],
            vec![],
        );
        b.register_job(
            JobId(3),
            "C",
            vec![],
            vec![("in".into(), ImportSpec::by_id("s").from_app("AppA"))],
        );
        assert_eq!(b.route(JobId(1), "o", 0).len(), 1);
        assert!(b.route(JobId(2), "o", 0).is_empty());
    }

    fn chan(job: u64, from: usize, to: usize) -> ChannelKey {
        ChannelKey::Intra {
            job: JobId(job),
            from,
            to,
            op: "flt".into(),
            port: 0,
        }
    }

    fn entry(at: u64) -> (SimTime, BackupItem) {
        (
            SimTime::from_millis(at),
            BackupItem::Import {
                op: "in".into(),
                item: StreamItem::Punct(sps_engine::Punct::Final),
            },
        )
    }

    #[test]
    fn hwm_suppresses_replayed_range_only() {
        let mut ub = UpstreamBackup::new();
        let key = chan(1, 0, 1);
        for _ in 0..3 {
            assert!(!ub.advance(&key), "first pass is all-new traffic");
        }
        // Sender restores to a snapshot taken after the first emission.
        let snap = ub.sender_snapshot(JobId(1), 0);
        assert_eq!(snap, vec![(key.clone(), 3)]);
        ub.rollback_sender(JobId(1), 0, &[(key.clone(), 1)]);
        assert!(ub.advance(&key), "pos 2 replays an already-seen emission");
        assert!(ub.advance(&key), "pos 3 likewise");
        assert!(!ub.advance(&key), "pos 4 is genuinely new");
        assert_eq!(ub.stats().suppressed, 2);
    }

    #[test]
    fn rollback_removes_post_snapshot_channels() {
        let mut ub = UpstreamBackup::new();
        let old = chan(1, 0, 1);
        let new = chan(1, 0, 2);
        ub.advance(&old);
        let snap = ub.sender_snapshot(JobId(1), 0);
        ub.advance(&new); // channel born after the snapshot
        ub.rollback_sender(JobId(1), 0, &snap);
        // The post-snapshot channel has no position, so no snapshot taken
        // now records it…
        assert_eq!(ub.sender_snapshot(JobId(1), 0), snap);
        // …and its replay re-emission counts from zero: pos 1 <= hwm 1 is
        // suppressed.
        assert!(ub.advance(&new));
    }

    #[test]
    fn buffer_trim_and_drop_track_counts() {
        let mut ub = UpstreamBackup::new();
        let slot = (JobId(1), 1);
        for at in [100, 200, 300] {
            let (t, item) = entry(at);
            ub.buffer(slot, t, item);
        }
        assert_eq!(ub.buffered_now(), 3);
        assert_eq!(ub.replay_entries(slot).len(), 3);
        ub.trim(slot, SimTime::from_millis(200));
        assert_eq!(ub.buffered_now(), 1);
        assert_eq!(ub.stats().trimmed, 2);
        assert_eq!(
            ub.replay_entries(slot)[0].delivered_at,
            SimTime::from_millis(300)
        );
        ub.drop_receiver(slot);
        assert_eq!(ub.buffered_now(), 0);
        assert_eq!(ub.stats().peak_buffered, 3);
    }

    /// Trim-boundary regression: a tuple delivered at exactly the snapshot
    /// instant is *inside* the v2 checkpoint (kernel snapshots run after
    /// transport, so the captured input queues include that quantum's
    /// deliveries). It must therefore be acked by the commit — trimmed
    /// exactly once, absent from any later replay — and never double-count
    /// as both restored-queue state and a replay suppression.
    #[test]
    fn trim_acks_equal_timestamp_delivery_exactly_once() {
        let mut ub = UpstreamBackup::new();
        let slot = (JobId(1), 1);
        let taken_at = SimTime::from_millis(500);
        for at in [400, 500, 600] {
            let (t, item) = entry(at);
            ub.buffer(slot, t, item);
        }
        ub.trim(slot, taken_at);
        // The == taken_at entry went with the <= boundary…
        assert_eq!(ub.stats().trimmed, 2);
        let rest = ub.replay_entries(slot);
        assert_eq!(rest.len(), 1);
        assert_eq!(rest[0].delivered_at, SimTime::from_millis(600));
        // …and a second commit at the same instant does not re-count it.
        ub.trim(slot, taken_at);
        assert_eq!(ub.stats().trimmed, 2);
        assert_eq!(ub.buffered_now(), 1);
    }

    #[test]
    fn forget_job_clears_channels_and_buffers() {
        let mut ub = UpstreamBackup::new();
        ub.advance(&chan(1, 0, 1));
        ub.advance(&chan(2, 0, 1));
        let (t, item) = entry(100);
        ub.buffer((JobId(1), 1), t, item);
        ub.forget_job(JobId(1));
        assert_eq!(ub.buffered_now(), 0);
        assert!(ub.sender_snapshot(JobId(1), 0).is_empty());
        assert_eq!(ub.sender_snapshot(JobId(2), 0).len(), 1);
    }
}
