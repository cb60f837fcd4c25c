//! Operator-state checkpointing.
//!
//! The paper's Trend Calculator deliberately runs *without* checkpointing
//! (§5.2) and pays for it with a window-refill gap after every PE restart.
//! This module supplies the missing mechanism: stateful operators serialize
//! their state into a [`StateBlob`] through [`Operator::checkpoint`], and a
//! whole PE container snapshots into a versioned, digest-protected
//! [`PeCheckpoint`] the runtime's checkpoint store can persist and later
//! replay through [`crate::pe::PeRuntime::restore`].
//!
//! Blobs use a tiny self-delimiting binary format written via
//! [`StateWriter`] and read back via [`StateReader`]; tuples reuse the
//! inter-PE wire codec so there is exactly one serialization of a tuple in
//! the system. Encoding is canonical (no maps with unstable order, no
//! wall-clock input), which is what makes restore *verifiable*: restoring a
//! checkpoint into a fresh container and re-checkpointing it must reproduce
//! the identical digest.
//!
//! Canonical bytes are also the *dirty rule* of incremental snapshots: an
//! operator changed since the previous snapshot iff its blob's bytes did.
//! Nothing hashes a blob. A [`PeCheckpoint`] holds its operator entries
//! behind `Arc`s, and [`crate::pe::PeRuntime::checkpoint`] hands the previous
//! entry out again while an operator's bytes stay the same, so an unchanged
//! operator costs one byte compare in the PE and a pointer compare in the
//! store, and allocates nothing.
//!
//! The compare does not make the encode free, and for a ring operator the
//! encode was most of it. So a [`crate::ops::Sink`] re-encodes only what
//! arrived since its last blob: it copies the records of the tuples still
//! in its ring from that blob, and with nothing new it returns that blob
//! itself, whose compare then stops at the pointer. The bytes are the full
//! encoding's either way, so the dirty rule does not change. A restore never
//! seeds that memo: the re-checkpoint that verifies a restore encodes the
//! restored state, not the blob it was restored from.
//!
//! [`Operator::checkpoint`]: crate::op::Operator::checkpoint

use crate::error::EngineError;
use crate::metrics::MetricKey;
use crate::tuple::Tuple;
use crate::{codec, op::StreamItem};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use sps_sim::{fnv1a, SimDuration, SimRng, SimTime, FNV_OFFSET};
use std::cell::Cell;
use std::sync::Arc;

/// Checkpoint wire-format version; bumped on incompatible layout changes.
/// [`crate::pe::PeRuntime::restore`] rejects any other version, which the
/// runtime treats as "fall back to fresh state".
///
/// v2: snapshots capture per-port input queues (encoded stream items), so a
/// restore revives in-flight tuples instead of dropping them.
pub const CKPT_FORMAT_VERSION: u32 = 2;

/// Opaque serialized operator state. A blob is its bytes and nothing else:
/// two blobs are equal iff their bytes are, which is the whole dirty check
/// of an incremental snapshot. The compare stops early both ways: at the
/// pointer and length, when an operator hands its previous blob back, and
/// at the first differing byte.
#[derive(Clone, Debug, Default)]
pub struct StateBlob {
    bytes: Bytes,
}

impl PartialEq for StateBlob {
    fn eq(&self, other: &Self) -> bool {
        std::ptr::eq(self.bytes(), other.bytes()) || self.bytes == other.bytes
    }
}

impl Eq for StateBlob {}

impl StateBlob {
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }
}

thread_local! {
    /// Capacity the next [`StateWriter`] on this thread starts with; see
    /// [`with_capacity_hint`].
    static CAPACITY_HINT: Cell<usize> = const { Cell::new(0) };
}

/// Runs `f` — one [`Operator::checkpoint`] call — with the first
/// [`StateWriter`] it creates sized for `prev_len` bytes plus an eighth, so a
/// blob about as long as the operator's previous one is written without
/// growing the buffer on the way. [`Operator::checkpoint`] takes no
/// arguments, which is why the size travels beside the call instead of
/// through it; it decides capacity only, never a byte of the blob.
///
/// [`Operator::checkpoint`]: crate::op::Operator::checkpoint
pub(crate) fn with_capacity_hint<R>(prev_len: usize, f: impl FnOnce() -> R) -> R {
    CAPACITY_HINT.set(prev_len + prev_len / 8);
    let out = f();
    CAPACITY_HINT.set(0);
    out
}

/// Canonical little-endian writer for operator state.
pub struct StateWriter {
    buf: BytesMut,
}

impl Default for StateWriter {
    fn default() -> Self {
        StateWriter {
            buf: BytesMut::with_capacity(CAPACITY_HINT.take()),
        }
    }
}

impl StateWriter {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn finish(self) -> StateBlob {
        StateBlob {
            bytes: self.buf.freeze(),
        }
    }

    pub fn put_u8(&mut self, v: u8) {
        self.buf.put_u8(v);
    }

    pub fn put_u32(&mut self, v: u32) {
        self.buf.put_u32_le(v);
    }

    pub fn put_u64(&mut self, v: u64) {
        self.buf.put_u64_le(v);
    }

    pub fn put_i64(&mut self, v: i64) {
        self.buf.put_i64_le(v);
    }

    pub fn put_f64(&mut self, v: f64) {
        self.buf.put_f64_le(v);
    }

    pub fn put_bool(&mut self, v: bool) {
        self.buf.put_u8(v as u8);
    }

    pub fn put_str(&mut self, s: &str) {
        self.buf.put_u32_le(s.len() as u32);
        self.buf.put_slice(s.as_bytes());
    }

    pub fn put_time(&mut self, t: SimTime) {
        self.put_u64(t.as_millis());
    }

    /// Serializes a deterministic RNG so a restored operator continues the
    /// exact same random stream.
    pub fn put_rng(&mut self, rng: &SimRng) {
        for s in rng.state() {
            self.put_u64(s);
        }
    }

    pub fn put_duration(&mut self, d: SimDuration) {
        self.put_u64(d.as_millis());
    }

    /// `Option<T>` via a presence byte.
    pub fn put_opt<T>(&mut self, v: &Option<T>, mut f: impl FnMut(&mut Self, &T)) {
        match v {
            None => self.put_bool(false),
            Some(inner) => {
                self.put_bool(true);
                f(self, inner);
            }
        }
    }

    /// Appends bytes an earlier writer produced, as they are: no length
    /// prefix, no re-encoding.
    pub(crate) fn put_slice(&mut self, bytes: &[u8]) {
        self.buf.put_slice(bytes);
    }

    /// Serializes a tuple with the inter-PE wire codec.
    pub fn put_tuple(&mut self, t: &Tuple) {
        // Reuse the full stream-item encoding (tag + tuple body) so blobs
        // and transport share one definition of a tuple's bytes — written
        // straight into the blob, the length prefix filled in afterwards.
        let at = self.buf.len();
        self.buf.put_u32_le(0);
        codec::encode_tuple_item(t, &mut self.buf);
        let frame_len = (self.buf.len() - at - 4) as u32;
        self.buf[at..at + 4].copy_from_slice(&frame_len.to_le_bytes());
    }
}

/// Reader mirroring [`StateWriter`]; every accessor fails cleanly on
/// truncated or malformed input (a bad blob must never panic the runtime).
pub struct StateReader {
    buf: Bytes,
    /// Schema carry across this blob's tuples: a restored window of N
    /// same-shape tuples shares one schema, as a port's deliveries do.
    tuples: codec::PortDecoder,
}

impl StateReader {
    pub fn new(blob: &StateBlob) -> Self {
        StateReader {
            buf: blob.bytes.clone(),
            tuples: codec::PortDecoder::new(),
        }
    }

    fn need(&self, n: usize) -> Result<(), EngineError> {
        if self.buf.remaining() < n {
            Err(EngineError::Checkpoint(format!(
                "truncated state blob: need {n} bytes, have {}",
                self.buf.remaining()
            )))
        } else {
            Ok(())
        }
    }

    /// True once every byte has been consumed (restore sanity check).
    pub fn is_exhausted(&self) -> bool {
        !self.buf.has_remaining()
    }

    pub fn get_u8(&mut self) -> Result<u8, EngineError> {
        self.need(1)?;
        Ok(self.buf.get_u8())
    }

    pub fn get_u32(&mut self) -> Result<u32, EngineError> {
        self.need(4)?;
        Ok(self.buf.get_u32_le())
    }

    pub fn get_u64(&mut self) -> Result<u64, EngineError> {
        self.need(8)?;
        Ok(self.buf.get_u64_le())
    }

    pub fn get_i64(&mut self) -> Result<i64, EngineError> {
        self.need(8)?;
        Ok(self.buf.get_i64_le())
    }

    pub fn get_f64(&mut self) -> Result<f64, EngineError> {
        self.need(8)?;
        Ok(self.buf.get_f64_le())
    }

    pub fn get_bool(&mut self) -> Result<bool, EngineError> {
        Ok(self.get_u8()? != 0)
    }

    pub fn get_str(&mut self) -> Result<String, EngineError> {
        let len = self.get_u32()? as usize;
        self.need(len)?;
        let bytes = self.buf.copy_to_bytes(len);
        String::from_utf8(bytes.to_vec())
            .map_err(|_| EngineError::Checkpoint("state string is not utf-8".into()))
    }

    pub fn get_time(&mut self) -> Result<SimTime, EngineError> {
        Ok(SimTime::from_millis(self.get_u64()?))
    }

    /// Reads back a generator written by [`StateWriter::put_rng`].
    pub fn get_rng(&mut self) -> Result<SimRng, EngineError> {
        let mut s = [0u64; 4];
        for slot in &mut s {
            *slot = self.get_u64()?;
        }
        Ok(SimRng::from_state(s))
    }

    pub fn get_duration(&mut self) -> Result<SimDuration, EngineError> {
        Ok(SimDuration::from_millis(self.get_u64()?))
    }

    pub fn get_opt<T>(
        &mut self,
        mut f: impl FnMut(&mut Self) -> Result<T, EngineError>,
    ) -> Result<Option<T>, EngineError> {
        if self.get_bool()? {
            Ok(Some(f(self)?))
        } else {
            Ok(None)
        }
    }

    pub fn get_tuple(&mut self) -> Result<Tuple, EngineError> {
        let len = self.get_u32()? as usize;
        self.need(len)?;
        let item = self.tuples.decode_item(&self.buf[..len])?;
        self.buf.advance(len);
        match item {
            StreamItem::Tuple(t) => Ok(t),
            other => Err(EngineError::Checkpoint(format!(
                "expected tuple in state blob, found {other:?}"
            ))),
        }
    }
}

/// Checkpoint of one operator slot inside a PE container. Immutable once
/// built: snapshots, the store's chains and the PE itself share one entry
/// behind an `Arc` for as long as the operator does not change.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OpCheckpoint {
    /// Operator instance name (ADL identity; restore matches on it).
    pub name: Arc<str>,
    /// Operator kind (a kind change means the blob is meaningless).
    pub kind: Arc<str>,
    /// Container-side per-input-port final-punctuation tracking.
    pub finals_seen: Vec<bool>,
    /// Serialized operator state; `None` for stateless operators.
    pub blob: Option<StateBlob>,
}

/// A complete, versioned snapshot of one PE's recoverable state: every
/// operator slot (in container order), the per-port input queues, and the
/// PE's metric store. Since format v2 the queues *are* captured (encoded
/// with the inter-PE wire codec), so a restore revives in-flight tuples
/// that were queued at snapshot time; tuples delivered *after* the snapshot
/// are the upstream-backup replay buffer's job.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PeCheckpoint {
    pub format_version: u32,
    /// ADL PE index this snapshot belongs to.
    pub pe_index: usize,
    /// Simulation time the snapshot was taken.
    pub taken_at: SimTime,
    /// One entry per operator slot, in container order. An entry that is
    /// the same `Arc` as in an earlier snapshot is an unchanged operator.
    pub ops: Vec<Arc<OpCheckpoint>>,
    /// Input queues at snapshot time: `[op slot][input port]` → one blob per
    /// port in wire encoding at batch granularity (runs of consecutive
    /// tuples coalesced into batch frames, punctuation as bare item frames —
    /// see [`crate::codec::encode_queue`]). Outer arity mirrors `ops`.
    pub queues: Vec<Vec<Bytes>>,
    /// Metric snapshot, restored wholesale so monotone counters
    /// (`nTuplesProcessed`, custom metrics) stay continuous across restarts.
    /// Keys are the store's interned `Arc`s — snapshotting bumps refcounts
    /// instead of cloning every name string.
    pub metrics: Vec<(Arc<MetricKey>, i64)>,
}

impl PeCheckpoint {
    /// Content digest over everything *except* `taken_at`, so that
    /// checkpoint → restore → re-checkpoint reproduces the same digest even
    /// though the re-checkpoint happens later. The runtime uses this to
    /// self-verify every restore.
    pub fn digest(&self) -> u64 {
        let mut h = fnv1a(FNV_OFFSET, &self.format_version.to_le_bytes());
        h = fnv1a(h, &(self.pe_index as u64).to_le_bytes());
        for op in &self.ops {
            h = fnv1a(h, op.name.as_bytes());
            h = fnv1a(h, op.kind.as_bytes());
            for &seen in &op.finals_seen {
                h = fnv1a(h, &[seen as u8]);
            }
            match &op.blob {
                None => h = fnv1a(h, &[0]),
                Some(blob) => {
                    h = fnv1a(h, &[1]);
                    h = fnv1a(h, &(blob.len() as u64).to_le_bytes());
                    h = fnv1a(h, blob.bytes());
                }
            }
        }
        for op_queues in &self.queues {
            h = fnv1a(h, &(op_queues.len() as u64).to_le_bytes());
            for blob in op_queues {
                h = fnv1a(h, &(blob.len() as u64).to_le_bytes());
                h = fnv1a(h, blob);
            }
        }
        for (key, value) in &self.metrics {
            // Hash the key's components directly: no per-entry allocation,
            // and the digest stays independent of Debug formatting.
            match key.as_ref() {
                MetricKey::Operator(op, m) => {
                    h = fnv1a(h, &[0]);
                    h = fnv1a(h, op.as_bytes());
                    h = fnv1a(h, &[0xFF]);
                    h = fnv1a(h, m.as_bytes());
                }
                MetricKey::OperatorPort(op, port, m) => {
                    h = fnv1a(h, &[1]);
                    h = fnv1a(h, op.as_bytes());
                    h = fnv1a(h, &(*port as u64).to_le_bytes());
                    h = fnv1a(h, m.as_bytes());
                }
                MetricKey::Pe(pe, m) => {
                    h = fnv1a(h, &[2]);
                    h = fnv1a(h, &(*pe as u64).to_le_bytes());
                    h = fnv1a(h, m.as_bytes());
                }
            }
            h = fnv1a(h, &value.to_le_bytes());
        }
        h
    }

    /// Total serialized state bytes across all operators plus the captured
    /// input queues (observability).
    pub fn state_bytes(&self) -> usize {
        let blobs: usize = self
            .ops
            .iter()
            .filter_map(|o| o.blob.as_ref().map(StateBlob::len))
            .sum();
        blobs + self.queue_bytes()
    }

    /// Serialized bytes held in the captured input queues.
    pub fn queue_bytes(&self) -> usize {
        self.queues
            .iter()
            .flat_map(|op| op.iter())
            .map(Bytes::len)
            .sum()
    }

    /// Number of operators that contributed a state blob.
    pub fn stateful_ops(&self) -> usize {
        self.ops.iter().filter(|o| o.blob.is_some()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::rc::Rc;

    #[test]
    fn writer_reader_roundtrip_all_types() {
        let mut w = StateWriter::new();
        w.put_u8(7);
        w.put_u32(1234);
        w.put_u64(u64::MAX);
        w.put_i64(-42);
        w.put_f64(2.75);
        w.put_bool(true);
        w.put_str("hello ✓");
        w.put_time(SimTime::from_millis(500));
        w.put_duration(SimDuration::from_secs(3));
        w.put_opt(&Some(9i64), |w, v| w.put_i64(*v));
        w.put_opt(&None::<i64>, |w, v| w.put_i64(*v));
        w.put_tuple(&Tuple::new().with("a", 1i64).with("s", "x"));
        let blob = w.finish();

        let mut r = StateReader::new(&blob);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_u32().unwrap(), 1234);
        assert_eq!(r.get_u64().unwrap(), u64::MAX);
        assert_eq!(r.get_i64().unwrap(), -42);
        assert_eq!(r.get_f64().unwrap(), 2.75);
        assert!(r.get_bool().unwrap());
        assert_eq!(r.get_str().unwrap(), "hello ✓");
        assert_eq!(r.get_time().unwrap(), SimTime::from_millis(500));
        assert_eq!(r.get_duration().unwrap(), SimDuration::from_secs(3));
        assert_eq!(r.get_opt(|r| r.get_i64()).unwrap(), Some(9));
        assert_eq!(r.get_opt(|r| r.get_i64()).unwrap(), None);
        let t = r.get_tuple().unwrap();
        assert_eq!(t.get_int("a"), Some(1));
        assert!(r.is_exhausted());
    }

    #[test]
    fn truncated_blob_errors_cleanly() {
        let mut w = StateWriter::new();
        w.put_str("abcdef");
        let blob = w.finish();
        // Cut the blob short: every accessor must error, never panic.
        let cut = StateBlob {
            bytes: blob.bytes.slice(0..blob.len() - 2),
        };
        let mut r = StateReader::new(&cut);
        assert!(r.get_str().is_err());
        let mut r2 = StateReader::new(&StateBlob::default());
        assert!(r2.get_u64().is_err());
    }

    fn sample_ckpt() -> PeCheckpoint {
        let mut w = StateWriter::new();
        w.put_i64(5);
        PeCheckpoint {
            format_version: CKPT_FORMAT_VERSION,
            pe_index: 2,
            taken_at: SimTime::from_secs(9),
            ops: vec![
                Arc::new(OpCheckpoint {
                    name: "src".into(),
                    kind: "Beacon".into(),
                    finals_seen: vec![false],
                    blob: Some(w.finish()),
                }),
                Arc::new(OpCheckpoint {
                    name: "flt".into(),
                    kind: "Filter".into(),
                    finals_seen: vec![true],
                    blob: None,
                }),
            ],
            queues: vec![vec![Bytes::new()], vec![Bytes::from_static(b"abcd")]],
            metrics: vec![(Arc::new(MetricKey::Operator("src".into(), "n".into())), 3)],
        }
    }

    #[test]
    fn digest_ignores_taken_at_but_covers_content() {
        let a = sample_ckpt();
        let mut b = a.clone();
        b.taken_at = SimTime::from_secs(99);
        assert_eq!(a.digest(), b.digest(), "taken_at must not affect digest");

        let mut c = a.clone();
        Arc::make_mut(&mut c.ops[0]).blob = None; // a lossy restore drops exactly this
        assert_ne!(a.digest(), c.digest(), "dropped blob must change digest");

        let mut d = a.clone();
        d.metrics[0].1 += 1;
        assert_ne!(a.digest(), d.digest());

        let mut e = a.clone();
        Arc::make_mut(&mut e.ops[1]).finals_seen[0] = false;
        assert_ne!(a.digest(), e.digest());

        let mut f = a.clone();
        f.queues[1][0] = Bytes::new(); // dropped in-flight tuples must change digest
        assert_ne!(a.digest(), f.digest());
    }

    #[test]
    fn state_accounting() {
        let c = sample_ckpt();
        assert_eq!(c.stateful_ops(), 1);
        assert_eq!(c.queue_bytes(), 4);
        assert_eq!(c.state_bytes(), 12);
    }

    fn blob_of(v: i64, tail: &[u8]) -> StateBlob {
        let mut w = StateWriter::new();
        w.put_i64(v);
        for &b in tail {
            w.put_u8(b);
        }
        w.finish()
    }

    #[test]
    fn blob_equality_is_content_equality() {
        // Two writers, two allocations, the same bytes: clean.
        assert_eq!(blob_of(5, b"tail"), blob_of(5, b"tail"));
        // One allocation handed out twice: clean at the pointer.
        let shared = blob_of(5, b"tail");
        assert_eq!(shared.clone(), shared);
        // One byte changed at equal length — first, middle or last: dirty.
        assert_ne!(blob_of(5, b"tail"), blob_of(6, b"tail"));
        assert_ne!(blob_of(5, b"tail"), blob_of(5, b"tall"));
        assert_ne!(blob_of(5, b"tail"), blob_of(5, b"taiL"));
        // A prefix is not its extension.
        assert_ne!(blob_of(5, b"tail"), blob_of(5, b"tails"));
        assert_eq!(StateBlob::default(), StateWriter::new().finish());
        // Absent state and empty state are different things.
        assert_ne!(None, Some(StateBlob::default()));
    }

    #[test]
    fn capacity_hint_sizes_one_writer_and_never_changes_bytes() {
        let plain = blob_of(7, b"abc");
        let hinted = with_capacity_hint(4096, || {
            let first = StateWriter::new();
            assert!(first.buf.capacity() >= 4096);
            // Only the first writer of the call takes the hint.
            assert!(StateWriter::new().buf.capacity() < 4096);
            drop(first);
            blob_of(7, b"abc")
        });
        assert_eq!(plain, hinted);
        // Nothing lingers for a writer created outside the scope.
        with_capacity_hint(4096, || ());
        assert!(StateWriter::new().buf.capacity() < 4096);
    }

    #[test]
    fn reader_shares_one_schema_across_a_blob() {
        let mut w = StateWriter::new();
        w.put_u32(3);
        for i in 0..3i64 {
            w.put_tuple(&Tuple::new().with("a", i).with("s", "x"));
        }
        // A shape change mid-blob, then the first shape again.
        w.put_tuple(&Tuple::new().with("a", 9i64).with("z", 1.5));
        w.put_tuple(&Tuple::new().with("a", 10i64).with("s", "y"));
        let blob = w.finish();

        let mut r = StateReader::new(&blob);
        assert_eq!(r.get_u32().unwrap(), 3);
        let same: Vec<Tuple> = (0..3).map(|_| r.get_tuple().unwrap()).collect();
        assert!(Rc::ptr_eq(same[0].schema(), same[1].schema()));
        assert!(Rc::ptr_eq(same[1].schema(), same[2].schema()));
        let changed = r.get_tuple().unwrap();
        let back = r.get_tuple().unwrap();
        assert!(r.is_exhausted());
        // What a tuple decodes to never depends on the carry.
        assert_eq!(changed, Tuple::new().with("a", 9i64).with("z", 1.5));
        assert_eq!(back, Tuple::new().with("a", 10i64).with("s", "y"));
        for (i, t) in same.iter().enumerate() {
            assert_eq!(*t, Tuple::new().with("a", i as i64).with("s", "x"));
        }

        // Every strict prefix of the blob fails somewhere, never panics.
        for cut in 0..blob.len() {
            let cut = StateBlob {
                bytes: blob.bytes.slice(0..cut),
            };
            let mut r = StateReader::new(&cut);
            let read = r
                .get_u32()
                .and_then(|_| (0..5).try_for_each(|_| r.get_tuple().map(drop)));
            assert!(read.is_err());
        }
    }
}
