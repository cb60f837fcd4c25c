//! Binary tuple codec: the wire format, wherever bytes are stored or sized.
//!
//! PEs are separate operating-system processes in System S, so a tuple
//! crossing a PE boundary is serialized there. The simulator's PEs share one
//! address space and nothing reads a transport payload, so the transport
//! moves [`Frame`]s — the tuples themselves — and the codec keeps the jobs
//! where bytes matter: operator state blobs (`StateWriter::put_tuple`),
//! checkpoint-v2 queue captures ([`encode_queue`] / [`decode_queue`]) and
//! the pinned wire format (`tests/golden_bytes.rs`). A frame and its
//! encoding stay interchangeable — `decode_frame(encode(frame)) == frame`
//! is a property test over everything a PE emits.
//!
//! Wire format (little-endian):
//! ```text
//! u8  item tag: 0 = tuple, 1 = window punct, 2 = final punct, 3 = batch
//! u16 attr count                      (tuple only)
//! per attr:
//!   u16 name len, name bytes
//!   u8  value tag, payload
//! batch frame (tag 3): u32 tuple count, then that many tuple frames
//! ```
//!
//! The wire carries every tuple's names; memory does not. Decoding checks
//! each name's bytes against a *carried* [`Schema`] — the one the previous
//! tuple decoded to — and on a match the new tuple shares it, so the names
//! of a steady stream are allocated once. A [`PortDecoder`] keeps that
//! schema across frames (one per state blob being restored); the
//! free `decode*` functions carry it for the length of one call. A schema
//! built from wire names stands alone: no memo leads to it, so it dies with
//! the decoder's carry and the tuples that share it, and a corrupt or
//! hostile frame cannot grow a cache.

use crate::error::EngineError;
use crate::op::{Punct, StreamItem, TupleBatch};
use crate::tuple::{Name, Schema, Tuple};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use sps_model::Value;
use std::rc::Rc;

const TAG_TUPLE: u8 = 0;
const TAG_WINDOW_PUNCT: u8 = 1;
const TAG_FINAL_PUNCT: u8 = 2;
const TAG_BATCH: u8 = 3;

const VTAG_INT: u8 = 0;
const VTAG_FLOAT: u8 = 1;
const VTAG_STR: u8 = 2;
const VTAG_BOOL: u8 = 3;
const VTAG_TIMESTAMP: u8 = 4;
const VTAG_LIST: u8 = 5;

/// Encodes a stream item into a standalone buffer.
pub fn encode(item: &StreamItem) -> Bytes {
    let mut buf = BytesMut::with_capacity(64);
    encode_into(item, &mut buf);
    buf.freeze()
}

/// Appends the wire encoding of `item` to `buf` — the reusable-buffer
/// variant of [`encode`] for hot paths that amortize one scratch buffer
/// across many encodes (checkpoint writers, benchmarks).
pub fn encode_into(item: &StreamItem, buf: &mut BytesMut) {
    match item {
        StreamItem::Tuple(t) => encode_tuple_item(t, buf),
        StreamItem::Punct(Punct::Window) => buf.put_u8(TAG_WINDOW_PUNCT),
        StreamItem::Punct(Punct::Final) => buf.put_u8(TAG_FINAL_PUNCT),
    }
}

/// Appends the full stream-item encoding (tag + body) of a borrowed tuple.
/// Byte-identical to `encode(&StreamItem::Tuple(t.clone()))` without the
/// tuple clone — the checkpoint path serializes window contents through
/// this, so snapshots never deep-copy tuples just to encode them.
pub fn encode_tuple_item(t: &Tuple, buf: &mut BytesMut) {
    buf.put_u8(TAG_TUPLE);
    encode_tuple(t, buf);
}

/// Appends a batch frame: `TAG_BATCH`, a tuple count, then each tuple's
/// ordinary item frame.
pub fn encode_batch_into(tuples: &[Tuple], buf: &mut BytesMut) {
    buf.put_u8(TAG_BATCH);
    buf.put_u32_le(tuples.len() as u32);
    for t in tuples {
        encode_tuple_item(t, buf);
    }
}

/// What one transport frame holds: a single stream item, or a batch of
/// consecutive tuples (one output-port run from one quantum). This is what
/// crosses a PE boundary, and what [`decode_frame`] reads back from a
/// frame's wire encoding.
#[derive(Clone, Debug, PartialEq)]
pub enum Frame {
    Item(StreamItem),
    Batch(TupleBatch),
}

impl Frame {
    /// Tuples (or punctuations) in the frame: 1 for an item, the run length
    /// for a batch.
    pub fn items(&self) -> usize {
        match self {
            Frame::Item(_) => 1,
            Frame::Batch(batch) => batch.len(),
        }
    }

    /// Sum of the per-tuple size estimates (punctuation counts nothing).
    pub fn approx_bytes(&self) -> usize {
        match self {
            Frame::Item(StreamItem::Tuple(t)) => t.approx_bytes(),
            Frame::Item(StreamItem::Punct(_)) => 0,
            Frame::Batch(batch) => batch.approx_bytes(),
        }
    }
}

/// Batch-frame encoder owning a reusable scratch buffer, so a call site
/// that encodes many batches allocates each payload and nothing else.
#[derive(Debug, Default)]
pub struct TupleCodec {
    scratch: BytesMut,
}

impl TupleCodec {
    pub fn new() -> Self {
        TupleCodec {
            scratch: BytesMut::with_capacity(256),
        }
    }

    /// Encodes a run of tuples into a standalone batch payload.
    pub fn encode_batch(&mut self, tuples: &[Tuple]) -> Bytes {
        self.scratch.clear();
        encode_batch_into(tuples, &mut self.scratch);
        Bytes::from(&self.scratch[..])
    }
}

fn encode_tuple(t: &Tuple, buf: &mut BytesMut) {
    buf.put_u16_le(t.len() as u16);
    for (name, value) in t.iter() {
        buf.put_u16_le(name.len() as u16);
        buf.put_slice(name.as_bytes());
        encode_value(value, buf);
    }
}

fn encode_value(value: &Value, buf: &mut BytesMut) {
    match value {
        Value::Int(v) => {
            buf.put_u8(VTAG_INT);
            buf.put_i64_le(*v);
        }
        Value::Float(v) => {
            buf.put_u8(VTAG_FLOAT);
            buf.put_f64_le(*v);
        }
        Value::Str(s) => {
            buf.put_u8(VTAG_STR);
            buf.put_u32_le(s.len() as u32);
            buf.put_slice(s.as_bytes());
        }
        Value::Bool(b) => {
            buf.put_u8(VTAG_BOOL);
            buf.put_u8(*b as u8);
        }
        Value::Timestamp(t) => {
            buf.put_u8(VTAG_TIMESTAMP);
            buf.put_u64_le(*t);
        }
        Value::List(items) => {
            buf.put_u8(VTAG_LIST);
            buf.put_u32_le(items.len() as u32);
            for item in items {
                encode_value(item, buf);
            }
        }
    }
}

/// The schema the last tuple decoded to. The next tuple's names are checked
/// against it, byte for byte, and share it on a match.
type Carry = Option<Rc<Schema>>;

/// Decoder for one stream's frames, in order — today the tuples of a state
/// blob being restored. A stream keeps its shape from frame to frame, so
/// the decoder keeps the schema of the last tuple it decoded and the names
/// of a steady stream are allocated once, not once per frame. What a frame
/// decodes to never depends on the carry — it is exactly what
/// [`decode_frame`] returns.
#[derive(Debug, Default)]
pub struct PortDecoder {
    carry: Carry,
}

impl PortDecoder {
    pub fn new() -> Self {
        PortDecoder::default()
    }

    /// Decodes one frame: a single item or a batch.
    pub fn decode_frame(&mut self, buf: &[u8]) -> Result<Frame, EngineError> {
        decode_frame_carrying(buf, &mut self.carry)
    }

    /// Decodes a single item frame, exactly as [`decode`] does.
    pub fn decode_item(&mut self, buf: &[u8]) -> Result<StreamItem, EngineError> {
        decode_item(buf, &mut self.carry)
    }
}

/// Decodes a stream item from a buffer produced by [`encode`].
pub fn decode(buf: Bytes) -> Result<StreamItem, EngineError> {
    decode_item(&buf, &mut None)
}

fn decode_item(mut cur: &[u8], carry: &mut Carry) -> Result<StreamItem, EngineError> {
    if cur.is_empty() {
        return Err(EngineError::Codec("empty buffer".into()));
    }
    match cur.get_u8() {
        TAG_TUPLE => {
            let t = decode_tuple(&mut cur, carry)?;
            if !cur.is_empty() {
                return Err(EngineError::Codec("trailing bytes after tuple".into()));
            }
            Ok(StreamItem::Tuple(t))
        }
        TAG_WINDOW_PUNCT => Ok(StreamItem::Punct(Punct::Window)),
        TAG_FINAL_PUNCT => Ok(StreamItem::Punct(Punct::Final)),
        tag => Err(EngineError::Codec(format!("unknown item tag {tag}"))),
    }
}

/// Decodes a batch frame produced by [`encode_batch_into`].
pub fn decode_batch(buf: Bytes) -> Result<TupleBatch, EngineError> {
    decode_batch_frame(&buf, &mut None)
}

fn decode_batch_frame(mut cur: &[u8], carry: &mut Carry) -> Result<TupleBatch, EngineError> {
    if cur.is_empty() || cur.get_u8() != TAG_BATCH {
        return Err(EngineError::Codec("not a batch frame".into()));
    }
    let batch = decode_batch_body(&mut cur, carry)?;
    if !cur.is_empty() {
        return Err(EngineError::Codec("trailing bytes after batch".into()));
    }
    Ok(batch)
}

/// Decodes the tuples of a batch frame (the tag already consumed).
fn decode_batch_body(buf: &mut &[u8], carry: &mut Carry) -> Result<TupleBatch, EngineError> {
    if buf.len() < 4 {
        return Err(EngineError::Codec("truncated batch header".into()));
    }
    let count = buf.get_u32_le() as usize;
    if count > buf.len() {
        return Err(EngineError::Codec("batch count exceeds buffer".into()));
    }
    let mut batch = TupleBatch::with_capacity(count);
    for _ in 0..count {
        if buf.is_empty() || buf.get_u8() != TAG_TUPLE {
            return Err(EngineError::Codec("batch frame holds a non-tuple".into()));
        }
        batch.push(decode_tuple(buf, carry)?);
    }
    Ok(batch)
}

/// Decodes a frame's wire encoding — a single item frame or a batch frame
/// — carrying no schema in from earlier frames.
pub fn decode_frame(buf: Bytes) -> Result<Frame, EngineError> {
    decode_frame_carrying(&buf, &mut None)
}

fn decode_frame_carrying(buf: &[u8], carry: &mut Carry) -> Result<Frame, EngineError> {
    match buf.first() {
        Some(&TAG_BATCH) => Ok(Frame::Batch(decode_batch_frame(buf, carry)?)),
        _ => Ok(Frame::Item(decode_item(buf, carry)?)),
    }
}

/// Serializes one input-port queue as a single blob: runs of consecutive
/// tuples become batch frames, punctuation stays as bare item frames. This
/// is the checkpoint-v2 queue capture at batch granularity.
pub fn encode_queue<'a>(items: impl IntoIterator<Item = &'a StreamItem>) -> Bytes {
    let mut buf = BytesMut::new();
    let mut run: Vec<&Tuple> = Vec::new();
    let flush = |run: &mut Vec<&Tuple>, buf: &mut BytesMut| {
        if run.is_empty() {
            return;
        }
        buf.put_u8(TAG_BATCH);
        buf.put_u32_le(run.len() as u32);
        for t in run.drain(..) {
            encode_tuple_item(t, buf);
        }
    };
    for item in items {
        match item {
            StreamItem::Tuple(t) => run.push(t),
            punct => {
                flush(&mut run, &mut buf);
                encode_into(punct, &mut buf);
            }
        }
    }
    flush(&mut run, &mut buf);
    buf.freeze()
}

/// Writes the blob [`encode_queue`] writes one item at a time, however the
/// queue holds its items: a tuple opens a batch frame or joins the open
/// one, and the frame's count is written when a punctuation or the end
/// closes it. [`crate::queue::PortQueue::encode`] writes through it;
/// `encode_queue`, which collects each run first, stays the reference the
/// property tests compare it with.
#[derive(Default)]
pub(crate) struct QueueWriter {
    buf: BytesMut,
    /// Where the open batch frame starts, and how many tuples it holds.
    open: Option<(usize, u32)>,
}

impl QueueWriter {
    pub(crate) fn tuple(&mut self, t: &Tuple) {
        match &mut self.open {
            Some((_, count)) => *count += 1,
            None => {
                self.open = Some((self.buf.len(), 1));
                self.buf.put_u8(TAG_BATCH);
                self.buf.put_u32_le(0);
            }
        }
        encode_tuple_item(t, &mut self.buf);
    }

    pub(crate) fn punct(&mut self, p: Punct) {
        self.close();
        encode_into(&StreamItem::Punct(p), &mut self.buf);
    }

    fn close(&mut self) {
        if let Some((at, count)) = self.open.take() {
            self.buf[at + 1..at + 5].copy_from_slice(&count.to_le_bytes());
        }
    }

    pub(crate) fn finish(mut self) -> Bytes {
        self.close();
        self.buf.freeze()
    }
}

/// Decodes a queue blob written by [`encode_queue`] back into its item
/// sequence (batch frames are flattened in order).
pub fn decode_queue(buf: Bytes) -> Result<Vec<StreamItem>, EngineError> {
    let mut cur: &[u8] = &buf;
    let mut items = Vec::new();
    let carry = &mut None;
    while !cur.is_empty() {
        match cur.get_u8() {
            TAG_TUPLE => items.push(StreamItem::Tuple(decode_tuple(&mut cur, carry)?)),
            TAG_WINDOW_PUNCT => items.push(StreamItem::Punct(Punct::Window)),
            TAG_FINAL_PUNCT => items.push(StreamItem::Punct(Punct::Final)),
            TAG_BATCH => {
                let batch = decode_batch_body(&mut cur, carry)?;
                items.extend(batch.into_iter().map(StreamItem::Tuple));
            }
            tag => return Err(EngineError::Codec(format!("unknown queue tag {tag}"))),
        }
    }
    Ok(items)
}

/// Splits `n` bytes off the front of the cursor, or fails on truncation.
#[inline]
fn take<'a>(buf: &mut &'a [u8], n: usize) -> Result<&'a [u8], EngineError> {
    if buf.len() < n {
        return Err(truncated(n, buf.len()));
    }
    let (head, rest) = buf.split_at(n);
    *buf = rest;
    Ok(head)
}

#[cold]
fn truncated(need: usize, have: usize) -> EngineError {
    EngineError::Codec(format!("truncated: need {need} bytes, have {have}"))
}

/// Decodes one tuple body (the tag already consumed) and leaves its schema
/// in `carry`.
///
/// While every name so far is the carried schema's name at that position,
/// nothing is allocated for names and the carried schema's uniqueness
/// covers this tuple too. At the first name that differs the tuple leaves
/// the carried schema: it takes (shared) copies of the names matched so
/// far, and from there each name is validated, allocated and checked
/// against the ones before it. A frame that repeats a name decodes as
/// `Tuple::set` would build it: first position, last value.
fn decode_tuple(buf: &mut &[u8], carry: &mut Carry) -> Result<Tuple, EngineError> {
    let count = take(buf, 2)?.get_u16_le() as usize;
    let carried: &[Name] = carry.as_deref().map_or(&[], Schema::names);
    // An attribute is at least four bytes on the wire, so a corrupt count
    // cannot reserve more than the buffer could hold.
    let mut values: Vec<Value> = Vec::with_capacity(count.min(buf.len() / 4));
    // `Some` once the tuple has left the carried schema.
    let mut own_names: Option<Vec<Name>> = None;
    for i in 0..count {
        let name_len = take(buf, 2)?.get_u16_le() as usize;
        let name_bytes = take(buf, name_len)?;
        if own_names.is_none() && carried.get(i).is_some_and(|c| c.as_bytes() == name_bytes) {
            values.push(decode_value(buf)?);
            continue;
        }
        let names = own_names.get_or_insert_with(|| {
            let mut names = Vec::with_capacity(values.capacity());
            names.extend_from_slice(&carried[..i]);
            names
        });
        let name = std::str::from_utf8(name_bytes)
            .map_err(|_| EngineError::Codec("attribute name is not utf-8".into()))?;
        let value = decode_value(buf)?;
        match names.iter().position(|n| &**n == name) {
            Some(idx) => values[idx] = value,
            None => {
                names.push(Name::from(name));
                values.push(value);
            }
        }
    }
    let schema = match own_names {
        Some(names) => Schema::from_unique_names(names),
        None => match &*carry {
            // The steady state: the carried schema, whole.
            Some(schema) if schema.len() == count => return Ok(Tuple::from_schema(schema, values)),
            // A shorter tuple: its names are a prefix of the carried ones.
            _ => Schema::from_unique_names(carried[..count].to_vec()),
        },
    };
    let tuple = Tuple::from_schema(&schema, values);
    *carry = Some(schema);
    Ok(tuple)
}

fn decode_value(buf: &mut &[u8]) -> Result<Value, EngineError> {
    let need = |buf: &[u8], n: usize| -> Result<(), EngineError> {
        if buf.len() < n {
            Err(EngineError::Codec("truncated value".into()))
        } else {
            Ok(())
        }
    };
    need(buf, 1)?;
    match buf.get_u8() {
        VTAG_INT => {
            need(buf, 8)?;
            Ok(Value::Int(buf.get_i64_le()))
        }
        VTAG_FLOAT => {
            need(buf, 8)?;
            Ok(Value::Float(buf.get_f64_le()))
        }
        VTAG_STR => {
            need(buf, 4)?;
            let len = buf.get_u32_le() as usize;
            need(buf, len)?;
            let (bytes, rest) = buf.split_at(len);
            *buf = rest;
            let s = std::str::from_utf8(bytes)
                .map_err(|_| EngineError::Codec("string value is not utf-8".into()))?;
            Ok(Value::Str(s.to_string()))
        }
        VTAG_BOOL => {
            need(buf, 1)?;
            Ok(Value::Bool(buf.get_u8() != 0))
        }
        VTAG_TIMESTAMP => {
            need(buf, 8)?;
            Ok(Value::Timestamp(buf.get_u64_le()))
        }
        VTAG_LIST => {
            need(buf, 4)?;
            let len = buf.get_u32_le() as usize;
            // Cap pathological lengths so corrupt buffers fail fast instead
            // of attempting huge allocations.
            if len > buf.len() {
                return Err(EngineError::Codec("list length exceeds buffer".into()));
            }
            let mut items = Vec::with_capacity(len);
            for _ in 0..len {
                items.push(decode_value(buf)?);
            }
            Ok(Value::List(items))
        }
        tag => Err(EngineError::Codec(format!("unknown value tag {tag}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(item: StreamItem) {
        let encoded = encode(&item);
        let decoded = decode(encoded).unwrap();
        assert_eq!(decoded, item);
    }

    #[test]
    fn roundtrip_tuple_all_types() {
        roundtrip(StreamItem::Tuple(
            Tuple::new()
                .with("i", -7i64)
                .with("f", 2.75)
                .with("s", "hello — utf8 ✓")
                .with("b", true)
                .with("ts", Value::Timestamp(123456789))
                .with(
                    "l",
                    Value::List(vec![
                        Value::Int(1),
                        Value::List(vec![Value::Str("nested".into())]),
                    ]),
                ),
        ));
    }

    #[test]
    fn roundtrip_empty_tuple_and_puncts() {
        roundtrip(StreamItem::Tuple(Tuple::new()));
        roundtrip(StreamItem::Punct(Punct::Window));
        roundtrip(StreamItem::Punct(Punct::Final));
    }

    #[test]
    fn decode_rejects_empty() {
        assert!(decode(Bytes::new()).is_err());
    }

    #[test]
    fn decode_rejects_unknown_tag() {
        assert!(decode(Bytes::from_static(&[9])).is_err());
    }

    #[test]
    fn decode_rejects_truncation() {
        let full = encode(&StreamItem::Tuple(
            Tuple::new().with("abc", 1i64).with("s", "world"),
        ));
        // Every strict prefix must fail, not panic.
        for cut in 1..full.len() {
            let prefix = full.slice(0..cut);
            assert!(decode(prefix).is_err(), "prefix of len {cut} decoded");
        }
    }

    #[test]
    fn decode_rejects_trailing_garbage() {
        let mut bytes = encode(&StreamItem::Tuple(Tuple::new())).to_vec();
        bytes.push(0xFF);
        assert!(decode(Bytes::from(bytes)).is_err());
    }

    #[test]
    fn decode_rejects_oversized_list_len() {
        // tag=tuple, 1 attr, name "l", list with claimed 2^31 items.
        let mut buf = BytesMut::new();
        buf.put_u8(TAG_TUPLE);
        buf.put_u16_le(1);
        buf.put_u16_le(1);
        buf.put_slice(b"l");
        buf.put_u8(VTAG_LIST);
        buf.put_u32_le(u32::MAX);
        assert!(decode(buf.freeze()).is_err());
    }

    #[test]
    fn encode_into_reuses_buffer_and_matches_encode() {
        let items = [
            StreamItem::Tuple(Tuple::new().with("a", 1i64).with("s", "hello")),
            StreamItem::Punct(Punct::Window),
            StreamItem::Tuple(Tuple::new()),
            StreamItem::Punct(Punct::Final),
        ];
        let mut scratch = BytesMut::new();
        for item in &items {
            scratch.clear();
            encode_into(item, &mut scratch);
            assert_eq!(&scratch[..], &encode(item)[..]);
        }
        // The borrowed-tuple variant is byte-identical to the owned path.
        let t = Tuple::new().with("x", 9i64);
        scratch.clear();
        encode_tuple_item(&t, &mut scratch);
        assert_eq!(&scratch[..], &encode(&StreamItem::Tuple(t))[..]);
    }

    #[test]
    fn batch_roundtrips_and_matches_item_frames() {
        let tuples = vec![
            Tuple::new().with("a", 1i64),
            Tuple::new().with("b", "two"),
            Tuple::new(),
        ];
        let mut buf = BytesMut::new();
        encode_batch_into(&tuples, &mut buf);
        let payload = buf.freeze();
        let back = decode_batch(payload.clone()).unwrap();
        assert_eq!(back.as_slice(), &tuples[..]);
        // The batch body is exactly the concatenated single-item frames.
        let concat: Vec<u8> = tuples
            .iter()
            .flat_map(|t| encode(&StreamItem::Tuple(t.clone())).to_vec())
            .collect();
        assert_eq!(&payload[5..], &concat[..]);
        // decode_frame dispatches on the leading tag.
        assert_eq!(
            decode_frame(payload).unwrap(),
            Frame::Batch(tuples.clone().into())
        );
        assert_eq!(
            decode_frame(encode(&StreamItem::Punct(Punct::Final))).unwrap(),
            Frame::Item(StreamItem::Punct(Punct::Final))
        );
    }

    #[test]
    fn batch_decode_rejects_corruption() {
        let tuples = vec![Tuple::new().with("a", 1i64), Tuple::new().with("b", 2i64)];
        let mut buf = BytesMut::new();
        encode_batch_into(&tuples, &mut buf);
        let full = buf.freeze();
        for cut in 1..full.len() {
            assert!(decode_batch(full.slice(0..cut)).is_err());
        }
        let mut trailing = full.to_vec();
        trailing.push(0xAB);
        assert!(decode_batch(Bytes::from(trailing)).is_err());
        // A single-item frame is not a batch.
        assert!(decode_batch(encode(&StreamItem::Tuple(Tuple::new()))).is_err());
        // A claimed count far beyond the buffer fails fast.
        let mut bogus = BytesMut::new();
        bogus.put_u8(3);
        bogus.put_u32_le(u32::MAX);
        assert!(decode_batch(bogus.freeze()).is_err());
    }

    #[test]
    fn queue_blob_roundtrips_mixed_items() {
        let items = vec![
            StreamItem::Tuple(Tuple::new().with("a", 1i64)),
            StreamItem::Tuple(Tuple::new().with("b", 2i64)),
            StreamItem::Punct(Punct::Window),
            StreamItem::Tuple(Tuple::new().with("c", 3i64)),
            StreamItem::Punct(Punct::Final),
        ];
        let blob = encode_queue(&items);
        assert_eq!(decode_queue(blob).unwrap(), items);
        // Degenerate queues.
        assert!(decode_queue(encode_queue(&[])).unwrap().is_empty());
        let puncts_only = vec![StreamItem::Punct(Punct::Window); 3];
        assert_eq!(
            decode_queue(encode_queue(&puncts_only)).unwrap(),
            puncts_only
        );
    }

    #[test]
    fn tuple_codec_matches_free_functions() {
        let mut codec = TupleCodec::new();
        let tuples = [Tuple::new().with("a", 1i64), Tuple::new().with("b", 2i64)];
        // The scratch is reused: the shorter second batch carries nothing
        // over from the first.
        for run in [&tuples[..], &tuples[..1]] {
            let mut buf = BytesMut::new();
            encode_batch_into(run, &mut buf);
            assert_eq!(codec.encode_batch(run), buf.freeze());
        }
    }

    #[test]
    fn encoded_size_tracks_content() {
        let small = encode(&StreamItem::Tuple(Tuple::new().with("a", 1i64)));
        let big = encode(&StreamItem::Tuple(
            Tuple::new()
                .with("a", 1i64)
                .with("blob", "x".repeat(1000).as_str()),
        ));
        assert!(big.len() > small.len() + 900);
    }
}
