//! Sink: terminal operator collecting recent output for observation.

use crate::ckpt::{StateBlob, StateReader, StateWriter};
use crate::op::{OpCtx, Operator, Punct};
use crate::ops::opt_i64;
use crate::tuple::Tuple;
use crate::EngineError;
use sps_model::value::ParamMap;
use std::cell::RefCell;
use std::collections::VecDeque;

/// Retains the most recent `keep` tuples (default 256). The PE container
/// exposes sink contents via [`crate::pe::PeRuntime::tap`], which the
/// experiment harnesses and the GUI-replacement status boards read.
///
/// A checkpoint costs what arrived since the previous one. The sink keeps
/// the blob its last [`Operator::checkpoint`] returned: the next blob copies
/// the records of the tuples still in the ring from it and encodes only the
/// tuples accepted since, and with no tuple and no `Final` since, it *is*
/// that blob. The bytes are the full encoding's either way. A restore
/// forgets the blob and never seeds it, so the re-checkpoint that verifies
/// a restore encodes the restored ring instead of echoing its input.
///
/// Parameters: `keep` (int, default 256).
pub struct Sink {
    keep: usize,
    recent: VecDeque<Tuple>,
    total: u64,
    finals: u64,
    memo: RefCell<Option<Memo>>,
}

/// The blob the last checkpoint returned and the counts its header holds.
struct Memo {
    blob: StateBlob,
    total: u64,
    finals: u64,
    records: usize,
}

/// `total`, `finals` and the record count: the bytes before the records.
const HEADER_LEN: usize = 8 + 8 + 4;

impl Sink {
    pub fn from_params(op: &str, params: &ParamMap) -> Result<Self, EngineError> {
        let keep = opt_i64(params, op, "keep")?.unwrap_or(256);
        if keep <= 0 {
            return Err(EngineError::BadParam {
                op: op.to_string(),
                message: "keep must be positive".into(),
            });
        }
        Ok(Sink {
            keep: keep as usize,
            recent: VecDeque::new(),
            total: 0,
            finals: 0,
            memo: RefCell::new(None),
        })
    }

    /// Total tuples ever received.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Final punctuations received.
    pub fn finals(&self) -> u64 {
        self.finals
    }

    fn header(&self) -> StateWriter {
        let mut w = StateWriter::new();
        w.put_u64(self.total);
        w.put_u64(self.finals);
        w.put_u32(self.recent.len() as u32);
        w
    }

    /// The blob of the whole ring, every tuple encoded.
    fn encode(&self) -> StateBlob {
        let mut w = self.header();
        for t in &self.recent {
            w.put_tuple(t);
        }
        w.finish()
    }

    /// The same bytes as [`Sink::encode`], from the previous blob: the ring
    /// is the previous one with `fresh` accepted tuples pushed through it,
    /// so its oldest `kept` tuples are the previous blob's last `kept`
    /// records, copied as they are. A tuple's encoding carries nothing over
    /// from the tuple before it, which is what makes the copy exact.
    fn encode_since(&self, memo: &Memo) -> StateBlob {
        let fresh = usize::try_from(self.total - memo.total).unwrap_or(usize::MAX);
        let kept = self.recent.len().saturating_sub(fresh);
        if kept == 0 {
            return self.encode();
        }
        let records = &memo.blob.bytes()[HEADER_LEN..];
        let mut at = 0;
        for _ in 0..memo.records - kept {
            let prefix = records[at..at + 4]
                .try_into()
                .expect("a 4-byte length prefix");
            let len = u32::from_le_bytes(prefix);
            at += 4 + len as usize;
        }
        let mut w = self.header();
        w.put_slice(&records[at..]);
        for t in self.recent.range(kept..) {
            w.put_tuple(t);
        }
        w.finish()
    }
}

impl Operator for Sink {
    fn on_tuple(&mut self, _port: usize, tuple: Tuple, _ctx: &mut OpCtx) {
        self.total += 1;
        if self.recent.len() == self.keep {
            self.recent.pop_front();
        }
        self.recent.push_back(tuple);
    }

    fn on_punct(&mut self, _port: usize, punct: Punct, _ctx: &mut OpCtx) {
        if punct == Punct::Final {
            self.finals += 1;
        }
        // Terminal: nothing to forward.
    }

    fn tap(&self) -> Option<&VecDeque<Tuple>> {
        Some(&self.recent)
    }

    fn checkpoint(&self) -> Option<StateBlob> {
        let mut memo = self.memo.borrow_mut();
        let blob = match &*memo {
            // Idle: the same allocation goes out again, so the PE's compare
            // with its previous entry stops at the pointer.
            Some(m) if m.total == self.total && m.finals == self.finals => m.blob.clone(),
            Some(m) => self.encode_since(m),
            None => self.encode(),
        };
        debug_assert_eq!(
            blob,
            self.encode(),
            "the sink's blob is not its full encoding"
        );
        *memo = Some(Memo {
            blob: blob.clone(),
            total: self.total,
            finals: self.finals,
            records: self.recent.len(),
        });
        Some(blob)
    }

    fn restore(&mut self, blob: &StateBlob) -> Result<(), EngineError> {
        *self.memo.get_mut() = None;
        let mut r = StateReader::new(blob);
        self.total = r.get_u64()?;
        self.finals = r.get_u64()?;
        let n = r.get_u32()? as usize;
        self.recent.clear();
        for _ in 0..n {
            self.recent.push_back(r.get_tuple()?);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::testutil::Harness;
    use proptest::prelude::*;
    use sps_model::Value;

    fn sink(keep: i64) -> Sink {
        let params: ParamMap = [("keep".to_string(), Value::Int(keep))]
            .into_iter()
            .collect();
        Sink::from_params("s", &params).unwrap()
    }

    #[test]
    fn collects_recent_with_ring_semantics() {
        let mut s = sink(3);
        let mut h = Harness::new(0);
        for i in 0..5i64 {
            h.tuple(&mut s, 0, Tuple::new().with("i", i));
        }
        assert_eq!(s.total(), 5);
        let tap = s.tap().unwrap();
        let seen: Vec<i64> = tap.iter().map(|t| t.get_int("i").unwrap()).collect();
        assert_eq!(seen, vec![2, 3, 4]);
    }

    #[test]
    fn counts_finals_without_forwarding() {
        let mut s = Sink::from_params("s", &ParamMap::new()).unwrap();
        let mut h = Harness::new(0);
        assert!(h.punct(&mut s, 0, Punct::Final).is_empty());
        assert!(h.punct(&mut s, 0, Punct::Window).is_empty());
        assert_eq!(s.finals(), 1);
    }

    #[test]
    fn rejects_bad_keep() {
        let params: ParamMap = [("keep".to_string(), Value::Int(0))].into_iter().collect();
        assert!(Sink::from_params("s", &params).is_err());
    }

    #[test]
    fn an_idle_sink_hands_back_its_last_blob() {
        let mut s = sink(4);
        let mut h = Harness::new(0);
        h.tuple(&mut s, 0, Tuple::new().with("i", 1i64));
        let first = s.checkpoint().unwrap();
        h.punct(&mut s, 0, Punct::Window);
        let idle = s.checkpoint().unwrap();
        assert!(std::ptr::eq(first.bytes(), idle.bytes()));
        h.punct(&mut s, 0, Punct::Final);
        assert_ne!(s.checkpoint().unwrap(), first);
    }

    #[test]
    fn restore_never_seeds_the_memo() {
        let mut s = sink(4);
        let mut h = Harness::new(0);
        for i in 0..3i64 {
            h.tuple(&mut s, 0, Tuple::new().with("i", i));
        }
        let b = s.checkpoint().unwrap();
        s.restore(&b).unwrap();
        // State the counts cannot see: a memo seeded from `b` would take
        // the sink for idle and hand `b` back.
        s.recent.pop_front();
        assert_ne!(s.checkpoint().unwrap(), b);
        assert_eq!(s.checkpoint().unwrap(), s.encode());
    }

    /// The blob as every checkpoint wrote it before the memo: the header,
    /// then each tuple of the ring encoded.
    fn reference(s: &Sink) -> StateBlob {
        let mut w = StateWriter::new();
        w.put_u64(s.total());
        w.put_u64(s.finals());
        w.put_u32(s.tap().unwrap().len() as u32);
        for t in s.tap().unwrap() {
            w.put_tuple(t);
        }
        w.finish()
    }

    #[derive(Clone, Debug)]
    enum Step {
        Tuple(Tuple),
        Batch(Vec<Tuple>),
        Punct(Punct),
        Checkpoint,
        /// Restore one of the blobs taken so far, picked modulo their count.
        Restore(usize),
    }

    /// Four shapes, so a ring holds tuples of different schemas side by side.
    fn arb_tuple() -> impl Strategy<Value = Tuple> {
        (0..4usize, any::<i64>()).prop_map(|(shape, i)| match shape {
            0 => Tuple::new().with("i", i),
            1 => Tuple::new()
                .with("s", format!("v{i}").as_str())
                .with("f", i as f64 / 3.0),
            2 => Tuple::new(),
            _ => Tuple::new()
                .with(
                    "l",
                    Value::List(vec![Value::Int(i), Value::Bool(i % 2 == 0)]),
                )
                .with("i", i),
        })
    }

    /// `keep` and steps; a batch may be up to three rings long, so one batch
    /// sometimes refills the ring on its own.
    fn arb_run() -> impl Strategy<Value = (usize, Vec<Step>)> {
        (1..=8usize).prop_flat_map(|keep| {
            let step = prop_oneof![
                3 => arb_tuple().prop_map(Step::Tuple),
                3 => prop::collection::vec(arb_tuple(), 0..=3 * keep).prop_map(Step::Batch),
                1 => Just(Step::Punct(Punct::Final)),
                1 => Just(Step::Punct(Punct::Window)),
                4 => Just(Step::Checkpoint),
                1 => any::<usize>().prop_map(Step::Restore),
            ];
            (Just(keep), prop::collection::vec(step, 0..40))
        })
    }

    proptest! {
        /// Whatever happened since the last blob, the next one is the bytes
        /// the full loop writes, and a restored blob checkpoints to itself.
        #[test]
        fn every_blob_is_the_full_encoding((keep, steps) in arb_run()) {
            let mut s = sink(keep as i64);
            let mut h = Harness::new(0);
            let mut blobs: Vec<StateBlob> = Vec::new();
            for step in steps {
                match step {
                    Step::Tuple(t) => drop(h.tuple(&mut s, 0, t)),
                    Step::Batch(ts) => drop(h.batch(&mut s, 0, ts)),
                    Step::Punct(p) => drop(h.punct(&mut s, 0, p)),
                    Step::Checkpoint => {
                        let blob = s.checkpoint().unwrap();
                        prop_assert_eq!(&blob, &reference(&s));
                        blobs.push(blob);
                    }
                    Step::Restore(pick) if !blobs.is_empty() => {
                        let blob = &blobs[pick % blobs.len()];
                        let mut probe = sink(keep as i64);
                        probe.restore(blob).unwrap();
                        prop_assert_eq!(&probe.checkpoint().unwrap(), blob);
                        s.restore(blob).unwrap();
                    }
                    Step::Restore(_) => {}
                }
            }
        }
    }
}
