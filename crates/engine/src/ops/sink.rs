//! Sink: terminal operator collecting recent output for observation.

use crate::ckpt::{StateBlob, StateReader, StateWriter};
use crate::op::{OpCtx, Operator, Punct, TupleBatch};
use crate::ops::opt_i64;
use crate::tuple::Tuple;
use crate::EngineError;
use sps_model::value::ParamMap;
use std::collections::VecDeque;

/// Retains the most recent `keep` tuples (default 256). The PE container
/// exposes sink contents via [`crate::pe::PeRuntime::tap`], which the
/// experiment harnesses and the GUI-replacement status boards read.
///
/// Parameters: `keep` (int, default 256).
pub struct Sink {
    keep: usize,
    recent: VecDeque<Tuple>,
    total: u64,
    finals: u64,
}

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
}

impl Operator for Sink {
    fn on_tuple(&mut self, _port: usize, tuple: Tuple, _ctx: &mut OpCtx) {
        self.total += 1;
        if self.recent.len() == self.keep {
            self.recent.pop_front();
        }
        self.recent.push_back(tuple);
    }

    // Batched ring insert: tuples that the rest of the batch would evict
    // anyway never enter the deque, and existing survivors are evicted in
    // one drain instead of one pop per arrival.
    fn on_batch(&mut self, _port: usize, batch: TupleBatch, _ctx: &mut OpCtx) {
        self.total += batch.len() as u64;
        let skip = batch.len().saturating_sub(self.keep);
        let evict = (self.recent.len() + batch.len() - skip).saturating_sub(self.keep);
        self.recent.drain(..evict);
        self.recent.extend(batch.into_iter().skip(skip));
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
        let mut w = StateWriter::new();
        w.put_u64(self.total);
        w.put_u64(self.finals);
        w.put_u32(self.recent.len() as u32);
        for t in &self.recent {
            w.put_tuple(t);
        }
        Some(w.finish())
    }

    fn restore(&mut self, blob: &StateBlob) -> Result<(), EngineError> {
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
    use sps_model::Value;

    #[test]
    fn collects_recent_with_ring_semantics() {
        let params: ParamMap = [("keep".to_string(), Value::Int(3))].into_iter().collect();
        let mut s = Sink::from_params("s", &params).unwrap();
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
}
