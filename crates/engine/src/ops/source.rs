//! Beacon: a rate-controlled synthetic source.

use crate::ckpt::{StateBlob, StateReader, StateWriter};
use crate::op::{OpCtx, Operator, Punct};
use crate::ops::{opt_f64, opt_i64, opt_str};
use crate::tuple::{Schema, Tuple};
use crate::EngineError;
use sps_model::value::ParamMap;
use sps_model::Value;
use std::rc::Rc;

/// Produces `rate` tuples per second of the form
/// `{seq: int, ts: timestamp [, payload: str]}`, emitting a final
/// punctuation after `limit` tuples (if set).
///
/// Parameters:
/// - `rate` (float, default 1.0): tuples per second,
/// - `limit` (int, optional): stop after this many tuples,
/// - `payload` (str, optional): constant attribute added to every tuple.
pub struct Beacon {
    rate: f64,
    limit: Option<i64>,
    payload: Option<String>,
    /// The output shape, `payload` included when configured.
    schema: Rc<Schema>,
    seq: i64,
    /// Fractional tuple accumulator (rate × quantum may be < 1).
    credit: f64,
    done: bool,
}

impl Beacon {
    pub fn from_params(op: &str, params: &ParamMap) -> Result<Self, EngineError> {
        let rate = opt_f64(params, op, "rate")?.unwrap_or(1.0);
        if rate < 0.0 {
            return Err(EngineError::BadParam {
                op: op.to_string(),
                message: "rate must be non-negative".into(),
            });
        }
        let payload = opt_str(params, "payload").map(str::to_string);
        Ok(Beacon {
            rate,
            limit: opt_i64(params, op, "limit")?,
            schema: match payload {
                Some(_) => Schema::new(&["seq", "ts", "payload"]),
                None => Schema::new(&["seq", "ts"]),
            },
            payload,
            seq: 0,
            credit: 0.0,
            done: false,
        })
    }
}

impl Operator for Beacon {
    fn on_tuple(&mut self, _port: usize, _tuple: Tuple, _ctx: &mut OpCtx) {
        // Sources have no inputs; ignore stray injections.
    }

    fn on_tick(&mut self, ctx: &mut OpCtx) {
        if self.done {
            return;
        }
        self.credit += self.rate * ctx.quantum().as_secs_f64();
        while self.credit >= 1.0 - 1e-9 {
            if let Some(limit) = self.limit {
                if self.seq >= limit {
                    self.done = true;
                    ctx.submit_punct(0, Punct::Final);
                    return;
                }
            }
            self.credit -= 1.0;
            let mut values = Vec::with_capacity(self.schema.len());
            values.push(Value::Int(self.seq));
            values.push(Value::Timestamp(ctx.now().as_millis()));
            if let Some(p) = &self.payload {
                values.push(Value::Str(p.clone()));
            }
            ctx.submit(0, Tuple::from_schema(&self.schema, values));
            self.seq += 1;
        }
        if let Some(limit) = self.limit {
            if self.seq >= limit {
                self.done = true;
                ctx.submit_punct(0, Punct::Final);
            }
        }
    }

    fn checkpoint(&self) -> Option<StateBlob> {
        let mut w = StateWriter::new();
        w.put_i64(self.seq);
        w.put_f64(self.credit);
        w.put_bool(self.done);
        Some(w.finish())
    }

    fn restore(&mut self, blob: &StateBlob) -> Result<(), EngineError> {
        let mut r = StateReader::new(blob);
        self.seq = r.get_i64()?;
        self.credit = r.get_f64()?;
        self.done = r.get_bool()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::StreamItem;
    use crate::ops::testutil::Harness;
    use sps_sim::SimDuration;

    fn params(pairs: &[(&str, Value)]) -> ParamMap {
        pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect()
    }

    #[test]
    fn produces_at_rate() {
        // 50 tuples/sec at 100 ms quantum = 5 tuples per tick.
        let mut b = Beacon::from_params("b", &params(&[("rate", Value::Float(50.0))])).unwrap();
        let mut h = Harness::new(1);
        let out = Harness::tuples_only(h.tick(&mut b));
        assert_eq!(out.len(), 5);
        assert_eq!(out[0].1.get_int("seq"), Some(0));
        assert_eq!(out[4].1.get_int("seq"), Some(4));
    }

    #[test]
    fn fractional_rate_accumulates() {
        // 2 tuples/sec at 100 ms quantum = 0.2 per tick: one tuple every 5 ticks.
        let mut b = Beacon::from_params("b", &params(&[("rate", Value::Float(2.0))])).unwrap();
        let mut h = Harness::new(1);
        let mut total = 0;
        for _ in 0..10 {
            total += Harness::tuples_only(h.tick(&mut b)).len();
            h.advance(SimDuration::from_millis(100));
        }
        assert_eq!(total, 2);
    }

    #[test]
    fn limit_emits_final_once() {
        let mut b = Beacon::from_params(
            "b",
            &params(&[("rate", Value::Float(100.0)), ("limit", Value::Int(3))]),
        )
        .unwrap();
        let mut h = Harness::new(1);
        let out = h.tick(&mut b);
        let tuples = out
            .iter()
            .filter(|(_, i)| matches!(i, StreamItem::Tuple(_)))
            .count();
        let finals = out
            .iter()
            .filter(|(_, i)| matches!(i, StreamItem::Punct(Punct::Final)))
            .count();
        assert_eq!(tuples, 3);
        assert_eq!(finals, 1);
        // Subsequent ticks stay silent.
        assert!(h.tick(&mut b).is_empty());
    }

    #[test]
    fn payload_attribute() {
        let mut b = Beacon::from_params(
            "b",
            &params(&[
                ("rate", Value::Float(10.0)),
                ("payload", Value::Str("x".into())),
            ]),
        )
        .unwrap();
        let mut h = Harness::new(1);
        let out = Harness::tuples_only(h.tick(&mut b));
        assert_eq!(out[0].1.get_str("payload"), Some("x"));
        assert!(out[0].1.get("ts").is_some());
    }

    #[test]
    fn rejects_bad_params() {
        assert!(Beacon::from_params("b", &params(&[("rate", Value::Float(-1.0))])).is_err());
        assert!(Beacon::from_params("b", &params(&[("rate", Value::Str("fast".into()))])).is_err());
        assert!(Beacon::from_params("b", &params(&[("limit", Value::Float(1.5))])).is_err());
    }

    #[test]
    fn default_rate_is_one_per_second() {
        let mut b = Beacon::from_params("b", &ParamMap::new()).unwrap();
        let mut h = Harness::new(1);
        let mut total = 0;
        for _ in 0..10 {
            total += Harness::tuples_only(h.tick(&mut b)).len();
            h.advance(SimDuration::from_millis(100));
        }
        assert_eq!(total, 1);
    }
}
