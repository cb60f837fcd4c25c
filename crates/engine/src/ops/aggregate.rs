//! Windowed aggregation over a numeric attribute, optionally grouped.

use crate::ckpt::{StateBlob, StateReader, StateWriter};
use crate::op::{OpCtx, Operator, Punct};
use crate::ops::{opt_str, req_f64, req_str};
use crate::tuple::{Schema, Tuple};
use crate::window::SlidingTimeWindow;
use crate::EngineError;
use sps_model::value::ParamMap;
use sps_model::Value;
use sps_sim::{SimDuration, SimTime};
use std::collections::BTreeMap;
use std::rc::Rc;

/// Maintains a sliding time window per group and periodically emits
/// `{group, count, min, max, avg, stddev, upper, lower, full, ts}` — the
/// financial-calculation shape of the Trend Calculator (§5.2): min/max/avg
/// plus Bollinger Bands (`avg ± bollinger_k · stddev`).
///
/// Parameters:
/// - `value` (str, required): numeric attribute to aggregate,
/// - `window_secs` (float, required): sliding window span,
/// - `period_secs` (float, required): emission period,
/// - `group_by` (str, optional): grouping attribute (default: single group),
/// - `bollinger_k` (float, default 2.0): band width multiplier.
pub struct Aggregate {
    value_attr: String,
    group_by: Option<String>,
    window: SimDuration,
    period: SimDuration,
    bollinger_k: f64,
    /// The output shape, shared by every emitted row.
    schema: Rc<Schema>,
    groups: BTreeMap<String, SlidingTimeWindow<f64>>,
    last_emit: Option<SimTime>,
    got_final: bool,
    /// Scratch for the rendered group key of the tuple in hand.
    key: String,
}

impl Aggregate {
    pub fn from_params(op: &str, params: &ParamMap) -> Result<Self, EngineError> {
        let window_secs = req_f64(params, op, "window_secs")?;
        let period_secs = req_f64(params, op, "period_secs")?;
        if window_secs <= 0.0 || period_secs <= 0.0 {
            return Err(EngineError::BadParam {
                op: op.to_string(),
                message: "window_secs and period_secs must be positive".into(),
            });
        }
        Ok(Aggregate {
            value_attr: req_str(params, op, "value")?.to_string(),
            group_by: opt_str(params, "group_by").map(str::to_string),
            window: SimDuration::from_millis((window_secs * 1000.0) as u64),
            period: SimDuration::from_millis((period_secs * 1000.0) as u64),
            bollinger_k: params
                .get("bollinger_k")
                .and_then(Value::as_f64)
                .unwrap_or(2.0),
            schema: Schema::new(&[
                "group", "count", "min", "max", "avg", "stddev", "upper", "lower", "full", "ts",
            ]),
            groups: BTreeMap::new(),
            last_emit: None,
            got_final: false,
            key: String::new(),
        })
    }

    /// Pushes `v` into the window of the group `tuple` belongs to; a key is
    /// allocated only when the group is first seen. `Err` names a missing
    /// `group_by` attribute.
    fn push_grouped(&mut self, tuple: &Tuple, now: SimTime, v: f64) -> Result<(), String> {
        self.key.clear();
        if let Some(attr) = &self.group_by {
            match tuple.get(attr) {
                Some(val) => val.render_into(&mut self.key),
                None => return Err(format!("group_by attribute '{attr}' missing")),
            }
        }
        let window = match self.groups.get_mut(self.key.as_str()) {
            Some(window) => window,
            None => self
                .groups
                .entry(self.key.clone())
                .or_insert_with(|| SlidingTimeWindow::new(self.window)),
        };
        window.push(now, v);
        Ok(())
    }

    fn emit_all(&mut self, ctx: &mut OpCtx) {
        let now = ctx.now();
        for (group, window) in &mut self.groups {
            window.evict(now);
            let Some(a) = window.aggregates() else {
                continue;
            };
            let t = Tuple::from_schema(
                &self.schema,
                vec![
                    Value::Str(group.clone()),
                    Value::Int(a.count as i64),
                    Value::Float(a.min),
                    Value::Float(a.max),
                    Value::Float(a.avg),
                    Value::Float(a.stddev),
                    Value::Float(a.avg + self.bollinger_k * a.stddev),
                    Value::Float(a.avg - self.bollinger_k * a.stddev),
                    Value::Bool(window.is_full(now)),
                    Value::Timestamp(now.as_millis()),
                ],
            );
            ctx.submit(0, t);
        }
    }
}

impl Operator for Aggregate {
    fn on_tuple(&mut self, _port: usize, tuple: Tuple, ctx: &mut OpCtx) {
        let Some(v) = tuple.get_f64(&self.value_attr) else {
            ctx.raise_fault(format!(
                "aggregate value attribute '{}' missing or non-numeric",
                self.value_attr
            ));
            return;
        };
        if let Err(fault) = self.push_grouped(&tuple, ctx.now(), v) {
            ctx.raise_fault(fault);
        }
    }

    fn on_punct(&mut self, _port: usize, punct: Punct, ctx: &mut OpCtx) {
        if punct == Punct::Final && !self.got_final {
            self.got_final = true;
            // Flush one last aggregate so downstream sees the final state.
            self.emit_all(ctx);
            ctx.submit_punct(0, Punct::Final);
        }
    }

    fn on_tick(&mut self, ctx: &mut OpCtx) {
        if self.got_final {
            return;
        }
        let due = match self.last_emit {
            None => true,
            Some(last) => ctx.now().since(last) >= self.period,
        };
        if due {
            self.last_emit = Some(ctx.now());
            self.emit_all(ctx);
        }
    }

    fn checkpoint(&self) -> Option<StateBlob> {
        let mut w = StateWriter::new();
        w.put_opt(&self.last_emit, |w, t| w.put_time(*t));
        w.put_bool(self.got_final);
        w.put_u32(self.groups.len() as u32);
        for (group, window) in &self.groups {
            w.put_str(group);
            w.put_u32(window.len() as u32);
            for (at, v) in window.iter() {
                w.put_time(*at);
                w.put_f64(*v);
            }
        }
        Some(w.finish())
    }

    fn restore(&mut self, blob: &StateBlob) -> Result<(), EngineError> {
        let mut r = StateReader::new(blob);
        self.last_emit = r.get_opt(|r| r.get_time())?;
        self.got_final = r.get_bool()?;
        let groups = r.get_u32()? as usize;
        self.groups.clear();
        for _ in 0..groups {
            let group = r.get_str()?;
            let mut window = SlidingTimeWindow::new(self.window);
            for _ in 0..r.get_u32()? {
                let at = r.get_time()?;
                let v = r.get_f64()?;
                window.push(at, v);
            }
            self.groups.insert(group, window);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::StreamItem;
    use crate::ops::testutil::Harness;

    fn agg(pairs: &[(&str, Value)]) -> Aggregate {
        let params: ParamMap = pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect();
        Aggregate::from_params("agg", &params).unwrap()
    }

    fn base_params() -> Vec<(&'static str, Value)> {
        vec![
            ("value", Value::Str("price".into())),
            ("window_secs", Value::Float(600.0)),
            ("period_secs", Value::Float(1.0)),
        ]
    }

    #[test]
    fn aggregates_single_group() {
        let mut a = agg(&base_params());
        let mut h = Harness::new(1);
        for p in [10.0, 20.0, 30.0] {
            h.tuple(&mut a, 0, Tuple::new().with("price", p));
        }
        let out = Harness::tuples_only(h.tick(&mut a));
        assert_eq!(out.len(), 1);
        let t = &out[0].1;
        assert_eq!(t.get_int("count"), Some(3));
        assert_eq!(t.get_f64("min"), Some(10.0));
        assert_eq!(t.get_f64("max"), Some(30.0));
        assert_eq!(t.get_f64("avg"), Some(20.0));
        // Bollinger bands: avg ± 2σ, σ = sqrt(200/3).
        let sigma = (200.0f64 / 3.0).sqrt();
        assert!((t.get_f64("upper").unwrap() - (20.0 + 2.0 * sigma)).abs() < 1e-9);
        assert!((t.get_f64("lower").unwrap() - (20.0 - 2.0 * sigma)).abs() < 1e-9);
        assert_eq!(t.get_bool("full"), Some(false)); // window not yet covered
    }

    #[test]
    fn groups_are_independent() {
        let mut params = base_params();
        params.push(("group_by", Value::Str("sym".into())));
        let mut a = agg(&params);
        let mut h = Harness::new(1);
        h.tuple(&mut a, 0, Tuple::new().with("sym", "A").with("price", 1.0));
        h.tuple(
            &mut a,
            0,
            Tuple::new().with("sym", "B").with("price", 100.0),
        );
        let out = Harness::tuples_only(h.tick(&mut a));
        assert_eq!(out.len(), 2);
        // BTreeMap ordering makes emission deterministic: s:A before s:B.
        assert_eq!(out[0].1.get_str("group"), Some("s:A"));
        assert_eq!(out[0].1.get_f64("avg"), Some(1.0));
        assert_eq!(out[1].1.get_f64("avg"), Some(100.0));
    }

    #[test]
    fn group_keys_are_the_rendered_value() {
        let mut params = base_params();
        params.push(("group_by", Value::Str("k".into())));
        let mut a = agg(&params);
        let mut h = Harness::new(1);
        let keys = [
            Value::Str("a[1]\\b".into()),
            Value::Int(7),
            Value::Str(String::new()),
            Value::Str("a[1]\\b".into()),
        ];
        for (i, key) in keys.iter().enumerate() {
            let t = Tuple::new().with("k", key.clone()).with("price", i as f64);
            h.tuple(&mut a, 0, t);
        }
        let out = Harness::tuples_only(h.tick(&mut a));
        let groups: Vec<(&str, i64)> = out
            .iter()
            .map(|(_, t)| (t.get_str("group").unwrap(), t.get_int("count").unwrap()))
            .collect();
        // One group per distinct value, named as `Value::render` names it
        // (escapes included), the repeated key counted in its first window.
        assert_eq!(groups, [("i:7", 1), ("s:", 1), ("s:a\\l1\\r\\\\b", 2)]);
        for key in &keys {
            assert!(groups.iter().any(|(group, _)| *group == key.render()));
        }
    }

    #[test]
    fn emission_respects_period() {
        let mut params = base_params();
        params[2] = ("period_secs", Value::Float(1.0));
        let mut a = agg(&params);
        let mut h = Harness::new(1);
        h.tuple(&mut a, 0, Tuple::new().with("price", 5.0));
        assert_eq!(h.tick(&mut a).len(), 1); // first tick emits
        h.advance(SimDuration::from_millis(100));
        assert_eq!(h.tick(&mut a).len(), 0); // only 100 ms elapsed
        h.advance(SimDuration::from_millis(900));
        assert_eq!(h.tick(&mut a).len(), 1); // period reached
    }

    #[test]
    fn final_punct_flushes_and_forwards() {
        let mut a = agg(&base_params());
        let mut h = Harness::new(1);
        h.tuple(&mut a, 0, Tuple::new().with("price", 5.0));
        let out = h.punct(&mut a, 0, Punct::Final);
        assert_eq!(out.len(), 2);
        assert!(matches!(out[0].1, StreamItem::Tuple(_)));
        assert!(matches!(out[1].1, StreamItem::Punct(Punct::Final)));
        // After final: ticks are silent, repeat finals swallowed.
        assert!(h.tick(&mut a).is_empty());
        assert!(h.punct(&mut a, 0, Punct::Final).is_empty());
    }

    #[test]
    fn missing_value_attr_faults() {
        let mut a = agg(&base_params());
        let mut metrics = crate::metrics::MetricStore::new();
        let mut rng = sps_sim::SimRng::new(1);
        let mut ctx = crate::op::OpCtx::new(
            SimTime::ZERO,
            SimDuration::from_millis(100),
            "agg",
            1,
            &mut metrics,
            &mut rng,
        );
        a.on_tuple(0, Tuple::new().with("other", 1i64), &mut ctx);
        assert!(ctx.take_fault().is_some());
    }

    #[test]
    fn rejects_bad_params() {
        let params: ParamMap = [
            ("value".to_string(), Value::Str("p".into())),
            ("window_secs".to_string(), Value::Float(0.0)),
            ("period_secs".to_string(), Value::Float(1.0)),
        ]
        .into_iter()
        .collect();
        assert!(Aggregate::from_params("a", &params).is_err());
        assert!(Aggregate::from_params("a", &ParamMap::new()).is_err());
    }

    #[test]
    fn window_fullness_flag_turns_true() {
        let mut params = base_params();
        params[1] = ("window_secs", Value::Float(1.0));
        let mut a = agg(&params);
        let mut h = Harness::new(1);
        h.tuple(&mut a, 0, Tuple::new().with("price", 1.0));
        h.advance(SimDuration::from_millis(1500));
        h.tuple(&mut a, 0, Tuple::new().with("price", 2.0));
        let out = Harness::tuples_only(h.tick(&mut a));
        // Oldest surviving sample is 1.5 s old > 1 s span... it was evicted;
        // the remaining sample alone doesn't cover the span.
        assert_eq!(out[0].1.get_bool("full"), Some(false));
        h.advance(SimDuration::from_millis(1000));
        h.tuple(&mut a, 0, Tuple::new().with("price", 3.0));
        let out = Harness::tuples_only(h.tick(&mut a));
        assert_eq!(out[0].1.get_bool("full"), Some(true));
    }
}
