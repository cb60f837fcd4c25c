//! Windowed stream join.
//!
//! Equi-join between two input ports over sliding time windows — the SPL
//! standard-toolkit Join the paper's applications compose with (e.g.
//! correlating tweets with causes, §5.1's op5). Each arriving tuple probes
//! the opposite window and emits one merged tuple per match.

use crate::ckpt::{StateBlob, StateReader, StateWriter};
use crate::op::{FinalPunctTracker, OpCtx, Operator, Punct};
use crate::ops::{req_f64, req_str};
use crate::tuple::Tuple;
use crate::window::SlidingTimeWindow;
use crate::EngineError;
use sps_model::value::ParamMap;
use sps_sim::SimDuration;

/// Two-way windowed equi-join.
///
/// Parameters:
/// - `key` (str, required): join attribute, present on both inputs,
/// - `window_secs` (float, required): per-side sliding window span,
/// - `prefix_left`/`prefix_right` (str, default `"l_"`/`"r_"`): attribute
///   prefixes applied on name collisions (the key keeps its name).
pub struct Join {
    key: String,
    span: SimDuration,
    prefix: [String; 2],
    windows: [SlidingTimeWindow<Tuple>; 2],
    finals: FinalPunctTracker,
}

impl Join {
    pub fn from_params(op: &str, params: &ParamMap) -> Result<Self, EngineError> {
        let window_secs = req_f64(params, op, "window_secs")?;
        if window_secs <= 0.0 {
            return Err(EngineError::BadParam {
                op: op.to_string(),
                message: "window_secs must be positive".into(),
            });
        }
        let span = SimDuration::from_millis((window_secs * 1000.0) as u64);
        let pl = params
            .get("prefix_left")
            .and_then(sps_model::Value::as_str)
            .unwrap_or("l_")
            .to_string();
        let pr = params
            .get("prefix_right")
            .and_then(sps_model::Value::as_str)
            .unwrap_or("r_")
            .to_string();
        Ok(Join {
            key: req_str(params, op, "key")?.to_string(),
            span,
            prefix: [pl, pr],
            windows: [SlidingTimeWindow::new(span), SlidingTimeWindow::new(span)],
            finals: FinalPunctTracker::new(2),
        })
    }

    /// Merges `probe` (from side `probe_side`) with `stored` from the other
    /// side into one output tuple.
    fn merge(&self, probe: &Tuple, probe_side: usize, stored: &Tuple) -> Tuple {
        let (left, right) = if probe_side == 0 {
            (probe, stored)
        } else {
            (stored, probe)
        };
        // Start from the left row, so the output's schema hangs off the
        // left stream's and is found again for every later match.
        let mut out = left.clone();
        for (name, value) in right.iter() {
            if **name == *self.key {
                continue; // equal by definition
            }
            if out.get(name).is_some() {
                // Collision: re-house both sides under their prefixes.
                let l = out.remove(name).expect("collision present");
                out.set(&format!("{}{name}", self.prefix[0]), l);
                out.set(&format!("{}{name}", self.prefix[1]), value.clone());
            } else {
                out.set(name, value.clone());
            }
        }
        out
    }
}

impl Operator for Join {
    fn on_tuple(&mut self, port: usize, tuple: Tuple, ctx: &mut OpCtx) {
        let side = port.min(1);
        let Some(key_value) = tuple.get(&self.key).cloned() else {
            ctx.raise_fault(format!("join key '{}' missing on port {port}", self.key));
            return;
        };
        let now = ctx.now();
        // Probe the opposite window, emitting one output per match.
        let other = 1 - side;
        self.windows[other].evict(now);
        let matches: Vec<Tuple> = self.windows[other]
            .iter()
            .filter(|(_, t)| t.get(&self.key) == Some(&key_value))
            .map(|(_, t)| t.clone())
            .collect();
        for m in matches {
            ctx.submit(0, self.merge(&tuple, side, &m));
        }
        self.windows[side].push(now, tuple);
    }

    fn on_punct(&mut self, port: usize, punct: Punct, ctx: &mut OpCtx) {
        match punct {
            Punct::Window => ctx.submit_punct(0, Punct::Window),
            Punct::Final => {
                if self.finals.mark(port.min(1)) {
                    ctx.submit_punct(0, Punct::Final);
                }
            }
        }
    }

    fn checkpoint(&self) -> Option<StateBlob> {
        let mut w = StateWriter::new();
        self.finals.encode(&mut w);
        for window in &self.windows {
            w.put_u32(window.len() as u32);
            for (at, t) in window.iter() {
                w.put_time(*at);
                w.put_tuple(t);
            }
        }
        Some(w.finish())
    }

    fn restore(&mut self, blob: &StateBlob) -> Result<(), EngineError> {
        let mut r = StateReader::new(blob);
        self.finals = FinalPunctTracker::decode(&mut r)?;
        for window in &mut self.windows {
            *window = SlidingTimeWindow::new(self.span);
            for _ in 0..r.get_u32()? {
                let at = r.get_time()?;
                let t = r.get_tuple()?;
                window.push(at, t);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::StreamItem;
    use crate::ops::testutil::Harness;
    use sps_model::Value;

    fn join(window_secs: f64) -> Join {
        let params: ParamMap = [
            ("key".to_string(), Value::Str("sym".into())),
            ("window_secs".to_string(), Value::Float(window_secs)),
        ]
        .into_iter()
        .collect();
        Join::from_params("j", &params).unwrap()
    }

    #[test]
    fn matches_across_sides_within_window() {
        let mut j = join(100.0);
        let mut h = Harness::new(1);
        // Left side: a quote for IBM.
        assert!(h
            .tuple(&mut j, 0, Tuple::new().with("sym", "IBM").with("bid", 10.0))
            .is_empty());
        // Right side: a trade for IBM → joins with the stored quote.
        let out = Harness::tuples_only(h.tuple(
            &mut j,
            1,
            Tuple::new().with("sym", "IBM").with("qty", 5i64),
        ));
        assert_eq!(out.len(), 1);
        let t = &out[0].1;
        assert_eq!(t.get_str("sym"), Some("IBM"));
        assert_eq!(t.get_f64("bid"), Some(10.0));
        assert_eq!(t.get_int("qty"), Some(5));
        // Non-matching key joins nothing.
        assert!(h
            .tuple(
                &mut j,
                1,
                Tuple::new().with("sym", "AAPL").with("qty", 1i64)
            )
            .is_empty());
    }

    #[test]
    fn window_expiry_prevents_stale_joins() {
        let mut j = join(1.0);
        let mut h = Harness::new(1);
        h.tuple(&mut j, 0, Tuple::new().with("sym", "X").with("v", 1i64));
        h.advance(sps_sim::SimDuration::from_secs(5));
        // The stored left tuple expired.
        let out = h.tuple(&mut j, 1, Tuple::new().with("sym", "X").with("w", 2i64));
        assert!(out.is_empty());
    }

    #[test]
    fn one_probe_can_match_many() {
        let mut j = join(100.0);
        let mut h = Harness::new(1);
        for i in 0..3i64 {
            h.tuple(&mut j, 0, Tuple::new().with("sym", "X").with("i", i));
        }
        let out = Harness::tuples_only(h.tuple(
            &mut j,
            1,
            Tuple::new().with("sym", "X").with("probe", true),
        ));
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn collision_attributes_get_prefixes() {
        let mut j = join(100.0);
        let mut h = Harness::new(1);
        h.tuple(&mut j, 0, Tuple::new().with("sym", "X").with("ts", 1i64));
        let out = Harness::tuples_only(h.tuple(
            &mut j,
            1,
            Tuple::new().with("sym", "X").with("ts", 2i64),
        ));
        let t = &out[0].1;
        assert_eq!(t.get("ts"), None);
        assert_eq!(t.get_int("l_ts"), Some(1));
        assert_eq!(t.get_int("r_ts"), Some(2));
        assert_eq!(t.get_str("sym"), Some("X"));
    }

    #[test]
    fn final_punct_waits_for_both_sides() {
        let mut j = join(10.0);
        let mut h = Harness::new(1);
        assert!(h.punct(&mut j, 0, Punct::Final).is_empty());
        let out = h.punct(&mut j, 1, Punct::Final);
        assert_eq!(out.len(), 1);
        assert!(matches!(out[0].1, StreamItem::Punct(Punct::Final)));
    }

    #[test]
    fn missing_key_faults() {
        let mut j = join(10.0);
        let mut metrics = crate::metrics::MetricStore::new();
        let mut rng = sps_sim::SimRng::new(1);
        let mut ctx = crate::op::OpCtx::new(
            sps_sim::SimTime::ZERO,
            sps_sim::SimDuration::from_millis(100),
            "j",
            1,
            &mut metrics,
            &mut rng,
        );
        j.on_tuple(0, Tuple::new().with("other", 1i64), &mut ctx);
        assert!(ctx.take_fault().is_some());
    }

    #[test]
    fn rejects_bad_params() {
        assert!(Join::from_params("j", &ParamMap::new()).is_err());
        let params: ParamMap = [
            ("key".to_string(), Value::Str("k".into())),
            ("window_secs".to_string(), Value::Float(0.0)),
        ]
        .into_iter()
        .collect();
        assert!(Join::from_params("j", &params).is_err());
    }
}
