//! Built-in operator library.
//!
//! Mirrors the SPL standard toolkit subset the paper's applications need:
//! sources (Beacon), relational ops (Filter/Functor/Split/Merge), windowed
//! aggregation and join, flow control (Work), sinks, import/export
//! pass-throughs, and a fault-injection operator for the failure experiments.

mod aggregate;
mod flow;
mod join;
mod relational;
mod sink;
mod source;

pub use aggregate::Aggregate;
pub use flow::{FaultInject, Import, PassThrough, Work};
pub use join::Join;
pub use relational::{Filter, Functor, Merge, Split};
pub use sink::Sink;
pub use source::Beacon;

use crate::error::EngineError;
use sps_model::value::ParamMap;
use sps_model::Value;

/// Parameter access helpers shared by operator constructors.
pub(crate) fn req_str<'p>(
    params: &'p ParamMap,
    op: &str,
    key: &str,
) -> Result<&'p str, EngineError> {
    params
        .get(key)
        .and_then(Value::as_str)
        .ok_or_else(|| EngineError::BadParam {
            op: op.to_string(),
            message: format!("missing string param '{key}'"),
        })
}

pub fn opt_str<'p>(params: &'p ParamMap, key: &str) -> Option<&'p str> {
    params.get(key).and_then(Value::as_str)
}

pub fn opt_i64(params: &ParamMap, op: &str, key: &str) -> Result<Option<i64>, EngineError> {
    match params.get(key) {
        None => Ok(None),
        Some(v) => v.as_int().map(Some).ok_or_else(|| EngineError::BadParam {
            op: op.to_string(),
            message: format!("param '{key}' must be an int"),
        }),
    }
}

pub fn opt_f64(params: &ParamMap, op: &str, key: &str) -> Result<Option<f64>, EngineError> {
    match params.get(key) {
        None => Ok(None),
        Some(v) => v.as_f64().map(Some).ok_or_else(|| EngineError::BadParam {
            op: op.to_string(),
            message: format!("param '{key}' must be numeric"),
        }),
    }
}

pub(crate) fn req_f64(params: &ParamMap, op: &str, key: &str) -> Result<f64, EngineError> {
    opt_f64(params, op, key)?.ok_or_else(|| EngineError::BadParam {
        op: op.to_string(),
        message: format!("missing numeric param '{key}'"),
    })
}

#[cfg(test)]
pub(crate) mod testutil {
    use crate::metrics::MetricStore;
    use crate::op::{OpCtx, Operator, Punct, StreamItem};
    use crate::tuple::Tuple;
    use sps_sim::{SimDuration, SimRng, SimTime};

    /// Drives a single operator directly, without a PE container.
    pub struct Harness {
        pub metrics: MetricStore,
        pub rng: SimRng,
        pub now: SimTime,
        pub quantum: SimDuration,
        pub op_name: String,
        pub num_outputs: usize,
    }

    impl Harness {
        pub fn new(num_outputs: usize) -> Self {
            Harness {
                metrics: MetricStore::new(),
                rng: SimRng::new(7),
                now: SimTime::ZERO,
                quantum: SimDuration::from_millis(100),
                op_name: "test_op".into(),
                num_outputs,
            }
        }

        fn ctx(&mut self) -> OpCtx<'_> {
            OpCtx::new(
                self.now,
                self.quantum,
                &self.op_name,
                self.num_outputs,
                &mut self.metrics,
                &mut self.rng,
            )
        }

        pub fn tuple(
            &mut self,
            op: &mut dyn Operator,
            port: usize,
            t: Tuple,
        ) -> Vec<(usize, StreamItem)> {
            let mut ctx = self.ctx();
            op.on_tuple(port, t, &mut ctx);
            ctx.take_emitted()
        }

        /// Delivers a run of tuples the way the PE does: one `on_tuple`
        /// call each, stopping after a fault.
        pub fn batch(
            &mut self,
            op: &mut dyn Operator,
            port: usize,
            tuples: Vec<Tuple>,
        ) -> Vec<(usize, StreamItem)> {
            let mut ctx = self.ctx();
            for t in tuples {
                if ctx.has_fault() {
                    break;
                }
                op.on_tuple(port, t, &mut ctx);
            }
            ctx.take_emitted()
        }

        pub fn punct(
            &mut self,
            op: &mut dyn Operator,
            port: usize,
            p: Punct,
        ) -> Vec<(usize, StreamItem)> {
            let mut ctx = self.ctx();
            op.on_punct(port, p, &mut ctx);
            ctx.take_emitted()
        }

        pub fn tick(&mut self, op: &mut dyn Operator) -> Vec<(usize, StreamItem)> {
            let mut ctx = self.ctx();
            op.on_tick(&mut ctx);
            ctx.take_emitted()
        }

        pub fn advance(&mut self, d: SimDuration) {
            self.now += d;
        }

        pub fn tuples_only(emitted: Vec<(usize, StreamItem)>) -> Vec<(usize, Tuple)> {
            emitted
                .into_iter()
                .filter_map(|(p, i)| match i {
                    StreamItem::Tuple(t) => Some((p, t)),
                    StreamItem::Punct(_) => None,
                })
                .collect()
        }
    }
}
