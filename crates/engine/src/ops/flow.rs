//! Flow-control and plumbing operators: Work, FaultInject, PassThrough
//! (Export), Import.

use crate::ckpt::{StateBlob, StateReader, StateWriter};
use crate::op::{OpCtx, Operator};
use crate::ops::opt_i64;
use crate::tuple::Tuple;
use crate::EngineError;
use sps_model::value::ParamMap;

/// Pass-through that charges extra processing budget per tuple, modelling a
/// CPU-heavy analytic. Used by overload scenarios so `queueSize` grows.
///
/// Parameters: `cost` (int, default 1): budget units per tuple.
pub struct Work {
    cost: u32,
}

impl Work {
    pub fn from_params(op: &str, params: &ParamMap) -> Result<Self, EngineError> {
        let cost = opt_i64(params, op, "cost")?.unwrap_or(1);
        if cost < 1 || cost > u32::MAX as i64 {
            return Err(EngineError::BadParam {
                op: op.to_string(),
                message: "cost must be in [1, 2^32)".into(),
            });
        }
        Ok(Work { cost: cost as u32 })
    }
}

impl Operator for Work {
    fn on_tuple(&mut self, _port: usize, tuple: Tuple, ctx: &mut OpCtx) {
        ctx.submit(0, tuple);
    }

    fn cost_per_tuple(&self) -> u32 {
        self.cost
    }
}

/// Forwards tuples until the n-th, then raises a fatal operator fault —
/// crashing its PE. Drives the §5.2 failure-injection experiments.
///
/// Parameters: `fault_after` (int, optional): fault on the n-th tuple
/// (1-based). Absent = never fault (pure pass-through).
pub struct FaultInject {
    fault_after: Option<i64>,
    processed: i64,
}

impl FaultInject {
    pub fn from_params(op: &str, params: &ParamMap) -> Result<Self, EngineError> {
        Ok(FaultInject {
            fault_after: opt_i64(params, op, "fault_after")?,
            processed: 0,
        })
    }
}

impl Operator for FaultInject {
    fn on_tuple(&mut self, _port: usize, tuple: Tuple, ctx: &mut OpCtx) {
        self.processed += 1;
        if let Some(n) = self.fault_after {
            if self.processed >= n {
                ctx.raise_fault(format!("injected fault after {n} tuples"));
                return;
            }
        }
        ctx.submit(0, tuple);
    }

    fn checkpoint(&self) -> Option<StateBlob> {
        let mut w = StateWriter::new();
        w.put_i64(self.processed);
        Some(w.finish())
    }

    fn restore(&mut self, blob: &StateBlob) -> Result<(), EngineError> {
        self.processed = StateReader::new(blob).get_i64()?;
        Ok(())
    }
}

/// Identity operator; the conventional kind for operators whose output port
/// carries an export spec.
pub struct PassThrough;

impl Operator for PassThrough {
    fn on_tuple(&mut self, _port: usize, tuple: Tuple, ctx: &mut OpCtx) {
        ctx.submit(0, tuple);
    }
}

/// Import pseudo-source: has zero declared inputs (no static stream may
/// connect), but the runtime's import/export broker injects matched tuples
/// from other jobs, which it forwards downstream.
pub struct Import;

impl Operator for Import {
    fn on_tuple(&mut self, _port: usize, tuple: Tuple, ctx: &mut OpCtx) {
        ctx.submit(0, tuple);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::testutil::Harness;
    use sps_model::Value;
    use sps_sim::{SimDuration, SimTime};

    #[test]
    fn work_forwards_with_cost() {
        let params: ParamMap = [("cost".to_string(), Value::Int(25))].into_iter().collect();
        let mut w = Work::from_params("w", &params).unwrap();
        assert_eq!(w.cost_per_tuple(), 25);
        let mut h = Harness::new(1);
        assert_eq!(h.tuple(&mut w, 0, Tuple::new()).len(), 1);
        let default = Work::from_params("w", &ParamMap::new()).unwrap();
        assert_eq!(default.cost_per_tuple(), 1);
    }

    #[test]
    fn work_rejects_bad_cost() {
        let params: ParamMap = [("cost".to_string(), Value::Int(0))].into_iter().collect();
        assert!(Work::from_params("w", &params).is_err());
    }

    #[test]
    fn fault_inject_faults_on_nth_tuple() {
        let params: ParamMap = [("fault_after".to_string(), Value::Int(3))]
            .into_iter()
            .collect();
        let mut f = FaultInject::from_params("f", &params).unwrap();
        let mut metrics = crate::metrics::MetricStore::new();
        let mut rng = sps_sim::SimRng::new(1);
        for i in 1..=3 {
            let mut ctx = crate::op::OpCtx::new(
                SimTime::ZERO,
                SimDuration::from_millis(100),
                "f",
                1,
                &mut metrics,
                &mut rng,
            );
            f.on_tuple(0, Tuple::new(), &mut ctx);
            let fault = ctx.take_fault();
            if i < 3 {
                assert!(fault.is_none());
                assert_eq!(crate::ops::testutil::items(ctx.take_emitted()).len(), 1);
            } else {
                assert!(fault.is_some());
                assert!(crate::ops::testutil::items(ctx.take_emitted()).is_empty());
            }
        }
    }

    #[test]
    fn fault_inject_without_param_is_passthrough() {
        let mut f = FaultInject::from_params("f", &ParamMap::new()).unwrap();
        let mut h = Harness::new(1);
        for _ in 0..100 {
            assert_eq!(h.tuple(&mut f, 0, Tuple::new()).len(), 1);
        }
    }

    #[test]
    fn passthrough_and_import_forward() {
        let mut h = Harness::new(1);
        assert_eq!(h.tuple(&mut PassThrough, 0, Tuple::new()).len(), 1);
        assert_eq!(h.tuple(&mut Import, 0, Tuple::new()).len(), 1);
    }
}
