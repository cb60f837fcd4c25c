//! Operator factory registry: instantiates operators from ADL invocations.
//!
//! SPL compiles each operator invocation into generated C++; here the
//! runtime looks the operator *kind* up in a registry. Applications register
//! their own kinds (e.g. the sentiment classifier of §5.1) next to the
//! built-ins before submitting jobs.

use crate::error::EngineError;
use crate::op::Operator;
use crate::ops;
use sps_model::adl::AdlOperator;
use std::collections::BTreeMap;

/// Factory signature: given the ADL invocation, build a fresh operator
/// instance. Called at job start and on every PE restart — instances start
/// with empty state (the §5.2 behavior); when checkpointing is enabled the
/// runtime then feeds a recovered blob back through `Operator::restore`.
pub type OperatorFactory = Box<dyn Fn(&AdlOperator) -> Result<Box<dyn Operator>, EngineError>>;

/// Maps operator kinds to factories.
pub struct OperatorRegistry {
    factories: BTreeMap<String, OperatorFactory>,
}

impl Default for OperatorRegistry {
    fn default() -> Self {
        Self::with_builtins()
    }
}

impl OperatorRegistry {
    /// An empty registry (no kinds).
    pub fn empty() -> Self {
        OperatorRegistry {
            factories: BTreeMap::new(),
        }
    }

    /// A registry pre-populated with the built-in operator library.
    pub fn with_builtins() -> Self {
        let mut r = OperatorRegistry::empty();
        r.register("Beacon", |op| {
            Ok(Box::new(ops::Beacon::from_params(&op.name, &op.params)?))
        });
        r.register("Filter", |op| {
            Ok(Box::new(ops::Filter::from_params(&op.name, &op.params)?))
        });
        r.register("Functor", |op| {
            Ok(Box::new(ops::Functor::from_params(&op.name, &op.params)?))
        });
        r.register("Split", |op| {
            Ok(Box::new(ops::Split::from_params(&op.name, &op.params)?))
        });
        r.register("Merge", |op| Ok(Box::new(ops::Merge::new(op.inputs))));
        r.register("Aggregate", |op| {
            Ok(Box::new(ops::Aggregate::from_params(&op.name, &op.params)?))
        });
        r.register("Join", |op| {
            Ok(Box::new(ops::Join::from_params(&op.name, &op.params)?))
        });
        r.register("Work", |op| {
            Ok(Box::new(ops::Work::from_params(&op.name, &op.params)?))
        });
        r.register("Sink", |op| {
            Ok(Box::new(ops::Sink::from_params(&op.name, &op.params)?))
        });
        r.register("FaultInject", |op| {
            Ok(Box::new(ops::FaultInject::from_params(
                &op.name, &op.params,
            )?))
        });
        r.register("PassThrough", |_| Ok(Box::new(ops::PassThrough)));
        r.register("Export", |_| Ok(Box::new(ops::PassThrough)));
        r.register("Import", |_| Ok(Box::new(ops::Import)));
        r
    }

    /// Registers (or replaces) a factory for an operator kind.
    pub fn register(
        &mut self,
        kind: &str,
        factory: impl Fn(&AdlOperator) -> Result<Box<dyn Operator>, EngineError> + 'static,
    ) {
        self.factories.insert(kind.to_string(), Box::new(factory));
    }

    pub fn has_kind(&self, kind: &str) -> bool {
        self.factories.contains_key(kind)
    }

    /// Registered kinds, in sorted order (the map is a `BTreeMap`).
    pub fn kinds(&self) -> Vec<&str> {
        self.factories.keys().map(String::as_str).collect()
    }

    /// Builds a fresh operator instance for an ADL invocation.
    pub fn instantiate(&self, op: &AdlOperator) -> Result<Box<dyn Operator>, EngineError> {
        let factory = self
            .factories
            .get(&op.kind)
            .ok_or_else(|| EngineError::UnknownOperatorKind(op.kind.clone()))?;
        factory(op)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sps_model::value::ParamMap;
    use sps_model::Value;

    fn adl_op(kind: &str, params: ParamMap) -> AdlOperator {
        AdlOperator {
            name: "x".into(),
            kind: kind.into(),
            composite_path: vec![],
            params,
            inputs: 2,
            outputs: 1,
            custom_metrics: vec![],
            pe: 0,
            restartable: true,
            checkpointable: true,
        }
    }

    #[test]
    fn builtins_cover_library() {
        let r = OperatorRegistry::with_builtins();
        for kind in [
            "Beacon",
            "Filter",
            "Functor",
            "Split",
            "Merge",
            "Aggregate",
            "Join",
            "Work",
            "Sink",
            "FaultInject",
            "PassThrough",
            "Export",
            "Import",
        ] {
            assert!(r.has_kind(kind), "missing builtin {kind}");
        }
        assert!(!r.has_kind("Zap"));
        assert_eq!(r.kinds().len(), 13);
    }

    #[test]
    fn instantiate_builds_and_propagates_param_errors() {
        let r = OperatorRegistry::with_builtins();
        assert!(r.instantiate(&adl_op("Merge", ParamMap::new())).is_ok());
        // Filter without predicate → BadParam.
        let err = r
            .instantiate(&adl_op("Filter", ParamMap::new()))
            .err()
            .expect("expected BadParam");
        assert!(matches!(err, EngineError::BadParam { .. }));
        // Unknown kind.
        let err = r
            .instantiate(&adl_op("Zap", ParamMap::new()))
            .err()
            .expect("expected UnknownOperatorKind");
        assert!(matches!(err, EngineError::UnknownOperatorKind(_)));
    }

    #[test]
    fn custom_registration_and_override() {
        struct Nop;
        impl crate::op::Operator for Nop {
            fn on_tuple(&mut self, _p: usize, _t: crate::Tuple, _c: &mut crate::OpCtx) {}
        }
        let mut r = OperatorRegistry::empty();
        assert!(!r.has_kind("MyOp"));
        r.register("MyOp", |_| Ok(Box::new(Nop)));
        assert!(r.has_kind("MyOp"));
        assert!(r.instantiate(&adl_op("MyOp", ParamMap::new())).is_ok());
        // Replacing an existing kind is allowed.
        r.register("MyOp", |_| {
            Err(EngineError::BadParam {
                op: "x".into(),
                message: "always fails".into(),
            })
        });
        assert!(r.instantiate(&adl_op("MyOp", ParamMap::new())).is_err());
    }

    #[test]
    fn merge_factory_uses_input_arity() {
        let r = OperatorRegistry::with_builtins();
        let mut op = r.instantiate(&adl_op("Merge", ParamMap::new())).unwrap();
        // With 2 inputs, one final is not enough to forward.
        let mut metrics = crate::metrics::MetricStore::new();
        let mut rng = sps_sim::SimRng::new(1);
        let mut ctx = crate::op::OpCtx::new(
            sps_sim::SimTime::ZERO,
            sps_sim::SimDuration::from_millis(100),
            "m",
            1,
            &mut metrics,
            &mut rng,
        );
        op.on_punct(0, crate::op::Punct::Final, &mut ctx);
        assert!(ctx.take_emitted().is_empty());
        op.on_punct(1, crate::op::Punct::Final, &mut ctx);
        assert_eq!(ctx.take_emitted().len(), 1);
    }

    #[test]
    fn beacon_param_passthrough() {
        let r = OperatorRegistry::with_builtins();
        let params: ParamMap = [("rate".to_string(), Value::Float(-5.0))]
            .into_iter()
            .collect();
        assert!(r.instantiate(&adl_op("Beacon", params)).is_err());
    }
}
