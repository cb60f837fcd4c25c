//! The ADL: the flat application description produced by compilation.
//!
//! Mirrors the paper's ADL (§2.1): operator instances with their
//! composite-containment relationship, PE partitioning, host placement
//! constraints, stream edges, and import/export specs. The ADL is the value
//! [`compile`](crate::compile) returns: the runtime (SAM) instantiates
//! applications from it, and the ORCA service builds its in-memory
//! stream-graph representation from it (§3).

use crate::error::ModelError;
use crate::logical::{ExportSpec, HostPool, ImportSpec};
use crate::value::ParamMap;
use serde::{Deserialize, Serialize};

/// One flattened operator instance.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct AdlOperator {
    /// Full instance name: composite instance path joined with '.', e.g.
    /// `"c1.op3"` for op3 inside composite instance c1 (the paper's op3').
    pub name: String,
    pub kind: String,
    /// Enclosing composite instances, outermost first:
    /// `(instance_path, composite_type)` pairs.
    pub composite_path: Vec<(String, String)>,
    pub params: ParamMap,
    pub inputs: usize,
    pub outputs: usize,
    pub custom_metrics: Vec<String>,
    /// Index into [`Adl::pes`].
    pub pe: usize,
    pub restartable: bool,
    /// Whether the runtime may checkpoint/restore this operator's state
    /// across PE restarts (a PE is checkpointed only when *all* its fused
    /// operators are checkpointable).
    pub checkpointable: bool,
}

/// One processing element (operating-system process at runtime).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct AdlPe {
    pub index: usize,
    /// Operator instance names fused into this PE, in topological-ish order.
    pub operators: Vec<String>,
    /// Host pool the PE must be placed in (None = default pool).
    pub host_pool: Option<String>,
    /// PEs sharing a host-exlocation tag must land on distinct hosts.
    pub host_exlocate: Option<String>,
}

/// A flat stream edge between operator instances.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct AdlStream {
    pub from_op: String,
    pub from_port: usize,
    pub to_op: String,
    pub to_port: usize,
}

/// An import subscription attached to a source operator instance.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct AdlImport {
    pub op: String,
    pub spec: ImportSpec,
}

/// An exported output port of an operator instance.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct AdlExport {
    pub op: String,
    pub port: usize,
    pub spec: ExportSpec,
}

/// The complete compiled application description.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Adl {
    pub app_name: String,
    pub operators: Vec<AdlOperator>,
    pub pes: Vec<AdlPe>,
    pub streams: Vec<AdlStream>,
    pub imports: Vec<AdlImport>,
    pub exports: Vec<AdlExport>,
    pub host_pools: Vec<HostPool>,
}

impl Adl {
    pub fn operator(&self, name: &str) -> Option<&AdlOperator> {
        self.operators.iter().find(|o| o.name == name)
    }

    pub fn pe_of(&self, op_name: &str) -> Option<usize> {
        self.operator(op_name).map(|o| o.pe)
    }

    /// Rewrites every host pool to be exclusive, cloning pool identity per
    /// application instance. This is the §4.3 actuation: "run only in
    /// exclusive host pools". Called by the ORCA service before submission.
    pub fn make_host_pools_exclusive(&mut self, uniquifier: &str) {
        if self.host_pools.is_empty() {
            // Synthesize a default pool so exclusivity is expressible.
            self.host_pools.push(HostPool {
                name: format!("default@{uniquifier}"),
                hosts: Vec::new(),
                tag: None,
                exclusive: true,
            });
            for pe in &mut self.pes {
                if pe.host_pool.is_none() {
                    pe.host_pool = Some(format!("default@{uniquifier}"));
                }
            }
            return;
        }
        for pool in &mut self.host_pools {
            let old = pool.name.clone();
            pool.name = format!("{old}@{uniquifier}");
            pool.exclusive = true;
            for pe in &mut self.pes {
                if pe.host_pool.as_deref() == Some(old.as_str()) {
                    pe.host_pool = Some(pool.name.clone());
                }
            }
        }
        for pe in &mut self.pes {
            if pe.host_pool.is_none() {
                pe.host_pool = Some(self.host_pools[0].name.clone());
            }
        }
    }

    /// Structural consistency checks (a compiler post-condition, checked
    /// again when the runtime accepts a job).
    pub fn validate(&self) -> Result<(), ModelError> {
        use std::collections::BTreeSet;
        let mut names = BTreeSet::new();
        for op in &self.operators {
            if !names.insert(op.name.as_str()) {
                return Err(ModelError::DuplicateName(op.name.clone()));
            }
            if op.pe >= self.pes.len() {
                return Err(ModelError::Invalid(format!(
                    "operator {} references PE {} out of {}",
                    op.name,
                    op.pe,
                    self.pes.len()
                )));
            }
        }
        for (i, pe) in self.pes.iter().enumerate() {
            if pe.index != i {
                return Err(ModelError::Invalid(format!(
                    "PE at position {i} has index {}",
                    pe.index
                )));
            }
            for op_name in &pe.operators {
                let op = self
                    .operator(op_name)
                    .ok_or_else(|| ModelError::Unknown(format!("PE operator {op_name}")))?;
                if op.pe != i {
                    return Err(ModelError::Invalid(format!(
                        "operator {op_name} listed in PE {i} but assigned to PE {}",
                        op.pe
                    )));
                }
            }
            if let Some(pool) = &pe.host_pool {
                if !self.host_pools.iter().any(|p| &p.name == pool) {
                    return Err(ModelError::Unknown(format!("host pool {pool}")));
                }
            }
        }
        // Every operator must be listed by its PE.
        for op in &self.operators {
            if !self.pes[op.pe].operators.contains(&op.name) {
                return Err(ModelError::Invalid(format!(
                    "operator {} not listed in PE {}",
                    op.name, op.pe
                )));
            }
        }
        for s in &self.streams {
            let from = self
                .operator(&s.from_op)
                .ok_or_else(|| ModelError::Unknown(format!("stream source {}", s.from_op)))?;
            let to = self
                .operator(&s.to_op)
                .ok_or_else(|| ModelError::Unknown(format!("stream target {}", s.to_op)))?;
            if s.from_port >= from.outputs {
                return Err(ModelError::BadPort(format!(
                    "{}:{} (operator has {} outputs)",
                    s.from_op, s.from_port, from.outputs
                )));
            }
            if s.to_port >= to.inputs {
                return Err(ModelError::BadPort(format!(
                    "{}:{} (operator has {} inputs)",
                    s.to_op, s.to_port, to.inputs
                )));
            }
        }
        for imp in &self.imports {
            if self.operator(&imp.op).is_none() {
                return Err(ModelError::Unknown(format!("import operator {}", imp.op)));
            }
        }
        for exp in &self.exports {
            let op = self
                .operator(&exp.op)
                .ok_or_else(|| ModelError::Unknown(format!("export operator {}", exp.op)))?;
            if exp.port >= op.outputs {
                return Err(ModelError::BadPort(format!(
                    "export {}:{}",
                    exp.op, exp.port
                )));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    fn sample_adl() -> Adl {
        Adl {
            app_name: "Sample".into(),
            operators: vec![
                AdlOperator {
                    name: "src".into(),
                    kind: "Beacon".into(),
                    composite_path: vec![],
                    params: [("rate".to_string(), Value::Int(10))].into_iter().collect(),
                    inputs: 0,
                    outputs: 1,
                    custom_metrics: vec![],
                    pe: 0,
                    restartable: true,
                    checkpointable: true,
                },
                AdlOperator {
                    name: "c1.work".into(),
                    kind: "Work".into(),
                    composite_path: vec![("c1".into(), "comp".into())],
                    params: ParamMap::new(),
                    inputs: 1,
                    outputs: 1,
                    custom_metrics: vec!["quality".into()],
                    pe: 1,
                    restartable: false,
                    checkpointable: true,
                },
                AdlOperator {
                    name: "snk".into(),
                    kind: "Sink".into(),
                    composite_path: vec![],
                    params: ParamMap::new(),
                    inputs: 1,
                    outputs: 0,
                    custom_metrics: vec![],
                    pe: 1,
                    restartable: true,
                    checkpointable: true,
                },
            ],
            pes: vec![
                AdlPe {
                    index: 0,
                    operators: vec!["src".into()],
                    host_pool: Some("pool1".into()),
                    host_exlocate: None,
                },
                AdlPe {
                    index: 1,
                    operators: vec!["c1.work".into(), "snk".into()],
                    host_pool: None,
                    host_exlocate: Some("x".into()),
                },
            ],
            streams: vec![
                AdlStream {
                    from_op: "src".into(),
                    from_port: 0,
                    to_op: "c1.work".into(),
                    to_port: 0,
                },
                AdlStream {
                    from_op: "c1.work".into(),
                    from_port: 0,
                    to_op: "snk".into(),
                    to_port: 0,
                },
            ],
            imports: vec![AdlImport {
                op: "src".into(),
                spec: ImportSpec::by_id("feed").from_app("Other"),
            }],
            exports: vec![AdlExport {
                op: "c1.work".into(),
                port: 0,
                spec: ExportSpec::by_id("results").with_property("topic", "w"),
            }],
            host_pools: vec![HostPool::explicit("pool1", &["h1", "h2"])],
        }
    }

    #[test]
    fn validate_accepts_sample() {
        assert!(sample_adl().validate().is_ok());
    }

    #[test]
    fn validate_rejects_bad_pe_ref() {
        let mut adl = sample_adl();
        adl.operators[0].pe = 9;
        assert!(adl.validate().is_err());
    }

    #[test]
    fn validate_rejects_inconsistent_pe_listing() {
        let mut adl = sample_adl();
        adl.pes[0].operators.clear();
        assert!(adl.validate().is_err());
    }

    #[test]
    fn validate_rejects_bad_stream_port() {
        let mut adl = sample_adl();
        adl.streams[0].from_port = 5;
        assert!(matches!(adl.validate(), Err(ModelError::BadPort(_))));
    }

    #[test]
    fn validate_rejects_unknown_pool() {
        let mut adl = sample_adl();
        adl.pes[0].host_pool = Some("ghost".into());
        assert!(matches!(adl.validate(), Err(ModelError::Unknown(_))));
    }

    #[test]
    fn validate_rejects_duplicate_operator() {
        let mut adl = sample_adl();
        let dup = adl.operators[0].clone();
        adl.operators.push(dup);
        assert!(matches!(adl.validate(), Err(ModelError::DuplicateName(_))));
    }

    #[test]
    fn exclusive_rewrite_renames_pools() {
        let mut adl = sample_adl();
        adl.make_host_pools_exclusive("replica0");
        assert!(adl.host_pools.iter().all(|p| p.exclusive));
        assert_eq!(adl.host_pools[0].name, "pool1@replica0");
        assert_eq!(adl.pes[0].host_pool.as_deref(), Some("pool1@replica0"));
        // PE 1 had no pool; it now gets one so exclusivity is total.
        assert!(adl.pes[1].host_pool.is_some());
        assert!(adl.validate().is_ok());
    }

    #[test]
    fn exclusive_rewrite_synthesizes_default_pool() {
        let mut adl = sample_adl();
        adl.host_pools.clear();
        adl.pes[0].host_pool = None;
        adl.make_host_pools_exclusive("r1");
        assert_eq!(adl.host_pools.len(), 1);
        assert!(adl.host_pools[0].exclusive);
        assert!(adl.pes.iter().all(|pe| pe.host_pool.is_some()));
    }

    #[test]
    fn pe_of_lookup() {
        let adl = sample_adl();
        assert_eq!(adl.pe_of("snk"), Some(1));
        assert_eq!(adl.pe_of("ghost"), None);
    }
}
