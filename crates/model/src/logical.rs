//! Logical application model: operators, composite operators, streams,
//! import/export, host pools, and partition/placement constraints.
//!
//! Mirrors the SPL concepts the paper relies on (§2.1): developers assemble a
//! data-flow graph whose vertices are operator invocations or instantiations
//! of reusable *composite operators*; the compiler later flattens this
//! logical view into the physical (PE-level) view. The logical/physical split
//! is the crux of the orchestrator's graph-disambiguation machinery.

use crate::error::ModelError;
use crate::value::{ParamMap, Value};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// A pool of hosts that PEs can be placed on (§4.3).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct HostPool {
    pub name: String,
    /// Explicit host names. Empty means "resolve by tag at submission".
    pub hosts: Vec<String>,
    /// Tag resolved against the cluster's host tags at submission time.
    pub tag: Option<String>,
    /// Exclusive pools may not be shared with any other application — the
    /// orchestrator's replica policy rewrites pools to exclusive before
    /// submission (paper §4.3/§5.2).
    pub exclusive: bool,
}

impl HostPool {
    pub fn explicit(name: &str, hosts: &[&str]) -> Self {
        HostPool {
            name: name.to_string(),
            hosts: hosts.iter().map(|h| h.to_string()).collect(),
            tag: None,
            exclusive: false,
        }
    }

    pub fn tagged(name: &str, tag: &str) -> Self {
        HostPool {
            name: name.to_string(),
            hosts: Vec::new(),
            tag: Some(tag.to_string()),
            exclusive: false,
        }
    }

    pub fn exclusive(mut self) -> Self {
        self.exclusive = true;
        self
    }
}

/// Export specification: makes a stream available for dynamic cross-job
/// connection (§2.1). Streams are matched either by an explicit id or by
/// property subscription.
#[derive(Clone, Debug, PartialEq, Default, Serialize, Deserialize)]
pub struct ExportSpec {
    pub stream_id: Option<String>,
    pub properties: BTreeMap<String, Value>,
}

impl ExportSpec {
    pub fn by_id(id: &str) -> Self {
        ExportSpec {
            stream_id: Some(id.to_string()),
            properties: BTreeMap::new(),
        }
    }

    pub fn with_property(mut self, key: &str, value: impl Into<Value>) -> Self {
        self.properties.insert(key.to_string(), value.into());
        self
    }
}

/// Import specification: subscribes to exported streams of other jobs.
#[derive(Clone, Debug, PartialEq, Default, Serialize, Deserialize)]
pub struct ImportSpec {
    /// Match a specific exported stream id.
    pub stream_id: Option<String>,
    /// Property equality subscription (all entries must match the export).
    pub subscription: BTreeMap<String, Value>,
    /// Restrict matching to exports of a specific application name.
    pub app_filter: Option<String>,
}

impl ImportSpec {
    pub fn by_id(id: &str) -> Self {
        ImportSpec {
            stream_id: Some(id.to_string()),
            ..Default::default()
        }
    }

    pub fn subscribe(mut self, key: &str, value: impl Into<Value>) -> Self {
        self.subscription.insert(key.to_string(), value.into());
        self
    }

    pub fn from_app(mut self, app: &str) -> Self {
        self.app_filter = Some(app.to_string());
        self
    }

    /// Does this import match the given export (from the given app)?
    pub fn matches(&self, export: &ExportSpec, app_name: &str) -> bool {
        if let Some(filter) = &self.app_filter {
            if filter != app_name {
                return false;
            }
        }
        if let Some(id) = &self.stream_id {
            return export.stream_id.as_deref() == Some(id.as_str());
        }
        if self.subscription.is_empty() {
            return false;
        }
        self.subscription
            .iter()
            .all(|(k, v)| export.properties.get(k) == Some(v))
    }
}

/// One operator invocation inside a composite body.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct OperatorInvocation {
    /// Operator type, e.g. `"Split"`, `"Aggregate"`, or an
    /// application-defined kind registered with the engine.
    pub kind: String,
    pub params: ParamMap,
    pub inputs: usize,
    pub outputs: usize,
    /// Custom metrics the operator will maintain (§2.1); declared here so
    /// the graph store can answer "which operators expose metric m".
    pub custom_metrics: Vec<String>,
    /// Partition colocation: operators sharing a tag are fused into one PE.
    pub colocate: Option<String>,
    /// Partition exlocation: operators sharing a tag must be in distinct PEs.
    pub exlocate: Option<String>,
    /// Host pool this operator's PE must be placed in.
    pub host_pool: Option<String>,
    /// Host exlocation: PEs containing operators with the same tag must run
    /// on different hosts (used by the replica use case, §5.2).
    pub host_exlocate: Option<String>,
    /// Whether SAM may restart this operator's PE after a crash.
    pub restartable: bool,
    /// Whether the runtime may checkpoint this operator's state and restore
    /// it on restart (on by default; opt out for operators whose state must
    /// never be revived, e.g. side-effectful actuators).
    pub checkpointable: bool,
    /// Stream exports on output ports.
    pub exports: Vec<(usize, ExportSpec)>,
    /// Import subscription (only meaningful for `inputs == 0` pseudo-sources).
    pub import: Option<ImportSpec>,
}

impl OperatorInvocation {
    pub fn new(kind: &str) -> Self {
        OperatorInvocation {
            kind: kind.to_string(),
            params: ParamMap::new(),
            inputs: 1,
            outputs: 1,
            custom_metrics: Vec::new(),
            colocate: None,
            exlocate: None,
            host_pool: None,
            host_exlocate: None,
            restartable: true,
            checkpointable: true,
            exports: Vec::new(),
            import: None,
        }
    }

    pub fn param(mut self, key: &str, value: impl Into<Value>) -> Self {
        self.params.insert(key.to_string(), value.into());
        self
    }

    pub fn ports(mut self, inputs: usize, outputs: usize) -> Self {
        self.inputs = inputs;
        self.outputs = outputs;
        self
    }

    pub fn source(self) -> Self {
        self.ports(0, 1)
    }

    pub fn sink(self) -> Self {
        self.ports(1, 0)
    }

    pub fn custom_metric(mut self, name: &str) -> Self {
        self.custom_metrics.push(name.to_string());
        self
    }

    pub fn colocate(mut self, tag: &str) -> Self {
        self.colocate = Some(tag.to_string());
        self
    }

    pub fn exlocate(mut self, tag: &str) -> Self {
        self.exlocate = Some(tag.to_string());
        self
    }

    pub fn host_pool(mut self, pool: &str) -> Self {
        self.host_pool = Some(pool.to_string());
        self
    }

    pub fn host_exlocate(mut self, tag: &str) -> Self {
        self.host_exlocate = Some(tag.to_string());
        self
    }

    pub fn not_restartable(mut self) -> Self {
        self.restartable = false;
        self
    }

    pub fn not_checkpointable(mut self) -> Self {
        self.checkpointable = false;
        self
    }

    pub fn export(mut self, port: usize, spec: ExportSpec) -> Self {
        self.exports.push((port, spec));
        self
    }

    pub fn import_spec(mut self, spec: ImportSpec) -> Self {
        self.import = Some(spec);
        self
    }
}

/// A vertex in a composite body: either a concrete operator or an instance of
/// another composite type.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum NodeRef {
    Operator(Box<OperatorInvocation>),
    Composite { type_name: String },
}

/// A stream edge inside one composite body, between local node ports.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct StreamDef {
    pub from_node: String,
    pub from_port: usize,
    pub to_node: String,
    pub to_port: usize,
}

/// A composite operator definition: a named, reusable sub-graph with typed
/// boundary ports (§2.1, Figure 2).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CompositeDef {
    pub type_name: String,
    /// Node name → node, insertion-ordered.
    pub nodes: Vec<(String, NodeRef)>,
    pub streams: Vec<StreamDef>,
    /// For each composite input port: the inner (node, port) endpoints fed by
    /// it (fan-out allowed).
    pub input_bindings: Vec<Vec<(String, usize)>>,
    /// For each composite output port: the inner (node, port) producing it.
    pub output_bindings: Vec<(String, usize)>,
}

impl CompositeDef {
    pub fn node(&self, name: &str) -> Option<&NodeRef> {
        self.nodes.iter().find(|(n, _)| n == name).map(|(_, r)| r)
    }

    pub fn inputs(&self) -> usize {
        self.input_bindings.len()
    }

    pub fn outputs(&self) -> usize {
        self.output_bindings.len()
    }
}

/// Builder for a composite body (also used for the application's main graph).
pub struct CompositeGraphBuilder {
    type_name: String,
    nodes: Vec<(String, NodeRef)>,
    streams: Vec<StreamDef>,
    input_bindings: Vec<Vec<(String, usize)>>,
    output_bindings: Vec<(String, usize)>,
}

impl CompositeGraphBuilder {
    /// Starts a reusable composite type with the given boundary port counts.
    pub fn new(type_name: &str, inputs: usize, outputs: usize) -> Self {
        CompositeGraphBuilder {
            type_name: type_name.to_string(),
            nodes: Vec::new(),
            streams: Vec::new(),
            input_bindings: vec![Vec::new(); inputs],
            output_bindings: Vec::with_capacity(outputs),
        }
    }

    /// Starts the main (top-level) application graph.
    pub fn main() -> Self {
        CompositeGraphBuilder::new("<main>", 0, 0)
    }

    /// Adds an operator invocation under a local name.
    pub fn operator(&mut self, name: &str, inv: OperatorInvocation) -> &mut Self {
        self.nodes
            .push((name.to_string(), NodeRef::Operator(Box::new(inv))));
        self
    }

    /// Instantiates a composite type under a local name.
    pub fn composite(&mut self, name: &str, type_name: &str) -> &mut Self {
        self.nodes.push((
            name.to_string(),
            NodeRef::Composite {
                type_name: type_name.to_string(),
            },
        ));
        self
    }

    /// Connects `(from, from_port)` to `(to, to_port)`.
    pub fn stream(&mut self, from: &str, from_port: usize, to: &str, to_port: usize) -> &mut Self {
        self.streams.push(StreamDef {
            from_node: from.to_string(),
            from_port,
            to_node: to.to_string(),
            to_port,
        });
        self
    }

    /// Convenience: connect port 0 to port 0.
    pub fn pipe(&mut self, from: &str, to: &str) -> &mut Self {
        self.stream(from, 0, to, 0)
    }

    /// Binds composite input port `port` to an inner node input.
    pub fn bind_input(&mut self, port: usize, node: &str, node_port: usize) -> &mut Self {
        assert!(port < self.input_bindings.len(), "input port out of range");
        self.input_bindings[port].push((node.to_string(), node_port));
        self
    }

    /// Binds the next composite output port to an inner node output.
    pub fn bind_output(&mut self, node: &str, node_port: usize) -> &mut Self {
        self.output_bindings.push((node.to_string(), node_port));
        self
    }

    /// Validates local structure and produces the definition.
    pub fn build(self) -> Result<CompositeDef, ModelError> {
        let mut seen = BTreeSet::new();
        for (name, _) in &self.nodes {
            if !seen.insert(name.clone()) {
                return Err(ModelError::DuplicateName(format!(
                    "node '{name}' in composite '{}'",
                    self.type_name
                )));
            }
            if name.contains('.') {
                return Err(ModelError::Invalid(format!(
                    "node name '{name}' may not contain '.' (reserved as the \
                     composite-path separator)"
                )));
            }
        }
        let def = CompositeDef {
            type_name: self.type_name,
            nodes: self.nodes,
            streams: self.streams,
            input_bindings: self.input_bindings,
            output_bindings: self.output_bindings,
        };
        // Local stream endpoints must exist (ports are validated against
        // operator arity during compilation, when composite arities are
        // known).
        for s in &def.streams {
            for node in [&s.from_node, &s.to_node] {
                if def.node(node).is_none() {
                    return Err(ModelError::Unknown(format!(
                        "stream endpoint '{node}' in composite '{}'",
                        def.type_name
                    )));
                }
            }
        }
        for bindings in &def.input_bindings {
            for (node, _) in bindings {
                if def.node(node).is_none() {
                    return Err(ModelError::Unknown(format!(
                        "input binding node '{node}' in composite '{}'",
                        def.type_name
                    )));
                }
            }
        }
        for (node, _) in &def.output_bindings {
            if def.node(node).is_none() {
                return Err(ModelError::Unknown(format!(
                    "output binding node '{node}' in composite '{}'",
                    def.type_name
                )));
            }
        }
        Ok(def)
    }
}

/// A complete logical application: a main graph, the composite types it
/// uses, and its host pools.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct AppModel {
    pub name: String,
    pub composites: BTreeMap<String, CompositeDef>,
    pub main: CompositeDef,
    pub host_pools: Vec<HostPool>,
}

/// Builder for [`AppModel`].
pub struct AppModelBuilder {
    name: String,
    composites: BTreeMap<String, CompositeDef>,
    host_pools: Vec<HostPool>,
}

impl AppModelBuilder {
    pub fn new(name: &str) -> Self {
        AppModelBuilder {
            name: name.to_string(),
            composites: BTreeMap::new(),
            host_pools: Vec::new(),
        }
    }

    pub fn host_pool(&mut self, pool: HostPool) -> &mut Self {
        self.host_pools.push(pool);
        self
    }

    pub fn add_composite(&mut self, def: CompositeDef) -> Result<&mut Self, ModelError> {
        if self.composites.contains_key(&def.type_name) {
            return Err(ModelError::DuplicateName(format!(
                "composite type '{}'",
                def.type_name
            )));
        }
        self.composites.insert(def.type_name.clone(), def);
        Ok(self)
    }

    /// Finalizes the model with the given main graph, validating composite
    /// references and rejecting recursive composites.
    pub fn build(self, main: CompositeDef) -> Result<AppModel, ModelError> {
        let mut pool_names = BTreeSet::new();
        for p in &self.host_pools {
            if !pool_names.insert(p.name.clone()) {
                return Err(ModelError::DuplicateName(format!("host pool '{}'", p.name)));
            }
        }
        let model = AppModel {
            name: self.name,
            composites: self.composites,
            main,
            host_pools: self.host_pools,
        };
        model.validate_composite_refs()?;
        model.check_recursion()?;
        Ok(model)
    }
}

impl AppModel {
    fn validate_composite_refs(&self) -> Result<(), ModelError> {
        let check = |def: &CompositeDef| -> Result<(), ModelError> {
            for (_, node) in &def.nodes {
                if let NodeRef::Composite { type_name } = node {
                    if !self.composites.contains_key(type_name) {
                        return Err(ModelError::Unknown(format!("composite type '{type_name}'")));
                    }
                }
            }
            Ok(())
        };
        check(&self.main)?;
        for def in self.composites.values() {
            check(def)?;
        }
        Ok(())
    }

    fn check_recursion(&self) -> Result<(), ModelError> {
        // DFS with an explicit path over the composite-type reference graph.
        fn visit(model: &AppModel, ty: &str, path: &mut Vec<String>) -> Result<(), ModelError> {
            if path.iter().any(|p| p == ty) {
                return Err(ModelError::RecursiveComposite(ty.to_string()));
            }
            path.push(ty.to_string());
            let def = &model.composites[ty];
            for (_, node) in &def.nodes {
                if let NodeRef::Composite { type_name } = node {
                    visit(model, type_name, path)?;
                }
            }
            path.pop();
            Ok(())
        }
        let mut path = Vec::new();
        for (_, node) in &self.main.nodes {
            if let NodeRef::Composite { type_name } = node {
                visit(self, type_name, &mut path)?;
            }
        }
        Ok(())
    }

    pub fn host_pool(&self, name: &str) -> Option<&HostPool> {
        self.host_pools.iter().find(|p| p.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn split_merge_composite() -> CompositeDef {
        // The composite1 of Figure 2: op3 (split) -> op4, op5 -> op6 (merge).
        let mut b = CompositeGraphBuilder::new("composite1", 1, 1);
        b.operator("op3", OperatorInvocation::new("Split").ports(1, 2));
        b.operator("op4", OperatorInvocation::new("Work"));
        b.operator("op5", OperatorInvocation::new("Work"));
        b.operator("op6", OperatorInvocation::new("Merge").ports(2, 1));
        b.stream("op3", 0, "op4", 0);
        b.stream("op3", 1, "op5", 0);
        b.stream("op4", 0, "op6", 0);
        b.stream("op5", 0, "op6", 1);
        b.bind_input(0, "op3", 0);
        b.bind_output("op6", 0);
        b.build().unwrap()
    }

    #[test]
    fn builds_figure2_model() {
        let mut app = AppModelBuilder::new("Figure2");
        app.add_composite(split_merge_composite()).unwrap();
        let mut m = CompositeGraphBuilder::main();
        m.operator("op1", OperatorInvocation::new("Beacon").source());
        m.operator("op2", OperatorInvocation::new("Beacon").source());
        m.composite("c1", "composite1");
        m.composite("c2", "composite1");
        m.operator("op7", OperatorInvocation::new("Sink").sink());
        m.operator("op8", OperatorInvocation::new("Sink").sink());
        m.pipe("op1", "c1");
        m.pipe("op2", "c2");
        m.pipe("c1", "op7");
        m.pipe("c2", "op8");
        let model = app.build(m.build().unwrap()).unwrap();
        assert_eq!(model.name, "Figure2");
        assert_eq!(model.composites.len(), 1);
        assert_eq!(model.main.nodes.len(), 6);
        let c = &model.composites["composite1"];
        assert_eq!(c.inputs(), 1);
        assert_eq!(c.outputs(), 1);
        assert!(matches!(c.node("op3"), Some(NodeRef::Operator(op)) if op.kind == "Split"));
    }

    #[test]
    fn duplicate_node_rejected() {
        let mut b = CompositeGraphBuilder::main();
        b.operator("a", OperatorInvocation::new("X"));
        b.operator("a", OperatorInvocation::new("Y"));
        assert!(matches!(b.build(), Err(ModelError::DuplicateName(_))));
    }

    #[test]
    fn node_names_may_not_contain_dot() {
        let mut b = CompositeGraphBuilder::main();
        b.operator("a.b", OperatorInvocation::new("X"));
        assert!(matches!(b.build(), Err(ModelError::Invalid(_))));
    }

    #[test]
    fn stream_endpoints_must_exist() {
        let mut b = CompositeGraphBuilder::main();
        b.operator("a", OperatorInvocation::new("X").source());
        b.pipe("a", "ghost");
        assert!(matches!(b.build(), Err(ModelError::Unknown(_))));
    }

    #[test]
    fn binding_endpoints_must_exist() {
        let mut b = CompositeGraphBuilder::new("c", 1, 1);
        b.operator("a", OperatorInvocation::new("X"));
        b.bind_input(0, "ghost", 0);
        b.bind_output("a", 0);
        assert!(b.build().is_err());

        let mut b = CompositeGraphBuilder::new("c", 0, 1);
        b.operator("a", OperatorInvocation::new("X"));
        b.bind_output("ghost", 0);
        assert!(b.build().is_err());
    }

    #[test]
    fn unknown_composite_type_rejected() {
        let app = AppModelBuilder::new("A");
        let mut m = CompositeGraphBuilder::main();
        m.composite("c", "nope");
        assert!(matches!(
            app.build(m.build().unwrap()),
            Err(ModelError::Unknown(_))
        ));
    }

    #[test]
    fn recursive_composite_rejected() {
        let mut app = AppModelBuilder::new("A");
        // c1 contains c2; c2 contains c1.
        let mut c1 = CompositeGraphBuilder::new("c1", 0, 0);
        c1.composite("inner", "c2");
        app.add_composite(c1.build().unwrap()).unwrap();
        let mut c2 = CompositeGraphBuilder::new("c2", 0, 0);
        c2.composite("inner", "c1");
        app.add_composite(c2.build().unwrap()).unwrap();
        let mut m = CompositeGraphBuilder::main();
        m.composite("top", "c1");
        assert!(matches!(
            app.build(m.build().unwrap()),
            Err(ModelError::RecursiveComposite(_))
        ));
    }

    #[test]
    fn duplicate_composite_type_rejected() {
        let mut app = AppModelBuilder::new("A");
        let c = CompositeGraphBuilder::new("c", 0, 0).build().unwrap();
        app.add_composite(c.clone()).unwrap();
        assert!(matches!(
            app.add_composite(c),
            Err(ModelError::DuplicateName(_))
        ));
    }

    #[test]
    fn duplicate_host_pool_rejected() {
        let mut app = AppModelBuilder::new("A");
        app.host_pool(HostPool::explicit("p", &["h1"]));
        app.host_pool(HostPool::explicit("p", &["h2"]));
        let m = CompositeGraphBuilder::main().build().unwrap();
        assert!(matches!(app.build(m), Err(ModelError::DuplicateName(_))));
    }

    #[test]
    fn import_matching_rules() {
        let export = ExportSpec::by_id("prices");
        assert!(ImportSpec::by_id("prices").matches(&export, "AppA"));
        assert!(!ImportSpec::by_id("other").matches(&export, "AppA"));
        assert!(!ImportSpec::by_id("prices")
            .from_app("AppB")
            .matches(&export, "AppA"));

        let export = ExportSpec::default()
            .with_property("topic", "trades")
            .with_property("region", "us");
        let sub = ImportSpec::default().subscribe("topic", "trades");
        assert!(sub.matches(&export, "X"));
        let sub2 = ImportSpec::default()
            .subscribe("topic", "trades")
            .subscribe("region", "eu");
        assert!(!sub2.matches(&export, "X"));
        // Empty subscription with no id matches nothing.
        assert!(!ImportSpec::default().matches(&export, "X"));
    }

    #[test]
    fn invocation_builder_covers_all_knobs() {
        let inv = OperatorInvocation::new("Custom")
            .param("rate", 10i64)
            .ports(2, 3)
            .custom_metric("known")
            .custom_metric("unknown")
            .colocate("grp")
            .exlocate("ex")
            .host_pool("pool")
            .host_exlocate("hx")
            .not_restartable()
            .export(0, ExportSpec::by_id("out"))
            .import_spec(ImportSpec::by_id("in"));
        assert_eq!(inv.kind, "Custom");
        assert_eq!(inv.params["rate"], Value::Int(10));
        assert_eq!((inv.inputs, inv.outputs), (2, 3));
        assert_eq!(inv.custom_metrics.len(), 2);
        assert_eq!(inv.colocate.as_deref(), Some("grp"));
        assert_eq!(inv.exlocate.as_deref(), Some("ex"));
        assert_eq!(inv.host_pool.as_deref(), Some("pool"));
        assert_eq!(inv.host_exlocate.as_deref(), Some("hx"));
        assert!(!inv.restartable);
        assert_eq!(inv.exports.len(), 1);
        assert!(inv.import.is_some());
    }
}
