//! In-memory stream-graph representation with logical and physical views.
//!
//! This is the paper's third key concept (§1): a queryable representation,
//! built from the ADL, that lets adaptation logic relate the *logical* view
//! (operators nested in composite instances) to the *physical* view
//! (operators fused into PEs placed on hosts). The ORCA service maintains one
//! per managed application and answers inspection queries such as "which
//! operators reside in PE x?" and "what is the enclosing composite of
//! operator y?" (§4.2).

use crate::adl::{Adl, AdlExport, AdlImport, AdlStream};
use crate::value::ParamMap;
use std::collections::BTreeMap;

/// One composite operator *instance* discovered in the ADL.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CompositeInstance {
    /// Instance path, e.g. `"c1"` or `"o.i"`.
    pub path: String,
    /// Composite type name, e.g. `"composite1"`.
    pub type_name: String,
    /// Index of the parent composite instance, if nested.
    pub parent: Option<usize>,
}

/// Operator metadata extracted from the ADL.
#[derive(Clone, Debug, PartialEq)]
pub struct OperatorMeta {
    pub name: String,
    pub kind: String,
    pub pe: usize,
    /// Indices into [`GraphStore::composite_instances`], outermost first.
    pub composite_chain: Vec<usize>,
    pub custom_metrics: Vec<String>,
    pub params: ParamMap,
    pub inputs: usize,
    pub outputs: usize,
    pub restartable: bool,
    pub checkpointable: bool,
}

/// Queryable logical+physical graph for one application.
#[derive(Clone, Debug)]
pub struct GraphStore {
    app_name: String,
    ops: Vec<OperatorMeta>,
    op_index: BTreeMap<String, usize>,
    pe_ops: Vec<Vec<usize>>,
    composites: Vec<CompositeInstance>,
    comp_index: BTreeMap<String, usize>,
    streams: Vec<AdlStream>,
    /// op index -> (downstream op index, from_port, to_port)
    downstream: Vec<Vec<(usize, usize, usize)>>,
    upstream: Vec<Vec<(usize, usize, usize)>>,
    imports: Vec<AdlImport>,
    exports: Vec<AdlExport>,
}

impl GraphStore {
    /// Builds the store from a compiled ADL.
    pub fn from_adl(adl: &Adl) -> Self {
        let mut composites: Vec<CompositeInstance> = Vec::new();
        let mut comp_index: BTreeMap<String, usize> = BTreeMap::new();

        let mut ops = Vec::with_capacity(adl.operators.len());
        let mut op_index = BTreeMap::new();
        for op in &adl.operators {
            let mut chain = Vec::with_capacity(op.composite_path.len());
            let mut parent: Option<usize> = None;
            for (inst, ty) in &op.composite_path {
                let idx = *comp_index.entry(inst.clone()).or_insert_with(|| {
                    composites.push(CompositeInstance {
                        path: inst.clone(),
                        type_name: ty.clone(),
                        parent,
                    });
                    composites.len() - 1
                });
                chain.push(idx);
                parent = Some(idx);
            }
            op_index.insert(op.name.clone(), ops.len());
            ops.push(OperatorMeta {
                name: op.name.clone(),
                kind: op.kind.clone(),
                pe: op.pe,
                composite_chain: chain,
                custom_metrics: op.custom_metrics.clone(),
                params: op.params.clone(),
                inputs: op.inputs,
                outputs: op.outputs,
                restartable: op.restartable,
                checkpointable: op.checkpointable,
            });
        }

        let mut pe_ops = vec![Vec::new(); adl.pes.len()];
        for (i, op) in ops.iter().enumerate() {
            pe_ops[op.pe].push(i);
        }

        let mut downstream = vec![Vec::new(); ops.len()];
        let mut upstream = vec![Vec::new(); ops.len()];
        for s in &adl.streams {
            let (Some(&from), Some(&to)) = (op_index.get(&s.from_op), op_index.get(&s.to_op))
            else {
                continue;
            };
            downstream[from].push((to, s.from_port, s.to_port));
            upstream[to].push((from, s.from_port, s.to_port));
        }

        GraphStore {
            app_name: adl.app_name.clone(),
            ops,
            op_index,
            pe_ops,
            composites,
            comp_index,
            streams: adl.streams.clone(),
            downstream,
            upstream,
            imports: adl.imports.clone(),
            exports: adl.exports.clone(),
        }
    }

    pub fn app_name(&self) -> &str {
        &self.app_name
    }

    pub fn num_operators(&self) -> usize {
        self.ops.len()
    }

    pub fn num_pes(&self) -> usize {
        self.pe_ops.len()
    }

    pub fn operators(&self) -> impl Iterator<Item = &OperatorMeta> {
        self.ops.iter()
    }

    pub fn operator(&self, name: &str) -> Option<&OperatorMeta> {
        self.op_index.get(name).map(|&i| &self.ops[i])
    }

    pub fn streams(&self) -> &[AdlStream] {
        &self.streams
    }

    pub fn imports(&self) -> &[AdlImport] {
        &self.imports
    }

    pub fn exports(&self) -> &[AdlExport] {
        &self.exports
    }

    /// "Which stream operators reside in PE with id x?" (§4.2)
    pub fn operators_in_pe(&self, pe: usize) -> Vec<&OperatorMeta> {
        self.pe_ops
            .get(pe)
            .map(|idxs| idxs.iter().map(|&i| &self.ops[i]).collect())
            .unwrap_or_default()
    }

    /// "What is the PE id for operator instance y?" (§4.2)
    pub fn pe_of_operator(&self, name: &str) -> Option<usize> {
        self.operator(name).map(|o| o.pe)
    }

    /// All composite instances in the application.
    pub fn composite_instances(&self) -> &[CompositeInstance] {
        &self.composites
    }

    pub fn composite_instance(&self, path: &str) -> Option<&CompositeInstance> {
        self.comp_index.get(path).map(|&i| &self.composites[i])
    }

    /// "What is the enclosing composite operator instance name for operator
    /// instance y?" — innermost enclosing composite (§4.2).
    pub fn enclosing_composite(&self, op_name: &str) -> Option<&CompositeInstance> {
        let op = self.operator(op_name)?;
        op.composite_chain.last().map(|&i| &self.composites[i])
    }

    /// The full enclosing chain, outermost first.
    pub fn composite_chain(&self, op_name: &str) -> Vec<&CompositeInstance> {
        self.operator(op_name)
            .map(|o| {
                o.composite_chain
                    .iter()
                    .map(|&i| &self.composites[i])
                    .collect()
            })
            .unwrap_or_default()
    }

    /// "Which composites reside in PE with id x?" — composite instances with
    /// at least one operator in the PE (§4.2).
    pub fn composites_in_pe(&self, pe: usize) -> Vec<&CompositeInstance> {
        let mut seen = vec![false; self.composites.len()];
        let mut out = Vec::new();
        for op in self.operators_in_pe(pe) {
            for &c in &op.composite_chain {
                if !seen[c] {
                    seen[c] = true;
                    out.push(&self.composites[c]);
                }
            }
        }
        out
    }

    /// Is `op_name` contained (recursively) in any composite instance of the
    /// given *type*? This is the recursive-containment relation the paper
    /// contrasts with a recursive SQL query (§4.1).
    pub fn op_in_composite_type(&self, op_name: &str, comp_type: &str) -> bool {
        self.operator(op_name).is_some_and(|o| {
            o.composite_chain
                .iter()
                .any(|&c| self.composites[c].type_name == comp_type)
        })
    }

    /// Is `op_name` contained (recursively) in the composite *instance* with
    /// the given path?
    pub fn op_in_composite_instance(&self, op_name: &str, comp_path: &str) -> bool {
        self.operator(op_name).is_some_and(|o| {
            o.composite_chain
                .iter()
                .any(|&c| self.composites[c].path == comp_path)
        })
    }

    /// All operators contained (recursively) in instances of a composite
    /// type.
    pub fn operators_in_composite_type(&self, comp_type: &str) -> Vec<&OperatorMeta> {
        self.ops
            .iter()
            .filter(|o| {
                o.composite_chain
                    .iter()
                    .any(|&c| self.composites[c].type_name == comp_type)
            })
            .collect()
    }

    /// All operators of a given operator kind.
    pub fn operators_of_kind(&self, kind: &str) -> Vec<&OperatorMeta> {
        self.ops.iter().filter(|o| o.kind == kind).collect()
    }

    /// All operators declaring a custom metric with the given name.
    pub fn operators_with_custom_metric(&self, metric: &str) -> Vec<&OperatorMeta> {
        self.ops
            .iter()
            .filter(|o| o.custom_metrics.iter().any(|m| m == metric))
            .collect()
    }

    /// Downstream neighbours of an operator: `(operator, from_port, to_port)`.
    pub fn downstream_of(&self, op_name: &str) -> Vec<(&OperatorMeta, usize, usize)> {
        self.op_index
            .get(op_name)
            .map(|&i| {
                self.downstream[i]
                    .iter()
                    .map(|&(j, fp, tp)| (&self.ops[j], fp, tp))
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Upstream neighbours of an operator: `(operator, from_port, to_port)`.
    pub fn upstream_of(&self, op_name: &str) -> Vec<(&OperatorMeta, usize, usize)> {
        self.op_index
            .get(op_name)
            .map(|&i| {
                self.upstream[i]
                    .iter()
                    .map(|&(j, fp, tp)| (&self.ops[j], fp, tp))
                    .collect()
            })
            .unwrap_or_default()
    }

    /// PEs that contain at least one operator of the given composite
    /// instance — the physical footprint of a logical unit.
    pub fn pes_of_composite_instance(&self, comp_path: &str) -> Vec<usize> {
        let mut out: Vec<usize> = self
            .ops
            .iter()
            .filter(|o| {
                o.composite_chain
                    .iter()
                    .any(|&c| self.composites[c].path == comp_path)
            })
            .map(|o| o.pe)
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adl::{AdlOperator, AdlPe};
    use crate::logical::HostPool;

    /// Hand-build an ADL matching the paper's Figure 2/3: two composite
    /// instances (c1, c2), with c1 split across PEs 0-1 and c2 fused fully
    /// into PE 1, plus sources/sinks in PE 2.
    fn figure3_adl() -> Adl {
        let mk = |name: &str, kind: &str, path: Vec<(&str, &str)>, pe: usize| AdlOperator {
            name: name.into(),
            kind: kind.into(),
            composite_path: path
                .into_iter()
                .map(|(a, b)| (a.to_string(), b.to_string()))
                .collect(),
            params: ParamMap::new(),
            inputs: 1,
            outputs: 1,
            custom_metrics: if kind == "Split" {
                vec!["queueSize".into()]
            } else {
                vec![]
            },
            pe,
            restartable: true,
            checkpointable: true,
        };
        let c1 = vec![("c1", "composite1")];
        let c2 = vec![("c2", "composite1")];
        let operators = vec![
            mk("op1", "Beacon", vec![], 2),
            mk("op2", "Beacon", vec![], 2),
            mk("c1.op3", "Split", c1.clone(), 0),
            mk("c1.op4", "Work", c1.clone(), 0),
            mk("c1.op5", "Work", c1.clone(), 1),
            mk("c1.op6", "Merge", c1.clone(), 1),
            mk("c2.op3", "Split", c2.clone(), 1),
            mk("c2.op4", "Work", c2.clone(), 1),
            mk("c2.op5", "Work", c2.clone(), 1),
            mk("c2.op6", "Merge", c2.clone(), 1),
            mk("op7", "Sink", vec![], 2),
            mk("op8", "Sink", vec![], 2),
        ];
        let pes = (0..3)
            .map(|i| AdlPe {
                index: i,
                operators: operators
                    .iter()
                    .filter(|o| o.pe == i)
                    .map(|o| o.name.clone())
                    .collect(),
                host_pool: None,
                host_exlocate: None,
            })
            .collect();
        let streams = vec![
            AdlStream {
                from_op: "op1".into(),
                from_port: 0,
                to_op: "c1.op3".into(),
                to_port: 0,
            },
            AdlStream {
                from_op: "c1.op3".into(),
                from_port: 0,
                to_op: "c1.op4".into(),
                to_port: 0,
            },
            AdlStream {
                from_op: "c1.op4".into(),
                from_port: 0,
                to_op: "c1.op6".into(),
                to_port: 0,
            },
            AdlStream {
                from_op: "c1.op6".into(),
                from_port: 0,
                to_op: "op7".into(),
                to_port: 0,
            },
        ];
        Adl {
            app_name: "Figure2".into(),
            operators,
            pes,
            streams,
            imports: vec![],
            exports: vec![],
            host_pools: vec![HostPool::explicit("p", &["h1", "h2"])],
        }
    }

    #[test]
    fn basic_lookups() {
        let g = GraphStore::from_adl(&figure3_adl());
        assert_eq!(g.app_name(), "Figure2");
        assert_eq!(g.num_operators(), 12);
        assert_eq!(g.num_pes(), 3);
        assert_eq!(g.pe_of_operator("c1.op5"), Some(1));
        assert_eq!(g.pe_of_operator("ghost"), None);
        assert_eq!(g.operator("c2.op3").unwrap().kind, "Split");
    }

    #[test]
    fn operators_in_pe_reflects_physical_layout() {
        let g = GraphStore::from_adl(&figure3_adl());
        let pe1: Vec<&str> = g
            .operators_in_pe(1)
            .iter()
            .map(|o| o.name.as_str())
            .collect();
        assert_eq!(
            pe1,
            vec!["c1.op5", "c1.op6", "c2.op3", "c2.op4", "c2.op5", "c2.op6"]
        );
        assert!(g.operators_in_pe(99).is_empty());
    }

    #[test]
    fn composites_in_pe_disambiguates() {
        let g = GraphStore::from_adl(&figure3_adl());
        // PE 1 hosts operators from both composite instances.
        let comps: Vec<&str> = g
            .composites_in_pe(1)
            .iter()
            .map(|c| c.path.as_str())
            .collect();
        assert_eq!(comps, vec!["c1", "c2"]);
        // PE 2 hosts only top-level operators.
        assert!(g.composites_in_pe(2).is_empty());
    }

    #[test]
    fn enclosing_composite_and_chain() {
        let g = GraphStore::from_adl(&figure3_adl());
        let enc = g.enclosing_composite("c1.op4").unwrap();
        assert_eq!(enc.path, "c1");
        assert_eq!(enc.type_name, "composite1");
        assert!(g.enclosing_composite("op1").is_none());
        assert_eq!(g.composite_chain("c2.op6").len(), 1);
        assert!(g.composite_chain("ghost").is_empty());
    }

    #[test]
    fn recursive_type_containment() {
        let g = GraphStore::from_adl(&figure3_adl());
        assert!(g.op_in_composite_type("c1.op3", "composite1"));
        assert!(!g.op_in_composite_type("op1", "composite1"));
        assert!(!g.op_in_composite_type("c1.op3", "other"));
        assert_eq!(g.operators_in_composite_type("composite1").len(), 8);
        assert!(g.op_in_composite_instance("c1.op3", "c1"));
        assert!(!g.op_in_composite_instance("c1.op3", "c2"));
    }

    #[test]
    fn kind_and_metric_queries() {
        let g = GraphStore::from_adl(&figure3_adl());
        assert_eq!(g.operators_of_kind("Split").len(), 2);
        assert_eq!(g.operators_with_custom_metric("queueSize").len(), 2);
        assert!(g.operators_with_custom_metric("none").is_empty());
    }

    #[test]
    fn adjacency_queries() {
        let g = GraphStore::from_adl(&figure3_adl());
        let down: Vec<&str> = g
            .downstream_of("c1.op3")
            .iter()
            .map(|(o, _, _)| o.name.as_str())
            .collect();
        assert_eq!(down, vec!["c1.op4"]);
        let up: Vec<&str> = g
            .upstream_of("c1.op3")
            .iter()
            .map(|(o, _, _)| o.name.as_str())
            .collect();
        assert_eq!(up, vec!["op1"]);
        assert!(g.downstream_of("ghost").is_empty());
    }

    #[test]
    fn physical_footprint_of_composite() {
        let g = GraphStore::from_adl(&figure3_adl());
        assert_eq!(g.pes_of_composite_instance("c1"), vec![0, 1]);
        assert_eq!(g.pes_of_composite_instance("c2"), vec![1]);
        assert!(g.pes_of_composite_instance("ghost").is_empty());
    }

    #[test]
    fn nested_composite_instances_get_parents() {
        let mut adl = figure3_adl();
        adl.operators.push(AdlOperator {
            name: "c1.inner.opx".into(),
            kind: "Work".into(),
            composite_path: vec![
                ("c1".into(), "composite1".into()),
                ("c1.inner".into(), "inner".into()),
            ],
            params: ParamMap::new(),
            inputs: 1,
            outputs: 1,
            custom_metrics: vec![],
            pe: 0,
            restartable: true,
            checkpointable: true,
        });
        adl.pes[0].operators.push("c1.inner.opx".into());
        let g = GraphStore::from_adl(&adl);
        let inner = g.composite_instance("c1.inner").unwrap();
        let parent = inner.parent.unwrap();
        assert_eq!(g.composite_instances()[parent].path, "c1");
        // Nested op is recursively contained in composite1.
        assert!(g.op_in_composite_type("c1.inner.opx", "composite1"));
        assert!(g.op_in_composite_type("c1.inner.opx", "inner"));
    }
}
