//! Static ADL/graph verifier: structural checks on compiled applications.
//!
//! [`Adl::validate`] enforces *internal consistency* (indices in range,
//! names resolve); this module enforces the stronger *deployment-level*
//! invariants the fault-injection methodology rests on. A campaign verdict
//! is only trustworthy when the application graph itself is sound: a
//! dangling input port means an operator that silently never fires, an
//! unreachable operator means dead weight the oracles cannot observe, a
//! cycle breaks the acyclic delivery order the engine assumes, and a
//! checkpointable/stateful mismatch undermines every state-preservation
//! claim. `sslint --adl` runs these checks over the built-in applications at
//! CI time; generated topologies must route through [`verify_graph`] before
//! submission.
//!
//! Diagnostics are machine-readable ([`VerifyDiagnostic::render`]) so the
//! analyzer binary can grep-filter and gate on them.

use crate::adl::{Adl, AdlOperator};
use std::collections::BTreeSet;

/// Check identifiers, stable across releases (grep targets).
pub mod checks {
    /// Stream references a port outside the operator's declared arity.
    pub const BAD_PORT: &str = "bad-port";
    /// Input port receives no stream and no import subscription.
    pub const DANGLING_INPUT: &str = "dangling-input";
    /// Output port feeds no stream and is not exported.
    pub const DANGLING_OUTPUT: &str = "dangling-output";
    /// Operator unreachable from any source or import.
    pub const UNREACHABLE: &str = "unreachable";
    /// Stream graph contains a cycle.
    pub const CYCLE: &str = "cycle";
    /// Every operator is declared checkpointable yet none carries state.
    pub const CKPT_STATELESS: &str = "ckpt-stateless";
    /// Stateful operator declared `not_checkpointable()` (state is lost on
    /// restart — legal, but each deployment must mean it).
    pub const CKPT_STATEFUL_OPTOUT: &str = "ckpt-stateful-optout";
    /// Checkpointable stateful operator fused with a non-checkpointable
    /// one: its declared-durable state will never actually be saved.
    pub const CKPT_SHADOWED: &str = "ckpt-shadowed";
    /// Upstream backup requires every remote stream's consumer PE to be
    /// checkpointable, else gap replay has no restored state to land in.
    pub const UB_CONSUMER: &str = "ub-consumer";
}

/// Severity of a [`VerifyDiagnostic`].
///
/// Errors make a graph unfit for campaign claims; warnings flag legal but
/// deliberate-looking choices (e.g. a stateful operator opting out of
/// checkpointing, which is exactly what `not_checkpointable()` is for — but
/// each use should be intentional, so the verifier surfaces it).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Severity {
    Error,
    Warning,
}

/// One verifier finding.
#[derive(Clone, Debug)]
pub struct VerifyDiagnostic {
    pub severity: Severity,
    pub check: &'static str,
    /// The operator / stream / PE the finding is about.
    pub subject: String,
    pub message: String,
}

impl VerifyDiagnostic {
    /// Stable machine-readable line: `<severity> <check> subject=<s>: <msg>`.
    pub fn render(&self, app: &str) -> String {
        let sev = match self.severity {
            Severity::Error => "error",
            Severity::Warning => "warning",
        };
        format!(
            "{sev} {} app={app} subject={}: {}",
            self.check, self.subject, self.message
        )
    }
}

/// Options for [`verify_graph`].
#[derive(Default)]
pub struct VerifyOptions<'a> {
    /// Check the exactly-once precondition: with upstream backup enabled,
    /// every remote stream consumer must live in a checkpointable PE.
    pub upstream_backup: bool,
    /// Statefulness oracle: does this operator carry per-instance state?
    /// `None` (or an oracle returning `None`) skips the checkpoint-intent
    /// checks for that operator — e.g. ops whose parameters are templates
    /// resolved at submission time cannot be probed statically.
    #[allow(clippy::type_complexity)]
    pub statefulness: Option<&'a dyn Fn(&AdlOperator) -> Option<bool>>,
}

/// Runs every structural check over a compiled ADL, returning all findings
/// (errors first is *not* guaranteed; order follows the graph).
pub fn verify_graph(adl: &Adl, opts: &VerifyOptions) -> Vec<VerifyDiagnostic> {
    let mut out = Vec::new();
    let wiring = check_ports(adl, &mut out);
    check_dangling_ports(adl, &wiring, &mut out);
    check_reachability(adl, &wiring, &mut out);
    check_cycle(adl, &wiring.edges, &mut out);
    if let Some(oracle) = opts.statefulness {
        let stateful: Vec<Option<bool>> = adl.operators.iter().map(oracle).collect();
        check_checkpoint_intent(adl, &stateful, &mut out);
        if opts.upstream_backup {
            check_backup_consumers(adl, &mut out);
        }
    }
    out
}

/// Position of the operator named `name` in [`Adl::operators`].
fn index_of(adl: &Adl, name: &str) -> Option<usize> {
    adl.operators.iter().position(|o| o.name == name)
}

/// The stream graph over operator indices, built from the streams whose
/// endpoints exist and whose ports are in range, and the import-fed
/// operators.
struct Wiring {
    /// Per operator, per input port: the operators feeding it.
    incoming: Vec<Vec<BTreeSet<usize>>>,
    /// Per operator, per output port: the operators it feeds.
    outgoing: Vec<Vec<BTreeSet<usize>>>,
    edges: Vec<(usize, usize)>,
    /// Per operator: does an import subscription feed it?
    has_import: Vec<bool>,
}

/// Port validity: reports every stream naming a missing operator or an
/// out-of-range port, and wires the rest.
fn check_ports(adl: &Adl, out: &mut Vec<VerifyDiagnostic>) -> Wiring {
    let ports = |arity: fn(&AdlOperator) -> usize| -> Vec<Vec<BTreeSet<usize>>> {
        adl.operators
            .iter()
            .map(|o| vec![BTreeSet::new(); arity(o)])
            .collect()
    };
    let mut wiring = Wiring {
        incoming: ports(|o| o.inputs),
        outgoing: ports(|o| o.outputs),
        edges: Vec::new(),
        has_import: adl
            .operators
            .iter()
            .map(|o| adl.imports.iter().any(|i| i.op == o.name))
            .collect(),
    };
    for s in &adl.streams {
        let (from, to) = (index_of(adl, &s.from_op), index_of(adl, &s.to_op));
        let source_fault = match from {
            None => Some(format!(
                "stream source operator `{}` does not exist",
                s.from_op
            )),
            Some(i) if s.from_port >= adl.operators[i].outputs => Some(format!(
                "output port {} out of range (operator has {} outputs)",
                s.from_port, adl.operators[i].outputs
            )),
            _ => None,
        };
        let target_fault = match to {
            None => Some(format!(
                "stream target operator `{}` does not exist",
                s.to_op
            )),
            Some(i) if s.to_port >= adl.operators[i].inputs => Some(format!(
                "input port {} out of range (operator has {} inputs)",
                s.to_port, adl.operators[i].inputs
            )),
            _ => None,
        };
        if let (Some(f), Some(t), None, None) = (from, to, &source_fault, &target_fault) {
            wiring.incoming[t][s.to_port].insert(f);
            wiring.outgoing[f][s.from_port].insert(t);
            wiring.edges.push((f, t));
            continue;
        }
        let subject = format!("{}:{}->{}:{}", s.from_op, s.from_port, s.to_op, s.to_port);
        for message in source_fault.into_iter().chain(target_fault) {
            out.push(VerifyDiagnostic {
                severity: Severity::Error,
                check: checks::BAD_PORT,
                subject: subject.clone(),
                message,
            });
        }
    }
    wiring
}

/// Dangling ports: an input no stream or import feeds, an output that feeds
/// no stream and is not exported.
fn check_dangling_ports(adl: &Adl, wiring: &Wiring, out: &mut Vec<VerifyDiagnostic>) {
    for (i, op) in adl.operators.iter().enumerate() {
        for (p, feeds) in wiring.incoming[i].iter().enumerate() {
            if feeds.is_empty() && !wiring.has_import[i] {
                out.push(VerifyDiagnostic {
                    severity: Severity::Error,
                    check: checks::DANGLING_INPUT,
                    subject: format!("{}:{p}", op.name),
                    message: "input port receives no stream and no import; the operator can \
                              never fire on it"
                        .into(),
                });
            }
        }
        for (p, feeds) in wiring.outgoing[i].iter().enumerate() {
            let exported = adl.exports.iter().any(|e| e.op == op.name && e.port == p);
            if feeds.is_empty() && !exported {
                out.push(VerifyDiagnostic {
                    severity: Severity::Error,
                    check: checks::DANGLING_OUTPUT,
                    subject: format!("{}:{p}", op.name),
                    message: "output port feeds no stream and is not exported; its tuples \
                              vanish unobserved"
                        .into(),
                });
            }
        }
    }
}

/// Reachability: every operator must be downstream of a source (no inputs)
/// or an import.
fn check_reachability(adl: &Adl, wiring: &Wiring, out: &mut Vec<VerifyDiagnostic>) {
    let n = adl.operators.len();
    let mut reached = vec![false; n];
    let mut stack: Vec<usize> = (0..n)
        .filter(|&i| adl.operators[i].inputs == 0 || wiring.has_import[i])
        .collect();
    for &s in &stack {
        reached[s] = true;
    }
    while let Some(i) = stack.pop() {
        for ports in &wiring.outgoing[i] {
            for &j in ports {
                if !reached[j] {
                    reached[j] = true;
                    stack.push(j);
                }
            }
        }
    }
    for (i, op) in adl.operators.iter().enumerate() {
        if !reached[i] {
            out.push(VerifyDiagnostic {
                severity: Severity::Error,
                check: checks::UNREACHABLE,
                subject: op.name.clone(),
                message: "operator is unreachable from every source and import; no tuple can \
                          ever arrive"
                    .into(),
            });
        }
    }
}

/// Cycles: reports one, named along its operators.
fn check_cycle(adl: &Adl, edges: &[(usize, usize)], out: &mut Vec<VerifyDiagnostic>) {
    if let Some(cycle) = find_cycle(adl.operators.len(), edges) {
        let names: Vec<&str> = cycle
            .iter()
            .map(|&i| adl.operators[i].name.as_str())
            .collect();
        out.push(VerifyDiagnostic {
            severity: Severity::Error,
            check: checks::CYCLE,
            subject: names.join("->"),
            message: "stream graph contains a cycle; the engine assumes acyclic delivery \
                      (feedback requires explicit loop-breaking operators)"
                .into(),
        });
    }
}

/// Checkpoint intent: stateful operators that opted out, checkpointable state
/// a fused opted-out operator shadows, and an application whose checkpoints
/// preserve nothing. `stateful` is the oracle's answer per operator.
fn check_checkpoint_intent(adl: &Adl, stateful: &[Option<bool>], out: &mut Vec<VerifyDiagnostic>) {
    // Stateful operator that opted out: legal but deliberate.
    for (i, op) in adl.operators.iter().enumerate() {
        if stateful[i] == Some(true) && !op.checkpointable {
            out.push(VerifyDiagnostic {
                severity: Severity::Warning,
                check: checks::CKPT_STATEFUL_OPTOUT,
                subject: op.name.clone(),
                message: "stateful operator is declared not_checkpointable(); its state is \
                          lost on every restart — confirm this is intended"
                    .into(),
            });
        }
    }

    // Checkpointable stateful operator fused with an opted-out one: the
    // runtime checkpoints a PE only when *every* fused operator opted
    // in, so this operator's declared-durable state is silently never
    // saved.
    for pe in &adl.pes {
        let idxs: Vec<usize> = pe
            .operators
            .iter()
            .filter_map(|n| index_of(adl, n))
            .collect();
        let pe_ckpt = idxs.iter().all(|&i| adl.operators[i].checkpointable);
        if pe_ckpt {
            continue;
        }
        for &i in &idxs {
            if adl.operators[i].checkpointable && stateful[i] == Some(true) {
                out.push(VerifyDiagnostic {
                    severity: Severity::Error,
                    check: checks::CKPT_SHADOWED,
                    subject: adl.operators[i].name.clone(),
                    message: format!(
                        "declared checkpointable, but PE {} contains a non-checkpointable \
                         operator, so this state is never saved; un-fuse it or opt the \
                         whole PE out explicitly",
                        pe.index
                    ),
                });
            }
        }
    }

    // A fully-checkpointable application with no state at all: the
    // declaration is vacuous, and every checkpoint quantum is pure
    // overhead. (Individual stateless operators legitimately default to
    // checkpointable — they contribute empty state to a fused PE — so
    // this check only fires when *nothing* in the app can be preserved.)
    let all_ckpt = adl.operators.iter().all(|o| o.checkpointable);
    let any_stateful = stateful.contains(&Some(true));
    let any_unknown = stateful.iter().any(|s| s.is_none());
    if all_ckpt && !any_stateful && !any_unknown && !adl.operators.is_empty() {
        out.push(VerifyDiagnostic {
            severity: Severity::Error,
            check: checks::CKPT_STATELESS,
            subject: adl.app_name.clone(),
            message: "every operator is declared checkpointable but none carries state; \
                      checkpointing this application preserves nothing"
                .into(),
        });
    }
}

/// Exactly-once precondition: upstream backup replays the post-checkpoint
/// gap into *restored* consumers; a consumer PE that is never checkpointed
/// always restarts fresh and the replayed gap has no snapshot to extend.
fn check_backup_consumers(adl: &Adl, out: &mut Vec<VerifyDiagnostic>) {
    for s in &adl.streams {
        let (Some(f), Some(t)) = (index_of(adl, &s.from_op), index_of(adl, &s.to_op)) else {
            continue;
        };
        let (fp, tp) = (adl.operators[f].pe, adl.operators[t].pe);
        if fp == tp {
            continue;
        }
        let consumer_pe_ckpt = adl.pes[tp]
            .operators
            .iter()
            .filter_map(|n| index_of(adl, n))
            .all(|i| adl.operators[i].checkpointable);
        if !consumer_pe_ckpt {
            out.push(VerifyDiagnostic {
                severity: Severity::Error,
                check: checks::UB_CONSUMER,
                subject: format!("{}->{}", s.from_op, s.to_op),
                message: format!(
                    "upstream backup requires a checkpointable consumer, but PE {tp} \
                     (operator `{}`) is not checkpointable; gap replay would land in \
                     fresh state",
                    s.to_op
                ),
            });
        }
    }
}

/// Convenience: true iff [`verify_graph`] produced no error-severity
/// diagnostics.
pub fn graph_is_sound(adl: &Adl, opts: &VerifyOptions) -> bool {
    verify_graph(adl, opts)
        .iter()
        .all(|d| d.severity != Severity::Error)
}

/// Finds one cycle in the directed graph, as the list of node indices along
/// it, using iterative three-color DFS.
fn find_cycle(n: usize, edges: &[(usize, usize)]) -> Option<Vec<usize>> {
    let mut adj = vec![Vec::new(); n];
    for &(f, t) in edges {
        adj[f].push(t);
    }
    for a in &mut adj {
        a.sort_unstable();
        a.dedup();
    }
    #[derive(Clone, Copy, PartialEq)]
    enum Color {
        White,
        Grey,
        Black,
    }
    let mut color = vec![Color::White; n];
    let mut parent = vec![usize::MAX; n];
    for root in 0..n {
        if color[root] != Color::White {
            continue;
        }
        // Stack of (node, next-child-index).
        let mut stack: Vec<(usize, usize)> = vec![(root, 0)];
        color[root] = Color::Grey;
        while let Some(&mut (u, ref mut ci)) = stack.last_mut() {
            if *ci < adj[u].len() {
                let v = adj[u][*ci];
                *ci += 1;
                match color[v] {
                    Color::White => {
                        color[v] = Color::Grey;
                        parent[v] = u;
                        stack.push((v, 0));
                    }
                    Color::Grey => {
                        // Found a back edge u -> v: reconstruct v … u.
                        let mut cycle = vec![u];
                        let mut w = u;
                        while w != v {
                            w = parent[w];
                            cycle.push(w);
                        }
                        cycle.reverse();
                        return Some(cycle);
                    }
                    Color::Black => {}
                }
            } else {
                color[u] = Color::Black;
                stack.pop();
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adl::{AdlExport, AdlImport, AdlOperator, AdlPe, AdlStream};
    use crate::logical::{ExportSpec, HostPool, ImportSpec};
    use crate::value::ParamMap;

    fn op(name: &str, inputs: usize, outputs: usize, pe: usize) -> AdlOperator {
        AdlOperator {
            name: name.into(),
            kind: "Work".into(),
            composite_path: vec![],
            params: ParamMap::new(),
            inputs,
            outputs,
            custom_metrics: vec![],
            pe,
            restartable: true,
            checkpointable: true,
        }
    }

    fn stream(from: &str, fp: usize, to: &str, tp: usize) -> AdlStream {
        AdlStream {
            from_op: from.into(),
            from_port: fp,
            to_op: to.into(),
            to_port: tp,
        }
    }

    /// src -> mid -> snk across three PEs; structurally clean.
    fn clean_adl() -> Adl {
        let operators = vec![op("src", 0, 1, 0), op("mid", 1, 1, 1), op("snk", 1, 0, 2)];
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
        Adl {
            app_name: "Clean".into(),
            operators,
            pes,
            streams: vec![stream("src", 0, "mid", 0), stream("mid", 0, "snk", 0)],
            imports: vec![],
            exports: vec![],
            host_pools: vec![HostPool::explicit("p", &["h1"])],
        }
    }

    /// Stateful kinds for tests: everything but kind "Work".
    fn oracle(o: &AdlOperator) -> Option<bool> {
        match o.kind.as_str() {
            "Work" => Some(false),
            "Opaque" => None,
            _ => Some(true),
        }
    }

    fn checks_of(diags: &[VerifyDiagnostic]) -> Vec<&'static str> {
        diags.iter().map(|d| d.check).collect()
    }

    #[test]
    fn clean_graph_is_clean() {
        let opts = VerifyOptions {
            upstream_backup: true,
            statefulness: Some(&|o| match o.name.as_str() {
                "src" | "snk" => Some(true),
                _ => Some(false),
            }),
        };
        let diags = verify_graph(&clean_adl(), &opts);
        assert!(diags.is_empty(), "{diags:?}");
        assert!(graph_is_sound(&clean_adl(), &opts));
    }

    #[test]
    fn dangling_input_detected() {
        let mut adl = clean_adl();
        adl.streams.remove(0); // src -> mid gone; mid:0 starves
        let diags = verify_graph(&adl, &VerifyOptions::default());
        assert!(
            checks_of(&diags).contains(&checks::DANGLING_INPUT),
            "{diags:?}"
        );
        // src's output also dangles now, and mid/snk are unreachable.
        assert!(checks_of(&diags).contains(&checks::DANGLING_OUTPUT));
        assert!(checks_of(&diags).contains(&checks::UNREACHABLE));
        let d = diags
            .iter()
            .find(|d| d.check == checks::DANGLING_INPUT)
            .unwrap();
        assert_eq!(d.subject, "mid:0");
        assert_eq!(d.severity, Severity::Error);
    }

    #[test]
    fn exported_output_is_not_dangling() {
        let mut adl = clean_adl();
        adl.streams.pop(); // mid -> snk gone
        adl.operators.retain(|o| o.name != "snk");
        adl.pes[2].operators.clear();
        adl.exports.push(AdlExport {
            op: "mid".into(),
            port: 0,
            spec: ExportSpec::by_id("feed"),
        });
        let diags = verify_graph(&adl, &VerifyOptions::default());
        assert!(
            !checks_of(&diags).contains(&checks::DANGLING_OUTPUT),
            "{diags:?}"
        );
    }

    #[test]
    fn imported_input_is_not_dangling_and_reaches() {
        let mut adl = clean_adl();
        adl.streams.remove(0); // mid now fed by an import subscription
        adl.imports.push(AdlImport {
            op: "mid".into(),
            spec: ImportSpec::by_id("feed"),
        });
        adl.exports.push(AdlExport {
            op: "src".into(),
            port: 0,
            spec: ExportSpec::by_id("feed"),
        });
        let diags = verify_graph(&adl, &VerifyOptions::default());
        assert!(
            !checks_of(&diags).contains(&checks::DANGLING_INPUT),
            "{diags:?}"
        );
        assert!(
            !checks_of(&diags).contains(&checks::UNREACHABLE),
            "{diags:?}"
        );
    }

    #[test]
    fn bad_port_detected() {
        let mut adl = clean_adl();
        adl.streams[0].to_port = 5;
        let diags = verify_graph(&adl, &VerifyOptions::default());
        assert!(checks_of(&diags).contains(&checks::BAD_PORT), "{diags:?}");
    }

    #[test]
    fn cycle_detected_and_named() {
        let mut adl = clean_adl();
        // mid -> mid2 -> mid, a genuine loop behind the source.
        adl.operators.insert(2, op("mid2", 1, 1, 1));
        adl.pes[1].operators.push("mid2".into());
        adl.streams.push(stream("mid", 0, "mid2", 0));
        adl.streams.push(stream("mid2", 0, "snk", 0));
        // Rewire: snk gets fed by mid2; mid gets a second input from mid2.
        adl.operators[1].inputs = 2;
        adl.streams
            .retain(|s| !(s.from_op == "mid" && s.to_op == "snk"));
        adl.streams.push(stream("mid2", 0, "mid", 1));
        let diags = verify_graph(&adl, &VerifyOptions::default());
        let cycle = diags.iter().find(|d| d.check == checks::CYCLE).unwrap();
        assert!(cycle.subject.contains("mid"), "{:?}", cycle.subject);
        assert!(cycle.subject.contains("mid2"));
    }

    #[test]
    fn stateless_but_fully_checkpointable_app_flagged() {
        let mut adl = clean_adl();
        for o in &mut adl.operators {
            o.kind = "Work".into(); // oracle: stateless
        }
        let diags = verify_graph(
            &adl,
            &VerifyOptions {
                upstream_backup: false,
                statefulness: Some(&oracle),
            },
        );
        let d = diags
            .iter()
            .find(|d| d.check == checks::CKPT_STATELESS)
            .expect("ckpt-stateless fires");
        assert_eq!(d.subject, "Clean");
        assert_eq!(d.severity, Severity::Error);
    }

    #[test]
    fn unknown_statefulness_suppresses_stateless_check() {
        let mut adl = clean_adl();
        for o in &mut adl.operators {
            o.kind = "Work".into();
        }
        adl.operators[0].kind = "Opaque".into(); // oracle: None
        let diags = verify_graph(
            &adl,
            &VerifyOptions {
                upstream_backup: false,
                statefulness: Some(&oracle),
            },
        );
        assert!(
            !checks_of(&diags).contains(&checks::CKPT_STATELESS),
            "{diags:?}"
        );
    }

    #[test]
    fn stateful_optout_warns_not_errors() {
        let mut adl = clean_adl();
        adl.operators[0].kind = "Beacon".into(); // stateful per oracle
        adl.operators[0].checkpointable = false;
        let diags = verify_graph(
            &adl,
            &VerifyOptions {
                upstream_backup: false,
                statefulness: Some(&oracle),
            },
        );
        let d = diags
            .iter()
            .find(|d| d.check == checks::CKPT_STATEFUL_OPTOUT)
            .expect("optout warning fires");
        assert_eq!(d.severity, Severity::Warning);
        assert!(graph_is_sound(
            &adl,
            &VerifyOptions {
                upstream_backup: false,
                statefulness: Some(&oracle),
            }
        ));
    }

    #[test]
    fn shadowed_checkpointable_state_is_an_error() {
        let mut adl = clean_adl();
        // Fuse a stateful checkpointable op with an opted-out op in PE 1.
        adl.operators[1].kind = "Beacon".into(); // mid: stateful, checkpointable
        adl.operators.insert(2, {
            let mut o = op("mate", 1, 1, 1);
            o.checkpointable = false;
            o
        });
        adl.pes[1].operators.push("mate".into());
        adl.operators[1].outputs = 2;
        adl.streams.push(stream("mid", 1, "mate", 0));
        adl.operators[3].inputs = 2; // snk
        adl.streams.push(stream("mate", 0, "snk", 1));
        let diags = verify_graph(
            &adl,
            &VerifyOptions {
                upstream_backup: false,
                statefulness: Some(&oracle),
            },
        );
        let d = diags
            .iter()
            .find(|d| d.check == checks::CKPT_SHADOWED)
            .expect("shadowed state fires");
        assert_eq!(d.subject, "mid");
        assert_eq!(d.severity, Severity::Error);
    }

    #[test]
    fn upstream_backup_requires_checkpointable_consumer() {
        let mut adl = clean_adl();
        adl.operators[2].checkpointable = false; // snk's PE opts out
        let opts = VerifyOptions {
            upstream_backup: true,
            statefulness: Some(&oracle),
        };
        let diags = verify_graph(&adl, &opts);
        let d = diags
            .iter()
            .find(|d| d.check == checks::UB_CONSUMER)
            .expect("ub-consumer fires");
        assert_eq!(d.subject, "mid->snk");
        // Without the option the same graph is accepted.
        let diags = verify_graph(
            &adl,
            &VerifyOptions {
                upstream_backup: false,
                statefulness: Some(&oracle),
            },
        );
        assert!(!checks_of(&diags).contains(&checks::UB_CONSUMER));
    }

    #[test]
    fn render_is_greppable() {
        let mut adl = clean_adl();
        adl.streams.remove(0);
        let diags = verify_graph(&adl, &VerifyOptions::default());
        let line = diags[0].render("Clean");
        assert!(line.starts_with("error "), "{line}");
        assert!(line.contains("app=Clean"));
        assert!(line.contains("subject="));
    }
}
