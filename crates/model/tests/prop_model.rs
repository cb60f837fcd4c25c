//! Property tests: `Value::render` (its bytes, and that distinct values never
//! share a rendering) and graph-store containment invariants over randomly
//! generated ADLs.

#![forbid(unsafe_code)]

use proptest::prelude::*;
use sps_model::adl::{Adl, AdlExport, AdlImport, AdlOperator, AdlPe, AdlStream};
use sps_model::logical::{ExportSpec, HostPool, ImportSpec};
use sps_model::value::ParamMap;
use sps_model::{GraphStore, Value};

// ---------------------------------------------------------------------------
// Value renderings
// ---------------------------------------------------------------------------

/// Values whose strings are dense in the four characters `render` escapes
/// (`\\`, U+001F, `[`, `]`), nested up to three lists deep.
fn arb_escaping_value() -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        any::<i64>().prop_map(Value::Int),
        any::<f64>().prop_map(Value::Float),
        "[ab:é中\\\\\\x1f\\[\\]]{0,12}".prop_map(Value::Str),
        any::<bool>().prop_map(Value::Bool),
        any::<u64>().prop_map(Value::Timestamp),
    ];
    leaf.prop_recursive(3, 16, 4, |inner| {
        prop::collection::vec(inner, 0..4).prop_map(Value::List)
    })
}

/// `Value::render` as it was when every value and every escape built its
/// own `String`: the reference `render_into` must reproduce byte for byte.
fn render_by_format(v: &Value) -> String {
    match v {
        Value::Int(v) => format!("i:{v}"),
        Value::Float(v) => format!("f:{v:?}"),
        Value::Str(s) => {
            let mut escaped = String::new();
            for c in s.chars() {
                match c {
                    '\\' => escaped.push_str("\\\\"),
                    '\u{1f}' => escaped.push_str("\\u"),
                    '[' => escaped.push_str("\\l"),
                    ']' => escaped.push_str("\\r"),
                    c => escaped.push(c),
                }
            }
            format!("s:{escaped}")
        }
        Value::Bool(b) => format!("b:{b}"),
        Value::Timestamp(t) => format!("t:{t}"),
        Value::List(items) => {
            let inner: Vec<String> = items.iter().map(render_by_format).collect();
            format!("l:[{}]", inner.join("\u{1f}"))
        }
    }
}

proptest! {
    #[test]
    fn render_into_appends_what_render_by_format_built(
        v in arb_escaping_value(),
        held in "[a-z\\[]{0,6}",
    ) {
        let expect = render_by_format(&v);
        prop_assert_eq!(v.render(), expect.clone());
        // A reused buffer: what it already holds stays, the rendering follows.
        let mut out = held.clone();
        v.render_into(&mut out);
        prop_assert_eq!(out, held + &expect);
    }

    /// `Aggregate` keys its state by the rendering, so two
    /// values may share one only if they are the same value. `Debug` judges
    /// sameness, not `==`: a NaN renders like any other NaN and must pass, and
    /// a rendering that lost the sign of 0.0 must fail.
    #[test]
    fn equal_renderings_imply_equal_values(
        random in (arb_escaping_value(), arb_escaping_value()),
        layers in prop::collection::vec(
            (
                prop::collection::vec(arb_escaping_value(), 0..3),
                prop::collection::vec(arb_escaping_value(), 0..3),
            ),
            0..3,
        ),
    ) {
        let surround = |mut v: Value| {
            for (before, after) in &layers {
                let mut items = before.clone();
                items.push(v);
                items.extend(after.iter().cloned());
                v = Value::List(items);
            }
            v
        };
        let near = near_collisions().into_iter().map(|(a, b)| (surround(a), surround(b)));
        for (a, b) in near.chain([random]) {
            if a.render() == b.render() {
                prop_assert_eq!(format!("{a:?}"), format!("{b:?}"));
            }
        }
    }
}

/// Pairs of distinct values that would share a rendering if one escape were
/// dropped or two escapes coincided: each escaped character against every
/// other one and against the text of its own escape, a string against the
/// value it spells, and lists whose separator or closing bracket falls in a
/// different place. The property checks each pair at the same place in the
/// same random lists.
fn near_collisions() -> Vec<(Value, Value)> {
    let s = |x: &str| Value::Str(x.to_string());
    let l = Value::List;
    let escaped = ["\\", "\u{1f}", "[", "]"];
    let spelled = ["\\\\", "\\u", "\\l", "\\r"];
    let mut pairs = Vec::new();
    for (i, c) in escaped.iter().enumerate() {
        for other in &escaped[i + 1..] {
            pairs.push((s(c), s(other)));
        }
        pairs.push((s(c), s(spelled[i])));
    }
    pairs.extend([
        (s("i:1"), Value::Int(1)),
        (s("l:[s:a]"), l(vec![s("a")])),
        (l(vec![s("[s:a]")]), l(vec![l(vec![s("a")])])),
        (l(vec![]), l(vec![s("")])),
        (l(vec![s("a\u{1f}s:b")]), l(vec![s("a"), s("b")])),
        (
            l(vec![l(vec![s("a]"), s("b")])]),
            l(vec![l(vec![s("a")]), s("b]")]),
        ),
    ]);
    pairs
}

// ---------------------------------------------------------------------------
// Graph-store invariants
// ---------------------------------------------------------------------------

/// Random flat ADL: operators spread over PEs, nested composite paths,
/// random streams between compatible ports.
fn arb_adl() -> impl Strategy<Value = Adl> {
    (2usize..20, 1usize..5, 0usize..3).prop_flat_map(|(n_ops, n_pes, depth)| {
        let ops = prop::collection::vec(0..n_pes, n_ops);
        let comp_levels = prop::collection::vec(0usize..=depth, n_ops);
        (Just(n_pes), ops, comp_levels).prop_map(|(n_pes, pe_of, comp_levels)| {
            let mut operators = Vec::new();
            for (i, (&pe, &level)) in pe_of.iter().zip(&comp_levels).enumerate() {
                // Composite path: comp0 > comp0.c1 > comp0.c1.c2 ...
                let mut path = Vec::new();
                let mut prefix = String::new();
                for l in 0..level {
                    let inst = if prefix.is_empty() {
                        format!("comp{l}")
                    } else {
                        format!("{prefix}.c{l}")
                    };
                    path.push((inst.clone(), format!("type{l}")));
                    prefix = inst;
                }
                let name = if prefix.is_empty() {
                    format!("op{i}")
                } else {
                    format!("{prefix}.op{i}")
                };
                operators.push(AdlOperator {
                    name,
                    kind: ["Work", "Split", "Merge"][i % 3].to_string(),
                    composite_path: path,
                    params: ParamMap::new(),
                    inputs: 1,
                    outputs: 1,
                    custom_metrics: if i % 2 == 0 { vec!["m".into()] } else { vec![] },
                    pe,
                    restartable: i % 4 != 0,
                    checkpointable: i % 4 != 0,
                });
            }
            let pes = (0..n_pes)
                .map(|i| AdlPe {
                    index: i,
                    operators: operators
                        .iter()
                        .filter(|o| o.pe == i)
                        .map(|o| o.name.clone())
                        .collect(),
                    host_pool: if i == 0 { Some("p".to_string()) } else { None },
                    host_exlocate: None,
                })
                .collect();
            let streams: Vec<AdlStream> = operators
                .windows(2)
                .map(|w| AdlStream {
                    from_op: w[0].name.clone(),
                    from_port: 0,
                    to_op: w[1].name.clone(),
                    to_port: 0,
                })
                .collect();
            let imports = vec![AdlImport {
                op: operators[0].name.clone(),
                spec: ImportSpec::by_id("feed"),
            }];
            let exports = vec![AdlExport {
                op: operators[operators.len() - 1].name.clone(),
                port: 0,
                spec: ExportSpec::by_id("out").with_property("k", Value::Int(1)),
            }];
            Adl {
                app_name: "Rand".into(),
                operators,
                pes,
                streams,
                imports,
                exports,
                host_pools: vec![HostPool::explicit("p", &["h1"])],
            }
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn graph_store_partitions_operators_exactly_once(adl in arb_adl()) {
        prop_assert!(adl.validate().is_ok());
        let g = GraphStore::from_adl(&adl);
        // Every operator appears in exactly one PE listing.
        let total: usize = (0..g.num_pes()).map(|pe| g.operators_in_pe(pe).len()).sum();
        prop_assert_eq!(total, g.num_operators());
        for op in g.operators() {
            let pe = g.pe_of_operator(&op.name).unwrap();
            prop_assert!(g.operators_in_pe(pe).iter().any(|o| o.name == op.name));
        }
    }

    #[test]
    fn containment_is_consistent_with_chains(adl in arb_adl()) {
        let g = GraphStore::from_adl(&adl);
        for op in g.operators() {
            let chain = g.composite_chain(&op.name);
            // op_in_composite_instance agrees with the chain for every level.
            for c in &chain {
                prop_assert!(g.op_in_composite_instance(&op.name, &c.path));
                prop_assert!(g.op_in_composite_type(&op.name, &c.type_name));
            }
            // The enclosing composite is the last chain element.
            match (g.enclosing_composite(&op.name), chain.last()) {
                (Some(e), Some(l)) => prop_assert_eq!(&e.path, &l.path),
                (None, None) => {}
                other => prop_assert!(false, "mismatch: {other:?}"),
            }
            // Negative: an instance not in the chain never contains the op.
            prop_assert!(!g.op_in_composite_instance(&op.name, "no-such-instance"));
        }
    }

    #[test]
    fn composites_in_pe_matches_member_chains(adl in arb_adl()) {
        let g = GraphStore::from_adl(&adl);
        for pe in 0..g.num_pes() {
            let listed: std::collections::BTreeSet<String> = g
                .composites_in_pe(pe)
                .iter()
                .map(|c| c.path.clone())
                .collect();
            let mut expected = std::collections::BTreeSet::new();
            for op in g.operators_in_pe(pe) {
                for c in g.composite_chain(&op.name) {
                    expected.insert(c.path.clone());
                }
            }
            prop_assert_eq!(listed, expected);
        }
    }
}
