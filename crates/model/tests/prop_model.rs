//! Property tests: value/XML/ADL serialization round-trips and graph-store
//! containment invariants over randomly generated structures.

use proptest::prelude::*;
use sps_model::adl::{Adl, AdlExport, AdlImport, AdlOperator, AdlPe, AdlStream};
use sps_model::logical::{ExportSpec, HostPool, ImportSpec};
use sps_model::value::ParamMap;
use sps_model::xml::{self, XmlNode};
use sps_model::{GraphStore, Value};

// ---------------------------------------------------------------------------
// Value round-trips
// ---------------------------------------------------------------------------

fn arb_value() -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        any::<i64>().prop_map(Value::Int),
        // Finite floats only: NaN breaks PartialEq-based roundtrip checks.
        any::<f64>()
            .prop_filter("finite", |f| f.is_finite())
            .prop_map(Value::Float),
        // Strings without the list separator control character.
        "[a-zA-Z0-9 _.:<>&\"'/-]{0,20}".prop_map(Value::Str),
        any::<bool>().prop_map(Value::Bool),
        any::<u64>().prop_map(Value::Timestamp),
    ];
    leaf.prop_recursive(3, 16, 4, |inner| {
        prop::collection::vec(inner, 0..4).prop_map(Value::List)
    })
}

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
    fn value_render_parse_roundtrip(v in arb_value()) {
        let rendered = v.render();
        let parsed = Value::parse(&rendered);
        prop_assert_eq!(parsed, Some(v));
    }

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

    #[test]
    fn value_parse_never_panics(s in ".{0,40}") {
        let _ = Value::parse(&s);
    }
}

// ---------------------------------------------------------------------------
// XML round-trips
// ---------------------------------------------------------------------------

fn arb_xml() -> impl Strategy<Value = XmlNode> {
    let name = "[a-zA-Z][a-zA-Z0-9_.-]{0,8}";
    let attr_val = "[^\\x00-\\x08\\x0b-\\x1f]{0,16}"; // printable-ish incl. specials
    let leaf = (name, prop::collection::vec((name, attr_val), 0..3)).prop_map(|(n, attrs)| {
        let mut node = XmlNode::new(&n);
        // Deduplicate attribute keys (XML requires uniqueness; our
        // writer does not enforce it, so generate unique keys).
        let mut seen = std::collections::BTreeSet::new();
        for (k, v) in attrs {
            if seen.insert(k.clone()) {
                node = node.attr(&k, v);
            }
        }
        node
    });
    leaf.prop_recursive(3, 20, 3, |inner| {
        (
            "[a-zA-Z][a-zA-Z0-9]{0,6}",
            prop::collection::vec(inner, 0..3),
            "[a-zA-Z0-9 <>&'\"]{0,12}",
        )
            .prop_map(|(n, children, text)| {
                let mut node = XmlNode::new(&n).with_text(text.trim());
                for c in children {
                    node = node.child(c);
                }
                node
            })
    })
}

proptest! {
    #[test]
    fn xml_write_parse_roundtrip(node in arb_xml()) {
        let rendered = node.to_string_pretty();
        let parsed = xml::parse(&rendered).unwrap();
        prop_assert_eq!(parsed, node);
    }

    #[test]
    fn xml_parse_never_panics(s in ".{0,80}") {
        let _ = xml::parse(&s);
    }
}

// ---------------------------------------------------------------------------
// ADL round-trips + graph-store invariants
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
    fn adl_xml_roundtrip(adl in arb_adl()) {
        prop_assert!(adl.validate().is_ok());
        let restored = Adl::from_xml_str(&adl.to_xml_string()).unwrap();
        prop_assert_eq!(restored, adl);
    }

    #[test]
    fn graph_store_partitions_operators_exactly_once(adl in arb_adl()) {
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
