//! Dynamically typed attribute values.
//!
//! SPL is statically typed; here tuples carry [`Value`]s, and the engine's
//! tuple schema names their attributes. This keeps the operator library
//! generic without code generation (the SPL compiler generates C++ per
//! invocation — out of scope per DESIGN.md).

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt::Write;

/// A dynamically typed attribute value.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum Value {
    Int(i64),
    Float(f64),
    Str(String),
    Bool(bool),
    Timestamp(u64),
    List(Vec<Value>),
}

impl Value {
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// Numeric view: ints and floats both coerce to f64.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(v) => Some(*v as f64),
            Value::Float(v) => Some(*v),
            Value::Timestamp(v) => Some(*v as f64),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_timestamp(&self) -> Option<u64> {
        match self {
            Value::Timestamp(t) => Some(*t),
            _ => None,
        }
    }

    pub fn as_list(&self) -> Option<&[Value]> {
        match self {
            Value::List(l) => Some(l),
            _ => None,
        }
    }

    /// Canonical single-line rendering, read in two ways: `Tuple`'s
    /// `Display` shows it, and `Aggregate` keys its per-group state by it.
    /// The keys make it a contract: two distinct
    /// values must never share a rendering (`equal_renderings_imply_equal_values`
    /// in `tests/prop_model.rs`), or their groups merge. Nothing parses it.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    /// Appends the [`render`](Self::render) form to `out`, so a caller that
    /// renders per tuple can keep one buffer.
    pub fn render_into(&self, out: &mut String) {
        match self {
            Value::Int(v) => write!(out, "i:{v}"),
            // `{:?}` keeps round-trippable precision for f64.
            Value::Float(v) => write!(out, "f:{v:?}"),
            Value::Str(s) => {
                out.push_str("s:");
                escape_str_into(s, out);
                Ok(())
            }
            Value::Bool(b) => write!(out, "b:{b}"),
            Value::Timestamp(t) => write!(out, "t:{t}"),
            Value::List(items) => {
                out.push_str("l:[");
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push('\u{1f}');
                    }
                    item.render_into(out);
                }
                out.push(']');
                Ok(())
            }
        }
        .expect("writing to a String");
    }
}

/// Escapes the characters that the list renderer treats structurally, and
/// the escape character itself, so string content never reads as a list's
/// separator or brackets and [`Value::render`] stays injective.
fn escape_str_into(s: &str, out: &mut String) {
    let mut rest = s;
    while let Some(at) = rest.find(['\\', '\u{1f}', '[', ']']) {
        out.push_str(&rest[..at]);
        out.push_str(match rest.as_bytes()[at] {
            b'\\' => "\\\\",
            0x1f => "\\u",
            b'[' => "\\l",
            _ => "\\r",
        });
        // All four are one byte long.
        rest = &rest[at + 1..];
    }
    out.push_str(rest);
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

/// Convenience alias used throughout for operator parameter maps.
pub type ParamMap = BTreeMap<String, Value>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_accessors() {
        assert_eq!(Value::Int(3).as_int(), Some(3));
        assert_eq!(Value::Int(3).as_f64(), Some(3.0));
        assert_eq!(Value::Float(2.5).as_f64(), Some(2.5));
        assert_eq!(Value::Str("x".into()).as_str(), Some("x"));
        assert_eq!(Value::Bool(true).as_bool(), Some(true));
        assert_eq!(Value::Timestamp(9).as_timestamp(), Some(9));
        assert_eq!(Value::Timestamp(9).as_f64(), Some(9.0));
        assert!(Value::Str("x".into()).as_int().is_none());
        let l = Value::List(vec![Value::Int(1)]);
        assert_eq!(l.as_list().unwrap().len(), 1);
    }

    #[test]
    fn value_from_impls() {
        assert_eq!(Value::from(5i64), Value::Int(5));
        assert_eq!(Value::from(1.5), Value::Float(1.5));
        assert_eq!(Value::from("a"), Value::Str("a".into()));
        assert_eq!(Value::from(String::from("b")), Value::Str("b".into()));
        assert_eq!(Value::from(true), Value::Bool(true));
    }
}
