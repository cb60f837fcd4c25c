//! Stream tuples: ordered named attribute lists.
//!
//! Attribute counts are small (a handful per stream), so lookup is a linear
//! scan over an inline vector — faster in practice than hashing for these
//! sizes and trivially deterministic.
//!
//! The attribute list is shared copy-on-write: `clone` is a refcount bump,
//! and `set`/`remove` copy the list only when another clone still holds it
//! (`Arc::make_mut`). A tuple fanned out to several consumers — local
//! routes, importing jobs, upstream-backup buffers, sink retention, window
//! stores — is therefore one allocation until somebody mutates their copy.

use sps_model::Value;
use std::fmt;
use std::sync::Arc;

/// An attribute name. Shared, so copying a tuple's schema (into a clone
/// that is being mutated, or across the tuples of one decoded batch) never
/// re-allocates the name strings.
pub type Name = Arc<str>;

/// A stream data item: ordered `(name, value)` attributes with unique names.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct Tuple {
    attrs: Arc<Vec<(Name, Value)>>,
}

impl Tuple {
    pub fn new() -> Self {
        Tuple::default()
    }

    /// Wraps an attribute list whose names the caller guarantees to be
    /// unique (the decoder checks while it builds the list).
    pub(crate) fn from_unique_attrs(attrs: Vec<(Name, Value)>) -> Self {
        Tuple {
            attrs: Arc::new(attrs),
        }
    }

    /// Builder-style attribute addition; replaces an existing attribute with
    /// the same name.
    pub fn with(mut self, name: &str, value: impl Into<Value>) -> Self {
        self.set(name, value);
        self
    }

    pub fn set(&mut self, name: &str, value: impl Into<Value>) {
        let value = value.into();
        let attrs = Arc::make_mut(&mut self.attrs);
        if let Some(slot) = attrs.iter_mut().find(|(n, _)| &**n == name) {
            slot.1 = value;
        } else {
            attrs.push((Name::from(name), value));
        }
    }

    pub fn get(&self, name: &str) -> Option<&Value> {
        self.attrs
            .iter()
            .find(|(n, _)| &**n == name)
            .map(|(_, v)| v)
    }

    pub fn get_int(&self, name: &str) -> Option<i64> {
        self.get(name).and_then(Value::as_int)
    }

    pub fn get_f64(&self, name: &str) -> Option<f64> {
        self.get(name).and_then(Value::as_f64)
    }

    pub fn get_str(&self, name: &str) -> Option<&str> {
        self.get(name).and_then(Value::as_str)
    }

    pub fn get_bool(&self, name: &str) -> Option<bool> {
        self.get(name).and_then(Value::as_bool)
    }

    pub fn remove(&mut self, name: &str) -> Option<Value> {
        let idx = self.attrs.iter().position(|(n, _)| &**n == name)?;
        Some(Arc::make_mut(&mut self.attrs).remove(idx).1)
    }

    pub fn len(&self) -> usize {
        self.attrs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.attrs.is_empty()
    }

    pub fn attrs(&self) -> &[(Name, Value)] {
        &self.attrs
    }

    /// Approximate wire size in bytes — drives the `nTupleBytesProcessed`
    /// built-in PE metric.
    pub fn approx_bytes(&self) -> usize {
        self.attrs
            .iter()
            .map(|(n, v)| {
                n.len()
                    + 3
                    + match v {
                        Value::Int(_) | Value::Float(_) | Value::Timestamp(_) => 8,
                        Value::Bool(_) => 1,
                        Value::Str(s) => s.len() + 4,
                        Value::List(l) => 4 + l.len() * 9,
                    }
            })
            .sum::<usize>()
            + 2
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (n, v)) in self.attrs.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{n}={}", v.render())?;
        }
        write!(f, "}}")
    }
}

impl FromIterator<(String, Value)> for Tuple {
    fn from_iter<I: IntoIterator<Item = (String, Value)>>(iter: I) -> Self {
        let mut t = Tuple::new();
        for (name, value) in iter {
            t.set(&name, value);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_get_set() {
        let t = Tuple::new()
            .with("sym", "IBM")
            .with("price", 101.5)
            .with("vol", 300i64);
        assert_eq!(t.get_str("sym"), Some("IBM"));
        assert_eq!(t.get_f64("price"), Some(101.5));
        assert_eq!(t.get_int("vol"), Some(300));
        assert_eq!(t.get("missing"), None);
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn with_replaces_existing() {
        let t = Tuple::new().with("x", 1i64).with("x", 2i64);
        assert_eq!(t.len(), 1);
        assert_eq!(t.get_int("x"), Some(2));
    }

    #[test]
    fn remove_attr() {
        let mut t = Tuple::new().with("a", 1i64).with("b", 2i64);
        assert_eq!(t.remove("a"), Some(Value::Int(1)));
        assert_eq!(t.remove("a"), None);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn numeric_coercion() {
        let t = Tuple::new().with("i", 4i64);
        assert_eq!(t.get_f64("i"), Some(4.0));
    }

    #[test]
    fn display_and_bytes() {
        let t = Tuple::new().with("a", 1i64).with("s", "xy");
        let s = t.to_string();
        assert!(s.contains("a=i:1"));
        assert!(s.contains("s=s:xy"));
        assert!(t.approx_bytes() > 10);
        assert!(Tuple::new().approx_bytes() >= 2);
    }

    #[test]
    fn from_iterator() {
        let t: Tuple = vec![
            ("a".to_string(), Value::Int(1)),
            ("b".to_string(), Value::Bool(true)),
        ]
        .into_iter()
        .collect();
        assert_eq!(t.get_bool("b"), Some(true));
        assert!(!t.is_empty());
    }
}
