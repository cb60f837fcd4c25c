//! Stream tuples: a row of values under a shared schema.
//!
//! SPL streams declare their attribute names once per stream, and so does
//! this representation: a [`Tuple`] is `Rc<Row { schema, values, bytes }>`,
//! where the [`Schema`] — an ordered list of unique [`Name`]s — is shared by
//! every tuple of that shape. Whoever produces a shape owns its schema: a
//! source resolves one at construction and builds rows with
//! [`Tuple::from_schema`]; a decoder carries one across the tuples of the
//! blob it restores. A tuple costs its row and its values, never its names.
//!
//! Attribute counts are small (a handful per stream), so lookup is a linear
//! scan over the schema's names — faster in practice than hashing for these
//! sizes and trivially deterministic.
//!
//! The row is shared copy-on-write: `clone` is a refcount bump, and
//! `set` copies the row only when another clone still holds it
//! (`Rc::make_mut`). Setting a name the schema does not have moves the row
//! to a *child* schema, found through a memoised parent→child link on the
//! schema instance, so an operator adding one attribute to every tuple of a
//! stream pays a lookup per tuple, not a new name list.
//!
//! The row also carries its size, [`Tuple::approx_bytes`], which the
//! `nTupleBytesProcessed` metric reads at every operator input. Every writer
//! keeps it exact in O(1) — `from_schema` sums it once, a replaced value
//! swaps its share for the new one's, a new name adds its attribute — and
//! in debug builds every read checks it against a walk of the attributes.
//!
//! Nothing here is process-global, and nothing is shared between threads.
//! One thread builds, steps and drops each simulated world, so a row, a
//! schema and a name are counted by `Rc`, the memo is a `RefCell`, and a
//! tuple is not `Send`: clones, writes and drops update reference counts
//! with plain adds, not atomic ones. Memo links hang off schema instances,
//! and an instance lives exactly as long as something holds it: an
//! operator, a port decoder, a tuple, or the parent that memoised it.
//! `Tuple::new()` chains start from a per-thread empty schema, because an
//! `Rc` cannot be one static that every thread reads.

use crate::expr::Scalar;
use sps_model::Value;
use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

/// An attribute name. Shared, so deriving one schema from another never
/// re-allocates the name strings.
pub type Name = Rc<str>;

/// Most one-name extensions a schema memoises. Names come from operator
/// parameters, so real fan-out is one or two; the bound keeps an operator
/// that derives attribute names from data from growing a memo without
/// limit — past it, extensions are built fresh each time.
const MAX_MEMOISED_EXTENSIONS: usize = 16;

/// An ordered list of unique attribute names, shared by the tuples of one
/// shape.
pub struct Schema {
    names: Box<[Name]>,
    /// Schemas reached from this one by appending one name (the key is the
    /// child's last name).
    extensions: RefCell<Vec<Rc<Schema>>>,
}

impl Schema {
    /// A schema with the given names, in order. Panics if a name repeats —
    /// the names are the program's own, so a duplicate is a bug.
    pub fn new(names: &[&str]) -> Rc<Schema> {
        for (i, name) in names.iter().enumerate() {
            assert!(
                !names[..i].contains(name),
                "schema repeats attribute name '{name}'"
            );
        }
        Schema::from_unique_names(names.iter().map(|&n| Name::from(n)).collect())
    }

    /// Wraps a name list the caller guarantees to be duplicate-free (the
    /// decoder checks while it builds the list). The schema stands alone:
    /// no memo leads to it.
    pub(crate) fn from_unique_names(names: Vec<Name>) -> Rc<Schema> {
        Rc::new(Schema {
            names: names.into(),
            extensions: RefCell::new(Vec::new()),
        })
    }

    /// This thread's empty schema: where `Tuple::new()` chains start, and
    /// through its memo where any chain of the same names arrives again.
    pub(crate) fn empty() -> Rc<Schema> {
        EMPTY_SCHEMA.with(Rc::clone)
    }

    pub fn names(&self) -> &[Name] {
        &self.names
    }

    pub fn len(&self) -> usize {
        self.names.len()
    }

    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Position of `name`, if the schema has it.
    #[inline]
    pub(crate) fn position(&self, name: &str) -> Option<usize> {
        self.names.iter().position(|n| &**n == name)
    }

    /// This schema plus `name` (which it must not already have) at the end.
    /// The link is memoised on `self`, so asking again returns the same
    /// instance for as long as `self` lives.
    pub(crate) fn extended(&self, name: &str) -> Rc<Schema> {
        debug_assert!(self.position(name).is_none(), "extending by a held name");
        let mut extensions = self.extensions.borrow_mut();
        if let Some(child) = extensions
            .iter()
            .find(|child| child.names.last().is_some_and(|last| &**last == name))
        {
            return Rc::clone(child);
        }
        let mut names = Vec::with_capacity(self.names.len() + 1);
        names.extend_from_slice(&self.names);
        names.push(Name::from(name));
        let child = Schema::from_unique_names(names);
        if extensions.len() < MAX_MEMOISED_EXTENSIONS {
            extensions.push(Rc::clone(&child));
        }
        child
    }
}

impl fmt::Debug for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.names.iter()).finish()
    }
}

thread_local! {
    /// Where this thread's `Tuple::new()` chains start.
    static EMPTY_SCHEMA: Rc<Schema> = Schema::from_unique_names(Vec::new());
}

#[derive(Clone)]
struct Row {
    schema: Rc<Schema>,
    /// One value per schema name, in schema order.
    values: Vec<Value>,
    /// The row's [`Tuple::approx_bytes`], kept exact by every write.
    bytes: usize,
}

/// What an attribute adds to [`Tuple::approx_bytes`]: its name, three
/// bytes of framing, and its value's share.
fn attr_bytes(name: &str, value: &Value) -> usize {
    name.len() + 3 + value_bytes(value)
}

fn value_bytes(value: &Value) -> usize {
    match value {
        Value::Int(_) | Value::Float(_) | Value::Timestamp(_) => 8,
        Value::Bool(_) => 1,
        Value::Str(s) => s.len() + 4,
        Value::List(l) => 4 + l.len() * 9,
    }
}

/// A row's size walked from its attributes: two bytes of framing plus
/// each attribute's share.
fn walked_bytes(names: &[Name], values: &[Value]) -> usize {
    2 + names
        .iter()
        .zip(values)
        .map(|(n, v)| attr_bytes(n, v))
        .sum::<usize>()
}

impl Row {
    /// Overwrites the value at `idx`, moving the size from the old value's
    /// share to the new one's.
    fn replace(&mut self, idx: usize, value: Value) {
        let old = std::mem::replace(&mut self.values[idx], value);
        self.bytes = self.bytes - value_bytes(&old) + value_bytes(&self.values[idx]);
    }
}

/// A stream data item: ordered `(name, value)` attributes with unique names.
///
/// A tuple stays on the thread that made it: its row and schema are counted
/// by `Rc`, so handing one to another thread does not compile.
///
/// ```compile_fail,E0277
/// fn crosses_threads<T: Send>(_: T) {}
/// crosses_threads(sps_engine::Tuple::new());
/// ```
#[derive(Clone)]
pub struct Tuple {
    row: Rc<Row>,
}

impl Default for Tuple {
    fn default() -> Self {
        Tuple::new()
    }
}

impl Tuple {
    pub fn new() -> Self {
        Tuple::from_schema(&Schema::empty(), Vec::new())
    }

    /// A row of `schema`: one value per name, in the schema's order. Panics
    /// on a count mismatch (a bug in the producing operator).
    pub fn from_schema(schema: &Rc<Schema>, values: Vec<Value>) -> Self {
        assert_eq!(
            schema.len(),
            values.len(),
            "row has {} values for a schema of {} names",
            values.len(),
            schema.len()
        );
        let bytes = walked_bytes(&schema.names, &values);
        Tuple {
            row: Rc::new(Row {
                schema: Rc::clone(schema),
                values,
                bytes,
            }),
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
        let row = Rc::make_mut(&mut self.row);
        match row.schema.position(name) {
            Some(idx) => row.replace(idx, value),
            None => {
                row.bytes += attr_bytes(name, &value);
                row.schema = row.schema.extended(name);
                row.values.push(value);
            }
        }
    }

    /// Overwrites the value at `idx`, a position in this tuple's schema.
    /// For an operator that resolved the position when it first saw the
    /// schema; panics when the schema has no such position.
    pub(crate) fn set_at(&mut self, idx: usize, value: Value) {
        Rc::make_mut(&mut self.row).replace(idx, value);
    }

    /// Writes `value` over the value at `idx`, a position in this tuple's
    /// schema, in place: a number, flag or timestamp over one of the same
    /// kind has its payload overwritten; anything else is `set_at`.
    pub(crate) fn set_scalar_at(&mut self, idx: usize, value: Scalar) {
        let row = Rc::make_mut(&mut self.row);
        match (&mut row.values[idx], value) {
            (Value::Int(v), Scalar::Int(s)) => *v = s,
            (Value::Float(v), Scalar::Float(s)) => *v = s,
            (Value::Bool(v), Scalar::Bool(s)) => *v = s,
            (Value::Timestamp(v), Scalar::Timestamp(s)) => *v = s,
            (_, s) => row.replace(idx, s.to_value()),
        }
    }

    /// Appends `value` under the last name of `child`, which must be what
    /// [`Schema::extended`] made of this tuple's schema: what `set` does
    /// with a new name, for an operator that looked the child up once.
    pub(crate) fn push_as(&mut self, child: &Rc<Schema>, value: Value) {
        let row = Rc::make_mut(&mut self.row);
        assert_eq!(child.len(), row.values.len() + 1, "not a one-name child");
        debug_assert_eq!(child.names[..row.values.len()], row.schema.names[..]);
        row.bytes += attr_bytes(&child.names[row.values.len()], &value);
        row.schema = Rc::clone(child);
        row.values.push(value);
    }

    pub fn get(&self, name: &str) -> Option<&Value> {
        self.row
            .schema
            .position(name)
            .map(|idx| &self.row.values[idx])
    }

    /// The values in schema order: `values()[i]` belongs to
    /// `schema().names()[i]`.
    pub fn values(&self) -> &[Value] {
        &self.row.values
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

    pub fn len(&self) -> usize {
        self.row.values.len()
    }

    pub fn is_empty(&self) -> bool {
        self.row.values.is_empty()
    }

    /// The shape this tuple shares with the others of its stream.
    pub fn schema(&self) -> &Rc<Schema> {
        &self.row.schema
    }

    /// The attributes in order, as `(name, value)` pairs.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (&Name, &Value)> {
        self.row.schema.names.iter().zip(&self.row.values)
    }

    /// Approximate wire size in bytes: two, plus per attribute its name's
    /// length, three, and its value's share (8 for Int, Float and
    /// Timestamp, 1 for Bool, length + 4 for Str, 4 + 9 per element for
    /// List). The row carries it, so reading it is O(1).
    ///
    /// It feeds the `nTupleBytesProcessed` built-in PE metric, which a PE
    /// adds to once when a remote frame arrives and again at every operator
    /// input the tuple reaches inside the PE (see
    /// [`N_TUPLE_BYTES_PROCESSED`](crate::metrics::builtin::N_TUPLE_BYTES_PROCESSED)).
    pub fn approx_bytes(&self) -> usize {
        debug_assert_eq!(
            self.row.bytes,
            walked_bytes(&self.row.schema.names, &self.row.values),
            "a row's cached size drifted from its attributes"
        );
        self.row.bytes
    }
}

/// Equality is by content: the same names in the same order with equal
/// values, however each side came by its schema.
impl PartialEq for Tuple {
    fn eq(&self, other: &Self) -> bool {
        let (a, b) = (&*self.row, &*other.row);
        (Rc::ptr_eq(&a.schema, &b.schema) || a.schema.names == b.schema.names)
            && a.values == b.values
    }
}

/// Renders as the attribute list the tuple stands for —
/// `Tuple { attrs: [("seq", Int(0)), ..] }` — whatever the representation
/// underneath: the harness folds this text into every scenario digest.
impl fmt::Debug for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        struct Attrs<'a>(&'a Tuple);
        impl fmt::Debug for Attrs<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.debug_list().entries(self.0.iter()).finish()
            }
        }
        f.debug_struct("Tuple")
            .field("attrs", &Attrs(self))
            .finish()
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (n, v)) in self.iter().enumerate() {
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
    use crate::codec::{decode_frame, encode, Frame, TupleCodec};
    use crate::op::{Operator, StreamItem};
    use crate::ops::testutil::Harness;
    use crate::ops::Sink;
    use proptest::prelude::*;
    use sps_model::value::ParamMap;

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

    #[test]
    fn from_schema_rows_equal_built_ones() {
        let schema = Schema::new(&["seq", "ts"]);
        let row = Tuple::from_schema(&schema, vec![Value::Int(3), Value::Timestamp(9)]);
        let built = Tuple::new()
            .with("seq", 3i64)
            .with("ts", Value::Timestamp(9));
        assert_eq!(row, built);
        assert!(!Rc::ptr_eq(row.schema(), built.schema()));
        assert_eq!(row.approx_bytes(), built.approx_bytes());
        let names: Vec<&str> = row.iter().map(|(n, _)| &**n).collect();
        assert_eq!(names, ["seq", "ts"]);
        // Same names in another order are another tuple.
        let swapped = Tuple::new()
            .with("ts", Value::Timestamp(9))
            .with("seq", 3i64);
        assert_ne!(row, swapped);
    }

    #[test]
    #[should_panic(expected = "repeats attribute name")]
    fn schema_rejects_a_repeated_name() {
        Schema::new(&["a", "b", "a"]);
    }

    #[test]
    #[should_panic(expected = "values for a schema")]
    fn from_schema_rejects_a_short_row() {
        Tuple::from_schema(&Schema::new(&["a", "b"]), vec![Value::Int(1)]);
    }

    #[test]
    fn setting_a_new_name_follows_the_memoised_link() {
        let schema = Schema::new(&["seq"]);
        let mut a = Tuple::from_schema(&schema, vec![Value::Int(1)]);
        let mut b = Tuple::from_schema(&schema, vec![Value::Int(2)]);
        a.set("v", 10i64);
        b.set("v", 20i64);
        // Both rows moved to the one child schema; the parent is untouched.
        assert!(Rc::ptr_eq(a.schema(), b.schema()));
        assert!(Rc::ptr_eq(a.schema(), &schema.extended("v")));
        assert_eq!(schema.len(), 1);
        // Overwriting keeps the schema.
        let before = Rc::clone(a.schema());
        a.set("v", 11i64);
        assert!(Rc::ptr_eq(a.schema(), &before));
        // A different name is a different child.
        let mut c = Tuple::from_schema(&schema, vec![Value::Int(3)]);
        c.set("w", 1i64);
        assert!(!Rc::ptr_eq(c.schema(), a.schema()));
    }

    #[test]
    fn extension_memo_is_bounded() {
        let schema = Schema::new(&["k"]);
        let first = schema.extended("n0");
        for i in 0..4 * MAX_MEMOISED_EXTENSIONS {
            let child = schema.extended(&format!("n{i}"));
            assert_eq!(&**child.names().last().unwrap(), format!("n{i}"));
        }
        assert!(schema.extensions.borrow().len() <= MAX_MEMOISED_EXTENSIONS);
        // Memoised links stay; names past the bound get fresh schemas.
        assert!(Rc::ptr_eq(&first, &schema.extended("n0")));
        let late = format!("n{}", 4 * MAX_MEMOISED_EXTENSIONS - 1);
        assert!(!Rc::ptr_eq(
            &schema.extended(&late),
            &schema.extended(&late)
        ));
    }

    #[test]
    fn a_schema_dies_with_its_last_holder() {
        let schema = Schema::new(&["a"]);
        let child = Rc::downgrade(&schema.extended("b"));
        // Held by the parent's memo, by nothing else.
        assert!(child.upgrade().is_some());
        drop(schema);
        assert!(child.upgrade().is_none());
    }

    /// `render_artifacts` prints `{:?}` of every retained tuple — the text
    /// the determinism suite compares and a failing plan is read by — so the
    /// rendering is pinned to what the derived `Debug` of the old
    /// `Tuple { attrs: Vec<(Name, Value)> }` behind a shared pointer printed.
    #[test]
    fn debug_rendering_is_pinned() {
        let empty = Tuple::new();
        let one = Tuple::new().with("seq", 7i64);
        let six = Tuple::new()
            .with("i", -7i64)
            .with("f", 2.75)
            .with("s", "hi")
            .with("b", true)
            .with("ts", Value::Timestamp(123))
            .with(
                "l",
                Value::List(vec![Value::Int(1), Value::Str("x".into())]),
            );
        let pinned = [
            (&empty, "Tuple { attrs: [] }", "Tuple {\n    attrs: [],\n}"),
            (&one, "Tuple { attrs: [(\"seq\", Int(7))] }", "Tuple {\n    attrs: [\n        (\n            \"seq\",\n            Int(\n                7,\n            ),\n        ),\n    ],\n}"),
            (&six, "Tuple { attrs: [(\"i\", Int(-7)), (\"f\", Float(2.75)), (\"s\", Str(\"hi\")), (\"b\", Bool(true)), (\"ts\", Timestamp(123)), (\"l\", List([Int(1), Str(\"x\")]))] }", "Tuple {\n    attrs: [\n        (\n            \"i\",\n            Int(\n                -7,\n            ),\n        ),\n        (\n            \"f\",\n            Float(\n                2.75,\n            ),\n        ),\n        (\n            \"s\",\n            Str(\n                \"hi\",\n            ),\n        ),\n        (\n            \"b\",\n            Bool(\n                true,\n            ),\n        ),\n        (\n            \"ts\",\n            Timestamp(\n                123,\n            ),\n        ),\n        (\n            \"l\",\n            List(\n                [\n                    Int(\n                        1,\n                    ),\n                    Str(\n                        \"x\",\n                    ),\n                ],\n            ),\n        ),\n    ],\n}"),
        ];
        for (t, compact, pretty) in pinned {
            assert_eq!(format!("{t:?}"), compact);
            assert_eq!(format!("{t:#?}"), pretty);
        }
        // The schema a row came by does not show.
        let row = Tuple::from_schema(&Schema::new(&["seq"]), vec![Value::Int(7)]);
        assert_eq!(format!("{row:?}"), format!("{one:?}"));
        assert_eq!(format!("{row:#?}"), format!("{one:#?}"));
    }

    /// `approx_bytes`' formula restated over `iter()`, owing nothing to the
    /// row's cached size or to the helpers that maintain it.
    fn walked(t: &Tuple) -> usize {
        t.iter()
            .map(|(name, value)| {
                name.len()
                    + 3
                    + match value {
                        Value::Int(_) | Value::Float(_) | Value::Timestamp(_) => 8,
                        Value::Bool(_) => 1,
                        Value::Str(s) => s.len() + 4,
                        Value::List(l) => 4 + 9 * l.len(),
                    }
            })
            .sum::<usize>()
            + 2
    }

    /// Names of different lengths, so a size that forgets a name shows.
    const NAMES: [&str; 6] = ["a", "ab", "seq", "v", "payload", "x_long_name"];

    fn arb_leaf() -> impl Strategy<Value = Value> {
        prop_oneof![
            any::<i64>().prop_map(Value::Int),
            (-1e6..1e6f64).prop_map(Value::Float),
            "[a-z]{0,12}".prop_map(Value::Str),
            any::<bool>().prop_map(Value::Bool),
            any::<u64>().prop_map(Value::Timestamp),
        ]
    }

    /// Every variant; `Str` and `List` of random length, empty included.
    fn arb_value() -> impl Strategy<Value = Value> {
        prop_oneof![
            5 => arb_leaf(),
            1 => prop::collection::vec(arb_leaf(), 0..6).prop_map(Value::List),
        ]
    }

    /// One write to the pool of tuples. A `usize` target or position is
    /// taken modulo what it indexes; a name is an index into `NAMES`.
    #[derive(Clone, Debug)]
    enum Step {
        /// A row of the first `values.len()` names, built whole.
        FromSchema(Vec<Value>),
        /// `with` (builder) or `set`, on a held or a new name.
        Set(usize, usize, Value, bool),
        SetAt(usize, usize, Value),
        /// `set_scalar_at` of the scalar view of a value (a list has none:
        /// the step is skipped), or with the flag of a value of the slot's
        /// own kind, so payloads are overwritten and strings grow and shrink.
        SetScalar(usize, usize, Value, bool),
        /// `push_as` through `Schema::extended`; a no-op on a held name.
        PushAs(usize, usize, Value),
        Collect(Vec<(usize, Value)>),
        /// A clone joins the pool; writes to either must not reach the other.
        Clone(usize),
        /// The pool through the codec, item by item and as one batch.
        RoundTrip,
        /// The pool into a sink, checkpointed, restored into another sink.
        SinkRing,
    }

    fn arb_step() -> impl Strategy<Value = Step> {
        let name = 0..NAMES.len();
        prop_oneof![
            1 => prop::collection::vec(arb_value(), 0..=NAMES.len()).prop_map(Step::FromSchema),
            4 => (any::<usize>(), name.clone(), arb_value(), any::<bool>())
                .prop_map(|(t, n, v, builder)| Step::Set(t, n, v, builder)),
            3 => (any::<usize>(), any::<usize>(), arb_value())
                .prop_map(|(t, i, v)| Step::SetAt(t, i, v)),
            4 => (any::<usize>(), any::<usize>(), arb_value(), any::<bool>())
                .prop_map(|(t, i, v, same)| Step::SetScalar(t, i, v, same)),
            3 => (any::<usize>(), name.clone(), arb_value())
                .prop_map(|(t, n, v)| Step::PushAs(t, n, v)),
            1 => prop::collection::vec((name, arb_value()), 0..8).prop_map(Step::Collect),
            2 => any::<usize>().prop_map(Step::Clone),
            1 => Just(Step::RoundTrip),
            1 => Just(Step::SinkRing),
        ]
    }

    /// A value of `old`'s kind drawn from `v`'s bits; for a string, one of a
    /// length `v` picks, so a write grows or shrinks it.
    fn same_kind(old: &Value, v: &Value) -> Value {
        let n = match v {
            Value::Int(i) => *i as u64,
            Value::Float(f) => f.to_bits(),
            Value::Str(s) => s.len() as u64 * 7,
            Value::Bool(b) => *b as u64,
            Value::Timestamp(t) => *t,
            Value::List(l) => l.len() as u64,
        };
        match old {
            Value::Int(_) => Value::Int(n as i64),
            Value::Float(_) => Value::Float((n % 1000) as f64 / 8.0),
            Value::Bool(_) => Value::Bool(n % 2 == 1),
            Value::Timestamp(_) => Value::Timestamp(n),
            Value::Str(_) => Value::Str("z".repeat((n % 20) as usize)),
            Value::List(_) => v.clone(),
        }
    }

    /// Every tuple read back from a codec or a sink sizes as its walk and as
    /// the tuple it was made from.
    fn check_copies<'a>(pool: &[Tuple], copies: impl Iterator<Item = &'a Tuple>) {
        let copies: Vec<&Tuple> = copies.collect();
        assert_eq!(copies.len(), pool.len());
        for (copy, t) in copies.into_iter().zip(pool) {
            assert_eq!(copy.approx_bytes(), walked(copy));
            assert_eq!(copy.approx_bytes(), t.approx_bytes());
        }
    }

    proptest! {
        /// The size a row carries is, after every write, what walking its
        /// attributes gives. In release builds, where `approx_bytes`' own
        /// check is compiled out, this is the only check of the cache.
        #[test]
        fn row_size_is_the_attribute_walk(steps in prop::collection::vec(arb_step(), 0..40)) {
            let mut pool = vec![Tuple::new()];
            for step in steps {
                let before: Vec<(usize, Vec<Value>)> =
                    pool.iter().map(|t| (walked(t), t.values().to_vec())).collect();
                let mut written = None;
                match step {
                    Step::FromSchema(values) => {
                        let schema = Schema::new(&NAMES[..values.len()]);
                        pool.push(Tuple::from_schema(&schema, values));
                    }
                    Step::Set(t, n, v, builder) => {
                        let t = t % pool.len();
                        if builder {
                            pool[t] = pool[t].clone().with(NAMES[n], v);
                        } else {
                            pool[t].set(NAMES[n], v);
                        }
                        written = Some(t);
                    }
                    Step::SetAt(t, i, v) => {
                        let t = t % pool.len();
                        if !pool[t].is_empty() {
                            let i = i % pool[t].len();
                            pool[t].set_at(i, v);
                            written = Some(t);
                        }
                    }
                    Step::SetScalar(t, i, v, same) => {
                        let t = t % pool.len();
                        if !pool[t].is_empty() {
                            let i = i % pool[t].len();
                            let v = if same { same_kind(&pool[t].values()[i], &v) } else { v };
                            if let Some(s) = Scalar::of(&v) {
                                let unshared = Rc::strong_count(&pool[t].row) == 1;
                                let row = pool[t].values().as_ptr();
                                pool[t].set_scalar_at(i, s);
                                prop_assert_eq!(&pool[t].values()[i], &v);
                                // An unshared row is written where it lies.
                                if unshared {
                                    prop_assert_eq!(pool[t].values().as_ptr(), row);
                                }
                                written = Some(t);
                            }
                        }
                    }
                    Step::PushAs(t, n, v) => {
                        let t = t % pool.len();
                        if pool[t].get(NAMES[n]).is_none() {
                            let child = pool[t].schema().extended(NAMES[n]);
                            pool[t].push_as(&child, v);
                            written = Some(t);
                        }
                    }
                    Step::Collect(attrs) => pool.push(
                        attrs
                            .into_iter()
                            .map(|(n, v)| (NAMES[n].to_string(), v))
                            .collect(),
                    ),
                    Step::Clone(t) => pool.push(pool[t % pool.len()].clone()),
                    Step::RoundTrip => {
                        let items: Vec<Tuple> = pool
                            .iter()
                            .map(|t| match decode_frame(encode(&StreamItem::Tuple(t.clone()))) {
                                Ok(Frame::Item(StreamItem::Tuple(back))) => back,
                                other => panic!("an item frame decoded as {other:?}"),
                            })
                            .collect();
                        check_copies(&pool, items.iter());
                        match decode_frame(TupleCodec::new().encode_batch(&pool)) {
                            Ok(Frame::Batch(batch)) => check_copies(&pool, batch.iter()),
                            other => panic!("a batch frame decoded as {other:?}"),
                        }
                    }
                    Step::SinkRing => {
                        let keep = Value::Int(pool.len() as i64);
                        let params: ParamMap = [("keep".to_string(), keep)].into();
                        let mut sink = Sink::from_params("s", &params).unwrap();
                        Harness::new(0).batch(&mut sink, 0, pool.clone());
                        let blob = sink.checkpoint().unwrap();
                        let mut restored = Sink::from_params("s", &params).unwrap();
                        restored.restore(&blob).unwrap();
                        check_copies(&pool, restored.tap().unwrap().iter());
                    }
                }
                for (i, t) in pool.iter().enumerate() {
                    prop_assert_eq!(t.approx_bytes(), walked(t), "tuple {} of {:?}", i, t);
                }
                // Copy-on-write: a write reaches its own tuple and no clone.
                for (i, (size, values)) in before.into_iter().enumerate() {
                    if written != Some(i) {
                        prop_assert_eq!(pool[i].approx_bytes(), size, "tuple {}", i);
                        prop_assert_eq!(pool[i].values(), &values[..], "tuple {}", i);
                    }
                }
            }
        }
    }
}
