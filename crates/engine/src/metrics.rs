//! Built-in and custom runtime metrics (§2.1).
//!
//! Built-in metrics are maintained automatically by the PE container for
//! every operator (tuples processed/submitted, queue sizes) and per PE
//! (bytes processed). Custom metrics are created and updated by operator
//! code at any point during execution — e.g. the sentiment application's
//! `nKnownCauses` / `nUnknownCauses` counters (§5.1).

use std::rc::Rc;

/// Well-known built-in metric names (paper §2.1 examples).
pub mod builtin {
    /// Tuples processed by an operator (all input ports).
    pub const N_TUPLES_PROCESSED: &str = "nTuplesProcessed";
    /// Tuples submitted by an operator (all output ports).
    pub const N_TUPLES_SUBMITTED: &str = "nTuplesSubmitted";
    /// Current input-queue length of an operator.
    pub const QUEUE_SIZE: &str = "queueSize";
    /// Final punctuations processed by an operator (drives §5.3).
    pub const N_FINAL_PUNCTS_PROCESSED: &str = "nFinalPunctsProcessed";
    /// Tuple bytes a PE has seen, by `Tuple::approx_bytes` (PE-level
    /// metric). A PE adds a remote frame's bytes when the frame arrives,
    /// and the same tuples' bytes again at every operator input they reach
    /// inside the PE. So a one-operator PE counts each remote tuple twice,
    /// a fused PE of k operators counts a tuple once per operator it enters,
    /// and a PE whose only operator is a source never has the metric.
    pub const N_TUPLE_BYTES_PROCESSED: &str = "nTupleBytesProcessed";
}

/// Identifies one metric instance within a job.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum MetricKey {
    /// Operator-level metric: `(operator instance name, metric name)`.
    Operator(String, String),
    /// Operator-port metric: `(operator, port, metric name)`.
    OperatorPort(String, usize, String),
    /// PE-level metric: `(pe index, metric name)`.
    Pe(usize, String),
}

/// A borrowed [`MetricKey`]: lets the store look a key up (and order keys)
/// without building the two `String`s of an owned one. Variants and fields
/// are declared in `MetricKey`'s order; `MetricKey`'s `Ord` is this one's.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum KeyRef<'a> {
    Operator(&'a str, &'a str),
    OperatorPort(&'a str, usize, &'a str),
    Pe(usize, &'a str),
}

impl KeyRef<'_> {
    fn to_key(self) -> MetricKey {
        match self {
            KeyRef::Operator(op, m) => MetricKey::Operator(op.into(), m.into()),
            KeyRef::OperatorPort(op, port, m) => MetricKey::OperatorPort(op.into(), port, m.into()),
            KeyRef::Pe(pe, m) => MetricKey::Pe(pe, m.into()),
        }
    }
}

impl MetricKey {
    pub fn metric_name(&self) -> &str {
        match self {
            MetricKey::Operator(_, m) | MetricKey::OperatorPort(_, _, m) | MetricKey::Pe(_, m) => m,
        }
    }

    pub fn operator_name(&self) -> Option<&str> {
        match self {
            MetricKey::Operator(op, _) | MetricKey::OperatorPort(op, _, _) => Some(op),
            MetricKey::Pe(..) => None,
        }
    }

    fn key_ref(&self) -> KeyRef<'_> {
        match self {
            MetricKey::Operator(op, m) => KeyRef::Operator(op, m),
            MetricKey::OperatorPort(op, port, m) => KeyRef::OperatorPort(op, *port, m),
            MetricKey::Pe(pe, m) => KeyRef::Pe(*pe, m),
        }
    }
}

impl Ord for MetricKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key_ref().cmp(&other.key_ref())
    }
}

impl PartialOrd for MetricKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// A pre-resolved metric of one [`MetricStore`]: updating through it is an
/// array index instead of a key lookup. Only meaningful for the store that
/// issued it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MetricId(usize);

#[derive(Clone, Debug)]
struct Slot {
    key: Rc<MetricKey>,
    value: i64,
    /// False until the first `add`/`set`: a resolved but never-updated
    /// metric does not exist as far as readers are concerned.
    live: bool,
}

/// A flat store of metric values, owned by a PE container and periodically
/// snapshotted by the host controller (§2.2).
///
/// Keys are interned behind `Rc` the first time they are inserted, so the
/// per-checkpoint-quantum [`MetricStore::snapshot`] hands out refcount bumps
/// instead of deep-cloning every operator/metric name string. The container
/// resolves its built-in metrics to [`MetricId`]s once, at build time.
#[derive(Clone, Debug, Default)]
pub struct MetricStore {
    /// Every key the store knows, live or merely resolved; a slot's
    /// position is its `MetricId` and never changes.
    slots: Vec<Slot>,
    /// Slot positions sorted by key.
    order: Vec<usize>,
    live: usize,
}

impl MetricStore {
    pub fn new() -> Self {
        Self::default()
    }

    fn find(&self, key: KeyRef<'_>) -> Result<usize, usize> {
        self.order
            .binary_search_by(|&slot| self.slots[slot].key.key_ref().cmp(&key))
    }

    /// The slot a [`MetricStore::find`] result stands for, created (not
    /// live) under `interned`'s key if the store has never seen it.
    fn slot_at(
        &mut self,
        found: Result<usize, usize>,
        interned: impl FnOnce() -> Rc<MetricKey>,
    ) -> usize {
        match found {
            Ok(pos) => self.order[pos],
            Err(pos) => {
                let slot = self.slots.len();
                self.slots.push(Slot {
                    key: interned(),
                    value: 0,
                    live: false,
                });
                self.order.insert(pos, slot);
                slot
            }
        }
    }

    fn slot_of(&mut self, key: KeyRef<'_>) -> usize {
        let found = self.find(key);
        self.slot_at(found, || Rc::new(key.to_key()))
    }

    /// Resolves a key to an id for [`MetricStore::add_by`] /
    /// [`MetricStore::set_by`]. Resolving creates nothing observable: the
    /// metric appears with its first update.
    pub fn resolve(&mut self, key: MetricKey) -> MetricId {
        let found = self.find(key.key_ref());
        MetricId(self.slot_at(found, || Rc::new(key)))
    }

    /// The value behind an id, brought to life (at zero) if this is its
    /// first update.
    fn value_mut(&mut self, id: MetricId) -> &mut i64 {
        let slot = &mut self.slots[id.0];
        if !slot.live {
            slot.live = true;
            self.live += 1;
        }
        &mut slot.value
    }

    pub fn add_by(&mut self, id: MetricId, delta: i64) {
        *self.value_mut(id) += delta;
    }

    pub fn set_by(&mut self, id: MetricId, value: i64) {
        *self.value_mut(id) = value;
    }

    /// Sets a metric to an absolute value (creates it if absent — operators
    /// "can create new custom metrics at any point during their execution").
    pub fn set(&mut self, key: MetricKey, value: i64) {
        let id = self.resolve(key);
        self.set_by(id, value);
    }

    /// Sets a metric through an already-interned key (checkpoint restore),
    /// sharing the snapshot's allocation instead of re-interning.
    pub fn set_shared(&mut self, key: Rc<MetricKey>, value: i64) {
        let found = self.find(key.key_ref());
        let slot = self.slot_at(found, || key);
        self.set_by(MetricId(slot), value);
    }

    /// Adds a delta, creating the metric at zero first if needed.
    pub fn add(&mut self, key: MetricKey, delta: i64) {
        let id = self.resolve(key);
        self.add_by(id, delta);
    }

    /// Forgets every value (checkpoint restore starts from an empty store)
    /// while keeping resolved ids valid.
    pub fn clear(&mut self) {
        for slot in &mut self.slots {
            slot.live = false;
            slot.value = 0;
        }
        self.live = 0;
    }

    fn get_ref(&self, key: KeyRef<'_>) -> Option<i64> {
        let slot = &self.slots[self.order[self.find(key).ok()?]];
        slot.live.then_some(slot.value)
    }

    pub fn get(&self, key: &MetricKey) -> Option<i64> {
        self.get_ref(key.key_ref())
    }

    pub fn len(&self) -> usize {
        self.live
    }

    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    fn live_slots(&self) -> impl Iterator<Item = &Slot> {
        self.order
            .iter()
            .map(|&slot| &self.slots[slot])
            .filter(|slot| slot.live)
    }

    /// Live metrics in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&MetricKey, i64)> {
        self.live_slots().map(|s| (s.key.as_ref(), s.value))
    }

    /// Snapshot for SRM collection and checkpointing, in key order:
    /// interned keys, so each row costs one refcount bump, not a string
    /// clone.
    pub fn snapshot(&self) -> Vec<(Rc<MetricKey>, i64)> {
        let mut rows = Vec::with_capacity(self.live);
        rows.extend(self.live_slots().map(|s| (Rc::clone(&s.key), s.value)));
        rows
    }

    /// [`MetricStore::resolve`] for an operator-level metric, from borrowed
    /// names: nothing is allocated once the store knows the key.
    pub fn op_resolve(&mut self, op: &str, metric: &str) -> MetricId {
        MetricId(self.slot_of(KeyRef::Operator(op, metric)))
    }

    /// Convenience accessors used by operator contexts.
    pub fn op_add(&mut self, op: &str, metric: &str, delta: i64) {
        let id = self.op_resolve(op, metric);
        self.add_by(id, delta);
    }

    pub fn op_set(&mut self, op: &str, metric: &str, value: i64) {
        let id = self.op_resolve(op, metric);
        self.set_by(id, value);
    }

    pub fn op_get(&self, op: &str, metric: &str) -> Option<i64> {
        self.get_ref(KeyRef::Operator(op, metric))
    }

    pub fn pe_add(&mut self, pe: usize, metric: &str, delta: i64) {
        let slot = self.slot_of(KeyRef::Pe(pe, metric));
        self.add_by(MetricId(slot), delta);
    }

    pub fn pe_get(&self, pe: usize, metric: &str) -> Option<i64> {
        self.get_ref(KeyRef::Pe(pe, metric))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_add_get() {
        let mut m = MetricStore::new();
        let key = MetricKey::Operator("op1".into(), "nTuplesProcessed".into());
        assert_eq!(m.get(&key), None);
        m.add(key.clone(), 5);
        m.add(key.clone(), 3);
        assert_eq!(m.get(&key), Some(8));
        m.set(key.clone(), 100);
        assert_eq!(m.get(&key), Some(100));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn key_kinds_are_distinct() {
        let mut m = MetricStore::new();
        m.add(MetricKey::Operator("a".into(), "x".into()), 1);
        m.add(MetricKey::OperatorPort("a".into(), 0, "x".into()), 2);
        m.add(MetricKey::Pe(0, "x".into()), 3);
        assert_eq!(m.len(), 3);
        assert_eq!(m.op_get("a", "x"), Some(1));
        assert_eq!(m.pe_get(0, "x"), Some(3));
    }

    #[test]
    fn key_accessors() {
        let k = MetricKey::Operator("op".into(), "m".into());
        assert_eq!(k.metric_name(), "m");
        assert_eq!(k.operator_name(), Some("op"));
        let p = MetricKey::Pe(2, "bytes".into());
        assert_eq!(p.metric_name(), "bytes");
        assert_eq!(p.operator_name(), None);
        let q = MetricKey::OperatorPort("op".into(), 1, "q".into());
        assert_eq!(q.operator_name(), Some("op"));
    }

    #[test]
    fn snapshot_is_deterministic_and_complete() {
        let mut m = MetricStore::new();
        m.op_add("b", "m", 2);
        m.op_add("a", "m", 1);
        m.pe_add(0, "bytes", 10);
        let snap = m.snapshot();
        assert_eq!(snap.len(), 3);
        // BTreeMap ordering: Operator(a) < Operator(b) < Pe(0).
        assert_eq!(snap[0].0.operator_name(), Some("a"));
        assert_eq!(snap[1].0.operator_name(), Some("b"));
        assert!(matches!(snap[2].0.as_ref(), MetricKey::Pe(0, _)));
    }

    #[test]
    fn resolved_metric_is_absent_until_its_first_update() {
        let mut m = MetricStore::new();
        m.op_add("b", "m", 1);
        m.op_add("z", "m", 1);
        // Resolved between two live keys, never touched.
        let id = m.resolve(MetricKey::Operator("k".into(), "m".into()));
        let port = m.resolve(MetricKey::OperatorPort("k".into(), 0, "m".into()));
        let key = MetricKey::Operator("k".into(), "m".into());
        assert_eq!(m.len(), 2);
        assert_eq!(m.get(&key), None);
        assert_eq!(m.op_get("k", "m"), None);
        assert_eq!(m.iter().count(), 2);
        assert!(m.snapshot().iter().all(|(k, _)| **k != key));

        // The first update creates it, in key order: b < k < z, then the
        // port keys.
        m.add_by(id, 5);
        m.add_by(id, 2);
        assert_eq!(m.get(&key), Some(7));
        let ops: Vec<_> = m.iter().map(|(k, v)| (k.operator_name(), v)).collect();
        assert_eq!(ops, [(Some("b"), 1), (Some("k"), 7), (Some("z"), 1)]);
        m.set_by(port, 9);
        let snap = m.snapshot();
        assert_eq!(snap.len(), 4);
        assert_eq!(
            *snap[3].0,
            MetricKey::OperatorPort("k".into(), 0, "m".into())
        );

        // By-key and by-id updates hit the same row, and its interned key.
        m.op_add("k", "m", 1);
        assert_eq!(m.get(&key), Some(8));
        assert!(Rc::ptr_eq(&m.snapshot()[1].0, &snap[1].0));

        // Clearing forgets the values, not the ids.
        m.clear();
        assert!(m.is_empty() && m.snapshot().is_empty());
        m.add_by(id, 3);
        assert_eq!(m.op_get("k", "m"), Some(3));
        assert_eq!(m.len(), 1);

        // Resolving by borrowed names finds the same row, and a new key
        // resolved that way is just as absent until its first update.
        assert_eq!(m.op_resolve("k", "m"), id);
        let custom = m.op_resolve("k", "nCustom");
        assert_eq!(m.op_resolve("k", "nCustom"), custom);
        assert_eq!(m.len(), 1);
        assert_eq!(m.op_get("k", "nCustom"), None);
        assert!(m.iter().all(|(k, _)| k.metric_name() != "nCustom"));
        m.set_by(custom, 4);
        assert_eq!(m.op_get("k", "nCustom"), Some(4));
        assert_eq!(m.snapshot().len(), 2);
    }

    #[test]
    fn key_order_is_variant_then_fields() {
        let op = |o: &str, m: &str| MetricKey::Operator(o.into(), m.into());
        let port = |o: &str, p: usize, m: &str| MetricKey::OperatorPort(o.into(), p, m.into());
        let keys = [
            op("a", "m"),
            op("a", "n"),
            op("ab", "a"),
            port("a", 0, "z"),
            port("a", 1, "a"),
            port("b", 0, "a"),
            MetricKey::Pe(0, "z".into()),
            MetricKey::Pe(1, "a".into()),
        ];
        for pair in keys.windows(2) {
            assert!(pair[0] < pair[1], "{:?} < {:?}", pair[0], pair[1]);
        }
    }

    #[test]
    fn convenience_helpers() {
        let mut m = MetricStore::new();
        m.op_set("op", "custom", 42);
        assert_eq!(m.op_get("op", "custom"), Some(42));
        assert_eq!(m.op_get("op", "other"), None);
        assert!(!m.is_empty());
        assert_eq!(m.iter().count(), 1);
    }
}
