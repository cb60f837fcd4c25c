//! §5.3 — On-demand dynamic application composition (Figure 10).
//!
//! Three sub-application categories build comprehensive social-media user
//! profiles:
//!
//! - **C1** readers consume continuous social streams (Twitter, MySpace),
//!   identify profiles of interest, and export them;
//! - **C2** query apps import those profiles, enrich them against
//!   keyword-search services (Facebook/Twitter/Blogs), and integrate the
//!   results into a deduplicating profile **data store**, maintaining custom
//!   metrics counting discovered profiles per attribute (duplicates
//!   included — C1 feeds multiple C2s);
//! - **C3** aggregators read the store and correlate sentiments with one
//!   attribute (age/gender/location), emitting a **final punctuation** when
//!   done.
//!
//! [`CompositionOrca`] wires C2→C1 dependencies (uptime 0), expands the
//! composition by submitting a C3 job whenever ≥ `threshold` (paper: 1500)
//! *new* profiles with some attribute appeared since the last C3 launch,
//! and contracts it by cancelling the C3 job when the sink's
//! `nFinalPunctsProcessed` built-in metric fires.
//!
//! # The store's layout
//!
//! Every C2 tuple probes the store and every C3 job scans it, so the store
//! ([`ProfileStoreHandle`]) is three flat parts:
//!
//! - an append-only **arena** of `(key, slot)` pairs in first-sight order.
//!   The key holds a user name of up to 22 bytes in place; the slot is a
//!   64-byte entry with `gender` and `location` (up to 14 bytes each) in
//!   place, `age`, `sentiment`, and up to seven sources as one-byte ids, in
//!   first-seen order, into a per-store table of source names;
//! - an **index** of `u32` arena positions, open addressing with linear
//!   probing, at most half full, probed from the low bits of
//!   [`DigestWriter::bytes`] of the name. A probe compares the name's bytes
//!   with the key at the position it finds, so each key is stored once;
//! - **`order`**, the arena positions in user order, each beside the first
//!   eight bytes of its name as a big-endian word, so that two names compare
//!   as one word compare unless those bytes tie. Only an ordered read
//!   (`snapshot`, `for_each`, the C3 scan) touches it: the positions added
//!   since the previous ordered read are sorted among themselves and merged
//!   into `order` in place from the back, so a read sorts what is new and
//!   never the whole store again.
//!
//! Nothing on the probe's path is behind a pointer, and nothing is freed one
//! profile at a time when a world is dropped. What does not fit falls back
//! to the heap and stays there: a longer user name becomes a boxed key, and
//! a profile with a longer value, an eighth source, or a source the 256-name
//! table has no id left for becomes an owned [`Profile`]. Keys compare and
//! order as `str` does — by the name's bytes, never by the zero-padded
//! array, so `"a"` and `"a\0"` stay two users — and every ordered read
//! visits profiles in that order, which is what keeps the aggregator's
//! per-group float sums bit-for-bit what they were over a
//! `BTreeMap<String, Profile>`. Inline bytes are read back through checked
//! `from_utf8`; there is no `unsafe`.

use crate::SharedStores;
use orca::{
    AppConfig, JobEventContext, JobEventScope, OperatorMetricContext, OperatorMetricScope, OrcaCtx,
    OrcaStartContext, Orchestrator,
};
use sps_engine::metrics::builtin;
use sps_engine::ops::{opt_f64, opt_i64, opt_str};
use sps_engine::{
    EngineError, MetricId, OpCtx, Operator, OperatorRegistry, Punct, Schema, StateBlob,
    StateReader, StateWriter, Tuple,
};
use sps_model::compiler::{compile, CompileOptions};
use sps_model::logical::{
    AppModelBuilder, CompositeGraphBuilder, ExportSpec, ImportSpec, OperatorInvocation,
};
use sps_model::{Adl, Value};
use sps_sim::{DigestWriter, SimDuration, SimRng, SimTime};
use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::hash::{BuildHasherDefault, Hasher};
use std::rc::Rc;

// ---------------------------------------------------------------------------
// The profile data store
// ---------------------------------------------------------------------------

/// An integrated user profile.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Profile {
    pub user: String,
    pub gender: Option<String>,
    pub age: Option<i64>,
    pub location: Option<String>,
    pub sentiment: f64,
    pub sources: Vec<String>,
}

/// Shared deduplicating data store: "C3 applications do not see duplicate
/// profiles because they read directly from the data store, which has no
/// duplicate profile entry" (§5.3).
///
/// Clones of a handle share one store, and only on the thread of the world
/// that built it: a merge borrows a `RefCell` and takes no lock. Inside, a
/// profile is a fixed-size entry next to its key in an arena found through
/// a hashed index (see the module docs), so the per-tuple merge follows no
/// pointer of its own and allocates nothing but room to grow, and the C3
/// scans read the entries in place; [`Profile`] values are built only on
/// the way out, by [`snapshot`](Self::snapshot) and
/// [`for_each`](Self::for_each).
/// The store is out-of-band state (the paper's external data store): no
/// checkpoint covers it, and a restarted C2 job merges into what is there.
#[derive(Clone, Default)]
pub struct ProfileStoreHandle(Rc<RefCell<ProfileStore>>);

/// One sighting of a user, its strings borrowed from wherever they were
/// found: what [`ProfileStoreHandle::merge_observed`] folds into the store
/// without an owned [`Profile`] in between.
#[derive(Clone, Copy, Debug)]
pub struct Observation<'a> {
    pub user: &'a str,
    pub gender: Option<&'a str>,
    pub age: Option<i64>,
    pub location: Option<&'a str>,
    pub sentiment: f64,
    pub sources: &'a [&'a str],
}

/// User names up to this many bytes live inside their key.
const USER_INLINE: usize = 22;
/// `gender` / `location` values up to this many bytes live inside the entry.
const ATTR_INLINE: usize = 14;
/// Distinct sources an entry lists before it spills.
const SOURCES_INLINE: usize = 7;

/// A string of at most `N` bytes, held in place.
#[derive(Clone, Copy)]
struct Inline<const N: usize> {
    len: u8,
    /// Only `bytes[..len]` is content; the rest is padding and is never
    /// compared or read back.
    bytes: [u8; N],
}

impl<const N: usize> Inline<N> {
    /// `None` when `s` is longer than `N` bytes.
    fn new(s: &str) -> Option<Self> {
        let len = u8::try_from(s.len()).ok()?;
        let mut bytes = [0; N];
        bytes.get_mut(..s.len())?.copy_from_slice(s.as_bytes());
        Some(Inline { len, bytes })
    }

    fn as_bytes(&self) -> &[u8] {
        &self.bytes[..usize::from(self.len)]
    }

    fn as_str(&self) -> &str {
        std::str::from_utf8(self.as_bytes()).expect("inline bytes are a whole str")
    }
}

const _: () = assert!(ATTR_INLINE < 16, "a value and its length fit a u128");

impl Inline<ATTR_INLINE> {
    /// This value as one word: its bytes, zero above its length whatever the
    /// padding holds, and its length in the top byte, so `"a"` and `"a\0"`
    /// are two words. A fixed-size copy and a mask; no byte loop.
    fn word(&self) -> u128 {
        let mut word = [0; 16];
        word[..ATTR_INLINE].copy_from_slice(&self.bytes);
        let content = (1 << (8 * u32::from(self.len))) - 1;
        u128::from_le_bytes(word) & content | u128::from(self.len) << 120
    }
}

/// How the C3 scan groups a `gender` or `location` value: as one word, or,
/// longer than any inline slot, as itself.
enum ValueKey<'a> {
    Word(u128),
    Long(&'a str),
}

/// Arena key: the user name, compared and ordered by [`UserKey::as_bytes`]
/// exactly as `str` is (bytewise over the name, never over the padded
/// array).
enum UserKey {
    Inline(Inline<USER_INLINE>),
    Heap(Box<str>),
}

impl UserKey {
    fn new(user: &str) -> Self {
        match Inline::new(user) {
            Some(inline) => UserKey::Inline(inline),
            None => UserKey::Heap(user.into()),
        }
    }

    fn as_bytes(&self) -> &[u8] {
        match self {
            UserKey::Inline(inline) => inline.as_bytes(),
            UserKey::Heap(user) => user.as_bytes(),
        }
    }

    fn as_str(&self) -> &str {
        match self {
            UserKey::Inline(inline) => inline.as_str(),
            UserKey::Heap(user) => user,
        }
    }
}

/// Names of the sources seen by one store; an [`Entry`] lists its sources
/// as indices into this table.
#[derive(Default)]
struct SourceNames(Vec<Box<str>>);

impl SourceNames {
    /// The id of `name`, entering it on first sight; `None` once every id
    /// is taken by another name.
    fn intern(&mut self, name: &str) -> Option<u8> {
        let id = match self.0.iter().position(|held| &**held == name) {
            Some(id) => id,
            None if self.0.len() <= usize::from(u8::MAX) => {
                self.0.push(name.into());
                self.0.len() - 1
            }
            None => return None,
        };
        u8::try_from(id).ok()
    }

    fn name(&self, id: u8) -> &str {
        &self.0[usize::from(id)]
    }
}

/// A profile that owns no heap memory: short attribute values in place,
/// sources as first-seen-ordered ids into the store's [`SourceNames`].
#[derive(Clone, Copy, Default)]
struct Entry {
    gender: Option<Inline<ATTR_INLINE>>,
    age: Option<i64>,
    location: Option<Inline<ATTR_INLINE>>,
    sentiment: f64,
    n_sources: u8,
    sources: [u8; SOURCES_INLINE],
}

impl Entry {
    /// This entry with `seen` folded in, or `None` when the result does not
    /// fit one: a value longer than [`ATTR_INLINE`], an eighth source, or a
    /// source name the table has no id left for.
    fn merged(mut self, seen: &Observation<'_>, names: &mut SourceNames) -> Option<Entry> {
        if let Some(gender) = seen.gender {
            self.gender = Some(Inline::new(gender)?);
        }
        if seen.age.is_some() {
            self.age = seen.age;
        }
        if let Some(location) = seen.location {
            self.location = Some(Inline::new(location)?);
        }
        self.sentiment = seen.sentiment;
        for &source in seen.sources {
            let id = names.intern(source)?;
            let listed = usize::from(self.n_sources);
            if !self.sources[..listed].contains(&id) {
                *self.sources.get_mut(listed)? = id;
                self.n_sources += 1;
            }
        }
        Some(self)
    }

    fn to_profile(self, user: &str, names: &SourceNames) -> Profile {
        Profile {
            user: user.to_string(),
            gender: self.gender.map(|gender| gender.as_str().to_string()),
            age: self.age,
            location: self.location.map(|location| location.as_str().to_string()),
            sentiment: self.sentiment,
            sources: self.sources[..usize::from(self.n_sources)]
                .iter()
                .map(|&id| names.name(id).to_string())
                .collect(),
        }
    }
}

/// What the arena holds per user: an [`Entry`], or — once some value outgrew
/// it — the owned profile, for good.
enum Slot {
    Flat(Entry),
    Spilled(Box<Profile>),
}

impl Slot {
    fn merge(&mut self, seen: &Observation<'_>, names: &mut SourceNames) {
        match self {
            Slot::Flat(entry) => match entry.merged(seen, names) {
                Some(merged) => *entry = merged,
                None => {
                    let mut profile = entry.to_profile(seen.user, names);
                    merge_into(&mut profile, seen);
                    *self = Slot::Spilled(Box::new(profile));
                }
            },
            Slot::Spilled(profile) => merge_into(profile, seen),
        }
    }

    fn gender(&self) -> Option<&str> {
        match self {
            Slot::Flat(entry) => entry.gender.as_ref().map(Inline::as_str),
            Slot::Spilled(profile) => profile.gender.as_deref(),
        }
    }

    fn age(&self) -> Option<i64> {
        match self {
            Slot::Flat(entry) => entry.age,
            Slot::Spilled(profile) => profile.age,
        }
    }

    fn location(&self) -> Option<&str> {
        match self {
            Slot::Flat(entry) => entry.location.as_ref().map(Inline::as_str),
            Slot::Spilled(profile) => profile.location.as_deref(),
        }
    }

    /// The `gender` value (`location` unless `gender`) as the C3 scan
    /// groups it: a value of at most [`ATTR_INLINE`] bytes as its
    /// [`Inline::word`], whether an entry or a spilled profile holds it.
    fn value_key(&self, gender: bool) -> Option<ValueKey<'_>> {
        match self {
            Slot::Flat(entry) => {
                let value = if gender { entry.gender } else { entry.location };
                value.map(|value| ValueKey::Word(value.word()))
            }
            Slot::Spilled(profile) => {
                let value = if gender {
                    &profile.gender
                } else {
                    &profile.location
                };
                let value = value.as_deref()?;
                Some(match Inline::<ATTR_INLINE>::new(value) {
                    Some(inline) => ValueKey::Word(inline.word()),
                    None => ValueKey::Long(value),
                })
            }
        }
    }

    fn sentiment(&self) -> f64 {
        match self {
            Slot::Flat(entry) => entry.sentiment,
            Slot::Spilled(profile) => profile.sentiment,
        }
    }

    fn has_attribute(&self, attribute: &str) -> bool {
        match attribute {
            "gender" => self.gender().is_some(),
            "age" => self.age().is_some(),
            "location" => self.location().is_some(),
            _ => false,
        }
    }
}

/// Overwrites an optional string attribute, reusing its allocation.
fn assign(slot: &mut Option<String>, value: &str) {
    match slot {
        Some(held) => {
            held.clear();
            held.push_str(value);
        }
        None => *slot = Some(value.to_string()),
    }
}

/// The merge rule, on an owned profile: attributes `seen` brings overwrite,
/// the others are kept, sources accumulate in first-seen order.
fn merge_into(profile: &mut Profile, seen: &Observation<'_>) {
    if let Some(gender) = seen.gender {
        assign(&mut profile.gender, gender);
    }
    if seen.age.is_some() {
        profile.age = seen.age;
    }
    if let Some(location) = seen.location {
        assign(&mut profile.location, location);
    }
    profile.sentiment = seen.sentiment;
    for &source in seen.sources {
        if !profile.sources.iter().any(|held| held == source) {
            profile.sources.push(source.to_string());
        }
    }
}

/// An index cell that holds no arena position.
const VACANT: u32 = u32::MAX;

/// The arena, its index and its user order (see the module docs).
#[derive(Default)]
struct ProfileStore {
    /// Every user's key and slot, in first-sight order; a position never
    /// changes.
    arena: Vec<(UserKey, Slot)>,
    /// Arena positions, or [`VACANT`], in a power-of-two number of cells at
    /// least twice the arena's length (none before the first merge).
    index: Vec<u32>,
    /// Arena positions in user order as of the last ordered read, each
    /// after its name's [`order_key`]; the positions from `order.len()` on
    /// were added since.
    order: Vec<(u64, u32)>,
    source_names: SourceNames,
}

/// The cell where the probe for `name` starts, for an index of `mask + 1`
/// cells: the low bits of the name's digest. Not the top bits: the
/// multiply fills those from a word's low bytes only, so `"u12345"` and
/// `"u12399"` would start in one cell, while `DigestWriter::word`'s final
/// shift-xor brings every byte down into the low bits.
fn home_cell(name: &[u8], mask: usize) -> usize {
    let mut hash = DigestWriter::default();
    hash.bytes(name);
    hash.digest() as usize & mask
}

/// The first eight bytes of `name`, zero-padded, as a big-endian word. Where
/// two names' words differ, they order as the names do (a shorter name that
/// ties with a longer one's first bytes pads with zeros, and is its prefix);
/// where they tie, only the names can tell.
fn order_key(name: &[u8]) -> u64 {
    let mut head = [0; 8];
    let n = name.len().min(8);
    head[..n].copy_from_slice(&name[..n]);
    u64::from_be_bytes(head)
}

impl ProfileStore {
    /// The arena position of `user`, appended on first sight.
    fn position(&mut self, user: &str) -> usize {
        if 2 * (self.arena.len() + 1) > self.index.len() {
            self.grow_index();
        }
        let mask = self.index.len() - 1;
        let mut cell = home_cell(user.as_bytes(), mask);
        loop {
            match self.index[cell] {
                VACANT => break,
                at if self.arena[at as usize].0.as_bytes() == user.as_bytes() => {
                    return at as usize
                }
                _ => cell = (cell + 1) & mask,
            }
        }
        // Every position is checked here once, so the `as u32` casts of
        // positions elsewhere are lossless.
        let at = self.arena.len();
        self.index[cell] = u32::try_from(at)
            .ok()
            .filter(|&at| at != VACANT)
            .expect("fewer than u32::MAX users");
        self.arena
            .push((UserKey::new(user), Slot::Flat(Entry::default())));
        at
    }

    /// Doubles the index (64 cells at first) and enters every position again.
    fn grow_index(&mut self) {
        let mask = (2 * self.index.len()).max(64) - 1;
        self.index = vec![VACANT; mask + 1];
        for (at, (user, _)) in self.arena.iter().enumerate() {
            let mut cell = home_cell(user.as_bytes(), mask);
            while self.index[cell] != VACANT {
                cell = (cell + 1) & mask;
            }
            self.index[cell] = at as u32;
        }
    }

    /// Brings `order` up to date: the positions added since the last ordered
    /// read are sorted among themselves, then merged into `order` in place
    /// from the back, each step moving the greater of the two runs' last
    /// elements into the last unfilled cell. Two positions compare by their
    /// [`order_key`]s, and by their names only when those tie.
    fn update_order(&mut self) {
        let (arena, order) = (&self.arena, &mut self.order);
        let mut kept = order.len();
        if kept == arena.len() {
            return;
        }
        let name = |at: u32| arena[at as usize].0.as_bytes();
        let user_order =
            |a: &(u64, u32), b: &(u64, u32)| a.0.cmp(&b.0).then_with(|| name(a.1).cmp(name(b.1)));
        let mut fresh: Vec<(u64, u32)> = (arena[kept..].iter().zip(kept as u32..))
            .map(|((user, _), at)| (order_key(user.as_bytes()), at))
            .collect();
        fresh.sort_unstable_by(user_order);
        order.resize(arena.len(), (0, VACANT));
        for to in (0..order.len()).rev() {
            let Some(&new) = fresh.last() else {
                break;
            };
            if kept > 0 && user_order(&order[kept - 1], &new).is_gt() {
                kept -= 1;
                order[to] = order[kept];
            } else {
                order[to] = new;
                fresh.pop();
            }
        }
    }

    /// Every key and slot in user order as of the last
    /// [`update_order`](Self::update_order).
    fn in_order(&self) -> impl Iterator<Item = &(UserKey, Slot)> {
        self.order.iter().map(|&(_, at)| &self.arena[at as usize])
    }

    /// Every profile in user order, built on the way out unless it spilled.
    fn profiles(&mut self) -> impl Iterator<Item = Cow<'_, Profile>> {
        self.update_order();
        let store = &*self;
        store.in_order().map(move |(user, slot)| match slot {
            Slot::Flat(entry) => Cow::Owned(entry.to_profile(user.as_str(), &store.source_names)),
            Slot::Spilled(profile) => Cow::Borrowed(&**profile),
        })
    }
}

impl ProfileStoreHandle {
    /// Merges an observation into the store (attributes accumulate).
    pub fn merge(&self, p: Profile) {
        let sources: Vec<&str> = p.sources.iter().map(String::as_str).collect();
        self.merge_observed(Observation {
            user: &p.user,
            gender: p.gender.as_deref(),
            age: p.age,
            location: p.location.as_deref(),
            sentiment: p.sentiment,
            sources: &sources,
        });
    }

    /// [`ProfileStoreHandle::merge`] from borrowed fields. The user is
    /// looked up by its bytes; a key is built only on first sight, and
    /// nothing is allocated while names and values fit their inline room.
    pub fn merge_observed(&self, seen: Observation<'_>) {
        let mut store = self.0.borrow_mut();
        let at = store.position(seen.user);
        let ProfileStore {
            arena,
            source_names,
            ..
        } = &mut *store;
        arena[at].1.merge(&seen, source_names);
    }

    pub fn len(&self) -> usize {
        self.0.borrow().arena.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.borrow().arena.is_empty()
    }

    /// Snapshot of all profiles, in user order (tests and figures).
    pub fn snapshot(&self) -> Vec<Profile> {
        self.0
            .borrow_mut()
            .profiles()
            .map(Cow::into_owned)
            .collect()
    }

    /// Visits every profile in user order, with the store borrowed — `f`
    /// must not call back into the store (a call back panics).
    pub fn for_each(&self, mut f: impl FnMut(&Profile)) {
        self.0
            .borrow_mut()
            .profiles()
            .for_each(|profile| f(&profile));
    }

    /// Profiles that have the given attribute.
    pub fn count_with_attribute(&self, attribute: &str) -> usize {
        let store = self.0.borrow();
        let slots = store.arena.iter().map(|(_, slot)| slot);
        slots.filter(|slot| slot.has_attribute(attribute)).count()
    }
}

// ---------------------------------------------------------------------------
// Operators
// ---------------------------------------------------------------------------

/// Appends `prefix` and `n` in decimal to `out`, growing it at most once,
/// to exactly the length they need: an empty `out` becomes one allocation of
/// that size, a scratch one with room allocates nothing.
fn push_numbered(out: &mut String, prefix: &str, n: u64) {
    let mut digits = [0; 20];
    let mut at = digits.len();
    let mut rest = n;
    loop {
        at -= 1;
        digits[at] = b'0' + (rest % 10) as u8;
        rest /= 10;
        if rest == 0 {
            break;
        }
    }
    out.reserve_exact(prefix.len() + digits.len() - at);
    out.push_str(prefix);
    out.extend(digits[at..].iter().map(|&digit| char::from(digit)));
}

/// C1: reads a social stream and emits interesting profiles
/// `{user, source, sentiment}`.
pub struct SocialStreamReader {
    source: String,
    schema: Rc<Schema>,
    rate: f64,
    credit: f64,
    rng: SimRng,
    user_space: u64,
}

impl Operator for SocialStreamReader {
    fn on_tuple(&mut self, _port: usize, _t: Tuple, _ctx: &mut OpCtx) {}

    fn on_tick(&mut self, ctx: &mut OpCtx) {
        self.credit += self.rate * ctx.quantum().as_secs_f64();
        while self.credit >= 1.0 - 1e-9 {
            self.credit -= 1.0;
            // Negative-post filter baked in: only ~interesting profiles flow.
            let mut user = String::new();
            push_numbered(&mut user, "u", self.rng.gen_range(0, self.user_space));
            let sentiment = -self.rng.next_f64(); // negative posts
            ctx.submit(
                0,
                Tuple::from_schema(
                    &self.schema,
                    vec![
                        Value::Str(user),
                        Value::Str(self.source.clone()),
                        Value::Float(sentiment),
                        Value::Timestamp(ctx.now().as_millis()),
                    ],
                ),
            );
        }
    }

    fn checkpoint(&self) -> Option<StateBlob> {
        let mut w = StateWriter::new();
        w.put_f64(self.credit);
        w.put_rng(&self.rng);
        Some(w.finish())
    }

    fn restore(&mut self, blob: &StateBlob) -> Result<(), EngineError> {
        let mut r = StateReader::new(blob);
        self.credit = r.get_f64()?;
        self.rng = r.get_rng()?;
        Ok(())
    }
}

/// C2: enriches imported profiles via a keyword-search "service" and
/// integrates them into the data store. Maintains the per-attribute custom
/// metrics the orchestrator subscribes to.
pub struct SocialQuery {
    service: String,
    store: ProfileStoreHandle,
    rng: SimRng,
    p_gender: f64,
    p_age: f64,
    p_location: f64,
    /// Handles of `nGenderProfiles`, `nAgeProfiles`, `nLocationProfiles`,
    /// resolved on the first tuple.
    counters: Option<[MetricId; 3]>,
    /// Scratch for the `locN` string of the tuple in hand.
    location: String,
    /// The input schema last seen, with where `user` and `sentiment` sit in
    /// its rows; resolved again when the stream changes shape.
    fields: Option<(Rc<Schema>, Option<usize>, Option<usize>)>,
}

impl Operator for SocialQuery {
    fn on_tuple(&mut self, _port: usize, tuple: Tuple, ctx: &mut OpCtx) {
        let schema = tuple.schema();
        if !self
            .fields
            .as_ref()
            .is_some_and(|(seen, ..)| Rc::ptr_eq(seen, schema))
        {
            let at = |name: &str| schema.names().iter().position(|held| &**held == name);
            self.fields = Some((Rc::clone(schema), at("user"), at("sentiment")));
        }
        let (_, user_at, sentiment_at) = self.fields.as_ref().expect("resolved above");
        let values = tuple.values();
        let Some(user) = user_at.and_then(|at| values[at].as_str()) else {
            return;
        };
        let sentiment = sentiment_at.and_then(|at| values[at].as_f64());
        let gender =
            self.rng
                .gen_bool(self.p_gender)
                .then(|| if self.rng.gen_bool(0.5) { "f" } else { "m" });
        let age = self
            .rng
            .gen_bool(self.p_age)
            .then(|| self.rng.gen_range(13, 80) as i64);
        let location = self.rng.gen_bool(self.p_location).then(|| {
            self.location.clear();
            push_numbered(&mut self.location, "loc", self.rng.gen_range(0, 50));
            self.location.as_str()
        });
        // Cumulative per-attribute counters — duplicates included, exactly
        // as the paper notes.
        let [n_gender, n_age, n_location] = *self
            .counters
            .get_or_insert_with(|| ATTRIBUTES.map(|(_, metric)| ctx.metric_id(metric)));
        if gender.is_some() {
            ctx.metric_add_by(n_gender, 1);
        }
        if age.is_some() {
            ctx.metric_add_by(n_age, 1);
        }
        if location.is_some() {
            ctx.metric_add_by(n_location, 1);
        }
        self.store.merge_observed(Observation {
            user,
            gender,
            age,
            location,
            sentiment: sentiment.unwrap_or(0.0),
            sources: &[self.service.as_str()],
        });
        ctx.submit(0, tuple);
    }

    fn checkpoint(&self) -> Option<StateBlob> {
        let mut w = StateWriter::new();
        w.put_rng(&self.rng);
        Some(w.finish())
    }

    fn restore(&mut self, blob: &StateBlob) -> Result<(), EngineError> {
        let mut r = StateReader::new(blob);
        self.rng = r.get_rng()?;
        Ok(())
    }
}

/// C3: scans the data store once, emits a sentiment correlation per value of
/// the configured attribute, then a final punctuation.
pub struct AttributeAggregator {
    attribute: String,
    schema: Rc<Schema>,
    store: ProfileStoreHandle,
    done: bool,
}

impl Operator for AttributeAggregator {
    fn on_tuple(&mut self, _port: usize, _t: Tuple, _ctx: &mut OpCtx) {}

    fn on_tick(&mut self, ctx: &mut OpCtx) {
        if self.done {
            return;
        }
        self.done = true;
        // Correlate sentiment with the attribute over the deduplicated
        // store.
        for (value, (sum, n)) in sentiment_by_attribute(&self.store, &self.attribute) {
            ctx.submit(
                0,
                Tuple::from_schema(
                    &self.schema,
                    vec![
                        Value::Str(self.attribute.clone()),
                        Value::Str(value),
                        Value::Float(sum / n as f64),
                        Value::Int(n as i64),
                        Value::Timestamp(ctx.now().as_millis()),
                    ],
                ),
            );
        }
        ctx.metric_set("nProfilesSegmented", 1);
        ctx.submit_punct(0, Punct::Final);
    }

    fn checkpoint(&self) -> Option<StateBlob> {
        let mut w = StateWriter::new();
        // `done` is the crucial bit: a revived C3 that already emitted must
        // not scan the store and emit (plus a second Final) again.
        w.put_bool(self.done);
        Some(w.finish())
    }

    fn restore(&mut self, blob: &StateBlob) -> Result<(), EngineError> {
        self.done = StateReader::new(blob).get_bool()?;
        Ok(())
    }
}

/// The C3 scan's group hasher: a `u128` or `i64` key is one
/// [`DigestWriter::word`] step, and bytes are one [`DigestWriter::bytes`]
/// string. The digest's top bits barely depend on a word's bytes 3 to 5
/// (all that tells `"loc12"` from `"loc13"`), and `HashMap` tags each entry
/// with the top seven bits, so `finish` multiplies the whole digest into
/// them.
#[derive(Default)]
struct GroupHasher(DigestWriter);

impl Hasher for GroupHasher {
    fn write(&mut self, bytes: &[u8]) {
        self.0.bytes(bytes);
    }

    fn write_u128(&mut self, word: u128) {
        self.0.word(word as u64 ^ (word >> 64) as u64);
    }

    fn write_i64(&mut self, word: i64) {
        self.0.word(word as u64);
    }

    fn finish(&self) -> u64 {
        self.0.digest().wrapping_mul(0x9e37_79b9_7f4a_7c15)
    }
}

/// Sentiment sum and profile count per group key of one C3 scan.
type ScanGroups<K> = HashMap<K, (f64, usize), BuildHasherDefault<GroupHasher>>;

/// The value [`Inline::word`] made `word` of.
fn word_value(word: u128) -> String {
    let word = word.to_le_bytes();
    let value = std::str::from_utf8(&word[..usize::from(word[15])]);
    value.expect("a word holds a whole str").to_string()
}

/// Sentiment sum and profile count per group of `attribute` over the
/// deduplicated store, scanned in place and in user order (so each group's
/// sum adds in that order); profiles without the attribute are skipped.
/// Profiles are grouped by what the store holds — an age by its integer
/// decade, a value by its [`ValueKey`] — and each group's name is built
/// once, on the way out.
fn sentiment_by_attribute(
    store: &ProfileStoreHandle,
    attribute: &str,
) -> BTreeMap<String, (f64, usize)> {
    let add = |group: &mut (f64, usize), slot: &Slot| {
        group.0 += slot.sentiment();
        group.1 += 1;
    };
    let mut store = store.0.borrow_mut();
    store.update_order();
    let slots = store.in_order().map(|(_, slot)| slot);
    if attribute == "age" {
        let mut decades = ScanGroups::<i64>::default();
        for slot in slots {
            if let Some(age) = slot.age() {
                add(decades.entry((age / 10) * 10).or_default(), slot);
            }
        }
        let name = |(decade, group): (i64, _)| (format!("{decade}s"), group);
        return decades.into_iter().map(name).collect();
    }
    let gender = match attribute {
        "gender" => true,
        "location" => false,
        _ => unreachable!("validated at construction"),
    };
    let mut words = ScanGroups::<u128>::default();
    let mut long = ScanGroups::<&str>::default();
    for slot in slots {
        let group = match slot.value_key(gender) {
            None => continue,
            Some(ValueKey::Word(word)) => words.entry(word).or_default(),
            Some(ValueKey::Long(value)) => long.entry(value).or_default(),
        };
        add(group, slot);
    }
    let long = long
        .into_iter()
        .map(|(value, group)| (value.to_string(), group));
    let words = words
        .into_iter()
        .map(|(word, group)| (word_value(word), group));
    words.chain(long).collect()
}

/// Registers the social operator kinds.
pub fn register_ops(r: &mut OperatorRegistry, stores: &SharedStores) {
    r.register("SocialStreamReader", |op| {
        let (name, params) = (op.name.as_str(), &op.params);
        let source = opt_str(params, "source").unwrap_or("twitter").to_string();
        let rate = opt_f64(params, name, "rate")?.unwrap_or(50.0);
        let seed = opt_i64(params, name, "seed")?.unwrap_or(11) as u64;
        let user_space = opt_i64(params, name, "user_space")?.unwrap_or(100_000) as u64;
        Ok(Box::new(SocialStreamReader {
            source,
            schema: Schema::new(&["user", "source", "sentiment", "ts"]),
            rate,
            credit: 0.0,
            rng: SimRng::new(seed),
            user_space,
        }))
    });
    let store = stores.profile_store.clone();
    r.register("SocialQuery", move |op| {
        let (name, params) = (op.name.as_str(), &op.params);
        let service = opt_str(params, "service").unwrap_or("facebook").to_string();
        let seed = opt_i64(params, name, "seed")?.unwrap_or(13) as u64;
        Ok(Box::new(SocialQuery {
            service,
            store: store.clone(),
            rng: SimRng::new(seed),
            counters: None,
            location: String::new(),
            fields: None,
            p_gender: opt_f64(params, name, "p_gender")?.unwrap_or(0.6),
            p_age: opt_f64(params, name, "p_age")?.unwrap_or(0.4),
            p_location: opt_f64(params, name, "p_location")?.unwrap_or(0.3),
        }))
    });
    let store = stores.profile_store.clone();
    r.register("AttributeAggregator", move |op| {
        let attribute = opt_str(&op.params, "attribute")
            .unwrap_or("gender")
            .to_string();
        if !["gender", "age", "location"].contains(&attribute.as_str()) {
            return Err(sps_engine::EngineError::BadParam {
                op: op.name.clone(),
                message: format!("unknown attribute '{attribute}'"),
            });
        }
        Ok(Box::new(AttributeAggregator {
            attribute,
            schema: Schema::new(&["attribute", "value", "avg_sentiment", "count", "ts"]),
            store: store.clone(),
            done: false,
        }))
    });
}

// ---------------------------------------------------------------------------
// Application graphs
// ---------------------------------------------------------------------------

/// A C1 reader application exporting its profile stream.
pub fn c1_app(name: &str, source: &str, rate: f64, seed: u64) -> Adl {
    let mut m = CompositeGraphBuilder::main();
    m.operator(
        "reader",
        OperatorInvocation::new("SocialStreamReader")
            .source()
            .param("source", source)
            .param("rate", rate)
            .param("seed", seed as i64)
            .export(
                0,
                ExportSpec::default()
                    .with_property("topic", "profiles")
                    .with_property("source", source),
            ),
    );
    let model = AppModelBuilder::new(name)
        .build(m.build().unwrap())
        .unwrap();
    compile(&model, CompileOptions::default()).unwrap()
}

/// A C2 query application importing all profile streams.
pub fn c2_app(name: &str, service: &str, seed: u64) -> Adl {
    let mut m = CompositeGraphBuilder::main();
    m.operator(
        "import",
        OperatorInvocation::new("Import")
            .source()
            .import_spec(ImportSpec::default().subscribe("topic", "profiles")),
    );
    m.operator(
        "query",
        OperatorInvocation::new("SocialQuery")
            .param("service", service)
            .param("seed", seed as i64)
            .custom_metric("nGenderProfiles")
            .custom_metric("nAgeProfiles")
            .custom_metric("nLocationProfiles"),
    );
    m.operator("log", OperatorInvocation::new("Sink").sink());
    m.pipe("import", "query");
    m.pipe("query", "log");
    let model = AppModelBuilder::new(name)
        .build(m.build().unwrap())
        .unwrap();
    compile(&model, CompileOptions::default()).unwrap()
}

/// The C3 profile-segmentation application; `attribute` is a
/// submission-time parameter supplied by the app configuration.
pub fn c3_app() -> Adl {
    let mut m = CompositeGraphBuilder::main();
    m.operator(
        "aggregator",
        OperatorInvocation::new("AttributeAggregator")
            .source()
            .param("attribute", "${attribute}")
            .custom_metric("nProfilesSegmented"),
    );
    m.operator("result", OperatorInvocation::new("Sink").sink());
    m.pipe("aggregator", "result");
    let model = AppModelBuilder::new("AttributeAggregator")
        .build(m.build().unwrap())
        .unwrap();
    compile(&model, CompileOptions::default()).unwrap()
}

// ---------------------------------------------------------------------------
// The ORCA logic (§5.3) — the paper reports 139 lines of C++ for this
// ---------------------------------------------------------------------------

/// A point in the composition timeline (drives the Figure 10 rendering).
#[derive(Clone, Debug, PartialEq)]
pub struct CompositionEvent {
    pub at: SimTime,
    pub submitted: bool,
    pub app_name: String,
    pub config_id: Option<String>,
}

/// The dynamic-composition orchestrator.
pub struct CompositionOrca {
    threshold: i64,
    /// Latest cumulative value per C2 application (row, as in `C2_APPS`)
    /// and attribute metric (column, as in `ATTRIBUTES`).
    latest: [[i64; ATTRIBUTES.len()]; C2_APPS.len()],
    /// Aggregate value at the last C3 launch, per attribute.
    last_spawn: BTreeMap<String, i64>,
    /// Running C3 config per attribute (one segmentation at a time).
    active_c3: BTreeMap<String, String>,
    next_c3: u64,
    pub timeline: Vec<CompositionEvent>,
    pub c3_launched: u32,
    pub c3_completed: u32,
}

const C2_APPS: [(&str, &str); 3] = [
    ("TwitterQuery", "twitter"),
    ("BlogQuery", "blogs"),
    ("FacebookQuery", "facebook"),
];

const ATTRIBUTES: [(&str, &str); 3] = [
    ("gender", "nGenderProfiles"),
    ("age", "nAgeProfiles"),
    ("location", "nLocationProfiles"),
];

impl CompositionOrca {
    pub fn new(threshold: i64) -> Self {
        CompositionOrca {
            threshold,
            latest: [[0; ATTRIBUTES.len()]; C2_APPS.len()],
            last_spawn: BTreeMap::new(),
            active_c3: BTreeMap::new(),
            next_c3: 0,
            timeline: Vec::new(),
            c3_launched: 0,
            c3_completed: 0,
        }
    }

    /// Sum of an attribute's metric (a column of `latest`) across all C2
    /// applications.
    fn aggregate(&self, attribute: usize) -> i64 {
        self.latest.iter().map(|app| app[attribute]).sum()
    }

    fn maybe_spawn_c3(&mut self, ctx: &mut OrcaCtx<'_>) {
        for (column, (attr, _)) in ATTRIBUTES.into_iter().enumerate() {
            if self.active_c3.contains_key(attr) {
                continue;
            }
            let total = self.aggregate(column);
            let baseline = self.last_spawn.get(attr).copied().unwrap_or(0);
            if total - baseline < self.threshold {
                continue;
            }
            self.next_c3 += 1;
            let config_id = format!("c3-{attr}-{}", self.next_c3);
            let cfg = AppConfig::new(&config_id, "AttributeAggregator")
                .param("attribute", attr)
                .gc_timeout(SimDuration::ZERO);
            if ctx.create_app_config(cfg).is_err() {
                continue;
            }
            if ctx.request_start(&config_id).is_ok() {
                self.last_spawn.insert(attr.to_string(), total);
                self.active_c3.insert(attr.to_string(), config_id);
                self.c3_launched += 1;
            }
        }
    }
}

impl Orchestrator for CompositionOrca {
    fn on_start(&mut self, ctx: &mut OrcaCtx<'_>, _s: &OrcaStartContext) {
        // Configurations: two C1 readers, three C2 query apps.
        for (id, app) in [
            ("c1-twitter", "TwitterStreamReader"),
            ("c1-myspace", "MySpaceStreamReader"),
        ] {
            ctx.create_app_config(AppConfig::new(id, app).gc_timeout(SimDuration::from_secs(10)))
                .unwrap();
        }
        for (app, _) in C2_APPS {
            let id = format!("c2-{}", app.to_lowercase());
            ctx.create_app_config(AppConfig::new(&id, app).gc_timeout(SimDuration::from_secs(10)))
                .unwrap();
            // Every C2 depends on both C1 readers; uptime 0 because C1 apps
            // build no internal state (§5.3).
            ctx.register_dependency(&id, "c1-twitter", SimDuration::ZERO)
                .unwrap();
            ctx.register_dependency(&id, "c1-myspace", SimDuration::ZERO)
                .unwrap();
        }
        // Scopes: C2 per-attribute custom metrics…
        let mut c2_scope = OperatorMetricScope::new("c2Metrics").add_operator_instance("query");
        for (_, metric) in ATTRIBUTES {
            c2_scope = c2_scope.add_metric(metric);
        }
        for (app, _) in C2_APPS {
            c2_scope = c2_scope.add_application(app);
        }
        ctx.register_event_scope(c2_scope);
        // …and the final-punctuation built-in metric of the C3 sink.
        ctx.register_event_scope(
            OperatorMetricScope::new("c3Final")
                .add_application("AttributeAggregator")
                .add_operator_instance("result")
                .add_metric(builtin::N_FINAL_PUNCTS_PROCESSED),
        );
        // Timeline bookkeeping for every job event.
        ctx.register_event_scope(JobEventScope::new("timeline"));
        ctx.set_metric_poll_period(SimDuration::from_secs(3));

        // Start all C2 applications; dependencies pull the C1 readers up.
        for (app, _) in C2_APPS {
            ctx.request_start(&format!("c2-{}", app.to_lowercase()))
                .unwrap();
        }
    }

    fn on_operator_metric(
        &mut self,
        ctx: &mut OrcaCtx<'_>,
        e: &OperatorMetricContext,
        scopes: &[String],
    ) {
        if scopes.iter().any(|s| s == "c3Final") {
            // A C3 application has processed all of its tuples: contract the
            // composition (§5.3).
            if e.value >= 1 {
                if let Some(config) = ctx.config_of_job(e.job) {
                    if ctx.request_cancel(&config).is_ok() {
                        self.active_c3.retain(|_, c| c != &config);
                        self.c3_completed += 1;
                    }
                }
            }
            return;
        }
        let app = C2_APPS.iter().position(|(app, _)| *app == e.app_name);
        let attribute = ATTRIBUTES
            .iter()
            .position(|(_, metric)| *metric == e.metric);
        if let (Some(app), Some(attribute)) = (app, attribute) {
            self.latest[app][attribute] = e.value;
        }
        self.maybe_spawn_c3(ctx);
    }

    fn on_job_submitted(&mut self, _ctx: &mut OrcaCtx<'_>, e: &JobEventContext, _s: &[String]) {
        self.timeline.push(CompositionEvent {
            at: e.at,
            submitted: true,
            app_name: e.app_name.clone(),
            config_id: e.config_id.clone(),
        });
    }

    fn on_job_cancelled(&mut self, _ctx: &mut OrcaCtx<'_>, e: &JobEventContext, _s: &[String]) {
        self.timeline.push(CompositionEvent {
            at: e.at,
            submitted: false,
            app_name: e.app_name.clone(),
            config_id: e.config_id.clone(),
        });
    }
}

/// Builds the full orchestrator descriptor for the composition scenario.
pub fn composition_descriptor() -> orca::OrcaDescriptor {
    orca::OrcaDescriptor::new("CompositionOrca")
        .app(c1_app("TwitterStreamReader", "twitter", 80.0, 21))
        .app(c1_app("MySpaceStreamReader", "myspace", 40.0, 22))
        .app(c2_app("TwitterQuery", "twitter", 31))
        .app(c2_app("BlogQuery", "blogs", 32))
        .app(c2_app("FacebookQuery", "facebook", 33))
        .app(c3_app())
}

#[cfg(test)]
mod tests {
    use super::*;
    use orca::OrcaService;
    use sps_runtime::{Cluster, Kernel, RuntimeConfig, World};

    fn build_world(threshold: i64) -> (World, usize, SharedStores) {
        let stores = SharedStores::new();
        let kernel = Kernel::new(
            Cluster::with_hosts(4),
            crate::registry(&stores),
            RuntimeConfig::default(),
        );
        let mut world = World::new(kernel);
        let service = OrcaService::submit(
            &mut world.kernel,
            composition_descriptor(),
            Box::new(CompositionOrca::new(threshold)),
        );
        let idx = world.add_controller(Box::new(service));
        (world, idx, stores)
    }

    fn logic(world: &World, idx: usize) -> &CompositionOrca {
        world
            .controller::<OrcaService>(idx)
            .unwrap()
            .logic::<CompositionOrca>()
            .unwrap()
    }

    fn has_attribute(p: &Profile, attribute: &str) -> bool {
        match attribute {
            "gender" => p.gender.is_some(),
            "age" => p.age.is_some(),
            "location" => p.location.is_some(),
            _ => false,
        }
    }

    /// The grouping as it was before the aggregator scanned the store in
    /// place: over owned profiles in the order given, owned keys throughout.
    fn groups_of<'a>(
        profiles: impl IntoIterator<Item = &'a Profile>,
        attribute: &str,
    ) -> BTreeMap<String, (f64, usize)> {
        let mut groups: BTreeMap<String, (f64, usize)> = BTreeMap::new();
        for p in profiles {
            if !has_attribute(p, attribute) {
                continue;
            }
            let key = match attribute {
                "gender" => p.gender.clone().unwrap(),
                "age" => format!("{}s", (p.age.unwrap() / 10) * 10),
                "location" => p.location.clone().unwrap(),
                _ => unreachable!(),
            };
            let slot = groups.entry(key).or_insert((0.0, 0));
            slot.0 += p.sentiment;
            slot.1 += 1;
        }
        groups
    }

    /// What the aggregator emits, from [`groups_of`] a cloned `snapshot()`.
    fn tuples_by_snapshot(store: &ProfileStoreHandle, attribute: &str, now: SimTime) -> Vec<Tuple> {
        groups_of(&store.snapshot(), attribute)
            .into_iter()
            .map(|(value, (sum, n))| {
                Tuple::new()
                    .with("attribute", attribute)
                    .with("value", value.as_str())
                    .with("avg_sentiment", sum / n as f64)
                    .with("count", n as i64)
                    .with("ts", Value::Timestamp(now.as_millis()))
            })
            .collect()
    }

    /// Runs a C3 aggregator per attribute over `stores`, one step of a PE of
    /// its own, and checks that it emits what [`groups_of`] a `snapshot()`
    /// makes, every average bit for bit, then one final punctuation.
    fn assert_aggregators_emit_the_snapshot_grouping(stores: &SharedStores) {
        let registry = crate::registry(stores);
        let now = SimTime::from_millis(100);
        for (attribute, _) in ATTRIBUTES {
            let mut adl = c3_app();
            let aggregator = adl
                .operators
                .iter_mut()
                .find(|o| o.name == "aggregator")
                .unwrap();
            aggregator
                .params
                .insert("attribute".into(), Value::Str(attribute.into()));
            let pe_index = aggregator.pe;
            let mut pe =
                sps_engine::PeRuntime::build(&adl, pe_index, &registry, SimRng::new(1)).unwrap();
            let out = pe.step(now, SimDuration::from_millis(100), 1_000_000);

            // The sink is in another PE: read the tuples off the frames.
            use sps_engine::codec::Frame;
            let mut emitted: Vec<Tuple> = Vec::new();
            let mut finals = 0;
            for delivery in out.remote {
                match delivery.frame {
                    Frame::Batch(batch) => emitted.extend(batch),
                    Frame::Item(sps_engine::StreamItem::Tuple(t)) => emitted.push(t),
                    Frame::Item(sps_engine::StreamItem::Punct(p)) => {
                        assert_eq!(p, Punct::Final);
                        finals += 1;
                    }
                }
            }
            assert_eq!(
                finals, 1,
                "{attribute}: one final punctuation, after the tuples"
            );
            let expect = tuples_by_snapshot(&stores.profile_store, attribute, now);
            assert!(expect.len() > 1, "{attribute}: several groups");
            assert_eq!(emitted.len(), expect.len(), "{attribute}");
            for (got, want) in emitted.iter().zip(&expect) {
                assert_eq!(got, want, "{attribute}");
                // `==` on floats would let -0.0 pass for 0.0.
                assert_eq!(
                    got.get_f64("avg_sentiment").unwrap().to_bits(),
                    want.get_f64("avg_sentiment").unwrap().to_bits()
                );
            }
        }
    }

    #[test]
    fn aggregator_over_for_each_emits_what_the_snapshot_grouping_did() {
        let stores = SharedStores::new();
        let mut rng = SimRng::new(0x50c1a1);
        for _ in 0..400 {
            // ~300 distinct users, so merges also update existing profiles.
            stores.profile_store.merge(Profile {
                user: format!("u{}", rng.gen_range(0, 300)),
                gender: rng
                    .gen_bool(0.6)
                    .then(|| if rng.gen_bool(0.5) { "f" } else { "m" }.to_string()),
                // Ages beyond two digits: "100s" sorts before "20s".
                age: rng.gen_bool(0.5).then(|| rng.gen_range(5, 120) as i64),
                location: rng
                    .gen_bool(0.4)
                    .then(|| format!("loc{}", rng.gen_range(0, 40))),
                sentiment: -rng.next_f64(),
                sources: vec!["test".into()],
            });
        }
        assert!(stores.profile_store.len() > 200);
        assert_aggregators_emit_the_snapshot_grouping(&stores);
    }

    /// The scan groups an entry's value and a spilled profile's by the same
    /// key, and adds both to the group's sum at their places in user order.
    #[test]
    fn aggregator_groups_spilled_profiles_with_the_entries_that_share_a_value() {
        let stores = SharedStores::new();
        let mut rng = SimRng::new(0x5911);
        let x = |n: usize| "x".repeat(n);
        // Values an entry holds, at most `ATTR_INLINE` bytes, with "a" beside
        // "a\0"; and values one byte and many bytes past it, which spill.
        let short = ["f", "m", "a", "a\0", "loc7", &x(ATTR_INLINE)].map(String::from);
        let long = [x(ATTR_INLINE + 1), "y".repeat(40)];
        let eight: Vec<String> = (0..=SOURCES_INLINE).map(|n| format!("svc{n}")).collect();
        let value = |rng: &mut SimRng| {
            let pool: &[String] = if rng.gen_bool(0.1) { &long } else { &short };
            rng.gen_bool(0.6)
                .then(|| pool[rng.gen_range(0, pool.len() as u64) as usize].clone())
        };
        for _ in 0..3000 {
            // ~400 users; a tenth of merges spill a profile by an eighth
            // source, a later merge may overwrite its long value with a short
            // one.
            let profile = Profile {
                user: format!("u{}", rng.gen_range(0, 400)),
                gender: value(&mut rng),
                // Negative ages, and ages of 100 and more.
                age: rng
                    .gen_bool(0.6)
                    .then(|| rng.gen_range(0, 260) as i64 - 130),
                location: value(&mut rng),
                sentiment: if rng.gen_bool(0.05) {
                    -0.0
                } else {
                    -rng.next_f64()
                },
                sources: if rng.gen_bool(0.1) {
                    eight.clone()
                } else {
                    vec!["blogs".into()]
                },
            };
            stores.profile_store.merge(profile);
        }

        // The store holds what the scan must group together: each short value
        // both in entries and in spilled profiles, the long ones in spilled
        // profiles only, and ages on both sides of two digits.
        let inner = stores.profile_store.0.borrow();
        let held = |spilled: bool, value: &str| {
            inner.arena.iter().any(|(_, slot)| {
                let has = |held: Option<&str>| held == Some(value);
                matches!(slot, Slot::Spilled(_)) == spilled
                    && (has(slot.gender()) || has(slot.location()))
            })
        };
        for value in &short {
            assert!(held(false, value) && held(true, value), "{value:?}");
        }
        for value in &long {
            assert!(held(true, value) && !held(false, value), "{value:?}");
        }
        let ages = || inner.arena.iter().filter_map(|(_, slot)| slot.age());
        assert!(ages().any(|age| age < -10) && ages().any(|age| age >= 100));
        drop(inner);

        assert_aggregators_emit_the_snapshot_grouping(&stores);
    }

    #[test]
    fn dependencies_bring_up_c1_and_c2() {
        let (mut world, idx, _) = build_world(1_000_000); // never spawn C3
        world.run_for(SimDuration::from_secs(5));
        let svc = world.controller::<OrcaService>(idx).unwrap();
        let mut running: Vec<String> = world
            .kernel
            .sam
            .jobs()
            .map(|j| j.app_name.clone())
            .collect();
        running.sort();
        assert_eq!(
            running,
            vec![
                "BlogQuery",
                "FacebookQuery",
                "MySpaceStreamReader",
                "TwitterQuery",
                "TwitterStreamReader"
            ]
        );
        // Cross-job stream connections exist: 2 exporters × 3 importers.
        assert_eq!(world.kernel.broker.num_connections(), 6);
        let _ = svc;
        // Submission timeline: C1 readers before (or same instant as) C2s.
        let l = logic(&world, idx);
        let first_c2 = l
            .timeline
            .iter()
            .position(|e| e.app_name.ends_with("Query"))
            .unwrap();
        let last_c1 = l
            .timeline
            .iter()
            .rposition(|e| e.app_name.ends_with("StreamReader"))
            .unwrap();
        assert!(l.timeline[last_c1].at <= l.timeline[first_c2].at);
    }

    #[test]
    fn profiles_flow_into_store_with_dedup() {
        let (mut world, _, stores) = build_world(1_000_000);
        world.run_for(SimDuration::from_secs(20));
        let n = stores.profile_store.len();
        assert!(n > 100, "store should fill: {n}");
        // Dedup: far fewer distinct users than tuples processed (3 C2 apps ×
        // 2 C1 feeds re-observe the same users).
        let with_gender = stores.profile_store.count_with_attribute("gender");
        assert!(with_gender > 0);
        assert!(with_gender <= n);
    }

    #[test]
    fn c3_spawns_at_threshold_and_contracts_on_final_punct() {
        let (mut world, idx, _) = build_world(1500);
        world.run_for(SimDuration::from_secs(60));
        let l = logic(&world, idx);
        assert!(l.c3_launched >= 1, "C3 should have been spawned");
        assert!(
            l.c3_completed >= 1,
            "C3 should have finished and been cancelled (launched {})",
            l.c3_launched
        );
        // Expansion and contraction both appear on the timeline.
        assert!(l
            .timeline
            .iter()
            .any(|e| e.submitted && e.app_name == "AttributeAggregator"));
        assert!(l
            .timeline
            .iter()
            .any(|e| !e.submitted && e.app_name == "AttributeAggregator"));
        // The composition contracted: no C3 job left running.
        let still_running = world
            .kernel
            .sam
            .jobs()
            .filter(|j| j.app_name == "AttributeAggregator")
            .count();
        let active: usize = l.active_c3.len();
        assert_eq!(still_running, active);
        // C3 results were produced before cancellation (check the trace).
        assert!(l.c3_launched as usize >= l.active_c3.len());
    }

    #[test]
    fn c3_results_correlate_attribute_with_sentiment() {
        let stores = SharedStores::new();
        for i in 0..100 {
            stores.profile_store.merge(Profile {
                user: format!("u{i}"),
                gender: Some(if i % 2 == 0 { "f" } else { "m" }.to_string()),
                age: None,
                location: None,
                sentiment: -0.5,
                sources: vec!["test".into()],
            });
        }
        let mut kernel = Kernel::new(
            Cluster::with_hosts(1),
            crate::registry(&stores),
            RuntimeConfig::default(),
        );
        let mut adl = c3_app();
        // Substitute the parameter by hand (no orchestrator in this test).
        for op in &mut adl.operators {
            if let Some(v) = op.params.get_mut("attribute") {
                *v = Value::Str("gender".into());
            }
        }
        let job = kernel.submit_job(adl, None).unwrap();
        for _ in 0..20 {
            kernel.quantum();
        }
        let results = kernel.tap(job, "result").unwrap();
        assert_eq!(results.len(), 2); // f and m buckets
        for r in &results {
            assert_eq!(r.get_int("count"), Some(50));
            assert!((r.get_f64("avg_sentiment").unwrap() + 0.5).abs() < 1e-9);
        }
    }

    #[test]
    fn store_merge_semantics() {
        let store = ProfileStoreHandle::default();
        assert!(store.is_empty());
        store.merge(Profile {
            user: "alice".into(),
            gender: Some("f".into()),
            sentiment: -0.2,
            sources: vec!["twitter".into()],
            ..Default::default()
        });
        store.merge(Profile {
            user: "alice".into(),
            age: Some(30),
            sentiment: -0.4,
            sources: vec!["facebook".into()],
            ..Default::default()
        });
        assert_eq!(store.len(), 1);
        let p = &store.snapshot()[0];
        assert_eq!(p.gender.as_deref(), Some("f")); // preserved
        assert_eq!(p.age, Some(30)); // merged in
        assert_eq!(
            p.sources,
            vec!["twitter".to_string(), "facebook".to_string()]
        );
        assert_eq!(store.count_with_attribute("gender"), 1);
        assert_eq!(store.count_with_attribute("location"), 0);
        assert_eq!(store.count_with_attribute("bogus"), 0);

        // The borrowed-field merge is the same merge: a known user is
        // updated in place, a new one is keyed on first sight, attributes
        // it does not bring are kept, a known source is not listed twice.
        store.merge_observed(Observation {
            user: "alice",
            gender: Some("m"),
            age: None,
            location: Some("loc7"),
            sentiment: -0.9,
            sources: &["facebook", "blogs"],
        });
        store.merge_observed(Observation {
            user: "aaron",
            gender: None,
            age: None,
            location: None,
            sentiment: -0.1,
            sources: &["blogs"],
        });
        assert_eq!(
            store.snapshot(),
            vec![
                Profile {
                    user: "aaron".into(),
                    sentiment: -0.1,
                    sources: vec!["blogs".into()],
                    ..Default::default()
                },
                Profile {
                    user: "alice".into(),
                    gender: Some("m".into()),
                    age: Some(30),
                    location: Some("loc7".into()),
                    sentiment: -0.9,
                    sources: vec!["twitter".into(), "facebook".into(), "blogs".into()],
                },
            ]
        );
    }

    /// The merge as it was before it borrowed its fields, over a plain map.
    fn merge_owned(store: &mut BTreeMap<String, Profile>, p: Profile) {
        let entry = store.entry(p.user.clone()).or_default();
        entry.user = p.user;
        if p.gender.is_some() {
            entry.gender = p.gender;
        }
        if p.age.is_some() {
            entry.age = p.age;
        }
        if p.location.is_some() {
            entry.location = p.location;
        }
        entry.sentiment = p.sentiment;
        for s in p.sources {
            if !entry.sources.contains(&s) {
                entry.sources.push(s);
            }
        }
    }

    /// Strings around an inline capacity of `cap` bytes: empty, one byte,
    /// one under, exactly at and one past it, multi-byte characters ending
    /// at and straddling it, `cap`-long common prefixes, and NULs (which
    /// the zero padding of an inline array must never be taken for).
    fn edge_strings(cap: usize) -> Vec<String> {
        let x = |n: usize| "x".repeat(n);
        vec![
            String::new(),
            "a".into(),
            "\0".into(),
            "a\0".into(),
            "a\0\0".into(),
            "a\0b".into(),
            x(cap - 1),
            x(cap),
            x(cap + 1),
            x(cap - 1) + "\0",
            x(cap) + "\0",
            x(cap - 2) + "é",
            x(cap - 1) + "é",
            x(cap - 3) + "中",
            x(cap - 1) + "中",
            x(cap - 2) + "🦀",
            x(cap) + "y",
            x(cap) + "z",
            x(3 * cap),
        ]
    }

    /// Groups with each sum as its bit pattern (`==` on floats would let
    /// -0.0 pass for 0.0).
    fn bits(groups: BTreeMap<String, (f64, usize)>) -> Vec<(String, u64, usize)> {
        let flat = groups.into_iter();
        flat.map(|(key, (sum, n))| (key, sum.to_bits(), n))
            .collect()
    }

    /// Everything the store lets a caller see equals the model's, user
    /// order included; float sums compared by bit pattern.
    fn assert_store_is(store: &ProfileStoreHandle, model: &BTreeMap<String, Profile>) {
        for read in 0..READS {
            ordered_read_is(store, model, read);
        }
        assert_eq!(store.len(), model.len());
        assert_eq!(store.is_empty(), model.is_empty());
        assert_eq!(store.count_with_attribute("bogus"), 0);
        for (attribute, _) in ATTRIBUTES {
            assert_eq!(
                store.count_with_attribute(attribute),
                model
                    .values()
                    .filter(|p| has_attribute(p, attribute))
                    .count(),
                "{attribute}"
            );
        }
    }

    #[test]
    fn borrowed_merge_builds_the_store_the_owned_merge_did() {
        let store = ProfileStoreHandle::default();
        let mut model = BTreeMap::new();
        let mut rng = SimRng::new(0x5eed);
        fn pick(rng: &mut SimRng, pool: &[String]) -> String {
            pool[rng.gen_range(0, pool.len() as u64) as usize].clone()
        }

        let mut users = edge_strings(USER_INLINE);
        users.extend((0..160).map(|n| format!("u{n}")));
        let values = edge_strings(ATTR_INLINE);
        let short_values: Vec<String> = values
            .iter()
            .filter(|value| value.len() <= ATTR_INLINE)
            .cloned()
            .collect();
        // As many sources as one entry lists, and more names than ids.
        let few_sources: Vec<String> = (0..SOURCES_INLINE).map(|n| format!("svc{n}")).collect();
        let mut many_sources = few_sources.clone();
        many_sources.extend((0..600).map(|n| format!("feed{n}")));

        // The first profile lists exactly as many sources as an entry
        // holds, which also gives those names their ids before the table
        // fills up.
        let first = Profile {
            user: users[0].clone(),
            sources: few_sources.clone(),
            ..Default::default()
        };
        merge_owned(&mut model, first.clone());
        store.merge(first);
        assert_store_is(&store, &model);

        for _ in 0..2500 {
            let at = rng.gen_range(0, users.len() as u64) as usize;
            // A third of the users only ever get what an entry can hold
            // and stay entries to the end; a third outgrow it by their
            // sources alone (an eighth one, or a name the full table has no
            // id for); the rest get long values as well.
            let (values, sources) = match at % 3 {
                0 => (&short_values, &few_sources),
                1 => (&short_values, &many_sources),
                _ => (&values, &many_sources),
            };
            let p = Profile {
                user: users[at].clone(),
                gender: rng.gen_bool(0.5).then(|| pick(&mut rng, values)),
                age: rng.gen_bool(0.4).then(|| rng.gen_range(0, 130) as i64 - 5),
                location: rng.gen_bool(0.5).then(|| pick(&mut rng, values)),
                sentiment: if rng.gen_bool(0.1) {
                    -0.0
                } else {
                    -rng.next_f64()
                },
                sources: (0..rng.gen_range(0, 4))
                    .map(|_| pick(&mut rng, sources))
                    .collect(),
            };
            merge_owned(&mut model, p.clone());
            if rng.gen_bool(0.5) {
                store.merge(p);
            } else {
                let sources: Vec<&str> = p.sources.iter().map(String::as_str).collect();
                store.merge_observed(Observation {
                    user: &p.user,
                    gender: p.gender.as_deref(),
                    age: p.age,
                    location: p.location.as_deref(),
                    sentiment: p.sentiment,
                    sources: &sources,
                });
            }
            assert_store_is(&store, &model);
        }

        // The run went where it was meant to: keys and entries of both
        // kinds, an entry filled to its last source, the id table full and
        // more names than it holds in use.
        let inner = store.0.borrow();
        let keys = |heap: bool| {
            let keys = inner.arena.iter().map(|(key, _)| key);
            keys.filter(|key| matches!(key, UserKey::Heap(_)) == heap)
                .count()
        };
        assert!(keys(false) > 100 && keys(true) > 5);
        let entries = || {
            inner.arena.iter().filter_map(|(_, slot)| match slot {
                Slot::Flat(entry) => Some(entry),
                Slot::Spilled(_) => None,
            })
        };
        assert!(entries().count() > 30 && entries().count() + 60 < inner.arena.len());
        assert!(entries().any(|entry| usize::from(entry.n_sources) == SOURCES_INLINE));
        assert_eq!(inner.source_names.0.len(), usize::from(u8::MAX) + 1);
        let mut names: Vec<&String> = model.values().flat_map(|p| &p.sources).collect();
        names.sort();
        names.dedup();
        assert!(names.len() > inner.source_names.0.len());
        let most = model.values().map(|p| p.sources.len()).max();
        assert!(most > Some(2 * SOURCES_INLINE));
    }

    /// Kinds of ordered read: `snapshot`, `for_each`, and a C3 scan per
    /// attribute.
    const READS: u64 = 2 + ATTRIBUTES.len() as u64;

    /// One ordered read of `store` — `snapshot`, `for_each`, or the C3 scan
    /// of one attribute — checked against the model.
    fn ordered_read_is(store: &ProfileStoreHandle, model: &BTreeMap<String, Profile>, read: u64) {
        let expect: Vec<&Profile> = model.values().collect();
        match read {
            0 => assert_eq!(store.snapshot().iter().collect::<Vec<_>>(), expect),
            1 => {
                let mut scanned = Vec::new();
                store.for_each(|p| scanned.push(p.clone()));
                assert_eq!(scanned.iter().collect::<Vec<_>>(), expect);
            }
            _ => {
                let (attribute, _) = ATTRIBUTES[read as usize - 2];
                assert_eq!(
                    bits(sentiment_by_attribute(store, attribute)),
                    bits(groups_of(expect.iter().copied(), attribute)),
                    "{attribute}"
                );
            }
        }
    }

    #[test]
    fn ordered_reads_merge_bursts_of_first_sightings() {
        let store = ProfileStoreHandle::default();
        let mut model = BTreeMap::new();
        let mut rng = SimRng::new(0x0bde);

        // The edge names, then ≈ 2,000 generated ones in no particular
        // order: short, NUL-bearing, and straddling the inline capacity
        // with a capacity-long common prefix (whose first eight bytes tie,
        // so only the names themselves order them).
        let mut users = edge_strings(USER_INLINE);
        let long_stem = "x".repeat(USER_INLINE - 2);
        let stems = ["u", "a\0", long_stem.as_str()];
        for _ in 0..2000 {
            let stem = stems[rng.gen_range(0, 3) as usize];
            users.push(format!("{stem}{}", rng.gen_range(0, 1_000_000)));
        }
        // Merges take the pool's next unseen name three times in five and a
        // name already drawn otherwise, so about half of the ≈ 4,000 are
        // first sightings and a burst between reads is mostly new keys.
        let (mut next_new, mut until_read) = (0, 0);
        let mut bursts = Vec::new();
        for _ in 0..4000 {
            let at = if next_new < users.len() && (next_new == 0 || rng.gen_bool(0.6)) {
                next_new += 1;
                next_new - 1
            } else {
                rng.gen_range(0, next_new as u64) as usize
            };
            let p = Profile {
                user: users[at].clone(),
                gender: rng
                    .gen_bool(0.5)
                    .then(|| if rng.gen_bool(0.5) { "f" } else { "m" }.to_string()),
                age: rng.gen_bool(0.5).then(|| rng.gen_range(5, 120) as i64),
                location: rng
                    .gen_bool(0.4)
                    .then(|| format!("loc{}", rng.gen_range(0, 40))),
                sentiment: -rng.next_f64(),
                sources: vec!["blogs".into()],
            };
            merge_owned(&mut model, p.clone());
            store.merge(p);

            if until_read > 0 {
                until_read -= 1;
                continue;
            }
            until_read = rng.gen_range(0, 401);
            let inner = store.0.borrow();
            bursts.push((inner.order.len(), inner.arena.len() - inner.order.len()));
            drop(inner);
            ordered_read_is(&store, &model, rng.gen_range(0, READS));
            if rng.gen_bool(0.3) {
                ordered_read_is(&store, &model, rng.gen_range(0, READS));
            }
            assert_store_is(&store, &model);
        }

        // Bursts of hundreds of new keys were merged into an order that
        // already held hundreds, and heap and NUL-bearing keys were among
        // them.
        assert!(bursts.len() > 12);
        assert!(bursts
            .iter()
            .any(|&(kept, fresh)| kept > 500 && fresh > 150));
        let inner = store.0.borrow();
        let heap = |(key, _): &&(UserKey, Slot)| matches!(key, UserKey::Heap(_));
        assert!(inner.arena.iter().filter(heap).count() > 300);
        let nul = |(key, _): &&(UserKey, Slot)| key.as_bytes().contains(&0);
        assert!(inner.arena.iter().filter(nul).count() > 300);
        assert!(inner.arena.len() > 1900);
    }

    #[test]
    fn clones_share_a_store_and_new_stores_share_nothing() {
        let seen = |user| Observation {
            user,
            gender: None,
            age: Some(30),
            location: None,
            sentiment: -0.5,
            sources: &["blogs"],
        };
        let stores = SharedStores::new();
        let clone = stores.profile_store.clone();
        clone.merge_observed(seen("alice"));
        stores.profile_store.merge_observed(seen("bob"));
        assert_eq!(clone.len(), 2);
        assert_eq!(stores.profile_store.snapshot(), clone.snapshot());
        assert_eq!(stores.clone().profile_store.count_with_attribute("age"), 2);

        assert!(SharedStores::new().profile_store.is_empty());
        assert!(ProfileStoreHandle::default().is_empty());
    }

    #[test]
    fn an_entry_is_one_cache_line() {
        assert!(std::mem::size_of::<Slot>() <= 64);
        assert!(std::mem::size_of::<UserKey>() <= 24);
    }

    #[test]
    fn aggregator_rejects_unknown_attribute() {
        let stores = SharedStores::new();
        let registry = crate::registry(&stores);
        let mut adl = c3_app();
        for op in &mut adl.operators {
            if let Some(v) = op.params.get_mut("attribute") {
                *v = Value::Str("shoe_size".into());
            }
        }
        let mut kernel = Kernel::new(Cluster::with_hosts(1), registry, RuntimeConfig::default());
        assert!(kernel.submit_job(adl, None).is_err());
    }
}
