//! Operator state: keyed/unkeyed tuple multisets in a row or columnar
//! layout, with byte accounting and an optional spill tier.
//!
//! A [`KeyedState`] maps a join key (a `Vec<Value>`) to the multiset of
//! live tuples carrying that key. Multiplicity bookkeeping is what makes
//! retraction exact: a tuple inserted twice must be retracted twice
//! before it disappears. Its read path is [`KeyedState::probe`], which
//! emits joined tuples directly.
//!
//! Both [`KeyedState`] and [`BagState`] (and the window buffers built on
//! [`ColumnarDeque`]) come in two layouts, chosen at construction via
//! [`StateOptions`]:
//!
//! * **Row** — the classic `HashMap`-of-`Tuple` layout. Cheap for small
//!   state, and the baseline the E20 bench compares against.
//! * **Columnar** (the default) — tuples are decomposed into per-column
//!   primitive vectors in a `columnar::TupleStore` (dictionary-coded
//!   text, RLE'd sealed segments), reached through hash indexes of row
//!   ids, and resident bytes are *measured*, not estimated. Lookups
//!   compare stored cells in place ([`columnar::Column::eq_at`]): keyed
//!   updates and bag retractions decode no candidate row, and a keyed
//!   probe converts only the matching rows' tuple cells into `Value`s,
//!   straight into the joined output. Snapshots, window pops and bag
//!   replays still materialize whole tuples. With a [`SpillConfig`],
//!   cold sealed segments page to disk and are decoded transiently on
//!   access (once per probe, not once per row), so retained tables and
//!   large join states outgrow RAM gracefully.
//!
//! Retraction multiplicities and per-occurrence arrival order are layout
//! invariants: row ids in the columnar stores are assigned in arrival
//! order and never reused, which is exactly the `next_seq` discipline of
//! the row layout.

use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, VecDeque};
use std::hash::{Hash, Hasher};

use aspen_types::{DataType, SimTime, Tuple, Value};
use columnar::{Cell, Column, TupleStore};

use crate::delta::{Delta, DeltaBatch};

pub use columnar::SpillConfig;

/// Physical layout of operator state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StateLayout {
    /// Row-of-`Tuple` hash maps (the pre-columnar layout).
    Row,
    /// Per-column vectors with dictionary/RLE compression.
    #[default]
    Columnar,
}

/// Layout + spill policy, threaded from `EngineConfig` down to every
/// stateful operator at pipeline build time.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StateOptions {
    pub layout: StateLayout,
    /// Spill tier for columnar stores (ignored by the row layout).
    pub spill: Option<SpillConfig>,
}

impl StateOptions {
    pub fn row() -> Self {
        StateOptions {
            layout: StateLayout::Row,
            spill: None,
        }
    }

    pub fn columnar() -> Self {
        StateOptions::default()
    }
}

// ---------------------------------------------------------------------------
// Value <-> Cell conversion

fn datatype_code(dt: DataType) -> u8 {
    match dt {
        DataType::Bool => 0,
        DataType::Int => 1,
        DataType::Float => 2,
        DataType::Text => 3,
        DataType::Timestamp => 4,
    }
}

fn code_datatype(c: u8) -> DataType {
    match c {
        0 => DataType::Bool,
        1 => DataType::Int,
        2 => DataType::Float,
        3 => DataType::Text,
        _ => DataType::Timestamp,
    }
}

fn value_to_cell(v: &Value) -> Cell {
    match v {
        Value::Null => Cell::Null,
        Value::Bool(b) => Cell::Bool(*b),
        Value::Int(i) => Cell::Int(*i),
        Value::Float(f) => Cell::Float(*f),
        Value::Text(s) => Cell::Text(s.clone()),
        Value::Timestamp(t) => Cell::Ts(*t),
        Value::Param(slot, dt) => Cell::Pair(*slot, datatype_code(*dt)),
    }
}

fn cell_to_value(c: Cell) -> Value {
    match c {
        Cell::Null => Value::Null,
        Cell::Bool(b) => Value::Bool(b),
        Cell::Int(i) => Value::Int(i),
        Cell::Float(f) => Value::Float(f),
        Cell::Text(s) => Value::Text(s),
        Cell::Ts(t) => Value::Timestamp(t),
        Cell::Pair(slot, dt) => Value::Param(slot, code_datatype(dt)),
    }
}

fn tuple_cells(t: &Tuple) -> Vec<Cell> {
    t.values().iter().map(value_to_cell).collect()
}

fn cells_tuple(cells: Vec<Cell>, ts: u64) -> Tuple {
    Tuple::new(
        cells.into_iter().map(cell_to_value).collect(),
        SimTime::from_micros(ts),
    )
}

fn hash_of(h: &impl Hash) -> u64 {
    let mut hasher = DefaultHasher::new();
    h.hash(&mut hasher);
    hasher.finish()
}

// ---------------------------------------------------------------------------
// Byte estimates for the row layout (the columnar layout measures)

/// Estimated hash-map entry overhead (bucket slot + control byte +
/// allocator slack), used by the row layout's byte accounting.
const MAP_ENTRY: usize = 48;

/// Rows per columnar segment for operator state. Operator stores are
/// FIFO-heavy (window eviction and oldest-first bag retraction kill rows
/// in arrival order), and a fully-dead *sealed* segment is physically
/// dropped — so small segments keep a store's resident footprint
/// tracking its live window instead of everything ever pushed, and give
/// the spill tier fine-grained pages. 32 keeps the dead-tail overhead
/// below one segment per live structure at typical window sizes.
const SEGMENT_ROWS: u32 = 32;

/// Estimated resident heap bytes of one privately-held tuple.
pub(crate) fn tuple_heap_bytes(t: &Tuple) -> usize {
    let mut b = std::mem::size_of::<Tuple>()
        + 16 // Arc header
        + std::mem::size_of_val(t.values());
    for v in t.values() {
        if let Value::Text(s) = v {
            b += s.len();
        }
    }
    b
}

fn key_heap_bytes(k: &[Value]) -> usize {
    let mut b = 24 + std::mem::size_of_val(k);
    for v in k {
        if let Value::Text(s) = v {
            b += s.len();
        }
    }
    b
}

// ---------------------------------------------------------------------------
// KeyedState

/// Multiset of tuples, keyed. Layout-dual; see the module docs.
#[derive(Debug, Clone)]
pub struct KeyedState {
    inner: KeyedInner,
}

#[derive(Debug, Clone)]
enum KeyedInner {
    Row {
        map: HashMap<Vec<Value>, HashMap<Tuple, i64>>,
        /// Gross live count: Σ max(multiplicity, 0).
        live: usize,
        bytes: usize,
    },
    Col(ColumnarKeyedState),
}

impl Default for KeyedState {
    fn default() -> Self {
        KeyedState::new()
    }
}

impl KeyedState {
    /// Row-layout state (the legacy default for direct construction).
    pub fn new() -> Self {
        KeyedState {
            inner: KeyedInner::Row {
                map: HashMap::new(),
                live: 0,
                bytes: 0,
            },
        }
    }

    pub fn with_options(opts: &StateOptions) -> Self {
        match opts.layout {
            StateLayout::Row => KeyedState::new(),
            StateLayout::Columnar => KeyedState {
                inner: KeyedInner::Col(ColumnarKeyedState::new(opts.spill.clone())),
            },
        }
    }

    /// Apply a signed update; returns the tuple's new multiplicity.
    pub fn update(&mut self, key: &[Value], tuple: &Tuple, sign: i64) -> i64 {
        match &mut self.inner {
            KeyedInner::Row { map, live, bytes } => {
                if !map.contains_key(key) {
                    *bytes += key_heap_bytes(key) + MAP_ENTRY;
                    map.insert(key.to_vec(), HashMap::new());
                }
                let bucket = map.get_mut(key).expect("bucket exists");
                let new_entry = !bucket.contains_key(tuple);
                if new_entry {
                    *bytes += tuple_heap_bytes(tuple) + MAP_ENTRY;
                }
                let entry = bucket.entry(tuple.clone()).or_insert(0);
                let old = *entry;
                *entry += sign;
                let now = *entry;
                if now == 0 {
                    bucket.remove(tuple);
                    *bytes = bytes.saturating_sub(tuple_heap_bytes(tuple) + MAP_ENTRY);
                }
                // Gross count from the actual multiplicity transition, so
                // a retract-before-insert pair nets to zero instead of
                // drifting (the saturating version over-counted forever).
                *live = (*live as i64 + now.max(0) - old.max(0)) as usize;
                now
            }
            KeyedInner::Col(c) => c.update(key, tuple, sign),
        }
    }

    /// Join `probe` against every live tuple under `key`: emits each
    /// joined tuple — `probe ++ match` if `probe_on_left`, else
    /// `match ++ probe`, stamped with the later timestamp — with the
    /// match's multiplicity. Negative multiplicities are emitted too.
    /// Columnar state emits in arrival order.
    pub fn probe(
        &self,
        key: &[Value],
        probe: &Tuple,
        probe_on_left: bool,
        mut emit: impl FnMut(Tuple, i64),
    ) {
        match &self.inner {
            KeyedInner::Row { map, .. } => {
                for (t, &c) in map.get(key).into_iter().flatten() {
                    let joined = if probe_on_left {
                        probe.join(t)
                    } else {
                        t.join(probe)
                    };
                    emit(joined, c);
                }
            }
            KeyedInner::Col(c) => c.probe(key, probe, probe_on_left, emit),
        }
    }

    /// Gross number of live tuples (counting positive multiplicity).
    pub fn len(&self) -> usize {
        match &self.inner {
            KeyedInner::Row { live, .. } => *live,
            KeyedInner::Col(c) => c.live,
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of distinct keys ever populated.
    pub fn key_count(&self) -> usize {
        match &self.inner {
            KeyedInner::Row { map, .. } => map.len(),
            KeyedInner::Col(c) => c.index.len(),
        }
    }

    /// Resident state bytes: measured for the columnar layout, estimated
    /// for the row layout.
    pub fn state_bytes(&self) -> usize {
        match &self.inner {
            KeyedInner::Row { bytes, .. } => *bytes,
            KeyedInner::Col(c) => c.state_bytes(),
        }
    }

    /// Bytes currently paged out to the spill tier.
    pub fn spilled_bytes(&self) -> usize {
        match &self.inner {
            KeyedInner::Row { .. } => 0,
            KeyedInner::Col(c) => c.store.spilled_bytes(),
        }
    }
}

/// Columnar keyed multiset: each live `(key, tuple, multiplicity)` entry
/// is one weighted row (key cells ++ tuple cells) in a [`TupleStore`].
/// A key-hash index holds, per key, each entry's `(entry tag, row id)`
/// in arrival order, where the tag hashes `(key, tuple values, ts)`:
/// 16 bytes per entry and no second per-entry map.
///
/// * An update scans the key's `u64` tags and verifies only the tag hits
///   in place, so it reads one stored row (plus any 64-bit tag
///   collisions) however many entries share the key. A retraction to
///   zero removes the entry from its bucket at its position.
/// * A probe walks the key's rows once in row-id order, decoding each
///   spilled segment at most once, skips rows of other keys with the
///   same key hash by comparing key cells in place, and builds each
///   joined tuple straight from the columns.
#[derive(Debug, Clone)]
pub struct ColumnarKeyedState {
    store: TupleStore,
    /// key hash → `(entry tag, row id)` of each live entry, in arrival
    /// (= ascending row id) order. Buckets are kept when emptied so
    /// `key_count` matches the row layout's "keys ever seen".
    index: HashMap<u64, Vec<(u64, u64)>>,
    key_width: Option<usize>,
    /// Gross live count: Σ max(weight, 0).
    live: usize,
}

impl ColumnarKeyedState {
    fn new(spill: Option<SpillConfig>) -> Self {
        ColumnarKeyedState {
            store: TupleStore::weighted(0)
                .segment_rows(SEGMENT_ROWS)
                .with_spill(spill),
            index: HashMap::new(),
            key_width: None,
            live: 0,
        }
    }

    fn update(&mut self, key: &[Value], tuple: &Tuple, sign: i64) -> i64 {
        let kw = *self.key_width.get_or_insert(key.len());
        debug_assert_eq!(kw, key.len(), "key arity is fixed per state");
        let ts = tuple.timestamp().as_micros();
        let tag = hash_of(&(key, tuple.values(), ts));
        let cells: Vec<Cell> = key
            .iter()
            .chain(tuple.values())
            .map(value_to_cell)
            .collect();
        let bucket = self.index.entry(hash_of(&key)).or_default();
        let store = &self.store;
        let hit = bucket
            .iter()
            .enumerate()
            .filter(|(_, &(t, _))| t == tag)
            .find_map(|(pos, &(_, row))| {
                weight_if_equal(store, row, &cells, ts).map(|w| (pos, row, w))
            });
        let Some((pos, row, old)) = hit else {
            if sign == 0 {
                return 0;
            }
            let row = self.store.push_weighted(&cells, ts, sign);
            bucket.push((tag, row));
            self.live += sign.max(0) as usize;
            return sign;
        };
        let now = old + sign;
        self.live = (self.live as i64 + now.max(0) - old.max(0)) as usize;
        if now == 0 {
            self.store.mark_dead(row);
            bucket.remove(pos);
        } else {
            self.store.set_weight(row, now);
        }
        now
    }

    fn probe(
        &self,
        key: &[Value],
        probe: &Tuple,
        probe_on_left: bool,
        mut emit: impl FnMut(Tuple, i64),
    ) {
        let (Some(kw), Some(bucket)) = (self.key_width, self.index.get(&hash_of(&key))) else {
            return;
        };
        let key_cells: Vec<Cell> = key.iter().map(value_to_cell).collect();
        let probe_ts = probe.timestamp();
        let rows = bucket.iter().map(|&(_, row)| row);
        self.store.for_rows(rows, |_, cols, off, arity, ts, w| {
            if arity < kw || !starts_with_at(cols, off, &key_cells) {
                return; // another key with the same hash
            }
            let stored = (kw..arity).map(|c| cell_to_value(cols[c].get(off)));
            let ts = probe_ts.max(SimTime::from_micros(ts));
            let joined = if probe_on_left {
                Tuple::from_values(probe.values().iter().cloned().chain(stored), ts)
            } else {
                Tuple::from_values(stored.chain(probe.values().iter().cloned()), ts)
            };
            emit(joined, w);
        });
    }

    fn state_bytes(&self) -> usize {
        let index_bytes: usize = self.index.values().map(|b| MAP_ENTRY + b.len() * 16).sum();
        self.store.resident_bytes() + index_bytes
    }
}

/// The weight of live `row` if it holds exactly `cells` at `ts`, compared
/// in place.
fn weight_if_equal(store: &TupleStore, row: u64, cells: &[Cell], ts: u64) -> Option<i64> {
    store
        .with_row(row, |cols, off, arity, rts, w| {
            (rts == ts && arity == cells.len() && starts_with_at(cols, off, cells)).then_some(w)
        })
        .flatten()
}

/// Whether the row at `off` starts with `cells`, compared in place. The
/// caller checks that the row has at least `cells.len()` cells.
fn starts_with_at(cols: &[Column], off: usize, cells: &[Cell]) -> bool {
    cells
        .iter()
        .zip(cols)
        .all(|(cell, col)| col.eq_at(off, cell))
}

// ---------------------------------------------------------------------------
// BagState

/// Unkeyed tuple multiset maintained by delta batches — the engine's
/// retained-table state. `apply` is O(batch), and `snapshot` replays
/// tuples in *per-occurrence arrival order*, because late-registered
/// queries with order-sensitive `ROWS n` windows must retain the same
/// rows a query that was live during ingestion retained. Every
/// insertion gets its own sequence number — a duplicate row replays at
/// the position it actually arrived at, not grouped with its first
/// occurrence (a regression test drives this: `[7, 1, 7, 2]` under
/// `ROWS 2` must retain `[7, 2]`, not `[1, 2]`). A retraction removes
/// the *oldest* live occurrence of its tuple; a retraction arriving
/// before its insertion is held as debt the next insertion cancels.
///
/// Layout-dual: the columnar arm stores occurrences as live rows in a
/// [`TupleStore`] whose monotone row ids double as arrival sequence
/// numbers, so both layouts replay identically.
#[derive(Debug, Clone)]
pub struct BagState {
    inner: BagInner,
}

#[derive(Debug, Clone)]
enum BagInner {
    Row {
        /// Tuple → arrival sequence of each live occurrence (ascending).
        /// Keys with no live occurrences are removed.
        occurrences: HashMap<Tuple, VecDeque<u64>>,
        /// Transient over-retractions (out-of-order deltas), per tuple.
        debts: HashMap<Tuple, u64>,
        next_seq: u64,
        bytes: usize,
    },
    Col(ColumnarBag),
}

impl Default for BagState {
    fn default() -> Self {
        BagState::new()
    }
}

impl BagState {
    /// Row-layout bag (the legacy default for direct construction).
    pub fn new() -> Self {
        BagState {
            inner: BagInner::Row {
                occurrences: HashMap::new(),
                debts: HashMap::new(),
                next_seq: 0,
                bytes: 0,
            },
        }
    }

    pub fn with_options(opts: &StateOptions) -> Self {
        match opts.layout {
            StateLayout::Row => BagState::new(),
            StateLayout::Columnar => BagState {
                inner: BagInner::Col(ColumnarBag::new(opts.spill.clone())),
            },
        }
    }

    /// Apply a whole batch of signed changes.
    pub fn apply(&mut self, batch: &DeltaBatch) {
        for d in batch {
            self.apply_delta(d);
        }
    }

    pub fn apply_delta(&mut self, delta: &Delta) {
        if delta.sign > 0 {
            for _ in 0..delta.sign {
                self.insert_one(&delta.tuple);
            }
        } else {
            for _ in 0..-delta.sign {
                self.retract_one(&delta.tuple);
            }
        }
    }

    fn insert_one(&mut self, tuple: &Tuple) {
        match &mut self.inner {
            BagInner::Row {
                occurrences,
                debts,
                next_seq,
                bytes,
            } => {
                // An insertion first heals any over-retraction instead of
                // becoming a live occurrence.
                if let Some(debt) = debts.get_mut(tuple) {
                    *debt -= 1;
                    if *debt == 0 {
                        debts.remove(tuple);
                        *bytes = bytes.saturating_sub(tuple_heap_bytes(tuple) + MAP_ENTRY);
                    }
                    return;
                }
                let seq = *next_seq;
                *next_seq += 1;
                if !occurrences.contains_key(tuple) {
                    *bytes += tuple_heap_bytes(tuple) + MAP_ENTRY;
                }
                *bytes += 8;
                occurrences.entry(tuple.clone()).or_default().push_back(seq);
            }
            BagInner::Col(c) => c.insert_one(tuple),
        }
    }

    fn retract_one(&mut self, tuple: &Tuple) {
        match &mut self.inner {
            BagInner::Row {
                occurrences,
                debts,
                bytes,
                ..
            } => match occurrences.get_mut(tuple) {
                Some(seqs) if !seqs.is_empty() => {
                    seqs.pop_front(); // oldest occurrence leaves first
                    *bytes = bytes.saturating_sub(8);
                    if seqs.is_empty() {
                        occurrences.remove(tuple);
                        *bytes = bytes.saturating_sub(tuple_heap_bytes(tuple) + MAP_ENTRY);
                    }
                }
                _ => {
                    if !debts.contains_key(tuple) {
                        *bytes += tuple_heap_bytes(tuple) + MAP_ENTRY;
                    }
                    *debts.entry(tuple.clone()).or_insert(0) += 1;
                }
            },
            BagInner::Col(c) => c.retract_one(tuple),
        }
    }

    pub fn insert_all(&mut self, tuples: &[Tuple]) {
        for t in tuples {
            self.insert_one(t);
        }
    }

    /// Distinct live tuples.
    pub fn distinct(&self) -> usize {
        match &self.inner {
            BagInner::Row { occurrences, .. } => occurrences.len(),
            BagInner::Col(c) => c.distinct,
        }
    }

    pub fn is_empty(&self) -> bool {
        match &self.inner {
            BagInner::Row { occurrences, .. } => occurrences.is_empty(),
            BagInner::Col(c) => c.store.is_empty(),
        }
    }

    /// Live occurrences in arrival order.
    pub fn snapshot(&self) -> Vec<Tuple> {
        match &self.inner {
            BagInner::Row { occurrences, .. } => {
                let mut live: Vec<(u64, &Tuple)> = occurrences
                    .iter()
                    .flat_map(|(t, seqs)| seqs.iter().map(move |&s| (s, t)))
                    .collect();
                live.sort_unstable_by_key(|&(seq, _)| seq);
                live.into_iter().map(|(_, t)| t.clone()).collect()
            }
            BagInner::Col(c) => c.snapshot(),
        }
    }

    /// Resident state bytes: measured (columnar) or estimated (row).
    pub fn state_bytes(&self) -> usize {
        match &self.inner {
            BagInner::Row { bytes, .. } => *bytes,
            BagInner::Col(c) => c.state_bytes(),
        }
    }

    pub fn spilled_bytes(&self) -> usize {
        match &self.inner {
            BagInner::Row { .. } => 0,
            BagInner::Col(c) => c.store.spilled_bytes(),
        }
    }
}

/// Columnar bag: occurrences are live rows in a [`TupleStore`]; the row
/// id *is* the arrival sequence. A tuple-hash index finds the oldest
/// live occurrence for retraction without storing tuples twice.
#[derive(Debug, Clone)]
pub struct ColumnarBag {
    store: TupleStore,
    /// tuple hash → live row ids, ascending (arrival order).
    index: HashMap<u64, Vec<u64>>,
    debts: HashMap<Tuple, u64>,
    distinct: usize,
}

impl ColumnarBag {
    fn new(spill: Option<SpillConfig>) -> Self {
        ColumnarBag {
            store: TupleStore::new(0)
                .segment_rows(SEGMENT_ROWS)
                .with_spill(spill),
            index: HashMap::new(),
            debts: HashMap::new(),
            distinct: 0,
        }
    }

    fn row_equals(&self, row: u64, cells: &[Cell], ts: u64) -> bool {
        weight_if_equal(&self.store, row, cells, ts).is_some()
    }

    fn insert_one(&mut self, tuple: &Tuple) {
        if let Some(debt) = self.debts.get_mut(tuple) {
            *debt -= 1;
            if *debt == 0 {
                self.debts.remove(tuple);
            }
            return;
        }
        let cells = tuple_cells(tuple);
        let ts = tuple.timestamp().as_micros();
        let h = hash_of(tuple);
        let already = self
            .index
            .get(&h)
            .map(|b| b.iter().any(|&r| self.row_equals(r, &cells, ts)))
            .unwrap_or(false);
        let row = self.store.push(&cells, ts);
        self.index.entry(h).or_default().push(row);
        if !already {
            self.distinct += 1;
        }
    }

    fn retract_one(&mut self, tuple: &Tuple) {
        let cells = tuple_cells(tuple);
        let ts = tuple.timestamp().as_micros();
        let h = hash_of(tuple);
        let oldest = self
            .index
            .get(&h)
            .and_then(|bucket| bucket.iter().position(|&r| self.row_equals(r, &cells, ts)));
        match oldest {
            Some(pos) => {
                let bucket = self.index.get_mut(&h).expect("bucket exists");
                let row = bucket.remove(pos);
                self.store.mark_dead(row);
                let bucket = self.index.get(&h).expect("bucket exists");
                let still = bucket.iter().any(|&r| self.row_equals(r, &cells, ts));
                if !still {
                    self.distinct -= 1;
                }
                if self.index.get(&h).map(|b| b.is_empty()).unwrap_or(false) {
                    self.index.remove(&h);
                }
            }
            None => {
                *self.debts.entry(tuple.clone()).or_insert(0) += 1;
            }
        }
    }

    fn snapshot(&self) -> Vec<Tuple> {
        let mut out = Vec::with_capacity(self.store.live_rows() as usize);
        self.store.for_each_live(|_, cells, ts, _| {
            out.push(cells_tuple(cells, ts));
        });
        out
    }

    fn state_bytes(&self) -> usize {
        let index_bytes: usize = self.index.values().map(|b| MAP_ENTRY + b.len() * 8).sum();
        let debt_bytes: usize = self
            .debts
            .keys()
            .map(|t| tuple_heap_bytes(t) + MAP_ENTRY)
            .sum();
        self.store.resident_bytes() + index_bytes + debt_bytes
    }
}

// ---------------------------------------------------------------------------
// ColumnarDeque — the window buffer

/// Arrival-ordered tuple deque over a [`TupleStore`]: `push_back`
/// appends a row, `pop_front` kills the oldest live row. The timestamp
/// column stays resident even when a segment spills, so window-expiry
/// checks never fault cold segments in just to peek at the front.
#[derive(Debug, Clone)]
pub struct ColumnarDeque {
    store: TupleStore,
}

impl ColumnarDeque {
    pub fn new(spill: Option<SpillConfig>) -> Self {
        ColumnarDeque {
            store: TupleStore::new(0)
                .segment_rows(SEGMENT_ROWS)
                .with_spill(spill),
        }
    }

    pub fn spill_config(&self) -> Option<SpillConfig> {
        self.store.spill_config().cloned()
    }

    pub fn len(&self) -> usize {
        self.store.live_rows() as usize
    }

    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    pub fn push_back(&mut self, tuple: &Tuple) {
        self.store
            .push(&tuple_cells(tuple), tuple.timestamp().as_micros());
    }

    /// Timestamp of the oldest live tuple — O(1), never faults a
    /// spilled segment in.
    pub fn front_ts(&self) -> Option<SimTime> {
        self.store
            .first_live()
            .map(|(_, ts)| SimTime::from_micros(ts))
    }

    pub fn pop_front(&mut self) -> Option<Tuple> {
        let (row, _) = self.store.first_live()?;
        let (cells, ts) = self.store.get(row)?;
        self.store.mark_dead(row);
        Some(cells_tuple(cells, ts))
    }

    /// Live tuples in arrival order.
    pub fn snapshot(&self) -> Vec<Tuple> {
        let mut out = Vec::with_capacity(self.len());
        self.store.for_each_live(|_, cells, ts, _| {
            out.push(cells_tuple(cells, ts));
        });
        out
    }

    /// Materialize and drop every live tuple (tumbling pane rollover).
    pub fn drain(&mut self) -> Vec<Tuple> {
        let out = self.snapshot();
        self.store.clear();
        out
    }

    pub fn state_bytes(&self) -> usize {
        self.store.resident_bytes()
    }

    pub fn spilled_bytes(&self) -> usize {
        self.store.spilled_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aspen_types::SimTime;

    fn t(v: i64) -> Tuple {
        Tuple::new(vec![Value::Int(v)], SimTime::ZERO)
    }

    /// The live `(tuple, multiplicity)` entries under `key`: a probe with
    /// an empty tuple joins to exactly the stored tuple.
    fn entries(s: &KeyedState, key: &[Value]) -> Vec<(Tuple, i64)> {
        let mut out = Vec::new();
        s.probe(key, &Tuple::row(vec![]), true, |t, w| out.push((t, w)));
        out
    }

    fn both_keyed(test: impl Fn(KeyedState)) {
        test(KeyedState::new());
        test(KeyedState::with_options(&StateOptions::columnar()));
    }

    fn both_bags(test: impl Fn(BagState)) {
        test(BagState::new());
        test(BagState::with_options(&StateOptions::columnar()));
    }

    #[test]
    fn multiplicity_tracking() {
        both_keyed(|mut s| {
            let k = vec![Value::Int(1)];
            assert_eq!(s.update(&k, &t(10), 1), 1);
            assert_eq!(s.update(&k, &t(10), 1), 2);
            assert_eq!(entries(&s, &k), vec![(t(10), 2)]);
            assert_eq!(s.update(&k, &t(10), -1), 1);
            assert_eq!(s.len(), 1);
            assert_eq!(s.update(&k, &t(10), -1), 0);
            assert!(s.is_empty());
            assert_eq!(entries(&s, &k).len(), 0);
        });
    }

    #[test]
    fn separate_keys_are_independent() {
        both_keyed(|mut s| {
            s.update(&[Value::Int(1)], &t(10), 1);
            s.update(&[Value::Int(2)], &t(20), 1);
            assert_eq!(s.key_count(), 2);
            assert_eq!(s.len(), 2);
            assert_eq!(entries(&s, &[Value::Int(1)]), vec![(t(10), 1)]);
            assert_eq!(entries(&s, &[Value::Int(2)]), vec![(t(20), 1)]);
            assert_eq!(entries(&s, &[Value::Int(3)]).len(), 0);
            // Emptied keys still count as seen.
            s.update(&[Value::Int(2)], &t(20), -1);
            assert_eq!(s.key_count(), 2);
        });
    }

    #[test]
    fn bag_state_batch_apply_and_snapshot() {
        both_bags(|mut b| {
            b.insert_all(&[t(1), t(2), t(2)]);
            assert_eq!(b.distinct(), 2);
            assert_eq!(b.snapshot().len(), 3);
            let batch: DeltaBatch = vec![Delta::retract(t(2)), Delta::insert(t(3))].into();
            b.apply(&batch);
            let snap = b.snapshot();
            assert_eq!(snap.len(), 3);
            // Arrival order: the surviving tuples keep their positions.
            assert_eq!(snap[0], t(1));
            assert_eq!(snap[2], t(3));
            b.apply(&DeltaBatch::from(vec![
                Delta::retract(t(1)),
                Delta::retract(t(2)),
                Delta::retract(t(3)),
            ]));
            assert!(b.is_empty());
        });
    }

    #[test]
    fn bag_state_replays_duplicates_at_their_own_positions() {
        // Regression: grouping duplicates at their first arrival position
        // made a late-registered `ROWS 2` query over [7, 1, 7, 2] retain
        // [1, 2] where a live one retained [7, 2].
        both_bags(|mut b| {
            b.insert_all(&[t(7), t(1), t(7), t(2)]);
            assert_eq!(b.snapshot(), vec![t(7), t(1), t(7), t(2)]);
            assert_eq!(b.distinct(), 3);
            // A retraction removes the OLDEST occurrence: the later 7
            // stays at its own (third) position.
            b.apply(&DeltaBatch::from(vec![Delta::retract(t(7))]));
            assert_eq!(b.snapshot(), vec![t(1), t(7), t(2)]);
            assert_eq!(b.distinct(), 3);
        });
    }

    #[test]
    fn bag_state_over_retraction_heals() {
        both_bags(|mut b| {
            b.apply(&DeltaBatch::from(vec![Delta::retract(t(5))]));
            assert!(b.is_empty());
            // The first insertion cancels the debt instead of going live...
            b.apply(&DeltaBatch::from(vec![Delta::insert(t(5))]));
            assert!(b.snapshot().is_empty());
            // ...and the next one is a genuinely new arrival.
            b.apply(&DeltaBatch::from(vec![Delta::insert(t(5))]));
            assert_eq!(b.snapshot(), vec![t(5)]);
        });
    }

    #[test]
    fn negative_multiplicity_is_representable() {
        // Retraction arriving before its insertion (out-of-order deltas)
        // must not panic; the multiset goes negative and heals later.
        both_keyed(|mut s| {
            let k = vec![Value::Int(1)];
            assert_eq!(s.update(&k, &t(5), -1), -1);
            assert_eq!(entries(&s, &k), vec![(t(5), -1)], "probes see debts");
            assert_eq!(s.update(&k, &t(5), 1), 0);
            assert_eq!(entries(&s, &k).len(), 0);
        });
    }

    #[test]
    fn retract_before_insert_does_not_drift_live_count() {
        // Regression: the old saturating `live` accounting subtracted
        // nothing on the early retract, then counted the healing insert
        // as a net new tuple — `len()` over-reported forever after.
        both_keyed(|mut s| {
            let k = vec![Value::Int(1)];
            s.update(&k, &t(5), -1);
            assert_eq!(s.len(), 0, "negative entries are not live");
            s.update(&k, &t(5), 1);
            assert_eq!(s.len(), 0, "healing insert must not inflate len");
            assert!(s.is_empty());
            // The state still works normally afterwards.
            s.update(&k, &t(5), 1);
            assert_eq!(s.len(), 1);
            s.update(&k, &t(5), -1);
            assert_eq!(s.len(), 0);
        });
    }

    #[test]
    fn columnar_keyed_matches_preserve_exact_values() {
        let mut s = KeyedState::with_options(&StateOptions::columnar());
        let key = vec![Value::Int(1)];
        let nan = Tuple::new(vec![Value::Float(f64::NAN)], SimTime::from_secs(3));
        let int3 = Tuple::new(vec![Value::Int(3)], SimTime::from_secs(3));
        let float3 = Tuple::new(vec![Value::Float(3.0)], SimTime::from_secs(3));
        let zero = Tuple::new(vec![Value::Float(0.0)], SimTime::from_secs(3));
        let neg_zero = Tuple::new(vec![Value::Float(-0.0)], SimTime::from_secs(3));
        for tuple in [&nan, &int3, &float3, &zero, &neg_zero] {
            s.update(&key, tuple, 1);
        }
        // Int(3) and Float(3.0) stay distinct, as do 0.0 and -0.0; the
        // probe returns exact values in arrival order.
        let got: Vec<Tuple> = entries(&s, &key).into_iter().map(|(t, _)| t).collect();
        assert_eq!(got.len(), 5);
        assert!(matches!(got[0].get(0), Value::Float(f) if f.is_nan()));
        assert_eq!(&got[1..], &[int3, float3, zero.clone(), neg_zero]);
        // NaN round-trips and matches itself on retraction; -0.0 does not
        // retract 0.0.
        assert_eq!(s.update(&key, &nan, -1), 0);
        assert_eq!(s.len(), 4);
        let minus = Tuple::new(vec![Value::Float(-0.0)], SimTime::from_secs(3));
        assert_eq!(s.update(&key, &minus, -1), 0);
        assert_eq!(entries(&s, &key).last().map(|(t, _)| t), Some(&zero));
        // A NaN key finds its own bucket; a Float key never matches Int.
        s.update(&[Value::Float(f64::NAN)], &int3_at(4), 1);
        assert_eq!(entries(&s, &[Value::Float(f64::NAN)]).len(), 1);
        assert_eq!(entries(&s, &[Value::Float(1.0)]).len(), 0);
        assert_eq!(entries(&s, &[Value::Int(1)]).len(), 3);
    }

    fn int3_at(secs: u64) -> Tuple {
        Tuple::new(vec![Value::Int(3)], SimTime::from_secs(secs))
    }

    #[test]
    fn probe_builds_joined_tuples_on_either_side() {
        both_keyed(|mut s| {
            let k = vec![Value::Text("room".into())];
            let stored = Tuple::new(
                vec![Value::Text("room".into()), Value::Int(7)],
                SimTime::from_secs(5),
            );
            s.update(&k, &stored, 2);
            let early = Tuple::new(vec![Value::Float(1.5)], SimTime::from_secs(2));
            let late = Tuple::new(vec![Value::Float(2.5)], SimTime::from_secs(9));
            let mut got = Vec::new();
            s.probe(&k, &early, true, |t, w| got.push((t, w)));
            s.probe(&k, &late, false, |t, w| got.push((t, w)));
            s.probe(&[Value::Text("hall".into())], &late, true, |t, w| {
                got.push((t, w))
            });
            let want = vec![(early.join(&stored), 2), (stored.join(&late), 2)];
            assert_eq!(got, want);
            assert_eq!(got[0].0.timestamp(), SimTime::from_secs(5));
            assert_eq!(got[1].0.timestamp(), SimTime::from_secs(9));
        });
    }

    #[test]
    fn columnar_state_measures_fewer_bytes_than_row_estimate() {
        let mut row = KeyedState::new();
        let mut col = KeyedState::with_options(&StateOptions::columnar());
        for i in 0..2000i64 {
            let tuple = Tuple::new(
                vec![
                    Value::Int(i),
                    Value::Float(i as f64),
                    Value::Text(format!("z{}", i % 5)),
                ],
                SimTime::from_secs(i as u64),
            );
            row.update(&[Value::Int(i % 16)], &tuple, 1);
            col.update(&[Value::Int(i % 16)], &tuple, 1);
        }
        assert_eq!(row.len(), col.len());
        assert!(
            col.state_bytes() * 2 <= row.state_bytes(),
            "columnar {} vs row {}",
            col.state_bytes(),
            row.state_bytes()
        );
    }

    /// Test-only reference for keyed state: a `HashMap` multiset per key,
    /// plus each live entry's creation sequence for the arrival order.
    #[derive(Default)]
    struct Oracle {
        keys: HashMap<Vec<Value>, OracleKey>,
        next_seq: u64,
        live: usize,
    }

    #[derive(Default)]
    struct OracleKey {
        seq_of: HashMap<Tuple, u64>,
        by_seq: std::collections::BTreeMap<u64, (Tuple, i64)>,
    }

    impl Oracle {
        fn update(&mut self, key: &[Value], tuple: &Tuple, sign: i64) -> i64 {
            let k = self.keys.entry(key.to_vec()).or_default();
            let seq = *k.seq_of.entry(tuple.clone()).or_insert_with(|| {
                self.next_seq += 1;
                self.next_seq
            });
            let old = k.by_seq.get(&seq).map_or(0, |e| e.1);
            let now = old + sign;
            self.live = (self.live as i64 + now.max(0) - old.max(0)) as usize;
            if now == 0 {
                k.seq_of.remove(tuple);
                k.by_seq.remove(&seq);
            } else {
                k.by_seq.insert(seq, (tuple.clone(), now));
            }
            now
        }

        fn entries(&self, key: &[Value]) -> Vec<(Tuple, i64)> {
            self.keys[key].by_seq.values().cloned().collect()
        }
    }

    /// Skewed-key churn against the oracle. After every step: the
    /// returned multiplicity, `len`, `key_count`, and the rows the update
    /// read. Every `probe_every` steps, and for every key at the end: the
    /// touched key's probe (values, multiplicities, arrival order) and its
    /// work. Work is counted, not timed: an update reads at most the rows
    /// whose entry tag equals its own (1 unless 64-bit tags collide), a
    /// probe reads exactly its key's live rows and decodes each spilled
    /// segment at most once. Probing every step would cost O(steps × key
    /// size) unoptimized; the per-step checks already pin the state.
    fn skewed_churn(
        keys: &[Vec<Value>],
        steps: usize,
        probe_every: usize,
        spill: Option<SpillConfig>,
        seed: u64,
    ) {
        use rand::Rng;
        let mut rng = aspen_types::rng::seeded(seed);
        let mut s = ColumnarKeyedState::new(spill.clone());
        let mut oracle = Oracle::default();
        let pool = (steps / 4).max(8);
        let specials = [f64::NAN, -0.0, 0.0, 1.5];
        let mut decodes = 0;
        for step in 0..steps {
            let key = &keys[rng.gen_range(0..keys.len())];
            let i = rng.gen_range(0..pool) as i64;
            // Int-vs-Float twins and NaN / ±0.0 cells; ts repeats too.
            let id = if i % 2 == 0 {
                Value::Int(i / 2)
            } else {
                Value::Float((i / 2) as f64)
            };
            let tuple = Tuple::new(
                vec![
                    id,
                    Value::Float(specials[i as usize % 4]),
                    Value::Text(format!("desk-{}", i % 7)),
                ],
                SimTime::from_secs((i % 5) as u64),
            );
            // Retractions pick random pool tuples, so some arrive before
            // their insertion and drive the entry negative.
            let sign = match rng.gen_range(0..10) {
                0..=5 => 1,
                6 => 2,
                _ => -1,
            };
            let tag = hash_of(&(
                key.as_slice(),
                tuple.values(),
                tuple.timestamp().as_micros(),
            ));
            let same_tag = s
                .index
                .get(&hash_of(&key.as_slice()))
                .map_or(0, |b| b.iter().filter(|e| e.0 == tag).count());
            let before = s.store.read_stats();
            let got = s.update(key, &tuple, sign);
            let read = s.store.read_stats().rows - before.rows;
            assert_eq!(got, oracle.update(key, &tuple, sign), "step {step}");
            assert!(
                read as usize <= same_tag,
                "step {step}: update read {read} rows"
            );
            assert_eq!(s.live, oracle.live, "step {step}: len");
            assert_eq!(s.index.len(), oracle.keys.len(), "step {step}: key_count");
            if step % probe_every == 0 {
                decodes += check_probe(&s, &oracle, key);
            }
        }
        for key in keys {
            decodes += check_probe(&s, &oracle, key);
        }
        assert!(s.live > steps / 8, "churn left only {} live", s.live);
        if spill.is_some() {
            assert!(decodes > 0, "probes never read a spilled segment");
        }
    }

    /// Probe `key` against the oracle and check the probe's work; returns
    /// the spilled segments it decoded.
    fn check_probe(s: &ColumnarKeyedState, oracle: &Oracle, key: &[Value]) -> u64 {
        let want = oracle.entries(key);
        let rows = s.index[&hash_of(&key)].iter().map(|e| e.1);
        let segments: std::collections::HashSet<u64> =
            rows.map(|r| r / SEGMENT_ROWS as u64).collect();
        let before = s.store.read_stats();
        let mut got = Vec::new();
        s.probe(key, &Tuple::row(vec![]), true, |t, w| got.push((t, w)));
        let after = s.store.read_stats();
        assert_eq!(got, want, "probe of {key:?}");
        assert_eq!(after.rows - before.rows, want.len() as u64, "rows read");
        let decodes = after.segment_decodes - before.segment_decodes;
        assert!(decodes <= segments.len() as u64, "{decodes} decodes");
        decodes
    }

    #[test]
    fn skewed_key_churn_matches_oracle_one_hot_key() {
        skewed_churn(&[vec![Value::Text("room-0".into())]], 5_000, 4, None, 13);
    }

    #[test]
    fn skewed_key_churn_matches_oracle_ten_keys() {
        let keys: Vec<Vec<Value>> = [
            Value::Int(0),
            Value::Float(0.0),
            Value::Float(-0.0),
            Value::Float(f64::NAN),
            Value::Int(3),
            Value::Float(3.0),
            Value::Null,
            Value::Bool(true),
            Value::Text("lab-1".into()),
            Value::Text("lab-2".into()),
        ]
        .into_iter()
        .map(|v| vec![v, Value::Int(1)])
        .collect();
        skewed_churn(&keys, 20_000, 16, None, 17);
    }

    #[test]
    fn skewed_key_churn_matches_oracle_with_spill() {
        let dir = std::env::temp_dir().join(format!("aspen-keyed-spill-{}", std::process::id()));
        let spill = SpillConfig::new(4 * 1024, &dir);
        skewed_churn(
            &[vec![Value::Text("room-0".into())]],
            5_000,
            8,
            Some(spill),
            19,
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn columnar_bag_spills_and_snapshots_identically() {
        let dir = std::env::temp_dir().join(format!("aspen-bag-spill-{}", std::process::id()));
        let mut plain = BagState::with_options(&StateOptions::columnar());
        let mut spilly = BagState::with_options(&StateOptions {
            layout: StateLayout::Columnar,
            spill: Some(SpillConfig::new(0, &dir)),
        });
        for i in 0..3000i64 {
            plain.insert_all(&[t(i % 100)]);
            spilly.insert_all(&[t(i % 100)]);
        }
        assert!(spilly.spilled_bytes() > 0, "cold segments must spill");
        assert_eq!(plain.snapshot(), spilly.snapshot());
        assert_eq!(plain.distinct(), spilly.distinct());
        // Retraction still removes the oldest occurrence through the
        // spill tier.
        spilly.apply(&DeltaBatch::from(vec![Delta::retract(t(0))]));
        plain.apply(&DeltaBatch::from(vec![Delta::retract(t(0))]));
        assert_eq!(plain.snapshot(), spilly.snapshot());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
