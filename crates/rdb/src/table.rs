//! In-memory table storage with secondary hash and ordered indexes.

use crate::ast::ColumnDef;
use crate::error::{DbError, Result};
use crate::stats::TableStatistics;
use crate::storage::StorageBackend;
use crate::value::{OrdValue, Row, Value};
use std::collections::{BTreeMap, HashMap};
use std::ops::Bound;
use std::sync::Arc;

/// Schema of one table.
#[derive(Debug, Clone, PartialEq)]
pub struct TableSchema {
    /// Table name as created.
    pub name: String,
    /// Column definitions in order.
    pub columns: Vec<ColumnDef>,
}

impl TableSchema {
    /// Index of a column by case-insensitive name.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns
            .iter()
            .position(|c| c.name.eq_ignore_ascii_case(name))
    }

    /// Column names in order.
    pub fn column_names(&self) -> Vec<String> {
        self.columns.iter().map(|c| c.name.clone()).collect()
    }
}

/// One undo-style version record retained for MVCC snapshot reads:
/// "before `epoch` committed, slot `pos` held `prior`" (`None` = the slot
/// did not hold a live row). Entries are appended in mutation order, so
/// epochs are non-decreasing and the *first* matching entry for a slot is
/// the oldest — the one a snapshot reconstructs from.
#[derive(Debug, Clone)]
pub(crate) struct VersionEntry {
    /// Epoch the mutation commits under (`committed + 1` at write time).
    pub epoch: u64,
    /// Slot position the mutation touched.
    pub pos: usize,
    /// The slot's content immediately before the mutation.
    pub prior: Option<Row>,
}

/// Write-through attachment to a persistent storage backend: every slot
/// mutation of the owning table is mirrored into `store` under `key`.
/// Forward DML, rollback undo, and WAL replay all funnel through the
/// same six slot mutations, so the backend tracks the heap exactly.
#[derive(Debug, Clone)]
pub(crate) struct Backing {
    store: Arc<dyn StorageBackend>,
    key: String,
}

/// A heap of rows with optional hash indexes on single columns.
///
/// Rows live in slots (`Vec<Option<Row>>`); deletion tombstones the slot so
/// that row positions remain stable during statement execution. Indexes are
/// maintained eagerly on insert/delete/update.
///
/// `PartialEq` compares the full physical state — slot vector (including
/// tombstones), live count, and index bucket contents *in order* — which
/// is exactly the "byte-identical" equality the transaction layer's
/// exact undo restores (see `crate::txn`). The MVCC version history is
/// deliberately excluded: it is read-side reconstruction state, not part
/// of the committed physical image.
#[derive(Debug, Clone)]
pub struct Table {
    /// The table's schema.
    pub schema: TableSchema,
    slots: Vec<Option<Row>>,
    live: usize,
    /// column index → (value → slot positions)
    indexes: HashMap<usize, HashMap<Value, Vec<usize>>>,
    /// Ordered secondary indexes: column index → (key → slot positions).
    /// In-bucket positions are kept **sorted ascending** as an invariant
    /// — inserts append at the max position, undo splices by binary
    /// search — so the structure is a pure function of the slot vector
    /// and needs no undo offsets of its own.
    ordered: HashMap<usize, BTreeMap<OrdValue, Vec<usize>>>,
    /// `ANALYZE`-built planner statistics; counters are maintained by
    /// the slot mutations below, shape is frozen until the next analyze
    /// (see `crate::stats`).
    stats: Option<TableStatistics>,
    /// Version records for snapshot visibility (empty unless the owning
    /// database has MVCC enabled; see `crate::mvcc`).
    history: Vec<VersionEntry>,
    /// Persistent-backend mirror; `None` on the in-memory backend.
    /// Excluded from `PartialEq` (it is plumbing, not table state).
    backing: Option<Backing>,
}

impl PartialEq for Table {
    fn eq(&self, other: &Self) -> bool {
        self.schema == other.schema
            && self.slots == other.slots
            && self.live == other.live
            && self.indexes == other.indexes
            && self.ordered == other.ordered
            && self.stats == other.stats
    }
}

/// Splice `pos` into a sorted position bucket.
fn bucket_insert(bucket: &mut Vec<usize>, pos: usize) {
    let at = bucket.partition_point(|&p| p < pos);
    bucket.insert(at, pos);
}

/// Remove `pos` from the bucket under `key`, dropping the bucket when it
/// empties (ordered-index buckets never linger empty, so the map stays a
/// pure function of the slot vector).
fn ordered_remove(map: &mut BTreeMap<OrdValue, Vec<usize>>, key: &Value, pos: usize) {
    let k = OrdValue(key.clone());
    if let Some(bucket) = map.get_mut(&k) {
        if let Ok(at) = bucket.binary_search(&pos) {
            bucket.remove(at);
        }
        if bucket.is_empty() {
            map.remove(&k);
        }
    }
}

impl Table {
    /// Create an empty table.
    pub fn new(schema: TableSchema) -> Self {
        Table {
            schema,
            slots: Vec::new(),
            live: 0,
            indexes: HashMap::new(),
            ordered: HashMap::new(),
            stats: None,
            history: Vec::new(),
            backing: None,
        }
    }

    // ------------------------------------------------------------------
    // storage-backend mirroring (see `crate::storage`)
    // ------------------------------------------------------------------

    /// Attach a persistent backend: from now on every slot mutation is
    /// mirrored into `store` under `key`.
    pub(crate) fn attach_backing(&mut self, store: Arc<dyn StorageBackend>, key: &str) {
        self.backing = Some(Backing {
            store,
            key: key.to_string(),
        });
    }

    /// Mirror the current content of slot `pos` into the backend (no-op
    /// when unattached or the slot is a tombstone).
    fn mirror_slot(&self, pos: usize) {
        if let Some(b) = &self.backing {
            if let Some(row) = self.slots.get(pos).and_then(Option::as_ref) {
                b.store.put_row(&b.key, pos as u64, row);
            }
        }
    }

    /// Mirror the deletion of slot `pos` into the backend.
    fn mirror_delete(&self, pos: usize) {
        if let Some(b) = &self.backing {
            b.store.delete_row(&b.key, pos as u64);
        }
    }

    /// Number of live rows.
    pub fn len(&self) -> usize {
        self.live
    }

    /// `true` when no live rows remain.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.schema.columns.len()
    }

    /// Add a hash index on `column` (no-op if one exists).
    pub fn create_index(&mut self, column: &str) -> Result<()> {
        let ci = self
            .schema
            .column_index(column)
            .ok_or_else(|| DbError::NoSuchColumn(format!("{}.{column}", self.schema.name)))?;
        if self.indexes.contains_key(&ci) {
            return Ok(());
        }
        let mut map: HashMap<Value, Vec<usize>> = HashMap::new();
        for (pos, slot) in self.slots.iter().enumerate() {
            if let Some(row) = slot {
                map.entry(row[ci].clone()).or_default().push(pos);
            }
        }
        self.indexes.insert(ci, map);
        Ok(())
    }

    /// Whether `column` has a hash index.
    pub fn has_index(&self, column_idx: usize) -> bool {
        self.indexes.contains_key(&column_idx)
    }

    /// Add an ordered index on `column` (no-op if one exists). Positions
    /// are pushed in slot order, establishing the sorted-bucket invariant.
    pub fn create_ordered_index(&mut self, column: &str) -> Result<()> {
        let ci = self
            .schema
            .column_index(column)
            .ok_or_else(|| DbError::NoSuchColumn(format!("{}.{column}", self.schema.name)))?;
        if self.ordered.contains_key(&ci) {
            return Ok(());
        }
        let mut map: BTreeMap<OrdValue, Vec<usize>> = BTreeMap::new();
        for (pos, slot) in self.slots.iter().enumerate() {
            if let Some(row) = slot {
                map.entry(OrdValue(row[ci].clone())).or_default().push(pos);
            }
        }
        self.ordered.insert(ci, map);
        Ok(())
    }

    /// Whether `column` has an ordered index.
    pub fn has_ordered_index(&self, column_idx: usize) -> bool {
        self.ordered.contains_key(&column_idx)
    }

    /// Columns carrying an ordered index, ascending.
    pub fn ordered_columns(&self) -> Vec<usize> {
        let mut cols: Vec<usize> = self.ordered.keys().copied().collect();
        cols.sort_unstable();
        cols
    }

    /// The table's `ANALYZE` statistics, if built.
    pub fn statistics(&self) -> Option<&TableStatistics> {
        self.stats.as_ref()
    }

    /// Install (or clear) statistics wholesale — the rollback path of
    /// `ANALYZE` and snapshot restore.
    pub(crate) fn set_statistics(&mut self, stats: Option<TableStatistics>) {
        self.stats = stats;
    }

    /// Rebuild statistics from a full scan of the live rows (the
    /// `ANALYZE` forward path). Returns the previous statistics so the
    /// transaction layer can restore them on rollback.
    pub(crate) fn analyze(&mut self) -> Option<TableStatistics> {
        let new =
            TableStatistics::build(self.slots.iter().filter_map(Option::as_ref), self.arity());
        self.stats.replace(new)
    }

    /// Insert a row (arity must match). Returns its slot position.
    pub fn insert(&mut self, row: Row) -> Result<usize> {
        if row.len() != self.arity() {
            return Err(DbError::Schema(format!(
                "insert into {}: {} values for {} columns",
                self.schema.name,
                row.len(),
                self.arity()
            )));
        }
        let pos = self.slots.len();
        for (ci, idx) in self.indexes.iter_mut() {
            idx.entry(row[*ci].clone()).or_default().push(pos);
        }
        for (ci, idx) in self.ordered.iter_mut() {
            // `pos` is the new maximum, so a push keeps buckets sorted.
            idx.entry(OrdValue(row[*ci].clone())).or_default().push(pos);
        }
        if let Some(s) = &mut self.stats {
            s.note_insert(&row);
        }
        if let Some(b) = &self.backing {
            b.store.put_row(&b.key, pos as u64, &row);
        }
        self.slots.push(Some(row));
        self.live += 1;
        Ok(pos)
    }

    /// Row at a slot position, if live.
    pub fn row(&self, pos: usize) -> Option<&Row> {
        self.slots.get(pos).and_then(Option::as_ref)
    }

    /// Delete the row at `pos`, returning it.
    pub fn delete(&mut self, pos: usize) -> Option<Row> {
        let row = self.slots.get_mut(pos)?.take()?;
        self.live -= 1;
        for (ci, idx) in self.indexes.iter_mut() {
            if let Some(v) = idx.get_mut(&row[*ci]) {
                v.retain(|&p| p != pos);
                if v.is_empty() {
                    idx.remove(&row[*ci]);
                }
            }
        }
        for (ci, idx) in self.ordered.iter_mut() {
            ordered_remove(idx, &row[*ci], pos);
        }
        if let Some(s) = &mut self.stats {
            s.note_delete(&row);
        }
        self.mirror_delete(pos);
        Some(row)
    }

    /// Overwrite one column of the row at `pos`.
    pub fn update_cell(&mut self, pos: usize, column_idx: usize, value: Value) -> Result<()> {
        let row = self
            .slots
            .get_mut(pos)
            .and_then(Option::as_mut)
            .ok_or_else(|| DbError::Execution(format!("no live row at slot {pos}")))?;
        let old = std::mem::replace(&mut row[column_idx], value.clone());
        if let Some(idx) = self.indexes.get_mut(&column_idx) {
            if let Some(v) = idx.get_mut(&old) {
                v.retain(|&p| p != pos);
                if v.is_empty() {
                    idx.remove(&old);
                }
            }
            idx.entry(value.clone()).or_default().push(pos);
        }
        if let Some(idx) = self.ordered.get_mut(&column_idx) {
            ordered_remove(idx, &old, pos);
            bucket_insert(idx.entry(OrdValue(value.clone())).or_default(), pos);
        }
        if let Some(s) = &mut self.stats {
            s.note_update(column_idx, &old, &value);
        }
        self.mirror_slot(pos);
        Ok(())
    }

    // ------------------------------------------------------------------
    // undo support (see `crate::txn`)
    //
    // The engine records enough from each forward mutation to restore the
    // table *exactly*: inserts are undone while they are still the last
    // slot (rollback applies records newest-first), and delete/update
    // undo re-inserts the slot position at its recorded offset inside
    // each index bucket, reproducing bucket ordering.
    // ------------------------------------------------------------------

    /// Delete the row at `pos` like [`Table::delete`], additionally
    /// returning the `(column, offset)` of the slot in each index bucket
    /// it is removed from, so [`Table::restore_row`] can splice it back
    /// in place.
    pub(crate) fn delete_with_undo(&mut self, pos: usize) -> Option<(Row, Vec<(usize, usize)>)> {
        {
            let row = self.slots.get(pos)?.as_ref()?;
            let mut offsets = Vec::new();
            for (ci, idx) in self.indexes.iter() {
                if let Some(off) = idx
                    .get(&row[*ci])
                    .and_then(|v| v.iter().position(|&p| p == pos))
                {
                    offsets.push((*ci, off));
                }
            }
            let row = self.delete(pos)?;
            Some((row, offsets))
        }
    }

    /// Undo a delete: put `row` back at `pos` and re-insert the slot at
    /// its recorded offset in each index bucket.
    pub(crate) fn restore_row(&mut self, pos: usize, row: Row, offsets: &[(usize, usize)]) {
        for &(ci, off) in offsets {
            if let Some(idx) = self.indexes.get_mut(&ci) {
                let bucket = idx.entry(row[ci].clone()).or_default();
                bucket.insert(off.min(bucket.len()), pos);
            }
        }
        for (ci, idx) in self.ordered.iter_mut() {
            // Sorted buckets need no recorded offset: splice by position.
            bucket_insert(idx.entry(OrdValue(row[*ci].clone())).or_default(), pos);
        }
        if let Some(s) = &mut self.stats {
            s.note_insert(&row);
        }
        if let Some(slot) = self.slots.get_mut(pos) {
            if slot.replace(row).is_none() {
                self.live += 1;
            }
        }
        self.mirror_slot(pos);
    }

    /// Overwrite a cell like [`Table::update_cell`], additionally
    /// returning the previous value and, when the column is indexed, the
    /// slot's offset in the old value's bucket.
    pub(crate) fn update_cell_with_undo(
        &mut self,
        pos: usize,
        column_idx: usize,
        value: Value,
    ) -> Result<(Value, Option<usize>)> {
        let old = self
            .row(pos)
            .and_then(|r| r.get(column_idx))
            .cloned()
            .ok_or_else(|| DbError::Execution(format!("no live row at slot {pos}")))?;
        let old_offset = self
            .indexes
            .get(&column_idx)
            .and_then(|idx| idx.get(&old))
            .and_then(|v| v.iter().position(|&p| p == pos));
        self.update_cell(pos, column_idx, value)?;
        Ok((old, old_offset))
    }

    /// Undo a cell update: restore `old` and rebuild the index entry at
    /// its recorded bucket offset.
    pub(crate) fn unupdate_cell(
        &mut self,
        pos: usize,
        column_idx: usize,
        old: Value,
        old_offset: Option<usize>,
    ) {
        let row = match self.slots.get_mut(pos).and_then(Option::as_mut) {
            Some(r) => r,
            None => return,
        };
        let current = std::mem::replace(&mut row[column_idx], old.clone());
        if let Some(idx) = self.indexes.get_mut(&column_idx) {
            if let Some(v) = idx.get_mut(&current) {
                v.retain(|&p| p != pos);
                if v.is_empty() {
                    idx.remove(&current);
                }
            }
            if let Some(off) = old_offset {
                let bucket = idx.entry(old.clone()).or_default();
                bucket.insert(off.min(bucket.len()), pos);
            }
        }
        if let Some(idx) = self.ordered.get_mut(&column_idx) {
            ordered_remove(idx, &current, pos);
            bucket_insert(idx.entry(OrdValue(old.clone())).or_default(), pos);
        }
        if let Some(s) = &mut self.stats {
            s.note_update(column_idx, &current, &old);
        }
        self.mirror_slot(pos);
    }

    /// Undo an insert of the row at `pos`. Rollback applies records
    /// newest-first, so any later appends were already undone and `pos`
    /// is the last slot again: popping it restores the slot vector's
    /// original length.
    pub(crate) fn undo_insert(&mut self, pos: usize) {
        if let Some(row) = self.slots.get_mut(pos).and_then(Option::take) {
            self.live -= 1;
            for (ci, idx) in self.indexes.iter_mut() {
                if let Some(v) = idx.get_mut(&row[*ci]) {
                    v.retain(|&p| p != pos);
                    if v.is_empty() {
                        idx.remove(&row[*ci]);
                    }
                }
            }
            for (ci, idx) in self.ordered.iter_mut() {
                ordered_remove(idx, &row[*ci], pos);
            }
            if let Some(s) = &mut self.stats {
                s.note_delete(&row);
            }
            self.mirror_delete(pos);
        }
        debug_assert_eq!(pos + 1, self.slots.len(), "insert undo must be last slot");
        if pos + 1 == self.slots.len() {
            self.slots.pop();
        }
    }

    /// Drop the hash index on `column_idx` (undo of `CREATE INDEX`).
    pub(crate) fn drop_index(&mut self, column_idx: usize) {
        self.indexes.remove(&column_idx);
    }

    /// Drop the ordered index on `column_idx` (undo of `CREATE INDEX ...
    /// USING ORDERED`).
    pub(crate) fn drop_ordered_index(&mut self, column_idx: usize) {
        self.ordered.remove(&column_idx);
    }

    // ------------------------------------------------------------------
    // snapshot support (see `crate::wal`)
    // ------------------------------------------------------------------

    /// The raw slot vector, tombstones included (snapshot serialization).
    pub(crate) fn slots_raw(&self) -> &[Option<Row>] {
        &self.slots
    }

    /// The raw index map (snapshot serialization).
    pub(crate) fn indexes_raw(&self) -> &HashMap<usize, HashMap<Value, Vec<usize>>> {
        &self.indexes
    }

    /// Rebuild a table from snapshot parts. The live count is derived
    /// from the slots; index buckets are installed verbatim so in-bucket
    /// position order survives the round trip.
    pub(crate) fn from_parts(
        schema: TableSchema,
        slots: Vec<Option<Row>>,
        indexes: HashMap<usize, HashMap<Value, Vec<usize>>>,
        ordered_columns: &[usize],
        stats: Option<TableStatistics>,
    ) -> Self {
        let live = slots.iter().filter(|s| s.is_some()).count();
        // Ordered buckets are a pure function of the slots (positions
        // ascending), so only the column list is persisted; rebuild here.
        let mut ordered: HashMap<usize, BTreeMap<OrdValue, Vec<usize>>> = HashMap::new();
        for &ci in ordered_columns {
            let mut map: BTreeMap<OrdValue, Vec<usize>> = BTreeMap::new();
            for (pos, slot) in slots.iter().enumerate() {
                if let Some(row) = slot {
                    map.entry(OrdValue(row[ci].clone())).or_default().push(pos);
                }
            }
            ordered.insert(ci, map);
        }
        Table {
            schema,
            slots,
            live,
            indexes,
            ordered,
            stats,
            history: Vec::new(),
            backing: None,
        }
    }

    /// Slot positions of all live rows.
    pub fn live_positions(&self) -> Vec<usize> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|_| i))
            .collect()
    }

    /// Iterate live rows.
    pub fn rows(&self) -> impl Iterator<Item = &Row> {
        self.slots.iter().filter_map(Option::as_ref)
    }

    /// Iterate live rows with their slot positions. This is the scan
    /// surface the Volcano executor pulls from: rows are borrowed from
    /// the heap, never cloned wholesale into an intermediate relation.
    pub fn iter_live(&self) -> impl Iterator<Item = (usize, &Row)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|r| (i, r)))
    }

    /// Distinct key count of the index on `column_idx` (hash index when
    /// present, else the ordered index); 0 when the column has neither.
    pub(crate) fn index_distinct(&self, column_idx: usize) -> usize {
        if let Some(m) = self.indexes.get(&column_idx) {
            return m.len();
        }
        self.ordered.get(&column_idx).map_or(0, |m| m.len())
    }

    /// Average bucket size of the index on `column_idx`: live rows per
    /// distinct key, rounded up. 0 when the column has no index or the
    /// table is empty.
    pub(crate) fn rows_per_key(&self, column_idx: usize) -> usize {
        match self.index_distinct(column_idx) {
            0 => 0,
            distinct => self.live.div_ceil(distinct),
        }
    }

    /// Index lookup: positions of live rows with `row[column_idx] == key`.
    /// Served by the hash index when present, else by an equality probe
    /// of the ordered index. Returns `None` if the column carries neither.
    pub fn index_lookup(&self, column_idx: usize, key: &Value) -> Option<&[usize]> {
        if let Some(m) = self.indexes.get(&column_idx) {
            return Some(m.get(key).map(Vec::as_slice).unwrap_or(&[]));
        }
        self.ordered.get(&column_idx).map(|m| {
            m.get(&OrdValue(key.clone()))
                .map(Vec::as_slice)
                .unwrap_or(&[])
        })
    }

    /// Build the `BTreeMap::range` bounds for `(value, inclusive)` seek
    /// endpoints. Returns `None` when the bounds are provably empty
    /// (`lower > upper`), which `BTreeMap::range` would panic on.
    fn seek_bounds(
        lower: Option<(&Value, bool)>,
        upper: Option<(&Value, bool)>,
    ) -> Option<(Bound<OrdValue>, Bound<OrdValue>)> {
        if let (Some((lo, lo_incl)), Some((hi, hi_incl))) = (lower, upper) {
            match lo.sort_cmp(hi) {
                std::cmp::Ordering::Greater => return None,
                std::cmp::Ordering::Equal if !(lo_incl && hi_incl) => return None,
                _ => {}
            }
        }
        let as_bound = |b: Option<(&Value, bool)>| match b {
            None => Bound::Unbounded,
            Some((v, true)) => Bound::Included(OrdValue(v.clone())),
            Some((v, false)) => Bound::Excluded(OrdValue(v.clone())),
        };
        Some((as_bound(lower), as_bound(upper)))
    }

    /// Range seek over the ordered index on `column_idx`: slot positions
    /// (ascending) of live rows whose key lies within the bounds under
    /// [`Value::sort_cmp`]'s total order. Bounds are `(value, inclusive)`;
    /// `None` is unbounded. Returns `None` when the column has no ordered
    /// index. Callers re-check the originating predicate per row, so the
    /// seek only needs to be a superset under the total order.
    pub fn range_positions(
        &self,
        column_idx: usize,
        lower: Option<(&Value, bool)>,
        upper: Option<(&Value, bool)>,
    ) -> Option<Vec<usize>> {
        let m = self.ordered.get(&column_idx)?;
        let Some(bounds) = Self::seek_bounds(lower, upper) else {
            return Some(Vec::new());
        };
        let mut out = Vec::new();
        for (_, ps) in m.range(bounds) {
            out.extend_from_slice(ps);
        }
        out.sort_unstable();
        Some(out)
    }

    /// Ordered seek: slot positions in key order (descending when `desc`),
    /// positions ascending within equal keys, optionally bounded like
    /// [`Table::range_positions`]. Returns `None` when the column has no
    /// ordered index. This is the access path that lets the planner elide
    /// an `ORDER BY` sort.
    pub fn ordered_positions(
        &self,
        column_idx: usize,
        desc: bool,
        lower: Option<(&Value, bool)>,
        upper: Option<(&Value, bool)>,
    ) -> Option<Vec<usize>> {
        let m = self.ordered.get(&column_idx)?;
        let Some(bounds) = Self::seek_bounds(lower, upper) else {
            return Some(Vec::new());
        };
        let mut out = Vec::new();
        if desc {
            for (_, ps) in m.range(bounds).rev() {
                out.extend_from_slice(ps);
            }
        } else {
            for (_, ps) in m.range(bounds) {
                out.extend_from_slice(ps);
            }
        }
        Some(out)
    }

    /// Lazy form of [`Table::ordered_positions`]: an iterator over slot
    /// positions in key order. Lets `ORDER BY … LIMIT k` pull only the
    /// first `k` matches instead of materializing every position.
    pub(crate) fn ordered_seek<'t>(
        &'t self,
        column_idx: usize,
        desc: bool,
        lower: Option<(&Value, bool)>,
        upper: Option<(&Value, bool)>,
    ) -> Option<Box<dyn Iterator<Item = usize> + 't>> {
        let m = self.ordered.get(&column_idx)?;
        let Some(bounds) = Self::seek_bounds(lower, upper) else {
            return Some(Box::new(std::iter::empty()));
        };
        let r = m.range(bounds);
        if desc {
            Some(Box::new(r.rev().flat_map(|(_, ps)| ps.iter().copied())))
        } else {
            Some(Box::new(r.flat_map(|(_, ps)| ps.iter().copied())))
        }
    }

    // ------------------------------------------------------------------
    // MVCC version history (see `crate::mvcc`)
    //
    // The engine records the *before* image of every slot a mutation is
    // about to touch, stamped with the epoch the enclosing transaction
    // will commit under. A reader holding snapshot epoch `S` reconstructs
    // each slot from the oldest entry with `epoch > S` (its `prior` is the
    // slot's content when `S` was current); slots with no such entry are
    // unchanged since the snapshot and read straight from the heap.
    // ------------------------------------------------------------------

    /// Record the before-image of `pos` under `epoch` before a mutation.
    /// No-op unless the owning database enabled version retention
    /// (single-threaded databases pay nothing). Repeated writes to one
    /// slot in one transaction are all recorded; only the first matters
    /// for visibility and GC drops them together.
    pub(crate) fn note_version(&mut self, epoch: u64, pos: usize) {
        let prior = self.slots.get(pos).cloned().unwrap_or(None);
        self.history.push(VersionEntry { epoch, pos, prior });
    }

    /// Record a freshly-inserted slot: its before-image is "no row", so
    /// snapshots older than `epoch` must not see it. Called *after* the
    /// insert with the returned position (the prior content of a new
    /// slot is always empty, so nothing needs capturing beforehand).
    pub(crate) fn note_insert(&mut self, epoch: u64, pos: usize) {
        self.history.push(VersionEntry {
            epoch,
            pos,
            prior: None,
        });
    }

    /// Whether any version entry is newer than snapshot `epoch` — i.e.
    /// whether a reader at that snapshot can trust the live heap and its
    /// indexes directly. Entries are appended with non-decreasing epochs,
    /// so only the newest needs checking.
    pub fn changed_since(&self, epoch: u64) -> bool {
        self.history.last().is_some_and(|e| e.epoch > epoch)
    }

    /// Materialize the rows visible at snapshot `epoch`: heap contents
    /// with every newer mutation's before-image layered back on. The
    /// executor only takes this path when [`Table::changed_since`] says
    /// the heap has moved past the snapshot.
    pub(crate) fn rows_visible_at(&self, epoch: u64) -> Vec<Row> {
        let mut overrides: HashMap<usize, &Option<Row>> = HashMap::new();
        for e in &self.history {
            if e.epoch > epoch {
                // First entry per slot wins: the oldest before-image is
                // the slot's content when the snapshot was current.
                overrides.entry(e.pos).or_insert(&e.prior);
            }
        }
        let max_pos = self
            .slots
            .len()
            .max(overrides.keys().map(|p| p + 1).max().unwrap_or(0));
        let mut rows = Vec::new();
        for pos in 0..max_pos {
            let visible = match overrides.get(&pos) {
                Some(prior) => prior.as_ref(),
                None => self.slots.get(pos).and_then(Option::as_ref),
            };
            if let Some(row) = visible {
                rows.push(row.clone());
            }
        }
        rows
    }

    /// Drop version entries no active snapshot can still need: an entry
    /// stamped `epoch` serves snapshots strictly older than it, so once
    /// the oldest active snapshot has reached `min_snapshot >= epoch` the
    /// entry is garbage. Entries of the open (uncommitted) transaction
    /// carry `committed + 1 > min_snapshot` and always survive.
    pub(crate) fn gc_versions(&mut self, min_snapshot: u64) {
        if self
            .history
            .first()
            .is_some_and(|e| e.epoch <= min_snapshot)
        {
            self.history.retain(|e| e.epoch > min_snapshot);
        }
    }

    /// Number of version entries currently retained.
    pub fn versions_retained(&self) -> usize {
        self.history.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::DataType;

    fn schema() -> TableSchema {
        TableSchema {
            name: "t".into(),
            columns: vec![
                ColumnDef {
                    name: "id".into(),
                    ty: DataType::Integer,
                },
                ColumnDef {
                    name: "name".into(),
                    ty: DataType::Text,
                },
            ],
        }
    }

    #[test]
    fn insert_delete_roundtrip() {
        let mut t = Table::new(schema());
        let p = t.insert(vec![Value::Int(1), Value::from("a")]).unwrap();
        assert_eq!(t.len(), 1);
        let row = t.delete(p).unwrap();
        assert_eq!(row[0], Value::Int(1));
        assert_eq!(t.len(), 0);
        assert!(t.delete(p).is_none(), "double delete is a no-op");
    }

    #[test]
    fn arity_checked() {
        let mut t = Table::new(schema());
        assert!(t.insert(vec![Value::Int(1)]).is_err());
    }

    #[test]
    fn index_maintained_on_mutation() {
        let mut t = Table::new(schema());
        t.create_index("id").unwrap();
        let p0 = t.insert(vec![Value::Int(1), Value::from("a")]).unwrap();
        let p1 = t.insert(vec![Value::Int(1), Value::from("b")]).unwrap();
        assert_eq!(t.index_lookup(0, &Value::Int(1)).unwrap(), &[p0, p1]);
        t.delete(p0);
        assert_eq!(t.index_lookup(0, &Value::Int(1)).unwrap(), &[p1]);
        t.update_cell(p1, 0, Value::Int(2)).unwrap();
        assert!(t.index_lookup(0, &Value::Int(1)).unwrap().is_empty());
        assert_eq!(t.index_lookup(0, &Value::Int(2)).unwrap(), &[p1]);
    }

    #[test]
    fn index_built_over_existing_rows() {
        let mut t = Table::new(schema());
        t.insert(vec![Value::Int(7), Value::from("x")]).unwrap();
        t.create_index("id").unwrap();
        assert_eq!(t.index_lookup(0, &Value::Int(7)).unwrap().len(), 1);
        assert_eq!(
            t.index_lookup(1, &Value::from("x")),
            None,
            "name not indexed"
        );
    }

    #[test]
    fn ordered_index_maintained_on_mutation() {
        let mut t = Table::new(schema());
        t.create_ordered_index("id").unwrap();
        let p0 = t.insert(vec![Value::Int(5), Value::from("a")]).unwrap();
        let p1 = t.insert(vec![Value::Int(1), Value::from("b")]).unwrap();
        let p2 = t.insert(vec![Value::Int(9), Value::from("c")]).unwrap();
        let p3 = t.insert(vec![Value::Int(5), Value::from("d")]).unwrap();
        assert_eq!(
            t.ordered_positions(0, false, None, None).unwrap(),
            vec![p1, p0, p3, p2]
        );
        assert_eq!(
            t.ordered_positions(0, true, None, None).unwrap(),
            vec![p2, p0, p3, p1],
            "descending flips key order but keeps in-key position order"
        );
        let lo = Value::Int(2);
        let hi = Value::Int(8);
        assert_eq!(
            t.range_positions(0, Some((&lo, true)), Some((&hi, true)))
                .unwrap(),
            vec![p0, p3]
        );
        t.delete(p0);
        assert_eq!(
            t.range_positions(0, Some((&lo, true)), Some((&hi, true)))
                .unwrap(),
            vec![p3]
        );
        t.update_cell(p3, 0, Value::Int(100)).unwrap();
        assert!(t
            .range_positions(0, Some((&lo, true)), Some((&hi, true)))
            .unwrap()
            .is_empty());
        assert_eq!(
            t.ordered_positions(0, false, None, None).unwrap(),
            vec![p1, p2, p3]
        );
        // Equality probes fall back to the ordered index.
        assert_eq!(t.index_lookup(0, &Value::Int(100)).unwrap(), &[p3]);
    }

    #[test]
    fn inverted_range_is_empty_not_panic() {
        let mut t = Table::new(schema());
        t.create_ordered_index("id").unwrap();
        t.insert(vec![Value::Int(1), Value::from("a")]).unwrap();
        let lo = Value::Int(9);
        let hi = Value::Int(2);
        assert_eq!(
            t.range_positions(0, Some((&lo, true)), Some((&hi, true))),
            Some(Vec::new())
        );
        assert_eq!(
            t.range_positions(0, Some((&hi, false)), Some((&hi, true))),
            Some(Vec::new()),
            "equal bounds with one exclusive end are empty"
        );
    }

    #[test]
    fn rebuilt_ordered_index_matches_maintained_one() {
        let mut a = Table::new(schema());
        a.create_ordered_index("id").unwrap();
        let mut rows = Vec::new();
        for i in 0..20i64 {
            rows.push(vec![Value::Int(i * 7 % 10), Value::from("x")]);
        }
        for r in &rows {
            a.insert(r.clone()).unwrap();
        }
        a.delete(3);
        a.update_cell(5, 0, Value::Int(-1)).unwrap();
        let mut b = Table::from_parts(
            a.schema.clone(),
            a.slots_raw().to_vec(),
            a.indexes_raw().clone(),
            &a.ordered_columns(),
            None,
        );
        b.set_statistics(a.statistics().cloned());
        assert_eq!(a, b, "ordered buckets are a pure function of the slots");
    }

    #[test]
    fn column_lookup_case_insensitive() {
        let s = schema();
        assert_eq!(s.column_index("ID"), Some(0));
        assert_eq!(s.column_index("Name"), Some(1));
        assert_eq!(s.column_index("none"), None);
    }
}
