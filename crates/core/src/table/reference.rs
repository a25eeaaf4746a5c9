//! The B-tree mapping table the slab replaced, kept as a test oracle.
//!
//! It keeps every entry in an id-keyed hash map and files each one in a
//! per-class LRU-ordered B-tree set for eviction and for writeback. The
//! differential test in the parent module drives it and the slab table
//! with the same operations and demands identical answers.

use super::{ClassUsage, Entry, EntryType};
use crate::log::EntryId;
use ibridge_des::fxhash::FxHashMap;
use ibridge_localfs::{ExtentList, FileHandle};
use std::collections::{BTreeMap, BTreeSet};

/// Reference mapping table: same contract as `MappingTable`.
///
/// Besides the id → entry map, three indexes keep every hot query
/// sub-linear: `by_range` (per-file offset order) answers hit and
/// overlap lookups, and two per-class LRU-ordered *eligibility* sets
/// answer eviction and writeback candidate queries in O(log n) — an
/// entry sits in `evictable` when it could be dropped right now
/// (clean, not flushing, not pending), in `dirty_lru` when it could be
/// flushed right now (dirty, not flushing, not pending), and in
/// neither while an admission or writeback is in flight. The sets are
/// keyed by `(lru_seq, id)`, so iteration order *is* LRU order and the
/// picked candidates match what a linear scan over a single LRU list
/// would have found.
#[derive(Debug, Default)]
pub struct MappingTable {
    entries: FxHashMap<EntryId, Entry>,
    by_range: FxHashMap<FileHandle, BTreeMap<u64, EntryId>>,
    evictable: [BTreeSet<(u64, EntryId)>; 2],
    dirty_lru: [BTreeSet<(u64, EntryId)>; 2],
    /// Multiset of the lengths of the entries in each `dirty_lru` set
    /// (len -> count). Its smallest key bounds what any remaining walk
    /// candidate could contribute, letting `dirty_batch` stop scanning
    /// the moment the byte budget drops below it.
    dirty_len_hist: [BTreeMap<u64, u32>; 2],
    usage: [ClassUsage; 2],
    dirty_bytes: u64,
    next_id: EntryId,
    next_seq: u64,
}

/// Drops `e`'s key from the eligibility set its flags filed it in, as
/// [`index`] chose it: none while flushing or pending, `dirty_lru` (and
/// its length multiset) while dirty, `evictable` otherwise. Callers
/// unindex before they change the flags.
fn unindex(
    evictable: &mut [BTreeSet<(u64, EntryId)>; 2],
    dirty_lru: &mut [BTreeSet<(u64, EntryId)>; 2],
    dirty_len_hist: &mut [BTreeMap<u64, u32>; 2],
    e: &Entry,
) {
    if e.flushing || e.pending {
        return;
    }
    let key = (e.lru_seq, e.id);
    let i = e.typ.idx();
    if e.dirty {
        let found = dirty_lru[i].remove(&key);
        debug_assert!(found, "dirty entry {} missing from its set", e.id);
        match dirty_len_hist[i].get_mut(&e.len) {
            Some(n) if *n > 1 => *n -= 1,
            _ => {
                dirty_len_hist[i].remove(&e.len);
            }
        }
    } else {
        let found = evictable[i].remove(&key);
        debug_assert!(found, "clean entry {} missing from its set", e.id);
    }
}

/// Files `e` into the eligibility set its flags call for, if any.
fn index(
    evictable: &mut [BTreeSet<(u64, EntryId)>; 2],
    dirty_lru: &mut [BTreeSet<(u64, EntryId)>; 2],
    dirty_len_hist: &mut [BTreeMap<u64, u32>; 2],
    e: &Entry,
) {
    if e.flushing || e.pending {
        return;
    }
    let key = (e.lru_seq, e.id);
    let i = e.typ.idx();
    if e.dirty {
        dirty_lru[i].insert(key);
        *dirty_len_hist[i].entry(e.len).or_insert(0) += 1;
    } else {
        evictable[i].insert(key);
    }
}

impl MappingTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        MappingTable::default()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Dirty bytes across all entries.
    pub fn dirty_bytes(&self) -> u64 {
        self.dirty_bytes
    }

    /// Usage snapshot of one class.
    pub fn usage(&self, typ: EntryType) -> ClassUsage {
        self.usage[typ.idx()]
    }

    /// Allocates a fresh entry id (the caller reserves log space under
    /// this id before inserting).
    pub fn next_id(&mut self) -> EntryId {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Inserts a new entry.
    ///
    /// # Panics
    ///
    /// Panics if the id is already present or the range overlaps an
    /// existing entry of the same file (overlaps must be resolved by the
    /// caller first).
    #[allow(clippy::too_many_arguments)]
    pub fn insert(
        &mut self,
        id: EntryId,
        file: FileHandle,
        offset: u64,
        len: u64,
        extents: ExtentList,
        typ: EntryType,
        ret: f64,
        dirty: bool,
        pending: bool,
        log_seq: u64,
    ) {
        assert!(len > 0, "empty entry");
        // Call sites resolve overlaps before inserting; a range probe per
        // insert is hot-path cost, so only check in debug builds.
        debug_assert!(
            !self.has_overlap(file, offset, len),
            "inserting over an existing entry"
        );
        self.next_seq += 1;
        let entry = Entry {
            id,
            file,
            offset,
            len,
            extents,
            typ,
            ret,
            dirty,
            flushing: false,
            pending,
            log_seq,
            lru_seq: self.next_seq,
        };
        index(
            &mut self.evictable,
            &mut self.dirty_lru,
            &mut self.dirty_len_hist,
            &entry,
        );
        let u = &mut self.usage[typ.idx()];
        u.bytes += len;
        u.entries += 1;
        u.ret_sum += ret;
        if dirty {
            self.dirty_bytes += len;
        }
        let prev = self.entries.insert(id, entry);
        assert!(prev.is_none(), "duplicate entry id");
        self.by_range.entry(file).or_default().insert(offset, id);
    }

    /// Removes an entry, returning it.
    pub fn remove(&mut self, id: EntryId) -> Option<Entry> {
        let entry = self.entries.remove(&id)?;
        unindex(
            &mut self.evictable,
            &mut self.dirty_lru,
            &mut self.dirty_len_hist,
            &entry,
        );
        let u = &mut self.usage[entry.typ.idx()];
        u.bytes -= entry.len;
        u.entries -= 1;
        u.ret_sum -= entry.ret;
        if entry.dirty {
            self.dirty_bytes -= entry.len;
        }
        if let Some(m) = self.by_range.get_mut(&entry.file) {
            m.remove(&entry.offset);
        }
        Some(entry)
    }

    /// Looks up an entry by id.
    pub fn get(&self, id: EntryId) -> Option<&Entry> {
        self.entries.get(&id)
    }

    /// Marks use for LRU.
    pub fn touch(&mut self, id: EntryId) {
        let Some(entry) = self.entries.get_mut(&id) else {
            return;
        };
        self.next_seq += 1;
        unindex(
            &mut self.evictable,
            &mut self.dirty_lru,
            &mut self.dirty_len_hist,
            entry,
        );
        entry.lru_seq = self.next_seq;
        index(
            &mut self.evictable,
            &mut self.dirty_lru,
            &mut self.dirty_len_hist,
            entry,
        );
    }

    /// Finds the single *servable* (non-pending) entry fully covering
    /// `[offset, offset + len)` of `file`, if any.
    pub fn lookup_covering(&self, file: FileHandle, offset: u64, len: u64) -> Option<&Entry> {
        let m = self.by_range.get(&file)?;
        let (_, &id) = m.range(..=offset).next_back()?;
        let e = self.entries.get(&id).expect("index points at live entry");
        (!e.pending && e.offset <= offset && offset + len <= e.offset + e.len).then_some(e)
    }

    /// True when any entry overlaps `[offset, offset + len)` of `file`.
    /// O(log n), no allocation — the hot-path form of overlap checking.
    pub fn has_overlap(&self, file: FileHandle, offset: u64, len: u64) -> bool {
        let Some(m) = self.by_range.get(&file) else {
            return false;
        };
        if let Some((_, &id)) = m.range(..offset).next_back() {
            let e = &self.entries[&id];
            if e.offset + e.len > offset {
                return true;
            }
        }
        m.range(offset..offset + len).next().is_some()
    }

    /// Appends the ids of all entries overlapping `[offset, offset +
    /// len)` of `file` to `out` (a caller-owned scratch buffer, so
    /// steady-state invalidation allocates nothing).
    pub fn find_overlaps_into(
        &self,
        file: FileHandle,
        offset: u64,
        len: u64,
        out: &mut Vec<EntryId>,
    ) {
        let Some(m) = self.by_range.get(&file) else {
            return;
        };
        if let Some((_, &id)) = m.range(..offset).next_back() {
            let e = &self.entries[&id];
            if e.offset + e.len > offset {
                out.push(id);
            }
        }
        for (_, &id) in m.range(offset..offset + len) {
            out.push(id);
        }
    }

    /// Ids of all entries overlapping `[offset, offset + len)` of `file`.
    pub fn find_overlaps(&self, file: FileHandle, offset: u64, len: u64) -> Vec<EntryId> {
        let mut out = Vec::new();
        self.find_overlaps_into(file, offset, len, &mut out);
        out
    }

    /// The least-recently-used *evictable* entry of a class: not dirty,
    /// not flushing, not pending. O(log n) — the first element of the
    /// class's evictable set is the oldest by construction.
    pub fn lru_victim(&self, typ: EntryType) -> Option<EntryId> {
        self.evictable[typ.idx()].first().map(|&(_, id)| id)
    }

    /// The oldest dirty entries, grouped for writeback. Returns up to
    /// `max_bytes` worth of entry ids **sorted by home location** so the
    /// resulting disk writes are as sequential as possible (the paper's
    /// writeback scheduling). Only flush-eligible entries are visited
    /// (via the per-class dirty sets), and each candidate's sort key is
    /// captured during that walk, so the batch is built with one pass
    /// and one sort — no per-candidate table lookups afterwards.
    pub fn dirty_batch(&self, max_bytes: u64) -> Vec<EntryId> {
        let mut picked: Vec<(FileHandle, u64, EntryId)> = Vec::new();
        let mut budget = max_bytes;
        for (i, dirty) in self.dirty_lru.iter().enumerate() {
            // Once the budget drops below the smallest dirty length of
            // the class, no remaining candidate can be picked — stop
            // instead of scanning the (possibly huge) LRU tail. The
            // histogram minimum covers the whole set, so this prunes
            // exactly the iterations whose `continue` branch would fire.
            let Some((&min_len, _)) = self.dirty_len_hist[i].iter().next() else {
                continue;
            };
            for &(_, id) in dirty.iter() {
                if budget < min_len {
                    break;
                }
                let e = &self.entries[&id];
                debug_assert!(e.dirty && !e.flushing && !e.pending);
                if e.len > budget {
                    continue;
                }
                budget -= e.len;
                picked.push((e.file, e.offset, id));
            }
        }
        // Offsets are unique per file (overlapping inserts are refused),
        // so the unstable sort is deterministic.
        picked.sort_unstable();
        picked.into_iter().map(|(_, _, id)| id).collect()
    }

    /// Sets the flushing flag.
    pub fn set_flushing(&mut self, id: EntryId, flushing: bool) {
        if let Some(e) = self.entries.get_mut(&id) {
            unindex(
                &mut self.evictable,
                &mut self.dirty_lru,
                &mut self.dirty_len_hist,
                e,
            );
            e.flushing = flushing;
            index(
                &mut self.evictable,
                &mut self.dirty_lru,
                &mut self.dirty_len_hist,
                e,
            );
        }
    }

    /// Marks an entry clean (writeback finished).
    pub fn mark_clean(&mut self, id: EntryId) {
        if let Some(e) = self.entries.get_mut(&id) {
            unindex(
                &mut self.evictable,
                &mut self.dirty_lru,
                &mut self.dirty_len_hist,
                e,
            );
            if e.dirty {
                e.dirty = false;
                self.dirty_bytes -= e.len;
            }
            e.flushing = false;
            index(
                &mut self.evictable,
                &mut self.dirty_lru,
                &mut self.dirty_len_hist,
                e,
            );
        }
    }

    /// Clears the pending flag (admission write finished).
    pub fn activate(&mut self, id: EntryId) {
        if let Some(e) = self.entries.get_mut(&id) {
            unindex(
                &mut self.evictable,
                &mut self.dirty_lru,
                &mut self.dirty_len_hist,
                e,
            );
            e.pending = false;
            index(
                &mut self.evictable,
                &mut self.dirty_lru,
                &mut self.dirty_len_hist,
                e,
            );
        }
    }

    /// Cross-checks every derived structure against the entry map: the
    /// per-class usage and dirty-byte accounting, the `by_range` index,
    /// and the LRU eligibility sets (each entry in exactly the set its
    /// flags call for, and no stale keys left behind). Used by the
    /// online invariant auditor; returns a diagnostic on the first
    /// violation found.
    pub fn audit(&self) -> Result<(), String> {
        let mut usage = [ClassUsage::default(); 2];
        let mut dirty_bytes = 0u64;
        let mut want_evictable = [0usize; 2];
        let mut want_dirty_lru = [0usize; 2];
        for (&id, e) in &self.entries {
            if id != e.id {
                return Err(format!("entry keyed {id} carries id {}", e.id));
            }
            let u = &mut usage[e.typ.idx()];
            u.bytes += e.len;
            u.entries += 1;
            u.ret_sum += e.ret;
            if e.dirty {
                dirty_bytes += e.len;
            }
            if self
                .by_range
                .get(&e.file)
                .and_then(|m| m.get(&e.offset))
                .copied()
                != Some(id)
            {
                return Err(format!(
                    "entry {id} ({:?} @{}) missing from the by_range index",
                    e.file, e.offset
                ));
            }
            let key = (e.lru_seq, id);
            let i = e.typ.idx();
            let (want_ev, want_dl) = if e.flushing || e.pending {
                (false, false)
            } else if e.dirty {
                (false, true)
            } else {
                (true, false)
            };
            if self.evictable[i].contains(&key) != want_ev
                || self.dirty_lru[i].contains(&key) != want_dl
            {
                return Err(format!(
                    "entry {id} (dirty={} flushing={} pending={}) misfiled in the LRU sets",
                    e.dirty, e.flushing, e.pending
                ));
            }
            want_evictable[i] += usize::from(want_ev);
            want_dirty_lru[i] += usize::from(want_dl);
        }
        for i in 0..2 {
            if self.evictable[i].len() != want_evictable[i] {
                return Err(format!(
                    "class {i} evictable set holds {} keys, expected {}",
                    self.evictable[i].len(),
                    want_evictable[i]
                ));
            }
            if self.dirty_lru[i].len() != want_dirty_lru[i] {
                return Err(format!(
                    "class {i} dirty set holds {} keys, expected {}",
                    self.dirty_lru[i].len(),
                    want_dirty_lru[i]
                ));
            }
            let hist_total: u64 = self.dirty_len_hist[i].values().map(|&n| n as u64).sum();
            if hist_total != want_dirty_lru[i] as u64 {
                return Err(format!(
                    "class {i} dirty length histogram counts {hist_total} entries, expected {}",
                    want_dirty_lru[i]
                ));
            }
            if usage[i].bytes != self.usage[i].bytes || usage[i].entries != self.usage[i].entries {
                return Err(format!(
                    "class {i} usage accounting drifted: recomputed {:?}, stored {:?}",
                    usage[i], self.usage[i]
                ));
            }
            // `ret_sum` is maintained incrementally; allow rounding slack.
            let drift = (usage[i].ret_sum - self.usage[i].ret_sum).abs();
            if drift > 1e-9 * usage[i].ret_sum.abs().max(1.0) {
                return Err(format!(
                    "class {i} ret_sum drifted by {drift} (recomputed {}, stored {})",
                    usage[i].ret_sum, self.usage[i].ret_sum
                ));
            }
        }
        if dirty_bytes != self.dirty_bytes {
            return Err(format!(
                "dirty-byte accounting drifted: recomputed {dirty_bytes}, stored {}",
                self.dirty_bytes
            ));
        }
        let indexed: usize = self.by_range.values().map(|m| m.len()).sum();
        if indexed != self.entries.len() {
            return Err(format!(
                "by_range indexes {indexed} offsets for {} entries",
                self.entries.len()
            ));
        }
        Ok(())
    }
}
