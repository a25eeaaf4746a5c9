//! The iBridge mapping table.
//!
//! "iBridge maintains a mapping table to record data and their statuses
//! (dirty or clean)." Each entry describes one cached range of a local
//! datafile: where it lives in the SSD log, which request class put it
//! there (fragment vs regular random — the two partitions of the SSD),
//! the return value recorded at admission (used for the dynamic
//! partitioning), dirtiness, and LRU position within its class.

use crate::log::EntryId;
use ibridge_des::fxhash::FxHashMap;
use ibridge_localfs::{Extent, ExtentList, FileHandle};
use std::collections::{BTreeMap, BTreeSet};

/// Which SSD partition an entry belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EntryType {
    /// A fragment of a larger striped request.
    Fragment,
    /// A regular random request.
    Random,
}

impl EntryType {
    fn idx(self) -> usize {
        match self {
            EntryType::Fragment => 0,
            EntryType::Random => 1,
        }
    }
}

/// One cached range.
#[derive(Debug, Clone)]
pub struct Entry {
    /// Table-assigned id.
    pub id: EntryId,
    /// Home datafile.
    pub file: FileHandle,
    /// Home offset in bytes.
    pub offset: u64,
    /// Length in bytes.
    pub len: u64,
    /// Data sectors in the SSD log (1 or 2 extents).
    pub extents: ExtentList,
    /// Partition.
    pub typ: EntryType,
    /// Return value recorded at admission.
    pub ret: f64,
    /// Holds data newer than the disk.
    pub dirty: bool,
    /// A writeback is in flight.
    pub flushing: bool,
    /// The admission write has not completed yet (not servable).
    pub pending: bool,
    /// Sequence number of the entry's log append, carried in its
    /// on-SSD backup record (recovery checks these for continuity).
    pub log_seq: u64,
    lru_seq: u64,
}

impl Entry {
    /// Slices this entry's log extents to the byte sub-range
    /// `[from, from + len)` relative to the entry's own range.
    pub fn slice(&self, from: u64, len: u64) -> ExtentList {
        assert!(from + len <= self.len, "slice outside entry");
        let first_sector = from / ibridge_localfs::SECTOR_SIZE;
        let last_sector = (from + len).div_ceil(ibridge_localfs::SECTOR_SIZE);
        let mut want = last_sector - first_sector;
        let mut skip = first_sector;
        let mut out = ExtentList::new();
        for e in &self.extents {
            if skip >= e.sectors {
                skip -= e.sectors;
                continue;
            }
            let take = (e.sectors - skip).min(want);
            out.push(Extent {
                lbn: e.lbn + skip,
                sectors: take,
            });
            want -= take;
            skip = 0;
            if want == 0 {
                break;
            }
        }
        assert_eq!(want, 0, "entry extents shorter than its length");
        out
    }
}

/// Per-class aggregate view used by the partition controller.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ClassUsage {
    /// Cached bytes of this class.
    pub bytes: u64,
    /// Number of entries.
    pub entries: u64,
    /// Sum of admission-time return values.
    pub ret_sum: f64,
}

impl ClassUsage {
    /// Mean return value (0 when empty).
    pub fn avg_ret(&self) -> f64 {
        if self.entries == 0 {
            0.0
        } else {
            self.ret_sum / self.entries as f64
        }
    }
}

/// The mapping table.
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

/// Drops `e`'s key from whichever eligibility set holds it.
fn unindex(
    evictable: &mut [BTreeSet<(u64, EntryId)>; 2],
    dirty_lru: &mut [BTreeSet<(u64, EntryId)>; 2],
    dirty_len_hist: &mut [BTreeMap<u64, u32>; 2],
    e: &Entry,
) {
    let key = (e.lru_seq, e.id);
    let i = e.typ.idx();
    if !evictable[i].remove(&key) && dirty_lru[i].remove(&key) {
        match dirty_len_hist[i].get_mut(&e.len) {
            Some(n) if *n > 1 => *n -= 1,
            _ => {
                dirty_len_hist[i].remove(&e.len);
            }
        }
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

    /// True when no entries exist.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
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

    /// Points the entry at a new backup record (log compaction rewrote
    /// its record under a fresh sequence number). `log_seq` keys no
    /// index, so this is a plain field update.
    pub fn set_log_seq(&mut self, id: EntryId, seq: u64) {
        if let Some(e) = self.entries.get_mut(&id) {
            e.log_seq = seq;
        }
    }

    /// Iterates all entries (persistence snapshots).
    pub fn entries(&self) -> impl Iterator<Item = &Entry> {
        self.entries.values()
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

#[cfg(test)]
mod tests {
    use super::*;

    const F: FileHandle = FileHandle(1);

    fn ext(lbn: u64, sectors: u64) -> ExtentList {
        ExtentList::one(Extent { lbn, sectors })
    }

    fn table_with(entries: &[(u64, u64, EntryType, bool)]) -> MappingTable {
        // (offset, len, type, dirty)
        let mut t = MappingTable::new();
        for &(offset, len, typ, dirty) in entries {
            let id = t.next_id();
            t.insert(
                id,
                F,
                offset,
                len,
                ext(offset / 512, len.div_ceil(512)),
                typ,
                0.001,
                dirty,
                false,
                id,
            );
        }
        t
    }

    #[test]
    fn covering_lookup_finds_exact_and_inner_ranges() {
        let t = table_with(&[(1000, 4096, EntryType::Fragment, false)]);
        assert!(t.lookup_covering(F, 1000, 4096).is_some());
        assert!(t.lookup_covering(F, 2000, 1000).is_some());
        assert!(t.lookup_covering(F, 1000, 4097).is_none());
        assert!(t.lookup_covering(F, 999, 10).is_none());
        assert!(t.lookup_covering(FileHandle(2), 1000, 10).is_none());
    }

    #[test]
    fn pending_entries_are_not_servable() {
        let mut t = MappingTable::new();
        let id = t.next_id();
        t.insert(
            id,
            F,
            0,
            4096,
            ext(0, 8),
            EntryType::Random,
            0.0,
            false,
            true,
            0,
        );
        assert!(t.lookup_covering(F, 0, 4096).is_none());
        t.activate(id);
        assert!(t.lookup_covering(F, 0, 4096).is_some());
    }

    #[test]
    fn overlap_detection() {
        let t = table_with(&[
            (1000, 1000, EntryType::Random, false),
            (5000, 1000, EntryType::Random, false),
        ]);
        assert_eq!(t.find_overlaps(F, 0, 500).len(), 0);
        assert_eq!(t.find_overlaps(F, 1500, 100).len(), 1);
        assert_eq!(t.find_overlaps(F, 900, 5000).len(), 2);
        assert_eq!(t.find_overlaps(F, 1999, 2).len(), 1);
        assert_eq!(t.find_overlaps(F, 2000, 10).len(), 0);
    }

    // The overlap check is a `debug_assert!`, compiled out of release
    // builds.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "over an existing entry")]
    fn overlapping_insert_panics() {
        let mut t = table_with(&[(0, 4096, EntryType::Random, false)]);
        let id = t.next_id();
        t.insert(
            id,
            F,
            4000,
            100,
            ext(100, 1),
            EntryType::Random,
            0.0,
            false,
            false,
            0,
        );
    }

    #[test]
    fn lru_victim_is_oldest_clean() {
        let mut t = table_with(&[
            (0, 1000, EntryType::Fragment, false),
            (2000, 1000, EntryType::Fragment, false),
        ]);
        assert_eq!(t.lru_victim(EntryType::Fragment), Some(0));
        t.touch(0); // entry 0 becomes most recent
        assert_eq!(t.lru_victim(EntryType::Fragment), Some(1));
        // Random class has no entries.
        assert_eq!(t.lru_victim(EntryType::Random), None);
    }

    #[test]
    fn dirty_entries_are_not_victims() {
        let t = table_with(&[
            (0, 1000, EntryType::Random, true),
            (2000, 1000, EntryType::Random, false),
        ]);
        assert_eq!(t.lru_victim(EntryType::Random), Some(1));
    }

    #[test]
    fn usage_accounting_tracks_inserts_and_removes() {
        let mut t = table_with(&[
            (0, 1000, EntryType::Fragment, true),
            (2000, 3000, EntryType::Random, false),
        ]);
        assert_eq!(t.usage(EntryType::Fragment).bytes, 1000);
        assert_eq!(t.usage(EntryType::Random).bytes, 3000);
        assert_eq!(t.dirty_bytes(), 1000);
        let e = t.remove(0).unwrap();
        assert_eq!(e.len, 1000);
        assert_eq!(t.usage(EntryType::Fragment).bytes, 0);
        assert_eq!(t.dirty_bytes(), 0);
    }

    #[test]
    fn mark_clean_updates_dirty_bytes() {
        let mut t = table_with(&[(0, 1000, EntryType::Random, true)]);
        t.set_flushing(0, true);
        t.mark_clean(0);
        assert_eq!(t.dirty_bytes(), 0);
        assert!(!t.get(0).unwrap().flushing);
        // Now evictable.
        assert_eq!(t.lru_victim(EntryType::Random), Some(0));
    }

    #[test]
    fn dirty_batch_sorted_by_home_location_and_bounded() {
        let mut t = table_with(&[
            (9000, 1000, EntryType::Random, true),
            (0, 1000, EntryType::Fragment, true),
            (5000, 1000, EntryType::Random, true),
        ]);
        let batch = t.dirty_batch(u64::MAX);
        let offsets: Vec<u64> = batch.iter().map(|id| t.get(*id).unwrap().offset).collect();
        assert_eq!(offsets, vec![0, 5000, 9000]);
        // Bounded by bytes.
        let batch = t.dirty_batch(2000);
        assert_eq!(batch.len(), 2);
        // Flushing entries are excluded.
        t.set_flushing(batch[0], true);
        let again = t.dirty_batch(u64::MAX);
        assert_eq!(again.len(), 2);
    }

    #[test]
    fn entry_slicing_spans_wrapped_extents() {
        let e = Entry {
            id: 0,
            file: F,
            offset: 0,
            len: 20 * 512,
            extents: ExtentList::two(
                Extent {
                    lbn: 90,
                    sectors: 10,
                },
                Extent {
                    lbn: 0,
                    sectors: 10,
                },
            ),
            typ: EntryType::Fragment,
            ret: 0.0,
            dirty: false,
            flushing: false,
            pending: false,
            log_seq: 0,
            lru_seq: 0,
        };
        // Full range.
        assert_eq!(e.slice(0, 20 * 512), e.extents);
        // Inside the first extent.
        assert_eq!(
            e.slice(512, 512),
            ExtentList::one(Extent {
                lbn: 91,
                sectors: 1
            })
        );
        // Straddling the wrap.
        assert_eq!(
            e.slice(9 * 512, 2 * 512),
            ExtentList::two(
                Extent {
                    lbn: 99,
                    sectors: 1
                },
                Extent { lbn: 0, sectors: 1 }
            )
        );
        // Byte-unaligned range rounds out to sectors.
        assert_eq!(
            e.slice(100, 100),
            ExtentList::one(Extent {
                lbn: 90,
                sectors: 1
            })
        );
    }

    #[test]
    fn audit_accepts_every_lifecycle_state() {
        let mut t = table_with(&[
            (0, 1000, EntryType::Fragment, true),
            (2000, 1000, EntryType::Random, false),
        ]);
        t.audit().expect("fresh table is consistent");
        let pending = t.next_id();
        t.insert(
            pending,
            F,
            8000,
            512,
            ext(100, 1),
            EntryType::Fragment,
            0.001,
            false,
            true,
            pending,
        );
        t.audit().expect("pending entry is consistent");
        t.set_flushing(0, true);
        t.audit().expect("flushing entry is consistent");
        t.mark_clean(0);
        t.activate(pending);
        t.touch(1);
        t.remove(1);
        t.audit().expect("post-lifecycle table is consistent");
    }

    #[test]
    fn audit_catches_accounting_drift() {
        let mut t = table_with(&[(0, 1000, EntryType::Fragment, true)]);
        t.dirty_bytes += 1; // simulate a lost update
        let err = t.audit().unwrap_err();
        assert!(err.contains("dirty-byte accounting"), "got: {err}");
    }

    #[test]
    fn audit_catches_stale_lru_keys() {
        let mut t = table_with(&[(0, 1000, EntryType::Random, false)]);
        // A stale key with no matching entry state.
        t.evictable[EntryType::Random.idx()].insert((999, 999));
        assert!(t.audit().is_err());
    }

    #[test]
    fn avg_ret_per_class() {
        let mut t = MappingTable::new();
        let a = t.next_id();
        t.insert(
            a,
            F,
            0,
            100,
            ext(0, 1),
            EntryType::Fragment,
            0.002,
            false,
            false,
            0,
        );
        let b = t.next_id();
        t.insert(
            b,
            F,
            1000,
            100,
            ext(2, 1),
            EntryType::Fragment,
            0.004,
            false,
            false,
            1,
        );
        assert!((t.usage(EntryType::Fragment).avg_ret() - 0.003).abs() < 1e-12);
        assert_eq!(t.usage(EntryType::Random).avg_ret(), 0.0);
    }
}
