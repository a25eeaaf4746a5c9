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

#[cfg(test)]
mod reference;

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

/// No slot: the end of a dirty queue, or the links of a slot outside
/// every queue.
const NIL: u32 = u32::MAX;

/// One slab slot: the entry it holds (`None` while the slot is free)
/// and the slot's links in its class's dirty queue.
#[derive(Debug)]
struct Slot {
    entry: Option<Entry>,
    prev: u32,
    next: u32,
}

/// What the range index keeps per entry besides its offset (the key):
/// its length and the slot that holds it, so overlap probes and misses
/// never read the entry itself. Eight bytes, the size of the id the
/// index held before, which keeps its B-tree leaves as small.
#[derive(Debug, Clone, Copy)]
struct RangeRef {
    len: u32,
    slot: u32,
}

impl RangeRef {
    /// End of the range of the entry keyed at `start`.
    fn end(self, start: u64) -> u64 {
        start + u64::from(self.len)
    }
}

/// The flush-eligible entries of one class as a doubly linked list
/// through the slots, oldest first.
#[derive(Debug, Clone, Copy)]
struct DirtyQueue {
    head: u32,
    tail: u32,
}

impl Default for DirtyQueue {
    fn default() -> Self {
        DirtyQueue {
            head: NIL,
            tail: NIL,
        }
    }
}

/// The mapping table.
///
/// Entries live in a slab; one id → slot hash map resolves the id of a
/// call from outside, and every index points at slots. Three indexes
/// keep the hot queries sub-linear: `by_range` (per-file offset order,
/// each key carrying its entry's length) answers hit and overlap lookups,
/// and two per-class *eligibility* structures answer eviction and
/// writeback candidate queries. An entry is in `evictable` when it
/// could be dropped right now (clean, not flushing, not pending), in
/// its class's dirty queue when it could be flushed right now (dirty,
/// not flushing, not pending), and in neither while an admission or
/// writeback is in flight.
///
/// Both keep LRU order. `evictable` is a set keyed by `(lru_seq, slot)`,
/// because `activate` and `mark_clean` file entries under old
/// sequence numbers. The dirty queue is a FIFO: entries join it only
/// from `insert` and `touch`, each time under the newest sequence
/// number, and leave it for good once flushing starts (`start_flush` is
/// one-way, and `insert` refuses an entry that is both dirty and
/// pending, so `activate` never queues one). Join order is LRU order,
/// so walking the queue from its head visits what a walk over a single
/// LRU list would.
#[derive(Debug, Default)]
pub struct MappingTable {
    slots: Vec<Slot>,
    /// Free slots, reused last-freed first.
    free: Vec<u32>,
    slot_of: FxHashMap<EntryId, u32>,
    by_range: FxHashMap<FileHandle, BTreeMap<u64, RangeRef>>,
    evictable: [BTreeSet<(u64, u32)>; 2],
    dirty: [DirtyQueue; 2],
    /// Multiset of the lengths of the entries in each dirty queue
    /// (len -> count). Its smallest key bounds what any remaining walk
    /// candidate could contribute, letting `dirty_batch` stop scanning
    /// the moment the byte budget drops below it.
    dirty_len_hist: [BTreeMap<u64, u32>; 2],
    usage: [ClassUsage; 2],
    dirty_bytes: u64,
    /// The longest entry this table has held: no entry covers a longer
    /// read.
    longest: u64,
    next_id: EntryId,
    next_seq: u64,
}

impl MappingTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        MappingTable::default()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.slot_of.len()
    }

    /// True when no entries exist.
    pub fn is_empty(&self) -> bool {
        self.slot_of.is_empty()
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

    fn entry(&self, slot: u32) -> &Entry {
        self.slots[slot as usize]
            .entry
            .as_ref()
            .expect("indexed slot holds an entry")
    }

    fn entry_mut(&mut self, slot: u32) -> &mut Entry {
        self.slots[slot as usize]
            .entry
            .as_mut()
            .expect("indexed slot holds an entry")
    }

    /// Files the entry in `slot` where its flags call for: nowhere while
    /// flushing or pending, at the tail of its class's dirty queue (and
    /// in its length multiset) while dirty, in `evictable` otherwise.
    fn file(&mut self, slot: u32) {
        let e = self.entry(slot);
        if e.flushing || e.pending {
            return;
        }
        let (i, len, lru_seq, dirty) = (e.typ.idx(), e.len, e.lru_seq, e.dirty);
        if !dirty {
            self.evictable[i].insert((lru_seq, slot));
            return;
        }
        let q = &mut self.dirty[i];
        if q.tail == NIL {
            q.head = slot;
        } else {
            self.slots[q.tail as usize].next = slot;
        }
        self.slots[slot as usize].prev = q.tail;
        q.tail = slot;
        *self.dirty_len_hist[i].entry(len).or_insert(0) += 1;
    }

    /// Undoes [`file`](Self::file). Callers unfile before they change
    /// the flags.
    fn unfile(&mut self, slot: u32) {
        let e = self.entry(slot);
        if e.flushing || e.pending {
            return;
        }
        let (i, len, lru_seq, dirty) = (e.typ.idx(), e.len, e.lru_seq, e.dirty);
        if !dirty {
            let found = self.evictable[i].remove(&(lru_seq, slot));
            debug_assert!(found, "clean entry in slot {slot} missing from its set");
            return;
        }
        let Slot { prev, next, .. } = self.slots[slot as usize];
        let q = &mut self.dirty[i];
        if prev == NIL {
            q.head = next;
        } else {
            self.slots[prev as usize].next = next;
        }
        if next == NIL {
            q.tail = prev;
        } else {
            self.slots[next as usize].prev = prev;
        }
        let s = &mut self.slots[slot as usize];
        s.prev = NIL;
        s.next = NIL;
        match self.dirty_len_hist[i].get_mut(&len) {
            Some(n) if *n > 1 => *n -= 1,
            _ => {
                self.dirty_len_hist[i].remove(&len);
            }
        }
    }

    /// Inserts a new entry.
    ///
    /// # Panics
    ///
    /// Panics if the id is already present, if the entry is both dirty
    /// and pending (the dirty queue's order relies on it), if it is
    /// 4 GiB or longer, or if the range overlaps an existing entry of
    /// the same file (overlaps must be resolved by the caller first).
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
        assert!(!(dirty && pending), "entry {id} is both dirty and pending");
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
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize].entry = Some(entry);
                slot
            }
            None => {
                let slot = u32::try_from(self.slots.len()).expect("slab slots fit u32");
                assert!(slot != NIL, "slab full");
                self.slots.push(Slot {
                    entry: Some(entry),
                    prev: NIL,
                    next: NIL,
                });
                slot
            }
        };
        let prev = self.slot_of.insert(id, slot);
        assert!(prev.is_none(), "duplicate entry id");
        self.file(slot);
        let u = &mut self.usage[typ.idx()];
        u.bytes += len;
        u.entries += 1;
        u.ret_sum += ret;
        if dirty {
            self.dirty_bytes += len;
        }
        self.longest = self.longest.max(len);
        let len = u32::try_from(len).expect("entry length fits u32");
        self.by_range
            .entry(file)
            .or_default()
            .insert(offset, RangeRef { len, slot });
    }

    /// Removes an entry, returning it.
    pub fn remove(&mut self, id: EntryId) -> Option<Entry> {
        let slot = self.slot_of.remove(&id)?;
        self.unfile(slot);
        let entry = self.slots[slot as usize]
            .entry
            .take()
            .expect("mapped slot holds an entry");
        self.free.push(slot);
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
        self.slot_of.get(&id).map(|&slot| self.entry(slot))
    }

    /// Whether the log may overwrite an entry's regions: `None` when no
    /// entry has the id (its regions are stale), else `Some(pinned)`.
    /// Dirty data is pinned until its writeback completes.
    pub fn pinned(&self, id: EntryId) -> Option<bool> {
        self.get(id).map(|e| e.dirty)
    }

    /// Marks use for LRU.
    pub fn touch(&mut self, id: EntryId) {
        let Some(&slot) = self.slot_of.get(&id) else {
            return;
        };
        self.next_seq += 1;
        self.unfile(slot);
        let seq = self.next_seq;
        self.entry_mut(slot).lru_seq = seq;
        self.file(slot);
    }

    /// Finds the single *servable* (non-pending) entry fully covering
    /// `[offset, offset + len)` of `file`, if any. A read longer than
    /// every entry the table has held misses without a probe.
    pub fn lookup_covering(&self, file: FileHandle, offset: u64, len: u64) -> Option<&Entry> {
        if len > self.longest {
            return None;
        }
        let m = self.by_range.get(&file)?;
        let (&start, r) = m.range(..=offset).next_back()?;
        if offset + len > r.end(start) {
            return None;
        }
        let e = self.entry(r.slot);
        (!e.pending).then_some(e)
    }

    /// True when any entry overlaps `[offset, offset + len)` of `file`.
    /// One B-tree descent, no allocation — the hot-path form of overlap
    /// checking. Entries never overlap each other, so their ends rise
    /// with their offsets: the last entry starting inside or before the
    /// range reaches furthest, and the range overlaps something exactly
    /// when that entry ends past `offset`.
    pub fn has_overlap(&self, file: FileHandle, offset: u64, len: u64) -> bool {
        self.by_range.get(&file).is_some_and(|m| {
            m.range(..offset + len)
                .next_back()
                .is_some_and(|(&start, r)| r.end(start) > offset)
        })
    }

    /// Appends the ids of all entries overlapping `[offset, offset +
    /// len)` of `file` to `out`, in offset order (a caller-owned scratch
    /// buffer, so steady-state invalidation allocates nothing). Walks
    /// back from the last entry starting before the range's end while
    /// entries still end past `offset` — see
    /// [`has_overlap`](Self::has_overlap).
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
        let from = out.len();
        for (&start, r) in m.range(..offset + len).rev() {
            if r.end(start) <= offset {
                break;
            }
            out.push(self.entry(r.slot).id);
        }
        out[from..].reverse();
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
        self.evictable[typ.idx()]
            .first()
            .map(|&(_, slot)| self.entry(slot).id)
    }

    /// The oldest dirty entries, grouped for writeback. Returns up to
    /// `max_bytes` worth of entry ids **sorted by home location** so the
    /// resulting disk writes are as sequential as possible (the paper's
    /// writeback scheduling). Only flush-eligible entries are visited
    /// (a walk down each class's dirty queue), and each candidate's sort
    /// key is captured during that walk, so the batch is built with one
    /// pass and one sort.
    pub fn dirty_batch(&self, max_bytes: u64) -> Vec<EntryId> {
        let mut picked: Vec<(FileHandle, u64, EntryId)> = Vec::new();
        let mut budget = max_bytes;
        for (i, q) in self.dirty.iter().enumerate() {
            // Once the budget drops below the smallest dirty length of
            // the class, no remaining candidate can be picked — stop
            // instead of walking the (possibly long) queue tail. The
            // histogram minimum covers the whole queue, so this prunes
            // exactly the iterations whose `continue` branch would fire.
            let Some((&min_len, _)) = self.dirty_len_hist[i].first_key_value() else {
                continue;
            };
            let mut slot = q.head;
            while slot != NIL && budget >= min_len {
                let s = &self.slots[slot as usize];
                let e = s.entry.as_ref().expect("queued slot holds an entry");
                debug_assert!(e.dirty && !e.flushing && !e.pending);
                slot = s.next;
                if e.len > budget {
                    continue;
                }
                budget -= e.len;
                picked.push((e.file, e.offset, e.id));
            }
        }
        // Offsets are unique per file (overlapping inserts are refused),
        // so the unstable sort is deterministic.
        picked.sort_unstable();
        picked.into_iter().map(|(_, _, id)| id).collect()
    }

    /// Starts an entry's writeback: it leaves the eligibility indexes
    /// until [`mark_clean`](Self::mark_clean). Returns the entry.
    pub fn start_flush(&mut self, id: EntryId) -> Option<&Entry> {
        let slot = *self.slot_of.get(&id)?;
        self.unfile(slot);
        let e = self.entry_mut(slot);
        e.flushing = true;
        Some(&*e)
    }

    /// Marks an entry clean (writeback finished). Returns the entry.
    pub fn mark_clean(&mut self, id: EntryId) -> Option<&Entry> {
        let slot = *self.slot_of.get(&id)?;
        self.unfile(slot);
        let e = self.entry_mut(slot);
        let cleaned = if e.dirty { e.len } else { 0 };
        e.dirty = false;
        e.flushing = false;
        self.dirty_bytes -= cleaned;
        self.file(slot);
        Some(self.entry(slot))
    }

    /// Clears the pending flag (admission write finished).
    pub fn activate(&mut self, id: EntryId) {
        let Some(&slot) = self.slot_of.get(&id) else {
            return;
        };
        if !self.entry(slot).pending {
            return;
        }
        self.entry_mut(slot).pending = false;
        self.file(slot);
    }

    /// Points the entry at a new backup record (log compaction rewrote
    /// its record under a fresh sequence number). `log_seq` keys no
    /// index, so this is a plain field update.
    pub fn set_log_seq(&mut self, id: EntryId, seq: u64) {
        if let Some(&slot) = self.slot_of.get(&id) {
            self.entry_mut(slot).log_seq = seq;
        }
    }

    /// Iterates all entries, in no particular order (callers sort, sum
    /// or count).
    pub fn entries(&self) -> impl Iterator<Item = &Entry> {
        self.slots.iter().filter_map(|s| s.entry.as_ref())
    }

    /// Cross-checks every derived structure against the slab: the id
    /// map and free list, the per-class usage and dirty-byte accounting,
    /// the `by_range` index (offset, length and slot), and the eligibility
    /// indexes — each entry filed exactly where its flags call for, no
    /// stale keys, and each dirty queue linked both ways in strictly
    /// increasing LRU order. Used by the online invariant auditor;
    /// returns a diagnostic on the first violation found.
    pub fn audit(&self) -> Result<(), String> {
        let mut queued = vec![false; self.slots.len()];
        let mut want_hist: [BTreeMap<u64, u32>; 2] = Default::default();
        for (i, q) in self.dirty.iter().enumerate() {
            let (mut prev, mut slot) = (NIL, q.head);
            let mut last_seq = None;
            while slot != NIL {
                let Some(s) = self.slots.get(slot as usize) else {
                    return Err(format!("class {i} dirty queue links past the slab"));
                };
                let Some(e) = s.entry.as_ref() else {
                    return Err(format!("class {i} dirty queue holds free slot {slot}"));
                };
                if queued[slot as usize] || s.prev != prev {
                    return Err(format!("class {i} dirty queue is mislinked at slot {slot}"));
                }
                if e.typ.idx() != i || !e.dirty || e.flushing || e.pending {
                    return Err(format!(
                        "entry {} (dirty={} flushing={} pending={}) misfiled in the class {i} dirty queue",
                        e.id, e.dirty, e.flushing, e.pending
                    ));
                }
                if last_seq.is_some_and(|l| l >= e.lru_seq) {
                    return Err(format!(
                        "class {i} dirty queue out of LRU order at entry {}",
                        e.id
                    ));
                }
                last_seq = Some(e.lru_seq);
                queued[slot as usize] = true;
                *want_hist[i].entry(e.len).or_insert(0) += 1;
                (prev, slot) = (slot, s.next);
            }
            if q.tail != prev {
                return Err(format!("class {i} dirty queue tail drifted"));
            }
            if want_hist[i] != self.dirty_len_hist[i] {
                return Err(format!("class {i} dirty length histogram drifted"));
            }
        }
        let mut usage = [ClassUsage::default(); 2];
        let mut dirty_bytes = 0u64;
        let mut want_evictable = [0usize; 2];
        let mut occupied = 0usize;
        for (slot, s) in (0u32..).zip(&self.slots) {
            let Some(e) = s.entry.as_ref() else {
                continue;
            };
            occupied += 1;
            let id = e.id;
            if self.slot_of.get(&id) != Some(&slot) {
                return Err(format!("entry {id} in slot {slot} is not mapped to it"));
            }
            let u = &mut usage[e.typ.idx()];
            u.bytes += e.len;
            u.entries += 1;
            u.ret_sum += e.ret;
            if e.dirty {
                dirty_bytes += e.len;
            }
            if e.len > self.longest {
                return Err(format!("entry {id} is longer than the longest entry seen"));
            }
            let indexed = self.by_range.get(&e.file).and_then(|m| m.get(&e.offset));
            if indexed.is_none_or(|r| u64::from(r.len) != e.len || r.slot != slot) {
                return Err(format!(
                    "entry {id} ({:?} @{}) missing or stale in the by_range index",
                    e.file, e.offset
                ));
            }
            let i = e.typ.idx();
            let eligible = !e.flushing && !e.pending;
            let (want_ev, want_dl) = (eligible && !e.dirty, eligible && e.dirty);
            if self.evictable[i].contains(&(e.lru_seq, slot)) != want_ev
                || queued[slot as usize] != want_dl
            {
                return Err(format!(
                    "entry {id} (dirty={} flushing={} pending={}) misfiled in the LRU indexes",
                    e.dirty, e.flushing, e.pending
                ));
            }
            if !want_dl && (s.prev != NIL || s.next != NIL) {
                return Err(format!(
                    "entry {id} keeps dirty-queue links outside the queue"
                ));
            }
            want_evictable[i] += usize::from(want_ev);
        }
        if occupied != self.slot_of.len() || occupied + self.free.len() != self.slots.len() {
            return Err(format!(
                "slab accounting drifted: {occupied} occupied, {} mapped, {} free of {} slots",
                self.slot_of.len(),
                self.free.len(),
                self.slots.len()
            ));
        }
        if let Some(&slot) = self.free.iter().find(|&&slot| {
            self.slots
                .get(slot as usize)
                .is_none_or(|s| s.entry.is_some())
        }) {
            return Err(format!("free list names occupied or missing slot {slot}"));
        }
        for i in 0..2 {
            if self.evictable[i].len() != want_evictable[i] {
                return Err(format!(
                    "class {i} evictable set holds {} keys, expected {}",
                    self.evictable[i].len(),
                    want_evictable[i]
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
        if indexed != occupied {
            return Err(format!(
                "by_range indexes {indexed} offsets for {occupied} entries"
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::reference::MappingTable as Reference;
    use super::*;
    use proptest::prelude::*;

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
        t.start_flush(0);
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
        t.start_flush(batch[0]);
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
        t.start_flush(0);
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

    #[test]
    fn reads_longer_than_every_entry_miss_and_contained_reads_hit() {
        let mut t = table_with(&[
            (0, 816, EntryType::Fragment, false),
            (4096, 1000, EntryType::Random, true),
        ]);
        assert_eq!(t.longest, 1000);
        // Longer than anything cached: answered before the probe.
        assert!(t.lookup_covering(F, 0, 64 * 1024).is_none());
        assert!(t.lookup_covering(F, 4096, 1001).is_none());
        // Contained reads still hit.
        assert_eq!(t.lookup_covering(F, 4096, 1000).map(|e| e.id), Some(1));
        assert_eq!(t.lookup_covering(F, 100, 500).map(|e| e.id), Some(0));
        // The bound only grows: removing the longest entry keeps it.
        t.remove(1);
        assert_eq!(t.longest, 1000);
        t.audit().unwrap();
    }

    #[test]
    #[should_panic(expected = "both dirty and pending")]
    fn dirty_pending_insert_panics() {
        let mut t = MappingTable::new();
        let id = t.next_id();
        t.insert(
            id,
            F,
            0,
            512,
            ext(0, 1),
            EntryType::Random,
            0.0,
            true,
            true,
            0,
        );
    }

    #[test]
    fn dirty_queue_keeps_touch_order_across_flush_and_clean() {
        let mut t = table_with(&[
            (0, 100, EntryType::Random, true),
            (1000, 100, EntryType::Random, true),
            (2000, 100, EntryType::Random, true),
        ]);
        t.touch(0); // queue: 1, 2, 0
        assert_eq!(t.dirty_batch(200), vec![1, 2]);
        t.start_flush(2);
        assert_eq!(t.dirty_batch(200), vec![0, 1]);
        t.mark_clean(2); // clean entries never rejoin the queue
        assert_eq!(t.dirty_batch(u64::MAX), vec![0, 1]);
        assert_eq!(t.lru_victim(EntryType::Random), Some(2));
        t.audit().unwrap();
    }

    #[test]
    fn audit_catches_a_stale_range_end() {
        let mut t = table_with(&[(0, 1000, EntryType::Random, false)]);
        t.by_range.get_mut(&F).unwrap().get_mut(&0).unwrap().len = 999;
        assert!(t.audit().unwrap_err().contains("by_range"));
    }

    #[test]
    fn audit_catches_a_mislinked_dirty_queue() {
        let mut t = table_with(&[
            (0, 100, EntryType::Random, true),
            (1000, 100, EntryType::Random, true),
        ]);
        t.slots[1].prev = NIL;
        assert!(t.audit().unwrap_err().contains("mislinked"));
    }

    /// One step of the differential test, drawn as `(kind, file, at,
    /// len, pick)`: kinds 0–2 insert `[at·300, at·300 + len)` of file
    /// `file` as a clean, dirty or pending entry after removing whatever
    /// it overlaps (as the policy resolves overlaps), kind 3 burns an id
    /// (a failed reservation), and kinds 4–8 remove, touch, activate,
    /// start flushing or mark clean the `pick`-th id allocated so far.
    type Op = (u8, u64, u64, u64, u64);

    /// The strategy drawing one [`Op`].
    type OpStrategy = (
        std::ops::Range<u8>,
        std::ops::Range<u64>,
        std::ops::Range<u64>,
        std::ops::Range<u64>,
        std::ops::Range<u64>,
    );

    fn ops(len: std::ops::Range<usize>) -> prop::collection::VecStrategy<OpStrategy> {
        prop::collection::vec((0u8..9, 1u64..3, 0u64..40, 1u64..1500, 0u64..1024), len)
    }

    /// Checks every query the policy makes of both tables, and both
    /// audits.
    fn same_answers(t: &MappingTable, r: &Reference) -> Result<(), TestCaseError> {
        t.audit().map_err(TestCaseError::fail)?;
        r.audit().map_err(TestCaseError::fail)?;
        prop_assert_eq!(t.len(), r.len());
        prop_assert_eq!(t.dirty_bytes(), r.dirty_bytes());
        for typ in [EntryType::Fragment, EntryType::Random] {
            prop_assert_eq!(t.lru_victim(typ), r.lru_victim(typ));
            prop_assert_eq!(t.usage(typ), r.usage(typ));
        }
        for budget in [0, 100, 700, 2500, 9000, u64::MAX] {
            prop_assert_eq!(t.dirty_batch(budget), r.dirty_batch(budget));
        }
        for file in [FileHandle(1), FileHandle(2)] {
            for offset in (0..13_000).step_by(1103) {
                for len in [1, 299, 816, 4000] {
                    prop_assert_eq!(
                        t.find_overlaps(file, offset, len),
                        r.find_overlaps(file, offset, len)
                    );
                    prop_assert_eq!(
                        t.has_overlap(file, offset, len),
                        r.has_overlap(file, offset, len)
                    );
                    prop_assert_eq!(
                        t.lookup_covering(file, offset, len).map(|e| e.id),
                        r.lookup_covering(file, offset, len).map(|e| e.id)
                    );
                }
            }
        }
        Ok(())
    }

    proptest! {
        /// The slab table answers exactly like the B-tree table it
        /// replaced, over both classes, overlapping ranges and every
        /// lifecycle transition the policy makes.
        #[test]
        fn slab_table_matches_the_btree_table(ops in ops(1..120)) {
            let mut t = MappingTable::new();
            let mut r = Reference::new();
            let mut scratch = Vec::new();
            let ops: &[Op] = &ops;
            for &(kind, file, at, len, pick) in ops {
                let file = FileHandle(file);
                let ids = t.next_id;
                let old = pick % ids.max(1);
                match kind {
                    0..=2 => {
                        let offset = at * 300;
                        scratch.clear();
                        t.find_overlaps_into(file, offset, len, &mut scratch);
                        prop_assert_eq!(&scratch, &r.find_overlaps(file, offset, len));
                        for &id in &scratch {
                            let (a, b) = (t.remove(id), r.remove(id));
                            prop_assert_eq!(a.map(|e| (e.id, e.len)), b.map(|e| (e.id, e.len)));
                        }
                        let id = t.next_id();
                        prop_assert_eq!(id, r.next_id());
                        let typ = if at % 3 == 0 { EntryType::Fragment } else { EntryType::Random };
                        let (dirty, pending) = (kind == 1, kind == 2);
                        let extents = ext(id * 8, len.div_ceil(512));
                        let ret = (at as f64 - 20.0) * 1e-4;
                        t.insert(id, file, offset, len, extents.clone(), typ, ret, dirty, pending, id);
                        r.insert(id, file, offset, len, extents, typ, ret, dirty, pending, id);
                    }
                    3 => {
                        prop_assert_eq!(t.next_id(), r.next_id());
                    }
                    4 => {
                        let (a, b) = (t.remove(old), r.remove(old));
                        prop_assert_eq!(a.map(|e| e.id), b.map(|e| e.id));
                    }
                    5 => {
                        t.touch(old);
                        r.touch(old);
                    }
                    6 => {
                        t.activate(old);
                        r.activate(old);
                    }
                    7 => {
                        let started = t.start_flush(old).map(|e| e.id);
                        prop_assert_eq!(started, r.get(old).map(|e| e.id));
                        r.set_flushing(old, true);
                    }
                    _ => {
                        let cleaned = t.mark_clean(old).map(|e| e.id);
                        prop_assert_eq!(cleaned, r.get(old).map(|e| e.id));
                        r.mark_clean(old);
                    }
                }
                same_answers(&t, &r)?;
            }
        }
    }
}
