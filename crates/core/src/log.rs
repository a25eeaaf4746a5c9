//! Circular SSD log.
//!
//! iBridge writes all cached data "sequentially into a pre-created large
//! file that is maintained much like a log-based file system" — that is
//! what makes its SSD writes run at the device's *sequential* write
//! bandwidth (140 MB/s) instead of the random one (30 MB/s). This module
//! manages that file's space: an append head that advances through a
//! fixed region and wraps, overwriting the *stale or clean* data it runs
//! over. An append that would run over **dirty** (not yet written back)
//! or in-flight data fails, and the caller serves the request at the
//! disk instead; the idle-time writeback daemon keeps the log clean
//! enough that this is rare.
//!
//! Because the head only ever overwrites the regions just ahead of it,
//! the log is a ring of regions in address order from the head: an
//! append pops regions off the front and pushes its own at the back.
//! Evicting an entry only forgets it; its regions stay in the ring as
//! stale space until the head reaches them.

use ibridge_des::fxhash::{FxHashMap, FxHashSet};
use ibridge_device::Lbn;
use ibridge_localfs::{Extent, ExtentList};
use std::collections::VecDeque;

#[cfg(test)]
mod reference;

/// Identifier of a cache entry, matching `ibridge_pvfs::EntryId`.
pub type EntryId = u64;

/// One written region of the log: an append, or one piece of a wrapped
/// append.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Region {
    start: Lbn,
    sectors: u64,
    entry: EntryId,
}

impl Region {
    fn end(&self) -> Lbn {
        self.start + self.sectors
    }
}

/// Why an append failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppendError {
    /// The request is larger than the whole log.
    TooLarge,
    /// The append head would run over dirty or pinned data.
    BlockedByDirty,
}

/// The circular log allocator.
///
/// ```
/// use ibridge_core::CircularLog;
///
/// let mut log = CircularLog::new(1000);
/// let mut evicted = Vec::new();
/// let extents = log.append(128, 0, &mut evicted).unwrap();
/// assert_eq!(extents[0].lbn, 0);
/// assert!(evicted.is_empty());
/// // Appends are strictly sequential — the SSD sees them at its
/// // sequential-write bandwidth.
/// let next = log.append(128, 1, &mut evicted).unwrap();
/// assert_eq!(next[0].lbn, 128);
/// ```
#[derive(Debug)]
pub struct CircularLog {
    capacity: u64,
    head: Lbn,
    /// Every region not yet run over by the head, live or stale, in
    /// address order from the head: the front is the next region the
    /// head reaches. Regions never overlap and never straddle the head.
    ring: VecDeque<Region>,
    /// The live entries, each `true` when pinned against overwrite
    /// (dirty data, or an in-flight flush/read). A region whose entry is
    /// missing here is stale.
    live: FxHashMap<EntryId, bool>,
}

/// Distance from `head` forward to `lbn` in a log of `capacity` sectors.
fn ahead(head: Lbn, capacity: u64, lbn: Lbn) -> u64 {
    if lbn >= head {
        lbn - head
    } else {
        lbn + capacity - head
    }
}

impl CircularLog {
    /// Creates a log over `[0, capacity_sectors)`.
    pub fn new(capacity_sectors: u64) -> Self {
        assert!(capacity_sectors > 0, "empty log");
        CircularLog {
            capacity: capacity_sectors,
            head: 0,
            ring: VecDeque::new(),
            live: FxHashMap::default(),
        }
    }

    /// Log capacity in sectors.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Current append position (for tests/inspection).
    pub fn head(&self) -> Lbn {
        self.head
    }

    /// Marks a resident entry's regions as must-not-overwrite (dirty
    /// data, or an in-flight flush/read).
    pub fn protect(&mut self, entry: EntryId) {
        if let Some(pinned) = self.live.get_mut(&entry) {
            *pinned = true;
        }
    }

    /// Clears the protection.
    pub fn unprotect(&mut self, entry: EntryId) {
        if let Some(pinned) = self.live.get_mut(&entry) {
            *pinned = false;
        }
    }

    /// Removes an entry's residency (logical eviction). The space
    /// becomes stale and is reclaimed when the head next passes it.
    pub fn evict(&mut self, entry: EntryId) {
        self.live.remove(&entry);
    }

    /// Appends `sectors` at the head, wrapping if needed. On success,
    /// returns the allocated extents (1, or 2 when wrapping) and fills
    /// `casualties` with the ids, ascending, of the clean entries that
    /// were overwritten (the caller must drop them from its mapping
    /// table). A failed append changes nothing and leaves `casualties`
    /// empty.
    pub fn append(
        &mut self,
        sectors: u64,
        entry: EntryId,
        casualties: &mut Vec<EntryId>,
    ) -> Result<ExtentList, AppendError> {
        assert!(sectors > 0, "zero-length append");
        casualties.clear();
        if sectors > self.capacity {
            return Err(AppendError::TooLarge);
        }
        // No region straddles the head, so the regions this append runs
        // over are exactly the front ones starting less than `sectors`
        // ahead of it.
        let mut run_over = 0;
        for r in &self.ring {
            if ahead(self.head, self.capacity, r.start) >= sectors {
                break;
            }
            match self.live.get(&r.entry) {
                Some(true) => {
                    casualties.clear();
                    return Err(AppendError::BlockedByDirty);
                }
                Some(false) => casualties.push(r.entry),
                None => {} // stale
            }
            run_over += 1;
        }
        self.ring.drain(..run_over);
        casualties.sort_unstable();
        casualties.dedup();
        // A casualty's whole residency goes stale — a partially
        // overwritten entry is useless.
        for id in casualties.iter() {
            self.live.remove(id);
        }
        let first_len = sectors.min(self.capacity - self.head);
        let mut extents = ExtentList::one(Extent {
            lbn: self.head,
            sectors: first_len,
        });
        if first_len < sectors {
            extents.push(Extent {
                lbn: 0,
                sectors: sectors - first_len,
            });
        }
        for e in &extents {
            self.ring.push_back(Region {
                start: e.lbn,
                sectors: e.sectors,
                entry,
            });
        }
        self.live.insert(entry, false);
        self.head = (self.head + sectors) % self.capacity;
        Ok(extents)
    }

    /// Appends `data_sectors` of payload plus `header_sectors` for the
    /// entry's mapping-table backup record in one sequential allocation.
    /// The returned extents cover the **data only** — the header rides
    /// at the tail of the same append (its write cost is part of the
    /// same sequential burst), but it is not addressable cached data.
    pub fn append_with_header(
        &mut self,
        data_sectors: u64,
        header_sectors: u64,
        entry: EntryId,
        casualties: &mut Vec<EntryId>,
    ) -> Result<ExtentList, AppendError> {
        let mut extents = self.append(data_sectors + header_sectors, entry, casualties)?;
        let mut left = header_sectors;
        while left > 0 {
            let last = extents
                .as_mut_slice()
                .last_mut()
                .expect("append returned extents");
            if last.sectors > left {
                last.sectors -= left;
                left = 0;
            } else {
                left -= last.sectors;
                extents.pop();
            }
        }
        Ok(extents)
    }

    /// The live regions, in ring order.
    fn live_regions(&self) -> impl Iterator<Item = &Region> + '_ {
        self.ring
            .iter()
            .filter(|r| self.live.contains_key(&r.entry))
    }

    /// Number of live resident sectors (diagnostics).
    pub fn resident_sectors(&self) -> u64 {
        self.live_regions().map(|r| r.sectors).sum()
    }

    /// Iterates live regions as `(entry, sectors)` pairs (auditing).
    pub fn resident_extents(&self) -> impl Iterator<Item = (EntryId, u64)> + '_ {
        self.live_regions().map(|r| (r.entry, r.sectors))
    }

    /// True when the entry's region is pinned against overwrite.
    pub fn is_protected(&self, entry: EntryId) -> bool {
        self.live.get(&entry) == Some(&true)
    }

    /// Iterates the protected entry ids (auditing).
    pub fn protected_ids(&self) -> impl Iterator<Item = EntryId> + '_ {
        self.live
            .iter()
            .filter(|(_, &pinned)| pinned)
            .map(|(&id, _)| id)
    }

    /// Ring index range of the regions intersecting `e`. Only valid
    /// while the head is at 0, where ring order is address order.
    fn touching(&self, e: &Extent) -> std::ops::Range<usize> {
        let mut lo = self.ring.partition_point(|r| r.start < e.lbn);
        if lo > 0 && self.ring[lo - 1].end() > e.lbn {
            lo -= 1;
        }
        lo..self.ring.partition_point(|r| r.start < e.end())
    }

    /// Re-registers an entry at explicit extents (crash recovery from
    /// the on-SSD mapping-table backup), on a log that has not appended
    /// yet. Stale regions under the extents are dropped; the call fails,
    /// changing nothing, if any extent is empty or overlaps a live
    /// region or another of the extents.
    pub fn reserve_at(&mut self, extents: &[Extent], entry: EntryId) -> Result<(), AppendError> {
        assert_eq!(self.head, 0, "reserve_at rebuilds a log before set_head");
        for (i, e) in extents.iter().enumerate() {
            assert!(e.end() <= self.capacity, "extent beyond the log");
            let clash = e.sectors == 0
                || extents[..i]
                    .iter()
                    .any(|p| p.lbn < e.end() && e.lbn < p.end())
                || self
                    .ring
                    .range(self.touching(e))
                    .any(|r| self.live.contains_key(&r.entry));
            if clash {
                return Err(AppendError::BlockedByDirty);
            }
        }
        for e in extents {
            let stale = self.touching(e);
            let at = stale.start;
            self.ring.drain(stale);
            self.ring.insert(
                at,
                Region {
                    start: e.lbn,
                    sectors: e.sectors,
                    entry,
                },
            );
        }
        self.live.insert(entry, false);
        Ok(())
    }

    /// Restores the append head (crash recovery) and re-sorts the ring
    /// from it. A stale region straddling the restored head is dropped;
    /// a live one cannot exist, because every append drops each region
    /// it touches.
    pub fn set_head(&mut self, head: Lbn) {
        assert!(head <= self.capacity, "head beyond the log");
        let (capacity, head) = (self.capacity, head % self.capacity);
        self.head = head;
        let live = &self.live;
        self.ring
            .retain(|r| !(r.start < head && head < r.end()) || live.contains_key(&r.entry));
        self.ring
            .make_contiguous()
            .sort_unstable_by_key(|r| ahead(head, capacity, r.start));
    }

    /// Structural invariants: the ring is in address order from the
    /// head, its regions lie inside the log without overlapping or
    /// straddling the head, and every live entry has a region.
    pub fn audit(&self) -> Result<(), String> {
        let mut reached = 0;
        let mut placed: FxHashSet<EntryId> = FxHashSet::default();
        for r in &self.ring {
            if r.sectors == 0 || r.end() > self.capacity {
                return Err(format!(
                    "log region {}+{} of entry {} lies outside the log",
                    r.start, r.sectors, r.entry
                ));
            }
            let from = ahead(self.head, self.capacity, r.start);
            if from < reached {
                return Err(format!(
                    "log region at {} of entry {} is out of address order or overlaps",
                    r.start, r.entry
                ));
            }
            reached = from + r.sectors;
            if reached > self.capacity {
                return Err(format!(
                    "log region at {} of entry {} straddles the head {}",
                    r.start, r.entry, self.head
                ));
            }
            if self.live.contains_key(&r.entry) {
                placed.insert(r.entry);
            }
        }
        if let Some(id) = self.live.keys().find(|id| !placed.contains(id)) {
            return Err(format!("live log entry {id} has no region"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::reference::BTreeLog;
    use super::*;
    use proptest::prelude::*;

    fn append(log: &mut CircularLog, sectors: u64, entry: EntryId) -> (ExtentList, Vec<EntryId>) {
        let mut casualties = Vec::new();
        let extents = log.append(sectors, entry, &mut casualties).unwrap();
        (extents, casualties)
    }

    #[test]
    fn appends_are_sequential() {
        let mut log = CircularLog::new(1000);
        let (a, _) = append(&mut log, 100, 1);
        let (b, _) = append(&mut log, 100, 2);
        assert_eq!(
            a,
            ExtentList::one(Extent {
                lbn: 0,
                sectors: 100
            })
        );
        assert_eq!(
            b,
            ExtentList::one(Extent {
                lbn: 100,
                sectors: 100
            })
        );
        assert_eq!(log.head(), 200);
    }

    #[test]
    fn wrap_splits_into_two_extents() {
        let mut log = CircularLog::new(100);
        append(&mut log, 80, 1);
        log.evict(1);
        let (ext, _) = append(&mut log, 40, 2);
        assert_eq!(
            ext,
            ExtentList::two(
                Extent {
                    lbn: 80,
                    sectors: 20
                },
                Extent {
                    lbn: 0,
                    sectors: 20
                }
            )
        );
        assert!(!ext.spilled(), "wrap must fit the inline capacity");
        assert_eq!(log.head(), 20);
        log.audit().unwrap();
    }

    #[test]
    fn wrap_overwrites_clean_entries_and_reports_them() {
        let mut log = CircularLog::new(100);
        append(&mut log, 50, 1); // [0,50)
        append(&mut log, 50, 2); // [50,100), head wraps to 0
        let (ext, evicted) = append(&mut log, 30, 3); // overwrites part of 1
        assert_eq!(
            ext,
            ExtentList::one(Extent {
                lbn: 0,
                sectors: 30
            })
        );
        assert_eq!(evicted, vec![1]);
        // Entry 1's remaining region is gone too.
        assert_eq!(log.resident_sectors(), 50 + 30);
        log.audit().unwrap();
    }

    #[test]
    fn dirty_data_blocks_the_append() {
        let mut log = CircularLog::new(100);
        append(&mut log, 50, 1);
        append(&mut log, 50, 2);
        log.protect(1);
        let mut casualties = vec![7];
        assert_eq!(
            log.append(30, 3, &mut casualties),
            Err(AppendError::BlockedByDirty)
        );
        assert!(casualties.is_empty());
        assert_eq!(log.head(), 0, "a blocked append changes nothing");
        // Cleaning unblocks it.
        log.unprotect(1);
        assert!(log.append(30, 3, &mut casualties).is_ok());
    }

    #[test]
    fn eviction_frees_space_logically() {
        let mut log = CircularLog::new(100);
        append(&mut log, 60, 1);
        assert_eq!(log.resident_sectors(), 60);
        log.evict(1);
        assert_eq!(log.resident_sectors(), 0);
        log.audit().unwrap();
    }

    #[test]
    fn oversized_append_rejected() {
        let mut log = CircularLog::new(100);
        assert_eq!(
            log.append(101, 1, &mut Vec::new()),
            Err(AppendError::TooLarge)
        );
    }

    #[test]
    fn protected_inflight_entry_survives_until_unprotect() {
        let mut log = CircularLog::new(64);
        append(&mut log, 32, 1);
        log.protect(1);
        append(&mut log, 32, 2); // fills the rest; head wraps
                                 // Next append would overwrite entry 1: blocked.
        assert_eq!(
            log.append(8, 3, &mut Vec::new()),
            Err(AppendError::BlockedByDirty)
        );
        log.unprotect(1);
        let (_, evicted) = append(&mut log, 8, 3);
        assert_eq!(evicted, vec![1]);
    }

    #[test]
    fn append_with_header_charges_but_hides_the_header() {
        let mut log = CircularLog::new(100);
        let data = log.append_with_header(4, 1, 1, &mut Vec::new()).unwrap();
        assert_eq!(data, ExtentList::one(Extent { lbn: 0, sectors: 4 }));
        // The head moved past the header sector too.
        assert_eq!(log.head(), 5);
        assert_eq!(log.resident_sectors(), 5);
    }

    #[test]
    fn append_with_header_trims_across_a_wrap() {
        let mut log = CircularLog::new(100);
        append(&mut log, 98, 1);
        log.evict(1);
        // 1 data sector lands at 98; the 2-sector header spans the wrap
        // ([99,100) + [0,1)) and is trimmed entirely from the extents.
        let data = log.append_with_header(1, 2, 2, &mut Vec::new()).unwrap();
        assert_eq!(
            data,
            ExtentList::one(Extent {
                lbn: 98,
                sectors: 1
            })
        );
        assert_eq!(log.head(), 1);
        assert_eq!(log.resident_sectors(), 3);
    }

    #[test]
    fn exact_fit_wraps_head_to_zero() {
        let mut log = CircularLog::new(100);
        append(&mut log, 100, 1);
        assert_eq!(log.head(), 0);
        // Appending again overwrites entry 1 (clean).
        let (_, evicted) = append(&mut log, 10, 2);
        assert_eq!(evicted, vec![1]);
    }

    #[test]
    fn reserve_at_drops_stale_space_and_rejects_live_overlap() {
        let mut log = CircularLog::new(100);
        let at = |lbn, sectors| [Extent { lbn, sectors }];
        log.reserve_at(&at(40, 20), 1).unwrap();
        log.reserve_at(&at(0, 10), 2).unwrap(); // out of address order
        assert_eq!(
            log.reserve_at(&at(55, 10), 3),
            Err(AppendError::BlockedByDirty)
        );
        log.evict(1);
        log.reserve_at(&at(55, 10), 3).unwrap(); // over 1's stale tail
        assert_eq!(log.resident_sectors(), 20);
        log.set_head(65);
        log.audit().unwrap();
        // The next append starts at the restored head, then wraps over
        // entry 2.
        let (ext, evicted) = append(&mut log, 40, 4);
        assert_eq!(
            ext,
            ExtentList::two(
                Extent {
                    lbn: 65,
                    sectors: 35
                },
                Extent { lbn: 0, sectors: 5 }
            )
        );
        assert_eq!(evicted, vec![2]);
        log.audit().unwrap();
    }

    #[test]
    fn set_head_drops_a_stale_region_under_the_head() {
        let mut log = CircularLog::new(100);
        log.reserve_at(
            &[Extent {
                lbn: 10,
                sectors: 20,
            }],
            1,
        )
        .unwrap();
        log.evict(1);
        log.set_head(15);
        log.audit().unwrap();
        let (_, evicted) = append(&mut log, 100, 2);
        assert!(evicted.is_empty());
    }

    #[test]
    fn audit_catches_a_live_entry_without_a_region() {
        let mut log = CircularLog::new(100);
        append(&mut log, 10, 1);
        log.live.insert(9, false);
        assert!(log.audit().unwrap_err().contains("entry 9"));
    }

    /// One step of the differential test, drawn as `(kind, size, header,
    /// pick)`: kinds 0–1 append `size` sectors under a fresh id (kind 1
    /// with a `header`-sector record), kinds 2–4 evict, protect or
    /// unprotect the `pick`-th id used so far. Sizes are clamped to the
    /// capacity.
    type Op = (u8, u64, u64, u64);

    fn ops(
        len: std::ops::Range<usize>,
    ) -> prop::collection::VecStrategy<(
        std::ops::Range<u8>,
        std::ops::Range<u64>,
        std::ops::Range<u64>,
        std::ops::Range<u64>,
    )> {
        prop::collection::vec((0u8..5, 1u64..40, 1u64..3, 0u64..64), len)
    }

    /// Applies `ops` to both logs and checks after every step that they
    /// return the same extents, sorted casualties and errors, and agree
    /// on the head and the resident sectors.
    fn drive(
        ring: &mut CircularLog,
        btree: &mut BTreeLog,
        ops: &[Op],
        next_id: &mut EntryId,
    ) -> Result<(), TestCaseError> {
        let capacity = ring.capacity();
        let mut casualties = Vec::new();
        for &(kind, size, header, pick) in ops {
            let id = *next_id;
            // Like the policy, never pin or evict an id before its append.
            let kind = if id == 0 { 0 } else { kind };
            let old = pick % id.max(1);
            match kind {
                0 => {
                    let n = size.min(capacity);
                    let want = btree.append(n, id);
                    let got = ring.append(n, id, &mut casualties);
                    prop_assert_eq!(got.map(|e| (e, casualties.clone())), want);
                    *next_id += 1;
                }
                1 => {
                    let header = header.min(capacity - 1);
                    let data = size.min(capacity - header);
                    let want = btree.append_with_header(data, header, id);
                    let got = ring.append_with_header(data, header, id, &mut casualties);
                    prop_assert_eq!(got.map(|e| (e, casualties.clone())), want);
                    *next_id += 1;
                }
                2 => {
                    ring.evict(old);
                    btree.evict(old);
                }
                3 => {
                    ring.protect(old);
                    btree.protect(old);
                }
                _ => {
                    ring.unprotect(old);
                    btree.unprotect(old);
                }
            }
            prop_assert_eq!(ring.head(), btree.head());
            prop_assert_eq!(ring.resident_sectors(), btree.resident_sectors());
            ring.audit().map_err(TestCaseError::fail)?;
        }
        Ok(())
    }

    proptest! {
        /// The ring answers exactly like the B-tree log it replaced,
        /// across wraps, exact fits, header-only second pieces and
        /// blocked appends.
        #[test]
        fn ring_matches_the_btree_log(capacity in 8u64..160, ops in ops(1..160)) {
            let mut ring = CircularLog::new(capacity);
            let mut btree = BTreeLog::new(capacity);
            drive(&mut ring, &mut btree, &ops, &mut 0)?;
        }

        /// Recovery: entries re-registered out of address order, some
        /// then evicted, the head restored, and appends run on across
        /// it — still in step with the B-tree log.
        #[test]
        fn recovered_ring_matches_the_btree_log(
            capacity in 16u64..160,
            cuts in prop::collection::vec(1u64..160, 1..12),
            order in prop::collection::vec((any::<u64>(), any::<bool>()), 12),
            head_pick in any::<u64>(),
            ops in ops(1..80),
        ) {
            // Cut [0, capacity) into consecutive pieces; every other
            // piece is a recovered entry, the rest free space.
            let mut bounds: Vec<u64> = cuts.into_iter().filter(|&c| c < capacity).collect();
            bounds.extend([0, capacity]);
            bounds.sort_unstable();
            bounds.dedup();
            let mut replay: Vec<(u64, bool, Extent)> = bounds
                .windows(2)
                .step_by(2)
                .zip(&order)
                .map(|(w, &(key, evict))| (key, evict, Extent { lbn: w[0], sectors: w[1] - w[0] }))
                .collect();
            replay.sort_by_key(|&(key, _, e)| (key, e.lbn));
            let mut ring = CircularLog::new(capacity);
            let mut btree = BTreeLog::new(capacity);
            let mut next_id = 0;
            for &(_, evict, e) in &replay {
                prop_assert_eq!(ring.reserve_at(&[e], next_id), btree.reserve_at(&[e], next_id));
                if evict {
                    ring.evict(next_id);
                    btree.evict(next_id);
                }
                next_id += 1;
            }
            // Restore the head anywhere but strictly inside a live
            // region, where no real snapshot has it.
            let heads: Vec<u64> = (0..capacity)
                .filter(|&h| !replay.iter().any(|&(_, evict, e)| !evict && e.lbn < h && h < e.end()))
                .collect();
            let head = heads[(head_pick % heads.len() as u64) as usize];
            ring.set_head(head);
            btree.set_head(head);
            ring.audit().map_err(TestCaseError::fail)?;
            drive(&mut ring, &mut btree, &ops, &mut next_id)?;
        }
    }
}
