//! Circular SSD log.
//!
//! iBridge writes all cached data "sequentially into a pre-created large
//! file that is maintained much like a log-based file system" — that is
//! what makes its SSD writes run at the device's *sequential* write
//! bandwidth (140 MB/s) instead of the random one (30 MB/s). This module
//! manages that file's space: an append head that advances through a
//! fixed region and wraps, overwriting the *stale or clean* data it runs
//! over. An append that would run over **dirty** (not yet written back)
//! data fails, and the caller serves the request at the disk instead;
//! the idle-time writeback daemon keeps the log clean enough that this
//! is rare.
//!
//! Because the head only ever overwrites the regions just ahead of it,
//! the log is a ring of regions in address order from the head: an
//! append pops regions off the front and pushes its own at the back.
//!
//! The log keeps no record of which entries are live. Every call that
//! needs it takes a `live` oracle from the owner's mapping table:
//! `live(id)` is `None` when no entry has the id (its regions are
//! stale space, reclaimed when the head next passes them) and
//! `Some(pinned)` otherwise, where pinned data must not be overwritten.
//! Evicting an entry is therefore just dropping it from the table.

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
/// // Nothing is cached yet: every region is stale.
/// let live = |_| None;
/// let extents = log.append(128, 0, &mut evicted, live).unwrap();
/// assert_eq!(extents[0].lbn, 0);
/// assert!(evicted.is_empty());
/// // Appends are strictly sequential — the SSD sees them at its
/// // sequential-write bandwidth.
/// let next = log.append(128, 1, &mut evicted, live).unwrap();
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

    /// Appends `sectors` at the head, wrapping if needed. On success,
    /// returns the allocated extents (1, or 2 when wrapping) and fills
    /// `casualties` with the ids, ascending, of the live clean entries
    /// that were overwritten: a partially overwritten entry is useless,
    /// so the caller must drop each one from its mapping table, which
    /// turns its remaining regions stale. A failed append changes
    /// nothing and leaves `casualties` empty.
    pub fn append(
        &mut self,
        sectors: u64,
        entry: EntryId,
        casualties: &mut Vec<EntryId>,
        live: impl Fn(EntryId) -> Option<bool>,
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
            match live(r.entry) {
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
        live: impl Fn(EntryId) -> Option<bool>,
    ) -> Result<ExtentList, AppendError> {
        let mut extents = self.append(data_sectors + header_sectors, entry, casualties, live)?;
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

    /// Number of live resident sectors (diagnostics).
    pub fn resident_sectors(&self, live: impl Fn(EntryId) -> Option<bool>) -> u64 {
        self.ring
            .iter()
            .filter(|r| live(r.entry).is_some())
            .map(|r| r.sectors)
            .sum()
    }

    /// True when one region written for `entry` holds all of `e`
    /// (auditing). O(log n): the ring is in address order from the head.
    pub fn holds(&self, entry: EntryId, e: &Extent) -> bool {
        let (head, capacity) = (self.head, self.capacity);
        let at = ahead(head, capacity, e.lbn);
        let i = self
            .ring
            .partition_point(|r| ahead(head, capacity, r.start) <= at);
        i > 0 && {
            let r = &self.ring[i - 1];
            r.entry == entry && r.start <= e.lbn && e.end() <= r.end()
        }
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
    pub fn reserve_at(
        &mut self,
        extents: &[Extent],
        entry: EntryId,
        live: impl Fn(EntryId) -> Option<bool>,
    ) -> Result<(), AppendError> {
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
                    .any(|r| live(r.entry).is_some());
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
        Ok(())
    }

    /// Restores the append head (crash recovery) and re-sorts the ring
    /// from it. A stale region straddling the restored head is dropped;
    /// a live one cannot exist, because every append drops each region
    /// it touches.
    pub fn set_head(&mut self, head: Lbn, live: impl Fn(EntryId) -> Option<bool>) {
        assert!(head <= self.capacity, "head beyond the log");
        let (capacity, head) = (self.capacity, head % self.capacity);
        self.head = head;
        self.ring
            .retain(|r| !(r.start < head && head < r.end()) || live(r.entry).is_some());
        self.ring
            .make_contiguous()
            .sort_unstable_by_key(|r| ahead(head, capacity, r.start));
    }

    /// Structural invariants: the ring is in address order from the
    /// head, and its regions lie inside the log without overlapping or
    /// straddling the head. That every live entry's data sits in its
    /// own regions is the owner's check ([`holds`](Self::holds)).
    pub fn audit(&self) -> Result<(), String> {
        let mut reached = 0;
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
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::reference::BTreeLog;
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

    /// The test side's stand-in for the mapping table: the live entry
    /// ids, each `true` while pinned. The tests update it as the policy
    /// updates its table.
    #[derive(Debug, Default)]
    struct Live(HashMap<EntryId, bool>);

    impl Live {
        fn oracle(&self) -> impl Fn(EntryId) -> Option<bool> + '_ {
            |id| self.0.get(&id).copied()
        }

        /// Records a successful append: the entry is live and clean,
        /// and its casualties are gone.
        fn appended(&mut self, entry: EntryId, casualties: &[EntryId]) {
            for id in casualties {
                self.0.remove(id);
            }
            self.0.insert(entry, false);
        }

        fn evict(&mut self, entry: EntryId) {
            self.0.remove(&entry);
        }

        /// Pins or unpins a live entry; an unknown id is ignored.
        fn pin(&mut self, entry: EntryId, pinned: bool) {
            if let Some(p) = self.0.get_mut(&entry) {
                *p = pinned;
            }
        }
    }

    fn append(
        log: &mut CircularLog,
        live: &mut Live,
        sectors: u64,
        entry: EntryId,
    ) -> (ExtentList, Vec<EntryId>) {
        let mut casualties = Vec::new();
        let extents = log
            .append(sectors, entry, &mut casualties, live.oracle())
            .unwrap();
        live.appended(entry, &casualties);
        (extents, casualties)
    }

    #[test]
    fn appends_are_sequential() {
        let (mut log, mut live) = (CircularLog::new(1000), Live::default());
        let (a, _) = append(&mut log, &mut live, 100, 1);
        let (b, _) = append(&mut log, &mut live, 100, 2);
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
        let (mut log, mut live) = (CircularLog::new(100), Live::default());
        append(&mut log, &mut live, 80, 1);
        live.evict(1);
        let (ext, _) = append(&mut log, &mut live, 40, 2);
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
        let (mut log, mut live) = (CircularLog::new(100), Live::default());
        append(&mut log, &mut live, 50, 1); // [0,50)
        append(&mut log, &mut live, 50, 2); // [50,100), head wraps to 0
        let (ext, evicted) = append(&mut log, &mut live, 30, 3); // overwrites part of 1
        assert_eq!(
            ext,
            ExtentList::one(Extent {
                lbn: 0,
                sectors: 30
            })
        );
        assert_eq!(evicted, vec![1]);
        // Entry 1's remaining region is gone too.
        assert_eq!(log.resident_sectors(live.oracle()), 50 + 30);
        log.audit().unwrap();
    }

    #[test]
    fn dirty_data_blocks_the_append() {
        let (mut log, mut live) = (CircularLog::new(100), Live::default());
        append(&mut log, &mut live, 50, 1);
        append(&mut log, &mut live, 50, 2);
        live.pin(1, true);
        let mut casualties = vec![7];
        assert_eq!(
            log.append(30, 3, &mut casualties, live.oracle()),
            Err(AppendError::BlockedByDirty)
        );
        assert!(casualties.is_empty());
        assert_eq!(log.head(), 0, "a blocked append changes nothing");
        // Cleaning unblocks it.
        live.pin(1, false);
        assert!(log.append(30, 3, &mut casualties, live.oracle()).is_ok());
    }

    #[test]
    fn eviction_frees_space_logically() {
        let (mut log, mut live) = (CircularLog::new(100), Live::default());
        append(&mut log, &mut live, 60, 1);
        assert_eq!(log.resident_sectors(live.oracle()), 60);
        live.evict(1);
        assert_eq!(log.resident_sectors(live.oracle()), 0);
        log.audit().unwrap();
    }

    #[test]
    fn oversized_append_rejected() {
        let mut log = CircularLog::new(100);
        assert_eq!(
            log.append(101, 1, &mut Vec::new(), |_| None),
            Err(AppendError::TooLarge)
        );
    }

    #[test]
    fn protected_inflight_entry_survives_until_unprotect() {
        let (mut log, mut live) = (CircularLog::new(64), Live::default());
        append(&mut log, &mut live, 32, 1);
        live.pin(1, true);
        append(&mut log, &mut live, 32, 2); // fills the rest; head wraps
                                            // Next append would overwrite entry 1: blocked.
        assert_eq!(
            log.append(8, 3, &mut Vec::new(), live.oracle()),
            Err(AppendError::BlockedByDirty)
        );
        live.pin(1, false);
        let (_, evicted) = append(&mut log, &mut live, 8, 3);
        assert_eq!(evicted, vec![1]);
    }

    #[test]
    fn append_with_header_charges_but_hides_the_header() {
        let (mut log, live) = (CircularLog::new(100), Live::default());
        let data = log
            .append_with_header(4, 1, 1, &mut Vec::new(), live.oracle())
            .unwrap();
        assert_eq!(data, ExtentList::one(Extent { lbn: 0, sectors: 4 }));
        // The head moved past the header sector too.
        assert_eq!(log.head(), 5);
        assert_eq!(log.resident_sectors(|_| Some(false)), 5);
    }

    #[test]
    fn append_with_header_trims_across_a_wrap() {
        let (mut log, mut live) = (CircularLog::new(100), Live::default());
        append(&mut log, &mut live, 98, 1);
        live.evict(1);
        // 1 data sector lands at 98; the 2-sector header spans the wrap
        // ([99,100) + [0,1)) and is trimmed entirely from the extents.
        let data = log
            .append_with_header(1, 2, 2, &mut Vec::new(), live.oracle())
            .unwrap();
        live.appended(2, &[]);
        assert_eq!(
            data,
            ExtentList::one(Extent {
                lbn: 98,
                sectors: 1
            })
        );
        assert_eq!(log.head(), 1);
        assert_eq!(log.resident_sectors(live.oracle()), 3);
    }

    #[test]
    fn exact_fit_wraps_head_to_zero() {
        let (mut log, mut live) = (CircularLog::new(100), Live::default());
        append(&mut log, &mut live, 100, 1);
        assert_eq!(log.head(), 0);
        // Appending again overwrites entry 1 (clean).
        let (_, evicted) = append(&mut log, &mut live, 10, 2);
        assert_eq!(evicted, vec![1]);
    }

    #[test]
    fn reserve_at_drops_stale_space_and_rejects_live_overlap() {
        let (mut log, mut live) = (CircularLog::new(100), Live::default());
        let at = |lbn, sectors| [Extent { lbn, sectors }];
        log.reserve_at(&at(40, 20), 1, live.oracle()).unwrap();
        live.appended(1, &[]);
        log.reserve_at(&at(0, 10), 2, live.oracle()).unwrap(); // out of address order
        live.appended(2, &[]);
        assert_eq!(
            log.reserve_at(&at(55, 10), 3, live.oracle()),
            Err(AppendError::BlockedByDirty)
        );
        live.evict(1);
        log.reserve_at(&at(55, 10), 3, live.oracle()).unwrap(); // over 1's stale tail
        live.appended(3, &[]);
        assert_eq!(log.resident_sectors(live.oracle()), 20);
        log.set_head(65, live.oracle());
        log.audit().unwrap();
        // The next append starts at the restored head, then wraps over
        // entry 2.
        let (ext, evicted) = append(&mut log, &mut live, 40, 4);
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
        let (mut log, live) = (CircularLog::new(100), Live::default());
        log.reserve_at(
            &[Extent {
                lbn: 10,
                sectors: 20,
            }],
            1,
            live.oracle(),
        )
        .unwrap();
        // Entry 1 is never entered as live: its region is stale.
        log.set_head(15, live.oracle());
        log.audit().unwrap();
        let (_, evicted) = append(&mut log, &mut Live::default(), 100, 2);
        assert!(evicted.is_empty());
    }

    #[test]
    fn holds_finds_an_entrys_own_regions_only() {
        let (mut log, mut live) = (CircularLog::new(100), Live::default());
        append(&mut log, &mut live, 80, 1);
        live.evict(1);
        append(&mut log, &mut live, 40, 2); // [80,100) + [0,20)
        let x = |lbn, sectors| Extent { lbn, sectors };
        assert!(log.holds(2, &x(80, 20)));
        assert!(log.holds(2, &x(0, 20)));
        assert!(log.holds(2, &x(85, 5)));
        assert!(!log.holds(2, &x(90, 20)), "extent crosses the wrap");
        assert!(!log.holds(1, &x(80, 20)), "region of another entry");
        assert!(!log.holds(1, &x(20, 60)), "a region run over goes whole");
        assert!(!log.holds(3, &x(20, 1)));
    }

    #[test]
    fn audit_catches_overlapping_regions() {
        let (mut log, mut live) = (CircularLog::new(100), Live::default());
        append(&mut log, &mut live, 10, 1);
        append(&mut log, &mut live, 10, 2);
        log.ring[1].start = 5;
        assert!(log.audit().unwrap_err().contains("entry 2"));
    }

    /// One step of the differential test, drawn as `(kind, size, header,
    /// pick)`: kinds 0–1 append `size` sectors under a fresh id (kind 1
    /// with a `header`-sector record), kinds 2–4 evict, protect or
    /// unprotect the `pick`-th id used so far. Sizes are clamped to the
    /// capacity.
    type Op = (u8, u64, u64, u64);

    /// The strategy drawing one [`Op`].
    type OpStrategy = (
        std::ops::Range<u8>,
        std::ops::Range<u64>,
        std::ops::Range<u64>,
        std::ops::Range<u64>,
    );

    fn ops(len: std::ops::Range<usize>) -> prop::collection::VecStrategy<OpStrategy> {
        prop::collection::vec((0u8..5, 1u64..40, 1u64..3, 0u64..64), len)
    }

    /// Applies `ops` to both logs and checks after every step that they
    /// return the same extents, sorted casualties and errors, and agree
    /// on the head and the resident sectors. The ring's liveness comes
    /// from `live`, which the harness updates as the policy updates its
    /// mapping table: appends enter their entry, casualties leave.
    fn drive(
        ring: &mut CircularLog,
        btree: &mut BTreeLog,
        live: &mut Live,
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
                    let got = ring.append(n, id, &mut casualties, live.oracle());
                    if got.is_ok() {
                        live.appended(id, &casualties);
                    }
                    prop_assert_eq!(got.map(|e| (e, casualties.clone())), want);
                    *next_id += 1;
                }
                1 => {
                    let header = header.min(capacity - 1);
                    let data = size.min(capacity - header);
                    let want = btree.append_with_header(data, header, id);
                    let got =
                        ring.append_with_header(data, header, id, &mut casualties, live.oracle());
                    if got.is_ok() {
                        live.appended(id, &casualties);
                    }
                    prop_assert_eq!(got.map(|e| (e, casualties.clone())), want);
                    *next_id += 1;
                }
                2 => {
                    live.evict(old);
                    btree.evict(old);
                }
                3 => {
                    live.pin(old, true);
                    btree.protect(old);
                }
                _ => {
                    live.pin(old, false);
                    btree.unprotect(old);
                }
            }
            prop_assert_eq!(ring.head(), btree.head());
            prop_assert_eq!(
                ring.resident_sectors(live.oracle()),
                btree.resident_sectors()
            );
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
            drive(&mut ring, &mut btree, &mut Live::default(), &ops, &mut 0)?;
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
            let mut live = Live::default();
            let mut next_id = 0;
            for &(_, evict, e) in &replay {
                let got = ring.reserve_at(&[e], next_id, live.oracle());
                if got.is_ok() {
                    live.appended(next_id, &[]);
                }
                prop_assert_eq!(got, btree.reserve_at(&[e], next_id));
                if evict {
                    live.evict(next_id);
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
            ring.set_head(head, live.oracle());
            btree.set_head(head);
            ring.audit().map_err(TestCaseError::fail)?;
            drive(&mut ring, &mut btree, &mut live, &ops, &mut next_id)?;
        }
    }
}
