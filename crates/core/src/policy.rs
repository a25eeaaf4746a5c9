//! The iBridge server-side policy.
//!
//! This is the paper's §II.B logic, end to end:
//!
//! 1. **Classification** — the client flags fragments and regular random
//!    requests (`ibridge_pvfs::layout`); everything else is bulk and
//!    always goes to the disk.
//! 2. **Return evaluation** — for each candidate, Eq. (1)/(2) give the
//!    return `T_ret` of serving it at the SSD; fragments on the
//!    currently-slowest sibling server get the Eq. (3) boost using the
//!    T values broadcast by the metadata server.
//! 3. **Admission** — positive-return writes are redirected into the
//!    circular SSD log (dirty); positive-return read misses are copied
//!    into the log after the disk read completes (pre-loading); read
//!    hits are served from the log.
//! 4. **Space management** — per-class byte quotas (dynamic, proportional
//!    to average returns, or static for the Fig. 12 baselines) with LRU
//!    eviction inside each class; the circular log keeps SSD writes
//!    sequential.
//! 5. **Writeback** — dirty entries are flushed to their home disk
//!    locations during quiet periods, sorted by home location to form
//!    long sequential disk writes.

use crate::log::{AppendError, CircularLog};
use crate::model::{fragment_return, DiskTimeModel};
use crate::partition::PartitionMode;
use crate::record::{self, LogRecord, RecordVerdict, SealedRecord};
use crate::seglog::SegmentedLog;
use crate::table::{Entry, EntryType, MappingTable};
use ibridge_des::fxhash::FxHashMap;
use ibridge_des::rng::splitmix64;
use ibridge_des::SimTime;
use ibridge_device::{bytes_to_sectors, DiskProfile, Lbn};
use ibridge_localfs::{ExtentList, FileHandle};
use ibridge_pvfs::{
    CachePolicy, CacheStats, EntryId, FlushId, FlushOp, LogCorruption, MaintStats, Placement,
    ReqClass, RestartReport, RotTarget, SubRequest,
};

/// Configuration of one server's iBridge instance.
#[derive(Debug, Clone)]
pub struct IBridgeConfig {
    /// This server's id (for Eq. 3 comparisons against siblings).
    pub server_id: usize,
    /// SSD partition used for caching, in bytes (paper default: 10 GB).
    pub ssd_capacity: u64,
    /// Partitioning between fragments and regular random requests.
    pub partition: PartitionMode,
    /// Apply the Eq. (3) striping-magnification boost (ablation knob).
    pub eq3: bool,
    /// Redirect positive-return writes into the SSD log (the full
    /// scheme). When false the cache is read-only: only post-read
    /// admissions populate it (ablation knob).
    pub redirect_writes: bool,
    /// Disk parameters for the Eq. (1) model.
    pub disk: DiskProfile,
    /// Size of one segment of the mapping-table backup, in encoded
    /// record bytes. Smaller segments give the compactor finer grain.
    pub segment_bytes: u64,
    /// Write an indexed checkpoint after this many backup appends
    /// (0 disables checkpointing — recovery then replays the whole
    /// backup, the pre-segmentation behaviour).
    pub checkpoint_every: u64,
}

impl IBridgeConfig {
    /// Paper defaults for a given server id: 10 GB SSD partition,
    /// dynamic partitioning, Eq. (3) enabled.
    pub fn paper_defaults(server_id: usize) -> Self {
        IBridgeConfig {
            server_id,
            ssd_capacity: 10 << 30,
            partition: PartitionMode::Dynamic,
            eq3: true,
            redirect_writes: true,
            disk: DiskProfile::hp_mm0500(),
            segment_bytes: 32 << 10,
            checkpoint_every: 1024,
        }
    }

    /// Same, with a custom cache size (Fig. 11 sweeps it).
    pub fn with_capacity(server_id: usize, ssd_capacity: u64) -> Self {
        IBridgeConfig {
            ssd_capacity,
            ..Self::paper_defaults(server_id)
        }
    }
}

/// The policy object owned by one data server.
#[derive(Debug)]
pub struct IBridgePolicy {
    cfg: IBridgeConfig,
    model: DiskTimeModel,
    log: CircularLog,
    table: MappingTable,
    t_table: Vec<f64>,
    stats: CacheStats,
    /// Return values remembered between `place` (decision) and
    /// `read_admission` (post-read insertion), keyed by the sub-request's
    /// `(file, offset, len)`.
    pending_admissions: FxHashMap<(FileHandle, u64, u64), f64>,
    /// Reused scratch for overlap invalidation (no per-write allocation).
    overlap_scratch: Vec<EntryId>,
    /// Reused scratch for the clean entries a log append overwrites.
    casualties: Vec<EntryId>,
    /// Set when the SSD device died: the policy runs disk-only from
    /// then on and the MDS drops this server from its broadcasts.
    degraded: bool,
    /// Sequence number of the next backup record appended to the log.
    next_log_seq: u64,
    /// The segmented mapping-table backup: where every record appended
    /// under `next_log_seq` lives until superseded and reclaimed.
    backup: SegmentedLog,
    /// Background log-maintenance counters (compaction, checkpoints,
    /// scrubbing), cumulative across restarts like `stats`.
    maint: MaintStats,
    /// Corruption scheduled against the on-SSD backup; applied to the
    /// backup image when the next restart's recovery fsck scans it.
    planned_damage: Vec<PlannedDamage>,
}

/// One scheduled hit against the on-SSD backup, keyed by the victim
/// record's log sequence number.
#[derive(Debug, Clone, Copy)]
enum PlannedDamage {
    /// The record is truncated mid-write.
    Tear { seq: u64 },
    /// One bit of the record flips silently. With `checkpoint` the hit
    /// lands on the checkpoint image's copy of the record; otherwise it
    /// prefers the log tail's copy.
    FlipBit {
        seq: u64,
        bit: u64,
        checkpoint: bool,
    },
}

/// Flips `bit` in the sealed record carrying `seq`, if present.
fn flip_in(records: &mut [SealedRecord], seq: u64, bit: u64) -> bool {
    if let Some(r) = records.iter_mut().find(|r| r.seq == seq) {
        r.flip_bit(bit);
        true
    } else {
        false
    }
}

impl IBridgePolicy {
    /// Creates a policy. Capacities below one sector disable caching
    /// entirely (the Fig. 11 "0 GB" point).
    pub fn new(cfg: IBridgeConfig) -> Self {
        let sectors = (cfg.ssd_capacity / ibridge_localfs::SECTOR_SIZE).max(1);
        IBridgePolicy {
            model: DiskTimeModel::new(cfg.disk.clone()),
            log: CircularLog::new(sectors),
            table: MappingTable::new(),
            t_table: Vec::new(),
            stats: CacheStats::default(),
            pending_admissions: FxHashMap::default(),
            overlap_scratch: Vec::new(),
            casualties: Vec::new(),
            degraded: false,
            next_log_seq: 0,
            backup: SegmentedLog::new(cfg.segment_bytes),
            maint: MaintStats::default(),
            planned_damage: Vec::new(),
            cfg,
        }
    }

    /// Cache enabled at all? (Fig. 11 sweeps capacity down to zero.)
    fn enabled(&self) -> bool {
        self.cfg.ssd_capacity >= 4096
    }

    fn class_of(sub: &SubRequest) -> Option<EntryType> {
        match &sub.class {
            ReqClass::Fragment { .. } => Some(EntryType::Fragment),
            ReqClass::Random => Some(EntryType::Random),
            ReqClass::Bulk => None,
        }
    }

    /// The return value of serving `sub` at the SSD, with the Eq. (3)
    /// boost for bottleneck fragments.
    fn return_of(&self, sub: &SubRequest, disk_lbn: Lbn) -> f64 {
        let base = self.model.ret(disk_lbn, sub.len);
        match (&sub.class, self.cfg.eq3) {
            (ReqClass::Fragment { siblings }, true) => {
                fragment_return(base, self.model.value(), sub.len, siblings, &self.t_table)
            }
            _ => base,
        }
    }

    /// Enforces the class quota, evicting clean LRU entries of `typ`.
    /// Returns false if the request can never fit.
    fn make_room(&mut self, typ: EntryType, need_bytes: u64) -> bool {
        let quota = self.cfg.partition.quota(
            typ,
            self.cfg.ssd_capacity,
            self.table.usage(EntryType::Fragment),
            self.table.usage(EntryType::Random),
        );
        if need_bytes > quota {
            return false;
        }
        while self.table.usage(typ).bytes + need_bytes > quota {
            let Some(victim) = self.table.lru_victim(typ) else {
                return false; // remainder is dirty/pinned
            };
            self.drop_entry(victim);
            self.stats.evictions += 1;
        }
        true
    }

    /// Drops an entry from the table; its log regions go stale with it.
    fn drop_entry(&mut self, id: EntryId) {
        if let Some(e) = self.table.remove(id) {
            self.retire_record(&e);
        }
    }

    /// Sectors the on-SSD backup record costs per appended entry. The
    /// record format pins records of up to two extents (all a circular
    /// append can produce) within one sector.
    fn record_sectors() -> u64 {
        record::header_sectors(2)
    }

    /// Appends a backup record to the segmented log under a fresh
    /// sequence number, returning it.
    fn backup_append(&mut self, mut rec: LogRecord) -> u64 {
        let seq = self.next_log_seq;
        self.next_log_seq += 1;
        rec.seq = seq;
        self.maint.records_appended += 1;
        self.maint.backup_bytes += LogRecord::encoded_len(rec.extents.len()) as u64;
        if self.backup.append(rec) {
            self.maint.segments_sealed += 1;
        }
        seq
    }

    /// The backup record describing a table entry as it stands now.
    fn entry_record(e: &Entry) -> LogRecord {
        LogRecord {
            seq: e.log_seq,
            entry: e.id,
            file: e.file,
            offset: e.offset,
            len: e.len,
            typ: e.typ,
            ret: e.ret,
            dirty: e.dirty,
            tombstone: false,
            extents: e.extents.clone(),
        }
    }

    /// Retires a dropped entry's backup record: marks it dead for the
    /// compactor and appends a tombstone naming the entry, so recovery
    /// resurrects none of its records — not even a superseded one whose
    /// successor rotted. Pending entries have no durable record.
    fn retire_record(&mut self, e: &Entry) {
        if e.pending || !self.enabled() {
            return;
        }
        self.backup.kill(e.log_seq);
        self.backup_append(LogRecord {
            seq: 0,
            entry: e.id,
            file: FileHandle(0),
            offset: 0,
            len: 0,
            typ: EntryType::Fragment,
            ret: 0.0,
            dirty: false,
            tombstone: true,
            extents: ExtentList::new(),
        });
        self.maint.tombstones += 1;
    }

    /// Reserves log space for `len` bytes plus the entry's backup
    /// record under a fresh entry id. Returns the id and the data
    /// extents; the caller appends the backup record once the entry's
    /// fields are settled.
    fn reserve(&mut self, typ: EntryType, len: u64) -> Option<(EntryId, ExtentList)> {
        if !self.make_room(typ, len) {
            return None;
        }
        let id = self.table.next_id();
        let data_sectors = bytes_to_sectors(len);
        let mut casualties = std::mem::take(&mut self.casualties);
        let table = &self.table;
        let placed = self.log.append_with_header(
            data_sectors,
            Self::record_sectors(),
            id,
            &mut casualties,
            |e| table.pinned(e),
        );
        for &c in &casualties {
            if let Some(e) = self.table.remove(c) {
                self.stats.evictions += 1;
                self.retire_record(&e);
            }
        }
        self.casualties = casualties;
        match placed {
            Ok(extents) => Some((id, extents)),
            Err(AppendError::TooLarge | AppendError::BlockedByDirty) => None,
        }
    }

    /// Resolves overlaps between an incoming write and existing entries:
    /// fully-covered entries are superseded and dropped; partially
    /// overlapped ones are dropped as well, with dirty ones counted (the
    /// workloads in the paper do not overlap in-flight ranges; this path
    /// preserves table consistency for those that do).
    fn invalidate_overlaps(&mut self, sub: &SubRequest) {
        let mut ids = std::mem::take(&mut self.overlap_scratch);
        ids.clear();
        self.table
            .find_overlaps_into(sub.file, sub.offset, sub.len, &mut ids);
        for &id in &ids {
            self.drop_entry(id);
            self.stats.evictions += 1;
        }
        self.overlap_scratch = ids;
    }
}

/// Durable cache state, as written to the on-SSD mapping-table backup:
/// one sealed, checksummed record per non-pending entry, in log
/// sequence order, plus the log geometry.
///
/// The paper: "To ensure reliability, the dirty entries of the mapping
/// table are immediately updated on the SSD with the write requests to
/// the SSD" — so after a crash, every entry whose SSD write completed
/// (including dirty ones: their data and table records are on flash) is
/// recoverable; entries whose admission write was still in flight are
/// not.
#[derive(Debug, Clone)]
pub struct PersistentState {
    records: Vec<SealedRecord>,
    checkpoint: Option<SealedCheckpoint>,
    log_head: Lbn,
    log_capacity_sectors: u64,
    next_seq: u64,
}

/// The on-media image of the indexed checkpoint: one sealed record per
/// entry the image held, plus the newest sequence number it covers.
#[derive(Debug, Clone)]
pub struct SealedCheckpoint {
    /// Tail records with `seq <= covers_seq` are already reflected in
    /// the image; recovery skips them without verifying.
    pub covers_seq: u64,
    /// Sealed image records, ascending `seq`.
    pub records: Vec<SealedRecord>,
}

impl PersistentState {
    /// The sealed backup records of the log tail, in log order.
    pub fn records(&self) -> &[SealedRecord] {
        &self.records
    }

    /// Mutable access to the records — fault injection and tests
    /// corrupt the on-media image through this.
    pub fn records_mut(&mut self) -> &mut Vec<SealedRecord> {
        &mut self.records
    }

    /// The checkpoint image, if one was retained.
    pub fn checkpoint(&self) -> Option<&SealedCheckpoint> {
        self.checkpoint.as_ref()
    }
}

impl IBridgePolicy {
    /// Snapshots the durable cache state: everything the segmented
    /// on-SSD backup holds on media — the checkpoint image (if any) and
    /// the log tail in sequence order, *including* superseded records
    /// whose segments have not been reclaimed yet (their tombstones or
    /// newer copies follow later in the tail, exactly as recovery will
    /// see them).
    pub fn snapshot(&self) -> PersistentState {
        let records = self
            .backup
            .media_records()
            .iter()
            .map(LogRecord::seal)
            .collect();
        let checkpoint = self.backup.checkpoint().map(|cp| SealedCheckpoint {
            covers_seq: cp.covers_seq,
            records: cp.records.iter().map(LogRecord::seal).collect(),
        });
        PersistentState {
            records,
            checkpoint,
            log_head: self.log.head(),
            log_capacity_sectors: self.log.capacity(),
            next_seq: self.next_log_seq,
        }
    }

    /// Structural sanity of a decoded record against the log geometry:
    /// a genuine record describes a non-empty byte range that fits a
    /// mapping-table entry (under 4 GiB) and the offset space, carries a
    /// finite return, and its non-empty extents sit inside the log and
    /// cover exactly its data sectors. A record with a valid CRC can
    /// still hold any bit pattern, so the arithmetic is checked.
    fn record_is_placeable(rec: &LogRecord, capacity_sectors: u64) -> bool {
        let sectors = rec.extents.iter().try_fold(0u64, |sum, e| {
            let end = e.lbn.checked_add(e.sectors)?;
            if e.sectors == 0 || end > capacity_sectors {
                return None;
            }
            sum.checked_add(e.sectors)
        });
        rec.len > 0
            && u32::try_from(rec.len).is_ok()
            && rec.offset.checked_add(rec.len).is_some()
            && rec.ret.is_finite()
            && !rec.extents.is_empty()
            && sectors == Some(bytes_to_sectors(rec.len))
    }

    /// Replays one verified record into the recovering policy. Returns
    /// false, replaying nothing, when the record is inconsistent with
    /// the log geometry and must be quarantined.
    ///
    /// `ids` maps the entry ids the records carry to the ids replay gave
    /// them. A tombstone kills the newest replay of its entry (if any);
    /// a normal record supersedes whatever older entries overlap its
    /// range — the segmented log legitimately carries an old copy and
    /// its replacement until the old segment is reclaimed, and replaying
    /// in sequence order makes the newest copy win.
    fn replay_record(&mut self, ids: &mut FxHashMap<EntryId, EntryId>, rec: &LogRecord) -> bool {
        if rec.tombstone {
            if rec.len != 0 || !rec.extents.is_empty() {
                return false;
            }
            if let Some(id) = ids.remove(&rec.entry) {
                self.table.remove(id);
            }
            return true;
        }
        if !Self::record_is_placeable(rec, self.log.capacity()) {
            return false;
        }
        let mut overlaps = std::mem::take(&mut self.overlap_scratch);
        overlaps.clear();
        self.table
            .find_overlaps_into(rec.file, rec.offset, rec.len, &mut overlaps);
        for &id in &overlaps {
            self.table.remove(id);
        }
        self.overlap_scratch = overlaps;
        let id = self.table.next_id();
        let table = &self.table;
        if self
            .log
            .reserve_at(&rec.extents, id, |e| table.pinned(e))
            .is_err()
        {
            // Overlapping log residency — provably inconsistent.
            return false;
        }
        self.table.insert(
            id,
            rec.file,
            rec.offset,
            rec.len,
            rec.extents.clone(),
            rec.typ,
            rec.ret,
            rec.dirty,
            false,
            rec.seq,
        );
        ids.insert(rec.entry, id);
        true
    }

    /// Rebuilds a policy from a durable snapshot via a recovery fsck
    /// (server restart with a warm SSD). One scan reads the checkpoint
    /// image, then the log tail, in sequence order:
    ///
    /// 1. Tail records the checkpoint covers are **skipped without
    ///    verification** — restart work is O(appends since the last
    ///    checkpoint), not O(log).
    /// 2. Every other record's CRC and structure are verified; torn and
    ///    corrupt records are quarantined.
    /// 3. Intact records must keep strict sequence continuity: image
    ///    records are covered entries, never tombstones; tail records
    ///    follow the image's cover and precede the append cursor.
    /// 4. Tombstones retire the entry they name, newer range copies
    ///    supersede older ones, records inconsistent with the log
    ///    geometry are quarantined.
    /// 5. Intact clean entries are then deliberately invalidated — their
    ///    home-disk copies are authoritative. Dirty entries survive and
    ///    are queued for writeback again.
    ///
    /// The recovered policy starts from a fresh bootstrap checkpoint of
    /// whatever survived, so the next restart's tail is empty. The
    /// report leaves `pending_entries_dropped` and `dirty_bytes_lost` at
    /// 0: they compare against the table before the crash, which only
    /// [`CachePolicy::server_restart`] has.
    pub fn recover_with_report(
        cfg: IBridgeConfig,
        state: &PersistentState,
    ) -> (Self, RestartReport) {
        let mut p = IBridgePolicy::new(cfg);
        assert_eq!(
            p.log.capacity(),
            state.log_capacity_sectors,
            "recovering onto a different SSD partition size"
        );
        let mut rep = RestartReport::default();
        let mut ids: FxHashMap<EntryId, EntryId> = FxHashMap::default();
        let covers = state.checkpoint.as_ref().map(|c| c.covers_seq);
        let image = state.checkpoint.as_ref().map_or(&[][..], |c| &c.records);
        let tail = state.records.iter().map(|r| (false, r));
        // The newest sequence number accepted so far; the tail's floor
        // starts at the image's cover.
        let mut floor: Option<u64> = None;
        for (in_image, sealed) in image.iter().map(|r| (true, r)).chain(tail) {
            // The sealed header carries the sequence number in the
            // clear, so covered tail records cost no CRC pass.
            if !in_image && covers.is_some_and(|c| sealed.seq <= c) {
                rep.records_skipped += 1;
                continue;
            }
            rep.records_scanned += 1;
            rep.image_records += u64::from(in_image);
            let rec = match record::verify(sealed) {
                RecordVerdict::Intact(rec) => rec,
                RecordVerdict::Torn => {
                    rep.records_torn += 1;
                    rep.records_quarantined += 1;
                    continue;
                }
                RecordVerdict::Corrupt => {
                    rep.records_corrupt += 1;
                    rep.records_quarantined += 1;
                    continue;
                }
            };
            // Sequence continuity: strictly increasing; the image holds
            // covered entries only, never tombstones; the tail stays
            // below the append cursor the backup itself claims.
            let in_window = if in_image {
                !rec.tombstone && Some(rec.seq) <= covers
            } else {
                floor = floor.max(covers);
                rec.seq < state.next_seq
            };
            if !in_window || floor.is_some_and(|f| rec.seq <= f) {
                rep.seq_breaks += 1;
                rep.records_quarantined += 1;
                continue;
            }
            floor = Some(rec.seq);
            if !p.replay_record(&mut ids, &rec) {
                rep.records_quarantined += 1;
            }
        }

        // Intact clean entries were replayed above (tombstones and newer
        // copies need them resolvable), but their home-disk copies are
        // authoritative — drop them now.
        let mut clean: Vec<EntryId> = p
            .table
            .entries()
            .filter(|e| !e.dirty)
            .map(|e| e.id)
            .collect();
        clean.sort_unstable();
        for id in clean {
            if p.table.remove(id).is_some() {
                rep.clean_entries_dropped += 1;
            }
        }
        for e in p.table.entries() {
            if e.dirty {
                rep.dirty_entries_kept += 1;
                rep.dirty_bytes_kept += e.len;
            }
        }
        let table = &p.table;
        p.log.set_head(state.log_head, |e| table.pinned(e));
        p.next_log_seq = state.next_seq;
        // Bootstrap checkpoint: the survivors become the image, so the
        // next restart replays an empty tail.
        if p.next_log_seq > 0 {
            p.write_checkpoint();
            p.backup.reclaim(); // fresh log: nothing was condemned
        }
        (p, rep)
    }

    /// Writes the periodic indexed checkpoint: the full mapping-table
    /// image (non-pending entries, ascending sequence number) covering
    /// everything appended so far. Installing it condemns every
    /// retained segment; the next barrier reclaims them. Public so the
    /// `logmaint` experiment can pin recovery right after a checkpoint,
    /// when covered tail records are skipped unverified.
    pub fn write_checkpoint(&mut self) {
        let mut durable: Vec<&Entry> = self.table.entries().filter(|e| !e.pending).collect();
        durable.sort_by_key(|e| e.log_seq);
        let image: Vec<LogRecord> = durable.iter().map(|e| Self::entry_record(e)).collect();
        self.maint.checkpoints += 1;
        self.maint.checkpoint_records += image.len() as u64;
        self.maint.checkpoint_bytes += image
            .iter()
            .map(|r| LogRecord::encoded_len(r.extents.len()) as u64)
            .sum::<u64>();
        self.backup.install_checkpoint(image, self.next_log_seq - 1);
    }

    /// Compacts one mostly-garbage segment: condemns it and rewrites
    /// its live records (fresh sequence numbers) into the open segment.
    /// Live tombstones are rewritten too — their targets may still sit
    /// on unreclaimed media that a crash would otherwise resurrect.
    fn compact_segment(&mut self, idx: usize) {
        let live = self.backup.condemn(idx);
        self.maint.segments_compacted += 1;
        for rec in live {
            let id = rec.entry;
            let tomb = rec.tombstone;
            let bytes = LogRecord::encoded_len(rec.extents.len()) as u64;
            let seq = self.backup_append(rec);
            self.maint.records_rewritten += 1;
            self.maint.rewrite_bytes += bytes;
            if !tomb {
                self.table.set_log_seq(id, seq);
            }
        }
    }

    /// Scrubs the next cold segment: re-reads every record, verifying
    /// CRCs. Pending bit-rot against a live record of the scanned
    /// segment is caught and rewritten in place — a repair; damage
    /// against the checkpoint image is out of the scrubber's reach.
    fn scrub_step(&mut self) {
        let Some(idx) = self.backup.scrub_next() else {
            return;
        };
        self.maint.scrub_segments += 1;
        self.maint.scrub_records += self.backup.segment(idx).records().len() as u64;
        if self.planned_damage.is_empty() {
            return;
        }
        let seg = self.backup.segment(idx);
        let before = self.planned_damage.len();
        self.planned_damage.retain(|d| {
            !matches!(d, PlannedDamage::FlipBit { seq, checkpoint: false, .. }
                if seg.live_records().any(|r| r.seq == *seq))
        });
        self.maint.scrub_repairs += (before - self.planned_damage.len()) as u64;
    }

    /// Cross-checks the policy's live state: the mapping table's, the
    /// backup's and the data log's own invariants, and every entry's
    /// data extents resident in log regions written for that entry. The
    /// table is the log's only record of liveness and pinning, so the
    /// two cannot disagree about either.
    pub fn audit(&self) -> Result<(), String> {
        self.table.audit()?;
        self.backup.audit()?;
        self.log.audit()?;
        if self.enabled() {
            // Every non-pending entry's backup record must be findable:
            // live on the tail, or inside the checkpoint image.
            for e in self.table.entries() {
                if e.pending {
                    continue;
                }
                let in_tail = self.backup.is_live(e.log_seq);
                let in_ckpt = self.backup.checkpoint().is_some_and(|cp| {
                    cp.records
                        .binary_search_by_key(&e.log_seq, |r| r.seq)
                        .is_ok()
                });
                if !in_tail && !in_ckpt {
                    return Err(format!(
                        "entry {} has no backup record for seq {}",
                        e.id, e.log_seq
                    ));
                }
            }
            // And every live non-tombstone tail record must describe a
            // current entry (otherwise a stale record could resurrect).
            for i in 0..self.backup.retained_segments() {
                for r in self.backup.segment(i).live_records() {
                    if r.tombstone {
                        continue;
                    }
                    match self.table.get(r.entry) {
                        Some(e) if !e.pending && e.log_seq == r.seq => {}
                        _ => {
                            return Err(format!(
                                "live backup record seq {} orphaned (entry {})",
                                r.seq, r.entry
                            ))
                        }
                    }
                }
            }
        }
        for e in self.table.entries() {
            if let Some(x) = e.extents.iter().find(|x| !self.log.holds(e.id, x)) {
                return Err(format!(
                    "entry {} extent {}+{} is not in a log region of its own",
                    e.id, x.lbn, x.sectors
                ));
            }
        }
        Ok(())
    }
}

impl CachePolicy for IBridgePolicy {
    fn place(&mut self, _now: SimTime, sub: &SubRequest, disk_lbn: Lbn) -> Placement {
        let candidate_class = Self::class_of(sub);
        if !self.enabled() {
            self.model.serve_disk(disk_lbn, sub.len);
            self.stats.bytes_disk += sub.len;
            return Placement::Disk {
                admit_after_read: false,
            };
        }
        if sub.dir.is_read() {
            if let Some(entry) = self.table.lookup_covering(sub.file, sub.offset, sub.len) {
                let extents = entry.slice(sub.offset - entry.offset, sub.len);
                let id = entry.id;
                match entry.typ {
                    EntryType::Fragment => self.stats.fragment_read_hits += 1,
                    EntryType::Random => self.stats.random_read_hits += 1,
                }
                self.table.touch(id);
                self.model.serve_ssd();
                self.stats.read_hits += 1;
                self.stats.bytes_ssd += sub.len;
                return Placement::Ssd { extents };
            }
            self.stats.read_misses += 1;
            match candidate_class {
                Some(EntryType::Fragment) => self.stats.fragment_read_misses += 1,
                Some(EntryType::Random) => self.stats.random_read_misses += 1,
                None => {}
            }
            let admit = candidate_class.is_some() && {
                let ret = self.return_of(sub, disk_lbn);
                if ret > 0.0 {
                    self.pending_admissions
                        .insert((sub.file, sub.offset, sub.len), ret);
                    true
                } else {
                    false
                }
            };
            self.model.serve_disk(disk_lbn, sub.len);
            self.stats.bytes_disk += sub.len;
            Placement::Disk {
                admit_after_read: admit,
            }
        } else {
            // Write path: resolve overlaps first for table consistency.
            self.invalidate_overlaps(sub);
            if let (Some(typ), true) = (candidate_class, self.cfg.redirect_writes) {
                let ret = self.return_of(sub, disk_lbn);
                if ret > 0.0 {
                    if let Some((id, extents)) = self.reserve(typ, sub.len) {
                        let seq = self.backup_append(LogRecord {
                            seq: 0,
                            entry: id,
                            file: sub.file,
                            offset: sub.offset,
                            len: sub.len,
                            typ,
                            ret,
                            dirty: true,
                            tombstone: false,
                            extents: extents.clone(),
                        });
                        self.table.insert(
                            id,
                            sub.file,
                            sub.offset,
                            sub.len,
                            extents.clone(),
                            typ,
                            ret,
                            true,  // dirty
                            false, // servable immediately
                            seq,
                        );
                        self.model.serve_ssd();
                        self.stats.redirected_writes += 1;
                        self.stats.bytes_ssd += sub.len;
                        self.stats.appended_bytes += (bytes_to_sectors(sub.len)
                            + Self::record_sectors())
                            * ibridge_localfs::SECTOR_SIZE;
                        return Placement::Ssd { extents };
                    }
                    self.stats.admission_failures += 1;
                }
            }
            self.model.serve_disk(disk_lbn, sub.len);
            self.stats.bytes_disk += sub.len;
            Placement::Disk {
                admit_after_read: false,
            }
        }
    }

    fn read_admission(&mut self, _now: SimTime, sub: &SubRequest) -> Option<(EntryId, ExtentList)> {
        let typ = Self::class_of(sub)?;
        let ret = self
            .pending_admissions
            .remove(&(sub.file, sub.offset, sub.len))
            .unwrap_or(0.0);
        // The range may have been cached meanwhile (e.g. by a sibling
        // admission); never double-cache.
        if self.table.has_overlap(sub.file, sub.offset, sub.len) {
            return None;
        }
        match self.reserve(typ, sub.len) {
            Some((id, extents)) => {
                // Pending entries have no durable backup record yet —
                // it is appended when the admission write completes.
                self.table.insert(
                    id,
                    sub.file,
                    sub.offset,
                    sub.len,
                    extents.clone(),
                    typ,
                    ret,
                    false,    // clean: disk already has the data
                    true,     // pending until the SSD write completes
                    u64::MAX, // no backup record yet
                );
                self.stats.admissions += 1;
                match typ {
                    EntryType::Fragment => self.stats.fragment_admissions += 1,
                    EntryType::Random => self.stats.random_admissions += 1,
                }
                self.stats.appended_bytes += (bytes_to_sectors(sub.len) + Self::record_sectors())
                    * ibridge_localfs::SECTOR_SIZE;
                Some((id, extents))
            }
            None => {
                self.stats.admission_failures += 1;
                None
            }
        }
    }

    fn admission_complete(&mut self, _now: SimTime, entry: EntryId) {
        // The entry may have been dropped while the write was in
        // flight (overlap invalidation, SSD loss, restart) — tolerate.
        let Some(e) = self.table.get(entry) else {
            return;
        };
        if !e.pending {
            return;
        }
        // The SSD write finished: the entry becomes durable, so its
        // backup record goes to the segmented log now.
        let rec = Self::entry_record(e);
        self.table.activate(entry);
        let seq = self.backup_append(rec);
        self.table.set_log_seq(entry, seq);
    }

    fn flush_batch(&mut self, _now: SimTime, max_bytes: u64) -> Vec<FlushOp> {
        let batch = self.table.dirty_batch(max_bytes);
        batch
            .into_iter()
            .map(|id| {
                let e = self.table.start_flush(id).expect("picked entry exists");
                FlushOp {
                    id,
                    file: e.file,
                    offset: e.offset,
                    len: e.len,
                    ssd_extents: e.extents.clone(),
                }
            })
            .collect()
    }

    fn flush_complete(&mut self, _now: SimTime, id: FlushId) {
        // A flush is named by its entry. An entry that is gone or not
        // flushing is tolerated: an overlapping write can retire the
        // entry mid-flush, and an in-flight flush write can complete
        // after an SSD loss already discarded the table.
        if !self.table.get(id).is_some_and(|e| e.flushing) {
            return;
        }
        // The disk copy is current again, so the entry's data is no
        // longer pinned in the log: supersede the dirty backup record
        // with a clean one (the old copy becomes compactable garbage).
        let e = self.table.mark_clean(id).expect("flushed entry exists");
        let old_seq = e.log_seq;
        let rec = Self::entry_record(e);
        self.backup.kill(old_seq);
        let seq = self.backup_append(rec);
        self.table.set_log_seq(id, seq);
        self.maint.supersedes += 1;
    }

    fn report_t(&self) -> f64 {
        self.model.value()
    }

    fn receive_broadcast(&mut self, t_values: &[f64]) {
        self.t_table.clear();
        self.t_table.extend_from_slice(t_values);
    }

    fn dirty_bytes(&self) -> u64 {
        self.table.dirty_bytes()
    }

    fn stats(&self) -> CacheStats {
        let mut s = self.stats;
        s.dirty_bytes = self.table.dirty_bytes();
        s.cached_fragment_bytes = self.table.usage(EntryType::Fragment).bytes;
        s.cached_random_bytes = self.table.usage(EntryType::Random).bytes;
        s
    }

    fn server_restart(&mut self, _now: SimTime) -> RestartReport {
        if !self.enabled() {
            self.planned_damage.clear();
            return RestartReport::default();
        }
        // What the on-SSD backup holds. Scheduled corruption lands on
        // the backup image before the fsck sees it — exactly what the
        // recovery scan exists to catch.
        let mut state = self.snapshot();
        for damage in std::mem::take(&mut self.planned_damage) {
            match damage {
                PlannedDamage::Tear { seq } => {
                    if let Some(r) = state.records.iter_mut().find(|r| r.seq == seq) {
                        r.tear();
                    }
                }
                PlannedDamage::FlipBit {
                    seq,
                    bit,
                    checkpoint,
                } => {
                    // The same sequence number can sit on the tail and
                    // in the checkpoint image; the target flag decides
                    // which copy rots first.
                    if checkpoint {
                        let hit = match state.checkpoint.as_mut() {
                            Some(c) => flip_in(&mut c.records, seq, bit),
                            None => false,
                        };
                        if !hit {
                            flip_in(&mut state.records, seq, bit);
                        }
                    } else if !flip_in(&mut state.records, seq, bit) {
                        if let Some(c) = state.checkpoint.as_mut() {
                            flip_in(&mut c.records, seq, bit);
                        }
                    }
                }
            }
        }
        let (mut fresh, mut report) = IBridgePolicy::recover_with_report(self.cfg.clone(), &state);
        // The table before the crash: pending admissions were never
        // durable, and dirty entries all were (redirected writes are
        // never pending), so a dirty range the fsck does not bring back
        // (it keeps dirty entries only) was lost to corruption — the
        // durability cost. Matched by range, not record: compaction
        // renumbers records, and a copy on condemned media can stand in
        // for a torn rewrite.
        for e in self.table.entries() {
            if e.pending {
                report.pending_entries_dropped += 1;
            } else if e.dirty
                && fresh
                    .table
                    .lookup_covering(e.file, e.offset, e.len)
                    .is_none()
            {
                report.dirty_bytes_lost += e.len;
            }
        }
        // Cumulative counters describe the run, not the process: carry
        // them across the restart.
        fresh.stats = self.stats;
        fresh.maint = self.maint;
        *self = fresh;
        report
    }

    fn ssd_lost(&mut self, _now: SimTime) -> u64 {
        self.planned_damage.clear();
        if !self.enabled() {
            self.degraded = true;
            return 0;
        }
        let lost = self.table.dirty_bytes();
        self.table = MappingTable::new();
        self.log = CircularLog::new(1);
        self.backup = SegmentedLog::new(self.cfg.segment_bytes);
        self.pending_admissions.clear();
        // Zero capacity disables every cache path in `place`; the
        // policy keeps answering, but everything goes to the disk.
        self.cfg.ssd_capacity = 0;
        self.degraded = true;
        lost
    }

    fn is_degraded(&self) -> bool {
        self.degraded
    }

    fn inject_corruption(&mut self, _now: SimTime, corruption: LogCorruption) -> u64 {
        if !self.enabled() {
            return 0;
        }
        // Victims are picked eagerly at fault time so the damage is a
        // deterministic function of (state, corruption) regardless of
        // when — or whether — a later restart scans the log.
        let mut seqs: Vec<u64> = self
            .table
            .entries()
            .filter(|e| !e.pending)
            .map(|e| e.log_seq)
            .collect();
        seqs.sort_unstable();
        match corruption {
            LogCorruption::TornWrite { records } => {
                let k = (records as usize).min(seqs.len());
                for &seq in seqs.iter().rev().take(k) {
                    self.planned_damage.push(PlannedDamage::Tear { seq });
                }
                k as u64
            }
            LogCorruption::BitRot {
                sectors,
                seed,
                target,
            } => {
                // Which copy of an entry's record the rot can land on:
                // seqs the checkpoint covers live in its image, newer
                // ones on the log tail.
                let covers = self.backup.covers_seq();
                let in_ckpt = |s: u64| covers.is_some_and(|c| s <= c);
                let eligible: Vec<u64> = match target {
                    RotTarget::Any => seqs,
                    RotTarget::Tail => seqs.into_iter().filter(|&s| !in_ckpt(s)).collect(),
                    RotTarget::Checkpoint => seqs.into_iter().filter(|&s| in_ckpt(s)).collect(),
                };
                if eligible.is_empty() {
                    return 0;
                }
                let mut state = seed;
                let mut hit = std::collections::BTreeSet::new();
                for _ in 0..sectors {
                    let idx = (splitmix64(&mut state) % eligible.len() as u64) as usize;
                    let bit = splitmix64(&mut state);
                    hit.insert(eligible[idx]);
                    self.planned_damage.push(PlannedDamage::FlipBit {
                        seq: eligible[idx],
                        bit,
                        checkpoint: matches!(target, RotTarget::Checkpoint),
                    });
                }
                hit.len() as u64
            }
        }
    }

    fn log_maintenance(&mut self, _now: SimTime, idle: bool) {
        if !self.enabled() {
            return;
        }
        self.maint.ticks += 1;
        if !idle {
            self.maint.busy_skips += 1;
            return;
        }
        // Barrier first: reclaim what an *earlier* idle pass condemned
        // — a crash between condemnation and this barrier still finds
        // the condemned copies on media.
        let rc = self.backup.reclaim();
        self.maint.segments_reclaimed += rc.segments;
        // One unit of rewriting work per idle window: a checkpoint when
        // the cadence is due, else at most one segment compaction.
        if self.cfg.checkpoint_every > 0
            && self.backup.appends_since_checkpoint() >= self.cfg.checkpoint_every
        {
            self.write_checkpoint();
        } else if let Some(idx) = self.backup.compaction_candidate() {
            self.compact_segment(idx);
        }
        self.scrub_step();
    }

    fn maint_stats(&self) -> MaintStats {
        let mut m = self.maint;
        m.live_segments = self.backup.retained_segments() as u64;
        m.live_records = self.backup.live_records();
        m.live_backup_bytes = self.backup.live_bytes();
        m
    }

    fn audit(&self) -> Result<(), String> {
        IBridgePolicy::audit(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ibridge_device::IoDir;
    use ibridge_localfs::FileHandle;

    const KB: u64 = 1024;

    fn policy() -> IBridgePolicy {
        IBridgePolicy::new(IBridgeConfig::with_capacity(0, 64 << 20))
    }

    fn frag(dir: IoDir, offset: u64, len: u64) -> SubRequest {
        SubRequest {
            dir,
            file: FileHandle(1),
            server: 0,
            offset,
            len,
            class: ReqClass::Fragment { siblings: vec![1] },
        }
    }

    fn bulk(dir: IoDir, offset: u64, len: u64) -> SubRequest {
        SubRequest {
            dir,
            file: FileHandle(1),
            server: 0,
            offset,
            len,
            class: ReqClass::Bulk,
        }
    }

    #[test]
    fn bulk_requests_always_go_to_disk() {
        let mut p = policy();
        let placement = p.place(SimTime::ZERO, &bulk(IoDir::Write, 0, 64 * KB), 1000);
        assert_eq!(
            placement,
            Placement::Disk {
                admit_after_read: false
            }
        );
        assert!(p.stats().redirected_writes == 0);
    }

    #[test]
    fn fragment_write_is_redirected_to_the_log() {
        let mut p = policy();
        // Establish a nonzero average so returns are positive for far
        // requests — the very first request initialises T with its own
        // cost and has ret = 0... warm with one disk op.
        p.place(SimTime::ZERO, &bulk(IoDir::Write, 0, 64 * KB), 0);
        let placement = p.place(SimTime::ZERO, &frag(IoDir::Write, 1 << 20, KB), 900_000_000);
        let Placement::Ssd { extents } = placement else {
            panic!("fragment with positive return must go to the SSD");
        };
        assert_eq!(extents.iter().map(|e| e.sectors).sum::<u64>(), 2);
        assert_eq!(p.dirty_bytes(), KB);
        assert_eq!(p.stats().redirected_writes, 1);
        assert_eq!(p.stats().bytes_ssd, KB);
    }

    #[test]
    fn read_after_redirected_write_hits_the_cache() {
        let mut p = policy();
        p.place(SimTime::ZERO, &bulk(IoDir::Write, 0, 64 * KB), 0);
        p.place(SimTime::ZERO, &frag(IoDir::Write, 1 << 20, KB), 900_000_000);
        let placement = p.place(SimTime::ZERO, &frag(IoDir::Read, 1 << 20, KB), 900_000_000);
        assert!(matches!(placement, Placement::Ssd { .. }));
        assert_eq!(p.stats().read_hits, 1);
    }

    #[test]
    fn partial_inner_read_hits_with_sliced_extents() {
        let mut p = policy();
        p.place(SimTime::ZERO, &bulk(IoDir::Write, 0, 64 * KB), 0);
        p.place(
            SimTime::ZERO,
            &frag(IoDir::Write, 1 << 20, 8 * KB),
            900_000_000,
        );
        let placement = p.place(
            SimTime::ZERO,
            &frag(IoDir::Read, (1 << 20) + 4 * KB, 2 * KB),
            900_000_000,
        );
        let Placement::Ssd { extents } = placement else {
            panic!()
        };
        assert_eq!(extents.iter().map(|e| e.sectors).sum::<u64>(), 4);
    }

    #[test]
    fn read_miss_with_positive_return_requests_admission() {
        let mut p = policy();
        p.place(SimTime::ZERO, &bulk(IoDir::Write, 0, 64 * KB), 0);
        let sub = frag(IoDir::Read, 2 << 20, KB);
        let placement = p.place(SimTime::ZERO, &sub, 900_000_000);
        assert_eq!(
            placement,
            Placement::Disk {
                admit_after_read: true
            }
        );
        let (entry, extents) = p.read_admission(SimTime::ZERO, &sub).expect("admits");
        assert!(!extents.is_empty());
        // Pending until the SSD write completes: a read now still misses.
        let placement = p.place(SimTime::ZERO, &sub, 900_000_000);
        assert_eq!(p.stats().read_misses, 2);
        assert!(matches!(placement, Placement::Disk { .. }));
        p.admission_complete(SimTime::ZERO, entry);
        let placement = p.place(SimTime::ZERO, &sub, 900_000_000);
        assert!(matches!(placement, Placement::Ssd { .. }));
    }

    #[test]
    fn flush_cycle_cleans_dirty_entries() {
        let mut p = policy();
        p.place(SimTime::ZERO, &bulk(IoDir::Write, 0, 64 * KB), 0);
        p.place(SimTime::ZERO, &frag(IoDir::Write, 1 << 20, KB), 900_000_000);
        assert_eq!(p.dirty_bytes(), KB);
        let ops = p.flush_batch(SimTime::ZERO, u64::MAX);
        assert_eq!(ops.len(), 1);
        assert_eq!(ops[0].len, KB);
        // While flushing, the same entry is not re-picked.
        assert!(p.flush_batch(SimTime::ZERO, u64::MAX).is_empty());
        p.flush_complete(SimTime::ZERO, ops[0].id);
        assert_eq!(p.dirty_bytes(), 0);
    }

    #[test]
    fn read_only_cache_never_redirects_writes() {
        let mut cfg = IBridgeConfig::with_capacity(0, 64 << 20);
        cfg.redirect_writes = false;
        let mut p = IBridgePolicy::new(cfg);
        p.place(SimTime::ZERO, &bulk(IoDir::Write, 0, 64 * KB), 0);
        let placement = p.place(SimTime::ZERO, &frag(IoDir::Write, 1 << 20, KB), 900_000_000);
        assert_eq!(
            placement,
            Placement::Disk {
                admit_after_read: false
            }
        );
        assert_eq!(p.stats().redirected_writes, 0);
        // Reads still admit.
        let sub = frag(IoDir::Read, 2 << 20, KB);
        let placement = p.place(SimTime::ZERO, &sub, 900_000_000);
        assert_eq!(
            placement,
            Placement::Disk {
                admit_after_read: true
            }
        );
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut p = IBridgePolicy::new(IBridgeConfig::with_capacity(0, 0));
        p.place(SimTime::ZERO, &bulk(IoDir::Write, 0, 64 * KB), 0);
        let placement = p.place(SimTime::ZERO, &frag(IoDir::Write, 1 << 20, KB), 900_000_000);
        assert_eq!(
            placement,
            Placement::Disk {
                admit_after_read: false
            }
        );
    }

    #[test]
    fn overlapping_write_invalidates_cached_entry() {
        let mut p = policy();
        p.place(SimTime::ZERO, &bulk(IoDir::Write, 0, 64 * KB), 0);
        p.place(
            SimTime::ZERO,
            &frag(IoDir::Write, 1 << 20, 4 * KB),
            900_000_000,
        );
        // A bulk write over the same range must kill the entry.
        p.place(
            SimTime::ZERO,
            &bulk(IoDir::Write, 1 << 20, 64 * KB),
            900_000_000,
        );
        let placement = p.place(
            SimTime::ZERO,
            &frag(IoDir::Read, 1 << 20, 4 * KB),
            900_000_000,
        );
        assert!(matches!(placement, Placement::Disk { .. }));
    }

    #[test]
    fn eq3_boost_requires_being_the_slowest() {
        let mut base = IBridgeConfig::with_capacity(0, 64 << 20);
        base.eq3 = true;
        let mut p = IBridgePolicy::new(base);
        // Make this server's T large and siblings' small.
        p.receive_broadcast(&[0.0, 0.0001]);
        for i in 0..5 {
            p.place(
                SimTime::ZERO,
                &bulk(IoDir::Write, i * 64 * KB, 64 * KB),
                i * 1_000_000_000 % 1_500_000_000,
            );
        }
        let sub = frag(IoDir::Write, 10 << 20, KB);
        let boosted = p.return_of(&sub, 900_000_000);
        let base_ret = p.model.ret(900_000_000, KB);
        assert!(boosted > base_ret, "boost must apply when we are slowest");
    }

    #[test]
    fn dirty_log_pressure_fails_admissions_until_flushed() {
        // Log fits ~8 one-KB entries (with meta); no flushing → dirty
        // data blocks the wrap and admissions start failing.
        let mut p = IBridgePolicy::new(IBridgeConfig::with_capacity(0, 8 * 1536));
        p.place(SimTime::ZERO, &bulk(IoDir::Write, 0, 64 * KB), 0);
        let mut failures = 0;
        for i in 0..32u64 {
            let placement = p.place(
                SimTime::ZERO,
                &frag(IoDir::Write, (i + 1) << 20, KB),
                900_000_000,
            );
            if matches!(placement, Placement::Disk { .. }) {
                failures += 1;
            }
        }
        assert!(failures > 0, "a full dirty log must push writes to disk");
        assert_eq!(p.stats().admission_failures, failures);
        // Flush everything; admissions work again.
        let ops = p.flush_batch(SimTime::ZERO, u64::MAX);
        assert!(!ops.is_empty());
        for op in ops {
            p.flush_complete(SimTime::ZERO, op.id);
        }
        let placement = p.place(
            SimTime::ZERO,
            &frag(IoDir::Write, 99 << 20, KB),
            900_000_000,
        );
        assert!(matches!(placement, Placement::Ssd { .. }));
    }

    #[test]
    fn clean_entries_are_evicted_under_quota_pressure() {
        // Small cache; stream of read admissions (clean entries).
        let mut p = IBridgePolicy::new(IBridgeConfig::with_capacity(0, 16 * 1536));
        p.place(SimTime::ZERO, &bulk(IoDir::Write, 0, 64 * KB), 0);
        for i in 0..64u64 {
            let sub = frag(IoDir::Read, (i + 1) << 20, KB);
            let placement = p.place(SimTime::ZERO, &sub, 900_000_000);
            assert!(matches!(
                placement,
                Placement::Disk {
                    admit_after_read: true
                }
            ));
            if let Some((entry, _)) = p.read_admission(SimTime::ZERO, &sub) {
                p.admission_complete(SimTime::ZERO, entry);
            }
        }
        let s = p.stats();
        assert!(
            s.admissions > 16,
            "most admissions succeed: {}",
            s.admissions
        );
        assert!(s.evictions > 0, "old clean entries must be evicted");
        assert!(s.cached_fragment_bytes <= 16 * 1536);
    }

    #[test]
    fn flush_batch_respects_byte_budget() {
        let mut p = policy();
        p.place(SimTime::ZERO, &bulk(IoDir::Write, 0, 64 * KB), 0);
        for i in 0..8u64 {
            p.place(
                SimTime::ZERO,
                &frag(IoDir::Write, (i + 1) << 20, 4 * KB),
                900_000_000,
            );
        }
        assert_eq!(p.dirty_bytes(), 32 * KB);
        let ops = p.flush_batch(SimTime::ZERO, 10 * KB);
        let total: u64 = ops.iter().map(|o| o.len).sum();
        assert!(total <= 10 * KB, "batch exceeded budget: {total}");
        assert!(!ops.is_empty());
    }

    #[test]
    fn flush_ops_are_sorted_by_home_offset() {
        let mut p = policy();
        p.place(SimTime::ZERO, &bulk(IoDir::Write, 0, 64 * KB), 0);
        for off in [9u64 << 20, 2 << 20, 5 << 20] {
            p.place(SimTime::ZERO, &frag(IoDir::Write, off, KB), 900_000_000);
        }
        let ops = p.flush_batch(SimTime::ZERO, u64::MAX);
        let offsets: Vec<u64> = ops.iter().map(|o| o.offset).collect();
        let mut sorted = offsets.clone();
        sorted.sort_unstable();
        assert_eq!(offsets, sorted, "writeback must form sequential sweeps");
    }

    #[test]
    fn crash_recovery_preserves_durable_entries() {
        let mut p = policy();
        p.place(SimTime::ZERO, &bulk(IoDir::Write, 0, 64 * KB), 0);
        // A dirty redirected write: durable (data + table record on SSD).
        p.place(SimTime::ZERO, &frag(IoDir::Write, 1 << 20, KB), 900_000_000);
        // A completed read admission: durable and clean.
        let sub_done = frag(IoDir::Read, 2 << 20, KB);
        p.place(SimTime::ZERO, &sub_done, 900_000_000);
        let (entry, _) = p.read_admission(SimTime::ZERO, &sub_done).unwrap();
        p.admission_complete(SimTime::ZERO, entry);
        // An in-flight admission: NOT durable.
        let sub_pending = frag(IoDir::Read, 3 << 20, KB);
        p.place(SimTime::ZERO, &sub_pending, 900_000_000);
        let _ = p.read_admission(SimTime::ZERO, &sub_pending).unwrap();

        let snap = p.snapshot();
        let (mut r, fsck) =
            IBridgePolicy::recover_with_report(IBridgeConfig::with_capacity(0, 64 << 20), &snap);

        // The dirty entry hits after recovery.
        assert!(matches!(
            r.place(SimTime::ZERO, &frag(IoDir::Read, 1 << 20, KB), 900_000_000),
            Placement::Ssd { .. }
        ));
        // The clean entry was durable, but restart drops it: its
        // home-disk copy is authoritative.
        assert_eq!(fsck.clean_entries_dropped, 1);
        assert!(matches!(
            r.place(SimTime::ZERO, &frag(IoDir::Read, 2 << 20, KB), 900_000_000),
            Placement::Disk { .. }
        ));
        // The in-flight admission is gone.
        assert!(matches!(
            r.place(SimTime::ZERO, &frag(IoDir::Read, 3 << 20, KB), 900_000_000),
            Placement::Disk { .. }
        ));
        // Dirty data survived and is queued for writeback again.
        assert_eq!(r.dirty_bytes(), KB);
        assert_eq!(r.flush_batch(SimTime::ZERO, u64::MAX).len(), 1);
    }

    #[test]
    fn recovered_log_continues_appending_where_it_left_off() {
        let mut p = policy();
        p.place(SimTime::ZERO, &bulk(IoDir::Write, 0, 64 * KB), 0);
        p.place(SimTime::ZERO, &frag(IoDir::Write, 1 << 20, KB), 900_000_000);
        let snap = p.snapshot();
        let (mut r, _) =
            IBridgePolicy::recover_with_report(IBridgeConfig::with_capacity(0, 64 << 20), &snap);
        // A new redirected write lands after the recovered head, not over
        // the surviving entry.
        let Placement::Ssd { extents } =
            r.place(SimTime::ZERO, &frag(IoDir::Write, 5 << 20, KB), 900_000_000)
        else {
            panic!("redirect expected")
        };
        assert!(
            extents[0].lbn >= 3,
            "must not overwrite the recovered entry"
        );
        // Both ranges servable.
        assert!(matches!(
            r.place(SimTime::ZERO, &frag(IoDir::Read, 1 << 20, KB), 900_000_000),
            Placement::Ssd { .. }
        ));
    }

    #[test]
    fn fsck_quarantines_torn_and_corrupt_records() {
        let mut p = policy();
        p.place(SimTime::ZERO, &bulk(IoDir::Write, 0, 64 * KB), 0);
        for i in 0..4u64 {
            p.place(
                SimTime::ZERO,
                &frag(IoDir::Write, (i + 1) << 20, KB),
                900_000_000,
            );
        }
        let mut state = p.snapshot();
        assert_eq!(state.records().len(), 4);
        // Tear the newest record, rot an older one.
        state.records_mut()[3].tear();
        state.records_mut()[1].flip_bit(123);
        let (r, fsck) =
            IBridgePolicy::recover_with_report(IBridgeConfig::with_capacity(0, 64 << 20), &state);
        assert_eq!(fsck.records_scanned, 4);
        assert_eq!(fsck.records_torn, 1);
        assert_eq!(fsck.records_corrupt, 1);
        assert_eq!(fsck.records_quarantined, 2);
        assert_eq!(fsck.dirty_entries_kept, 2);
        assert_eq!(r.dirty_bytes(), 2 * KB);
        r.audit().expect("recovered policy is consistent");
        // The quarantined ranges are not resurrected.
        let mut r = r;
        for gone in [4u64 << 20, 2 << 20] {
            let pl = r.place(SimTime::ZERO, &frag(IoDir::Read, gone, KB), 900_000_000);
            assert!(matches!(pl, Placement::Disk { .. }), "resurrected {gone}");
        }
        // The intact ranges still hit.
        for kept in [1u64 << 20, 3 << 20] {
            let pl = r.place(SimTime::ZERO, &frag(IoDir::Read, kept, KB), 900_000_000);
            assert!(matches!(pl, Placement::Ssd { .. }), "lost intact {kept}");
        }
    }

    #[test]
    fn fsck_rejects_sequence_regressions() {
        let mut p = policy();
        p.place(SimTime::ZERO, &bulk(IoDir::Write, 0, 64 * KB), 0);
        p.place(SimTime::ZERO, &frag(IoDir::Write, 1 << 20, KB), 900_000_000);
        p.place(SimTime::ZERO, &frag(IoDir::Write, 2 << 20, KB), 900_000_000);
        let mut state = p.snapshot();
        // Replay an out-of-order copy of the first record after the
        // second — a stale duplicate a real log could surface.
        let dup = state.records()[0].clone();
        state.records_mut().push(dup);
        let (_, fsck) =
            IBridgePolicy::recover_with_report(IBridgeConfig::with_capacity(0, 64 << 20), &state);
        assert_eq!(fsck.seq_breaks, 1);
        assert_eq!(fsck.records_quarantined, 1);
        assert_eq!(fsck.dirty_entries_kept, 2);
    }

    /// A backup of four dirty 1 KiB entries, at 1, 2, 4 and 5 MiB. The
    /// first two are in a checkpoint image whose `covers_seq` (3) lies
    /// past its last record (seq 1): a bulk write retired the entry at
    /// 3 MiB (seq 2) with a tombstone (seq 3) before the checkpoint. The
    /// tail copies of seqs 0–3 are condemned but still on media; the
    /// last two entries are on the tail.
    fn checkpointed_state() -> PersistentState {
        let mut p = policy();
        p.place(SimTime::ZERO, &bulk(IoDir::Write, 0, 64 * KB), 0);
        for mb in 1..=5u64 {
            if mb == 4 {
                p.place(SimTime::ZERO, &bulk(IoDir::Write, 3 << 20, KB), 0);
                p.write_checkpoint();
            }
            p.place(
                SimTime::ZERO,
                &frag(IoDir::Write, mb << 20, KB),
                900_000_000,
            );
        }
        let state = p.snapshot();
        let cp = state.checkpoint().expect("image");
        assert_eq!((cp.covers_seq, cp.records.len()), (3, 2));
        assert_eq!(state.next_seq, 6);
        state
    }

    /// Decodes a genuine record, lets `edit` change it and re-seals it
    /// under a valid CRC, keeping its plain-text sequence number.
    fn reseal(sealed: &mut SealedRecord, edit: impl FnOnce(&mut LogRecord)) {
        let RecordVerdict::Intact(mut rec) = record::verify(sealed) else {
            panic!("a fresh backup record must verify");
        };
        edit(&mut rec);
        let plain = sealed.seq;
        *sealed = rec.seal();
        sealed.seq = plain;
    }

    /// The sequence-continuity cases of the recovery scan, one mutation
    /// each of an image-plus-tail backup: every one is a sequence break
    /// that quarantines its record and loses only that record's entry.
    #[test]
    fn fsck_quarantines_every_sequence_break() {
        let recover = |state: &PersistentState| {
            IBridgePolicy::recover_with_report(IBridgeConfig::with_capacity(0, 64 << 20), state)
        };
        let (_, fsck) = recover(&checkpointed_state());
        assert_eq!(fsck.records_scanned, 4);
        assert_eq!(fsck.image_records, 2);
        assert_eq!(fsck.records_skipped, 4);
        assert_eq!(fsck.seq_breaks, 0);
        assert_eq!(fsck.dirty_entries_kept, 4);

        // (case, MiB offset of the entry it loses, mutation)
        type Mutation = fn(&mut PersistentState);
        let cases: [(&str, u64, Mutation); 5] = [
            ("image record above covers_seq", 2, |s| {
                let cp = s.checkpoint.as_mut().expect("image");
                let covers = cp.covers_seq;
                reseal(cp.records.last_mut().expect("record"), |r| {
                    r.seq = covers + 1
                });
            }),
            ("tombstone inside the image", 1, |s| {
                let cp = s.checkpoint.as_mut().expect("image");
                reseal(&mut cp.records[0], |r| {
                    r.tombstone = true;
                    r.dirty = false;
                    r.len = 0;
                    r.extents = ExtentList::new();
                });
            }),
            // The plain-text seq says "newer than the image", so the
            // record is scanned, not skipped; the seq it decodes to is
            // covered, though newer than every image record.
            ("tail record decoding to a covered seq", 4, |s| {
                let covers = s.checkpoint().expect("image").covers_seq;
                let sealed = s.records.iter_mut().find(|r| r.seq > covers);
                reseal(sealed.expect("tail record"), |r| r.seq = covers);
            }),
            ("tail record at next_seq", 5, |s| {
                let next = s.next_seq;
                reseal(s.records.last_mut().expect("record"), |r| r.seq = next);
            }),
            ("tail record past next_seq", 5, |s| {
                let next = s.next_seq;
                reseal(s.records.last_mut().expect("record"), |r| r.seq = next + 7);
            }),
        ];
        for (case, lost_mb, mutate) in cases {
            let mut state = checkpointed_state();
            mutate(&mut state);
            let (r, fsck) = recover(&state);
            assert_eq!(fsck.seq_breaks, 1, "{case}");
            assert_eq!(fsck.records_quarantined, 1, "{case}");
            assert_eq!(fsck.dirty_entries_kept, 3, "{case}");
            for mb in [1, 2, 4, 5] {
                let kept = r.table.lookup_covering(FileHandle(1), mb << 20, KB);
                assert_eq!(kept.is_some(), mb != lost_mb, "{case}: entry at {mb} MiB");
            }
            r.audit().expect("recovered policy is consistent");
        }
    }

    #[test]
    fn torn_write_injection_loses_only_the_newest_records() {
        let mut p = policy();
        p.place(SimTime::ZERO, &bulk(IoDir::Write, 0, 64 * KB), 0);
        for i in 0..3u64 {
            p.place(
                SimTime::ZERO,
                &frag(IoDir::Write, (i + 1) << 20, KB),
                900_000_000,
            );
        }
        let hit = CachePolicy::inject_corruption(
            &mut p,
            SimTime::ZERO,
            LogCorruption::TornWrite { records: 2 },
        );
        assert_eq!(hit, 2);
        let r = p.server_restart(SimTime::ZERO);
        assert_eq!(r.records_scanned, 3);
        assert_eq!(r.records_quarantined, 2);
        assert_eq!(r.dirty_entries_kept, 1);
        assert_eq!(r.dirty_bytes_lost, 2 * KB);
        p.audit().expect("post-restart state is consistent");
        // The oldest write survived; the two newest are gone.
        assert!(matches!(
            p.place(SimTime::ZERO, &frag(IoDir::Read, 1 << 20, KB), 900_000_000),
            Placement::Ssd { .. }
        ));
        for gone in [2u64 << 20, 3 << 20] {
            assert!(matches!(
                p.place(SimTime::ZERO, &frag(IoDir::Read, gone, KB), 900_000_000),
                Placement::Disk { .. }
            ));
        }
        // Damage does not linger: a second restart loses nothing more.
        let r2 = p.server_restart(SimTime::ZERO);
        assert_eq!(r2.records_quarantined, 0);
        assert_eq!(r2.dirty_bytes_lost, 0);
    }

    #[test]
    fn bit_rot_injection_is_deterministic_per_seed() {
        let run = |seed: u64| {
            let mut p = policy();
            p.place(SimTime::ZERO, &bulk(IoDir::Write, 0, 64 * KB), 0);
            for i in 0..6u64 {
                p.place(
                    SimTime::ZERO,
                    &frag(IoDir::Write, (i + 1) << 20, KB),
                    900_000_000,
                );
            }
            CachePolicy::inject_corruption(
                &mut p,
                SimTime::ZERO,
                LogCorruption::BitRot {
                    sectors: 3,
                    seed,
                    target: RotTarget::Any,
                },
            );
            let r = p.server_restart(SimTime::ZERO);
            p.audit().expect("post-restart state is consistent");
            (r.records_quarantined, r.dirty_bytes_lost)
        };
        assert_eq!(run(7), run(7));
        let (quarantined, lost) = run(7);
        assert!(quarantined >= 1, "bit rot must corrupt something");
        assert_eq!(lost, quarantined * KB);
    }

    #[test]
    fn audit_passes_through_normal_operation() {
        let mut p = policy();
        p.audit().expect("fresh policy");
        p.place(SimTime::ZERO, &bulk(IoDir::Write, 0, 64 * KB), 0);
        p.place(SimTime::ZERO, &frag(IoDir::Write, 1 << 20, KB), 900_000_000);
        let sub = frag(IoDir::Read, 2 << 20, KB);
        p.place(SimTime::ZERO, &sub, 900_000_000);
        let (entry, _) = p.read_admission(SimTime::ZERO, &sub).unwrap();
        p.audit().expect("with pending admission");
        p.admission_complete(SimTime::ZERO, entry);
        p.audit().expect("after activation");
        let ops = p.flush_batch(SimTime::ZERO, u64::MAX);
        p.audit().expect("mid-flush");
        for op in ops {
            p.flush_complete(SimTime::ZERO, op.id);
        }
        p.audit().expect("after flush");
        p.server_restart(SimTime::ZERO);
        p.audit().expect("after restart");
        p.ssd_lost(SimTime::ZERO);
        p.audit().expect("after ssd loss");
    }

    #[test]
    fn audit_catches_an_entry_outside_its_log_regions() {
        let mut p = policy();
        p.place(SimTime::ZERO, &bulk(IoDir::Write, 0, 64 * KB), 0);
        p.place(SimTime::ZERO, &frag(IoDir::Write, 1 << 20, KB), 900_000_000);
        p.audit().expect("consistent");
        // A pending admission whose sectors the log never wrote: they
        // sit in no region of its own (past everything appended so far).
        let id = p.table.next_id();
        let extents = ExtentList::one(ibridge_localfs::Extent {
            lbn: 1000,
            sectors: 2,
        });
        p.table.insert(
            id,
            FileHandle(1),
            8 << 20,
            KB,
            extents,
            EntryType::Random,
            0.0,
            false,
            true,
            u64::MAX,
        );
        let err = p.audit().unwrap_err();
        assert!(err.contains("not in a log region of its own"), "got: {err}");
    }

    #[test]
    fn concurrent_read_misses_on_two_files_keep_their_own_returns() {
        let mut p = policy();
        p.place(SimTime::ZERO, &bulk(IoDir::Write, 0, 64 * KB), 0);
        // The same local range of two files, far apart on the disk: two
        // different Eq. (1) returns, both admitted after the reads.
        let a = frag(IoDir::Read, 2 << 20, KB);
        let b = SubRequest {
            file: FileHandle(2),
            ..a.clone()
        };
        let ret_a = p.return_of(&a, 900_000_000);
        p.place(SimTime::ZERO, &a, 900_000_000);
        let ret_b = p.return_of(&b, 300_000_000);
        p.place(SimTime::ZERO, &b, 300_000_000);
        assert!(ret_a > 0.0 && ret_b > 0.0 && ret_a != ret_b);
        let (id_a, _) = p.read_admission(SimTime::ZERO, &a).expect("admits a");
        let (id_b, _) = p.read_admission(SimTime::ZERO, &b).expect("admits b");
        assert_eq!(p.table.get(id_a).unwrap().ret, ret_a);
        assert_eq!(p.table.get(id_b).unwrap().ret, ret_b);
    }

    #[test]
    fn stats_expose_partition_occupancy() {
        let mut p = policy();
        p.place(SimTime::ZERO, &bulk(IoDir::Write, 0, 64 * KB), 0);
        p.place(SimTime::ZERO, &frag(IoDir::Write, 1 << 20, KB), 900_000_000);
        let mut rand_sub = frag(IoDir::Write, 2 << 20, 2 * KB);
        rand_sub.class = ReqClass::Random;
        p.place(SimTime::ZERO, &rand_sub, 900_000_000);
        let s = p.stats();
        assert_eq!(s.cached_fragment_bytes, KB);
        assert_eq!(s.cached_random_bytes, 2 * KB);
        assert!(s.appended_bytes > 0);
    }
}
