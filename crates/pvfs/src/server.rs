//! The data server: the `pvfs2-server` daemon analogue.
//!
//! Each server owns a primary device (disk behind CFQ — or SSD behind
//! Noop in the "SSD-only" configuration of Fig. 10), an optional SSD
//! cache device (Noop), a local file system, and a [`CachePolicy`]. The
//! server is a passive state machine: the cluster event loop feeds it
//! sub-request arrivals and device completions; it answers with device
//! actions to schedule and jobs that finished.
//!
//! I/O for one sub-request may span several device extents (file-system
//! extents, or SSD-log extents); the server tracks them as *groups* and
//! completes the upper-level work item when the whole group is done.
//! Besides client jobs, groups are used for post-read cache admissions
//! and the two phases of writeback (SSD read → disk write). A group is
//! the only record the server keeps of an in-flight job or flush: it
//! carries the job's state or the flush's op until its last extent
//! completes.

use crate::policy::{
    CachePolicy, EntryId, FlushId, FlushOp, LogCorruption, Placement, RestartReport,
};
use crate::proto::SubRequest;
use ibridge_des::fxhash::FxHashMap as HashMap;
use ibridge_des::{SimDuration, SimTime};
use ibridge_device::{DiskModel, DiskProfile, IoDir, SsdModel, SsdProfile};
use ibridge_iosched::{
    Action, ActionList, AnySched, BlockDevice, BlockRequest, Cfq, Deadline, Noop, StorageDev,
    StreamId,
};
use ibridge_localfs::{Extent, FileHandle, LocalFs, BLOCK_SECTORS, SECTOR_SIZE};

/// Identifies a client job (one sub-request being served).
pub type JobId = u64;

/// Stream id used for cache-admission writes (a background kernel-thread
/// analogue).
pub const ADMISSION_STREAM: StreamId = u64::MAX - 1;
/// Stream id used for writeback I/O (the flusher-thread analogue).
pub const FLUSH_STREAM: StreamId = u64::MAX;

/// Per-sub-request server CPU cost (request decoding, Trove/BMI
/// bookkeeping); serialises on one core.
const OP_OVERHEAD: SimDuration = SimDuration::from_micros(150);

/// Maximum bytes flushed per writeback round.
const WRITEBACK_BATCH: u64 = 4 << 20;

/// Kernel-readahead model: a disk read starting within this many bytes
/// after the datafile's current read cursor is extended backwards to the
/// cursor, filling the hole. This is what turns iBridge's fragment holes
/// into the large sequential dispatches of Fig. 5.
const RA_FILL: u64 = 64 * 1024;

/// Bytes per local file system block.
const BLOCK_BYTES: u64 = BLOCK_SECTORS * SECTOR_SIZE;

pub use ibridge_faults::DevKind;

/// Which I/O scheduler fronts the primary disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DiskSched {
    /// CFQ — the paper's testbed configuration.
    #[default]
    Cfq,
    /// Deadline elevator (scheduler-comparison ablations).
    Deadline,
    /// Plain FIFO with merging.
    Noop,
}

/// Static per-server configuration. Every server's SSD, cache or
/// primary, is the paper's [`SsdProfile::hp_mk0120`]; the local file
/// system is Ext2 with 4 KiB blocks (`ibridge_localfs`).
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Disk model parameters.
    pub disk: DiskProfile,
    /// Scheduler for the primary disk.
    pub disk_sched: DiskSched,
    /// Device queue depth of the primary disk (NCQ). 1 disables
    /// device-side reordering.
    pub ncq_depth: usize,
    /// CFQ's anticipation window on the disk (Linux: 8 ms); zero
    /// disables anticipation.
    pub cfq_slice_idle: SimDuration,
    /// Use an SSD as the primary device (Fig. 10's "SSD-only").
    pub primary_is_ssd: bool,
    /// Attach an SSD cache device (required for iBridge policies).
    pub with_cache_dev: bool,
    /// Page-cache budget for readahead bytes, per datafile.
    pub ra_budget: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            disk: DiskProfile::hp_mm0500(),
            disk_sched: DiskSched::Cfq,
            ncq_depth: 1,
            cfq_slice_idle: ibridge_iosched::cfq::DEFAULT_SLICE_IDLE,
            primary_is_ssd: false,
            with_cache_dev: false,
            ra_budget: 8 << 20,
        }
    }
}

/// Per-datafile kernel-readahead state: a read cursor plus the ranges
/// read beyond what clients asked for (a minimal page-cache model, large
/// enough to make hole-filling useful and bounded by `ra_budget`).
#[derive(Debug, Default)]
struct ReadAhead {
    cursor: u64,
    /// Prefetched byte ranges, disjoint, keyed by start offset.
    prefetched: std::collections::BTreeMap<u64, u64>,
    bytes: u64,
}

impl ReadAhead {
    /// True when `[offset, offset+len)` is fully inside one prefetched
    /// range.
    fn covered(&self, offset: u64, len: u64) -> bool {
        match self.prefetched.range(..=offset).next_back() {
            Some((&start, &l)) => offset + len <= start + l,
            None => false,
        }
    }

    /// Records `[offset, offset+len)` as prefetched, merging with any
    /// adjacent or overlapping ranges, and enforces the byte budget by
    /// dropping the lowest (oldest) ranges.
    fn record(&mut self, offset: u64, len: u64, budget: u64) {
        if len == 0 {
            return;
        }
        let mut new_start = offset;
        let mut new_end = offset + len;
        if let Some((&s, &l)) = self.prefetched.range(..=new_start).next_back() {
            if s + l >= new_start {
                new_start = s;
                new_end = new_end.max(s + l);
                self.prefetched.remove(&s);
                self.bytes -= l;
            }
        }
        while let Some((&s, &l)) = self.prefetched.range(new_start..).next() {
            if s > new_end {
                break;
            }
            new_end = new_end.max(s + l);
            self.prefetched.remove(&s);
            self.bytes -= l;
        }
        self.prefetched.insert(new_start, new_end - new_start);
        self.bytes += new_end - new_start;
        while self.bytes > budget {
            let (&start, &l) = self
                .prefetched
                .iter()
                .next()
                .expect("positive bytes implies ranges");
            self.prefetched.remove(&start);
            self.bytes -= l;
        }
    }
}

#[derive(Debug)]
struct JobState {
    job: JobId,
    sub: SubRequest,
    admit: bool,
    served_at_disk: bool,
    /// When the sub-request entered device submission (for the
    /// observability job span/latency).
    #[cfg_attr(not(feature = "obs"), allow(dead_code))]
    started: SimTime,
}

/// The work a completion group finishes.
#[derive(Debug)]
enum GroupKind {
    /// A client sub-request, served at the primary device or the SSD.
    Job(JobState),
    /// A post-read copy of disk data into the SSD cache.
    Admission(EntryId),
    /// Writeback, first phase: the op's bytes are read from the SSD log.
    FlushRead(FlushOp),
    /// Writeback, second phase: the bytes land on their home blocks.
    FlushWrite(FlushId),
}

impl GroupKind {
    /// The device the group's requests run on and their direction.
    fn target(&self) -> (DevKind, IoDir) {
        match self {
            GroupKind::Job(st) if st.served_at_disk => (DevKind::Primary, st.sub.dir),
            GroupKind::Job(st) => (DevKind::Cache, st.sub.dir),
            GroupKind::Admission(_) => (DevKind::Cache, IoDir::Write),
            GroupKind::FlushRead(_) => (DevKind::Cache, IoDir::Read),
            GroupKind::FlushWrite(_) => (DevKind::Primary, IoDir::Write),
        }
    }
}

/// One slab slot holding a completion group, or nothing while free. The
/// group's identity is `(slot, gen)` packed into the block-request tag;
/// bumping `gen` on retirement invalidates stale tags without any map
/// lookups — the slab/generation pattern of the DES calendar.
#[derive(Debug)]
struct GroupSlot {
    gen: u32,
    pending: u32,
    kind: Option<GroupKind>,
}

/// Packs a slab slot and its generation into a block-request tag.
fn pack_group(slot: u32, gen: u32) -> u64 {
    (u64::from(gen) << 32) | u64::from(slot)
}

/// Inverse of [`pack_group`].
fn unpack_group(tag: u64) -> (u32, u32) {
    (tag as u32, (tag >> 32) as u32)
}

/// What the cluster must do after poking a server.
#[derive(Debug, Default)]
pub struct ServerOut {
    /// Device actions to schedule, tagged with the device they concern.
    pub dev_actions: Vec<(DevKind, Action)>,
    /// Jobs whose sub-request completed (replies can be sent).
    pub done_jobs: Vec<JobId>,
}

impl ServerOut {
    fn extend_dev(&mut self, kind: DevKind, actions: ActionList) {
        self.dev_actions
            .extend(actions.into_iter().map(|a| (kind, a)));
    }

    /// Empties both lists, keeping their capacity — the event loop reuses
    /// one `ServerOut` across calendar events so the steady state never
    /// allocates.
    pub fn clear(&mut self) {
        self.dev_actions.clear();
        self.done_jobs.clear();
    }
}

/// One data server.
#[derive(Debug)]
pub struct DataServer {
    id: usize,
    primary: BlockDevice,
    cache: Option<BlockDevice>,
    fs: LocalFs,
    policy: Box<dyn CachePolicy>,
    cfg: ServerConfig,
    cpu_free: SimTime,
    /// Completion-group slab; retired slots are recycled via `free_groups`.
    group_slots: Vec<GroupSlot>,
    free_groups: Vec<u32>,
    ra: HashMap<FileHandle, ReadAhead>,
    ra_hits: u64,
    ra_bytes: u64,
    /// The cache SSD died (fault injection); restarts must not
    /// resurrect it.
    cache_lost: bool,
}

/// An SSD behind Noop: the cache device, or the primary in SSD-only
/// mode.
fn ssd_device() -> BlockDevice {
    BlockDevice::new(
        StorageDev::Ssd(SsdModel::new(SsdProfile::hp_mk0120())),
        AnySched::Noop(Noop::default()),
    )
}

/// Builds the primary block device described by `cfg`.
fn make_primary(cfg: &ServerConfig) -> BlockDevice {
    if cfg.primary_is_ssd {
        ssd_device()
    } else {
        let sched = match cfg.disk_sched {
            DiskSched::Cfq => AnySched::Cfq(Cfq::new(cfg.cfq_slice_idle)),
            DiskSched::Deadline => AnySched::Deadline(Deadline::default()),
            DiskSched::Noop => AnySched::Noop(Noop::default()),
        };
        BlockDevice::with_ncq(
            StorageDev::Disk(DiskModel::new(cfg.disk.clone())),
            sched,
            cfg.ncq_depth,
        )
    }
}

/// Builds the cache block device described by `cfg`, if configured.
fn make_cache(cfg: &ServerConfig) -> Option<BlockDevice> {
    cfg.with_cache_dev.then(ssd_device)
}

impl DataServer {
    /// Creates a server with the given policy.
    pub fn new(id: usize, cfg: ServerConfig, policy: Box<dyn CachePolicy>) -> Self {
        let primary = make_primary(&cfg);
        let cache = make_cache(&cfg);
        let fs_capacity = if cfg.primary_is_ssd {
            SsdProfile::hp_mk0120().capacity_sectors
        } else {
            cfg.disk.capacity_sectors
        };
        let mut srv = DataServer {
            id,
            primary,
            cache,
            fs: LocalFs::new(fs_capacity),
            policy,
            cfg,
            cpu_free: SimTime::ZERO,
            group_slots: Vec::new(),
            free_groups: Vec::new(),
            ra: HashMap::default(),
            ra_hits: 0,
            ra_bytes: 0,
            cache_lost: false,
        };
        srv.obs_label_devices();
        srv
    }

    /// Labels this server's devices for observability output: the
    /// server's trace node, lane 1 = primary device, lane 2 = cache device.
    fn obs_label_devices(&mut self) {
        let node = ibridge_obs::trace::server_node(self.id);
        self.primary.set_obs_label(node, 1);
        if let Some(c) = self.cache.as_mut() {
            c.set_obs_label(node, 2);
        }
    }

    /// Readahead page-cache hits served without any device I/O:
    /// `(count, bytes)`.
    pub fn readahead_hits(&self) -> (u64, u64) {
        (self.ra_hits, self.ra_bytes)
    }

    /// Server index.
    pub fn id(&self) -> usize {
        self.id
    }

    /// The primary block device (for stats/tracing).
    pub fn primary(&self) -> &BlockDevice {
        &self.primary
    }

    /// The cache block device, if configured.
    pub fn cache(&self) -> Option<&BlockDevice> {
        self.cache.as_ref()
    }

    /// The cache policy (for stats).
    pub fn policy(&self) -> &dyn CachePolicy {
        self.policy.as_ref()
    }

    /// Mutable policy access (broadcast delivery).
    pub fn policy_mut(&mut self) -> &mut dyn CachePolicy {
        self.policy.as_mut()
    }

    /// Clears dispatch traces on all devices (skip warm-up).
    pub fn reset_tracers(&mut self) {
        self.primary.reset_tracer();
        if let Some(c) = &mut self.cache {
            c.reset_tracer();
        }
    }

    /// Per-run reset: clears dispatch traces and drops the page cache /
    /// readahead state (the paper flushes system buffer caches before
    /// each run). SSD cache contents deliberately survive.
    pub fn prepare_run(&mut self) {
        self.reset_tracers();
        self.ra.clear();
        self.ra_hits = 0;
        self.ra_bytes = 0;
    }

    /// Serialises the per-request CPU cost: returns when the sub-request
    /// can start executing.
    pub fn cpu_admit(&mut self, now: SimTime) -> SimTime {
        let start = self.cpu_free.max(now);
        self.cpu_free = start + OP_OVERHEAD;
        self.cpu_free
    }

    /// Opens a completion group for `kind` and submits one block request
    /// per extent to the group's device. Every request carries the
    /// group's packed `(slot, gen)` handle as its tag, so completions
    /// need no request-to-group map. A client write at the primary device
    /// is a flush barrier (TroveSyncData): its requests are FUA, and the
    /// first carries the write's read-modify-write edges.
    fn submit(
        &mut self,
        now: SimTime,
        kind: GroupKind,
        extents: &[Extent],
        stream: StreamId,
        rmw_edges: u8,
        out: &mut ServerOut,
    ) {
        assert!(!extents.is_empty(), "empty extent list for {kind:?}");
        let (dev, dir) = kind.target();
        let barrier =
            matches!(kind, GroupKind::Job(_)) && dev == DevKind::Primary && dir.is_write();
        debug_assert!(
            barrier || rmw_edges == 0,
            "RMW edges on a non-barrier group"
        );
        let slot = match self.free_groups.pop() {
            Some(slot) => slot,
            None => {
                assert!(
                    self.group_slots.len() < u32::MAX as usize,
                    "group slab full"
                );
                self.group_slots.push(GroupSlot {
                    gen: 0,
                    pending: 0,
                    kind: None,
                });
                (self.group_slots.len() - 1) as u32
            }
        };
        let gs = &mut self.group_slots[slot as usize];
        gs.pending = extents.len() as u32;
        gs.kind = Some(kind);
        let handle = pack_group(slot, gs.gen);
        let device = match dev {
            DevKind::Primary => &mut self.primary,
            DevKind::Cache => self.cache.as_mut().expect("cache device not configured"),
        };
        for (i, e) in extents.iter().enumerate() {
            let mut req = BlockRequest::new(dir, e.lbn, e.sectors, stream, now, handle);
            if barrier {
                req = req
                    .with_fua()
                    .with_rmw_edges(if i == 0 { rmw_edges } else { 0 });
            }
            out.extend_dev(dev, device.submit(now, req));
        }
    }

    /// Retires a live group slot and returns its work. The generation
    /// bump invalidates any stale tag that still references the slot.
    fn retire(&mut self, slot: u32) -> GroupKind {
        let gs = &mut self.group_slots[slot as usize];
        gs.pending = 0;
        gs.gen = gs.gen.wrapping_add(1);
        self.free_groups.push(slot);
        gs.kind.take().expect("retiring a free group slot")
    }

    /// Executes a sub-request (after its CPU admission delay).
    ///
    /// `stream` identifies the issuing client process for CFQ.
    ///
    /// # Panics
    ///
    /// Panics if a read touches a range that was never allocated — the
    /// experiment setup must preallocate data sets, mirroring the
    /// paper's "a 10 GB file is accessed" methodology.
    pub fn exec_subreq(
        &mut self,
        now: SimTime,
        job: JobId,
        stream: StreamId,
        sub: SubRequest,
        out: &mut ServerOut,
    ) {
        // Read-modify-write: a write whose edges are not block-aligned
        // must first read the partially-overwritten blocks when they hold
        // prior data that is not in the page cache — the block-level
        // penalty of unaligned access. iBridge's SSD log is byte-granular
        // and pays none of this.
        let mut rmw_edges: u8 = 0;
        if sub.dir.is_write() {
            // At most two partial edges (first and last block).
            let mut edge_blocks = [0u64; 2];
            let mut n_edges = 0;
            if !sub.offset.is_multiple_of(BLOCK_BYTES) {
                edge_blocks[n_edges] = sub.offset / BLOCK_BYTES;
                n_edges += 1;
            }
            let end = sub.offset + sub.len;
            // Skip the end edge only when it is the same block as an
            // actually-recorded start edge (a sub-block write).
            if !end.is_multiple_of(BLOCK_BYTES)
                && (n_edges == 0 || end / BLOCK_BYTES != edge_blocks[0])
            {
                edge_blocks[n_edges] = end / BLOCK_BYTES;
                n_edges += 1;
            }
            for &block in &edge_blocks[..n_edges] {
                let allocated = self
                    .fs
                    .map_range(sub.file, block * BLOCK_BYTES, BLOCK_BYTES)
                    .is_ok();
                let warm = self
                    .ra
                    .get(&sub.file)
                    .is_some_and(|ra| ra.covered(block * BLOCK_BYTES, BLOCK_BYTES));
                if allocated && !warm {
                    rmw_edges += 1;
                }
            }
            // The written (and RMW-read) bytes populate the page cache.
            let budget = self.cfg.ra_budget;
            let cache_start = sub.offset / BLOCK_BYTES * BLOCK_BYTES;
            let cache_len = end.div_ceil(BLOCK_BYTES) * BLOCK_BYTES - cache_start;
            self.ra
                .entry(sub.file)
                .or_default()
                .record(cache_start, cache_len, budget);
            let first = sub.offset / BLOCK_BYTES;
            let last = (sub.offset + sub.len - 1) / BLOCK_BYTES;
            self.fs
                .ensure_allocated(sub.file, first, last - first + 1)
                .expect("server device out of space");
        }
        let extents = self
            .fs
            .map_range(sub.file, sub.offset, sub.len)
            .unwrap_or_else(|e| {
                panic!(
                    "server {}: reading unallocated data ({e}); preallocate the \
                     experiment files first",
                    self.id
                )
            });
        // Page-cache hit on previously readahead bytes: no device I/O.
        if sub.dir.is_read() {
            let covered = self
                .ra
                .get(&sub.file)
                .is_some_and(|ra| ra.covered(sub.offset, sub.len));
            if covered {
                self.ra_hits += 1;
                self.ra_bytes += sub.len;
                out.done_jobs.push(job);
                return;
            }
        }
        let disk_lbn = extents[0].lbn;
        let placement = self.policy.place(now, &sub, disk_lbn);
        match placement {
            Placement::Disk { admit_after_read } => {
                // Kernel readahead: extend a near-cursor read backwards
                // to the cursor, filling small holes so the disk sees a
                // sequential stream.
                let mut extents = extents;
                if sub.dir.is_read() {
                    let budget = self.cfg.ra_budget;
                    let ra = self.ra.entry(sub.file).or_default();
                    let start = if ra.cursor > 0
                        && sub.offset >= ra.cursor
                        && sub.offset - ra.cursor <= RA_FILL
                    {
                        ra.cursor
                    } else {
                        sub.offset
                    };
                    if start < sub.offset {
                        // The hole may be unallocated (e.g. never written
                        // to disk); only fill when it maps.
                        if let Ok(ext) =
                            self.fs
                                .map_range(sub.file, start, sub.offset + sub.len - start)
                        {
                            ra.record(start, sub.offset - start, budget);
                            extents = ext;
                        }
                    }
                    // The read's own bytes enter the page cache too.
                    ra.record(sub.offset, sub.len, budget);
                    ra.cursor = ra.cursor.max(sub.offset + sub.len);
                }
                let st = JobState {
                    job,
                    sub,
                    admit: admit_after_read,
                    served_at_disk: true,
                    started: now,
                };
                self.submit(now, GroupKind::Job(st), &extents, stream, rmw_edges, out);
            }
            Placement::Ssd { extents } => {
                let st = JobState {
                    job,
                    sub,
                    admit: false,
                    served_at_disk: false,
                    started: now,
                };
                self.submit(now, GroupKind::Job(st), &extents, stream, 0, out);
            }
        }
    }

    /// Records the completed job for observability: per-class and
    /// per-server latency metrics plus a `srv:job:*` span on the serving
    /// device's lane. Read-only; one atomic load when collection is off.
    #[cfg(feature = "obs")]
    fn observe_job_done(&self, now: SimTime, st: &JobState) {
        use crate::proto::ReqClass;
        use ibridge_obs::metrics::{self, Phase, SubClass};
        if !ibridge_obs::active() {
            return;
        }
        let d = (now - st.started).as_nanos();
        if ibridge_obs::metrics_on() {
            let class = match st.sub.class {
                ReqClass::Fragment { .. } => SubClass::Fragment,
                ReqClass::Random => SubClass::Random,
                ReqClass::Bulk => SubClass::Bulk,
            };
            metrics::record_phase(
                if st.served_at_disk {
                    Phase::SrvJobDisk
                } else {
                    Phase::SrvJobSsd
                },
                d,
            );
            metrics::record_sub(self.id as u16, class, st.served_at_disk, d, st.sub.len);
        }
        if ibridge_obs::tracing_on() {
            ibridge_obs::trace::record(ibridge_obs::Span {
                ts_ns: st.started.as_nanos(),
                dur_ns: d,
                node: ibridge_obs::trace::server_node(self.id),
                lane: if st.served_at_disk { 1 } else { 2 },
                name: if st.served_at_disk {
                    "srv:job:disk"
                } else {
                    "srv:job:ssd"
                },
                id: st.job,
                aux: st.sub.len,
            });
        }
    }

    fn handle_group_done(&mut self, now: SimTime, kind: GroupKind, out: &mut ServerOut) {
        match kind {
            GroupKind::Job(st) => {
                if st.admit && st.sub.dir.is_read() && st.served_at_disk {
                    if let Some((entry, extents)) = self.policy.read_admission(now, &st.sub) {
                        let kind = GroupKind::Admission(entry);
                        self.submit(now, kind, &extents, ADMISSION_STREAM, 0, out);
                    }
                }
                #[cfg(feature = "obs")]
                self.observe_job_done(now, &st);
                out.done_jobs.push(st.job);
            }
            GroupKind::Admission(entry) => {
                self.policy.admission_complete(now, entry);
            }
            GroupKind::FlushRead(op) => {
                // Writeback is a normal cached write, not a barrier, so
                // it pays no read-modify-write (DESIGN.md "Modelling
                // interpretations", item 2).
                let extents = self
                    .fs
                    .map_range(op.file, op.offset, op.len)
                    .expect("flushing data whose home blocks vanished");
                let kind = GroupKind::FlushWrite(op.id);
                self.submit(now, kind, &extents, FLUSH_STREAM, 0, out);
            }
            GroupKind::FlushWrite(flush) => {
                self.policy.flush_complete(now, flush);
            }
        }
    }

    /// A device finished its in-flight request.
    pub fn on_dev_complete(&mut self, now: SimTime, kind: DevKind, out: &mut ServerOut) {
        let (req, actions) = match kind {
            DevKind::Primary => self.primary.on_complete(now),
            DevKind::Cache => self
                .cache
                .as_mut()
                .expect("cache device not configured")
                .on_complete(now),
        };
        out.extend_dev(kind, actions);
        for &tag in &req.tags {
            let (slot, gen) = unpack_group(tag);
            let gs = &mut self.group_slots[slot as usize];
            assert_eq!(gs.gen, gen, "completion for a retired group");
            gs.pending -= 1;
            if gs.pending == 0 {
                let done = self.retire(slot);
                self.handle_group_done(now, done, out);
            }
        }
    }

    /// A device anticipation timer fired.
    pub fn on_dev_recheck(&mut self, now: SimTime, kind: DevKind, gen: u64, out: &mut ServerOut) {
        let actions = match kind {
            DevKind::Primary => self.primary.on_recheck(now, gen),
            DevKind::Cache => self
                .cache
                .as_mut()
                .map(|c| c.on_recheck(now, gen))
                .unwrap_or_default(),
        };
        out.extend_dev(kind, actions);
    }

    /// Periodic writeback opportunity. Unless `force`d (end-of-run
    /// drain), only acts while the primary device is quiet, as the paper
    /// specifies ("during quiet I/O-device periods").
    pub fn writeback_tick(&mut self, now: SimTime, force: bool, out: &mut ServerOut) {
        let Some(cache) = self.cache.as_mut() else {
            return;
        };
        if !force {
            // Background log maintenance (segment compaction/GC,
            // checkpoints, scrubbing) rides the same tick but keys on
            // the *cache* device being quiet — it reads and rewrites
            // the SSD log, not the disk. The end-of-run drain skips it:
            // maintenance never delays the drain.
            let idle = cache.probe_idle();
            self.policy.log_maintenance(now, idle);
        }
        if !force && !self.primary.is_idle() {
            return;
        }
        let batch = self.policy.flush_batch(now, WRITEBACK_BATCH);
        for op in batch {
            let extents = op.ssd_extents.clone();
            let kind = GroupKind::FlushRead(op);
            self.submit(now, kind, &extents, FLUSH_STREAM, 0, out);
        }
    }

    /// Fault injection: the server process dies at `now`. Every piece
    /// of volatile state — completion groups (with the jobs and flushes
    /// they carry), queued and in-flight device I/O, the page cache —
    /// is lost; the devices are rebuilt cold. The policy is *not*
    /// touched here: its durable (on-SSD) state is replayed by
    /// [`DataServer::restart`] when the process comes back. The caller
    /// must discard any scheduled device events for this server (their
    /// completions now refer to hardware queues that no longer exist).
    pub fn crash(&mut self, _now: SimTime) {
        self.group_slots.clear();
        self.free_groups.clear();
        self.ra.clear();
        self.cpu_free = SimTime::ZERO;
        self.primary = make_primary(&self.cfg);
        self.cache = if self.cache_lost {
            None
        } else {
            make_cache(&self.cfg)
        };
        self.obs_label_devices();
    }

    /// Fault injection: the crashed process comes back up and replays
    /// the on-SSD mapping-table backup (clean entries invalidated,
    /// dirty entries preserved — see [`CachePolicy::server_restart`]).
    pub fn restart(&mut self, now: SimTime) -> RestartReport {
        self.policy.server_restart(now)
    }

    /// Fault injection: silently corrupts the on-SSD mapping-table
    /// backup log. Nothing observable happens until the next restart's
    /// recovery fsck scans the log. Returns the number of backup
    /// records affected (0 with no cache device to corrupt).
    pub fn corrupt_cache(&mut self, now: SimTime, corruption: LogCorruption) -> u64 {
        if self.cache.is_none() {
            return 0;
        }
        self.policy.inject_corruption(now, corruption)
    }

    /// Fault injection: the SSD cache device fails permanently. All
    /// in-flight cache I/O dies; jobs that were being served from the
    /// SSD are appended to `lost_jobs` so the cluster can drop its
    /// bookkeeping (clients recover them by timeout + retry against
    /// the now-degraded, disk-only server). Returns the dirty bytes
    /// destroyed with the device — the durability cost of buffering
    /// writes in the cache.
    pub fn lose_cache_dev(&mut self, now: SimTime, lost_jobs: &mut Vec<JobId>) -> u64 {
        if self.cache.take().is_none() {
            return 0;
        }
        self.cache_lost = true;
        for slot in 0..self.group_slots.len() {
            let on_cache = self.group_slots[slot]
                .kind
                .as_ref()
                .is_some_and(|k| k.target().0 == DevKind::Cache);
            if !on_cache {
                continue;
            }
            match self.retire(slot as u32) {
                GroupKind::Job(st) => lost_jobs.push(st.job),
                // The admission's entry and the flush's op die with the
                // policy state below.
                GroupKind::Admission(_) | GroupKind::FlushRead(_) => {}
                // Flush writes run on the primary device.
                GroupKind::FlushWrite(_) => unreachable!("flush write on cache device"),
            }
        }
        self.policy.ssd_lost(now)
    }

    /// Fault injection: sets (or clears, `f = 1.0`) the fail-slow
    /// service-time multiplier on one device. A missing cache device is
    /// ignored.
    pub fn set_slow_factor(&mut self, dev: DevKind, f: f64) {
        match dev {
            DevKind::Primary => self.primary.set_slow_factor(f),
            DevKind::Cache => {
                if let Some(c) = &mut self.cache {
                    c.set_slow_factor(f);
                }
            }
        }
    }

    /// True when the server has no work in flight and no dirty data.
    pub fn quiescent(&self) -> bool {
        self.free_groups.len() == self.group_slots.len()
            && self.primary.is_idle()
            && self.cache.as_ref().is_none_or(|c| c.is_idle())
            && self.policy.dirty_bytes() == 0
    }

    /// Preallocates the local datafile backing `file` with `bytes` of
    /// capacity (the per-server share of a striped file).
    pub fn preallocate(&mut self, file: FileHandle, bytes: u64) {
        self.fs
            .preallocate(file, bytes)
            .expect("preallocation exceeded device capacity");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::ReqClass;
    use crate::StockPolicy;
    use ibridge_des::Simulation;
    use ibridge_localfs::ExtentList;

    fn server() -> DataServer {
        DataServer::new(0, ServerConfig::default(), Box::new(StockPolicy::new()))
    }

    fn sub(dir: IoDir, offset: u64, len: u64) -> SubRequest {
        SubRequest {
            dir,
            file: FileHandle(1),
            server: 0,
            offset,
            len,
            class: ReqClass::Bulk,
        }
    }

    /// Wrapper over the out-param API for tests that want a fresh value.
    fn exec(
        s: &mut DataServer,
        t: SimTime,
        job: JobId,
        stream: StreamId,
        r: SubRequest,
    ) -> ServerOut {
        let mut out = ServerOut::default();
        s.exec_subreq(t, job, stream, r, &mut out);
        out
    }

    fn tick(s: &mut DataServer, t: SimTime, force: bool) -> ServerOut {
        let mut out = ServerOut::default();
        s.writeback_tick(t, force, &mut out);
        out
    }

    /// Pumps all device events for one server until quiet; returns done
    /// jobs in completion order.
    fn pump(server: &mut DataServer, initial: ServerOut) -> Vec<JobId> {
        #[derive(Debug)]
        enum Ev {
            Done(DevKind),
            Recheck(DevKind, u64),
        }
        let mut sim: Simulation<Ev> = Simulation::new(1, SimDuration::from_nanos(1));
        let mut done = Vec::new();
        let push = |sim: &mut Simulation<Ev>, out: &ServerOut| {
            for (kind, a) in &out.dev_actions {
                match a {
                    Action::CompleteAt(t) => sim.post_at(0, 0, *t, Ev::Done(*kind)),
                    Action::RecheckAt(t, g) => sim.post_at(0, 0, *t, Ev::Recheck(*kind, *g)),
                }
            }
        };
        done.extend(initial.done_jobs.iter().copied());
        push(&mut sim, &initial);
        let mut out = ServerOut::default();
        while let Some((t, ev)) = sim.pop() {
            out.clear();
            match ev {
                Ev::Done(k) => server.on_dev_complete(t, k, &mut out),
                Ev::Recheck(k, g) => server.on_dev_recheck(t, k, g, &mut out),
            }
            done.extend(out.done_jobs.iter().copied());
            push(&mut sim, &out);
        }
        done
    }

    #[test]
    fn write_then_read_roundtrip() {
        // Disable the page-cache model so the read actually hits the disk.
        let cfg = ServerConfig {
            ra_budget: 0,
            ..Default::default()
        };
        let mut s = DataServer::new(0, cfg, Box::new(StockPolicy::new()));
        let t = SimTime::ZERO;
        let out = exec(&mut s, t, 1, 10, sub(IoDir::Write, 0, 65536));
        let done = pump(&mut s, out);
        assert_eq!(done, vec![1]);
        let out = exec(
            &mut s,
            SimTime::from_secs(1),
            2,
            10,
            sub(IoDir::Read, 0, 65536),
        );
        let done = pump(&mut s, out);
        assert_eq!(done, vec![2]);
        assert!(s.quiescent());
        let stats = s.primary().stats();
        assert_eq!(stats.bytes_written, 65536);
        assert_eq!(stats.bytes_read, 65536);
    }

    #[test]
    fn write_then_read_hits_page_cache() {
        let mut s = server();
        let out = exec(&mut s, SimTime::ZERO, 1, 10, sub(IoDir::Write, 0, 65536));
        pump(&mut s, out);
        let out = exec(
            &mut s,
            SimTime::from_secs(1),
            2,
            10,
            sub(IoDir::Read, 0, 65536),
        );
        let done = pump(&mut s, out);
        assert_eq!(done, vec![2]);
        assert_eq!(s.primary().stats().bytes_read, 0, "served from page cache");
        assert_eq!(s.readahead_hits(), (1, 65536));
    }

    #[test]
    #[should_panic(expected = "preallocate")]
    fn reading_unallocated_panics() {
        let mut s = server();
        exec(&mut s, SimTime::ZERO, 1, 10, sub(IoDir::Read, 0, 4096));
    }

    #[test]
    fn preallocation_enables_reads() {
        let mut s = server();
        s.preallocate(FileHandle(1), 1 << 20);
        let out = exec(&mut s, SimTime::ZERO, 7, 3, sub(IoDir::Read, 65536, 65536));
        let done = pump(&mut s, out);
        assert_eq!(done, vec![7]);
    }

    #[test]
    fn cpu_admission_serialises() {
        let mut s = server();
        let t = SimTime::ZERO;
        let a = s.cpu_admit(t);
        let b = s.cpu_admit(t);
        assert_eq!(a, t + OP_OVERHEAD);
        assert_eq!(b, a + OP_OVERHEAD);
        // After an idle gap the CPU is free immediately.
        let later = SimTime::from_secs(5);
        let c = s.cpu_admit(later);
        assert_eq!(c, later + OP_OVERHEAD);
    }

    #[test]
    fn multiple_jobs_complete_independently() {
        let mut s = server();
        s.preallocate(FileHandle(1), 4 << 20);
        let t = SimTime::ZERO;
        let mut out = exec(&mut s, t, 1, 10, sub(IoDir::Read, 0, 65536));
        s.exec_subreq(t, 2, 11, sub(IoDir::Read, 2 << 20, 65536), &mut out);
        let done = pump(&mut s, out);
        assert_eq!(done.len(), 2);
        assert!(s.quiescent());
    }

    #[test]
    fn ssd_only_primary_works() {
        let cfg = ServerConfig {
            primary_is_ssd: true,
            ..Default::default()
        };
        let mut s = DataServer::new(0, cfg, Box::new(StockPolicy::new()));
        let out = exec(&mut s, SimTime::ZERO, 1, 10, sub(IoDir::Write, 0, 4096));
        let done = pump(&mut s, out);
        assert_eq!(done, vec![1]);
    }

    #[test]
    fn writeback_tick_without_cache_is_noop() {
        let mut s = server();
        let out = tick(&mut s, SimTime::ZERO, true);
        assert!(out.dev_actions.is_empty());
        assert!(out.done_jobs.is_empty());
    }

    /// A scripted policy exercising the server's cache plumbing: every
    /// read admits after disk service; every write redirects to a fixed
    /// log position; flush_batch returns one op per dirty entry.
    #[derive(Debug, Default)]
    struct Scripted {
        next_log: u64,
        dirty: Vec<(u64, crate::policy::FlushOp)>,
        admissions: std::cell::Cell<u64>,
        flushed: u64,
    }

    impl crate::policy::CachePolicy for Scripted {
        fn place(
            &mut self,
            _now: SimTime,
            sub: &SubRequest,
            _lbn: u64,
        ) -> crate::policy::Placement {
            if sub.dir.is_write() {
                let sectors = sub.len.div_ceil(512);
                let extents = ExtentList::one(Extent {
                    lbn: self.next_log,
                    sectors,
                });
                let id = self.next_log;
                self.next_log += sectors;
                self.dirty.push((
                    id,
                    crate::policy::FlushOp {
                        id,
                        file: sub.file,
                        offset: sub.offset,
                        len: sub.len,
                        ssd_extents: extents.clone(),
                    },
                ));
                crate::policy::Placement::Ssd { extents }
            } else {
                crate::policy::Placement::Disk {
                    admit_after_read: true,
                }
            }
        }

        fn read_admission(&mut self, _now: SimTime, sub: &SubRequest) -> Option<(u64, ExtentList)> {
            let sectors = sub.len.div_ceil(512);
            let extents = ExtentList::one(Extent {
                lbn: self.next_log,
                sectors,
            });
            let id = self.next_log;
            self.next_log += sectors;
            Some((id, extents))
        }

        fn admission_complete(&mut self, _now: SimTime, _entry: u64) {
            self.admissions.set(self.admissions.get() + 1);
        }

        fn flush_batch(&mut self, _now: SimTime, _max: u64) -> Vec<crate::policy::FlushOp> {
            self.dirty.drain(..).map(|(_, op)| op).collect()
        }

        fn flush_complete(&mut self, _now: SimTime, _id: u64) {
            self.flushed += 1;
        }

        fn report_t(&self) -> f64 {
            0.0
        }
        fn receive_broadcast(&mut self, _t: &[f64]) {}
        fn dirty_bytes(&self) -> u64 {
            self.dirty.len() as u64
        }
        fn stats(&self) -> crate::policy::CacheStats {
            crate::policy::CacheStats::default()
        }
    }

    fn cache_server() -> DataServer {
        let cfg = ServerConfig {
            with_cache_dev: true,
            ..Default::default()
        };
        DataServer::new(0, cfg, Box::new(Scripted::default()))
    }

    #[test]
    fn redirected_write_uses_the_cache_device() {
        let mut s = cache_server();
        let out = exec(&mut s, SimTime::ZERO, 1, 10, sub(IoDir::Write, 0, 4096));
        let done = pump(&mut s, out);
        assert_eq!(done, vec![1]);
        assert_eq!(s.cache().unwrap().stats().bytes_written, 4096);
        assert_eq!(s.primary().stats().bytes_written, 0, "disk untouched");
    }

    #[test]
    fn read_admission_copies_into_the_cache_after_disk_read() {
        let mut s = cache_server();
        s.preallocate(FileHandle(1), 1 << 20);
        let out = exec(&mut s, SimTime::ZERO, 1, 10, sub(IoDir::Read, 0, 8192));
        let done = pump(&mut s, out);
        assert_eq!(done, vec![1]);
        assert_eq!(s.primary().stats().bytes_read, 8192);
        // The admission write landed on the SSD afterwards.
        assert_eq!(s.cache().unwrap().stats().bytes_written, 8192);
    }

    #[test]
    fn forced_writeback_runs_the_two_phase_flush() {
        let mut s = cache_server();
        let out = exec(&mut s, SimTime::ZERO, 1, 10, sub(IoDir::Write, 0, 4096));
        pump(&mut s, out);
        assert!(!s.quiescent(), "dirty data pending");
        let out = tick(&mut s, SimTime::from_secs(1), true);
        pump(&mut s, out);
        // SSD read + disk write both happened.
        assert_eq!(s.cache().unwrap().stats().bytes_read, 4096);
        assert_eq!(s.primary().stats().bytes_written, 4096);
        assert!(s.quiescent());
    }

    #[test]
    fn unforced_writeback_waits_for_a_quiet_disk() {
        let mut s = cache_server();
        s.preallocate(FileHandle(1), 1 << 20);
        // Busy the disk with a read, leave a dirty entry in the cache.
        let mut out = exec(&mut s, SimTime::ZERO, 1, 10, sub(IoDir::Write, 65536, 4096));
        s.exec_subreq(SimTime::ZERO, 2, 11, sub(IoDir::Read, 0, 65536), &mut out);
        // Tick immediately: the primary device is busy → no flush issued.
        let t0 = tick(&mut s, SimTime::ZERO, false);
        assert!(t0.dev_actions.is_empty(), "must not flush under load");
        pump(&mut s, out);
        // Now the disk is quiet: the tick flushes.
        let t1 = tick(&mut s, SimTime::from_secs(2), false);
        assert!(!t1.dev_actions.is_empty());
        pump(&mut s, t1);
        assert!(s.quiescent());
    }

    /// Primary-device busy time of one client write of `len` bytes at
    /// `offset` on a fresh server. With `prealloc` the datafile's blocks
    /// hold prior data that is not in the page cache, so each partial
    /// edge block must be read first; without it the write allocates
    /// fresh blocks and has nothing to read.
    fn write_busy(prealloc: bool, offset: u64, len: u64) -> SimDuration {
        let mut s = server();
        if prealloc {
            s.preallocate(FileHandle(1), 1 << 20);
        }
        let out = exec(&mut s, SimTime::ZERO, 1, 10, sub(IoDir::Write, offset, len));
        assert_eq!(pump(&mut s, out), vec![1]);
        s.primary().stats().busy
    }

    #[test]
    fn cold_unaligned_write_pays_one_revolution_per_edge_block() {
        let rev = ServerConfig::default().disk.revolution;
        let rmw = |offset, len| write_busy(true, offset, len) - write_busy(false, offset, len);
        assert_eq!(rmw(0, 8192), SimDuration::ZERO, "aligned");
        assert_eq!(rmw(0, 5000), rev, "one unaligned edge");
        assert_eq!(rmw(100, 8000), rev * 2, "edges in two blocks");
        assert_eq!(rmw(100, 700), rev, "both edges in one block");
    }

    /// Primary-device busy time of the forced writeback of one
    /// redirected, unaligned write, placed far enough from the disk head
    /// that the flush write does not stream. With `drop_cache` the page
    /// cache is dropped between the write and the flush, so the op's
    /// partial edge blocks are cold when it lands.
    fn flush_busy(drop_cache: bool) -> SimDuration {
        let mut s = cache_server();
        s.preallocate(FileHandle(1), 4 << 20);
        let w = sub(IoDir::Write, (2 << 20) + 100, 8000);
        let out = exec(&mut s, SimTime::ZERO, 1, 10, w);
        pump(&mut s, out);
        assert_eq!(
            s.primary().stats().busy,
            SimDuration::ZERO,
            "write redirected"
        );
        if drop_cache {
            s.prepare_run();
        }
        let out = tick(&mut s, SimTime::from_secs(1), true);
        pump(&mut s, out);
        assert!(s.quiescent());
        s.primary().stats().busy
    }

    #[test]
    fn writeback_pays_no_read_modify_write() {
        let warm = flush_busy(false);
        assert!(warm > SimDuration::ZERO);
        assert_eq!(flush_busy(true), warm);
    }

    #[test]
    fn sub_block_write_is_sector_granular() {
        let mut s = server();
        let out = exec(&mut s, SimTime::ZERO, 1, 10, sub(IoDir::Write, 100, 700));
        let done = pump(&mut s, out);
        assert_eq!(done, vec![1]);
        // 700 bytes from offset 100 → sectors 0..2 (two sectors).
        assert_eq!(s.primary().stats().bytes_written, 1024);
    }
}
