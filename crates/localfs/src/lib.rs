//! Ext2-style local file system allocator.
//!
//! Each PVFS2 data server stores one local "datafile" per striped file,
//! managed in the paper's testbed by Linux Ext2. The only property of
//! Ext2 the experiments depend on is the *offset → LBN mapping*: block
//! groups keep a file's blocks mostly contiguous, so a datafile's
//! logical offsets map near-linearly onto disk sectors, with gaps at
//! group boundaries and between files. This crate implements exactly
//! that: block-group allocation with per-file preferred groups,
//! extent-based bookkeeping, and sector-accurate range mapping.
//!
//! # Example
//!
//! ```
//! use ibridge_localfs::{FileHandle, LocalFs};
//!
//! let mut fs = LocalFs::new(1 << 24); // 8 GiB
//! let f = FileHandle(1);
//! fs.preallocate(f, 1 << 20).unwrap(); // 1 MiB datafile
//! let extents = fs.map_range(f, 0, 65536).unwrap();
//! let total: u64 = extents.iter().map(|e| e.sectors).sum();
//! assert_eq!(total, 128); // 64 KiB = 128 sectors
//! ```

use ibridge_des::fxhash::FxHashMap as HashMap;
use ibridge_des::InlineVec;
use std::collections::BTreeMap;
use std::fmt;

/// Logical block (sector) number, duplicated from `ibridge-device` to
/// keep this crate dependency-free.
pub type Lbn = u64;

/// Bytes per sector.
pub const SECTOR_SIZE: u64 = 512;

/// Identifies a local file (a PVFS datafile).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FileHandle(pub u64);

/// A contiguous run of sectors on the device.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Extent {
    /// First sector.
    pub lbn: Lbn,
    /// Run length in sectors (> 0).
    pub sectors: u64,
}

impl Extent {
    /// First sector past the end.
    pub fn end(&self) -> Lbn {
        self.lbn + self.sectors
    }
}

/// Number of extents an [`ExtentList`] stores without heap allocation.
///
/// Two covers the common cases by construction: a mapping-table entry
/// holds "1, or 2 when the log wraps" extents, and a file range maps to
/// one extent (two when it crosses a block-group boundary). Longer
/// lists (multi-group spans) spill to the heap transparently.
pub const EXTENT_INLINE: usize = 2;

/// A list of [`Extent`]s that stores up to [`EXTENT_INLINE`] entries
/// inline and spills to a `Vec` beyond that.
///
/// This is the extent currency of the simulator's hot path: file-system
/// mappings, SSD-log placements and per-entry bookkeeping all pass
/// `ExtentList`s, so the per-I/O `Vec` allocation the old `Vec<Extent>`
/// returns imposed only happens for genuinely fragmented ranges.
pub type ExtentList = InlineVec<Extent, EXTENT_INLINE>;

/// Allocation errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FsError {
    /// The device has no free blocks left.
    NoSpace,
    /// A range was mapped without being allocated first.
    Unallocated {
        /// File whose range was requested.
        file: FileHandle,
        /// First unallocated block index.
        block: u64,
    },
}

impl fmt::Display for FsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FsError::NoSpace => write!(f, "file system is full"),
            FsError::Unallocated { file, block } => {
                write!(f, "file {file:?} block {block} is not allocated")
            }
        }
    }
}

impl std::error::Error for FsError {}

/// Sectors per file system block: 4 KiB blocks, the Ext2 default on the
/// paper's testbed.
pub const BLOCK_SECTORS: u64 = 8;
/// Sectors per block group (Ext2: 32 K blocks, 128 MiB per group).
const GROUP_SECTORS: u64 = 262_144;
/// Sectors reserved at the start of each group for metadata (block
/// bitmap, inode bitmap, inode table). They make the physical gap
/// between groups that breaks file extents at group boundaries.
const GROUP_META_SECTORS: u64 = 512;

#[derive(Debug, Default)]
struct FileMeta {
    /// block index → (start LBN, blocks) runs, coalesced when adjacent.
    runs: BTreeMap<u64, (Lbn, u64)>,
    pref_group: usize,
}

#[derive(Debug, Clone, Copy)]
struct Group {
    next_free: Lbn,
    end: Lbn,
}

impl Group {
    fn free_blocks(&self) -> u64 {
        (self.end - self.next_free) / BLOCK_SECTORS
    }
}

/// The allocator.
#[derive(Debug)]
pub struct LocalFs {
    groups: Vec<Group>,
    files: HashMap<FileHandle, FileMeta>,
    next_pref: usize,
}

impl LocalFs {
    /// Creates a file system over `capacity_sectors` sectors.
    ///
    /// # Panics
    ///
    /// Panics if the capacity does not hold at least one group.
    pub fn new(capacity_sectors: u64) -> Self {
        let n_groups = capacity_sectors / GROUP_SECTORS;
        assert!(n_groups > 0, "capacity smaller than one block group");
        let groups = (0..n_groups)
            .map(|g| Group {
                next_free: g * GROUP_SECTORS + GROUP_META_SECTORS,
                end: (g + 1) * GROUP_SECTORS,
            })
            .collect();
        LocalFs {
            groups,
            files: HashMap::default(),
            next_pref: 0,
        }
    }

    fn meta_mut(&mut self, file: FileHandle) -> &mut FileMeta {
        if !self.files.contains_key(&file) {
            // Spread files across groups like Ext2's inode allocator.
            let pref = self.next_pref % self.groups.len();
            self.next_pref += 1;
            self.files.insert(
                file,
                FileMeta {
                    pref_group: pref,
                    ..Default::default()
                },
            );
        }
        self.files.get_mut(&file).expect("just inserted")
    }

    /// Allocates one contiguous run of up to `want` blocks, preferring
    /// `pref` group. Returns (start LBN, blocks).
    fn alloc_run(&mut self, pref: usize, want: u64) -> Result<(Lbn, u64), FsError> {
        let n = self.groups.len();
        for i in 0..n {
            let g = &mut self.groups[(pref + i) % n];
            let free = g.free_blocks();
            if free == 0 {
                continue;
            }
            let take = want.min(free);
            let lbn = g.next_free;
            g.next_free += take * BLOCK_SECTORS;
            return Ok((lbn, take));
        }
        Err(FsError::NoSpace)
    }

    /// Ensures blocks `[start_block, start_block + nblocks)` of `file`
    /// are allocated, extending with new extents as needed.
    pub fn ensure_allocated(
        &mut self,
        file: FileHandle,
        start_block: u64,
        nblocks: u64,
    ) -> Result<(), FsError> {
        if nblocks == 0 {
            return Ok(());
        }
        // Collect the missing block runs first (immutable pass).
        let missing = {
            let meta = self.meta_mut(file);
            let mut missing: Vec<(u64, u64)> = Vec::new();
            let mut b = start_block;
            let end = start_block + nblocks;
            while b < end {
                match meta.runs.range(..=b).next_back() {
                    Some((&rb, &(_, rl))) if b < rb + rl => {
                        b = rb + rl; // covered; skip to the run's end
                    }
                    _ => {
                        // Find where coverage resumes.
                        let next_run = meta
                            .runs
                            .range(b + 1..)
                            .map(|(&rb, _)| rb)
                            .next()
                            .unwrap_or(end)
                            .min(end);
                        missing.push((b, next_run - b));
                        b = next_run;
                    }
                }
            }
            missing
        };
        let pref = self.files[&file].pref_group;
        for (mut b, mut remaining) in missing {
            while remaining > 0 {
                let (lbn, got) = self.alloc_run(pref, remaining)?;
                let meta = self.files.get_mut(&file).expect("exists");
                // Coalesce with the previous run when physically adjacent.
                let merged = match meta.runs.range_mut(..b).next_back() {
                    Some((&rb, run)) if rb + run.1 == b && run.0 + run.1 * BLOCK_SECTORS == lbn => {
                        run.1 += got;
                        true
                    }
                    _ => false,
                };
                if !merged {
                    meta.runs.insert(b, (lbn, got));
                }
                b += got;
                remaining -= got;
            }
        }
        Ok(())
    }

    /// Preallocates the first `bytes` of `file` (used to lay out the
    /// experiment data sets before a run, as the paper's setup does by
    /// writing the file once).
    pub fn preallocate(&mut self, file: FileHandle, bytes: u64) -> Result<(), FsError> {
        self.ensure_allocated(file, 0, bytes.div_ceil(BLOCK_SECTORS * SECTOR_SIZE))
    }

    /// Maps the byte range `[offset, offset + len)` of `file` to device
    /// extents, sector-accurate, in file order. Adjacent extents are
    /// coalesced.
    ///
    /// Returns [`FsError::Unallocated`] if any touched block is missing.
    pub fn map_range(
        &self,
        file: FileHandle,
        offset: u64,
        len: u64,
    ) -> Result<ExtentList, FsError> {
        if len == 0 {
            return Ok(ExtentList::new());
        }
        let meta = self
            .files
            .get(&file)
            .ok_or(FsError::Unallocated { file, block: 0 })?;
        let bs = BLOCK_SECTORS;
        // Sector-align the byte range.
        let first_sector = offset / SECTOR_SIZE;
        let last_sector = (offset + len).div_ceil(SECTOR_SIZE);
        let mut out = ExtentList::new();
        let mut s = first_sector;
        while s < last_sector {
            let block = s / bs;
            let (run_block, (run_lbn, run_len)) = meta
                .runs
                .range(..=block)
                .next_back()
                .map(|(&b, &r)| (b, r))
                .filter(|&(b, (_, l))| block < b + l)
                .ok_or(FsError::Unallocated { file, block })?;
            // Sector within the run.
            let run_start_sector = run_block * bs;
            let run_end_sector = (run_block + run_len) * bs;
            let take_end = last_sector.min(run_end_sector);
            let lbn = run_lbn + (s - run_start_sector);
            let sectors = take_end - s;
            match out.as_mut_slice().last_mut() {
                Some(prev) if prev.end() == lbn => prev.sectors += sectors,
                _ => out.push(Extent { lbn, sectors }),
            }
            s = take_end;
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fs() -> LocalFs {
        LocalFs::new(1 << 22) // 2 GiB
    }

    #[test]
    fn preallocate_then_map_is_contiguous() {
        let mut f = fs();
        let h = FileHandle(1);
        f.preallocate(h, 1 << 20).unwrap();
        let ext = f.map_range(h, 0, 1 << 20).unwrap();
        assert_eq!(ext.len(), 1, "single-group file should be one extent");
        assert_eq!(ext[0].sectors, 2048);
    }

    #[test]
    fn map_is_linear_within_extent() {
        let mut f = fs();
        let h = FileHandle(1);
        f.preallocate(h, 1 << 20).unwrap();
        let a = f.map_range(h, 0, 4096).unwrap();
        let b = f.map_range(h, 65536, 4096).unwrap();
        assert_eq!(b[0].lbn - a[0].lbn, 128);
    }

    #[test]
    fn sub_sector_ranges_round_to_sectors() {
        let mut f = fs();
        let h = FileHandle(1);
        f.preallocate(h, 8192).unwrap();
        let ext = f.map_range(h, 100, 200).unwrap();
        // Bytes 100..300 live in sector 0 (0..512).
        assert_eq!(ext.len(), 1);
        assert_eq!(ext[0].sectors, 1);
        let ext = f.map_range(h, 500, 50).unwrap();
        // Bytes 500..550 straddle sectors 0 and 1.
        assert_eq!(ext[0].sectors, 2);
    }

    #[test]
    fn different_files_get_different_groups() {
        let mut f = fs();
        let a = FileHandle(1);
        let b = FileHandle(2);
        f.preallocate(a, 4096).unwrap();
        f.preallocate(b, 4096).unwrap();
        let ea = f.map_range(a, 0, 4096).unwrap();
        let eb = f.map_range(b, 0, 4096).unwrap();
        let gap = ea[0].lbn.abs_diff(eb[0].lbn);
        assert!(gap >= GROUP_SECTORS, "gap={gap}");
    }

    #[test]
    fn unallocated_read_errors() {
        let mut f = fs();
        let h = FileHandle(1);
        f.preallocate(h, 4096).unwrap();
        let err = f.map_range(h, 8192, 4096).unwrap_err();
        assert!(matches!(err, FsError::Unallocated { .. }));
        let err = f.map_range(FileHandle(9), 0, 1).unwrap_err();
        assert!(matches!(err, FsError::Unallocated { .. }));
    }

    #[test]
    fn extending_allocation_coalesces() {
        let mut f = fs();
        let h = FileHandle(1);
        f.ensure_allocated(h, 0, 4).unwrap();
        f.ensure_allocated(h, 4, 4).unwrap();
        let ext = f.map_range(h, 0, 8 * 4096).unwrap();
        assert_eq!(ext.len(), 1, "sequential growth should stay one extent");
    }

    #[test]
    fn hole_then_fill() {
        let mut f = fs();
        let h = FileHandle(1);
        f.ensure_allocated(h, 0, 2).unwrap();
        f.ensure_allocated(h, 10, 2).unwrap();
        assert!(f.map_range(h, 2 * 4096, 4096).is_err(), "hole unmapped");
        f.ensure_allocated(h, 0, 12).unwrap(); // fills the hole
        let ext = f.map_range(h, 0, 12 * 4096).unwrap();
        let total: u64 = ext.iter().map(|e| e.sectors).sum();
        assert_eq!(total, 12 * 8);
    }

    #[test]
    fn file_spanning_groups_breaks_extent() {
        // 128 MiB groups, each missing its metadata sectors: 300 MiB
        // spans three of them.
        let mut f = fs();
        let h = FileHandle(1);
        let bytes = 300 << 20;
        f.preallocate(h, bytes).unwrap();
        let ext = f.map_range(h, 0, bytes).unwrap();
        assert!(ext.len() >= 3, "must span several groups: {}", ext.len());
        let total: u64 = ext.iter().map(|e| e.sectors).sum();
        assert_eq!(total, bytes / SECTOR_SIZE);
    }

    #[test]
    fn no_space_error() {
        let mut f = LocalFs::new(2 * GROUP_SECTORS); // 2 groups, 256 MiB
        let h = FileHandle(1);
        let err = f.preallocate(h, 256 << 20).unwrap_err();
        assert_eq!(err, FsError::NoSpace);
    }

    #[test]
    fn extent_list_stays_inline_up_to_two() {
        let a = Extent { lbn: 0, sectors: 8 };
        let b = Extent {
            lbn: 16,
            sectors: 8,
        };
        let c = Extent {
            lbn: 32,
            sectors: 8,
        };
        let mut l = ExtentList::new();
        assert!(l.is_empty() && !l.spilled());
        l.push(a);
        l.push(b);
        assert_eq!(l.len(), 2);
        assert!(!l.spilled(), "two extents must not allocate");
        assert_eq!(l.as_slice(), &[a, b]);
        l.push(c);
        assert!(l.spilled());
        assert_eq!(l.as_slice(), &[a, b, c]);
        assert_eq!(l, ExtentList::from(vec![a, b, c]));
        l.clear();
        assert!(l.is_empty());
        assert_eq!(ExtentList::one(a).as_slice(), &[a]);
        assert_eq!(ExtentList::two(a, b).as_slice(), &[a, b]);
        assert_eq!(format!("{:?}", ExtentList::one(a)), format!("{:?}", [a]));
    }

    #[test]
    fn unfragmented_map_range_does_not_spill() {
        let mut f = fs();
        let h = FileHandle(1);
        f.preallocate(h, 1 << 20).unwrap();
        let ext = f.map_range(h, 0, 1 << 20).unwrap();
        assert!(!ext.spilled());
    }

    #[test]
    fn zero_length_map_is_empty() {
        let mut f = fs();
        let h = FileHandle(1);
        f.preallocate(h, 4096).unwrap();
        assert!(f.map_range(h, 0, 0).unwrap().is_empty());
    }
}
