//! On-media record format of the SSD mapping-table backup.
//!
//! The paper persists dirty mapping-table entries "immediately ... on
//! the SSD with the write requests" — one table record rides along with
//! every log append. Earlier revisions modelled that record as a flat
//! one-sector overhead and replayed the backup as an always-intact
//! snapshot. This module gives the backup a real, verifiable format so
//! recovery can tell an intact record from a torn or bit-rotted one:
//!
//! ```text
//! offset  size  field
//! ------  ----  -----------------------------------------------------
//!      0     4  magic "iBLG"
//!      4     1  version (1)
//!      5     1  flags (bit 0: dirty, bit 1: tombstone)
//!      6     1  entry type (0 fragment, 1 random)
//!      7     1  extent count n (1 or 2 for log appends)
//!      8     4  total record length in bytes, CRC included (u32 LE)
//!     12     8  log sequence number (u64 LE, strictly increasing)
//!     20     8  entry id
//!     28     8  file handle
//!     36     8  file offset (bytes)
//!     44     8  cached length (bytes)
//!     52     8  admission return value (f64 bit pattern)
//!     60   16n  extent descriptors: (lbn u64, sectors u64) each
//! 60+16n     4  CRC-32 (IEEE) over bytes [0, 60+16n)
//! ```
//!
//! A record with one or two extents (every log append: the circular log
//! wraps at most once) is 80 or 96 bytes — under one 512-byte sector,
//! so the allocator charges exactly one header sector per entry, the
//! same space cost the old flat constant modelled.

use crate::log::EntryId;
use crate::table::EntryType;
use ibridge_localfs::{Extent, ExtentList, FileHandle, SECTOR_SIZE};

/// First bytes of every record.
pub const RECORD_MAGIC: [u8; 4] = *b"iBLG";
/// Current format version.
pub const RECORD_VERSION: u8 = 1;

const FIXED_BYTES: usize = 60;
const EXTENT_BYTES: usize = 16;
const CRC_BYTES: usize = 4;

// ---------------------------------------------------------------------
// CRC-32 (IEEE 802.3, reflected), table-driven and dependency-free.
// ---------------------------------------------------------------------

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0usize;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc32_table();

/// CRC-32 (IEEE polynomial) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

// ---------------------------------------------------------------------
// Records.
// ---------------------------------------------------------------------

/// One decoded mapping-table backup record.
#[derive(Debug, Clone, PartialEq)]
pub struct LogRecord {
    /// Log sequence number, strictly increasing across appends.
    pub seq: u64,
    /// Mapping-table entry id at the time the record was written.
    pub entry: EntryId,
    /// Home datafile.
    pub file: FileHandle,
    /// Home offset in bytes.
    pub offset: u64,
    /// Cached length in bytes.
    pub len: u64,
    /// SSD partition the entry belongs to.
    pub typ: EntryType,
    /// Return value recorded at admission.
    pub ret: f64,
    /// Whether the cached data is newer than the disk copy.
    pub dirty: bool,
    /// Tombstone: the record retires an earlier record instead of
    /// describing a live entry. `entry` then holds the *sequence
    /// number* of the record being killed, and `extents` is empty.
    pub tombstone: bool,
    /// Data extents in the SSD log.
    pub extents: ExtentList,
}

impl LogRecord {
    /// Encoded size of a record with `n_extents` extents.
    pub fn encoded_len(n_extents: usize) -> usize {
        FIXED_BYTES + n_extents * EXTENT_BYTES + CRC_BYTES
    }

    /// Serialises the record, CRC last.
    pub fn encode(&self) -> Vec<u8> {
        let n = self.extents.len();
        assert!(n <= u8::MAX as usize, "extent count overflows the format");
        let total = Self::encoded_len(n);
        let mut out = Vec::with_capacity(total);
        out.extend_from_slice(&RECORD_MAGIC);
        out.push(RECORD_VERSION);
        out.push(self.dirty as u8 | (self.tombstone as u8) << 1);
        out.push(match self.typ {
            EntryType::Fragment => 0,
            EntryType::Random => 1,
        });
        out.push(n as u8);
        out.extend_from_slice(&(total as u32).to_le_bytes());
        for v in [
            self.seq,
            self.entry,
            self.file.0,
            self.offset,
            self.len,
            self.ret.to_bits(),
        ] {
            out.extend_from_slice(&v.to_le_bytes());
        }
        for e in &self.extents {
            out.extend_from_slice(&e.lbn.to_le_bytes());
            out.extend_from_slice(&e.sectors.to_le_bytes());
        }
        let crc = crc32(&out);
        out.extend_from_slice(&crc.to_le_bytes());
        debug_assert_eq!(out.len(), total);
        out
    }

    /// Seals the record into its on-media byte image.
    pub fn seal(&self) -> SealedRecord {
        SealedRecord {
            seq: self.seq,
            bytes: self.encode(),
        }
    }
}

/// Sectors one backup record occupies in the log, for an append of up
/// to `n_extents` extents. Always 1 for the 1–2 extents a circular-log
/// append produces.
pub fn header_sectors(n_extents: usize) -> u64 {
    (LogRecord::encoded_len(n_extents) as u64).div_ceil(SECTOR_SIZE)
}

/// The on-media byte image of one record. `seq` duplicates the encoded
/// sequence number so fault injection can target a record without
/// decoding it.
#[derive(Debug, Clone, PartialEq)]
pub struct SealedRecord {
    /// Sequence number of the record (as written; the encoded bytes are
    /// authoritative for recovery).
    pub seq: u64,
    /// Encoded record bytes.
    pub bytes: Vec<u8>,
}

impl SealedRecord {
    /// Simulates a torn write: the crash truncated the record mid-write,
    /// leaving only its first half on media.
    pub fn tear(&mut self) {
        let keep = self.bytes.len() / 2;
        self.bytes.truncate(keep);
    }

    /// Flips one bit (index taken modulo the record size) — silent
    /// media corruption.
    pub fn flip_bit(&mut self, bit: u64) {
        if self.bytes.is_empty() {
            return;
        }
        let bit = bit % (self.bytes.len() as u64 * 8);
        self.bytes[(bit / 8) as usize] ^= 1 << (bit % 8);
    }
}

/// What the recovery scan concluded about one record.
#[derive(Debug, Clone, PartialEq)]
pub enum RecordVerdict {
    /// CRC and structure check out; the decoded record is trustworthy.
    Intact(LogRecord),
    /// The record is shorter than its own length field claims — a crash
    /// interrupted the write.
    Torn,
    /// The record is full-length but fails its CRC (or carries an
    /// impossible structure) — silent corruption.
    Corrupt,
}

/// Verifies one sealed record: length first (torn detection), then CRC
/// and structural decode. Pure — safe to fan out over log segments.
pub fn verify(rec: &SealedRecord) -> RecordVerdict {
    let b = &rec.bytes;
    if b.len() < FIXED_BYTES + CRC_BYTES {
        return RecordVerdict::Torn;
    }
    let total = u32::from_le_bytes([b[8], b[9], b[10], b[11]]) as usize;
    if total > b.len() {
        return RecordVerdict::Torn;
    }
    if total < FIXED_BYTES + CRC_BYTES {
        return RecordVerdict::Corrupt;
    }
    let body = &b[..total];
    let stored = u32::from_le_bytes([
        body[total - 4],
        body[total - 3],
        body[total - 2],
        body[total - 1],
    ]);
    if crc32(&body[..total - 4]) != stored {
        return RecordVerdict::Corrupt;
    }
    if body[..4] != RECORD_MAGIC || body[4] != RECORD_VERSION {
        return RecordVerdict::Corrupt;
    }
    if body[5] > 3 {
        return RecordVerdict::Corrupt;
    }
    let dirty = body[5] & 1 != 0;
    let tombstone = body[5] & 2 != 0;
    if tombstone && dirty {
        // A tombstone carries no data; a dirty tombstone is structural
        // nonsense and can only come from corruption.
        return RecordVerdict::Corrupt;
    }
    let typ = match body[6] {
        0 => EntryType::Fragment,
        1 => EntryType::Random,
        _ => return RecordVerdict::Corrupt,
    };
    let n = body[7] as usize;
    if total != LogRecord::encoded_len(n) {
        return RecordVerdict::Corrupt;
    }
    let u64_at = |off: usize| {
        let mut raw = [0u8; 8];
        raw.copy_from_slice(&body[off..off + 8]);
        u64::from_le_bytes(raw)
    };
    let mut extents = ExtentList::new();
    for i in 0..n {
        let off = FIXED_BYTES + i * EXTENT_BYTES;
        extents.push(Extent {
            lbn: u64_at(off),
            sectors: u64_at(off + 8),
        });
    }
    RecordVerdict::Intact(LogRecord {
        seq: u64_at(12),
        entry: u64_at(20),
        file: FileHandle(u64_at(28)),
        offset: u64_at(36),
        len: u64_at(44),
        typ,
        ret: f64::from_bits(u64_at(52)),
        dirty,
        tombstone,
        extents,
    })
}

/// Verifies a segment of records. Pure and order-preserving, so the
/// scan parallelises over segments (pFSCK-style) with results identical
/// to a serial pass.
pub fn verify_segment(records: &[SealedRecord]) -> Vec<RecordVerdict> {
    records.iter().map(verify).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(seq: u64, dirty: bool, n_extents: usize) -> LogRecord {
        let mut extents = ExtentList::one(Extent {
            lbn: 100 * seq,
            sectors: 4,
        });
        if n_extents == 2 {
            extents.push(Extent { lbn: 0, sectors: 2 });
        }
        LogRecord {
            seq,
            entry: seq + 7,
            file: FileHandle(3),
            offset: seq << 20,
            len: 3 * 1024,
            typ: if dirty {
                EntryType::Fragment
            } else {
                EntryType::Random
            },
            ret: 0.00123,
            dirty,
            tombstone: false,
            extents,
        }
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The classic check value for the IEEE polynomial.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn roundtrip_is_exact() {
        for n in [1, 2] {
            for dirty in [false, true] {
                let r = record(5, dirty, n);
                let sealed = r.seal();
                assert_eq!(sealed.bytes.len(), LogRecord::encoded_len(n));
                match verify(&sealed) {
                    RecordVerdict::Intact(back) => assert_eq!(back, r),
                    v => panic!("intact record misjudged: {v:?}"),
                }
            }
        }
    }

    #[test]
    fn records_fit_one_sector() {
        // The allocator charges one header sector per entry; the format
        // must honour that for the extents a log append can produce.
        assert!(LogRecord::encoded_len(2) <= SECTOR_SIZE as usize);
        assert_eq!(header_sectors(1), 1);
        assert_eq!(header_sectors(2), 1);
    }

    #[test]
    fn torn_record_is_detected_as_torn() {
        let mut sealed = record(9, true, 2).seal();
        sealed.tear();
        assert_eq!(verify(&sealed), RecordVerdict::Torn);
        // Even a single missing byte tears it.
        let mut sealed = record(9, true, 2).seal();
        sealed.bytes.pop();
        assert_eq!(verify(&sealed), RecordVerdict::Torn);
    }

    #[test]
    fn every_single_bit_flip_is_caught() {
        let sealed = record(3, true, 1).seal();
        for bit in 0..(sealed.bytes.len() as u64 * 8) {
            let mut hit = sealed.clone();
            hit.flip_bit(bit);
            match verify(&hit) {
                RecordVerdict::Intact(_) => panic!("flip of bit {bit} went undetected"),
                RecordVerdict::Torn | RecordVerdict::Corrupt => {}
            }
        }
    }

    #[test]
    fn trailing_garbage_is_ignored() {
        // A record read back from a full sector carries slack bytes; the
        // embedded length field scopes the CRC.
        let mut sealed = record(1, false, 1).seal();
        sealed.bytes.resize(SECTOR_SIZE as usize, 0xAB);
        assert!(matches!(verify(&sealed), RecordVerdict::Intact(_)));
    }

    #[test]
    fn segment_verify_matches_serial() {
        let mut records: Vec<SealedRecord> =
            (0..16).map(|i| record(i, i % 2 == 0, 1).seal()).collect();
        records[3].tear();
        records[11].flip_bit(77);
        let serial: Vec<RecordVerdict> = records.iter().map(verify).collect();
        assert_eq!(verify_segment(&records), serial);
        assert_eq!(
            serial
                .iter()
                .filter(|v| !matches!(v, RecordVerdict::Intact(_)))
                .count(),
            2
        );
    }
}
