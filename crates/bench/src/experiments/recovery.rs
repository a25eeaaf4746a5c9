//! Crash-consistent recovery & log corruption (beyond the paper).
//!
//! The paper's durability story (Sec. III-D) rests on the on-SSD
//! mapping-table backup surviving real crashes. This experiment
//! exercises the two halves of that story:
//!
//! 1. **Corruption matrix** — the checkpoint workload runs under the
//!    corruption fault plans (`torn-write`, `bit-rot`, `mds-crash`)
//!    against the faultless baseline, reporting what the restart's
//!    recovery fsck scanned, quarantined, and lost (dirty bytes that
//!    corruption destroyed before the writeback daemon flushed them).
//! 2. **Parallel fsck** — an offline backup image of several thousand
//!    sealed records, seeded with torn and bit-rotted victims, is
//!    verified twice: serially, and fanned out over fixed-size segments
//!    on the [`crate::runpar`] pool (pFSCK-style). The verdicts must be
//!    identical — the verify pass is pure per record, so parallelism
//!    changes wall clock only, never a single verdict.
//!
//! Fault schedules, corruption placement and the synthetic backup all
//! derive from the experiment seed, so the output is byte-identical at
//! any `--jobs` level.

use crate::runpar::par_map;
use crate::{checkpoint_probe, Scale, Table, FILE_A};
use ibridge_core::record::{self, LogRecord, RecordVerdict, SealedRecord};
use ibridge_core::{EntryType, IBridgeConfig};
use ibridge_des::rng::splitmix64;
use ibridge_faults::{builtin, FaultPlan};
use ibridge_localfs::{Extent, ExtentList};

/// The corruption plans this table covers, against the faultless
/// baseline. A fixed list: the CI corruption-matrix golden pins these
/// rows byte-for-byte.
const PLANS: &[&str] = &["none", "torn-write", "bit-rot", "mds-crash"];

/// Synthetic backup size for the parallel-fsck pass.
const BACKUP_RECORDS: u64 = 4096;
/// Records per verify segment handed to one worker.
const SEGMENT_RECORDS: usize = 256;

/// Builds an on-media backup image of `n` sealed records and damages a
/// deterministic subset: roughly 1 in 31 torn, 1 in 37 bit-rotted.
fn synthetic_backup(n: u64, seed: u64) -> Vec<SealedRecord> {
    let mut rng = seed;
    (0..n)
        .map(|seq| {
            let len = 1024 + (splitmix64(&mut rng) % 63) * 512;
            let mut sealed = LogRecord {
                seq,
                entry: seq,
                file: FILE_A,
                offset: seq << 20,
                len,
                typ: if seq % 3 == 0 {
                    EntryType::Random
                } else {
                    EntryType::Fragment
                },
                ret: 1e-4 * (seq % 100) as f64,
                dirty: seq % 2 == 0,
                tombstone: false,
                extents: ExtentList::one(Extent {
                    lbn: seq * 128,
                    sectors: len.div_ceil(512),
                }),
            }
            .seal();
            match splitmix64(&mut rng) % 1151 {
                r if r % 31 == 0 => sealed.tear(),
                r if r % 37 == 0 => sealed.flip_bit(splitmix64(&mut rng)),
                _ => {}
            }
            sealed
        })
        .collect()
}

/// The `recovery` experiment: corruption matrix plus the parallel fsck.
pub fn run(scale: &Scale) -> String {
    // -- Corruption matrix -------------------------------------------
    let plans: Vec<(String, FaultPlan)> = PLANS
        .iter()
        .map(|&name| {
            let text = builtin(name).expect("builtin listed");
            let plan = FaultPlan::parse(text).expect("builtin parses");
            (name.to_string(), plan)
        })
        .collect();
    let results = par_map(plans.clone(), |(_, plan)| {
        checkpoint_probe(scale, &plan, IBridgeConfig::paper_defaults)
    });

    let mut t = Table::new(
        "Recovery — checkpoint workload under log corruption (iBridge, 4 servers)",
        &[
            "plan",
            "MB/s",
            "crashes",
            "fsck-scanned",
            "quarantined",
            "dirty-lost-KB",
            "stalled-bcasts",
        ],
    );
    for ((name, _), stats) in plans.iter().zip(&results) {
        let f = &stats.faults;
        t.row(&[
            name.clone(),
            format!("{:.1}", stats.throughput_mbps()),
            (f.crashes + f.mds_crashes).to_string(),
            f.fsck_records_scanned.to_string(),
            f.fsck_records_quarantined.to_string(),
            format!("{:.1}", f.dirty_bytes_lost as f64 / 1024.0),
            f.stalled_broadcasts.to_string(),
        ]);
    }

    // -- Parallel fsck over an offline backup image ------------------
    let backup = synthetic_backup(BACKUP_RECORDS, scale.seed);
    let serial: Vec<RecordVerdict> = backup.iter().map(record::verify).collect();
    let segments: Vec<Vec<SealedRecord>> =
        backup.chunks(SEGMENT_RECORDS).map(|c| c.to_vec()).collect();
    let n_segments = segments.len();
    let parallel: Vec<RecordVerdict> = par_map(segments, |seg| {
        seg.iter().map(record::verify).collect::<Vec<_>>()
    })
    .into_iter()
    .flatten()
    .collect();
    assert_eq!(
        parallel, serial,
        "segmented fsck verdicts must match the serial scan"
    );
    let count = |want: fn(&RecordVerdict) -> bool| serial.iter().filter(|v| want(v)).count();
    let intact = count(|v| matches!(v, RecordVerdict::Intact(_)));
    let torn = count(|v| matches!(v, RecordVerdict::Torn));
    let corrupt = count(|v| matches!(v, RecordVerdict::Corrupt));

    format!(
        "{}Corruption plans tear or bit-rot the on-SSD mapping-table \
         backup; the restart's recovery fsck verifies per-record CRCs \
         and sequence continuity, quarantining what fails \
         ('quarantined') and counting unrecoverable dirty bytes as the \
         durability cost. 'mds-crash' loses no data: servers keep \
         serving on last-known T-values while broadcasts stall.\n\n\
         Parallel fsck: {BACKUP_RECORDS} sealed records scanned in \
         {n_segments} segments of {SEGMENT_RECORDS} on the shared \
         worker pool — {intact} intact, {torn} torn, {corrupt} \
         corrupt; segmented verdicts byte-identical to the serial \
         scan.\n\n",
        t.block()
    )
}
