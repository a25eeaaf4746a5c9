//! Segmented backup-log maintenance (beyond the paper).
//!
//! PR 4 made the on-SSD mapping-table backup durable; this experiment
//! exercises the maintenance machinery layered on top of it:
//!
//! 1. **In-cluster maintenance** — the checkpoint workload runs on an
//!    iBridge cluster configured with small segments and a short
//!    checkpoint cadence, so sealing, compaction, reclaim, indexed
//!    checkpoints and scrubbing all happen inside the run. Maintenance
//!    is scheduled by the writeback daemon and only acts when the cache
//!    device probe reports an idle window — the `ticks (busy)` column
//!    shows how often it stood aside. A `crash` row restarts a server
//!    mid-run and recovers from the maintained log.
//! 2. **O(dirty) recovery** — an offline policy instance appends a
//!    growing total of backup records over a *fixed* live set
//!    (overwrites supersede in place). With maintenance on, restart
//!    recovery replays the checkpoint image plus the short tail and
//!    skips everything the checkpoint covers: the replayed-record count
//!    stays flat as the append total grows 16x. With maintenance off
//!    (checkpoint cadence 0, no ticks), the scan grows with the log —
//!    the pre-segmentation O(log) behaviour.
//!
//! Everything is virtual-time or pure policy arithmetic, so the output
//! is byte-identical at any `--jobs` level.

use crate::runpar::par_map;
use crate::{checkpoint_probe, Scale, Table};
use ibridge_core::{IBridgeConfig, IBridgePolicy};
use ibridge_des::SimTime;
use ibridge_device::IoDir;
use ibridge_faults::{builtin, FaultPlan};
use ibridge_localfs::FileHandle;
use ibridge_pvfs::{CachePolicy, MaintStats, Placement, ReqClass, RunStats, SubRequest};

/// Plans for the in-cluster table: faultless maintenance, a crash that
/// recovers from the maintained log, and bit-rot followed by a crash.
const PLANS: &[&str] = &["none", "crash", "bit-rot"];

/// Fixed live set for the offline O(dirty) probe.
const LIVE_ENTRIES: u64 = 48;
/// Growing append totals — 16x between first and last.
const OPS: &[u64] = &[500, 2000, 8000];

/// The fault experiments' probe with maintenance deliberately hot: 2 KB
/// segments (~25 records) seal several times per 96-append checkpoint
/// period, so one checkpoint-workload run exercises seal, compact,
/// reclaim, checkpoint and scrub.
fn probe(scale: &Scale, plan: &FaultPlan) -> (RunStats, MaintStats) {
    let stats = checkpoint_probe(scale, plan, |id| IBridgeConfig {
        segment_bytes: 2 << 10,
        checkpoint_every: 96,
        ..IBridgeConfig::paper_defaults(id)
    });
    let mut maint = MaintStats::default();
    for s in &stats.servers {
        maint.absorb(&s.maint);
    }
    (stats, maint)
}

/// One write sub-request against the offline policy (the same fragment
/// shape the policy unit tests use; LBN far from the head so the Eq. 1
/// return is positive and the write redirects into the SSD log).
fn write_frag(p: &mut IBridgePolicy, offset: u64) {
    let sub = SubRequest {
        dir: IoDir::Write,
        file: FileHandle(1),
        server: 0,
        offset,
        len: 1024,
        class: ReqClass::Fragment { siblings: vec![1] },
    };
    let pl = p.place(SimTime::ZERO, &sub, 900_000_000);
    assert!(
        matches!(pl, Placement::Ssd { .. }),
        "offline probe writes must redirect into the SSD log"
    );
}

/// Offline O(dirty) probe: `ops` overwrites cycling a fixed set of
/// `LIVE_ENTRIES` ranges, with or without maintenance, then a restart
/// recovery. The maintained run crashes right after its final
/// checkpoint lands — before the reclaim barrier — so every condemned
/// record is covered and skipped unverified. Returns (media records,
/// checkpoint records replayed, tail records verified, tail records
/// skipped).
fn offline_probe(ops: u64, maintain: bool) -> (u64, u64, u64, u64) {
    let mut cfg = IBridgeConfig::with_capacity(0, 64 << 20);
    cfg.segment_bytes = 4 << 10;
    cfg.checkpoint_every = if maintain { 128 } else { 0 };
    let mut p = IBridgePolicy::new(cfg.clone());
    for i in 0..ops {
        write_frag(&mut p, (i % LIVE_ENTRIES) * 4096);
        if maintain && i % 8 == 7 {
            p.log_maintenance(SimTime::ZERO, true);
        }
    }
    if maintain {
        p.write_checkpoint();
    }
    let state = p.snapshot();
    let media = state.records().len() as u64;
    let (fresh, fsck) = IBridgePolicy::recover_with_report(cfg, &state);
    assert_eq!(
        fsck.dirty_entries_kept, LIVE_ENTRIES,
        "every live overwrite survives recovery"
    );
    fresh.audit().expect("recovered state is consistent");
    (
        media,
        fsck.image_records,
        fsck.records_scanned,
        fsck.records_skipped,
    )
}

/// The `logmaint` experiment: in-cluster maintenance matrix plus the
/// offline O(dirty) recovery table.
pub fn run(scale: &Scale) -> String {
    // -- In-cluster maintenance under fault plans --------------------
    let plans: Vec<(String, FaultPlan)> = PLANS
        .iter()
        .map(|&name| {
            let text = builtin(name).expect("builtin listed");
            let plan = FaultPlan::parse(text).expect("builtin parses");
            (name.to_string(), plan)
        })
        .collect();
    let results = par_map(plans.clone(), |(_, plan)| probe(scale, &plan));

    let mut t = Table::new(
        "Log maintenance — checkpoint workload, 2 KB segments, checkpoint every 96 appends (iBridge, 4 servers)",
        &[
            "plan",
            "MB/s",
            "ticks (busy)",
            "seal/comp/reclaim",
            "ckpts",
            "rewritten",
            "scrubbed (repaired)",
            "fsck-scanned",
        ],
    );
    for ((name, _), (stats, m)) in plans.iter().zip(&results) {
        t.row(&[
            name.clone(),
            format!("{:.1}", stats.throughput_mbps()),
            format!("{} ({})", m.ticks, m.busy_skips),
            format!(
                "{}/{}/{}",
                m.segments_sealed, m.segments_compacted, m.segments_reclaimed
            ),
            m.checkpoints.to_string(),
            m.records_rewritten.to_string(),
            format!("{} ({})", m.scrub_records, m.scrub_repairs),
            stats.faults.fsck_records_scanned.to_string(),
        ]);
    }

    // -- Offline O(dirty) recovery -----------------------------------
    let mut o = Table::new(
        "Indexed recovery — growing append total over a fixed 48-entry live set",
        &[
            "mode",
            "ops",
            "media-records",
            "ckpt-replayed",
            "tail-verified",
            "tail-skipped",
        ],
    );
    let mut maintained_scans = Vec::new();
    for &maintain in &[true, false] {
        for &ops in OPS {
            let (media, ckpt, scanned, skipped) = offline_probe(ops, maintain);
            if maintain {
                maintained_scans.push(ckpt + scanned);
            }
            o.row(&[
                if maintain { "maintained" } else { "no-maint" }.to_string(),
                ops.to_string(),
                media.to_string(),
                ckpt.to_string(),
                scanned.to_string(),
                skipped.to_string(),
            ]);
        }
    }
    // The O(dirty) claim, enforced: replayed work (checkpoint image +
    // verified tail) must not scale with the 16x append growth.
    let (lo, hi) = (
        *maintained_scans.iter().min().expect("rows"),
        *maintained_scans.iter().max().expect("rows"),
    );
    assert!(
        hi <= lo.saturating_mul(3),
        "indexed recovery must be O(dirty): replay grew {lo} -> {hi} over a fixed live set"
    );

    format!(
        "{}{}Maintenance rides the writeback daemon's tick and runs only \
         when the cache device probe reports an idle window ('ticks \
         (busy)' counts the stand-asides). Sealed segments whose live \
         share drops below half are compacted into fresh appends; \
         condemned media is reclaimed one barrier later; an indexed \
         checkpoint serializes the mapping table every 96 appends so a \
         restart replays the image plus the short tail and skips every \
         covered record unverified. The offline table pins the O(dirty) \
         claim: at a fixed live set, 'ckpt-replayed' + 'tail-verified' \
         stays flat while 'no-maint' scans the whole ever-growing log. \
         The background scrubber CRC-walks sealed segments during the \
         same idle windows; 'scrubbed (repaired)' counts the records it \
         verified and the planted bit-rot hits it rewrote before a restart \
         could meet them. In the bit-rot row it repairs none before the \
         crash at 140 ms, so that plan shows recovery, not the scrubber; \
         the repair path is pinned by a test in tests/log_maintenance.rs.\n\n",
        t.block(),
        o.block()
    )
}
