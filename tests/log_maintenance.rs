//! Property-based tests of segmented-log maintenance under crashes.
//!
//! The segmented backup log rewrites live records (compaction), writes
//! indexed checkpoints, and reclaims condemned media one maintenance
//! barrier later. A crash can land at any point in that pipeline, so
//! these properties drive randomized overwrite/maintenance schedules
//! and crash at randomized points — including mid segment-rewrite (the
//! torn records are exactly the compactor's fresh copies) and inside
//! the checkpoint-to-reclaim window — and require:
//!
//! 1. **No lost intact entries** — every dirty entry whose newest
//!    record chain survived undamaged is replayed.
//! 2. **No resurrection** — a superseded version whose supersede is
//!    durable never comes back: recovery leaves at most one entry per
//!    range (the policy audit checks index consistency), and a second,
//!    damage-free restart changes nothing.
//! 3. **Exact loss accounting** — `dirty_bytes_kept + dirty_bytes_lost`
//!    equals the dirty bytes at the crash, always.

use ibridge_repro::core::{IBridgeConfig, IBridgePolicy};
use ibridge_repro::prelude::*;
use ibridge_repro::pvfs::{CachePolicy, LogCorruption, Placement, RotTarget};
use proptest::prelude::*;

const KB: u64 = 1024;

/// A policy with maintenance deliberately hot: tiny segments seal after
/// a handful of records and a checkpoint lands every 64 appends.
fn policy(checkpoint_every: u64) -> (IBridgePolicy, IBridgeConfig) {
    let mut cfg = IBridgeConfig::with_capacity(0, 64 << 20);
    cfg.segment_bytes = 2 << 10;
    cfg.checkpoint_every = checkpoint_every;
    (IBridgePolicy::new(cfg.clone()), cfg)
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

/// One redirected overwrite of slot `slot` (1 KB at a 4 KB stride).
fn overwrite(p: &mut IBridgePolicy, slot: u64) {
    let pl = p.place(
        SimTime::ZERO,
        &frag(IoDir::Write, slot * 4096, KB),
        900_000_000,
    );
    assert!(matches!(pl, Placement::Ssd { .. }), "write must redirect");
}

/// How many of the `live` slots still hit the SSD (kept across the
/// restart) — a read probe per slot, without mutating dirty state.
fn slots_hitting_ssd(p: &mut IBridgePolicy, live: u64) -> u64 {
    (0..live)
        .filter(|&s| {
            matches!(
                p.place(SimTime::ZERO, &frag(IoDir::Read, s * 4096, KB), 900_000_000),
                Placement::Ssd { .. }
            )
        })
        .count() as u64
}

proptest! {
    /// Randomized crash points across the whole maintenance pipeline:
    /// overwrites cycle a fixed live set while maintenance ticks at a
    /// random cadence (sealing, compacting, checkpointing, reclaiming
    /// at random phases), then a torn-write crash tears the newest
    /// records — which, right after a compaction tick, are the
    /// compactor's fresh rewrites (a torn segment rewrite). Recovery
    /// must keep every undamaged dirty entry, account every lost byte,
    /// and stay stable across a second restart.
    #[test]
    fn compaction_crash_never_loses_or_resurrects(
        ops in 1u64..300,
        live in 1u64..48,
        maint_every in 1u64..16,
        torn in 0u32..5,
        checkpointing in any::<bool>(),
    ) {
        let (mut p, _cfg) = policy(if checkpointing { 64 } else { 0 });
        for i in 0..ops {
            overwrite(&mut p, i % live);
            if i % maint_every == maint_every - 1 {
                p.log_maintenance(SimTime::ZERO, true);
            }
        }
        let live_now = live.min(ops);
        let dirty_before = live_now * KB;

        let hit = CachePolicy::inject_corruption(
            &mut p,
            SimTime::ZERO,
            LogCorruption::TornWrite { records: torn },
        );
        prop_assert!(hit <= live_now, "tears target live records only");

        let r = p.server_restart(SimTime::ZERO);
        prop_assert_eq!(
            r.dirty_bytes_kept + r.dirty_bytes_lost, dirty_before,
            "every dirty byte is kept or accounted lost"
        );
        p.audit().expect("post-restart state is consistent");

        // Each slot either still hits the SSD or was lost with its torn
        // record — and the split must agree with the report exactly.
        let hits = slots_hitting_ssd(&mut p, live_now);
        prop_assert_eq!(hits * KB, r.dirty_bytes_kept);

        // Overwrites whose supersede is durable must not come back: the
        // kept count never exceeds the live set even though superseded
        // copies (and their tombstones) may still sit in condemned
        // media at the crash point.
        prop_assert!(r.dirty_entries_kept <= live_now);

        // Stability: a second, damage-free restart finds a fully
        // consistent log — nothing new to quarantine, nothing lost,
        // nothing resurrected.
        let r2 = p.server_restart(SimTime::ZERO);
        prop_assert_eq!(r2.records_quarantined, 0, "recovered log re-verifies clean");
        prop_assert_eq!(r2.dirty_bytes_lost, 0);
        prop_assert_eq!(r2.dirty_bytes_kept, r.dirty_bytes_kept);
        p.audit().expect("second restart is consistent");
    }

    /// Crash inside the checkpoint-to-reclaim window: the checkpoint is
    /// durable but every pre-checkpoint segment is still condemned
    /// media awaiting the next barrier. Damage landing on those covered
    /// tail copies is harmless — recovery replays the checkpoint image
    /// and skips every covered record unverified — so nothing is lost
    /// and nothing is quarantined.
    #[test]
    fn checkpoint_to_reclaim_crash_window_loses_nothing(
        ops in 1u64..200,
        live in 1u64..32,
        maint_every in 1u64..16,
        torn in 0u32..5,
        rot_sectors in 0u32..4,
        rot_seed in any::<u64>(),
    ) {
        let (mut p, _cfg) = policy(64);
        for i in 0..ops {
            overwrite(&mut p, i % live);
            if i % maint_every == maint_every - 1 {
                p.log_maintenance(SimTime::ZERO, true);
            }
        }
        // The crash window: checkpoint written, reclaim barrier not yet
        // passed. Every live record now has a covered copy on condemned
        // media and its image in the checkpoint.
        p.write_checkpoint();

        let live_now = live.min(ops);
        CachePolicy::inject_corruption(
            &mut p,
            SimTime::ZERO,
            LogCorruption::TornWrite { records: torn },
        );
        CachePolicy::inject_corruption(
            &mut p,
            SimTime::ZERO,
            LogCorruption::BitRot {
                sectors: rot_sectors,
                seed: rot_seed,
                target: RotTarget::Tail,
            },
        );

        let r = p.server_restart(SimTime::ZERO);
        prop_assert_eq!(r.dirty_bytes_lost, 0, "checkpoint covers every record");
        prop_assert_eq!(r.records_quarantined, 0, "covered damage is skipped, not scanned");
        prop_assert_eq!(r.dirty_entries_kept, live_now);
        p.audit().expect("post-restart state is consistent");
        prop_assert_eq!(slots_hitting_ssd(&mut p, live_now), live_now);
    }

    /// Torn segment rewrite with the old copies still on condemned
    /// media: two stable entries sit in a segment that churn fills with
    /// garbage, a single idle tick compacts it (rewriting the stable
    /// records under fresh sequence numbers and condemning the old
    /// segment), and the crash lands before the next barrier — tearing
    /// exactly the compactor's fresh copies. The intact originals on
    /// the condemned segment replay instead, so nothing is lost.
    #[test]
    fn torn_rewrite_recovers_from_condemned_media(
        extra_churn in 2u64..12,
        torn in 1u32..3,
    ) {
        let (mut p, _cfg) = policy(0); // no checkpoints: isolate compaction
        // Two stable slots, never overwritten — their records stay live
        // in segment 0 while churn turns the rest of it into garbage.
        overwrite(&mut p, 0);
        overwrite(&mut p, 1);
        let mut churn = 0;
        while p.maint_stats().segments_sealed == 0 {
            overwrite(&mut p, 2);
            churn += 1;
            prop_assert!(churn < 64, "churn must seal the 2 KB segment");
        }
        // A little more churn kills segment 0's last churn copy; the
        // open segment stays open, so segment 0 is the only candidate.
        for _ in 0..extra_churn {
            overwrite(&mut p, 2);
        }

        let before = p.maint_stats().segments_compacted;
        p.log_maintenance(SimTime::ZERO, true);
        let m = p.maint_stats();
        prop_assert_eq!(m.segments_compacted, before + 1, "tick compacts segment 0");
        prop_assert_eq!(m.segments_reclaimed, 0, "crash lands before the barrier");

        // The stable entries' rewrites carry the newest table sequence
        // numbers — a torn write tears exactly those fresh copies.
        CachePolicy::inject_corruption(
            &mut p,
            SimTime::ZERO,
            LogCorruption::TornWrite { records: torn },
        );
        let r = p.server_restart(SimTime::ZERO);
        prop_assert_eq!(r.records_quarantined, u64::from(torn), "only the rewrites tear");
        prop_assert_eq!(
            r.dirty_bytes_kept, 3 * KB,
            "condemned media backfills torn rewrites"
        );
        prop_assert_eq!(r.dirty_bytes_lost, 0);
        p.audit().expect("post-restart state is consistent");
        prop_assert_eq!(slots_hitting_ssd(&mut p, 3), 3);
    }
}
