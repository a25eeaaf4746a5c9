//! Property-based tests of the block I/O layer: whatever the schedulers
//! do (merge, sort, idle), every submitted sector must be dispatched
//! exactly once.

use ibridge_des::{SimDuration, SimTime};
use ibridge_device::IoDir;
use ibridge_iosched::cfq::DEFAULT_SLICE_IDLE;
use ibridge_iosched::{
    AnySched, BlockRequest, Cfq, Deadline, Decision, Noop, Scheduler, MAX_MERGE_SECTORS,
};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Generates non-overlapping requests from (slot, len, stream) triples.
fn requests(raw: &[(u16, u8, u8, bool)]) -> Vec<BlockRequest> {
    let mut seen = BTreeMap::new();
    let mut out = Vec::new();
    for (i, &(slot, len, stream, write)) in raw.iter().enumerate() {
        let lbn = slot as u64 * 256;
        let sectors = (len as u64 % 256) + 1;
        if seen.contains_key(&slot) {
            continue;
        }
        seen.insert(slot, ());
        let dir = if write { IoDir::Write } else { IoDir::Read };
        out.push(BlockRequest::new(
            dir,
            lbn,
            sectors,
            stream as u64 % 8,
            SimTime::ZERO,
            i as u64,
        ));
    }
    out
}

/// Drains a scheduler, forcing time forward past any anticipation.
fn drain(s: &mut dyn Scheduler) -> Vec<BlockRequest> {
    let mut out = Vec::new();
    let mut now = SimTime::from_secs(1);
    let mut head = 0;
    loop {
        match s.dispatch(now, head) {
            Decision::Request(r) => {
                head = r.end();
                out.push(r);
            }
            Decision::WaitUntil(t) => {
                now = t + SimDuration::from_nanos(1);
            }
            Decision::Empty => return out,
        }
    }
}

fn sector_set(reqs: &[BlockRequest]) -> Vec<(u64, u64, IoDir)> {
    let mut v: Vec<(u64, u64, IoDir)> = reqs
        .iter()
        .flat_map(|r| (r.lbn..r.end()).map(move |s| (s, 0, r.dir)))
        .map(|(s, _, d)| (s, 1, d))
        .collect();
    v.sort_unstable_by_key(|&(s, _, _)| s);
    v
}

fn check_conservation(
    mut sched: AnySched,
    raw: &[(u16, u8, u8, bool)],
) -> Result<(), TestCaseError> {
    let reqs = requests(raw);
    let submitted = sector_set(&reqs);
    let mut tags: Vec<u64> = reqs.iter().map(|r| r.tags[0]).collect();
    for r in reqs {
        sched.add(SimTime::ZERO, r);
    }
    let dispatched = drain(&mut sched);
    // Every sector dispatched exactly once, same direction.
    let got = sector_set(&dispatched);
    prop_assert_eq!(got, submitted);
    // Every tag survives merging exactly once.
    let mut got_tags: Vec<u64> = dispatched
        .iter()
        .flat_map(|r| r.tags.iter().copied())
        .collect();
    got_tags.sort_unstable();
    tags.sort_unstable();
    prop_assert_eq!(got_tags, tags);
    prop_assert!(sched.is_empty());
    Ok(())
}

proptest! {
    #[test]
    fn noop_conserves_sectors(raw in prop::collection::vec((any::<u16>(), any::<u8>(), any::<u8>(), any::<bool>()), 1..60)) {
        check_conservation(AnySched::Noop(Noop::default()), &raw)?;
    }

    #[test]
    fn cfq_conserves_sectors(raw in prop::collection::vec((any::<u16>(), any::<u8>(), any::<u8>(), any::<bool>()), 1..60)) {
        check_conservation(AnySched::Cfq(Cfq::new(DEFAULT_SLICE_IDLE)), &raw)?;
    }

    #[test]
    fn deadline_conserves_sectors(raw in prop::collection::vec((any::<u16>(), any::<u8>(), any::<u8>(), any::<bool>()), 1..60)) {
        check_conservation(AnySched::Deadline(Deadline::default()), &raw)?;
    }

    /// Merged requests never exceed the cap, and FUA requests never merge.
    /// Requests sit on a 64-sector grid and most fill their slot, so
    /// neighbours abut and merge chains run into the 256-sector cap.
    #[test]
    fn merge_cap_and_fua_respected(raw in prop::collection::vec((any::<u8>(), any::<u8>(), any::<bool>()), 1..60)) {
        let mut s = Cfq::new(DEFAULT_SLICE_IDLE);
        let mut fua_tags = Vec::new();
        let mut seen = std::collections::HashSet::new();
        for (i, &(slot, len, fua)) in raw.iter().enumerate() {
            let slot = slot % 64;
            if !seen.insert(slot) {
                continue;
            }
            let sectors = if len < 192 { 64 } else { u64::from(len % 64) + 1 };
            let mut r = BlockRequest::new(
                IoDir::Write,
                u64::from(slot) * 64,
                sectors,
                0,
                SimTime::ZERO,
                i as u64,
            );
            if fua {
                r = r.with_fua();
                fua_tags.push(i as u64);
            }
            s.add(SimTime::ZERO, r);
        }
        for r in drain(&mut s) {
            prop_assert!(r.sectors <= MAX_MERGE_SECTORS);
            if r.fua {
                prop_assert_eq!(r.tags.len(), 1, "FUA requests must not merge");
            }
            if r.tags.iter().any(|t| fua_tags.contains(t)) {
                prop_assert!(r.fua);
            }
        }
    }
}
