//! CFQ-style I/O scheduler.
//!
//! The paper's data-server disks run Linux CFQ. The behaviours that shape
//! its experiments, all modelled here:
//!
//! * **Per-stream queues** — each client process's sub-requests form one
//!   stream; the scheduler serves one stream at a time in round-robin
//!   time slices.
//! * **In-slice elevator** — within the active stream, requests dispatch
//!   in ascending-LBN order starting from the disk head, so a
//!   well-aligned stream turns into near-sequential disk access.
//! * **Anticipation (slice idling)** — when the active stream's queue
//!   runs dry, the scheduler idles briefly (`slice_idle`, 8 ms in Linux)
//!   instead of seeking away, betting that the synchronous process will
//!   immediately issue its next, nearby request. This is what preserves
//!   spatial locality under high process counts — and what unaligned
//!   fragments defeat.
//! * **Merging** — front/back merging against *any* queued request
//!   (capped at [`MAX_MERGE_SECTORS`]), producing the 128 KB dispatches
//!   of Fig. 2(c) when two processes' stripes interleave.
//! * **Async writes** — writes join CFQ's async class: one queue shared
//!   by every stream, with no anticipation idling (Linux's buffered
//!   writeback behaviour). Reads stay per-stream sync queues.

use crate::{BlockRequest, Decision, Scheduler, StreamId, MAX_MERGE_SECTORS};
use ibridge_des::fxhash::FxHashMap;
use ibridge_des::{SimDuration, SimTime};
use ibridge_device::Lbn;
use std::collections::{BTreeMap, VecDeque};

/// Time slice given to each stream before rotating to the next (Linux
/// CFQ's default).
const SLICE: SimDuration = SimDuration::from_millis(100);

/// Linux CFQ's default anticipation window (`slice_idle`).
pub const DEFAULT_SLICE_IDLE: SimDuration = SimDuration::from_millis(8);

/// Mean inter-request seek distance (sectors) beyond which a stream is
/// considered *seeky* and gets no anticipation idling — Linux's
/// `CFQQ_SEEK_THR` behaviour (8192 sectors = 4 MB).
const SEEKY_THRESHOLD: u64 = 8192;

type QKey = (Lbn, u64);

#[derive(Debug, Default)]
struct StreamQ {
    queue: BTreeMap<QKey, BlockRequest>,
    /// End LBN of the last request added to this stream.
    last_end: Option<Lbn>,
    /// Decayed mean of inter-request seek distance, in sectors.
    seek_mean: f64,
    /// Waiting in the round-robin queue (where a stream sits at most
    /// once).
    in_rr: bool,
}

impl StreamQ {
    /// Next request at/after `head`, else the lowest-LBN request
    /// (one-way elevator with wrap), with its queue key.
    fn pop_elevator(&mut self, head: Lbn) -> Option<(QKey, BlockRequest)> {
        let key = self
            .queue
            .range((head, 0)..)
            .map(|(&k, _)| k)
            .next()
            .or_else(|| self.queue.keys().next().copied())?;
        self.queue.remove_entry(&key)
    }
}

/// Adds one occurrence of `lbn` to a counting map.
fn count_up(counts: &mut FxHashMap<Lbn, u32>, lbn: Lbn) {
    *counts.entry(lbn).or_insert(0) += 1;
}

/// Removes one occurrence of `lbn` from a counting map.
fn count_down(counts: &mut FxHashMap<Lbn, u32>, lbn: Lbn) {
    let n = counts.get_mut(&lbn).expect("lbn was counted");
    if *n > 1 {
        *n -= 1;
    } else {
        counts.remove(&lbn);
    }
}

/// CFQ scheduler state.
///
/// ```
/// use ibridge_iosched::cfq::DEFAULT_SLICE_IDLE;
/// use ibridge_iosched::{BlockRequest, Cfq, Decision, Scheduler};
/// use ibridge_des::SimTime;
/// use ibridge_device::IoDir;
///
/// let mut cfq = Cfq::new(DEFAULT_SLICE_IDLE);
/// let t = SimTime::ZERO;
/// cfq.add(t, BlockRequest::new(IoDir::Read, 128, 8, /*stream*/ 1, t, 0));
/// cfq.add(t, BlockRequest::new(IoDir::Read, 136, 8, /*stream*/ 1, t, 1));
/// // Adjacent same-direction requests merged into one dispatch:
/// let Decision::Request(r) = cfq.dispatch(t, 0) else { panic!() };
/// assert_eq!((r.lbn, r.sectors), (128, 16));
/// ```
#[derive(Debug)]
pub struct Cfq {
    /// Anticipation window: how long to idle on an empty active stream.
    slice_idle: SimDuration,
    /// Per-stream queues, keyed by stream id. Ordered so the merge scan
    /// in [`Cfq::merge_scan`] visits streams in a fixed order — iteration
    /// order must not depend on hash seeds or results become
    /// run-to-run nondeterministic.
    streams: BTreeMap<StreamId, StreamQ>,
    /// Streams with queued requests, awaiting a slice (excludes `active`).
    rr: VecDeque<StreamId>,
    /// Ends of the queued requests (LBN -> count). A back merge needs a
    /// queued request ending at the new request's LBN.
    ends: FxHashMap<Lbn, u32>,
    /// LBNs of the queue keys (LBN -> count). The front-merge probe
    /// compares the key, which a front merge leaves in place.
    starts: FxHashMap<Lbn, u32>,
    active: Option<StreamId>,
    slice_end: SimTime,
    /// Anticipation deadline; `Some` while idling on an empty active queue.
    idle_until: Option<SimTime>,
    seq: u64,
    total: usize,
}

impl Cfq {
    /// Creates a CFQ scheduler that idles `slice_idle` on an empty
    /// active stream (zero disables anticipation).
    pub fn new(slice_idle: SimDuration) -> Self {
        Cfq {
            slice_idle,
            streams: BTreeMap::new(),
            rr: VecDeque::new(),
            ends: FxHashMap::default(),
            starts: FxHashMap::default(),
            active: None,
            slice_end: SimTime::ZERO,
            idle_until: None,
            seq: 0,
            total: 0,
        }
    }

    /// Attempts to merge `req` into any queued request; returns it back
    /// if no merge is possible. Two kinds return before the scan:
    /// flush-barrier requests, which never merge, and requests that no
    /// queued request ends at (`ends`) and no queue key starts after
    /// (`starts`).
    fn try_merge(&mut self, req: BlockRequest) -> Option<BlockRequest> {
        if req.fua || !(self.ends.contains_key(&req.lbn) || self.starts.contains_key(&req.end())) {
            return Some(req);
        }
        self.merge_scan(req)
    }

    /// The merge scan: streams in id order, back merge before front
    /// merge in each, so the first stream that can take `req` wins.
    fn merge_scan(&mut self, req: BlockRequest) -> Option<BlockRequest> {
        for q in self.streams.values_mut() {
            // Back merge: a queued request ending exactly at req.lbn.
            // Candidates must start at req.lbn - queued.sectors; scan the
            // range below req.lbn and check the nearest.
            if let Some((&key, _)) = q.queue.range(..(req.lbn, 0)).next_back() {
                let queued = q.queue.get_mut(&key).expect("key just seen");
                if queued.can_back_merge(&req, MAX_MERGE_SECTORS) {
                    count_down(&mut self.ends, req.lbn);
                    count_up(&mut self.ends, req.end());
                    queued.back_merge(req);
                    return None;
                }
            }
            // Front merge: a queued request starting exactly at req.end().
            if let Some((&key, _)) = q.queue.range((req.end(), 0)..).next() {
                if key.0 == req.end() {
                    let queued = q.queue.get_mut(&key).expect("key just seen");
                    if queued.can_front_merge(&req, MAX_MERGE_SECTORS) {
                        queued.front_merge(req);
                        return None;
                    }
                }
            }
        }
        Some(req)
    }

    /// Queues a request that merged with nothing.
    fn enqueue(&mut self, req: BlockRequest) {
        let stream = req.stream;
        self.total += 1;
        self.seq += 1;
        let key = (req.lbn, self.seq);
        let end = req.end();
        let lbn = req.lbn;
        count_up(&mut self.starts, lbn);
        count_up(&mut self.ends, end);
        let q = self.streams.entry(stream).or_default();
        if let Some(last) = q.last_end {
            let dist = last.abs_diff(lbn) as f64;
            q.seek_mean = q.seek_mean * 0.875 + dist * 0.125;
        }
        q.last_end = Some(end);
        q.queue.insert(key, req);
        if self.active == Some(stream) {
            // The anticipated arrival came: stop idling.
            self.idle_until = None;
        } else if !q.in_rr {
            q.in_rr = true;
            self.rr.push_back(stream);
        }
    }

    fn activate_next(&mut self, now: SimTime) -> bool {
        while let Some(s) = self.rr.pop_front() {
            if let Some(q) = self.streams.get_mut(&s) {
                q.in_rr = false;
                if !q.queue.is_empty() {
                    self.active = Some(s);
                    self.slice_end = now + SLICE;
                    self.idle_until = None;
                    return true;
                }
            }
            // Stale entry for a stream that no longer has requests.
            self.streams.remove(&s);
        }
        false
    }
}

/// The shared stream id of the async (write) class.
pub const ASYNC_STREAM: StreamId = u64::MAX - 7;

impl Scheduler for Cfq {
    fn add(&mut self, _now: SimTime, mut req: BlockRequest) {
        if req.dir.is_write() {
            req.stream = ASYNC_STREAM;
        }
        // A merged request lives on inside the queued one it joined.
        if let Some(req) = self.try_merge(req) {
            self.enqueue(req);
        }
    }

    fn dispatch(&mut self, now: SimTime, head: Lbn) -> Decision {
        loop {
            let Some(a) = self.active else {
                if !self.activate_next(now) {
                    return Decision::Empty;
                }
                continue;
            };
            let queue_empty = self.streams.get(&a).is_none_or(|q| q.queue.is_empty());
            if !queue_empty {
                let q = self.streams.get_mut(&a).expect("active stream exists");
                if now >= self.slice_end && !self.rr.is_empty() {
                    // Slice expired with other streams waiting: rotate.
                    q.in_rr = true;
                    self.rr.push_back(a);
                    self.active = None;
                    self.idle_until = None;
                    continue;
                }
                let (key, req) = q.pop_elevator(head).expect("queue checked non-empty");
                count_down(&mut self.starts, key.0);
                count_down(&mut self.ends, req.end());
                self.total -= 1;
                self.idle_until = None;
                return Decision::Request(req);
            }
            // Active queue is empty: anticipate, then deactivate.
            // Seeky streams get no idling (Linux disables anticipation
            // when a queue's mean seek distance is large — idling on a
            // random-access stream wastes the disk for nothing).
            let seeky = a == ASYNC_STREAM
                || self
                    .streams
                    .get(&a)
                    .is_some_and(|q| q.seek_mean > SEEKY_THRESHOLD as f64);
            match self.idle_until {
                _ if seeky => {
                    self.streams.remove(&a);
                    self.active = None;
                    self.idle_until = None;
                }
                None if self.slice_idle > SimDuration::ZERO => {
                    let deadline = now + self.slice_idle;
                    self.idle_until = Some(deadline);
                    return Decision::WaitUntil(deadline);
                }
                Some(d) if now < d => return Decision::WaitUntil(d),
                _ => {
                    // Anticipation over (or disabled): the stream departs.
                    self.streams.remove(&a);
                    self.active = None;
                    self.idle_until = None;
                }
            }
        }
    }

    fn len(&self) -> usize {
        self.total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ibridge_device::IoDir;

    fn req(stream: StreamId, lbn: Lbn, sectors: u64) -> BlockRequest {
        BlockRequest::new(IoDir::Read, lbn, sectors, stream, SimTime::ZERO, lbn)
    }

    fn cfq() -> Cfq {
        Cfq::new(DEFAULT_SLICE_IDLE)
    }

    #[test]
    fn single_stream_dispatches_in_elevator_order() {
        let mut s = cfq();
        let t = SimTime::ZERO;
        s.add(t, req(1, 300, 8));
        s.add(t, req(1, 100, 8));
        s.add(t, req(1, 200, 8));
        let mut order = Vec::new();
        let mut head = 0;
        while let Decision::Request(r) = s.dispatch(t, head) {
            head = r.end();
            order.push(r.lbn);
        }
        assert_eq!(order, vec![100, 200, 300]);
    }

    #[test]
    fn elevator_wraps_to_lowest() {
        let mut s = cfq();
        let t = SimTime::ZERO;
        s.add(t, req(1, 100, 8));
        s.add(t, req(1, 200, 8));
        // Head is past both: wraps to 100.
        let Decision::Request(r) = s.dispatch(t, 500) else {
            panic!("expected a request")
        };
        assert_eq!(r.lbn, 100);
    }

    #[test]
    fn active_stream_served_exclusively_until_empty() {
        let mut s = cfq();
        let t = SimTime::ZERO;
        s.add(t, req(1, 100, 8));
        s.add(t, req(2, 900, 8));
        s.add(t, req(1, 108, 8)); // merges with 100 actually — use a gap
        s.add(t, req(1, 400, 8));
        let Decision::Request(first) = s.dispatch(t, 0) else {
            panic!()
        };
        assert_eq!(first.stream, 1);
        let Decision::Request(second) = s.dispatch(t, first.end()) else {
            panic!()
        };
        assert_eq!(second.stream, 1, "stream 1 still has requests queued");
    }

    #[test]
    fn empty_active_stream_triggers_anticipation() {
        let mut s = cfq();
        let t = SimTime::ZERO;
        s.add(t, req(1, 100, 8));
        s.add(t, req(2, 900, 8));
        let Decision::Request(r) = s.dispatch(t, 0) else {
            panic!()
        };
        assert_eq!(r.stream, 1);
        // Stream 1 is empty but stream 2 waits: CFQ idles anyway.
        let d = s.dispatch(t, r.end());
        assert_eq!(
            d,
            Decision::WaitUntil(t + SimDuration::from_millis(8)),
            "must anticipate stream 1's next request"
        );
    }

    #[test]
    fn anticipated_arrival_is_served_before_other_streams() {
        let mut s = cfq();
        let t0 = SimTime::ZERO;
        s.add(t0, req(1, 100, 8));
        s.add(t0, req(2, 900, 8));
        let Decision::Request(r) = s.dispatch(t0, 0) else {
            panic!()
        };
        let t1 = t0 + SimDuration::from_millis(1);
        let Decision::WaitUntil(_) = s.dispatch(t1, r.end()) else {
            panic!()
        };
        // The anticipated request arrives within the idle window.
        let t2 = t0 + SimDuration::from_millis(3);
        s.add(t2, req(1, 200, 8));
        let Decision::Request(r2) = s.dispatch(t2, r.end()) else {
            panic!()
        };
        assert_eq!(r2.stream, 1);
        assert_eq!(r2.lbn, 200);
    }

    #[test]
    fn expired_anticipation_rotates_to_next_stream() {
        let mut s = cfq();
        let t0 = SimTime::ZERO;
        s.add(t0, req(1, 100, 8));
        s.add(t0, req(2, 900, 8));
        let Decision::Request(_) = s.dispatch(t0, 0) else {
            panic!()
        };
        let Decision::WaitUntil(d) = s.dispatch(t0, 108) else {
            panic!()
        };
        // Idle window passes with no arrival.
        let Decision::Request(r) = s.dispatch(d, 108) else {
            panic!()
        };
        assert_eq!(r.stream, 2);
    }

    #[test]
    fn slice_expiry_rotates_between_busy_streams() {
        let mut s = cfq();
        let t0 = SimTime::ZERO;
        for i in 0..10 {
            // Strided so nothing merges.
            s.add(t0, req(1, 1_000 + i * 100, 8));
            s.add(t0, req(2, 900_000 + i * 100, 8));
        }
        let Decision::Request(r) = s.dispatch(t0, 0) else {
            panic!()
        };
        assert_eq!(r.stream, 1);
        // Past the slice, stream 2 must get its turn.
        let late = t0 + SimDuration::from_millis(150);
        let Decision::Request(r) = s.dispatch(late, r.end()) else {
            panic!()
        };
        assert_eq!(r.stream, 2);
    }

    #[test]
    fn cross_stream_merging_happens() {
        let mut s = cfq();
        let t = SimTime::ZERO;
        s.add(t, req(1, 128, 128));
        s.add(t, req(2, 256, 128)); // adjacent, different stream
        assert_eq!(s.len(), 1, "adjacent cross-stream requests should merge");
        let Decision::Request(r) = s.dispatch(t, 0) else {
            panic!()
        };
        assert_eq!(r.sectors, 256);
        assert_eq!(r.tags.len(), 2);
    }

    #[test]
    fn merge_cap_prevents_oversize_requests() {
        let mut s = cfq();
        let t = SimTime::ZERO;
        s.add(t, req(1, 0, 128));
        s.add(t, req(1, 128, 128));
        assert_eq!(s.len(), 1, "two halves merge up to the cap");
        s.add(t, req(1, 256, 8));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn zero_slice_idle_switches_immediately() {
        let mut s = Cfq::new(SimDuration::ZERO);
        let t = SimTime::ZERO;
        s.add(t, req(1, 100, 8));
        s.add(t, req(2, 900, 8));
        let Decision::Request(_) = s.dispatch(t, 0) else {
            panic!()
        };
        let Decision::Request(r) = s.dispatch(t, 108) else {
            panic!()
        };
        assert_eq!(r.stream, 2, "no idling when anticipation disabled");
    }

    #[test]
    fn len_tracks_queue_and_merges() {
        let mut s = cfq();
        let t = SimTime::ZERO;
        assert!(s.is_empty());
        s.add(t, req(1, 0, 8));
        s.add(t, req(1, 8, 8)); // merges
        s.add(t, req(1, 100, 8));
        assert_eq!(s.len(), 2);
        let _ = s.dispatch(t, 0);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn front_merge_via_scheduler() {
        let mut s = cfq();
        let t = SimTime::ZERO;
        s.add(t, req(1, 108, 8));
        s.add(t, req(1, 100, 8)); // front-merges onto 108
        assert_eq!(s.len(), 1);
        let Decision::Request(r) = s.dispatch(t, 0) else {
            panic!()
        };
        assert_eq!(r.lbn, 100);
        assert_eq!(r.sectors, 16);
    }

    #[test]
    fn seeky_stream_gets_no_idling() {
        let mut s = cfq();
        let t = SimTime::ZERO;
        // Stream 1 issues widely scattered requests: becomes seeky.
        let mut lbn = 0;
        for i in 0..10u64 {
            lbn += 5_000_000 + i;
            s.add(t, req(1, lbn, 8));
        }
        s.add(t, req(2, 42, 8));
        // Drain stream 1 entirely.
        let mut head = 0;
        for _ in 0..10 {
            let Decision::Request(r) = s.dispatch(t, head) else {
                panic!()
            };
            assert_eq!(r.stream, 1);
            head = r.end();
        }
        // Stream 1's queue is empty; a sequential stream would idle, but
        // a seeky one must rotate straight to stream 2.
        let Decision::Request(r) = s.dispatch(t, head) else {
            panic!()
        };
        assert_eq!(r.stream, 2, "seeky stream must not be anticipated");
    }

    #[test]
    fn sequential_stream_is_not_marked_seeky() {
        let mut s = cfq();
        let t = SimTime::ZERO;
        // Tight forward strides: stays sequential-ish.
        for i in 0..10u64 {
            s.add(t, req(1, i * 1000, 8));
        }
        s.add(t, req(2, 900_000_000, 8));
        let mut head = 0;
        for _ in 0..10 {
            let Decision::Request(r) = s.dispatch(t, head) else {
                panic!()
            };
            head = r.end();
        }
        assert!(
            matches!(s.dispatch(t, head), Decision::WaitUntil(_)),
            "non-seeky stream should be anticipated"
        );
    }

    #[test]
    fn anticipation_deadline_is_stable_across_queries() {
        let mut s = cfq();
        let t0 = SimTime::ZERO;
        s.add(t0, req(1, 100, 8));
        let Decision::Request(_) = s.dispatch(t0, 0) else {
            panic!()
        };
        let Decision::WaitUntil(d1) = s.dispatch(t0, 108) else {
            panic!()
        };
        let t1 = t0 + SimDuration::from_millis(2);
        let Decision::WaitUntil(d2) = s.dispatch(t1, 108) else {
            panic!()
        };
        assert_eq!(d1, d2, "re-querying must not extend the idle window");
    }

    /// `add` with the unfiltered merge scan: every request, FUA or not,
    /// runs the scan over all streams. The reference for the filter.
    fn add_reference(s: &mut Cfq, mut req: BlockRequest) {
        if req.dir.is_write() {
            req.stream = ASYNC_STREAM;
        }
        if let Some(req) = s.merge_scan(req) {
            s.enqueue(req);
        }
    }

    /// Checks the merge-candidate counts against counts recomputed from
    /// the queues, and the `in_rr` flags against the round-robin queue.
    fn check_bookkeeping(s: &Cfq) {
        let mut starts = FxHashMap::default();
        let mut ends = FxHashMap::default();
        for q in s.streams.values() {
            for (key, r) in &q.queue {
                count_up(&mut starts, key.0);
                count_up(&mut ends, r.end());
            }
        }
        assert_eq!(s.starts, starts, "queue-key LBN counts drifted");
        assert_eq!(s.ends, ends, "request-end counts drifted");
        for (id, q) in &s.streams {
            let entries = s.rr.iter().filter(|&&r| r == *id).count();
            assert_eq!(entries, usize::from(q.in_rr), "stream {id} in_rr flag");
        }
        assert!(s.rr.iter().all(|r| s.streams.contains_key(r)));
        assert!(s.active.is_none_or(|a| !s.rr.contains(&a)));
    }

    #[test]
    fn merge_filter_matches_the_full_scan() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        // Requests on a 32-sector grid, 32 to 128 sectors long, from
        // five streams: neighbours often abut (back and front merges),
        // sometimes overlap, and merge chains reach the 256-sector cap.
        // A quarter of the adds are FUA writes.
        let (mut back, mut front, mut fua, mut skipped, mut capped) = (0, 0, 0, 0, 0);
        for seed in 0..120u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut fast = cfq();
            let mut reference = cfq();
            let mut now = SimTime::ZERO;
            let mut head = 0;
            for tag in 0..200u64 {
                now += SimDuration::from_micros(rng.gen_range(0..3_000));
                if rng.gen_range(0..10) < 7 {
                    let kind = rng.gen_range(0..4);
                    let dir = if kind < 2 { IoDir::Read } else { IoDir::Write };
                    let lbn = rng.gen_range(0..48u64) * 32;
                    let sectors = rng.gen_range(1..5u64) * 32;
                    let stream = rng.gen_range(0..5);
                    let mut req = BlockRequest::new(dir, lbn, sectors, stream, now, tag);
                    if kind == 3 {
                        req = req.with_fua();
                        fua += 1;
                    }
                    let could_merge = !req.fua
                        && (fast.ends.contains_key(&req.lbn)
                            || fast.starts.contains_key(&req.end()));
                    skipped += usize::from(!could_merge);
                    let (len, ends) = (fast.len(), fast.ends.clone());
                    fast.add(now, req.clone());
                    add_reference(&mut reference, req);
                    if fast.len() == len {
                        if fast.ends == ends {
                            front += 1;
                        } else {
                            back += 1;
                        }
                    }
                } else {
                    let d = fast.dispatch(now, head);
                    assert_eq!(d, reference.dispatch(now, head), "seed {seed} op {tag}");
                    if let Decision::Request(r) = d {
                        capped += usize::from(r.sectors == MAX_MERGE_SECTORS);
                        head = r.end();
                    }
                }
                assert_eq!(fast.len(), reference.len());
                check_bookkeeping(&fast);
                check_bookkeeping(&reference);
            }
            // Drain both, stepping past every idle window.
            loop {
                let d = fast.dispatch(now, head);
                assert_eq!(d, reference.dispatch(now, head), "seed {seed} drain");
                match d {
                    Decision::Request(r) => head = r.end(),
                    Decision::WaitUntil(t) => now = t,
                    Decision::Empty => break,
                }
                check_bookkeeping(&fast);
            }
            assert!(fast.starts.is_empty() && fast.ends.is_empty());
        }
        assert!(back > 100 && front > 100, "back {back} front {front}");
        assert!(fua > 100 && skipped > 100, "fua {fua} skipped {skipped}");
        assert!(capped > 10, "capped {capped}");
    }
}
