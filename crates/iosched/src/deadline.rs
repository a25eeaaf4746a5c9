//! Deadline scheduler: one-way elevator with per-direction expiry FIFOs.
//!
//! Not part of the paper's testbed (it used CFQ for disks and Noop for
//! SSDs); provided as an extra baseline for scheduler ablations. Requests
//! are served in ascending-LBN order from the current head position, but
//! a request that has waited longer than its direction's deadline is
//! served next regardless of position, bounding starvation.

use crate::{BlockRequest, Decision, Scheduler, MAX_MERGE_SECTORS};
use ibridge_des::{SimDuration, SimTime};
use ibridge_device::{IoDir, Lbn};
use std::collections::{BTreeMap, VecDeque};

type QKey = (Lbn, u64);

/// How long a read waits before it is served out of elevator order
/// (Linux's default).
const READ_EXPIRE: SimDuration = SimDuration::from_millis(500);
/// The same for writes.
const WRITE_EXPIRE: SimDuration = SimDuration::from_secs(5);

/// Deadline scheduler state, with Linux's expiry times; merges are
/// capped at [`MAX_MERGE_SECTORS`].
#[derive(Debug, Default)]
pub struct Deadline {
    sorted: BTreeMap<QKey, BlockRequest>,
    read_fifo: VecDeque<(SimTime, QKey)>,
    write_fifo: VecDeque<(SimTime, QKey)>,
    seq: u64,
}

impl Deadline {
    fn expired_key(&mut self, now: SimTime) -> Option<QKey> {
        for fifo in [&mut self.read_fifo, &mut self.write_fifo] {
            // Drop entries whose request was merged away or dispatched.
            while let Some(&(deadline, key)) = fifo.front() {
                if !self.sorted.contains_key(&key) {
                    fifo.pop_front();
                    continue;
                }
                if now >= deadline {
                    fifo.pop_front();
                    return Some(key);
                }
                break;
            }
        }
        None
    }
}

impl Scheduler for Deadline {
    fn add(&mut self, now: SimTime, req: BlockRequest) {
        // Back merge.
        if let Some((&key, _)) = self.sorted.range(..(req.lbn, 0)).next_back() {
            let queued = self.sorted.get_mut(&key).expect("key just seen");
            if queued.can_back_merge(&req, MAX_MERGE_SECTORS) {
                queued.back_merge(req);
                return;
            }
        }
        // Front merge: the merged request keeps its (now stale) sort key;
        // re-key it to keep the elevator exact.
        if let Some((&key, _)) = self.sorted.range((req.end(), 0)..).next() {
            if key.0 == req.end() && self.sorted[&key].can_front_merge(&req, MAX_MERGE_SECTORS) {
                let mut queued = self.sorted.remove(&key).expect("key just seen");
                queued.front_merge(req);
                self.seq += 1;
                self.sorted.insert((queued.lbn, self.seq), queued);
                return;
            }
        }
        self.seq += 1;
        let key = (req.lbn, self.seq);
        let expire = match req.dir {
            IoDir::Read => READ_EXPIRE,
            IoDir::Write => WRITE_EXPIRE,
        };
        match req.dir {
            IoDir::Read => self.read_fifo.push_back((now + expire, key)),
            IoDir::Write => self.write_fifo.push_back((now + expire, key)),
        }
        self.sorted.insert(key, req);
    }

    fn dispatch(&mut self, now: SimTime, head: Lbn) -> Decision {
        if self.sorted.is_empty() {
            return Decision::Empty;
        }
        let key = self.expired_key(now).or_else(|| {
            self.sorted
                .range((head, 0)..)
                .map(|(&k, _)| k)
                .next()
                .or_else(|| self.sorted.keys().next().copied())
        });
        match key.and_then(|k| self.sorted.remove(&k)) {
            Some(r) => Decision::Request(r),
            None => Decision::Empty,
        }
    }

    fn len(&self) -> usize {
        self.sorted.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(lbn: Lbn, sectors: u64, dir: IoDir) -> BlockRequest {
        BlockRequest::new(dir, lbn, sectors, 1, SimTime::ZERO, lbn)
    }

    #[test]
    fn elevator_order_from_head() {
        let mut s = Deadline::default();
        let t = SimTime::ZERO;
        s.add(t, req(300, 8, IoDir::Read));
        s.add(t, req(100, 8, IoDir::Read));
        s.add(t, req(200, 8, IoDir::Read));
        let Decision::Request(r) = s.dispatch(t, 150) else {
            panic!()
        };
        assert_eq!(r.lbn, 200);
        let Decision::Request(r) = s.dispatch(t, r.end()) else {
            panic!()
        };
        assert_eq!(r.lbn, 300);
        // Wraps around.
        let Decision::Request(r) = s.dispatch(t, r.end()) else {
            panic!()
        };
        assert_eq!(r.lbn, 100);
    }

    #[test]
    fn expired_read_jumps_the_elevator() {
        let mut s = Deadline::default();
        s.add(SimTime::ZERO, req(10, 8, IoDir::Read));
        let later = SimTime::from_millis(600);
        s.add(later, req(5000, 8, IoDir::Read));
        // Head near the fresh request, but the old one has expired.
        let Decision::Request(r) = s.dispatch(later, 5000) else {
            panic!()
        };
        assert_eq!(r.lbn, 10);
    }

    #[test]
    fn writes_expire_later_than_reads() {
        let mut s = Deadline::default();
        s.add(SimTime::ZERO, req(10, 8, IoDir::Write));
        let t = SimTime::from_millis(600); // read deadline, not write
        s.add(t, req(5000, 8, IoDir::Write));
        let Decision::Request(r) = s.dispatch(t, 5000) else {
            panic!()
        };
        assert_eq!(r.lbn, 5000, "write at LBN 10 has not expired yet");
    }

    #[test]
    fn merging_works() {
        let mut s = Deadline::default();
        let t = SimTime::ZERO;
        s.add(t, req(100, 8, IoDir::Read));
        s.add(t, req(108, 8, IoDir::Read));
        s.add(t, req(92, 8, IoDir::Read));
        assert_eq!(s.len(), 1);
        let Decision::Request(r) = s.dispatch(t, 0) else {
            panic!()
        };
        assert_eq!((r.lbn, r.sectors), (92, 24));
    }

    #[test]
    fn front_merge_rekeys_for_elevator() {
        let mut s = Deadline::default();
        let t = SimTime::ZERO;
        s.add(t, req(108, 8, IoDir::Read));
        s.add(t, req(100, 8, IoDir::Read)); // front merge → starts at 100
                                            // Head at 104: elevator from 104 should NOT find the merged
                                            // request "after" the head under its old key.
        let Decision::Request(r) = s.dispatch(t, 104) else {
            panic!()
        };
        assert_eq!(r.lbn, 100, "merged request must be keyed by new start");
    }

    #[test]
    fn empty_dispatch() {
        let mut s = Deadline::default();
        assert_eq!(s.dispatch(SimTime::ZERO, 0), Decision::Empty);
    }
}
