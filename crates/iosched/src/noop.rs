//! Noop scheduler: FIFO dispatch with front/back merging.
//!
//! The paper's testbed uses Noop for the SSDs, where positional
//! optimisation buys nothing but adjacent-request merging still reduces
//! per-command overhead.

use crate::{BlockRequest, Decision, Scheduler, MAX_MERGE_SECTORS};
use ibridge_des::SimTime;
use ibridge_device::Lbn;
use std::collections::VecDeque;

/// FIFO queue with merging, capped at [`MAX_MERGE_SECTORS`].
#[derive(Debug, Default)]
pub struct Noop {
    queue: VecDeque<BlockRequest>,
}

impl Scheduler for Noop {
    fn add(&mut self, _now: SimTime, req: BlockRequest) {
        for queued in self.queue.iter_mut() {
            if queued.can_back_merge(&req, MAX_MERGE_SECTORS) {
                queued.back_merge(req);
                return;
            }
            if queued.can_front_merge(&req, MAX_MERGE_SECTORS) {
                queued.front_merge(req);
                return;
            }
        }
        self.queue.push_back(req);
    }

    fn dispatch(&mut self, _now: SimTime, _head: Lbn) -> Decision {
        match self.queue.pop_front() {
            Some(r) => Decision::Request(r),
            None => Decision::Empty,
        }
    }

    fn len(&self) -> usize {
        self.queue.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ibridge_device::IoDir;

    fn req(lbn: Lbn, sectors: u64, tag: u64) -> BlockRequest {
        BlockRequest::new(IoDir::Read, lbn, sectors, 1, SimTime::ZERO, tag)
    }

    fn drain(s: &mut Noop) -> Vec<BlockRequest> {
        let mut out = Vec::new();
        while let Decision::Request(r) = s.dispatch(SimTime::ZERO, 0) {
            out.push(r);
        }
        out
    }

    #[test]
    fn fifo_order_preserved() {
        let mut s = Noop::default();
        s.add(SimTime::ZERO, req(100, 8, 0));
        s.add(SimTime::ZERO, req(5000, 8, 1));
        s.add(SimTime::ZERO, req(50, 8, 2));
        let order: Vec<Lbn> = drain(&mut s).iter().map(|r| r.lbn).collect();
        assert_eq!(order, vec![100, 5000, 50]);
    }

    #[test]
    fn adjacent_requests_merge() {
        let mut s = Noop::default();
        s.add(SimTime::ZERO, req(100, 8, 0));
        s.add(SimTime::ZERO, req(108, 8, 1));
        s.add(SimTime::ZERO, req(92, 8, 2));
        let reqs = drain(&mut s);
        assert_eq!(reqs.len(), 1);
        assert_eq!(reqs[0].lbn, 92);
        assert_eq!(reqs[0].sectors, 24);
        assert_eq!(reqs[0].tags.len(), 3);
    }

    #[test]
    fn merge_cap_respected() {
        let mut s = Noop::default();
        s.add(SimTime::ZERO, req(0, 128, 0));
        s.add(SimTime::ZERO, req(128, 128, 1));
        s.add(SimTime::ZERO, req(256, 8, 2)); // would exceed 256 sectors
        let reqs = drain(&mut s);
        assert_eq!(reqs.len(), 2);
        assert_eq!(reqs[0].sectors, 256);
        assert_eq!(reqs[1].sectors, 8);
    }

    #[test]
    fn empty_reports_empty() {
        let mut s = Noop::default();
        assert!(s.is_empty());
        assert_eq!(s.dispatch(SimTime::ZERO, 0), Decision::Empty);
    }

    #[test]
    fn writes_and_reads_do_not_merge() {
        let mut s = Noop::default();
        s.add(SimTime::ZERO, req(100, 8, 0));
        let mut w = req(108, 8, 1);
        w.dir = IoDir::Write;
        s.add(SimTime::ZERO, w);
        assert_eq!(s.len(), 2);
    }
}
