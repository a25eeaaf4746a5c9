//! Block I/O layer: request queueing, merging, scheduling and dispatch.
//!
//! This crate reproduces the parts of the Linux block layer that the
//! paper's experiments exercise:
//!
//! * [`cfq::Cfq`] — a CFQ-style scheduler (used for the hard disks in the
//!   paper): per-stream queues served in round-robin time slices, with an
//!   in-slice elevator and an *anticipation* idle window that waits
//!   briefly for the next sequential request from the active stream.
//! * [`noop::Noop`] — FIFO with merging (used for the SSDs).
//! * [`deadline::Deadline`] — an extra baseline scheduler (not in the
//!   paper's testbed, provided for ablations).
//! * Front/back **request merging** with a maximum request size, which is
//!   what turns well-aligned sub-request streams into the large 128- and
//!   256-sector dispatches of Fig. 2(c).
//! * [`DispatchTracer`] — a `blktrace` equivalent recording the size
//!   distribution of dispatched requests (Figs. 2(c–e) and 5); the
//!   implementation lives in `ibridge-obs` and is re-exported here.
//! * [`device::BlockDevice`] — glue binding a scheduler to a device model
//!   and exposing an event-driven interface to the cluster simulation.

pub mod cfq;
pub mod deadline;
pub mod device;
pub mod noop;

pub use cfq::Cfq;
pub use deadline::Deadline;
pub use device::{Action, ActionList, BlockDevice, DevStats, StorageDev};
pub use ibridge_obs::DispatchTracer;
pub use noop::Noop;

use ibridge_des::{InlineVec, SimTime};
use ibridge_device::{DevOp, IoDir, Lbn};

/// Largest merged request, in sectors (128 KB): every scheduler caps
/// front and back merges at it, matching the dispatch sizes the paper
/// observed.
pub const MAX_MERGE_SECTORS: u64 = 256;

/// Identifies the origin of a request for per-stream scheduling —
/// the analogue of a Linux I/O context (one per client process here).
pub type StreamId = u64;

/// Upper-layer completion tag: identifies the server job a block request
/// belongs to, so merged requests can complete several jobs at once.
pub type JobTag = u64;

/// Tags kept inline before spilling to the heap. Unmerged requests carry
/// exactly one tag, and most merges combine only a handful of
/// sub-requests, so the common case never allocates.
pub const TAG_INLINE: usize = 4;

/// An inline-first list of [`JobTag`]s: up to [`TAG_INLINE`] in place,
/// all of them on the heap once a merge chain grows past that.
pub type TagList = InlineVec<JobTag, TAG_INLINE>;

/// A block-level request as seen by an I/O scheduler.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockRequest {
    /// Read or write.
    pub dir: IoDir,
    /// Starting sector.
    pub lbn: Lbn,
    /// Length in sectors (> 0).
    pub sectors: u64,
    /// Issuing stream (client process / kernel thread analogue).
    pub stream: StreamId,
    /// Submission time (for deadline bookkeeping and latency stats).
    pub submitted: SimTime,
    /// Flush-barrier (`fdatasync`) semantics: never merged, and charged
    /// full positional cost on a disk. Set for client write sub-requests
    /// on the PVFS2 data path (`TroveSyncData`).
    pub fua: bool,
    /// Cold partial-block edges requiring read-modify-write. Only
    /// flush-barrier writes carry them, and those never merge.
    pub rmw_edges: u8,
    /// Upper-layer jobs carried by this request; merging concatenates.
    pub tags: TagList,
}

impl BlockRequest {
    /// Creates a request carrying a single job tag.
    pub fn new(
        dir: IoDir,
        lbn: Lbn,
        sectors: u64,
        stream: StreamId,
        submitted: SimTime,
        tag: JobTag,
    ) -> Self {
        assert!(sectors > 0, "zero-length block request");
        BlockRequest {
            dir,
            lbn,
            sectors,
            stream,
            submitted,
            fua: false,
            rmw_edges: 0,
            tags: TagList::one(tag),
        }
    }

    /// Marks the request as a flush-barrier write.
    pub fn with_fua(mut self) -> Self {
        self.fua = true;
        self
    }

    /// Sets the cold partial-edge count (writes only).
    pub fn with_rmw_edges(mut self, edges: u8) -> Self {
        self.rmw_edges = edges;
        self
    }

    /// First sector past the end.
    pub fn end(&self) -> Lbn {
        self.lbn + self.sectors
    }

    /// The device operation this request performs.
    pub fn op(&self) -> DevOp {
        let mut op = DevOp::new(self.dir, self.lbn, self.sectors).with_rmw_edges(self.rmw_edges);
        if self.fua {
            op = op.with_fua();
        }
        op
    }

    /// Whether `other` can merge onto the back of `self`
    /// (`other` starts exactly where `self` ends, same direction).
    /// Flush-barrier requests never merge.
    pub fn can_back_merge(&self, other: &BlockRequest, max_sectors: u64) -> bool {
        !self.fua
            && !other.fua
            && self.dir == other.dir
            && self.end() == other.lbn
            && self.sectors + other.sectors <= max_sectors
    }

    /// Whether `other` can merge onto the front of `self`.
    pub fn can_front_merge(&self, other: &BlockRequest, max_sectors: u64) -> bool {
        other.can_back_merge(self, max_sectors)
    }

    /// Absorbs `other` onto the back of `self`.
    ///
    /// # Panics
    ///
    /// Panics if the requests are not back-adjacent or differ in
    /// direction.
    pub fn back_merge(&mut self, other: BlockRequest) {
        assert_eq!(self.dir, other.dir, "merge across directions");
        assert_eq!(self.end(), other.lbn, "merge of non-adjacent requests");
        self.sectors += other.sectors;
        for &t in &other.tags {
            self.tags.push(t);
        }
        self.submitted = self.submitted.min(other.submitted);
    }

    /// Absorbs `other` onto the front of `self`.
    ///
    /// # Panics
    ///
    /// Panics if the requests are not front-adjacent or differ in
    /// direction.
    pub fn front_merge(&mut self, other: BlockRequest) {
        assert_eq!(self.dir, other.dir, "merge across directions");
        assert_eq!(other.end(), self.lbn, "merge of non-adjacent requests");
        self.lbn = other.lbn;
        self.sectors += other.sectors;
        for &t in &other.tags {
            self.tags.push(t);
        }
        self.submitted = self.submitted.min(other.submitted);
    }
}

/// Outcome of asking a scheduler for the next request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Decision {
    /// Dispatch this request now.
    Request(BlockRequest),
    /// Nothing to dispatch now, but re-ask at the given time (the
    /// scheduler is anticipating a near-future arrival).
    WaitUntil(SimTime),
    /// Nothing queued at all.
    Empty,
}

/// Common interface of the I/O schedulers.
pub trait Scheduler {
    /// Queues a request, merging with queued requests where possible.
    fn add(&mut self, now: SimTime, req: BlockRequest);

    /// Picks the next request to dispatch given the device head position.
    fn dispatch(&mut self, now: SimTime, head: Lbn) -> Decision;

    /// Number of queued (not yet dispatched) requests.
    fn len(&self) -> usize;

    /// True when nothing is queued.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The available scheduler implementations, as a closed enum so the block
/// device needs no boxing.
#[derive(Debug)]
pub enum AnySched {
    /// FIFO + merging.
    Noop(Noop),
    /// Per-stream slices with anticipation.
    Cfq(Cfq),
    /// Elevator with expiry deadlines.
    Deadline(Deadline),
}

impl Scheduler for AnySched {
    fn add(&mut self, now: SimTime, req: BlockRequest) {
        match self {
            AnySched::Noop(s) => s.add(now, req),
            AnySched::Cfq(s) => s.add(now, req),
            AnySched::Deadline(s) => s.add(now, req),
        }
    }
    fn dispatch(&mut self, now: SimTime, head: Lbn) -> Decision {
        match self {
            AnySched::Noop(s) => s.dispatch(now, head),
            AnySched::Cfq(s) => s.dispatch(now, head),
            AnySched::Deadline(s) => s.dispatch(now, head),
        }
    }
    fn len(&self) -> usize {
        match self {
            AnySched::Noop(s) => s.len(),
            AnySched::Cfq(s) => s.len(),
            AnySched::Deadline(s) => s.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(lbn: Lbn, sectors: u64) -> BlockRequest {
        BlockRequest::new(IoDir::Read, lbn, sectors, 1, SimTime::ZERO, 0)
    }

    #[test]
    fn back_merge_combines_ranges_and_tags() {
        let mut a = req(100, 8);
        let mut b = req(108, 8);
        b.tags = TagList::one(7);
        assert!(a.can_back_merge(&b, 1024));
        a.back_merge(b);
        assert_eq!(a.lbn, 100);
        assert_eq!(a.sectors, 16);
        assert_eq!(&a.tags[..], &[0, 7]);
    }

    #[test]
    fn front_merge_combines_ranges_and_tags() {
        let mut a = req(108, 8);
        let b = req(100, 8);
        assert!(a.can_front_merge(&b, 1024));
        a.front_merge(b);
        assert_eq!(a.lbn, 100);
        assert_eq!(a.sectors, 16);
    }

    #[test]
    fn merge_respects_max_sectors() {
        let a = req(100, 200);
        let b = req(300, 100);
        assert!(a.can_back_merge(&b, 300));
        assert!(!a.can_back_merge(&b, 299));
    }

    #[test]
    fn merge_rejects_direction_mismatch() {
        let a = req(100, 8);
        let mut b = req(108, 8);
        b.dir = IoDir::Write;
        assert!(!a.can_back_merge(&b, 1024));
    }

    #[test]
    fn merge_rejects_non_adjacent() {
        let a = req(100, 8);
        let b = req(109, 8);
        assert!(!a.can_back_merge(&b, 1024));
        assert!(!a.can_front_merge(&b, 1024));
    }

    #[test]
    #[should_panic(expected = "non-adjacent")]
    fn back_merge_panics_on_gap() {
        let mut a = req(100, 8);
        a.back_merge(req(120, 8));
    }

    #[test]
    fn merged_submitted_takes_earliest() {
        let mut a = BlockRequest::new(IoDir::Read, 100, 8, 1, SimTime::from_millis(5), 0);
        let b = BlockRequest::new(IoDir::Read, 108, 8, 1, SimTime::from_millis(2), 1);
        a.back_merge(b);
        assert_eq!(a.submitted, SimTime::from_millis(2));
    }
}
