//! Block device glue: a scheduler in front of a device model, driven by
//! the cluster's event loop.
//!
//! [`BlockDevice`] owns the queue discipline and the device; the caller
//! owns the event calendar. Every mutating call returns [`Action`]s that
//! the caller must turn into scheduled events:
//!
//! * [`Action::CompleteAt`] — a request started service; call
//!   [`BlockDevice::on_complete`] at that time.
//! * [`Action::RecheckAt`] — the scheduler is anticipating; call
//!   [`BlockDevice::on_recheck`] at that time with the given generation
//!   (stale generations are ignored, which is how superseded idle timers
//!   are cancelled without touching the calendar).

use crate::{AnySched, BlockRequest, Decision, DispatchTracer, Scheduler};
use ibridge_des::{SimDuration, SimTime};
use ibridge_device::{DiskModel, Lbn, SsdModel};

/// A disk or an SSD behind the block layer.
#[derive(Debug)]
pub enum StorageDev {
    /// Positional hard disk.
    Disk(DiskModel),
    /// Flash device.
    Ssd(SsdModel),
}

impl StorageDev {
    fn head(&self) -> Lbn {
        match self {
            StorageDev::Disk(d) => d.head(),
            StorageDev::Ssd(_) => 0,
        }
    }

    fn service(&mut self, now: SimTime, req: &BlockRequest) -> SimDuration {
        match self {
            StorageDev::Disk(d) => d.service(now, &req.op()),
            StorageDev::Ssd(s) => s.service(&req.op()),
        }
    }

    fn set_slow_factor(&mut self, f: f64) {
        match self {
            StorageDev::Disk(d) => d.set_slow_factor(f),
            StorageDev::Ssd(s) => s.set_slow_factor(f),
        }
    }

    fn slow_factor(&self) -> f64 {
        match self {
            StorageDev::Disk(d) => d.slow_factor(),
            StorageDev::Ssd(s) => s.slow_factor(),
        }
    }
}

/// Event the caller must schedule on behalf of the device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// The in-flight request finishes at this time; call `on_complete`.
    CompleteAt(SimTime),
    /// Re-poll the scheduler at this time with this generation; call
    /// `on_recheck`.
    RecheckAt(SimTime, u64),
}

/// Fixed-capacity action set returned by one device poke.
///
/// A single kick can start at most one request (`CompleteAt`) and arm at
/// most one anticipation timer (`RecheckAt`), so the result needs no heap
/// storage at all. Iteration yields the completion first, matching the
/// order the event loop has always scheduled them in.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ActionList {
    complete: Option<SimTime>,
    recheck: Option<(SimTime, u64)>,
}

impl ActionList {
    /// No actions.
    pub const EMPTY: ActionList = ActionList {
        complete: None,
        recheck: None,
    };

    fn set_complete(&mut self, t: SimTime) {
        debug_assert!(self.complete.is_none(), "double completion in one kick");
        self.complete = Some(t);
    }

    fn set_recheck(&mut self, t: SimTime, gen: u64) {
        debug_assert!(self.recheck.is_none(), "double recheck in one kick");
        self.recheck = Some((t, gen));
    }

    /// Number of actions (0–2).
    pub fn len(&self) -> usize {
        usize::from(self.complete.is_some()) + usize::from(self.recheck.is_some())
    }

    /// True when there is nothing to schedule.
    pub fn is_empty(&self) -> bool {
        self.complete.is_none() && self.recheck.is_none()
    }

    /// The actions, completion first.
    pub fn iter(&self) -> ActionIter {
        self.into_iter()
    }
}

/// Iterator over an [`ActionList`].
#[derive(Debug, Clone)]
pub struct ActionIter {
    complete: Option<SimTime>,
    recheck: Option<(SimTime, u64)>,
}

impl Iterator for ActionIter {
    type Item = Action;
    fn next(&mut self) -> Option<Action> {
        if let Some(t) = self.complete.take() {
            return Some(Action::CompleteAt(t));
        }
        self.recheck.take().map(|(t, g)| Action::RecheckAt(t, g))
    }
}

impl IntoIterator for ActionList {
    type Item = Action;
    type IntoIter = ActionIter;
    fn into_iter(self) -> ActionIter {
        ActionIter {
            complete: self.complete,
            recheck: self.recheck,
        }
    }
}

impl IntoIterator for &ActionList {
    type Item = Action;
    type IntoIter = ActionIter;
    fn into_iter(self) -> ActionIter {
        (*self).into_iter()
    }
}

/// Aggregate device utilisation counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct DevStats {
    /// Time the device spent servicing requests.
    pub busy: SimDuration,
    /// Bytes read from the device.
    pub bytes_read: u64,
    /// Bytes written to the device.
    pub bytes_written: u64,
    /// Requests serviced.
    pub requests: u64,
    /// Idle-window probes by background maintenance (writeback daemon,
    /// log compaction/scrub) asking whether the device is quiet.
    pub idle_probes: u64,
    /// Probes that found the device idle and granted the window.
    pub idle_grants: u64,
}

/// A queue discipline bound to a device model.
#[derive(Debug)]
pub struct BlockDevice {
    storage: StorageDev,
    sched: AnySched,
    /// Requests accepted by the device (NCQ) but not yet being serviced.
    ncq: Vec<BlockRequest>,
    ncq_depth: usize,
    inflight: Option<(BlockRequest, SimTime)>,
    tracer: DispatchTracer,
    recheck_gen: u64,
    scheduled_recheck: Option<(SimTime, u64)>,
    stats: DevStats,
    /// Observability labels: trace node / lane this device reports under
    /// (see `ibridge_obs::trace`). Zero until the owner labels it.
    obs_node: u16,
    obs_lane: u16,
}

impl BlockDevice {
    /// Binds `sched` to `storage` with a device queue depth of 1
    /// (no NCQ reordering).
    pub fn new(storage: StorageDev, sched: AnySched) -> Self {
        Self::with_ncq(storage, sched, 1)
    }

    /// Binds `sched` to `storage` with native command queueing: up to
    /// `depth` requests are pulled from the scheduler and the device
    /// services the one with the lowest positional cost first.
    pub fn with_ncq(storage: StorageDev, sched: AnySched, depth: usize) -> Self {
        assert!(depth >= 1, "queue depth must be at least 1");
        BlockDevice {
            storage,
            sched,
            ncq: Vec::new(),
            ncq_depth: depth,
            inflight: None,
            tracer: DispatchTracer::new(),
            recheck_gen: 0,
            scheduled_recheck: None,
            stats: DevStats::default(),
            obs_node: 0,
            obs_lane: 0,
        }
    }

    /// Labels the device for observability output: spans it records are
    /// attributed to this trace node and lane.
    pub fn set_obs_label(&mut self, node: u16, lane: u16) {
        self.obs_node = node;
        self.obs_lane = lane;
    }

    /// The dispatch tracer (blktrace equivalent).
    pub fn tracer(&self) -> &DispatchTracer {
        &self.tracer
    }

    /// Clears the dispatch trace (e.g. after warm-up).
    pub fn reset_tracer(&mut self) {
        self.tracer.reset();
    }

    /// Utilisation counters.
    pub fn stats(&self) -> DevStats {
        self.stats
    }

    /// The underlying device model (immutable).
    pub fn storage(&self) -> &StorageDev {
        &self.storage
    }

    /// Fail-slow fault hook: stretch (or restore) every service time by
    /// `f`. Applies to requests that *start* service from now on; the
    /// current in-flight request keeps its already-computed finish time.
    pub fn set_slow_factor(&mut self, f: f64) {
        self.storage.set_slow_factor(f);
    }

    /// Current fail-slow multiplier (`1.0` = healthy).
    pub fn slow_factor(&self) -> f64 {
        self.storage.slow_factor()
    }

    /// True when nothing is in flight and nothing is queued.
    pub fn is_idle(&self) -> bool {
        self.inflight.is_none() && self.ncq.is_empty() && self.sched.is_empty()
    }

    /// [`Self::is_idle`], counted: background maintenance calls this to
    /// claim an idle window, and the probe/grant counters expose how
    /// often the device was actually quiet when asked — the evidence
    /// that maintenance runs only in idle windows.
    pub fn probe_idle(&mut self) -> bool {
        let idle = self.is_idle();
        self.stats.idle_probes += 1;
        self.stats.idle_grants += idle as u64;
        idle
    }

    /// Number of queued requests (scheduler + NCQ, excluding in-flight).
    pub fn queued(&self) -> usize {
        self.sched.len() + self.ncq.len()
    }

    /// Submits a request; returns actions to schedule.
    pub fn submit(&mut self, now: SimTime, req: BlockRequest) -> ActionList {
        self.sched.add(now, req);
        self.kick(now)
    }

    /// Completes the in-flight request. Must be called exactly at the
    /// time given by the corresponding [`Action::CompleteAt`].
    ///
    /// Returns the finished request and follow-up actions.
    ///
    /// # Panics
    ///
    /// Panics if nothing is in flight or the time does not match.
    pub fn on_complete(&mut self, now: SimTime) -> (BlockRequest, ActionList) {
        let (req, finish) = self
            .inflight
            .take()
            .expect("on_complete with no in-flight request");
        assert_eq!(finish, now, "completion fired at the wrong time");
        let actions = self.kick(now);
        (req, actions)
    }

    /// Handles an anticipation recheck. Stale generations are ignored.
    pub fn on_recheck(&mut self, now: SimTime, gen: u64) -> ActionList {
        match self.scheduled_recheck {
            Some((_, g)) if g == gen => {
                self.scheduled_recheck = None;
                self.kick(now)
            }
            _ => ActionList::EMPTY,
        }
    }

    /// Starts servicing the cheapest NCQ entry, if the head is free;
    /// returns its completion time.
    fn start_service(&mut self, now: SimTime) -> Option<SimTime> {
        if self.inflight.is_some() || self.ncq.is_empty() {
            return None;
        }
        // NCQ: the drive picks the queued command with the lowest
        // positional cost (rotational-position-aware, like SAS TCQ).
        // `positional_cost` is pure, so a lone command (the default
        // depth of 1) is picked without pricing it.
        let pick = match &self.storage {
            StorageDev::Disk(d) if self.ncq.len() > 1 => self
                .ncq
                .iter()
                .enumerate()
                .min_by_key(|(_, r)| d.positional_cost(now, &r.op()).as_nanos())
                .map(|(i, _)| i)
                .expect("ncq non-empty"),
            StorageDev::Disk(_) | StorageDev::Ssd(_) => 0,
        };
        let req = self.ncq.swap_remove(pick);
        // The positional share of the service time has to be read before
        // `service()` moves the head; only worth it when observing.
        #[cfg(feature = "obs")]
        let seek = if ibridge_obs::active() {
            match &self.storage {
                StorageDev::Disk(d) => Some(d.positional_cost(now, &req.op())),
                StorageDev::Ssd(_) => None,
            }
        } else {
            None
        };
        self.tracer.record(req.dir, req.sectors);
        let dur = self.storage.service(now, &req);
        #[cfg(feature = "obs")]
        self.observe_dispatch(now, &req, dur, seek);
        let finish = now + dur;
        self.stats.busy += dur;
        self.stats.requests += 1;
        if req.dir.is_read() {
            self.stats.bytes_read += req.sectors * ibridge_device::SECTOR_SIZE;
        } else {
            self.stats.bytes_written += req.sectors * ibridge_device::SECTOR_SIZE;
        }
        self.inflight = Some((req, finish));
        Some(finish)
    }

    /// Records queue/service/seek observability for one dispatch.
    #[cfg(feature = "obs")]
    fn observe_dispatch(
        &self,
        now: SimTime,
        req: &BlockRequest,
        dur: SimDuration,
        seek: Option<SimDuration>,
    ) {
        use ibridge_obs::metrics::{self, Phase};
        if !ibridge_obs::active() {
            return;
        }
        let ssd = matches!(self.storage, StorageDev::Ssd(_));
        let queue_ns = (now - req.submitted).as_nanos();
        let dur_ns = dur.as_nanos();
        let seek_ns = seek.map(|s| s.as_nanos().min(dur_ns));
        if ibridge_obs::metrics_on() {
            metrics::record_phase(
                if ssd {
                    Phase::SchedQueueSsd
                } else {
                    Phase::SchedQueueHdd
                },
                queue_ns,
            );
            metrics::record_phase(
                if ssd {
                    Phase::DevServiceSsd
                } else {
                    Phase::DevServiceHdd
                },
                dur_ns,
            );
            if let Some(s) = seek_ns {
                metrics::record_phase(Phase::DevSeekHdd, s);
                metrics::record_phase(Phase::DevTransferHdd, dur_ns - s);
            }
        }
        if ibridge_obs::tracing_on() {
            // Merged requests carry several job tags; the first one is
            // the deterministic correlation id.
            let id = req.tags.first().copied().unwrap_or(0);
            ibridge_obs::trace::record(ibridge_obs::Span {
                ts_ns: req.submitted.as_nanos(),
                dur_ns: queue_ns,
                node: self.obs_node,
                lane: self.obs_lane,
                name: if ssd {
                    "sched:queue:ssd"
                } else {
                    "sched:queue:hdd"
                },
                id,
                aux: req.sectors,
            });
            ibridge_obs::trace::record(ibridge_obs::Span {
                ts_ns: now.as_nanos(),
                dur_ns,
                node: self.obs_node,
                lane: self.obs_lane,
                name: if ssd { "dev:ssd" } else { "dev:hdd" },
                id,
                aux: seek_ns.unwrap_or(0),
            });
        }
    }

    fn kick(&mut self, now: SimTime) -> ActionList {
        // Fill the device queue from the scheduler.
        let mut wait: Option<SimTime> = None;
        while self.ncq.len() + usize::from(self.inflight.is_some()) < self.ncq_depth
            || (self.inflight.is_none() && self.ncq.is_empty())
        {
            match self.sched.dispatch(now, self.storage.head()) {
                Decision::Request(req) => {
                    self.ncq.push(req);
                    self.scheduled_recheck = None;
                }
                Decision::WaitUntil(t) => {
                    wait = Some(t);
                    break;
                }
                Decision::Empty => break,
            }
        }
        let mut actions = ActionList::EMPTY;
        if let Some(finish) = self.start_service(now) {
            actions.set_complete(finish);
        }
        if let Some(t) = wait {
            match self.scheduled_recheck {
                // An equivalent recheck is already pending; don't duplicate.
                Some((st, _)) if st == t => {}
                _ => {
                    self.recheck_gen += 1;
                    self.scheduled_recheck = Some((t, self.recheck_gen));
                    actions.set_recheck(t, self.recheck_gen);
                }
            }
        }
        actions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfq::DEFAULT_SLICE_IDLE;
    use crate::{Cfq, Noop};
    use ibridge_des::Simulation;
    use ibridge_device::{DiskProfile, IoDir, SsdProfile};

    fn ssd_dev() -> BlockDevice {
        BlockDevice::new(
            StorageDev::Ssd(SsdModel::new(SsdProfile::hp_mk0120())),
            AnySched::Noop(Noop::default()),
        )
    }

    fn disk_dev() -> BlockDevice {
        BlockDevice::new(
            StorageDev::Disk(DiskModel::new(DiskProfile::hp_mm0500())),
            AnySched::Cfq(Cfq::new(DEFAULT_SLICE_IDLE)),
        )
    }

    fn req(stream: u64, lbn: Lbn, sectors: u64, now: SimTime, tag: u64) -> BlockRequest {
        BlockRequest::new(IoDir::Read, lbn, sectors, stream, now, tag)
    }

    /// Drives a block device to completion through a one-node calendar,
    /// returning finished requests with their completion times.
    fn run(
        dev: &mut BlockDevice,
        initial: impl IntoIterator<Item = Action>,
    ) -> Vec<(SimTime, BlockRequest)> {
        #[derive(Debug)]
        enum Ev {
            Done,
            Recheck(u64),
        }
        let mut sim: Simulation<Ev> = Simulation::new(1, SimDuration::from_nanos(1));
        let push = |sim: &mut Simulation<Ev>, actions: &mut dyn Iterator<Item = Action>| {
            for a in actions {
                match a {
                    Action::CompleteAt(t) => sim.post_at(0, 0, t, Ev::Done),
                    Action::RecheckAt(t, g) => sim.post_at(0, 0, t, Ev::Recheck(g)),
                }
            }
        };
        push(&mut sim, &mut initial.into_iter());
        let mut out = Vec::new();
        while let Some((t, ev)) = sim.pop() {
            let actions = match ev {
                Ev::Done => {
                    let (req, a) = dev.on_complete(t);
                    out.push((t, req));
                    a
                }
                Ev::Recheck(g) => dev.on_recheck(t, g),
            };
            push(&mut sim, &mut actions.into_iter());
        }
        out
    }

    #[test]
    fn single_request_completes() {
        let mut dev = ssd_dev();
        let a = dev.submit(SimTime::ZERO, req(1, 0, 8, SimTime::ZERO, 42));
        assert_eq!(a.len(), 1);
        let done = run(&mut dev, a);
        assert_eq!(done.len(), 1);
        assert_eq!(&done[0].1.tags[..], &[42]);
        assert!(dev.is_idle());
        assert_eq!(dev.stats().requests, 1);
        assert_eq!(dev.stats().bytes_read, 4096);
    }

    #[test]
    fn queued_requests_all_complete_in_order_for_noop() {
        let mut dev = ssd_dev();
        let mut actions = Vec::new();
        for i in 0..5u64 {
            actions.extend(dev.submit(SimTime::ZERO, req(1, i * 1000, 8, SimTime::ZERO, i)));
        }
        let done = run(&mut dev, actions);
        assert_eq!(done.len(), 5);
        let tags: Vec<u64> = done.iter().map(|(_, r)| r.tags[0]).collect();
        assert_eq!(tags, vec![0, 1, 2, 3, 4]);
        // Completion times strictly increase.
        assert!(done.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn cfq_anticipation_resolves_via_recheck() {
        let mut dev = disk_dev();
        let t0 = SimTime::ZERO;
        let mut actions: Vec<Action> = dev.submit(t0, req(1, 1000, 8, t0, 0)).into_iter().collect();
        actions.extend(dev.submit(t0, req(2, 900_000, 8, t0, 1)));
        let done = run(&mut dev, actions);
        // Both must finish even though CFQ idles between streams.
        assert_eq!(done.len(), 2);
        assert!(dev.is_idle());
    }

    #[test]
    fn tracer_sees_merged_dispatch_sizes() {
        let mut dev = ssd_dev();
        let t0 = SimTime::ZERO;
        let mut actions: Vec<Action> = dev.submit(t0, req(1, 0, 128, t0, 0)).into_iter().collect();
        // Adjacent while the first is still queued? The first dispatches
        // immediately, so submit two more adjacent ones that will merge
        // with each other while the device is busy.
        actions.extend(dev.submit(t0, req(1, 1000, 64, t0, 1)));
        actions.extend(dev.submit(t0, req(1, 1064, 64, t0, 2)));
        let done = run(&mut dev, actions);
        assert_eq!(done.len(), 2, "second and third must merge");
        assert_eq!(dev.tracer().reads().count(128), 2);
        let merged = done.iter().find(|(_, r)| r.tags.len() == 2).unwrap();
        assert_eq!(merged.1.sectors, 128);
    }

    #[test]
    fn stale_recheck_is_ignored() {
        let mut dev = disk_dev();
        let t0 = SimTime::ZERO;
        let _ = dev.submit(t0, req(1, 1000, 8, t0, 0));
        // Invent a stale generation.
        let actions = dev.on_recheck(t0, 999);
        assert!(actions.is_empty());
    }

    #[test]
    #[should_panic(expected = "no in-flight")]
    fn on_complete_without_inflight_panics() {
        let mut dev = ssd_dev();
        dev.on_complete(SimTime::ZERO);
    }

    #[test]
    fn ncq_reorders_by_positional_cost() {
        // Depth-4 NCQ on a disk: scattered requests accepted together
        // are serviced nearest-first, not FIFO.
        let mut dev = BlockDevice::with_ncq(
            StorageDev::Disk(DiskModel::new(DiskProfile::hp_mm0500())),
            AnySched::Noop(Noop::default()),
            4,
        );
        let t0 = SimTime::ZERO;
        let mut actions = Vec::new();
        // Park the head near LBN 0 first.
        actions.extend(dev.submit(t0, req(1, 0, 8, t0, 0)));
        // Far, then near: with NCQ the near one should finish first.
        actions.extend(dev.submit(t0, req(1, 900_000_000, 8, t0, 1)));
        actions.extend(dev.submit(t0, req(1, 5_000, 8, t0, 2)));
        let done = run(&mut dev, actions);
        assert_eq!(done.len(), 3);
        let order: Vec<u64> = done.iter().map(|(_, r)| r.tags[0]).collect();
        assert_eq!(order[0], 0);
        assert_eq!(order[1], 2, "near request must jump the far one");
        assert_eq!(order[2], 1);
        assert!(dev.is_idle());
    }

    #[test]
    fn ncq_depth_one_is_fifo() {
        let mut dev = BlockDevice::with_ncq(
            StorageDev::Disk(DiskModel::new(DiskProfile::hp_mm0500())),
            AnySched::Noop(Noop::default()),
            1,
        );
        let t0 = SimTime::ZERO;
        let mut actions = Vec::new();
        actions.extend(dev.submit(t0, req(1, 0, 8, t0, 0)));
        actions.extend(dev.submit(t0, req(1, 900_000_000, 8, t0, 1)));
        actions.extend(dev.submit(t0, req(1, 5_000, 8, t0, 2)));
        let done = run(&mut dev, actions);
        let order: Vec<u64> = done.iter().map(|(_, r)| r.tags[0]).collect();
        assert_eq!(order, vec![0, 1, 2], "depth 1 must preserve FIFO");
    }

    #[test]
    fn ncq_improves_scattered_throughput() {
        let run_depth = |depth: usize| {
            let mut dev = BlockDevice::with_ncq(
                StorageDev::Disk(DiskModel::new(DiskProfile::hp_mm0500())),
                AnySched::Noop(Noop::default()),
                depth,
            );
            let t0 = SimTime::ZERO;
            let mut actions = Vec::new();
            let mut lbn = 1u64;
            for i in 0..32u64 {
                lbn = (lbn * 48_271 + i) % 1_000_000_000;
                actions.extend(dev.submit(t0, req(1, lbn, 8, t0, i)));
            }
            let done = run(&mut dev, actions);
            done.last().unwrap().0
        };
        let d1 = run_depth(1);
        let d8 = run_depth(8);
        assert!(d8 < d1, "NCQ-8 ({d8}) must finish before depth-1 ({d1})");
    }

    #[test]
    fn write_stats_accumulate() {
        let mut dev = ssd_dev();
        let t0 = SimTime::ZERO;
        let w = BlockRequest::new(IoDir::Write, 0, 16, 1, t0, 0);
        let actions = dev.submit(t0, w);
        run(&mut dev, actions);
        assert_eq!(dev.stats().bytes_written, 8192);
        assert_eq!(dev.stats().bytes_read, 0);
        assert!(dev.stats().busy > SimDuration::ZERO);
    }
}
