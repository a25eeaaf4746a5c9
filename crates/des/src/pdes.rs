//! The event calendar: the simulated system sharded into logical
//! processes (LPs), each owning its own slab calendar, dispatched in one
//! global intrinsic order.
//!
//! # Model
//!
//! The simulated system is partitioned into *nodes* (a client
//! coordinator, individual data servers); each node is statically
//! assigned to one LP. Every post names its source and destination node,
//! and the event is queued on the calendar of the LP that owns the
//! destination. An event that crosses LPs is a *fabric message*: it must
//! land at least one **lookahead** in the future — the minimum cross-LP
//! event latency, in this codebase the network's per-message floor
//! (`overhead + propagation latency`). An assertion on every cross-LP
//! post enforces this conservative-PDES safety condition, so no LP's
//! state can depend on another LP's events of the current lookahead
//! window.
//!
//! # Determinism: intrinsic event order
//!
//! Events are ordered by `(timestamp, source node, per-node sequence)`.
//! The sequence number is drawn from a counter owned by the *posting
//! node*, never from a global insertion counter, so an event's position
//! in the total order is an intrinsic property of the simulated system,
//! independent of how nodes are grouped into LPs.
//! [`run_serial`](ShardedSimulation::run_serial) (and the incremental
//! [`pop`](ShardedSimulation::pop)) dispatch the globally smallest
//! `(at, key)` among all LP calendar heads, one event at a time. That is
//! what keeps every stat, trace and golden byte-identical at any
//! `--shards`/`--jobs` combination. On a single node the order reduces
//! to time, then FIFO among same-instant posts.
//!
//! Runs are serial by design. A threaded driver that executed ready LPs
//! concurrently between window barriers lost to this one on every
//! measured workload (DESIGN.md, "Why runs are serial").

use crate::{EventId, SimDuration, SimTime};
use std::cmp::Ordering;
use std::collections::binary_heap::BinaryHeap;

/// Sentinel slot for non-cancellable events: they skip the slab.
const NO_SLOT: u32 = u32::MAX;

/// Bits of an [`EventId`] slot word reserved for the slab index; the
/// owning LP is packed above them so a handle routes back to the slab
/// that issued it.
const SLOT_BITS: u32 = 24;
const SLOT_MASK: u32 = (1 << SLOT_BITS) - 1;

#[derive(Debug, Clone, Copy)]
struct Slot {
    gen: u32,
    cancelled: bool,
}

/// A calendar entry carrying its intrinsic order key.
struct Keyed<E> {
    at: SimTime,
    /// `(source node) << 48 | (per-node sequence)`: the intrinsic
    /// tie-break for events at the same instant. Comparing the packed
    /// word compares `(node, seq)` lexicographically.
    key: u64,
    slot: u32,
    event: E,
}

impl<E> PartialEq for Keyed<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.key == other.key
    }
}
impl<E> Eq for Keyed<E> {}
impl<E> PartialOrd for Keyed<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Keyed<E> {
    // BinaryHeap is a max-heap; invert so the smallest (at, key) pops
    // first.
    fn cmp(&self, other: &Self) -> Ordering {
        (other.at, other.key).cmp(&(self.at, self.key))
    }
}

const SEQ_BITS: u32 = 48;

/// One logical process: a slab calendar. Cancellable events are always
/// LP-local, so each LP owns its own cancellation slab.
struct LpCal<E> {
    heap: BinaryHeap<Keyed<E>>,
    slots: Vec<Slot>,
    free: Vec<u32>,
    tombstones: usize,
}

impl<E> LpCal<E> {
    fn new() -> Self {
        LpCal {
            heap: BinaryHeap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            tombstones: 0,
        }
    }

    fn alloc_slot(&mut self) -> u32 {
        match self.free.pop() {
            Some(slot) => slot,
            None => {
                let slot = self.slots.len() as u32;
                assert!(slot < SLOT_MASK, "cancellation slab exhausted");
                self.slots.push(Slot {
                    gen: 0,
                    cancelled: false,
                });
                slot
            }
        }
    }

    #[inline]
    fn retire_slot(&mut self, slot: u32) -> bool {
        let s = &mut self.slots[slot as usize];
        s.gen = s.gen.wrapping_add(1);
        let was_cancelled = std::mem::take(&mut s.cancelled);
        self.free.push(slot);
        if was_cancelled {
            self.tombstones -= 1;
        }
        was_cancelled
    }

    fn cancel(&mut self, slot: u32, gen: u32) {
        if let Some(s) = self.slots.get_mut(slot as usize) {
            if s.gen == gen && !s.cancelled {
                s.cancelled = true;
                self.tombstones += 1;
            }
        }
    }

    /// Drops cancelled events off the head of the calendar, then
    /// returns the head's `(at, key)`.
    #[inline]
    fn clean_head(&mut self) -> Option<(SimTime, u64)> {
        loop {
            let (at, key, slot) = match self.heap.peek() {
                None => return None,
                Some(h) => (h.at, h.key, h.slot),
            };
            if slot != NO_SLOT && self.slots[slot as usize].cancelled {
                self.heap.pop();
                self.retire_slot(slot);
                continue;
            }
            return Some((at, key));
        }
    }

    /// Pops the cleaned head.
    #[inline]
    fn pop_head(&mut self) -> Keyed<E> {
        let k = self.heap.pop().expect("head vanished");
        if k.slot != NO_SLOT {
            // clean_head already skipped cancelled entries.
            let was_cancelled = self.retire_slot(k.slot);
            debug_assert!(!was_cancelled);
        }
        k
    }
}

/// The per-LP face of the engine handed to event handlers by
/// [`run_serial`](ShardedSimulation::run_serial). Posts must originate
/// from a node the executing LP owns (checked in debug builds); they
/// obey the same routing and lookahead rules as posts made on the
/// engine directly.
pub struct LpPort<'a, E> {
    sim: &'a mut ShardedSimulation<E>,
    lp_idx: u32,
}

impl<E> LpPort<'_, E> {
    /// The current virtual time: the timestamp of the event being
    /// handled.
    pub fn now(&self) -> SimTime {
        self.sim.now
    }

    /// The simulation's cross-LP lookahead: the earliest a message posted
    /// now may take effect on another LP is `now() + lookahead()`.
    pub fn lookahead(&self) -> SimDuration {
        self.sim.lookahead
    }

    #[inline]
    fn check_owner(&self, src: u16) {
        debug_assert_eq!(
            self.sim.owner(src) as u32,
            self.lp_idx,
            "post from a node this LP does not own"
        );
    }

    /// Posts `event` from node `src` onto node `dst` at absolute time
    /// `at` (fire-and-forget). Same-LP posts only require `at >= now`;
    /// cross-LP posts must respect the lookahead.
    pub fn post_at(&mut self, src: u16, dst: u16, at: SimTime, event: E) {
        self.check_owner(src);
        self.sim.post_at(src, dst, at, event);
    }

    /// [`post_at`](Self::post_at) after a delay from now.
    pub fn post_in(&mut self, src: u16, dst: u16, d: SimDuration, event: E) {
        self.post_at(src, dst, self.sim.now + d, event);
    }

    /// [`post_at`](Self::post_at) at the current instant (same-LP only
    /// in practice — a cross-LP post at `now` violates the lookahead).
    pub fn post_now(&mut self, src: u16, dst: u16, event: E) {
        self.post_at(src, dst, self.sim.now, event);
    }

    /// Cancellable post; `src` and `dst` must both live on this LP.
    pub fn schedule_at(&mut self, src: u16, dst: u16, at: SimTime, event: E) -> EventId {
        self.check_owner(src);
        self.sim.schedule_at(src, dst, at, event)
    }

    /// Cancels a previously scheduled event on this LP; no-op if it
    /// already fired or was already cancelled.
    pub fn cancel(&mut self, id: EventId) {
        debug_assert_eq!(
            id.slot() >> SLOT_BITS,
            self.lp_idx,
            "cancel of another LP's event"
        );
        self.sim.cancel(id);
    }
}

/// The simulation: virtual clock, typed events and cancellation, with
/// every post naming its *source* and *destination* node so the engine
/// can route events to LP calendars and order them intrinsically. A
/// single-node engine (`ShardedSimulation::new(vec![0], lookahead)`) is
/// a plain calendar with FIFO tie-breaking.
pub struct ShardedSimulation<E> {
    lps: Vec<LpCal<E>>,
    /// Node → owning LP.
    node_lp: Vec<u32>,
    /// Per-node post counters (the intrinsic sequence source), indexed
    /// by node id.
    node_seq: Vec<u64>,
    lookahead: SimDuration,
    now: SimTime,
    dispatched: u64,
}

impl<E> ShardedSimulation<E> {
    /// Creates an engine with the given node → LP assignment and
    /// lookahead (the minimum cross-LP event latency).
    ///
    /// # Panics
    ///
    /// Panics on an empty map, a non-contiguous LP numbering, or a zero
    /// lookahead (a cross-LP event could then land at the instant it was
    /// sent).
    pub fn new(node_lp: Vec<u32>, lookahead: SimDuration) -> Self {
        assert!(!node_lp.is_empty(), "sharded simulation needs nodes");
        assert!(node_lp.len() < (1 << 16), "node id space is 16 bits");
        assert!(
            lookahead > SimDuration::ZERO,
            "conservative windows need a positive lookahead"
        );
        let n_lps = (*node_lp.iter().max().unwrap() + 1) as usize;
        assert!(n_lps < (1 << 8), "LP id space is 8 bits");
        assert!(
            (0..n_lps as u32).all(|lp| node_lp.contains(&lp)),
            "LP numbering must be contiguous from 0"
        );
        ShardedSimulation {
            lps: (0..n_lps).map(|_| LpCal::new()).collect(),
            node_seq: vec![0; node_lp.len()],
            node_lp,
            lookahead,
            now: SimTime::ZERO,
            dispatched: 0,
        }
    }

    /// Current virtual time (the timestamp of the last dispatched
    /// event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events dispatched so far, across all LPs.
    pub fn dispatched(&self) -> u64 {
        self.dispatched
    }

    /// Number of logical processes.
    pub fn n_lps(&self) -> usize {
        self.lps.len()
    }

    /// The minimum cross-LP latency.
    pub fn lookahead(&self) -> SimDuration {
        self.lookahead
    }

    /// Pending (not yet fired, not cancelled) events across all
    /// calendars.
    pub fn pending(&self) -> usize {
        let heaps: usize = self.lps.iter().map(|l| l.heap.len()).sum();
        let tombstones: usize = self.lps.iter().map(|l| l.tombstones).sum();
        heaps - tombstones
    }

    #[inline]
    fn owner(&self, node: u16) -> usize {
        self.node_lp[node as usize] as usize
    }

    /// Checks the causality rules for a post and returns the `(source,
    /// destination)` LPs.
    #[inline]
    fn route(&self, src: u16, dst: u16, at: SimTime) -> (usize, usize) {
        let src_lp = self.owner(src);
        let dst_lp = self.owner(dst);
        if src_lp == dst_lp {
            assert!(
                at >= self.now,
                "event scheduled in the past: at={at:?} now={:?}",
                self.now
            );
        } else {
            // The conservative safety condition: a cross-LP event must
            // not land inside the sender's current lookahead window.
            assert!(
                at >= self.now + self.lookahead,
                "cross-LP event violates lookahead: at={at:?} now={:?} lookahead={:?}",
                self.now,
                self.lookahead
            );
        }
        (src_lp, dst_lp)
    }

    /// Draws the next intrinsic key for `src`.
    #[inline]
    fn alloc_key(&mut self, src: u16) -> u64 {
        let seq = &mut self.node_seq[src as usize];
        let key = ((src as u64) << SEQ_BITS) | *seq;
        debug_assert!(*seq < (1 << SEQ_BITS), "per-node sequence exhausted");
        *seq += 1;
        key
    }

    /// Posts `event` from node `src` onto node `dst` at absolute time
    /// `at` (fire-and-forget: the event cannot be cancelled, and it
    /// costs no slab bookkeeping). Same-LP posts only require
    /// `at >= now`; cross-LP posts must respect the lookahead.
    pub fn post_at(&mut self, src: u16, dst: u16, at: SimTime, event: E) {
        let (_, dst_lp) = self.route(src, dst, at);
        let key = self.alloc_key(src);
        self.lps[dst_lp].heap.push(Keyed {
            at,
            key,
            slot: NO_SLOT,
            event,
        });
    }

    /// [`post_at`](Self::post_at) after a delay from now.
    pub fn post_in(&mut self, src: u16, dst: u16, d: SimDuration, event: E) {
        self.post_at(src, dst, self.now + d, event);
    }

    /// [`post_at`](Self::post_at) at the current instant (same-LP only
    /// in practice — a cross-LP post at `now` violates the lookahead).
    pub fn post_now(&mut self, src: u16, dst: u16, event: E) {
        self.post_at(src, dst, self.now, event);
    }

    /// Cancellable post. Cancellation handles are only supported for
    /// LP-local events (the one in-tree user is the client's
    /// retransmission timer, which lives entirely on the coordinator).
    ///
    /// # Panics
    ///
    /// Panics if `src` and `dst` live on different LPs, or if `at` is
    /// in the past.
    pub fn schedule_at(&mut self, src: u16, dst: u16, at: SimTime, event: E) -> EventId {
        let (src_lp, dst_lp) = self.route(src, dst, at);
        assert_eq!(src_lp, dst_lp, "cancellable events must stay within one LP");
        let key = self.alloc_key(src);
        let lp = &mut self.lps[dst_lp];
        let slot = lp.alloc_slot();
        lp.heap.push(Keyed {
            at,
            key,
            slot,
            event,
        });
        EventId::pack(
            ((dst_lp as u32) << SLOT_BITS) | slot,
            lp.slots[slot as usize].gen,
        )
    }

    /// Cancels a previously scheduled event; no-op if it already fired
    /// or was already cancelled.
    pub fn cancel(&mut self, id: EventId) {
        let lp = (id.slot() >> SLOT_BITS) as usize;
        if let Some(cal) = self.lps.get_mut(lp) {
            cal.cancel(id.slot() & SLOT_MASK, id.gen());
        }
    }

    /// Pops the globally smallest `(at, key)` among the LP calendar
    /// heads, advancing the clock; returns it with its LP.
    #[inline]
    fn pop_next(&mut self) -> Option<(usize, SimTime, E)> {
        let mut best: Option<(usize, SimTime, u64)> = None;
        for (i, lp) in self.lps.iter_mut().enumerate() {
            if let Some((at, key)) = lp.clean_head() {
                if best.is_none_or(|(_, bat, bkey)| (at, key) < (bat, bkey)) {
                    best = Some((i, at, key));
                }
            }
        }
        let (i, at, _) = best?;
        let k = self.lps[i].pop_head();
        debug_assert!(at >= self.now, "calendar yielded an event in the past");
        self.now = at;
        self.dispatched += 1;
        Some((i, at, k.event))
    }

    /// Pops the next event in global intrinsic order, advancing the
    /// clock. Returns `None` when every calendar is empty. This is the
    /// incremental face of the driver (used by tests, benches and
    /// single-node callers); [`run_serial`](Self::run_serial) is the
    /// loop form that also hands out an [`LpPort`].
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_next().map(|(_, at, event)| (at, event))
    }

    /// Runs the calendar to exhaustion, dispatching events one at a
    /// time in exact global `(at, key)` order. The handler receives an
    /// [`LpPort`] for the LP that owns the event plus that LP's slice of
    /// caller state.
    pub fn run_serial<S>(
        &mut self,
        states: &mut [S],
        mut handler: impl FnMut(&mut LpPort<'_, E>, &mut S, SimTime, E),
    ) {
        assert_eq!(states.len(), self.lps.len(), "one state per LP");
        while let Some((i, at, event)) = self.pop_next() {
            let mut port = LpPort {
                sim: self,
                lp_idx: i as u32,
            };
            handler(&mut port, &mut states[i], at, event);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const L: SimDuration = SimDuration::from_micros(10);

    fn at(us: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_micros(us)
    }

    #[test]
    fn same_lp_events_fire_in_time_then_intrinsic_order() {
        // Two nodes on one LP: ties at the same instant break by
        // (node, per-node seq), not insertion order.
        let mut sim: ShardedSimulation<u32> = ShardedSimulation::new(vec![0, 0], L);
        sim.post_at(1, 1, at(5), 10); // node 1, seq 0
        sim.post_at(0, 0, at(5), 1); // node 0, seq 0
        sim.post_at(0, 0, at(5), 2); // node 0, seq 1
        sim.post_at(0, 0, at(3), 0);
        let order: Vec<u32> = std::iter::from_fn(|| sim.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![0, 1, 2, 10]);
    }

    #[test]
    fn single_node_same_instant_events_fire_fifo() {
        // One node: the per-node sequence is the insertion order, across
        // both the cancellable and the fire-and-forget family.
        let mut sim: ShardedSimulation<u32> = ShardedSimulation::new(vec![0], L);
        for i in 0..100 {
            if i % 3 == 0 {
                sim.schedule_at(0, 0, at(7), i);
            } else {
                sim.post_at(0, 0, at(7), i);
            }
        }
        let order: Vec<u32> = std::iter::from_fn(|| sim.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
        assert_eq!(sim.now(), at(7));
    }

    #[test]
    fn cross_lp_messages_reach_the_destination_lp() {
        let mut sim: ShardedSimulation<&'static str> = ShardedSimulation::new(vec![0, 1], L);
        sim.post_at(0, 0, at(1), "local");
        sim.post_at(0, 1, at(12), "fabric");
        let (t1, e1) = sim.pop().unwrap();
        assert_eq!((t1, e1), (at(1), "local"));
        let (t2, e2) = sim.pop().unwrap();
        assert_eq!((t2, e2), (at(12), "fabric"));
        assert!(sim.pop().is_none());
    }

    #[test]
    #[should_panic(expected = "violates lookahead")]
    fn cross_lp_post_inside_lookahead_panics() {
        let mut sim: ShardedSimulation<()> = ShardedSimulation::new(vec![0, 1], L);
        sim.post_at(0, 1, at(5), ());
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn scheduling_in_the_past_panics() {
        let mut sim: ShardedSimulation<()> = ShardedSimulation::new(vec![0], L);
        sim.schedule_at(0, 0, at(5), ());
        sim.pop();
        sim.schedule_at(0, 0, at(1), ());
    }

    #[test]
    fn dispatch_order_is_identical_at_any_sharding() {
        // Three server nodes fed by a coordinator, run under three
        // different LP assignments; the dispatch sequence must match
        // exactly. The script posts a reply for each request, always
        // respecting the lookahead.
        let runs: Vec<Vec<(u64, u32)>> = [
            vec![0u32, 0, 0, 0], // everything on one LP
            vec![0, 1, 1, 2],    // two server groups
            vec![0, 1, 2, 3],    // one LP per server
        ]
        .into_iter()
        .map(|map| {
            let mut sim: ShardedSimulation<u32> = ShardedSimulation::new(map, L);
            // Event code: server * 1000 + hop (0 = request, 1 = reply).
            for s in 1..4u16 {
                // Same instant on purpose: exercises the intrinsic tie-break.
                sim.post_at(0, s, at(20), s as u32 * 1000);
            }
            let mut seen = Vec::new();
            while let Some((t, e)) = sim.pop() {
                seen.push(((t - SimTime::ZERO).as_nanos() / 1000, e));
                if e % 1000 == 0 {
                    // Server handles the request, replies to node 0.
                    let server = (e / 1000) as u16;
                    sim.post_in(server, 0, L, e + 1);
                }
            }
            seen
        })
        .collect();
        assert_eq!(runs[0], runs[1]);
        assert_eq!(runs[0], runs[2]);
        assert_eq!(runs[0].len(), 6);
    }

    #[test]
    fn cancellation_matches_serial_semantics() {
        let mut sim: ShardedSimulation<u32> = ShardedSimulation::new(vec![0, 1], L);
        let a = sim.schedule_at(0, 0, at(1), 1);
        sim.schedule_at(0, 0, at(2), 2);
        sim.cancel(a);
        assert_eq!(sim.pending(), 1);
        assert_eq!(sim.pop().unwrap().1, 2);
        assert!(sim.pop().is_none());
        // A second cancel of the same handle is a no-op.
        sim.cancel(a);
    }

    #[test]
    fn cancel_after_fire_is_noop() {
        // The fired event's slot is recycled; the stale handle must not
        // cancel the event that inherited it, nor skew `pending`.
        let mut sim: ShardedSimulation<u32> = ShardedSimulation::new(vec![0], L);
        let a = sim.schedule_at(0, 0, at(1), 1);
        assert_eq!(sim.pop().unwrap().1, 1);
        sim.cancel(a);
        assert_eq!(sim.pending(), 0);
        sim.schedule_at(0, 0, at(2), 2);
        sim.cancel(a);
        assert_eq!(sim.pending(), 1);
        assert_eq!(sim.pop().unwrap().1, 2);
        assert_eq!(sim.pending(), 0);
    }

    #[test]
    fn pending_counts_exclude_cancelled() {
        let mut sim: ShardedSimulation<u32> = ShardedSimulation::new(vec![0, 1], L);
        let ids: Vec<_> = (0..10).map(|i| sim.schedule_at(0, 0, at(i), 0)).collect();
        sim.post_at(0, 1, at(100), 0);
        for id in ids.iter().take(5) {
            sim.cancel(*id);
            sim.cancel(*id);
        }
        assert_eq!(sim.pending(), 6);
        assert_eq!(std::iter::from_fn(|| sim.pop()).count(), 6);
        assert_eq!(sim.pending(), 0);
    }

    #[test]
    fn idle_gaps_cost_no_dispatches() {
        let mut sim: ShardedSimulation<u32> = ShardedSimulation::new(vec![0, 1], L);
        sim.post_at(0, 0, at(1), 1);
        sim.post_at(0, 0, at(1_000_000), 2); // a second later
        assert_eq!(sim.pop().unwrap().1, 1);
        assert_eq!(sim.pop().unwrap().1, 2);
        // Two events, two dispatches — nothing ticks through the gap.
        assert_eq!(sim.dispatched(), 2);
    }

    #[test]
    #[should_panic(expected = "within one LP")]
    fn cross_lp_cancellable_is_rejected() {
        let mut sim: ShardedSimulation<()> = ShardedSimulation::new(vec![0, 1], L);
        sim.schedule_at(0, 1, at(100), ());
    }

    fn mix(h: u64, v: u64) -> u64 {
        // splitmix64 finalizer: order-sensitive fold.
        let mut z = h ^ v.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    #[derive(Debug)]
    struct Hop {
        to: u16,
        id: u64,
        hops: u32,
    }

    /// A ping-pong script through `run_serial`; returns one digest per
    /// node. Handlers receive the destination node inside the event, as
    /// real callers do — the engine does not pass it.
    fn pingpong(node_lp: Vec<u32>, events: u64) -> Vec<u64> {
        let n_nodes = node_lp.len();
        let n_lps = *node_lp.iter().max().unwrap() as usize + 1;
        let mut sim: ShardedSimulation<Hop> = ShardedSimulation::new(node_lp, L);
        let balls = 16u64;
        let hops = (events / balls).max(1) as u32;
        for b in 0..balls {
            let to = (mix(b, 1) % n_nodes as u64) as u16;
            let t = at(20 + b);
            sim.post_at(0, to, t, Hop { to, id: b, hops });
        }
        let mut states: Vec<Vec<u64>> = (0..n_lps).map(|_| vec![0u64; n_nodes]).collect();
        sim.run_serial(&mut states, |port, st, now, ev| {
            let node = ev.to;
            st[node as usize] = mix(st[node as usize], ev.id ^ (now - SimTime::ZERO).as_nanos());
            if ev.hops > 0 {
                let next = (mix(ev.id, ev.hops as u64) % (st.len() as u64)) as u16;
                port.post_in(
                    node,
                    next,
                    L + SimDuration::from_nanos(ev.id % 97),
                    Hop {
                        to: next,
                        id: mix(ev.id, 3),
                        hops: ev.hops - 1,
                    },
                );
            }
        });
        // Each node is owned by exactly one LP, so merging the per-LP
        // vectors never collides.
        let mut merged = vec![0u64; n_nodes];
        for st in &states {
            for (n, d) in st.iter().enumerate() {
                if *d != 0 {
                    assert_eq!(merged[n], 0, "node executed on two LPs");
                    merged[n] = *d;
                }
            }
        }
        merged
    }

    #[test]
    fn run_serial_is_identical_at_any_sharding() {
        let maps = [
            vec![0u32, 0, 0, 0, 0, 0],
            vec![0, 0, 0, 1, 1, 1],
            vec![0, 1, 1, 2, 2, 3],
            vec![0, 1, 2, 3, 4, 5],
        ];
        let reference = pingpong(maps[0].clone(), 4096);
        assert!(reference.iter().all(|&d| d != 0));
        for map in maps {
            assert_eq!(pingpong(map, 4096), reference);
        }
    }

    #[test]
    fn run_serial_delivers_cross_lp_posts_in_exact_order() {
        // An event posts cross-LP at exactly now + L; the destination
        // LP has a later local event. The fabric message must dispatch
        // first.
        let mut sim: ShardedSimulation<&'static str> = ShardedSimulation::new(vec![0, 1], L);
        sim.post_at(0, 0, at(0), "kick");
        sim.post_at(1, 1, at(50), "late-local");
        let mut order = Vec::new();
        let mut states = vec![(), ()];
        sim.run_serial(&mut states, |port, _st, _now, ev| {
            order.push(ev);
            if ev == "kick" {
                port.post_in(0, 1, L, "fabric");
            }
        });
        assert_eq!(order, vec!["kick", "fabric", "late-local"]);
    }

    #[test]
    fn port_cancellation_works_inside_runs() {
        let mut sim: ShardedSimulation<u32> = ShardedSimulation::new(vec![0, 1], L);
        sim.post_at(0, 0, at(0), 1);
        let mut fired: Vec<u32> = Vec::new();
        let mut states = vec![0u32, 0u32];
        sim.run_serial(&mut states, |port, _st, _now, ev| {
            fired.push(ev);
            if ev == 1 {
                let id = port.schedule_at(0, 0, at(5), 2);
                port.schedule_at(0, 0, at(6), 3);
                port.cancel(id);
            }
        });
        assert_eq!(fired, vec![1, 3]);
    }
}
