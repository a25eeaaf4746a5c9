//! The event calendar: one binary heap of 24-byte keys and one payload
//! slab, in an intrinsic total order, with cancellation.
//!
//! # Nodes and the intrinsic order
//!
//! The simulated system is made of *nodes* (a client coordinator,
//! individual data servers). Every post names its source and
//! destination node. Events are ordered by `(timestamp, source node,
//! per-node sequence)`. The sequence number is drawn from a counter owned
//! by the *posting node*, never from a global insertion counter, so an
//! event's position in the order is a property of the simulated system:
//! which node posted it and how many posts that node made before. Every
//! golden output was recorded in this order. On a single node it reduces
//! to time, then FIFO among same-instant posts.
//!
//! # Layout
//!
//! The heap holds only `Copy` keys `{ at, key, slot }`, so a sift step
//! moves 24 bytes whatever the event type. Each payload waits in its
//! slab slot until the key pops; a slot index and its generation form
//! the cancellation handle. `(at, key)` is unique per event, so the heap
//! order is total and the pop sequence does not depend on the heap's
//! internal layout.
//!
//! # The network floor
//!
//! A post between two different nodes is a message across the fabric, so
//! it must land at least one **lookahead** after the current instant: the
//! minimum cross-node latency, in this codebase the network's
//! per-message floor (`overhead + propagation latency`). An assertion on
//! every post enforces it, so a model change that lets one node react to
//! another faster than the wire allows fails loudly. Posts that stay on
//! one node only need `at >= now`.

use crate::{EventId, SimDuration, SimTime};
use std::cmp::Ordering;
use std::collections::binary_heap::BinaryHeap;

/// Bits of the packed key holding the per-node sequence; the source node
/// sits above them.
const SEQ_BITS: u32 = 48;

/// A slab slot: the payload of one pending event and the generation that
/// makes its handle stale once it fires.
struct Slot<E> {
    gen: u32,
    cancelled: bool,
    event: Option<E>,
}

/// A heap entry: the event's intrinsic order key and its slab slot.
#[derive(Clone, Copy)]
struct Keyed {
    at: SimTime,
    /// `(source node) << 48 | (per-node sequence)`: the intrinsic
    /// tie-break for events at the same instant. Comparing the packed
    /// word compares `(node, seq)` lexicographically.
    key: u64,
    slot: u32,
}

const _: () = assert!(std::mem::size_of::<Keyed>() == 24);

impl PartialEq for Keyed {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.key == other.key
    }
}
impl Eq for Keyed {}
impl PartialOrd for Keyed {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Keyed {
    // BinaryHeap is a max-heap; invert so the smallest (at, key) pops
    // first.
    fn cmp(&self, other: &Self) -> Ordering {
        (other.at, other.key).cmp(&(self.at, self.key))
    }
}

/// The simulation: virtual clock, typed events and cancellation, with
/// every post naming its *source* and *destination* node so events are
/// ordered intrinsically and cross-node posts are checked against the
/// network floor. A one-node calendar (`Simulation::new(1, lookahead)`)
/// is a plain calendar with FIFO tie-breaking.
pub struct Simulation<E> {
    heap: BinaryHeap<Keyed>,
    /// Payload slab: one slot per event still in the heap.
    slots: Vec<Slot<E>>,
    free: Vec<u32>,
    /// Cancelled events still in the heap.
    tombstones: usize,
    /// Per-node post counters (the intrinsic sequence source), indexed
    /// by node id.
    node_seq: Vec<u64>,
    lookahead: SimDuration,
    now: SimTime,
    dispatched: u64,
}

impl<E> Simulation<E> {
    /// Creates a calendar for nodes `0..n_nodes` whose cross-node posts
    /// must land at least `lookahead` in the future.
    ///
    /// # Panics
    ///
    /// Panics on zero nodes, more than 2¹⁶ nodes, or a zero lookahead
    /// (a message could then arrive at the instant it was sent).
    pub fn new(n_nodes: usize, lookahead: SimDuration) -> Self {
        assert!(n_nodes > 0, "simulation needs nodes");
        assert!(n_nodes <= 1 << 16, "node id space is 16 bits");
        assert!(
            lookahead > SimDuration::ZERO,
            "the network floor must be positive"
        );
        Simulation {
            heap: BinaryHeap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            tombstones: 0,
            node_seq: vec![0; n_nodes],
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

    /// Number of events dispatched so far.
    pub fn dispatched(&self) -> u64 {
        self.dispatched
    }

    /// The minimum cross-node latency: the earliest a message posted now
    /// may land on another node is `now() + lookahead()`.
    pub fn lookahead(&self) -> SimDuration {
        self.lookahead
    }

    /// Pending (not yet fired, not cancelled) events.
    pub fn pending(&self) -> usize {
        self.heap.len() - self.tombstones
    }

    /// Checks the causality rules for a post and draws its intrinsic key
    /// from `src`'s sequence.
    #[inline]
    fn key(&mut self, src: u16, dst: u16, at: SimTime) -> u64 {
        debug_assert!((dst as usize) < self.node_seq.len(), "unknown node {dst}");
        // Same-node posts may land now; cross-node ones one network
        // floor later. Saturating: a floor past the end of time admits
        // nothing, which is what the assertion should report.
        let floor = if src == dst {
            self.now.as_nanos()
        } else {
            self.now
                .as_nanos()
                .saturating_add(self.lookahead.as_nanos())
        };
        assert!(
            at.as_nanos() >= floor,
            "{}",
            self.causality_violation(src, dst, at)
        );
        let seq = &mut self.node_seq[src as usize];
        debug_assert!(*seq < (1 << SEQ_BITS), "per-node sequence exhausted");
        let key = ((src as u64) << SEQ_BITS) | *seq;
        *seq += 1;
        key
    }

    /// The panic message for a post that breaks the causality rules;
    /// cold so the check itself stays small enough to inline.
    #[cold]
    #[inline(never)]
    fn causality_violation(&self, src: u16, dst: u16, at: SimTime) -> String {
        if src == dst {
            format!("event scheduled in the past: at={at:?} now={:?}", self.now)
        } else {
            format!(
                "cross-node event violates lookahead: {src}->{dst} at={at:?} now={:?} \
                 lookahead={:?}",
                self.now, self.lookahead
            )
        }
    }

    /// Posts `event` from node `src` onto node `dst` at absolute time
    /// `at` (fire-and-forget: [`schedule_at`](Self::schedule_at) without
    /// the handle).
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past, or if `src != dst` and `at` falls
    /// inside the lookahead.
    pub fn post_at(&mut self, src: u16, dst: u16, at: SimTime, event: E) {
        self.schedule_at(src, dst, at, event);
    }

    /// [`post_at`](Self::post_at) after a delay from now.
    pub fn post_in(&mut self, src: u16, dst: u16, d: SimDuration, event: E) {
        self.post_at(src, dst, self.now + d, event);
    }

    /// [`post_at`](Self::post_at) at the current instant (same-node only
    /// in practice: a cross-node post at `now` violates the lookahead).
    pub fn post_now(&mut self, src: u16, dst: u16, event: E) {
        self.post_at(src, dst, self.now, event);
    }

    /// Cancellable [`post_at`](Self::post_at); same rules and panics.
    pub fn schedule_at(&mut self, src: u16, dst: u16, at: SimTime, event: E) -> EventId {
        let key = self.key(src, dst, at);
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize].event = Some(event);
                slot
            }
            None => {
                let slot = u32::try_from(self.slots.len()).expect("event slab exhausted");
                self.slots.push(Slot {
                    gen: 0,
                    cancelled: false,
                    event: Some(event),
                });
                slot
            }
        };
        self.heap.push(Keyed { at, key, slot });
        EventId::pack(slot, self.slots[slot as usize].gen)
    }

    /// Cancels a previously scheduled event; no-op if it already fired
    /// or was already cancelled.
    pub fn cancel(&mut self, id: EventId) {
        if let Some(s) = self.slots.get_mut(id.slot() as usize) {
            if s.gen == id.gen() && !s.cancelled {
                s.cancelled = true;
                self.tombstones += 1;
            }
        }
    }

    /// Pops the next event in intrinsic `(at, node, seq)` order,
    /// advancing the clock. Cancelled events are dropped on the way.
    /// Returns `None` when the calendar is empty.
    #[inline]
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        loop {
            let k = self.heap.pop()?;
            // Take the payload and recycle the slot; a new generation
            // makes the handle stale.
            let s = &mut self.slots[k.slot as usize];
            s.gen = s.gen.wrapping_add(1);
            let cancelled = std::mem::take(&mut s.cancelled);
            let event = s.event.take();
            self.free.push(k.slot);
            if cancelled {
                self.tombstones -= 1;
                continue;
            }
            debug_assert!(k.at >= self.now, "calendar yielded an event in the past");
            self.now = k.at;
            self.dispatched += 1;
            return Some((k.at, event.expect("a live slot holds its payload")));
        }
    }

    /// Runs the calendar to exhaustion. The handler receives the
    /// calendar itself, to post follow-up events, with each event's
    /// timestamp.
    pub fn run(&mut self, mut handler: impl FnMut(&mut Self, SimTime, E)) {
        while let Some((at, event)) = self.pop() {
            handler(self, at, event);
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
    fn same_instant_events_fire_in_node_then_seq_order() {
        // Ties at the same instant break by (node, per-node seq), not
        // insertion order.
        let mut sim: Simulation<u32> = Simulation::new(2, L);
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
        let mut sim: Simulation<u32> = Simulation::new(1, L);
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
    #[should_panic(expected = "violates lookahead")]
    fn cross_node_post_inside_the_lookahead_panics() {
        let mut sim: Simulation<()> = Simulation::new(2, L);
        sim.post_at(0, 0, at(5), ());
        sim.pop();
        // Same-node posts may land at `now`, cross-node ones at
        // `now + L`...
        sim.post_now(0, 0, ());
        sim.post_now(1, 1, ());
        sim.post_in(0, 1, L, ());
        // ...but not a microsecond sooner.
        sim.post_at(1, 0, at(14), ());
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn scheduling_in_the_past_panics() {
        let mut sim: Simulation<()> = Simulation::new(1, L);
        sim.schedule_at(0, 0, at(5), ());
        sim.pop();
        sim.schedule_at(0, 0, at(1), ());
    }

    #[test]
    fn cancellation_removes_exactly_the_cancelled_event() {
        let mut sim: Simulation<u32> = Simulation::new(2, L);
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
        let mut sim: Simulation<u32> = Simulation::new(1, L);
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
        let mut sim: Simulation<u32> = Simulation::new(2, L);
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
        let mut sim: Simulation<u32> = Simulation::new(1, L);
        sim.post_at(0, 0, at(1), 1);
        sim.post_at(0, 0, at(1_000_000), 2); // a second later
        assert_eq!(sim.pop().unwrap().1, 1);
        assert_eq!(sim.pop().unwrap().1, 2);
        // Two events, two dispatches — nothing ticks through the gap.
        assert_eq!(sim.dispatched(), 2);
    }

    #[test]
    fn run_delivers_handler_posts_in_exact_order() {
        // A handler posts cross-node at exactly now + L; the destination
        // already holds a later event. The message must dispatch first.
        let mut sim: Simulation<&'static str> = Simulation::new(2, L);
        sim.post_at(0, 0, at(0), "kick");
        sim.post_at(1, 1, at(50), "late-local");
        let mut order = Vec::new();
        sim.run(|sim, _now, ev| {
            order.push(ev);
            if ev == "kick" {
                sim.post_in(0, 1, L, "message");
            }
        });
        assert_eq!(order, vec!["kick", "message", "late-local"]);
    }

    #[test]
    fn cancellation_works_inside_runs() {
        let mut sim: Simulation<u32> = Simulation::new(2, L);
        sim.post_at(0, 0, at(0), 1);
        let mut fired: Vec<u32> = Vec::new();
        sim.run(|sim, _now, ev| {
            fired.push(ev);
            if ev == 1 {
                let id = sim.schedule_at(0, 0, at(5), 2);
                sim.schedule_at(0, 0, at(6), 3);
                sim.cancel(id);
            }
        });
        assert_eq!(fired, vec![1, 3]);
    }
}
