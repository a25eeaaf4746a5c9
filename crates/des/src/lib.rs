//! Discrete-event simulation kernel for the iBridge reproduction.
//!
//! The whole storage cluster (clients, network, servers, disks, SSDs) runs
//! in *virtual time*: components post typed events on a calendar and a
//! single-threaded loop dispatches them in timestamp order. Virtual time
//! makes every experiment deterministic for a given seed and lets a
//! laptop "measure" hours of cluster I/O in seconds.
//!
//! The kernel is deliberately small and generic:
//!
//! * [`SimTime`] / [`SimDuration`] — nanosecond-resolution virtual time.
//! * [`Simulation`] — the event calendar: a clock plus one binary heap
//!   with an intrinsic `(time, source node, per-node sequence)`
//!   tie-break, cancellation, and the network-floor check on every
//!   cross-node post.
//! * [`rng`] — reproducible per-stream random number generators.
//! * [`stats`] — counters, EWMA (the paper's 1/8–7/8 decay), histograms.
//!
//! # Example
//!
//! ```
//! use ibridge_des::{SimDuration, Simulation};
//!
//! // One node; the lookahead only constrains posts between nodes.
//! let mut sim: Simulation<&'static str> = Simulation::new(1, SimDuration::from_nanos(1));
//! sim.post_in(0, 0, SimDuration::from_millis(5), "second");
//! sim.post_in(0, 0, SimDuration::from_millis(1), "first");
//! let (t, ev) = sim.pop().unwrap();
//! assert_eq!(ev, "first");
//! assert_eq!(t.as_nanos(), 1_000_000);
//! ```

mod calendar;
pub mod fxhash;
pub mod rng;
pub mod stats;
mod time;

pub use calendar::Simulation;
pub use time::{SimDuration, SimTime};

/// Opaque handle to a scheduled event, used for cancellation.
///
/// Cancelling an already-fired or already-cancelled event is a harmless
/// no-op.
///
/// Internally a handle packs a slot index into the cancellation slab and
/// that slot's generation at scheduling time, so stale handles (the event
/// fired, the slot was recycled) are detected without any bookkeeping on
/// the dispatch path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventId(u64);

impl EventId {
    #[inline]
    fn pack(slot: u32, gen: u32) -> Self {
        EventId(((gen as u64) << 32) | slot as u64)
    }

    #[inline]
    fn slot(self) -> u32 {
        self.0 as u32
    }

    #[inline]
    fn gen(self) -> u32 {
        (self.0 >> 32) as u32
    }
}
