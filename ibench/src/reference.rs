//! The host-speed reference: a fixed unit of work, timed between the
//! measured passes, that host times are divided by.
//!
//! The measuring host is shared. Other tenants slow it by a third or more
//! for stretches of twenty seconds and longer while steal time stays near
//! zero, so they compete for what the cores share rather than for the
//! CPUs, and a median over one run cannot hide a slow stretch that covers
//! the run. Such a stretch slows this kernel about as much as the
//! simulator, because the kernel does the same kinds of work: B-tree
//! inserts, lookups and removals, a binary-heap calendar, scattered reads
//! and writes over a table larger than a core's private caches, and small
//! allocations. A pass's host time divided by the kernel's time next to
//! it, times the kernel's time on the reference host, is what the pass
//! would have taken on that host undisturbed. The kernel lives in this
//! package, so a change to the simulator cannot change it.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::hint::black_box;
use std::time::Instant;

/// Host seconds of one unit on the reference host (2 vCPUs of a shared
/// Intel Xeon VM), where the median unit of a run takes 0.037–0.040 s:
/// normalized times read as seconds on that host.
pub const REFERENCE_S: f64 = 0.040;

const STEPS: u64 = 120_000;
const KEYS: u64 = 1 << 15;
const TABLE: usize = 1 << 18;
const CALENDAR: usize = 4096;

/// The kernel's state, allocated once so that repeated units neither grow
/// nor churn the process's memory, which `peak_rss_mb` reports.
pub struct Reference {
    map: BTreeMap<u64, u64>,
    heap: BinaryHeap<Reverse<(u64, u64)>>,
    table: Vec<u64>,
}

impl Default for Reference {
    fn default() -> Self {
        Reference {
            map: BTreeMap::new(),
            heap: BinaryHeap::with_capacity(CALENDAR + 1),
            table: vec![1; TABLE],
        }
    }
}

impl Reference {
    /// Runs one unit and returns its host seconds. Every unit does the
    /// same work.
    pub fn measure(&mut self) -> f64 {
        let start = Instant::now();
        self.map.clear();
        self.heap.clear();
        let mut s = 0x9e37_79b9_7f4a_7c15_u64;
        let mut acc = 0_u64;
        for i in 0..STEPS {
            // xorshift64
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            let key = s % KEYS;
            self.map.insert(key, i);
            if let Some((_, v)) = self.map.range(key ^ 0x55..).next() {
                acc = acc.wrapping_add(*v);
            }
            if s & 3 == 0 {
                self.map.remove(&((s >> 20) % KEYS));
            }
            self.heap.push(Reverse((s >> 16, i)));
            if self.heap.len() > CALENDAR {
                acc ^= self.heap.pop().map_or(0, |Reverse((at, _))| at);
            }
            let slot = (s >> 8) as usize % TABLE;
            self.table[slot] = self.table[slot].wrapping_add(acc);
            if i % 64 == 0 {
                let scratch: Vec<u64> = Vec::with_capacity(16 + (s % 256) as usize);
                acc = acc.wrapping_add(black_box(scratch).capacity() as u64);
            }
        }
        black_box(acc);
        start.elapsed().as_secs_f64()
    }
}
