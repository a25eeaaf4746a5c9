//! `blktrace`-equivalent dispatch tracing.
//!
//! The paper uses `blktrace` to record the sizes of requests dispatched
//! to the device and plots their distribution in sector units (Figs.
//! 2(c–e) and 5). [`DispatchTracer`] records the same signal from the
//! simulated block layer. It lives in
//! the observability crate so the block layer, the experiment harness
//! and the metrics renderers share one implementation;
//! `ibridge-iosched` re-exports it under its old path.

use ibridge_des::stats::Histogram;
use ibridge_device::IoDir;

/// Records the size distribution (in sectors) of dispatched requests.
#[derive(Debug, Clone, Default)]
pub struct DispatchTracer {
    reads: Histogram,
    writes: Histogram,
}

impl DispatchTracer {
    /// Creates an empty tracer.
    pub fn new() -> Self {
        DispatchTracer::default()
    }

    /// Records the dispatch of a request of `sectors` sectors in
    /// direction `dir`.
    pub fn record(&mut self, dir: IoDir, sectors: u64) {
        match dir {
            IoDir::Read => self.reads.record(sectors),
            IoDir::Write => self.writes.record(sectors),
        }
    }

    /// Size histogram of dispatched reads, keyed by sectors.
    pub fn reads(&self) -> &Histogram {
        &self.reads
    }

    /// Size histogram of dispatched writes, keyed by sectors.
    pub fn writes(&self) -> &Histogram {
        &self.writes
    }

    /// Combined read+write size histogram.
    pub fn combined(&self) -> Histogram {
        let mut h = self.reads.clone();
        h.merge(&self.writes);
        h
    }

    /// Total dispatched request count.
    pub fn total(&self) -> u64 {
        self.reads.total() + self.writes.total()
    }

    /// Clears all recorded data (e.g. to skip a warm-up phase).
    pub fn reset(&mut self) {
        *self = DispatchTracer::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_by_direction() {
        let mut t = DispatchTracer::new();
        t.record(IoDir::Read, 128);
        t.record(IoDir::Read, 128);
        t.record(IoDir::Write, 256);
        assert_eq!(t.reads().count(128), 2);
        assert_eq!(t.writes().count(256), 1);
        assert_eq!(t.combined().total(), 3);
        assert_eq!(t.total(), 3);
    }

    #[test]
    fn reset_clears_everything() {
        let mut t = DispatchTracer::new();
        t.record(IoDir::Read, 8);
        t.reset();
        assert_eq!(t.total(), 0);
    }
}
