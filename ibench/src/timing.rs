//! Host-time measurement from outside the program: transparent timing
//! decorators around the two pluggable boundaries of the simulator
//! (`CachePolicy`, behind which the iBridge core runs, and `Workload`,
//! the generators), plus an in-memory span recorder written out as
//! Chrome trace-event JSON.
//!
//! Every call through a decorator is counted and its host time summed;
//! every 1024th call is also kept as a sampled span.

use ibridge_des::SimTime;
use ibridge_device::Lbn;
use ibridge_localfs::ExtentList;
use ibridge_pvfs::{
    CachePolicy, CacheStats, EntryId, FlushId, FlushOp, LogCorruption, MaintStats, Placement,
    RestartReport, SubRequest, WorkItem, Workload,
};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One call in every `SAMPLE_EVERY` becomes a span.
const SAMPLE_EVERY: u64 = 1024;

/// A finished span. `parent` is 0 for a root span.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    /// Trace row: 0 for the benchmark's own spans and the generator,
    /// `1 + server` for calls into that server's policy.
    pub lane: u32,
    pub pass: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Holds spans in memory until the run ends.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    next_id: AtomicU64,
    /// Parent of sampled spans: the `pvfs.run` span now open.
    parent: AtomicU64,
    pass: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            parent: AtomicU64::new(0),
            pass: AtomicU32::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Recorder {
    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.epoch).as_nanos() as u64
    }

    fn push(&self, span: Span) {
        self.spans.lock().expect("span buffer poisoned").push(span);
    }

    /// Runs `f` inside a span; `f` receives the span's id so it can open
    /// children. Returns `f`'s result and the span's host nanoseconds.
    pub fn span<R>(&self, name: &'static str, parent: u64, f: impl FnOnce(u64) -> R) -> (R, u64) {
        let id = self.next_id.fetch_add(1, Relaxed);
        let start = Instant::now();
        let r = f(id);
        let end = Instant::now();
        self.push(Span {
            id,
            parent,
            name,
            lane: 0,
            pass: self.pass.load(Relaxed),
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        });
        (r, (end - start).as_nanos() as u64)
    }

    /// Sets the parent of sampled spans and the pass they belong to.
    pub fn enter(&self, parent: u64, pass: u32) {
        self.parent.store(parent, Relaxed);
        self.pass.store(pass, Relaxed);
    }

    fn sample(&self, name: &'static str, lane: u32, start: Instant, end: Instant) {
        self.push(Span {
            id: self.next_id.fetch_add(1, Relaxed),
            parent: self.parent.load(Relaxed),
            name,
            lane,
            pass: self.pass.load(Relaxed),
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        });
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span buffer poisoned").clone()
    }
}

/// Chrome trace-event JSON (load in Perfetto or `chrome://tracing`).
pub fn chrome_json(spans: &[Span], workload: &str) -> String {
    let mut out = String::from("{\"traceEvents\": [\n");
    let mut lanes: Vec<u32> = spans.iter().map(|s| s.lane).collect();
    lanes.sort_unstable();
    lanes.dedup();
    for lane in lanes {
        let name = match lane {
            0 => "ibench".to_string(),
            l => format!("core server {}", l - 1),
        };
        let _ = writeln!(
            out,
            "{{\"ph\": \"M\", \"name\": \"thread_name\", \"pid\": 1, \"tid\": {lane}, \
             \"args\": {{\"name\": \"{name}\"}}}},"
        );
    }
    for (i, s) in spans.iter().enumerate() {
        let sep = if i + 1 == spans.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "{{\"ph\": \"X\", \"name\": \"{}\", \"pid\": 1, \"tid\": {}, \"ts\": {:.3}, \
             \"dur\": {:.3}, \"args\": {{\"id\": {}, \"parent\": {}, \"workload\": \"{workload}\", \
             \"pass\": {}}}}}{sep}",
            s.name,
            s.lane,
            s.start_ns as f64 / 1e3,
            (s.end_ns - s.start_ns) as f64 / 1e3,
            s.id,
            s.parent,
            s.pass,
        );
    }
    out.push_str("]}\n");
    out
}

/// The policy calls timed on their own; everything else is `Other`.
#[derive(Debug, Clone, Copy)]
pub enum Op {
    Place,
    ReadAdmission,
    FlushBatch,
    LogMaintenance,
    Other,
}

impl Op {
    pub fn span_name(self) -> &'static str {
        match self {
            Op::Place => "core.place",
            Op::ReadAdmission => "core.read_admission",
            Op::FlushBatch => "core.flush_batch",
            Op::LogMaintenance => "core.log_maintenance",
            Op::Other => "core.other",
        }
    }
}

/// Counters of one server's policy decorator. Each server lives on one
/// logical process, so the atomics are uncontended; the alignment keeps
/// servers on different cache lines when two LPs run on two threads.
#[derive(Debug, Default)]
#[repr(align(128))]
struct PolicyCounters {
    calls: [AtomicU64; 5],
    ns: [AtomicU64; 5],
    flush_ops: AtomicU64,
}

/// Totals over servers, read between passes.
#[derive(Debug, Clone, Copy, Default)]
pub struct PolicyTotals {
    pub calls: [u64; 5],
    pub ns: [u64; 5],
    pub flush_ops: u64,
}

impl PolicyTotals {
    pub fn plus(&self, other: &Self) -> Self {
        let mut t = *self;
        for i in 0..5 {
            t.calls[i] += other.calls[i];
            t.ns[i] += other.ns[i];
        }
        t.flush_ops += other.flush_ops;
        t
    }

    pub fn minus(&self, before: &Self) -> Self {
        let mut d = *self;
        for i in 0..5 {
            d.calls[i] -= before.calls[i];
            d.ns[i] -= before.ns[i];
        }
        d.flush_ops -= before.flush_ops;
        d
    }

    pub fn total_ns(&self) -> u64 {
        self.ns.iter().sum()
    }
}

/// Decorates the policies of one cluster's servers and sums their
/// counters.
pub struct Decorator {
    counters: Vec<Arc<PolicyCounters>>,
    rec: Arc<Recorder>,
}

impl Decorator {
    pub fn new(servers: usize, rec: &Arc<Recorder>) -> Self {
        Decorator {
            counters: (0..servers).map(|_| Arc::default()).collect(),
            rec: rec.clone(),
        }
    }

    /// Wraps server `id`'s policy.
    pub fn wrap(&self, id: usize, inner: Box<dyn CachePolicy>) -> Box<dyn CachePolicy> {
        Box::new(TimedPolicy {
            inner,
            lane: 1 + id as u32,
            counters: self.counters[id].clone(),
            rec: self.rec.clone(),
        })
    }

    pub fn totals(&self) -> PolicyTotals {
        let mut t = PolicyTotals::default();
        for c in &self.counters {
            for i in 0..5 {
                t.calls[i] += c.calls[i].load(Relaxed);
                t.ns[i] += c.ns[i].load(Relaxed);
            }
            t.flush_ops += c.flush_ops.load(Relaxed);
        }
        t
    }
}

/// Wraps a server's policy; forwards every call unchanged.
#[derive(Debug)]
struct TimedPolicy {
    inner: Box<dyn CachePolicy>,
    lane: u32,
    counters: Arc<PolicyCounters>,
    rec: Arc<Recorder>,
}

impl TimedPolicy {
    /// Books one call of `op` that started at `start`.
    #[inline]
    fn finish(&self, op: Op, start: Instant) {
        let end = Instant::now();
        let i = op as usize;
        self.counters.ns[i].fetch_add((end - start).as_nanos() as u64, Relaxed);
        if self.counters.calls[i]
            .fetch_add(1, Relaxed)
            .is_multiple_of(SAMPLE_EVERY)
        {
            self.rec.sample(op.span_name(), self.lane, start, end);
        }
    }
}

impl CachePolicy for TimedPolicy {
    fn place(&mut self, now: SimTime, sub: &SubRequest, disk_lbn: Lbn) -> Placement {
        let start = Instant::now();
        let r = self.inner.place(now, sub, disk_lbn);
        self.finish(Op::Place, start);
        r
    }

    fn read_admission(&mut self, now: SimTime, sub: &SubRequest) -> Option<(EntryId, ExtentList)> {
        let start = Instant::now();
        let r = self.inner.read_admission(now, sub);
        self.finish(Op::ReadAdmission, start);
        r
    }

    fn admission_complete(&mut self, now: SimTime, entry: EntryId) {
        let start = Instant::now();
        self.inner.admission_complete(now, entry);
        self.finish(Op::Other, start);
    }

    fn flush_batch(&mut self, now: SimTime, max_bytes: u64) -> Vec<FlushOp> {
        let start = Instant::now();
        let r = self.inner.flush_batch(now, max_bytes);
        self.finish(Op::FlushBatch, start);
        self.counters.flush_ops.fetch_add(r.len() as u64, Relaxed);
        r
    }

    fn flush_complete(&mut self, now: SimTime, id: FlushId) {
        let start = Instant::now();
        self.inner.flush_complete(now, id);
        self.finish(Op::Other, start);
    }

    fn report_t(&self) -> f64 {
        let start = Instant::now();
        let r = self.inner.report_t();
        self.finish(Op::Other, start);
        r
    }

    fn receive_broadcast(&mut self, t_values: &[f64]) {
        let start = Instant::now();
        self.inner.receive_broadcast(t_values);
        self.finish(Op::Other, start);
    }

    fn dirty_bytes(&self) -> u64 {
        let start = Instant::now();
        let r = self.inner.dirty_bytes();
        self.finish(Op::Other, start);
        r
    }

    fn stats(&self) -> CacheStats {
        let start = Instant::now();
        let r = self.inner.stats();
        self.finish(Op::Other, start);
        r
    }

    fn log_maintenance(&mut self, now: SimTime, idle: bool) {
        let start = Instant::now();
        self.inner.log_maintenance(now, idle);
        self.finish(Op::LogMaintenance, start);
    }

    fn maint_stats(&self) -> MaintStats {
        let start = Instant::now();
        let r = self.inner.maint_stats();
        self.finish(Op::Other, start);
        r
    }

    fn server_restart(&mut self, now: SimTime) -> RestartReport {
        let start = Instant::now();
        let r = self.inner.server_restart(now);
        self.finish(Op::Other, start);
        r
    }

    fn ssd_lost(&mut self, now: SimTime) -> u64 {
        let start = Instant::now();
        let r = self.inner.ssd_lost(now);
        self.finish(Op::Other, start);
        r
    }

    fn is_degraded(&self) -> bool {
        let start = Instant::now();
        let r = self.inner.is_degraded();
        self.finish(Op::Other, start);
        r
    }

    fn inject_corruption(&mut self, now: SimTime, corruption: LogCorruption) -> u64 {
        let start = Instant::now();
        let r = self.inner.inject_corruption(now, corruption);
        self.finish(Op::Other, start);
        r
    }

    fn audit(&self) -> Result<(), String> {
        let start = Instant::now();
        let r = self.inner.audit();
        self.finish(Op::Other, start);
        r
    }
}

/// Wraps the generator of one pass; forwards every call unchanged and
/// times `next`, the only call made per request.
pub struct TimedWorkload<'a> {
    inner: &'a mut dyn Workload,
    rec: &'a Recorder,
    pub calls: u64,
    pub ns: u64,
}

impl<'a> TimedWorkload<'a> {
    pub fn new(inner: &'a mut dyn Workload, rec: &'a Recorder) -> Self {
        TimedWorkload {
            inner,
            rec,
            calls: 0,
            ns: 0,
        }
    }
}

impl Workload for TimedWorkload<'_> {
    fn procs(&self) -> usize {
        self.inner.procs()
    }

    fn next(&mut self, proc: usize, iter: u64) -> Option<WorkItem> {
        let start = Instant::now();
        let r = self.inner.next(proc, iter);
        let end = Instant::now();
        self.ns += (end - start).as_nanos() as u64;
        if self.calls.is_multiple_of(SAMPLE_EVERY) {
            self.rec.sample("workloads.next", 0, start, end);
        }
        self.calls += 1;
        r
    }

    fn barrier(&self) -> bool {
        self.inner.barrier()
    }

    fn in_barrier(&self, proc: usize) -> bool {
        self.inner.in_barrier(proc)
    }
}
