//! What a run reports, and the process-wide totals of all runs.

use crate::policy::{CacheStats, MaintStats};
use ibridge_des::stats::{Histogram, MeanTracker};
use ibridge_des::SimDuration;
use ibridge_faults::FaultStats;
use ibridge_iosched::DevStats;
use std::sync::atomic::{AtomicU64, Ordering};

/// Calendar events dispatched by every [`Cluster::run`] in this process,
/// across all `--jobs` workers. `expt` reads it for its progress line and
/// its `--bench-report` ledger.
pub(super) static TOTAL_EVENTS: AtomicU64 = AtomicU64::new(0);

/// Online invariant-auditor passes completed by every [`Cluster::run`] in
/// this process (`ibench` checks that its audited runs really audit).
pub(super) static TOTAL_AUDITS: AtomicU64 = AtomicU64::new(0);

/// Total calendar events dispatched by all cluster runs so far in this
/// process (monotone; updated once per run, so it is cheap and safe to
/// poll from another thread).
pub fn total_events_dispatched() -> u64 {
    TOTAL_EVENTS.load(Ordering::Relaxed)
}

/// Always `(0, 0)`: the `(windows, barriers)` of the removed threaded
/// driver. Runs are serial, so there are no windows to count. Kept only
/// because the `ibench` package still reads it; remove it together with
/// ibench's `des.windows` metric.
pub fn total_window_counters() -> (u64, u64) {
    (0, 0)
}

/// Process-wide totals, updated once per run. Fault and maintenance
/// counts are per run: [`RunStats::faults`] and [`ServerRunStats::maint`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultTotals {
    /// Online invariant-auditor passes completed.
    pub audits: u64,
}

/// Snapshot of the process-wide totals (monotone, like
/// [`total_events_dispatched`]).
pub fn total_fault_counters() -> FaultTotals {
    FaultTotals {
        audits: TOTAL_AUDITS.load(Ordering::Relaxed),
    }
}

/// Per-server statistics captured at the end of a run.
#[derive(Debug, Clone)]
pub struct ServerRunStats {
    /// Primary device counters.
    pub primary: DevStats,
    /// Cache device counters (if configured).
    pub cache: Option<DevStats>,
    /// Policy counters.
    pub policy: CacheStats,
    /// Backup-log maintenance counters (segmented log, checkpoints,
    /// compaction, scrub) — all zero for policies without a backup log.
    pub maint: MaintStats,
    /// Dispatch-size histogram of primary-device reads (sectors).
    pub primary_reads: Histogram,
    /// Dispatch-size histogram of primary-device writes (sectors).
    pub primary_writes: Histogram,
    /// Readahead page-cache hits served without device I/O.
    pub ra_hits: u64,
    /// Bytes of those hits.
    pub ra_bytes: u64,
}

/// Results of one workload run.
#[derive(Debug, Clone)]
pub struct RunStats {
    /// Wall time to full quiescence (includes the writeback drain, as
    /// the paper's methodology requires).
    pub elapsed: SimDuration,
    /// Wall time until the last process finished its last request.
    pub client_elapsed: SimDuration,
    /// Client-level bytes moved.
    pub bytes: u64,
    /// Client-level requests issued.
    pub requests: u64,
    /// Per-request completion latency, milliseconds.
    pub latency_ms: MeanTracker,
    /// Latency distribution, bucketed in whole milliseconds
    /// (percentiles via [`Histogram::quantile`]).
    pub latency_hist_ms: Histogram,
    /// Total time processes spent waiting on I/O (summed across procs).
    pub io_time: SimDuration,
    /// Total compute (think) time (summed across procs).
    pub think_time: SimDuration,
    /// Calendar events dispatched during this run (simulator work, not a
    /// property of the simulated system).
    pub events_dispatched: u64,
    /// Bytes moved by each process (heterogeneous-workload accounting).
    pub proc_bytes: Vec<u64>,
    /// When each process finished, relative to run start.
    pub proc_done: Vec<SimDuration>,
    /// Per-server breakdown.
    pub servers: Vec<ServerRunStats>,
    /// Fault/recovery counters (all zero unless a plan was armed).
    pub faults: FaultStats,
}

impl RunStats {
    /// Aggregate throughput over the full run (drain included), MB/s.
    pub fn throughput_mbps(&self) -> f64 {
        if self.elapsed == SimDuration::ZERO {
            return 0.0;
        }
        self.bytes as f64 / self.elapsed.as_secs_f64() / 1e6
    }

    /// Throughput over the client phase only, MB/s.
    pub fn client_throughput_mbps(&self) -> f64 {
        if self.client_elapsed == SimDuration::ZERO {
            return 0.0;
        }
        self.bytes as f64 / self.client_elapsed.as_secs_f64() / 1e6
    }

    /// Fraction of client bytes served by the SSD caches.
    pub fn ssd_served_fraction(&self) -> f64 {
        let ssd: u64 = self.servers.iter().map(|s| s.policy.bytes_ssd).sum();
        let disk: u64 = self.servers.iter().map(|s| s.policy.bytes_disk).sum();
        if ssd + disk == 0 {
            0.0
        } else {
            ssd as f64 / (ssd + disk) as f64
        }
    }

    /// Combined dispatch histogram of all primary devices (reads).
    pub fn combined_read_hist(&self) -> Histogram {
        let mut h = Histogram::new();
        for s in &self.servers {
            h.merge(&s.primary_reads);
        }
        h
    }

    /// Combined dispatch histogram of all primary devices (writes).
    pub fn combined_write_hist(&self) -> Histogram {
        let mut h = Histogram::new();
        for s in &self.servers {
            h.merge(&s.primary_writes);
        }
        h
    }

    /// Throughput of a subset of processes, MB/s: their bytes over the
    /// time the slowest of them took (per-benchmark numbers in
    /// heterogeneous runs, cf. Fig. 12).
    pub fn group_throughput_mbps(&self, procs: std::ops::Range<usize>) -> f64 {
        let bytes: u64 = self.proc_bytes[procs.clone()].iter().sum();
        let slowest = self.proc_done[procs]
            .iter()
            .max()
            .copied()
            .unwrap_or(SimDuration::ZERO);
        if slowest == SimDuration::ZERO {
            return 0.0;
        }
        bytes as f64 / slowest.as_secs_f64() / 1e6
    }
}
