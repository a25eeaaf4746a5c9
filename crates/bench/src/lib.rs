//! Experiment harness regenerating every table and figure of the iBridge
//! paper.
//!
//! Each experiment lives in its own module under [`experiments`] and
//! prints the same rows/series the paper reports, side by side with the
//! paper's published numbers where they are given. Absolute values come
//! from the simulator and are not expected to match the paper's testbed;
//! the *shapes* (who wins, by roughly what factor, where crossovers
//! fall) are the reproduction target. `EXPERIMENTS.md` records both.
//!
//! Run everything with `cargo run --release -p ibridge-bench --bin expt
//! -- all`, or a single experiment with e.g. `... -- fig4`.

pub mod alloc_count;
pub mod experiments;
pub mod obs_report;
pub mod runpar;
pub mod table;

pub use runpar::par_map;
pub use table::Table;

use ibridge_core::{ibridge_cluster_with, ssd_only_cluster, stock_cluster, IBridgeConfig};
use ibridge_des::SimDuration;
use ibridge_device::IoDir;
use ibridge_faults::FaultPlan;
use ibridge_localfs::FileHandle;
use ibridge_pvfs::{Cluster, ClusterConfig, RunStats, ServerConfig, Workload};
use ibridge_workloads::CheckpointWorkload;

/// The cluster variants the paper compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum System {
    /// Disks only, no flagging (the paper's "stock").
    Stock,
    /// Disks + per-server SSD cache with the iBridge scheme.
    IBridge,
    /// Datafiles directly on SSDs, no iBridge (Fig. 10's comparator).
    SsdOnly,
}

impl System {
    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            System::Stock => "stock",
            System::IBridge => "iBridge",
            System::SsdOnly => "SSD-only",
        }
    }
}

/// Experiment scale knobs. The default ("quick") scale keeps the full
/// suite to minutes; `--full` restores the paper's data sizes.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Bytes moved by the streaming benchmarks (paper: 10 GB).
    pub stream_bytes: u64,
    /// BTIO data set (paper class C: 6.8 GB).
    pub btio_bytes: u64,
    /// Requests per synthesised trace.
    pub trace_requests: usize,
    /// Per-datafile page-cache budget. Scaled down with the data sizes
    /// so the cache:data ratio stays realistic (a real server's page
    /// cache is far smaller than a 10 GB data set).
    pub page_cache: u64,
    /// Experiment seed.
    pub seed: u64,
    /// A user-supplied fault plan (`expt --fault-plan ...`); the
    /// `faults` experiment adds a row for it next to the builtin plans.
    /// Leaked to `'static` by the CLI so `Scale` stays `Copy`.
    pub fault_plan: Option<&'static ibridge_faults::FaultPlan>,
    /// Online invariant-auditor cadence (`expt --audit`), forwarded to
    /// every cluster the experiments build. The auditor is read-only, so
    /// experiment output is byte-identical with it on or off.
    pub audit_interval: Option<ibridge_des::SimDuration>,
}

impl Scale {
    /// Laptop-friendly scale (256 MB streams).
    pub fn quick() -> Self {
        Scale {
            stream_bytes: 256 << 20,
            btio_bytes: 96 << 20,
            trace_requests: 3_000,
            page_cache: 512 << 10,
            seed: 42,
            fault_plan: None,
            audit_interval: None,
        }
    }

    /// The paper's data sizes. Slow: use for final numbers only.
    pub fn full() -> Self {
        Scale {
            stream_bytes: 10 << 30,
            btio_bytes: 6_800 << 20,
            trace_requests: 50_000,
            page_cache: 8 << 20,
            seed: 42,
            fault_plan: None,
            audit_interval: None,
        }
    }

    /// The one recipe of an experiment's cluster: `n_servers` data
    /// servers at this scale's seed, page cache and audit cadence, and
    /// the paper's testbed in every other setting. An experiment sets
    /// only the fields it varies on the returned config.
    pub fn cluster(&self, n_servers: usize) -> ClusterConfig {
        ClusterConfig {
            n_servers,
            seed: self.seed,
            audit_interval: self.audit_interval,
            server: ServerConfig {
                ra_budget: self.page_cache,
                ..Default::default()
            },
            ..Default::default()
        }
    }
}

/// The shared experiment file handle.
pub const FILE_A: FileHandle = FileHandle(1);
/// Second file for heterogeneous runs.
pub const FILE_B: FileHandle = FileHandle(2);

/// Builds a cluster of the given variant on `cfg` (usually
/// [`Scale::cluster`]). iBridge runs the paper's policy settings on
/// every server, 10 GB of SSD each at every scale.
pub fn build(system: System, cfg: ClusterConfig) -> Cluster {
    match system {
        System::Stock => stock_cluster(cfg),
        System::IBridge => ibridge_cluster_with(cfg, IBridgeConfig::paper_defaults),
        System::SsdOnly => ssd_only_cluster(cfg),
    }
}

/// Preallocates `span` bytes of [`FILE_A`], plus 1 MiB of slack, on a
/// fresh `cluster` and runs `w` on it: the cluster's first, cold run.
pub fn cold_run(cluster: &mut Cluster, span: u64, w: &mut dyn Workload) -> RunStats {
    cluster.preallocate(FILE_A, span + (1 << 20));
    cluster.run(w)
}

/// Measures one run of `make`'s workload on a fresh `system` cluster
/// built on `cfg`, with `span` bytes of [`FILE_A`] preallocated. This is
/// the experiments' one read protocol: iBridge reads run warm — the
/// cold run of the same workload pre-loads the cache, the paper's
/// repeated production runs — and the second run is measured.
/// Everything else is measured on its cold run.
pub fn measure<W: Workload>(
    system: System,
    cfg: ClusterConfig,
    dir: IoDir,
    span: u64,
    make: impl Fn() -> W,
) -> RunStats {
    let mut cluster = build(system, cfg);
    let cold = cold_run(&mut cluster, span, &mut make());
    if dir.is_read() && system == System::IBridge {
        cluster.run(&mut make())
    } else {
        cold
    }
}

/// The probe of the fault experiments (`faults`, `recovery`,
/// `logmaint`): a checkpoint run of 4 processes, each writing 1 MiB in
/// 60 KiB records per epoch for 4 epochs after 25 ms of compute, on a
/// 4-server iBridge cluster whose servers run `make`'s policy settings,
/// with `plan` armed. Its runs of a few hundred virtual milliseconds put
/// the builtin plans' fault windows mid-run, and its servers report T
/// every 20 ms, so the `mds-crash` outage (80–200 ms) holds reports and
/// shows as stalled broadcasts.
pub fn checkpoint_probe(
    scale: &Scale,
    plan: &FaultPlan,
    make: impl Fn(usize) -> IBridgeConfig,
) -> RunStats {
    let mut cfg = scale.cluster(4);
    cfg.report_interval = SimDuration::from_millis(20);
    let mut cluster = ibridge_cluster_with(cfg, make);
    cluster.set_fault_plan(plan);
    let mut w = CheckpointWorkload::new(
        FILE_A,
        4,
        1 << 20,
        60 * 1024,
        4,
        SimDuration::from_millis(25),
    );
    cold_run(&mut cluster, w.span_bytes(), &mut w)
}

/// Formats MB/s with one decimal.
pub fn mbps(x: f64) -> String {
    format!("{x:.1}")
}

/// Formats a percentage with one decimal.
pub fn pct(x: f64) -> String {
    format!("{x:.1}%")
}

#[cfg(test)]
mod tests {
    use super::*;
    use ibridge_workloads::MpiIoTest;

    #[test]
    fn build_variants_run() {
        let scale = Scale {
            stream_bytes: 4 << 20,
            ..Scale::quick()
        };
        for system in [System::Stock, System::IBridge, System::SsdOnly] {
            let make = || MpiIoTest::sized(IoDir::Write, FILE_A, 4, 65 * 1024, scale.stream_bytes);
            let cfg = scale.cluster(4);
            let stats = measure(system, cfg, IoDir::Write, make().span_bytes(), make);
            assert!(stats.throughput_mbps() > 0.0, "{system:?}");
        }
    }

    #[test]
    fn ibridge_reads_run_warm() {
        let scale = Scale {
            stream_bytes: 4 << 20,
            ..Scale::quick()
        };
        let make = || MpiIoTest::sized(IoDir::Read, FILE_A, 4, 65 * 1024, 4 << 20);
        let hits = |system| {
            let stats = measure(system, scale.cluster(4), IoDir::Read, 8 << 20, make);
            stats
                .servers
                .iter()
                .map(|s| s.policy.read_hits)
                .sum::<u64>()
        };
        assert!(hits(System::IBridge) > 0, "warm run must hit the cache");
        assert_eq!(hits(System::Stock), 0);
    }
}
