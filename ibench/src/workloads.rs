//! The four named workloads: how each cluster is built, which files it
//! preallocates and which generator drives one pass.
//!
//! Clusters are assembled here with `Cluster::new`, repeating what
//! `ibridge_core::ibridge_cluster` and `stock_cluster` configure, rather
//! than through the experiment harness's `build*` helpers: a later edit to the
//! harness cannot change what this benchmark measures.

use ibridge_core::{IBridgeConfig, IBridgePolicy};
use ibridge_des::SimDuration;
use ibridge_device::IoDir;
use ibridge_localfs::FileHandle;
use ibridge_pvfs::{
    CachePolicy, Cluster, ClusterConfig, ServerConfig, StockPolicy, WorkItem, Workload,
};
use ibridge_workloads::{Btio, CombinedWorkload, MpiIoTest};

const KB: u64 = 1024;
const MB: u64 = 1 << 20;
const FILE_A: FileHandle = FileHandle(1);
const FILE_B: FileHandle = FileHandle(2);
/// Per-datafile page-cache budget, as in the experiments' quick scale.
const PAGE_CACHE: u64 = 512 * KB;
pub const SERVERS: usize = 8;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    BtioSmallSsd,
    StockStream,
    IbridgeWarmRead,
    HeteroPdes,
}

impl Kind {
    pub const ALL: [Kind; 4] = [
        Kind::BtioSmallSsd,
        Kind::StockStream,
        Kind::IbridgeWarmRead,
        Kind::HeteroPdes,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::BtioSmallSsd => "btio-small-ssd",
            Kind::StockStream => "stock-stream",
            Kind::IbridgeWarmRead => "ibridge-warm-read",
            Kind::HeteroPdes => "hetero-pdes",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Timed passes whose simulated results are reported. They always
    /// run, so the `sim_*` metrics do not depend on how many passes the
    /// host fits into the budget. Stock streaming needs the most: whole
    /// passes tip into CFQ stall episodes or not, so its latency tail
    /// is an average over many of them.
    pub fn sim_passes(self) -> usize {
        match self {
            Kind::BtioSmallSsd => 8,
            Kind::StockStream => 320,
            Kind::IbridgeWarmRead => 40,
            Kind::HeteroPdes => 24,
        }
    }

    /// Whether the servers run the iBridge policy (else the stock one).
    pub fn ibridge(self) -> bool {
        self != Kind::StockStream
    }
}

/// One workload at one size, seed and engine setting.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub kind: Kind,
    pub seed: u64,
    /// Divides every data size; 1 is the benchmark size, larger values
    /// give the quick versions that `ibench check` and the tests run.
    pub shrink: u64,
    /// PDES worker threads (only hetero-pdes has more than one LP).
    pub threads: usize,
    /// Online invariant-auditor cadence, if armed.
    pub audit: Option<SimDuration>,
}

impl Spec {
    pub fn new(kind: Kind, seed: u64) -> Self {
        Spec {
            kind,
            seed,
            shrink: 1,
            threads: if kind == Kind::HeteroPdes { 2 } else { 1 },
            audit: None,
        }
    }

    /// Bytes of BTIO data (btio-small-ssd, hetero-pdes).
    fn btio_bytes(&self) -> u64 {
        match self.kind {
            Kind::HeteroPdes => 12 * MB / self.shrink,
            _ => 48 * MB / self.shrink,
        }
    }

    /// Bytes of mpi-io-test data per direction.
    fn stream_bytes(&self) -> u64 {
        match self.kind {
            Kind::StockStream => 256 * MB / self.shrink,
            Kind::IbridgeWarmRead => 1024 * MB / self.shrink,
            _ => 32 * MB / self.shrink,
        }
    }

    /// Per-server SSD capacity of the iBridge workloads.
    fn ssd_capacity(&self) -> u64 {
        match self.kind {
            // Fig. 11's "1GB-equiv" point: the SSDs hold 15 % of the data.
            Kind::BtioSmallSsd => (self.btio_bytes() as f64 * 0.15) as u64 / SERVERS as u64,
            // Fig. 12 keeps the paper's 8 GB : 17 GB cache-to-data ratio.
            Kind::HeteroPdes => {
                let data = self.stream_bytes() + self.btio_bytes();
                (data as f64 * 8.0 / 17.0) as u64 / SERVERS as u64
            }
            Kind::IbridgeWarmRead | Kind::StockStream => 10 << 30,
        }
    }

    fn config(&self) -> ClusterConfig {
        let hetero = self.kind == Kind::HeteroPdes;
        ClusterConfig {
            n_servers: SERVERS,
            seed: self.seed,
            shards: if hetero { 2 } else { 1 },
            threads: self.threads,
            mds_replicas: if hetero { 3 } else { 1 },
            audit_interval: self.audit,
            flag_fragments: self.kind.ibridge(),
            server: ServerConfig {
                with_cache_dev: self.kind.ibridge(),
                ra_budget: PAGE_CACHE,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    /// Builds the cluster; `wrap` may decorate each server's policy.
    pub fn build(
        &self,
        wrap: &dyn Fn(usize, Box<dyn CachePolicy>) -> Box<dyn CachePolicy>,
    ) -> Cluster {
        let cfg = self.config();
        let disk = cfg.server.disk.clone();
        let capacity = self.ssd_capacity();
        let ibridge = self.kind.ibridge();
        Cluster::new(cfg, move |id| {
            let policy: Box<dyn CachePolicy> = if ibridge {
                let mut c = IBridgeConfig::with_capacity(id, capacity);
                c.disk = disk.clone();
                Box::new(IBridgePolicy::new(c))
            } else {
                Box::new(StockPolicy::new())
            };
            wrap(id, policy)
        })
    }

    /// Preallocates every file the generator touches.
    pub fn preallocate(&self, cluster: &mut Cluster) {
        match self.kind {
            Kind::BtioSmallSsd => cluster.preallocate(FILE_A, self.btio().span_bytes() + MB),
            Kind::StockStream | Kind::IbridgeWarmRead => {
                cluster.preallocate(FILE_A, self.stream(IoDir::Read).span_bytes() + MB)
            }
            Kind::HeteroPdes => {
                cluster.preallocate(FILE_A, self.stream(IoDir::Write).span_bytes() + MB);
                cluster.preallocate(FILE_B, self.btio_on(FILE_B, 8).span_bytes() + MB);
            }
        }
    }

    fn btio(&self) -> Btio {
        self.btio_on(FILE_A, 16)
    }

    fn btio_on(&self, file: FileHandle, steps: u64) -> Btio {
        Btio::new(
            file,
            64,
            self.btio_bytes(),
            steps,
            SimDuration::from_millis(20),
        )
    }

    fn stream(&self, dir: IoDir) -> MpiIoTest {
        MpiIoTest::sized(dir, FILE_A, 64, 65 * KB, self.stream_bytes())
    }

    /// A fresh generator for one pass. The load is closed-loop: each
    /// simulated process issues its next request when the last one
    /// completed.
    pub fn generator(&self) -> Box<dyn Workload> {
        match self.kind {
            Kind::BtioSmallSsd => Box::new(self.btio()),
            Kind::StockStream => Box::new(Phased {
                first: self.stream(IoDir::Write),
                then: self.stream(IoDir::Read),
            }),
            Kind::IbridgeWarmRead => Box::new(self.stream(IoDir::Read)),
            Kind::HeteroPdes => Box::new(CombinedWorkload::new(
                self.stream(IoDir::Write),
                self.btio_on(FILE_B, 8),
            )),
        }
    }
}

/// Runs `first` to completion in every process, then `then`: the write
/// half and the read-back half of one stock-stream pass.
struct Phased {
    first: MpiIoTest,
    then: MpiIoTest,
}

impl Workload for Phased {
    fn procs(&self) -> usize {
        self.first.procs
    }

    fn next(&mut self, proc: usize, iter: u64) -> Option<WorkItem> {
        if iter < self.first.iters {
            self.first.next(proc, iter)
        } else {
            self.then.next(proc, iter - self.first.iters)
        }
    }
}
