//! **iBridge** — the paper's primary contribution.
//!
//! iBridge bridges the efficiency gap between serving large sub-requests
//! and serving the small *fragments* that unaligned parallel file access
//! produces, by serving the fragments from a small SSD at each data
//! server. The scheme (Zhang, Liu, Davis & Jiang, IPDPS 2013) consists
//! of:
//!
//! * client-side fragment identification (implemented in
//!   `ibridge_pvfs::layout`, enabled with the cluster's
//!   `flag_fragments`);
//! * the per-server disk-efficiency model and return values of
//!   Eqs. (1)–(3) ([`model`]);
//! * the circular, log-structured SSD space manager ([`log`]);
//! * the mapping table with per-class LRU ([`table`]);
//! * dynamic SSD partitioning between fragments and regular random
//!   requests ([`partition`]);
//! * the server-side policy tying it all together ([`policy`]), plugged
//!   into the PVFS2-style data server via `ibridge_pvfs::CachePolicy`.
//!
//! # Building an iBridge cluster
//!
//! ```
//! use ibridge_core::{IBridgeConfig, IBridgePolicy};
//! use ibridge_pvfs::{Cluster, ClusterConfig, ServerConfig};
//!
//! let cfg = ClusterConfig {
//!     flag_fragments: true,
//!     server: ServerConfig { with_cache_dev: true, ..Default::default() },
//!     ..Default::default()
//! };
//! let cluster = Cluster::new(cfg, |server_id| {
//!     Box::new(IBridgePolicy::new(IBridgeConfig::paper_defaults(server_id)))
//! });
//! # let _ = cluster;
//! ```

pub mod log;
pub mod model;
pub mod partition;
pub mod policy;
pub mod record;
pub mod seglog;
pub mod table;

pub use log::{AppendError, CircularLog};
pub use model::{fragment_return, DiskTimeModel};
pub use partition::PartitionMode;
pub use policy::{IBridgeConfig, IBridgePolicy, PersistentState};
pub use record::{LogRecord, RecordVerdict, SealedRecord};
pub use seglog::{Checkpoint, SegmentedLog};
pub use table::{Entry, EntryType, MappingTable};

use ibridge_pvfs::{Cluster, ClusterConfig, ServerConfig};

/// Convenience: a paper-testbed cluster (8 servers, 64 KB stripes) with
/// iBridge enabled on every server, `ssd_capacity` bytes of SSD each.
pub fn ibridge_cluster(cfg: ClusterConfig, ssd_capacity: u64) -> Cluster {
    ibridge_cluster_with(cfg, |server_id| {
        IBridgeConfig::with_capacity(server_id, ssd_capacity)
    })
}

/// An iBridge cluster whose server `id` runs the policy settings
/// `make(id)`: fragment flagging on, a cache device on every server, and
/// each policy modelling the disk its server has (`cfg.server.disk`).
pub fn ibridge_cluster_with(
    mut cfg: ClusterConfig,
    make: impl Fn(usize) -> IBridgeConfig,
) -> Cluster {
    cfg.flag_fragments = true;
    cfg.server.with_cache_dev = true;
    let disk = cfg.server.disk.clone();
    Cluster::new(cfg, move |server_id| {
        let mut c = make(server_id);
        c.disk = disk.clone();
        Box::new(IBridgePolicy::new(c))
    })
}

/// Convenience: the stock cluster (no SSDs, no flagging).
pub fn stock_cluster(mut cfg: ClusterConfig) -> Cluster {
    cfg.flag_fragments = false;
    cfg.server.with_cache_dev = false;
    Cluster::new(cfg, |_| Box::new(ibridge_pvfs::StockPolicy::new()))
}

/// Convenience: the "SSD-only" cluster of Fig. 10 — the datafiles live
/// on the SSDs, no iBridge.
pub fn ssd_only_cluster(mut cfg: ClusterConfig) -> Cluster {
    cfg.flag_fragments = false;
    cfg.server = ServerConfig {
        primary_is_ssd: true,
        with_cache_dev: false,
        ..cfg.server
    };
    Cluster::new(cfg, |_| Box::new(ibridge_pvfs::StockPolicy::new()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ibridge_device::IoDir;
    use ibridge_localfs::FileHandle;
    use ibridge_pvfs::workload::SequentialWorkload;

    const KB: u64 = 1024;
    const F: FileHandle = FileHandle(1);

    fn workload(dir: IoDir, size: u64, procs: usize, iters: u64) -> SequentialWorkload {
        SequentialWorkload {
            dir,
            file: F,
            procs,
            size,
            iters,
            shift: 0,
            use_barrier: false,
        }
    }

    fn cfg() -> ClusterConfig {
        ClusterConfig::default()
    }

    #[test]
    fn ibridge_cluster_serves_unaligned_writes_faster_than_stock() {
        let size = 65 * KB;
        let procs = 16;
        let iters = 64;
        let total = size * procs as u64 * iters + (1 << 20);

        let mut stock = stock_cluster(cfg());
        stock.preallocate(F, total);
        let s = stock.run(&mut workload(IoDir::Write, size, procs, iters));

        let mut ib = ibridge_cluster(cfg(), 10 << 30);
        ib.preallocate(F, total);
        let i = ib.run(&mut workload(IoDir::Write, size, procs, iters));

        assert!(
            i.throughput_mbps() > s.throughput_mbps() * 1.3,
            "iBridge {:.1} MB/s vs stock {:.1} MB/s",
            i.throughput_mbps(),
            s.throughput_mbps()
        );
        // Fragments were actually redirected.
        let redirected: u64 = i.servers.iter().map(|x| x.policy.redirected_writes).sum();
        assert!(redirected > 0, "no fragments redirected");
        // All dirty data was drained.
        for srv in &i.servers {
            assert_eq!(srv.policy.dirty_bytes, 0, "drain left dirty data");
        }
    }

    #[test]
    fn ibridge_matches_stock_on_aligned_access() {
        let size = 64 * KB;
        let procs = 8;
        let iters = 32;
        let total = size * procs as u64 * iters + (1 << 20);

        let mut stock = stock_cluster(cfg());
        stock.preallocate(F, total);
        let s = stock.run(&mut workload(IoDir::Read, size, procs, iters));

        let mut ib = ibridge_cluster(cfg(), 10 << 30);
        ib.preallocate(F, total);
        let i = ib.run(&mut workload(IoDir::Read, size, procs, iters));

        // "When the offset is 0KB all requests are aligned and iBridge
        // does not redirect requests to the SSDs, so iBridge has the
        // same throughput as the stock system."
        let ratio = i.throughput_mbps() / s.throughput_mbps();
        assert!(ratio > 0.95 && ratio < 1.05, "ratio {ratio}");
        assert_eq!(i.ssd_served_fraction(), 0.0);
    }

    #[test]
    fn warm_cache_accelerates_unaligned_reads() {
        let size = 65 * KB;
        let procs = 8;
        let iters = 32;
        let total = size * procs as u64 * iters + (1 << 20);

        let mut ib = ibridge_cluster(cfg(), 10 << 30);
        ib.preallocate(F, total);
        let cold = ib.run(&mut workload(IoDir::Read, size, procs, iters));
        let warm = ib.run(&mut workload(IoDir::Read, size, procs, iters));

        let hits: u64 = warm.servers.iter().map(|s| s.policy.read_hits).sum();
        assert!(hits > 0, "second run must hit the pre-loaded fragments");
        assert!(
            warm.throughput_mbps() > cold.throughput_mbps(),
            "warm {:.1} vs cold {:.1}",
            warm.throughput_mbps(),
            cold.throughput_mbps()
        );
    }

    #[test]
    fn ssd_only_cluster_runs() {
        let mut c = ssd_only_cluster(cfg());
        c.preallocate(F, 8 << 20);
        let stats = c.run(&mut workload(IoDir::Write, 2 * KB, 4, 16));
        assert_eq!(stats.requests, 64);
    }

    #[test]
    fn small_random_writes_all_go_to_ssd() {
        // BTIO-style: every request below the threshold → Random class →
        // served by the SSDs ("all write requests are served by the SSDs").
        let mut ib = ibridge_cluster(cfg(), 10 << 30);
        let stats = ib.run(&mut workload(IoDir::Write, 2 * KB, 8, 32));
        let frac = stats.ssd_served_fraction();
        assert!(frac > 0.9, "ssd fraction {frac}");
    }

    #[test]
    fn drain_time_is_accounted_in_elapsed() {
        let mut ib = ibridge_cluster(cfg(), 10 << 30);
        let stats = ib.run(&mut workload(IoDir::Write, 2 * KB, 4, 8));
        assert!(stats.elapsed >= stats.client_elapsed);
    }
}
