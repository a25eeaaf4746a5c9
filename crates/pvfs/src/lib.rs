//! A PVFS2-style striped parallel file system over a simulated cluster.
//!
//! The paper prototypes iBridge inside PVFS2 2.8.2 on an 8-data-server
//! Linux cluster. This crate rebuilds the pieces of that stack the
//! experiments exercise:
//!
//! * [`layout`] — round-robin file striping (64 KB default unit) and the
//!   client-side decomposition of requests into per-server sub-requests,
//!   including iBridge's fragment flagging (the instrumented
//!   `io_datafile_setup_msgpairs()`).
//! * [`proto`] — request/sub-request/reply message types and sizes.
//! * [`policy`] — the server-side cache-policy interface. The stock
//!   system is [`policy::StockPolicy`]; the full iBridge policy lives in
//!   the `ibridge-core` crate.
//! * [`server`] — the `pvfs2-server` daemon analogue: job management,
//!   local file system, disk behind CFQ, optional SSD cache behind Noop,
//!   cache admission and writeback plumbing.
//! * [`cluster`] — clients, network and servers wired onto one
//!   discrete-event calendar; runs a [`workload::Workload`] and reports
//!   throughput, latencies and device statistics.
//!
//! # Quick example
//!
//! ```
//! use ibridge_pvfs::{Cluster, ClusterConfig, StockPolicy};
//! use ibridge_pvfs::workload::SequentialWorkload;
//! use ibridge_localfs::FileHandle;
//! use ibridge_device::IoDir;
//!
//! let mut cluster = Cluster::new(
//!     ClusterConfig { n_servers: 4, ..Default::default() },
//!     |_| Box::new(StockPolicy::new()),
//! );
//! cluster.preallocate(FileHandle(1), 4 << 20);
//! let mut workload = SequentialWorkload {
//!     dir: IoDir::Read,
//!     file: FileHandle(1),
//!     procs: 2,
//!     size: 64 * 1024,
//!     iters: 4,
//!     shift: 0,
//!     use_barrier: false,
//! };
//! let stats = cluster.run(&mut workload);
//! assert_eq!(stats.requests, 8);
//! assert!(stats.throughput_mbps() > 0.0);
//! ```

pub mod cluster;
pub mod layout;
pub mod policy;
pub mod proto;
pub mod server;
pub mod workload;

pub use cluster::{
    total_events_dispatched, total_fault_counters, total_window_counters, Cluster, ClusterConfig,
    FaultTotals, RunStats, ServerRunStats,
};
pub use layout::Layout;
pub use policy::{
    BitRotTarget, CachePolicy, CacheStats, EntryId, FlushId, FlushOp, LogCorruption, MaintStats,
    Placement, RestartReport, StockPolicy,
};
pub use proto::{FileRequest, ReqClass, SubRequest};
pub use server::{DataServer, DevKind, DiskSched, JobId, ServerConfig};
pub use workload::{SequentialWorkload, WorkItem, Workload};
