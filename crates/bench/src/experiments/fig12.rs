//! Fig. 12: heterogeneous workloads — `mpi-io-test` (fragments) and
//! `BTIO` (regular random requests) sharing the cluster, under static
//! 1:1 / 1:2 and dynamic SSD partitioning.

use crate::runpar::par_map;
use crate::{build, mbps, Scale, System, Table, FILE_A, FILE_B};
use ibridge_core::{ibridge_cluster_with, IBridgeConfig, PartitionMode};
use ibridge_device::IoDir;
use ibridge_pvfs::Cluster;
use ibridge_workloads::{Btio, CombinedWorkload, MpiIoTest};

const KB: u64 = 1024;

fn run_one(scale: &Scale, cluster: &mut Cluster) -> (f64, f64, f64) {
    let mpi = MpiIoTest::sized(IoDir::Write, FILE_A, 64, 65 * KB, scale.stream_bytes / 2);
    let bt = Btio::new(
        FILE_B,
        64,
        scale.btio_bytes / 2,
        8,
        ibridge_des::SimDuration::from_millis(20),
    );
    cluster.preallocate(FILE_A, mpi.span_bytes() + (1 << 20));
    cluster.preallocate(FILE_B, bt.span_bytes() + (1 << 20));
    let mut w = CombinedWorkload::new(mpi, bt);
    let a = w.a_procs();
    let b = w.b_procs();
    let stats = cluster.run(&mut w);
    (
        stats.group_throughput_mbps(a),
        stats.group_throughput_mbps(b),
        stats.throughput_mbps(),
    )
}

/// Runs the four system variants of Fig. 12.
pub fn run(scale: &Scale) -> String {
    // The paper uses an 8 GB SSD cache against ~17 GB of combined data;
    // keep the same cache:data ratio at any scale so the partitions are
    // actually contended.
    let data = scale.stream_bytes / 2 + scale.btio_bytes / 2;
    let capacity = (data as f64 * 8.0 / 17.0) as u64 / 8;
    let variants: Vec<(String, Option<PartitionMode>)> = vec![
        ("stock (no SSD)".into(), None),
        (
            "iBridge static 1:1".into(),
            Some(PartitionMode::Static {
                fragment_fraction: 0.5,
            }),
        ),
        (
            "iBridge static 1:2".into(),
            Some(PartitionMode::Static {
                fragment_fraction: 2.0 / 3.0,
            }),
        ),
        ("iBridge dynamic".into(), Some(PartitionMode::Dynamic)),
    ];
    let mut t = Table::new(
        "Fig 12 — heterogeneous run: per-benchmark and aggregate throughput (MB/s)",
        &["system", "mpi-io-test", "BTIO", "aggregate"],
    );
    let results = par_map(variants, |(label, mode)| {
        let mut cluster = match mode {
            None => build(System::Stock, scale.cluster(8)),
            Some(partition) => ibridge_cluster_with(scale.cluster(8), |id| IBridgeConfig {
                partition,
                ..IBridgeConfig::with_capacity(id, capacity)
            }),
        };
        let (a, b, all) = run_one(scale, &mut cluster);
        (label, a, b, all)
    });
    for (label, a, b, all) in results {
        t.row(&[label, mbps(a), mbps(b), mbps(all)]);
    }
    format!(
        "{}paper: dynamic partitioning reaches 84 MB/s aggregate — 53% over \
         stock, and 13%/5% over the static 1:1/1:2 splits; BTIO gains the \
         most (its requests are the smallest).\n\n",
        t.block()
    )
}
