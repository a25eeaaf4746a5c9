//! Fig. 13: the request-size threshold sweep — throughput vs SSD wear.

use crate::runpar::par_map;
use crate::{measure, Scale, System, Table, FILE_A};
use ibridge_device::IoDir;
use ibridge_workloads::MpiIoTest;

const KB: u64 = 1024;

/// Runs `mpi-io-test` (65 KB writes, 64 procs) with thresholds from
/// 10 KB to 40 KB; reports throughput normalised to the aligned-64 KB
/// stock reference and SSD usage normalised to the accessed data.
pub fn run(scale: &Scale) -> String {
    let thresholds = [10u64, 20, 30, 40];
    // Job 0 is the aligned reference (the paper normalises to 164 MB/s);
    // jobs 1.. are the threshold sweep.
    let jobs: Vec<Option<u64>> = std::iter::once(None)
        .chain(thresholds.iter().map(|&t| Some(t)))
        .collect();
    let results = par_map(jobs, |job| {
        let mut cfg = scale.cluster(8);
        let (system, size) = match job {
            None => (System::Stock, 64 * KB),
            Some(threshold) => {
                cfg.threshold = threshold * KB;
                (System::IBridge, 65 * KB)
            }
        };
        let make = || MpiIoTest::sized(IoDir::Write, FILE_A, 64, size, scale.stream_bytes);
        measure(system, cfg, IoDir::Write, make().span_bytes(), make)
    });
    let reference = results[0].throughput_mbps();

    let mut t = Table::new(
        "Fig 13 — threshold sweep, 65 KB writes, 64 procs",
        &[
            "threshold",
            "throughput(MB/s)",
            "normalized",
            "ssd-usage/accessed",
        ],
    );
    for (threshold, stats) in thresholds.iter().zip(&results[1..]) {
        let appended: u64 = stats.servers.iter().map(|s| s.policy.appended_bytes).sum();
        t.row(&[
            format!("{threshold}KB"),
            format!("{:.1}", stats.throughput_mbps()),
            format!("{:.2}", stats.throughput_mbps() / reference),
            format!("{:.0}%", appended as f64 * 100.0 / stats.bytes as f64),
        ]);
    }
    format!(
        "{}paper: throughput rises with the threshold (+56% at 40 KB over \
         10 KB) but SSD usage grows from 3% to 42% of the accessed data; \
         20 KB balances performance against SSD longevity.\n\n",
        t.block()
    )
}
