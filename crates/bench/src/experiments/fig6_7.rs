//! Figs. 6 and 7: scalability with process count and server count.

use crate::runpar::par_map;
use crate::{mbps, measure, Scale, System, Table, FILE_A};
use ibridge_device::IoDir;
use ibridge_workloads::MpiIoTest;

const KB: u64 = 1024;

fn throughput(
    scale: &Scale,
    system: System,
    dir: IoDir,
    n_servers: usize,
    procs: usize,
    size: u64,
) -> f64 {
    let make = || MpiIoTest::sized(dir, FILE_A, procs, size, scale.stream_bytes);
    let cfg = scale.cluster(n_servers);
    measure(system, cfg, dir, make().span_bytes(), make).throughput_mbps()
}

/// Fig. 6: 65 KB requests as the process count grows.
pub fn fig6(scale: &Scale) -> String {
    let procs_list = [16usize, 64, 128, 512];
    let mut out = String::new();
    for (dir, label) in [
        (
            IoDir::Write,
            "Fig 6 — WRITE throughput (MB/s), 65 KB requests",
        ),
        (
            IoDir::Read,
            "Fig 6 — READ throughput (MB/s), 65 KB requests (iBridge warm)",
        ),
    ] {
        let mut t = Table::new(label, &["procs", "stock", "iBridge", "improvement"]);
        let jobs: Vec<(System, usize)> = procs_list
            .iter()
            .flat_map(|&p| [(System::Stock, p), (System::IBridge, p)])
            .collect();
        let thpts = par_map(jobs, |(system, procs)| {
            throughput(scale, system, dir, 8, procs, 65 * KB)
        });
        for (idx, procs) in procs_list.iter().enumerate() {
            let (s, i) = (thpts[2 * idx], thpts[2 * idx + 1]);
            t.row(&[
                procs.to_string(),
                mbps(s),
                mbps(i),
                format!("{:+.0}%", (i - s) / s * 100.0),
            ]);
        }
        out += &t.block();
    }
    out += "paper: iBridge improves 65 KB access by 154% on average across \
         process counts; 512 procs is moderately slower for both systems.\n\n";
    out
}

/// Fig. 7(a,b): 64 procs as the data-server count grows; aligned 64 KB
/// stock is the reference.
pub fn fig7(scale: &Scale) -> String {
    let servers = [1usize, 2, 4, 8];
    let mut out = String::new();
    for (dir, label) in [
        (
            IoDir::Write,
            "Fig 7(a) — WRITE throughput (MB/s) vs server count, 64 procs",
        ),
        (
            IoDir::Read,
            "Fig 7(b) — READ throughput (MB/s) vs server count, 64 procs",
        ),
    ] {
        let mut t = Table::new(
            label,
            &[
                "servers",
                "stock-64KB(aligned)",
                "stock-65KB",
                "iBridge-65KB",
                "gap-closed",
            ],
        );
        let jobs: Vec<(System, usize, u64)> = servers
            .iter()
            .flat_map(|&n| {
                [
                    (System::Stock, n, 64 * KB),
                    (System::Stock, n, 65 * KB),
                    (System::IBridge, n, 65 * KB),
                ]
            })
            .collect();
        let thpts = par_map(jobs, |(system, n, size)| {
            throughput(scale, system, dir, n, 64, size)
        });
        for (idx, n) in servers.iter().enumerate() {
            let (aligned, s, i) = (thpts[3 * idx], thpts[3 * idx + 1], thpts[3 * idx + 2]);
            let gap = if aligned > s {
                (i - s) / (aligned - s) * 100.0
            } else {
                100.0
            };
            t.row(&[
                n.to_string(),
                mbps(aligned),
                mbps(s),
                mbps(i),
                format!("{gap:.0}%"),
            ]);
        }
        out += &t.block();
    }
    out += "paper: throughput grows with server count for all systems; the \
         aligned/unaligned gap widens with more servers and iBridge nearly \
         closes it, especially for writes.\n\n";
    out
}
