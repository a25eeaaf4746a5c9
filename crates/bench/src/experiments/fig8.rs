//! Fig. 8: the `ior-mpi-io` benchmark — per-process chunks accessed
//! concurrently, i.e. random access from the file system's perspective.

use crate::runpar::par_map;
use crate::{mbps, measure, pct, Scale, System, Table, FILE_A};
use ibridge_device::IoDir;
use ibridge_pvfs::RunStats;
use ibridge_workloads::IorMpiIo;

const KB: u64 = 1024;

fn cell(scale: &Scale, dir: IoDir, size: u64, system: System) -> RunStats {
    let make = || IorMpiIo::sized(dir, FILE_A, 64, size, scale.stream_bytes);
    measure(system, scale.cluster(8), dir, make().span_bytes(), make)
}

/// Runs Fig. 8(a) writes and 8(b) reads across request sizes.
pub fn run(scale: &Scale) -> String {
    let sizes = [33 * KB, 64 * KB, 65 * KB, 129 * KB];
    let mut out = String::new();
    for (dir, label, paper) in [
        (
            IoDir::Write,
            "Fig 8(a) — ior-mpi-io WRITE throughput (MB/s), 64 procs",
            "paper: iBridge improves writes by 169% on average (SSD-to-disk \
             writeback is highly sequential); 19%/10%/4% of data served by \
             SSD at 33/65/129 KB",
        ),
        (
            IoDir::Read,
            "Fig 8(b) — ior-mpi-io READ throughput (MB/s), 64 procs (iBridge warm)",
            "paper: reads improve 48% on average; even at 129 KB (4% SSD \
             data) improvements reach 35%",
        ),
    ] {
        let mut t = Table::new(
            label,
            &["size", "stock", "iBridge", "improvement", "ssd-bytes"],
        );
        let jobs: Vec<(u64, System)> = sizes
            .iter()
            .flat_map(|&size| [(size, System::Stock), (size, System::IBridge)])
            .collect();
        let results = par_map(jobs, |(size, system)| cell(scale, dir, size, system));
        for (idx, &size) in sizes.iter().enumerate() {
            let (stock, ib) = (&results[2 * idx], &results[2 * idx + 1]);
            let s = stock.throughput_mbps();
            let i = ib.throughput_mbps();
            t.row(&[
                format!("{}KB", size / KB),
                mbps(s),
                mbps(i),
                format!("{:+.0}%", (i - s) / s * 100.0),
                pct(ib.ssd_served_fraction() * 100.0),
            ]);
        }
        out += &t.block();
        out += &format!("{paper}\n\n");
    }
    out
}
