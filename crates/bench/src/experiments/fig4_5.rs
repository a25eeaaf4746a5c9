//! Figs. 4 and 5: mpi-io-test with iBridge.

use crate::experiments::fig2::render_hist;
use crate::runpar::par_map;
use crate::{mbps, measure, pct, Scale, System, Table, FILE_A};
use ibridge_device::IoDir;
use ibridge_pvfs::RunStats;
use ibridge_workloads::MpiIoTest;

const KB: u64 = 1024;

/// One mpi-io-test configuration of the Fig. 4 x-axis.
#[derive(Debug, Clone, Copy)]
struct Config {
    label: &'static str,
    size: u64,
    shift: u64,
}

const CONFIGS: [Config; 6] = [
    Config {
        label: "33KB",
        size: 33 * KB,
        shift: 0,
    },
    Config {
        label: "65KB",
        size: 65 * KB,
        shift: 0,
    },
    Config {
        label: "129KB",
        size: 129 * KB,
        shift: 0,
    },
    Config {
        label: "64KB+0",
        size: 64 * KB,
        shift: 0,
    },
    Config {
        label: "64KB+1K",
        size: 64 * KB,
        shift: KB,
    },
    Config {
        label: "64KB+10K",
        size: 64 * KB,
        shift: 10 * KB,
    },
];

fn cell(scale: &Scale, dir: IoDir, c: Config, system: System) -> RunStats {
    let make = || MpiIoTest::sized(dir, FILE_A, 64, c.size, scale.stream_bytes).with_shift(c.shift);
    measure(system, scale.cluster(8), dir, make().span_bytes(), make)
}

/// Fig. 4(a,b): stock vs iBridge across sizes and offsets, 64 procs.
pub fn fig4(scale: &Scale) -> String {
    let mut out = String::new();
    for (dir, label, paper) in [
        (
            IoDir::Write,
            "Fig 4(a) — mpi-io-test WRITE throughput (MB/s), 64 procs",
            "paper: iBridge improves 33/65/129KB writes by 105/183/171%; \
             aligned ref 167 MB/s; SSD serves 19/10/4% of data",
        ),
        (
            IoDir::Read,
            "Fig 4(b) — mpi-io-test READ throughput (MB/s), 64 procs (iBridge warm)",
            "paper: reads show the same trend; stock loses 40% at non-zero offsets",
        ),
    ] {
        let mut t = Table::new(
            label,
            &["config", "stock", "iBridge", "improvement", "ssd-bytes"],
        );
        // One job per (config, system) pair; rows pair them back up.
        let jobs: Vec<(Config, System)> = CONFIGS
            .into_iter()
            .flat_map(|c| [(c, System::Stock), (c, System::IBridge)])
            .collect();
        let results = par_map(jobs, |(c, system)| cell(scale, dir, c, system));
        for (idx, c) in CONFIGS.into_iter().enumerate() {
            let (stock, ib) = (&results[2 * idx], &results[2 * idx + 1]);
            let s = stock.throughput_mbps();
            let i = ib.throughput_mbps();
            t.row(&[
                c.label.to_string(),
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

/// Fig. 5: block-level dispatch sizes with iBridge for 64 KB + 10 KB
/// offset reads (compare with the stock distribution of Fig. 2(e)).
pub fn fig5(scale: &Scale) -> String {
    let c = Config {
        label: "64KB+10K",
        size: 64 * KB,
        shift: 10 * KB,
    };
    let stats = cell(scale, IoDir::Read, c, System::IBridge);
    let mut out = render_hist(
        "Fig 5 — dispatch sizes with iBridge, 64 KB + 10 KB offset reads \
         (paper: 128- and 256-sector requests predominate)",
        &stats.combined_read_hist(),
        8,
    );
    let below = stats.combined_read_hist().fraction_below(108);
    out += &format!(
        "share of dispatches below 108 sectors (the 54 KB piece size): {:.0}%\n\n",
        below * 100.0
    );
    out
}
