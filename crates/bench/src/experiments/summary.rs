//! Multi-seed summary of the headline comparisons: every number is the
//! mean ± sample standard deviation over several seeds, so the
//! improvement factors reported elsewhere can be trusted not to be
//! single-seed flukes.

use crate::runpar::par_map;
use crate::{measure, Scale, System, Table, FILE_A};
use ibridge_device::IoDir;
use ibridge_workloads::MpiIoTest;

const KB: u64 = 1024;
const SEEDS: [u64; 5] = [42, 7, 19, 101, 2026];

fn mean_sd(xs: &[f64]) -> (f64, f64) {
    let n = xs.len() as f64;
    let mean = xs.iter().sum::<f64>() / n;
    let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0).max(1.0);
    (mean, var.sqrt())
}

fn fmt(xs: &[f64]) -> String {
    let (m, sd) = mean_sd(xs);
    format!("{m:.1} ± {sd:.1}")
}

/// One headline configuration of the summary table.
#[derive(Debug, Clone, Copy)]
struct Row {
    label: &'static str,
    dir: IoDir,
    size: u64,
    shift: u64,
}

const ROWS: [Row; 4] = [
    Row {
        label: "aligned 64KB write",
        dir: IoDir::Write,
        size: 64 * KB,
        shift: 0,
    },
    Row {
        label: "65KB write",
        dir: IoDir::Write,
        size: 65 * KB,
        shift: 0,
    },
    Row {
        label: "65KB read (warm)",
        dir: IoDir::Read,
        size: 65 * KB,
        shift: 0,
    },
    Row {
        label: "64KB+10KB write",
        dir: IoDir::Write,
        size: 64 * KB,
        shift: 10 * KB,
    },
];

fn throughput(scale: &Scale, row: Row, system: System, seed: u64) -> f64 {
    let make = || {
        MpiIoTest::sized(row.dir, FILE_A, 64, row.size, scale.stream_bytes / 2)
            .with_shift(row.shift)
    };
    let mut cfg = scale.cluster(8);
    cfg.seed = seed;
    measure(system, cfg, row.dir, make().span_bytes(), make).throughput_mbps()
}

/// Runs the headline rows across 5 seeds — one job per
/// (row, system, seed) cluster simulation.
pub fn run(scale: &Scale) -> String {
    let mut t = Table::new(
        format!(
            "Summary — mean ± sd over {} seeds (mpi-io-test, 64 procs, MB/s)",
            SEEDS.len()
        ),
        &["config", "stock", "iBridge", "improvement"],
    );
    let jobs: Vec<(Row, System, u64)> = ROWS
        .into_iter()
        .flat_map(|row| {
            [System::Stock, System::IBridge]
                .into_iter()
                .flat_map(move |system| SEEDS.iter().map(move |&seed| (row, system, seed)))
        })
        .collect();
    let thpts = par_map(jobs, |(row, system, seed)| {
        throughput(scale, row, system, seed)
    });
    let n = SEEDS.len();
    for (idx, row) in ROWS.into_iter().enumerate() {
        let base = idx * 2 * n;
        let stock = &thpts[base..base + n];
        let ib = &thpts[base + n..base + 2 * n];
        let (ms, _) = mean_sd(stock);
        let (mi, _) = mean_sd(ib);
        t.row(&[
            row.label.to_string(),
            fmt(stock),
            fmt(ib),
            format!("{:+.0}%", (mi - ms) / ms * 100.0),
        ]);
    }
    format!(
        "{}seed variation comes from client jitter and workload randomness; \
         standard deviations well below the improvement margins mean the \
         comparisons are stable.\n\n",
        t.block()
    )
}
