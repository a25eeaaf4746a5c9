//! Fig. 2: the stock system under unaligned access — throughputs and
//! block-level request-size distributions.

use crate::runpar::par_map;
use crate::{mbps, measure, Scale, System, Table, FILE_A};
use ibridge_des::stats::Histogram;
use ibridge_device::IoDir;
use ibridge_pvfs::RunStats;
use ibridge_workloads::MpiIoTest;

const KB: u64 = 1024;

fn procs_list(scale: &Scale) -> Vec<usize> {
    if scale.stream_bytes >= 1 << 30 {
        vec![16, 64, 128, 512]
    } else {
        vec![16, 64, 512]
    }
}

/// One stock run of mpi-io-test reads of `size` bytes shifted by
/// `shift`, `bytes` in all, on 8 servers.
fn stock_read(scale: &Scale, procs: usize, size: u64, shift: u64, bytes: u64) -> RunStats {
    let make = || MpiIoTest::sized(IoDir::Read, FILE_A, procs, size, bytes).with_shift(shift);
    measure(
        System::Stock,
        scale.cluster(8),
        IoDir::Read,
        make().span_bytes(),
        make,
    )
}

/// Fig. 2(a): reads of {64,65,74,84,94} KB across process counts
/// (Pattern II; 64 KB is the aligned Pattern I reference).
pub fn fig2a(scale: &Scale) -> String {
    let sizes = [64u64, 65, 74, 84, 94];
    let mut t = Table::new(
        "Fig 2(a) — stock read throughput (MB/s), Pattern II",
        &["procs", "64KB", "65KB", "74KB", "84KB", "94KB"],
    );
    let jobs: Vec<(usize, u64)> = procs_list(scale)
        .into_iter()
        .flat_map(|procs| sizes.iter().map(move |&size| (procs, size)))
        .collect();
    let cells = par_map(jobs, |(procs, size)| {
        let stats = stock_read(scale, procs, size * KB, 0, scale.stream_bytes);
        mbps(stats.throughput_mbps())
    });
    for (i, procs) in procs_list(scale).into_iter().enumerate() {
        let mut row = vec![procs.to_string()];
        row.extend_from_slice(&cells[i * sizes.len()..(i + 1) * sizes.len()]);
        t.row(&row);
    }
    format!(
        "{}paper: 16 procs: 64KB=159.6, 65KB=77.4 (-52%), 74KB=88.1 (-45%); \
         aligned falls to 116.2 at 512 procs.\n\n",
        t.block()
    )
}

/// Fig. 2(b): 64 KB reads with request offsets (Pattern III).
pub fn fig2b(scale: &Scale) -> String {
    let offsets = [0u64, 1, 10, 32];
    let mut t = Table::new(
        "Fig 2(b) — stock read throughput (MB/s), 64 KB requests with offset",
        &["procs", "+0KB", "+1KB", "+10KB", "+32KB"],
    );
    let jobs: Vec<(usize, u64)> = procs_list(scale)
        .into_iter()
        .flat_map(|procs| offsets.iter().map(move |&off| (procs, off)))
        .collect();
    let cells = par_map(jobs, |(procs, off)| {
        let stats = stock_read(scale, procs, 64 * KB, off * KB, scale.stream_bytes);
        mbps(stats.throughput_mbps())
    });
    for (i, procs) in procs_list(scale).into_iter().enumerate() {
        let mut row = vec![procs.to_string()];
        row.extend_from_slice(&cells[i * offsets.len()..(i + 1) * offsets.len()]);
        t.row(&row);
    }
    format!(
        "{}paper: 512 procs: +1KB −36% (159.6→102.1), +10KB −49% (→81.8); \
         +1KB hurts least (63 KB fragments are nearly full units).\n\n",
        t.block()
    )
}

/// Renders the `top` most frequent dispatch sizes of a histogram.
pub fn render_hist(title: &str, h: &Histogram, top: usize) -> String {
    let mut t = Table::new(title, &["sectors", "KB", "count", "share"]);
    for (sectors, count) in h.top_k(top) {
        t.row(&[
            sectors.to_string(),
            format!("{:.1}", sectors as f64 / 2.0),
            count.to_string(),
            format!("{:.1}%", count as f64 * 100.0 / h.total() as f64),
        ]);
    }
    t.block()
}

/// Fig. 2(c,d,e): block-level request size distributions (sector units)
/// for aligned 64 KB, 65 KB, and 64 KB + 10 KB-offset reads.
pub fn fig2cde(scale: &Scale) -> String {
    let runs = par_map(
        vec![(64 * KB, 0), (65 * KB, 0), (64 * KB, 10 * KB)],
        |(size, shift)| stock_read(scale, 16, size, shift, scale.stream_bytes / 2),
    );
    let (c, d, e) = (&runs[0], &runs[1], &runs[2]);
    let mut out = String::new();
    out += &render_hist(
        "Fig 2(c) — dispatch sizes, aligned 64 KB reads (paper: 72% at 128 sectors, 18% at 256)",
        &c.combined_read_hist(),
        8,
    );
    out += &render_hist(
        "Fig 2(d) — dispatch sizes, 65 KB reads (paper: mass shifts to small sizes)",
        &d.combined_read_hist(),
        8,
    );
    out += &render_hist(
        "Fig 2(e) — dispatch sizes, 64 KB + 10 KB offset (paper: modes at 80 and 176 sectors)",
        &e.combined_read_hist(),
        8,
    );
    let frac_small = |h: &Histogram| h.fraction_below(128);
    out += &format!(
        "share of dispatches below 128 sectors: aligned {:.0}%, 65KB {:.0}%, +10KB {:.0}%\n\n",
        frac_small(&c.combined_read_hist()) * 100.0,
        frac_small(&d.combined_read_hist()) * 100.0,
        frac_small(&e.combined_read_hist()) * 100.0,
    );
    out
}
