//! Fig. 3: the striping magnification effect.
//!
//! 16 processes synchronously issue constant-size requests that span
//! servers 0..k-1 (size k×64 KB) or additionally leave a 1 KB fragment
//! on server k (size k×64 KB + 1 KB). A second program concurrently
//! reads random 64 KB segments that live on server k, so the fragment
//! server is always contended. Throughput of the main program is
//! reported with and without fragments, each with and without a barrier
//! between iterations — the loss grows with k.

use crate::{mbps, Scale, System, Table, FILE_A, FILE_B};
use ibridge_des::rng::{stream_rng, streams};
use ibridge_des::SimDuration;
use ibridge_device::IoDir;
use ibridge_localfs::FileHandle;
use ibridge_pvfs::{FileRequest, WorkItem, Workload};
use ibridge_workloads::CombinedWorkload;
use rand::rngs::StdRng;
use rand::Rng;

const KB: u64 = 1024;
const SU: u64 = 64 * KB;

/// Main program: requests of `k*SU (+1 KB)` aligned to start on server 0
/// of a `k+1`-server cluster.
#[derive(Debug, Clone)]
struct SpanReqs {
    k: u64,
    fragment: bool,
    procs: usize,
    iters: u64,
    barrier: bool,
}

impl SpanReqs {
    fn len(&self) -> u64 {
        self.k * SU + if self.fragment { KB } else { 0 }
    }

    fn span_bytes(&self) -> u64 {
        // Requests are placed at strides of (k+1) units so each starts
        // on server 0.
        (self.iters * self.procs as u64) * (self.k + 1) * SU + SU
    }
}

impl Workload for SpanReqs {
    fn procs(&self) -> usize {
        self.procs
    }

    fn next(&mut self, proc: usize, iter: u64) -> Option<WorkItem> {
        if iter >= self.iters {
            return None;
        }
        let r = iter * self.procs as u64 + proc as u64;
        Some(WorkItem {
            req: FileRequest {
                dir: IoDir::Read,
                file: FILE_A,
                offset: r * (self.k + 1) * SU,
                len: self.len(),
            },
            think: SimDuration::ZERO,
        })
    }

    fn barrier(&self) -> bool {
        self.barrier
    }
}

/// Antagonist: random 64 KB reads of units owned by server `k`.
#[derive(Debug)]
struct RandomOnServerK {
    k: u64,
    procs: usize,
    iters: u64,
    units: u64,
    rng: StdRng,
    file: FileHandle,
}

impl Workload for RandomOnServerK {
    fn procs(&self) -> usize {
        self.procs
    }

    fn next(&mut self, _proc: usize, iter: u64) -> Option<WorkItem> {
        if iter >= self.iters {
            return None;
        }
        // Unit j*(k+1)+k lives on server k of a (k+1)-server layout.
        let j = self.rng.gen_range(0..self.units);
        Some(WorkItem {
            req: FileRequest {
                dir: IoDir::Read,
                file: self.file,
                offset: (j * (self.k + 1) + self.k) * SU,
                len: SU,
            },
            think: SimDuration::ZERO,
        })
    }
}

/// One point of the Fig. 3 grid: main-program throughput for a given
/// span count, barrier setting and fragment setting.
fn measure(scale: &Scale, k: u64, barrier: bool, fragment: bool) -> f64 {
    let iters = (scale.stream_bytes / 8 / (16 * k * SU)).clamp(8, 256);
    let main = SpanReqs {
        k,
        fragment,
        procs: 16,
        iters,
        barrier,
    };
    let span = main.span_bytes();
    let antagonist_units = span / ((k + 1) * SU);
    let antagonist = RandomOnServerK {
        k,
        procs: 4,
        iters: iters * 8,
        units: antagonist_units.max(1),
        rng: stream_rng(scale.seed, streams::WORKLOAD),
        file: FILE_B,
    };
    let mut combined = CombinedWorkload::new(main, antagonist);
    let mut cluster = crate::build(System::Stock, scale.cluster(k as usize + 1));
    cluster.preallocate(FILE_A, span + SU);
    cluster.preallocate(FILE_B, span + SU);
    let stats = cluster.run(&mut combined);
    // Throughput of the main program only.
    stats.group_throughput_mbps(combined.a_procs())
}

/// Runs the Fig. 3 grid.
pub fn run(scale: &Scale) -> String {
    let mut t = Table::new(
        "Fig 3 — main-program throughput (MB/s) vs servers serving non-fragment data",
        &[
            "k",
            "no-frag",
            "frag",
            "loss",
            "no-frag+barrier",
            "frag+barrier",
            "loss(barrier)",
        ],
    );
    let ks = [1u64, 2, 4, 8];
    let jobs: Vec<(u64, bool, bool)> = ks
        .iter()
        .flat_map(|&k| {
            [false, true]
                .into_iter()
                .flat_map(move |barrier| [(k, barrier, false), (k, barrier, true)])
        })
        .collect();
    let results = crate::par_map(jobs, |(k, barrier, fragment)| {
        measure(scale, k, barrier, fragment)
    });
    for (i, k) in ks.iter().enumerate() {
        let mut cells = vec![k.to_string()];
        for b in 0..2 {
            let pair = &results[i * 4 + b * 2..i * 4 + b * 2 + 2];
            let loss = (pair[0] - pair[1]) / pair[0] * 100.0;
            cells.push(mbps(pair[0]));
            cells.push(mbps(pair[1]));
            cells.push(format!("{loss:.0}%"));
        }
        t.row(&cells);
    }
    format!(
        "{}paper: throughput with fragments is consistently lower and the \
         relative loss grows with k (striping magnification); barriers \
         amplify the penalty of the slow fragment server.\n\n",
        t.block()
    )
}
