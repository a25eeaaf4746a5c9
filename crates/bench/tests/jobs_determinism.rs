//! Running cluster jobs on a worker pool must not change any simulated
//! result, down to the last bit of every statistic. Event order is keyed
//! by `(time, source node, per-node sequence)` — intrinsic to the
//! simulated system — and every run owns its calendar, so `--jobs N` may
//! only change the wall clock. These tests run a seeds × systems matrix
//! and fault plans at `--jobs 1` and `--jobs 8` and require *identical*
//! outputs — not approximately equal.
//!
//! The fingerprint is the full `Debug` rendering of `RunStats`: Rust's
//! `f64` Debug format is shortest-roundtrip, so two renderings are equal
//! iff every float is bit-identical.

use ibridge_bench::runpar::par_map_jobs;
use ibridge_bench::{checkpoint_probe, measure, Scale, System, FILE_A};
use ibridge_core::IBridgeConfig;
use ibridge_device::IoDir;
use ibridge_faults::{builtin, FaultPlan};
use ibridge_workloads::MpiIoTest;

const KB: u64 = 1024;

fn scale_with(seed: u64) -> Scale {
    Scale {
        stream_bytes: 16 << 20,
        seed,
        ..Scale::quick()
    }
}

/// One cell of the matrix: a full-stats fingerprint of an 8-server run.
fn run_cell((seed, system, size): (u64, System, u64)) -> String {
    let scale = scale_with(seed);
    let make = || MpiIoTest::sized(IoDir::Write, FILE_A, 16, size, scale.stream_bytes);
    let cfg = scale.cluster(8);
    let stats = measure(system, cfg, IoDir::Write, make().span_bytes(), make);
    format!("{stats:?}")
}

#[test]
fn multi_seed_stats_identical_across_jobs_levels() {
    let mut cells = Vec::new();
    for seed in [42u64, 7, 1234] {
        for system in [System::Stock, System::IBridge] {
            for size in [64 * KB, 65 * KB] {
                cells.push((seed, system, size));
            }
        }
    }
    let seq = par_map_jobs(1, cells.clone(), run_cell);
    let par = par_map_jobs(8, cells, run_cell);
    assert_eq!(seq, par, "--jobs changed simulated results");
}

/// The fault probe from the `faults` experiment: a checkpoint workload
/// long enough (hundreds of virtual milliseconds) that the builtin
/// plans' fault windows land mid-run.
fn fault_cell((plan_text, seed): (&str, u64)) -> String {
    let plan = FaultPlan::parse(plan_text).expect("parses");
    let stats = checkpoint_probe(&scale_with(seed), &plan, IBridgeConfig::paper_defaults);
    assert!(
        stats.faults.crashes > 0 || stats.faults.dropped_messages > 0,
        "no fault landed — probe too short to exercise fault delivery"
    );
    format!("{stats:?}")
}

#[test]
fn fault_plans_identical_across_jobs_levels() {
    // "crash" kills and restarts a server (crash teardown, drain kicks
    // and restart recovery); "net" drops, delays and duplicates messages
    // on the client↔server links; the combined plan runs both at once
    // so a crash lands while impaired replies are still in flight.
    let crash = builtin("crash").expect("builtin");
    let net = builtin("net").expect("builtin");
    let combined = "retry timeout=60ms backoff=2 max=10\n\
         crash server=1 at=120ms restart=80ms\n\
         net from=40ms until=400ms drop=0.05 delay=0.10 delay-by=3ms dup=0.03\n";
    let cells: Vec<(&str, u64)> = [crash, net, combined]
        .into_iter()
        .flat_map(|plan| [(plan, 42u64), (plan, 7)])
        .collect();
    let seq = par_map_jobs(1, cells.clone(), fault_cell);
    let par = par_map_jobs(8, cells, fault_cell);
    assert_eq!(seq, par, "--jobs changed a faulty run");
}
