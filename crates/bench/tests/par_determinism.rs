//! Host-parallelism must not change any simulated result: every cluster
//! run lives in its own virtual time, so `--jobs N` may only change the
//! wall clock. These tests run the same job matrix at different worker
//! counts and require *identical* outputs — not approximately equal.

use ibridge_bench::runpar::par_map_jobs;
use ibridge_bench::{experiments, measure, Scale, System, FILE_A};
use ibridge_device::IoDir;
use ibridge_workloads::MpiIoTest;

const KB: u64 = 1024;

fn small_scale(seed: u64) -> Scale {
    Scale {
        stream_bytes: 16 << 20,
        seed,
        ..Scale::quick()
    }
}

fn matrix() -> Vec<(u64, System, u64)> {
    let mut jobs = Vec::new();
    for seed in [42u64, 7, 19] {
        for system in [System::Stock, System::IBridge] {
            for size in [64 * KB, 65 * KB] {
                jobs.push((seed, system, size));
            }
        }
    }
    jobs
}

fn run_job((seed, system, size): (u64, System, u64)) -> (u64, u64, u64) {
    let scale = small_scale(seed);
    let make = || MpiIoTest::sized(IoDir::Write, FILE_A, 16, size, scale.stream_bytes);
    let cfg = scale.cluster(4);
    let stats = measure(system, cfg, IoDir::Write, make().span_bytes(), make);
    // Exact integer fields: bytes moved, elapsed virtual nanoseconds,
    // events dispatched. Any scheduling leak between host threads would
    // perturb at least one of them.
    (
        stats.bytes,
        stats.elapsed.as_nanos(),
        stats.events_dispatched,
    )
}

#[test]
fn multi_seed_throughputs_identical_across_worker_counts() {
    let baseline = par_map_jobs(1, matrix(), run_job);
    for workers in [2, 8] {
        let par = par_map_jobs(workers, matrix(), run_job);
        assert_eq!(par, baseline, "workers={workers} changed simulated results");
    }
}

#[test]
fn rendered_experiment_is_byte_identical_across_worker_counts() {
    // Render a full experiment (its internal par_map uses the shared
    // token pool) at two budgets; the text must match byte for byte.
    // Runs in its own test binary, so set_jobs cannot race other tests.
    let scale = small_scale(42);
    ibridge_bench::runpar::set_jobs(1);
    let seq = experiments::fig2::fig2a(&scale);
    ibridge_bench::runpar::set_jobs(8);
    let par = experiments::fig2::fig2a(&scale);
    ibridge_bench::runpar::set_jobs(1);
    assert_eq!(seq, par, "fig2a output must not depend on --jobs");
}
