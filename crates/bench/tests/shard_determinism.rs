//! Sharding the cluster into logical processes must not change any
//! simulated result. Event order under `ibridge_des::pdes` is keyed by
//! `(time, source node, per-node sequence)` — intrinsic to the simulated
//! system, not to the LP grouping — so `--shards N` may only change how
//! the calendar is stored, never what it dispatches. These tests run
//! the same job matrix at shard counts 1/2/8 (and across `--jobs`
//! levels, and under cross-LP fault plans) and require *identical*
//! outputs — not approximately equal.
//!
//! The fingerprint is the full `Debug` rendering of `RunStats`: Rust's
//! `f64` Debug format is shortest-roundtrip, so two renderings are equal
//! iff every float is bit-identical.

use ibridge_bench::runpar::par_map_jobs;
use ibridge_bench::{build, run_once, Scale, System, FILE_A};
use ibridge_des::SimDuration;
use ibridge_device::IoDir;
use ibridge_faults::{builtin, FaultPlan};
use ibridge_workloads::{CheckpointWorkload, MpiIoTest};

const KB: u64 = 1024;
const SHARD_COUNTS: [usize; 3] = [1, 2, 8];

fn scale_with(seed: u64, shards: usize) -> Scale {
    Scale {
        stream_bytes: 16 << 20,
        seed,
        shards,
        ..Scale::quick()
    }
}

/// One cell of the matrix: a full-stats fingerprint of a run at the
/// given shard count. 8 servers so `--shards 8` really builds 8 LPs (4
/// would silently clamp).
fn run_cell((seed, system, size, shards): (u64, System, u64, usize)) -> String {
    let scale = scale_with(seed, shards);
    let mut w = MpiIoTest::sized(IoDir::Write, FILE_A, 16, size, scale.stream_bytes);
    let span = w.span_bytes();
    let stats = run_once(system, 8, &scale, span, &mut w);
    format!("{stats:?}")
}

fn matrix(shards: usize) -> Vec<(u64, System, u64, usize)> {
    let mut jobs = Vec::new();
    for seed in [42u64, 7, 1234] {
        for system in [System::Stock, System::IBridge] {
            for size in [64 * KB, 65 * KB] {
                jobs.push((seed, system, size, shards));
            }
        }
    }
    jobs
}

#[test]
fn multi_seed_stats_identical_across_shard_counts() {
    let baseline: Vec<String> = matrix(1).into_iter().map(run_cell).collect();
    for shards in [2, 8] {
        let cell: Vec<String> = matrix(shards).into_iter().map(run_cell).collect();
        assert_eq!(cell, baseline, "shards={shards} changed simulated results");
    }
}

#[test]
fn shard_identity_holds_at_any_jobs_level() {
    // The full shards × seeds × systems matrix through the worker pool
    // at two budgets: neither axis may perturb the other.
    let all: Vec<(u64, System, u64, usize)> =
        SHARD_COUNTS.iter().flat_map(|&s| matrix(s)).collect();
    let seq = par_map_jobs(1, all.clone(), run_cell);
    let par = par_map_jobs(8, all, run_cell);
    assert_eq!(seq, par, "--jobs changed results on a sharded cluster");
    // And within each jobs level, the shard axis itself must collapse:
    // every shard-count block equals the first block (shards=1).
    let per_block = seq.len() / SHARD_COUNTS.len();
    for (b, shards) in SHARD_COUNTS.iter().enumerate().skip(1) {
        assert_eq!(
            seq[b * per_block..(b + 1) * per_block],
            seq[..per_block],
            "shards={shards} diverged from shards=1"
        );
    }
}

/// The fault probe from the `faults` experiment: a checkpoint workload
/// long enough (hundreds of virtual milliseconds) that the builtin
/// plans' fault windows land mid-run.
fn fault_cell(plan_text: &str, seed: u64, shards: usize) -> String {
    let plan = FaultPlan::parse(plan_text).expect("parses");
    let scale = scale_with(seed, shards);
    let mut cluster = build(System::IBridge, 4, &scale);
    let mut w = CheckpointWorkload::new(
        FILE_A,
        4,
        1 << 20,
        60 * 1024,
        4,
        SimDuration::from_millis(25),
    );
    cluster.preallocate(FILE_A, w.span_bytes() + (1 << 20));
    cluster.set_fault_plan(&plan);
    let stats = cluster.run(&mut w);
    assert!(
        stats.faults.crashes > 0 || stats.faults.dropped_messages > 0,
        "no fault landed — probe too short to exercise cross-LP fault delivery"
    );
    format!("{stats:?}")
}

/// The replicated-MDS probe: the `mds-ha` experiment's shape (4-server
/// iBridge, 5 ms T-report cadence, 3-replica group) under a failover
/// plan, so elections, log replication, leader-crash fencing and the
/// broadcast fan-out all run while the matrix varies the shard count.
fn mds_cell((plan_text, seed, shards): (&str, u64, usize)) -> String {
    let plan = FaultPlan::parse(plan_text).expect("parses");
    let scale = scale_with(seed, shards);
    let cfg = ibridge_pvfs::ClusterConfig {
        n_servers: 4,
        seed: scale.seed,
        shards: scale.shards,
        mds_replicas: 3,
        report_interval: SimDuration::from_millis(5),
        ..Default::default()
    };
    let mut cluster = ibridge_core::ibridge_cluster(cfg, scale.ssd_capacity);
    let mut w = CheckpointWorkload::new(
        FILE_A,
        4,
        1 << 20,
        60 * 1024,
        10,
        SimDuration::from_millis(25),
    );
    cluster.preallocate(FILE_A, w.span_bytes() + (1 << 20));
    cluster.set_fault_plan(&plan);
    let stats = cluster.run(&mut w);
    assert!(
        stats.faults.mds_elections >= 2 && stats.faults.mds_crashes == 1,
        "failover did not land — probe too short: {:?}",
        stats.faults
    );
    format!("{stats:?}")
}

#[test]
fn replicated_mds_identical_across_shard_and_jobs_levels() {
    let failover = builtin("mds-failover").expect("builtin");
    let partition = builtin("mds-partition").expect("builtin");
    for plan in [failover, partition] {
        let baseline = mds_cell((plan, 42, 1));
        let cells = vec![(plan, 42u64, 1usize), (plan, 42, 4)];
        // Across shard counts through the worker pool at two budgets:
        // neither sharding nor `--jobs` may perturb the replicated run.
        let seq = par_map_jobs(1, cells.clone(), mds_cell);
        let par = par_map_jobs(8, cells, mds_cell);
        assert_eq!(
            seq, par,
            "--jobs changed a replicated-MDS run\nplan:\n{plan}"
        );
        for (i, cell) in seq.iter().enumerate() {
            assert_eq!(
                cell, &baseline,
                "grid point {i} diverged from shards=1\nplan:\n{plan}"
            );
        }
    }
}

#[test]
fn fault_plans_identical_across_shard_counts() {
    // "crash" kills and restarts a server (crash teardown, drain kicks
    // and restart recovery all cross the LP boundary); "net" drops,
    // delays and duplicates messages on the client↔server links (every
    // impairment draw rides a cross-LP hop); the combined plan runs
    // both at once so a crash lands while impaired replies are still in
    // flight. All must be byte-stable at any shard count.
    let crash = builtin("crash").expect("builtin");
    let net = builtin("net").expect("builtin");
    let combined = "retry timeout=60ms backoff=2 max=10\n\
         crash server=1 at=120ms restart=80ms\n\
         net from=40ms until=400ms drop=0.05 delay=0.10 delay-by=3ms dup=0.03\n";
    for plan in [crash, net, combined] {
        for seed in [42u64, 7] {
            let baseline = fault_cell(plan, seed, 1);
            for shards in [2, 8] {
                assert_eq!(
                    fault_cell(plan, seed, shards),
                    baseline,
                    "seed={seed} shards={shards} diverged\nplan:\n{plan}"
                );
            }
        }
    }
}
