//! Unit tests of the cluster.

use super::*;
use crate::policy::StockPolicy;
use crate::workload::SequentialWorkload;
use ibridge_device::IoDir;

fn small_cluster(n_servers: usize) -> Cluster {
    let cfg = ClusterConfig {
        n_servers,
        ..Default::default()
    };
    Cluster::new(cfg, |_| Box::new(StockPolicy::new()))
}

/// A small cluster with the online auditor armed, so a run also
/// fails on an in-flight record left over at its end.
fn audited_cluster(n_servers: usize) -> Cluster {
    let cfg = ClusterConfig {
        n_servers,
        audit_interval: Some(SimDuration::from_millis(1)),
        ..Default::default()
    };
    Cluster::new(cfg, |_| Box::new(StockPolicy::new()))
}

fn seq(dir: IoDir, procs: usize, size: u64, iters: u64) -> SequentialWorkload {
    SequentialWorkload {
        dir,
        file: FileHandle(1),
        procs,
        size,
        iters,
        shift: 0,
        use_barrier: false,
    }
}

#[test]
fn write_workload_completes_and_counts_bytes() {
    let mut c = small_cluster(4);
    let mut w = seq(IoDir::Write, 4, 65536, 8);
    let stats = c.run(&mut w);
    assert_eq!(stats.requests, 32);
    assert_eq!(stats.bytes, 32 * 65536);
    assert!(stats.elapsed > SimDuration::ZERO);
    assert!(stats.throughput_mbps() > 0.0);
    let written: u64 = stats.servers.iter().map(|s| s.primary.bytes_written).sum();
    assert_eq!(written, 32 * 65536);
}

#[test]
fn read_workload_requires_preallocation_and_completes() {
    let mut c = small_cluster(4);
    c.preallocate(FileHandle(1), 4 << 20);
    let mut w = seq(IoDir::Read, 2, 65536, 8);
    let stats = c.run(&mut w);
    assert_eq!(stats.requests, 16);
    let read: u64 = stats.servers.iter().map(|s| s.primary.bytes_read).sum();
    assert_eq!(read, 16 * 65536);
    assert!(stats.latency_ms.mean().unwrap() > 0.0);
}

#[test]
fn aligned_reads_hit_one_server_each() {
    let mut c = small_cluster(8);
    c.preallocate(FileHandle(1), 8 << 20);
    // One proc, 64 KB aligned requests: each should touch exactly one
    // server; with 8 iterations all 8 servers see one request.
    let mut w = seq(IoDir::Read, 1, 65536, 8);
    let stats = c.run(&mut w);
    for s in &stats.servers {
        assert_eq!(s.primary.bytes_read, 65536, "round-robin distribution");
    }
}

#[test]
fn unaligned_reads_split_across_servers() {
    let mut c = small_cluster(8);
    c.preallocate(FileHandle(1), 16 << 20);
    let mut w = seq(IoDir::Read, 1, 65 * 1024, 8);
    let stats = c.run(&mut w);
    // 65 KB requests are served by two servers each; total bytes conserved.
    let read: u64 = stats.servers.iter().map(|s| s.primary.bytes_read).sum();
    assert!(read >= 8 * 65 * 1024, "sector rounding can only add bytes");
    assert!(read < 8 * 66 * 1024);
}

#[test]
fn deterministic_across_identical_runs() {
    let run = || {
        let mut c = small_cluster(8);
        c.preallocate(FileHandle(1), 16 << 20);
        let mut w = seq(IoDir::Read, 4, 65 * 1024, 8);
        format!("{:?}", c.run(&mut w))
    };
    assert_eq!(run(), run());
}

#[test]
fn barrier_synchronises_iterations() {
    let mut c = small_cluster(4);
    c.preallocate(FileHandle(1), 8 << 20);
    let mut w = seq(IoDir::Read, 4, 65536, 4);
    w.use_barrier = true;
    let stats = c.run(&mut w);
    assert_eq!(stats.requests, 16);
    // With barriers the run cannot be faster than without.
    let mut c2 = small_cluster(4);
    c2.preallocate(FileHandle(1), 8 << 20);
    let mut w2 = seq(IoDir::Read, 4, 65536, 4);
    let stats2 = c2.run(&mut w2);
    assert!(stats.elapsed >= stats2.elapsed);
}

#[test]
fn rerun_continues_from_existing_state() {
    let mut c = small_cluster(2);
    c.preallocate(FileHandle(1), 4 << 20);
    let mut w = seq(IoDir::Read, 1, 65536, 4);
    let first = c.run(&mut w);
    let mut w2 = seq(IoDir::Read, 1, 65536, 4);
    let second = c.run(&mut w2);
    assert_eq!(first.requests, second.requests);
    assert!(second.elapsed > SimDuration::ZERO);
}

#[test]
fn think_time_delays_execution() {
    #[derive(Debug)]
    struct Thinker {
        left: u64,
    }
    impl Workload for Thinker {
        fn procs(&self) -> usize {
            1
        }
        fn next(&mut self, _proc: usize, _iter: u64) -> Option<crate::workload::WorkItem> {
            if self.left == 0 {
                return None;
            }
            self.left -= 1;
            Some(crate::workload::WorkItem {
                req: FileRequest {
                    dir: IoDir::Write,
                    file: FileHandle(1),
                    offset: (4 - self.left) * 4096,
                    len: 4096,
                },
                think: SimDuration::from_millis(50),
            })
        }
    }
    let mut c = small_cluster(1);
    let stats = c.run(&mut Thinker { left: 4 });
    assert!(stats.elapsed >= SimDuration::from_millis(200));
    assert_eq!(stats.think_time, SimDuration::from_millis(200));
    assert!(stats.io_time > SimDuration::ZERO);
}

#[test]
fn single_server_cluster_works() {
    let mut c = small_cluster(1);
    c.preallocate(FileHandle(1), 2 << 20);
    let mut w = seq(IoDir::Read, 2, 65536, 4);
    let stats = c.run(&mut w);
    assert_eq!(stats.requests, 8);
}

#[test]
fn heterogeneous_constructor_applies_per_server_configs() {
    let cfg = ClusterConfig {
        n_servers: 2,
        ..Default::default()
    };
    let c = Cluster::heterogeneous(
        cfg,
        |id| {
            let mut s = crate::server::ServerConfig::default();
            if id == 0 {
                s.primary_is_ssd = true;
            }
            s
        },
        |_| Box::new(StockPolicy::new()),
    );
    use ibridge_iosched::StorageDev;
    assert!(matches!(
        c.server(0).primary().storage(),
        StorageDev::Ssd(_)
    ));
    assert!(matches!(
        c.server(1).primary().storage(),
        StorageDev::Disk(_)
    ));
}

#[test]
fn latency_histogram_matches_request_count() {
    let mut c = small_cluster(4);
    c.preallocate(FileHandle(1), 8 << 20);
    let mut w = seq(IoDir::Read, 4, 65536, 8);
    let stats = c.run(&mut w);
    assert_eq!(stats.latency_hist_ms.total(), stats.requests);
    // Quantiles are ordered.
    let p50 = stats.latency_hist_ms.quantile(0.5).unwrap();
    let p99 = stats.latency_hist_ms.quantile(0.99).unwrap();
    assert!(p50 <= p99);
}

#[test]
fn proc_accounting_sums_to_totals() {
    let mut c = small_cluster(4);
    c.preallocate(FileHandle(1), 8 << 20);
    let mut w = seq(IoDir::Read, 4, 65536, 8);
    let stats = c.run(&mut w);
    assert_eq!(stats.proc_bytes.iter().sum::<u64>(), stats.bytes);
    assert_eq!(stats.proc_bytes.len(), 4);
    assert!(stats
        .proc_done
        .iter()
        .all(|&d| d > SimDuration::ZERO && d <= stats.client_elapsed));
    // Group throughput over all procs ≥ aggregate client throughput
    // (the group finishes when the slowest proc does).
    let g = stats.group_throughput_mbps(0..4);
    assert!((g - stats.client_throughput_mbps()).abs() < 1e-6);
}

#[test]
fn page_cache_hits_short_circuit_repeated_reads() {
    let mut c = small_cluster(2);
    c.preallocate(FileHandle(1), 4 << 20);
    // The same proc reads the same range twice in a row.
    #[derive(Debug)]
    struct Rereader {
        left: u64,
    }
    impl Workload for Rereader {
        fn procs(&self) -> usize {
            1
        }
        fn next(&mut self, _p: usize, _i: u64) -> Option<crate::workload::WorkItem> {
            if self.left == 0 {
                return None;
            }
            self.left -= 1;
            Some(crate::workload::WorkItem {
                req: FileRequest {
                    dir: IoDir::Read,
                    file: FileHandle(1),
                    offset: 0,
                    len: 262144,
                },
                think: SimDuration::ZERO,
            })
        }
    }
    let stats = c.run(&mut Rereader { left: 4 });
    // 4 requests x 2 sub-requests: the first pair misses and
    // populates; the remaining 3 repeats hit on both servers.
    let hits: u64 = stats.servers.iter().map(|s| s.ra_hits).sum();
    assert_eq!(hits, 6, "repeats must hit the page cache");
}

#[test]
fn faultless_plan_is_byte_identical_to_no_plan() {
    let run = |armed: bool| {
        let mut c = small_cluster(4);
        if armed {
            // Retry-only plans inject nothing and must arm nothing.
            let plan = FaultPlan::parse("retry timeout=10ms max=3").unwrap();
            c.set_fault_plan(&plan);
        }
        c.preallocate(FileHandle(1), 8 << 20);
        let mut w = seq(IoDir::Read, 4, 65536, 8);
        let s = c.run(&mut w);
        assert!(s.faults.is_zero());
        (s.elapsed, s.events_dispatched, s.bytes, s.requests)
    };
    assert_eq!(run(false), run(true));
}

#[test]
fn crash_and_restart_mid_run_completes_via_retries() {
    let mut c = audited_cluster(2);
    let plan =
        FaultPlan::parse("retry timeout=5ms backoff=2 max=12\ncrash server=1 at=2ms restart=20ms")
            .unwrap();
    c.set_fault_plan(&plan);
    c.preallocate(FileHandle(1), 8 << 20);
    let mut w = seq(IoDir::Read, 2, 65536, 16);
    let stats = c.run(&mut w);
    assert_eq!(stats.requests, 32);
    // Every request completed exactly once despite the crash.
    assert_eq!(stats.latency_hist_ms.total(), stats.requests);
    assert_eq!(stats.faults.crashes, 1);
    assert_eq!(stats.faults.restarts, 1);
    assert!(stats.faults.timeouts > 0, "crash must cost timeouts");
    assert!(stats.faults.retries > 0, "retries must recover the run");
    assert!(stats.faults.degraded > SimDuration::ZERO);
}

#[test]
fn fail_slow_window_slows_the_run() {
    let elapsed = |plan: Option<&str>| {
        let mut c = small_cluster(2);
        if let Some(text) = plan {
            c.set_fault_plan(&FaultPlan::parse(text).unwrap());
        }
        c.preallocate(FileHandle(1), 8 << 20);
        let mut w = seq(IoDir::Read, 2, 65536, 16);
        c.run(&mut w)
    };
    let healthy = elapsed(None);
    let slowed = elapsed(Some(
        "fail-slow server=0 dev=primary from=0ms until=60s factor=20",
    ));
    assert_eq!(slowed.faults.slow_windows, 1);
    assert!(slowed.faults.degraded > SimDuration::ZERO);
    assert!(
        slowed.elapsed > healthy.elapsed,
        "a 20x slower disk must lengthen the run: {:?} vs {:?}",
        slowed.elapsed,
        healthy.elapsed
    );
}

#[test]
fn net_impairments_are_recovered_by_retries() {
    let mut c = audited_cluster(2);
    let plan = FaultPlan::parse(
        "retry timeout=5ms backoff=2 max=20\nnet from=0ms until=60s drop=0.2 dup=0.1",
    )
    .unwrap();
    c.set_fault_plan(&plan);
    c.preallocate(FileHandle(1), 8 << 20);
    let mut w = seq(IoDir::Read, 2, 65536, 16);
    let stats = c.run(&mut w);
    assert_eq!(stats.requests, 32);
    assert_eq!(stats.latency_hist_ms.total(), stats.requests);
    assert!(stats.faults.dropped_messages > 0);
    assert!(stats.faults.duplicated_messages > 0);
    assert!(stats.faults.retries > 0);
}

#[test]
fn faulty_runs_are_deterministic() {
    let run = || {
        let mut c = small_cluster(2);
        let plan = FaultPlan::parse(
            "retry timeout=5ms backoff=2 max=12\n\
             crash server=1 at=2ms restart=20ms\n\
             net from=0ms until=60s drop=0.1 delay=0.1 delay-by=2ms dup=0.05",
        )
        .unwrap();
        c.set_fault_plan(&plan);
        c.preallocate(FileHandle(1), 8 << 20);
        let mut w = seq(IoDir::Read, 2, 65536, 16);
        let s = c.run(&mut w);
        (s.elapsed, s.events_dispatched, s.faults)
    };
    let a = run();
    assert_eq!(a, run());
    assert!(!a.2.is_zero());
}

#[test]
fn dispatch_histograms_populated() {
    let mut c = small_cluster(4);
    c.preallocate(FileHandle(1), 8 << 20);
    let mut w = seq(IoDir::Read, 4, 65536, 8);
    let stats = c.run(&mut w);
    let h = stats.combined_read_hist();
    assert!(h.total() > 0);
    // All dispatches are at least one sector and at most the merge cap.
    for (k, _) in h.iter() {
        assert!((1..=256).contains(&k));
    }
}

#[test]
fn steer_off_during_a_single_mds_outage_is_stalled() {
    // An SSD loss steers the lost cache off through the MDS. While the
    // MDS is down the steer-off is not applied but counted as stalled
    // (a stock cluster sends no T reports that could stall too).
    let run = |plan: &str| {
        let cfg = ClusterConfig {
            n_servers: 2,
            ..Default::default()
        };
        let mut c = Cluster::heterogeneous(
            cfg,
            |_| crate::server::ServerConfig {
                with_cache_dev: true,
                ..Default::default()
            },
            |_| Box::new(StockPolicy::new()),
        );
        c.set_fault_plan(&FaultPlan::parse(plan).unwrap());
        c.preallocate(FileHandle(1), 8 << 20);
        c.run(&mut seq(IoDir::Read, 2, 65536, 16)).faults
    };
    let up = run("ssd-loss server=0 at=2ms");
    assert_eq!((up.ssd_losses, up.stalled_broadcasts), (1, 0));
    let down = run("mds-crash at=1ms restart=60s\nssd-loss server=0 at=2ms");
    assert_eq!((down.ssd_losses, down.mds_crashes), (1, 1));
    assert_eq!(down.stalled_broadcasts, 1, "{down:?}");
}
