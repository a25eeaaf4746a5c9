//! Cross-crate integration tests: whole-cluster scenarios exercising the
//! public API end to end.

use ibridge_repro::prelude::*;

const KB: u64 = 1024;
const FILE: FileHandle = FileHandle(1);

fn small_stream(dir: IoDir, size: u64, procs: usize) -> MpiIoTest {
    MpiIoTest::sized(dir, FILE, procs, size, 24 << 20)
}

#[test]
fn byte_conservation_across_the_stack() {
    // Every client byte must be accounted for at the devices (reads) —
    // modulo sector rounding and readahead extension, which only add.
    let mut c = stock_cluster(ClusterConfig::default());
    c.preallocate(FILE, 48 << 20);
    let mut w = small_stream(IoDir::Read, 65 * KB, 8);
    let stats = c.run(&mut w);
    let device_read: u64 = stats.servers.iter().map(|s| s.primary.bytes_read).sum();
    let cache_hits: u64 = stats.servers.iter().map(|s| s.ra_bytes).sum();
    assert!(
        device_read + cache_hits >= stats.bytes,
        "devices+cache served less than requested: {} + {} < {}",
        device_read,
        cache_hits,
        stats.bytes
    );
}

#[test]
fn writes_eventually_reach_the_primary_device() {
    // With iBridge, redirected fragments live in the SSD until writeback;
    // after the drain, every client byte must exist on the primary
    // device (directly or via flush).
    let mut c = ibridge_cluster(ClusterConfig::default(), 10 << 30);
    c.preallocate(FILE, 48 << 20);
    let mut w = small_stream(IoDir::Write, 65 * KB, 8);
    let stats = c.run(&mut w);
    for (i, s) in stats.servers.iter().enumerate() {
        assert_eq!(s.policy.dirty_bytes, 0, "server {i} kept dirty data");
    }
    let disk_written: u64 = stats.servers.iter().map(|s| s.primary.bytes_written).sum();
    // Sector rounding and RMW can only add bytes.
    assert!(
        disk_written >= stats.bytes,
        "primary devices hold less than written: {disk_written} < {}",
        stats.bytes
    );
}

#[test]
fn full_run_is_deterministic() {
    let run = || {
        let mut c = ibridge_cluster(ClusterConfig::default(), 10 << 30);
        c.preallocate(FILE, 48 << 20);
        let mut w = small_stream(IoDir::Write, 65 * KB, 16);
        let stats = c.run(&mut w);
        (stats.elapsed, stats.bytes, stats.requests)
    };
    assert_eq!(run(), run());
}

#[test]
fn different_seeds_give_different_timings() {
    let run = |seed| {
        let mut c = ibridge_cluster(
            ClusterConfig {
                seed,
                ..Default::default()
            },
            10 << 30,
        );
        c.preallocate(FILE, 48 << 20);
        let mut w = small_stream(IoDir::Write, 65 * KB, 16);
        c.run(&mut w).elapsed
    };
    assert_ne!(run(1), run(2), "client jitter must depend on the seed");
}

#[test]
fn ibridge_never_loses_to_stock_on_the_paper_workloads() {
    // The headline property, checked across several request sizes for
    // writes: iBridge ≥ stock (strictly better when fragments exist).
    for size in [33 * KB, 64 * KB, 65 * KB] {
        let mut stock = stock_cluster(ClusterConfig::default());
        stock.preallocate(FILE, 48 << 20);
        let s = stock.run(&mut small_stream(IoDir::Write, size, 16));

        let mut ib = ibridge_cluster(ClusterConfig::default(), 10 << 30);
        ib.preallocate(FILE, 48 << 20);
        let i = ib.run(&mut small_stream(IoDir::Write, size, 16));

        let ratio = i.throughput_mbps() / s.throughput_mbps();
        assert!(ratio > 0.95, "size {size}: iBridge regressed ({ratio:.2}x)");
        if size % (64 * KB) != 0 {
            assert!(ratio > 1.1, "size {size}: no unaligned gain ({ratio:.2}x)");
        }
    }
}

#[test]
fn striping_magnification_is_visible() {
    // Larger spans (more servers per request) suffer more from an
    // injected fragment — relative loss grows with k.
    let loss_at = |k: u64| {
        let mut pair = Vec::new();
        for extra in [0u64, KB] {
            let cfg = ClusterConfig {
                n_servers: k as usize + 1,
                ..Default::default()
            };
            let mut c = stock_cluster(cfg);
            c.preallocate(FILE, 192 << 20);
            #[derive(Debug)]
            struct Spans {
                k: u64,
                extra: u64,
                iters: u64,
            }
            impl Workload for Spans {
                fn procs(&self) -> usize {
                    8
                }
                fn next(&mut self, proc: usize, iter: u64) -> Option<WorkItem> {
                    if iter >= self.iters {
                        return None;
                    }
                    let r = iter * 8 + proc as u64;
                    Some(WorkItem {
                        req: FileRequest {
                            dir: IoDir::Read,
                            file: FILE,
                            offset: r * (self.k + 1) * 64 * KB,
                            len: self.k * 64 * KB + self.extra,
                        },
                        think: SimDuration::ZERO,
                    })
                }
            }
            // Antagonist keeping server k busy with random unit reads,
            // as in the paper's Fig. 3 setup.
            #[derive(Debug)]
            struct Antagonist {
                k: u64,
                iters: u64,
            }
            impl Workload for Antagonist {
                fn procs(&self) -> usize {
                    2
                }
                fn next(&mut self, proc: usize, iter: u64) -> Option<WorkItem> {
                    if iter >= self.iters {
                        return None;
                    }
                    // A scattered unit owned by server k.
                    let j = (iter * 2 + proc as u64).wrapping_mul(40_503) % 128;
                    Some(WorkItem {
                        req: FileRequest {
                            dir: IoDir::Read,
                            file: FILE,
                            offset: (j * (self.k + 1) + self.k) * 64 * KB,
                            len: 64 * KB,
                        },
                        think: SimDuration::ZERO,
                    })
                }
            }
            let main = Spans {
                k,
                extra,
                iters: 24,
            };
            let mut combined = CombinedWorkload::new(main, Antagonist { k, iters: 96 });
            let range = combined.a_procs();
            let stats = c.run(&mut combined);
            pair.push(stats.group_throughput_mbps(range));
        }
        (pair[0] - pair[1]) / pair[0]
    };
    let small = loss_at(1);
    let large = loss_at(8);
    assert!(large > 0.0, "fragments must cost something");
    assert!(
        large > small,
        "magnification: loss at k=8 ({large:.2}) must exceed k=1 ({small:.2})"
    );
}

#[test]
fn heterogeneous_workloads_share_the_cluster() {
    let mpi = MpiIoTest::sized(IoDir::Write, FILE, 8, 65 * KB, 8 << 20);
    let bt = Btio::new(FileHandle(2), 8, 4 << 20, 4, SimDuration::from_millis(5));
    let mut combined = CombinedWorkload::new(mpi, bt);
    let a = combined.a_procs();
    let b = combined.b_procs();
    let mut c = ibridge_cluster(ClusterConfig::default(), 10 << 30);
    c.preallocate(FILE, 16 << 20);
    c.preallocate(FileHandle(2), 8 << 20);
    let stats = c.run(&mut combined);
    assert!(stats.group_throughput_mbps(a) > 0.0);
    assert!(stats.group_throughput_mbps(b) > 0.0);
    assert_eq!(stats.proc_bytes.len(), 16);
    assert!(stats.proc_done.iter().all(|&d| d > SimDuration::ZERO));
}

#[test]
fn trace_replay_round_trips_through_the_cluster() {
    let trace = Trace::synthesize(&AppProfile::cth(), 400, 64 << 20, 9);
    let mut c = ibridge_cluster(ClusterConfig::default(), 10 << 30);
    c.preallocate(FILE, 64 << 20);
    let mut w = TraceReplay::new(trace.clone(), FILE);
    let stats = c.run(&mut w);
    assert_eq!(stats.requests, trace.records.len() as u64);
    assert_eq!(stats.bytes, trace.bytes());
    assert!(stats.latency_ms.mean().unwrap() > 0.0);
}

#[test]
fn ssd_only_beats_disk_only_for_tiny_requests() {
    let run = |mut c: Cluster| {
        let mut w = Btio::new(FILE, 9, 2 << 20, 2, SimDuration::ZERO);
        c.preallocate(FILE, w.span_bytes() + (1 << 20));
        c.run(&mut w).elapsed
    };
    let disk = run(stock_cluster(ClusterConfig::default()));
    let ssd = run(ssd_only_cluster(ClusterConfig::default()));
    assert!(
        ssd.as_secs_f64() < disk.as_secs_f64() / 2.0,
        "ssd {ssd} vs disk {disk}"
    );
}

#[test]
fn zero_capacity_ibridge_degrades_to_stock() {
    let mut ib = ibridge_cluster(ClusterConfig::default(), 0);
    ib.preallocate(FILE, 48 << 20);
    let i = ib.run(&mut small_stream(IoDir::Write, 65 * KB, 8));
    assert_eq!(i.ssd_served_fraction(), 0.0);

    let mut stock = stock_cluster(ClusterConfig::default());
    stock.preallocate(FILE, 48 << 20);
    let s = stock.run(&mut small_stream(IoDir::Write, 65 * KB, 8));
    let ratio = i.throughput_mbps() / s.throughput_mbps();
    assert!((0.9..1.1).contains(&ratio), "ratio {ratio:.2}");
}
