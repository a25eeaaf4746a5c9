//! Ablations beyond the paper: what each design ingredient buys.

use crate::{build_ibridge_with, mbps, Scale, Table, FILE_A, SSD_CAPACITY};
use ibridge_core::IBridgeConfig;
use ibridge_device::IoDir;
use ibridge_pvfs::{Cluster, ClusterConfig, DiskSched, ServerConfig, StockPolicy};
use ibridge_workloads::MpiIoTest;

const KB: u64 = 1024;

fn stock_with(scale: &Scale, server: ServerConfig) -> Cluster {
    let cfg = ClusterConfig {
        seed: scale.seed,
        audit_interval: scale.audit_interval,
        server,
        ..Default::default()
    };
    Cluster::new(cfg, |_| Box::new(StockPolicy::new()))
}

fn stream_throughput(scale: &Scale, cluster: &mut Cluster, dir: IoDir, size: u64) -> f64 {
    let mut w = MpiIoTest::sized(dir, FILE_A, 64, size, scale.stream_bytes / 2);
    cluster.preallocate(FILE_A, w.span_bytes() + (1 << 20));
    cluster.run(&mut w).throughput_mbps()
}

fn schedulers(scale: &Scale) -> String {
    let mut t = Table::new(
        "Ablation — disk scheduler (stock, 64 procs)",
        &["scheduler", "aligned-64KB read", "65KB read", "65KB write"],
    );
    for (label, sched) in [
        ("CFQ (paper)", DiskSched::Cfq),
        ("Deadline", DiskSched::Deadline),
        ("Noop", DiskSched::Noop),
    ] {
        let server = ServerConfig {
            disk_sched: sched,
            ..Default::default()
        };
        let aligned = stream_throughput(
            scale,
            &mut stock_with(scale, server.clone()),
            IoDir::Read,
            64 * KB,
        );
        let unaligned_r = stream_throughput(
            scale,
            &mut stock_with(scale, server.clone()),
            IoDir::Read,
            65 * KB,
        );
        let unaligned_w =
            stream_throughput(scale, &mut stock_with(scale, server), IoDir::Write, 65 * KB);
        t.row(&[
            label.to_string(),
            mbps(aligned),
            mbps(unaligned_r),
            mbps(unaligned_w),
        ]);
    }
    format!(
        "{}unaligned access hurts under every scheduler — the fragmentation \
         is in the workload, not the elevator.\n\n",
        t.block()
    )
}

fn ncq(scale: &Scale) -> String {
    let mut t = Table::new(
        "Ablation — disk NCQ depth (stock, 65 KB reads, 64 procs)",
        &["depth", "throughput(MB/s)"],
    );
    for depth in [1usize, 4, 16] {
        let server = ServerConfig {
            ncq_depth: depth,
            ..Default::default()
        };
        let thpt = stream_throughput(scale, &mut stock_with(scale, server), IoDir::Read, 65 * KB);
        t.row(&[depth.to_string(), mbps(thpt)]);
    }
    format!(
        "{}device-side reordering recovers part of the unaligned penalty by \
         servicing co-queued pieces nearest-first.\n\n",
        t.block()
    )
}

/// Eq. (3) sibling boost on/off; CFQ anticipation on/off; scheduler and
/// NCQ-depth comparisons. Each ablation is an independent job; the
/// rendered blocks are concatenated in the fixed order below.
pub fn run(scale: &Scale) -> String {
    let parts: Vec<fn(&Scale) -> String> = vec![
        eq3,
        eq3_degraded,
        anticipation,
        schedulers,
        ncq,
        collective,
        sieving,
        read_only_cache,
        network,
    ];
    crate::par_map(parts, |f| f(scale)).concat()
}

/// Interconnect sensitivity: the paper's QDR InfiniBand vs slower
/// fabrics. Synchronous clients demand little per-link bandwidth, so the
/// experiments stay device-bound on every realistic network.
fn network(scale: &Scale) -> String {
    use ibridge_net::LinkConfig;
    let mut t = Table::new(
        "Ablation — interconnect (65 KB writes, 64 procs)",
        &["network", "stock", "iBridge", "improvement"],
    );
    let slow_lan = LinkConfig {
        bandwidth: 1.2e6, // 10 Mb/s-class
        latency: ibridge_des::SimDuration::from_micros(200),
        overhead: ibridge_des::SimDuration::from_micros(50),
    };
    for (label, link) in [
        ("QDR InfiniBand", LinkConfig::qdr_infiniband()),
        ("GigE", LinkConfig::gige()),
        ("slow LAN (10 Mb/s)", slow_lan),
    ] {
        let mut pair = Vec::new();
        for ibridge_on in [false, true] {
            let cfg = ClusterConfig {
                seed: scale.seed,
                audit_interval: scale.audit_interval,
                link: link.clone(),
                ..Default::default()
            };
            let mut cluster = if ibridge_on {
                ibridge_core::ibridge_cluster(cfg, SSD_CAPACITY)
            } else {
                ibridge_core::stock_cluster(cfg)
            };
            let mut w = MpiIoTest::sized(IoDir::Write, FILE_A, 64, 65 * KB, scale.stream_bytes / 2);
            cluster.preallocate(FILE_A, w.span_bytes() + (1 << 20));
            pair.push(cluster.run(&mut w).throughput_mbps());
        }
        t.row(&[
            label.to_string(),
            mbps(pair[0]),
            mbps(pair[1]),
            format!("{:+.0}%", (pair[1] - pair[0]) / pair[0] * 100.0),
        ]);
    }
    format!(
        "{}at 64 synchronous processes even a 10 Mb/s per-client link stays \
         under the per-process demand (~0.4 MB/s), so the workload remains \
         device-bound and iBridge's gain is network-insensitive — which is \
         why the paper never needed to characterise its fabric.\n\n",
        t.block()
    )
}

/// Data sieving (ROMIO's client-side fix for strided pieces) vs iBridge.
fn sieving(scale: &Scale) -> String {
    use ibridge_workloads::StridedAccess;
    let mut t = Table::new(
        "Ablation — data sieving vs iBridge (strided 2 KB pieces, 32 procs)",
        &["approach", "useful MB/s", "bytes moved/useful"],
    );
    let base = StridedAccess {
        dir: IoDir::Read,
        file: FILE_A,
        procs: 32,
        pieces: 8,
        piece: 2 * KB,
        stride: 16 * KB,
        iters: (scale.stream_bytes / 64 / (32 * 8 * 16 * KB)).max(4),
        sieve: false,
    };
    let configs = [
        ("stock, per-piece", crate::System::Stock, false),
        ("stock + data sieving", crate::System::Stock, true),
        ("iBridge, per-piece (warm)", crate::System::IBridge, false),
    ];
    for (label, system, sieve) in configs {
        let w = StridedAccess {
            sieve,
            ..base.clone()
        };
        let useful = w.useful_bytes_per_iter() * w.iters * w.procs as u64;
        let stats = crate::measure(system, 8, scale, w.dir, w.span_bytes(), || w.clone());
        t.row(&[
            label.to_string(),
            mbps(useful as f64 / stats.elapsed.as_secs_f64() / 1e6),
            format!("{:.1}x", stats.bytes as f64 / useful as f64),
        ]);
    }
    format!(
        "{}sieving trades wasted transfer (8x here) for far fewer ops; \
         iBridge attacks the same pieces server-side without moving extra \
         bytes.\n\n",
        t.block()
    )
}

/// Eq. (3) under server skew: one degraded disk (4× slower seeks, half
/// the media rate) — the bottleneck scenario the boost was designed for.
fn eq3_degraded(scale: &Scale) -> String {
    use ibridge_core::IBridgePolicy;
    use ibridge_device::DiskProfile;
    let degraded = || {
        let base = DiskProfile::hp_mm0500();
        DiskProfile {
            min_seek: base.min_seek * 4,
            max_seek: base.max_seek * 4,
            sectors_per_track: base.sectors_per_track / 2,
            ..base
        }
    };
    let mut t = Table::new(
        "Ablation — Eq. (3) with one degraded server (65 KB writes, 64 procs)",
        &["variant", "throughput(MB/s)", "p99-ish latency(ms)"],
    );
    for (label, eq3_on) in [("with Eq.3", true), ("without Eq.3", false)] {
        let cfg = ClusterConfig {
            seed: scale.seed,
            audit_interval: scale.audit_interval,
            flag_fragments: true,
            server: ServerConfig {
                with_cache_dev: true,
                ..Default::default()
            },
            ..Default::default()
        };
        let base_server = cfg.server.clone();
        let mut cluster = ibridge_pvfs::Cluster::heterogeneous(
            cfg,
            move |id| {
                let mut s = base_server.clone();
                if id == 0 {
                    s.disk = degraded();
                }
                s
            },
            move |id| {
                let mut c = IBridgeConfig::paper_defaults(id);
                c.eq3 = eq3_on;
                if id == 0 {
                    c.disk = degraded();
                }
                Box::new(IBridgePolicy::new(c))
            },
        );
        let mut w = MpiIoTest::sized(IoDir::Write, FILE_A, 64, 65 * KB, scale.stream_bytes / 2);
        cluster.preallocate(FILE_A, w.span_bytes() + (1 << 20));
        let stats = cluster.run(&mut w);
        t.row(&[
            label.to_string(),
            mbps(stats.throughput_mbps()),
            format!("{:.1}", stats.latency_ms.max().unwrap_or(0.0)),
        ]);
    }
    format!(
        "{}a degraded server makes the broadcast T values diverge, which is \
         when Eq. (3) can matter — under the per-byte return model even \
         unboosted fragments already clear the admission bar, so the boost \
         stays belt-and-braces here too (an honest negative result; under \
         the paper's per-request reading it is what tips fragments in).\n\n",
        t.block()
    )
}

/// Read-only cache (no write redirection) vs the full scheme.
fn read_only_cache(scale: &Scale) -> String {
    let mut t = Table::new(
        "Ablation — write redirection (65 KB writes, 64 procs)",
        &["variant", "throughput(MB/s)", "ssd-bytes"],
    );
    for (label, redirect) in [("full scheme", true), ("read-only cache", false)] {
        let mut cluster = crate::build_ibridge_with(8, scale, 20 * KB, move |id| {
            let mut c = IBridgeConfig::paper_defaults(id);
            c.redirect_writes = redirect;
            c
        });
        let mut w = MpiIoTest::sized(IoDir::Write, FILE_A, 64, 65 * KB, scale.stream_bytes / 2);
        cluster.preallocate(FILE_A, w.span_bytes() + (1 << 20));
        let stats = cluster.run(&mut w);
        t.row(&[
            label.to_string(),
            mbps(stats.throughput_mbps()),
            crate::pct(stats.ssd_served_fraction() * 100.0),
        ]);
    }
    format!(
        "{}without write redirection a write-only workload cannot use the \
         SSD at all — the redirect path is what the paper's write gains \
         come from.\n\n",
        t.block()
    )
}

/// Collective buffering (the client-side alternative from §IV) vs
/// iBridge (the server-side fix) on the same unaligned pattern.
fn collective(scale: &Scale) -> String {
    use ibridge_workloads::CollectiveBuffering;
    let mut t = Table::new(
        "Ablation — collective buffering vs iBridge (65 KB writes, 64 procs)",
        &["approach", "throughput(MB/s)"],
    );
    // Baseline and iBridge, independent requests.
    let mut stock = crate::build(crate::System::Stock, 8, scale);
    let s = stream_throughput(scale, &mut stock, IoDir::Write, 65 * KB);
    t.row(&["stock (independent)".into(), mbps(s)]);

    let mut ib = crate::build(crate::System::IBridge, 8, scale);
    let i = stream_throughput(scale, &mut ib, IoDir::Write, 65 * KB);
    t.row(&["iBridge (independent)".into(), mbps(i)]);

    // Two-phase collective I/O on the stock system.
    let mut cluster = crate::build(crate::System::Stock, 8, scale);
    let mut w =
        CollectiveBuffering::new(IoDir::Write, FILE_A, 64, 8, 65 * KB, scale.stream_bytes / 2);
    cluster.preallocate(FILE_A, w.span_bytes() + (1 << 20));
    let stats = cluster.run(&mut w);
    t.row(&[
        "stock + collective buffering".into(),
        mbps(stats.throughput_mbps()),
    ]);
    format!(
        "{}collective buffering removes the unalignment at the client (at \
         the cost of a data exchange and strict synchronisation); iBridge \
         removes it at the server and needs no application change.\n\n",
        t.block()
    )
}

fn eq3(scale: &Scale) -> String {
    let mut t = Table::new(
        "Ablation — Eq. (3) striping-magnification boost (65 KB writes, 64 procs)",
        &["variant", "throughput(MB/s)", "redirected-writes"],
    );
    for (label, eq3) in [("with Eq.3", true), ("without Eq.3", false)] {
        let mut cluster = build_ibridge_with(8, scale, 20 * KB, move |id| {
            let mut c = IBridgeConfig::paper_defaults(id);
            c.eq3 = eq3;
            c
        });
        let mut w = MpiIoTest::sized(IoDir::Write, FILE_A, 64, 65 * KB, scale.stream_bytes);
        cluster.preallocate(FILE_A, w.span_bytes() + (1 << 20));
        let stats = cluster.run(&mut w);
        let redirected: u64 = stats
            .servers
            .iter()
            .map(|s| s.policy.redirected_writes)
            .sum();
        t.row(&[
            label.to_string(),
            mbps(stats.throughput_mbps()),
            redirected.to_string(),
        ]);
    }
    format!(
        "{}Eq. (3) widens admission for fragments whose server is the \
         bottleneck of their sibling set; with uniform load its effect is \
         small, under skew it grows.\n\n",
        t.block()
    )
}

fn anticipation(scale: &Scale) -> String {
    let mut t = Table::new(
        "Ablation — CFQ anticipation (stock, aligned 64 KB reads, 64 procs)",
        &["variant", "throughput(MB/s)"],
    );
    for (label, idle_ms) in [("anticipation 8ms", 8u64), ("no anticipation", 0)] {
        let cfg = ClusterConfig {
            seed: scale.seed,
            audit_interval: scale.audit_interval,
            server: ServerConfig {
                cfq_slice_idle: ibridge_des::SimDuration::from_millis(idle_ms),
                ..Default::default()
            },
            ..Default::default()
        };
        let mut cluster = Cluster::new(cfg, |_| Box::new(StockPolicy::new()));
        let mut w = MpiIoTest::sized(IoDir::Read, FILE_A, 64, 64 * KB, scale.stream_bytes);
        cluster.preallocate(FILE_A, w.span_bytes() + (1 << 20));
        let stats = cluster.run(&mut w);
        t.row(&[label.to_string(), mbps(stats.throughput_mbps())]);
    }
    format!(
        "{}anticipation preserves per-process spatial locality on the disks; \
         disabling it shows how much of the stock system's aligned \
         performance depends on it.\n\n",
        t.block()
    )
}
