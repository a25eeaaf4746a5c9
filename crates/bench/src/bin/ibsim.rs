//! `ibsim` — run one configurable scenario on the simulated cluster.
//!
//! ```text
//! ibsim --system ibridge --pattern mpiio --dir write \
//!       --procs 64 --size-kb 65 --offset-kb 0 --servers 8 \
//!       --total-mb 256 [--warm] [--seed 42] [--hist]
//! ibsim --system stock --pattern ior --dir read --size-kb 33
//! ibsim --system ssd-only --pattern btio --procs 16
//! ```
//!
//! Prints throughput, latency, SSD usage and (with `--hist`) the
//! block-level dispatch-size distribution.

use ibridge_bench::{build, cold_run, Scale, System, FILE_A};
use ibridge_device::IoDir;
use ibridge_pvfs::{RunStats, Workload};
use ibridge_workloads::{Btio, IorMpiIo, MpiIoTest};

struct Opts {
    system: System,
    pattern: String,
    dir: IoDir,
    procs: usize,
    size_kb: u64,
    offset_kb: u64,
    servers: usize,
    total_mb: u64,
    warm: bool,
    hist: bool,
    seed: u64,
}

fn parse() -> Opts {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let get = |name: &str| -> Option<String> {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let getu = |name: &str, default: u64| -> u64 {
        get(name)
            .map(|v| {
                v.parse()
                    .unwrap_or_else(|_| die(&format!("{name} needs an integer")))
            })
            .unwrap_or(default)
    };
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!(
            "usage: ibsim [--system stock|ibridge|ssd-only] [--pattern mpiio|ior|btio]\n\
             \x20            [--dir read|write] [--procs N] [--size-kb K] [--offset-kb K]\n\
             \x20            [--servers N] [--total-mb M] [--warm] [--hist] [--seed S]"
        );
        std::process::exit(0);
    }
    let system = match get("--system").as_deref().unwrap_or("ibridge") {
        "stock" => System::Stock,
        "ibridge" => System::IBridge,
        "ssd-only" => System::SsdOnly,
        other => die(&format!("unknown system {other:?}")),
    };
    let dir = match get("--dir").as_deref().unwrap_or("write") {
        "read" | "r" => IoDir::Read,
        "write" | "w" => IoDir::Write,
        other => die(&format!("unknown direction {other:?}")),
    };
    Opts {
        system,
        pattern: get("--pattern").unwrap_or_else(|| "mpiio".into()),
        dir,
        procs: getu("--procs", 64) as usize,
        size_kb: getu("--size-kb", 65),
        offset_kb: getu("--offset-kb", 0),
        servers: getu("--servers", 8) as usize,
        total_mb: getu("--total-mb", 256),
        warm: args.iter().any(|a| a == "--warm"),
        hist: args.iter().any(|a| a == "--hist"),
        seed: getu("--seed", 42),
    }
}

fn make_workload(o: &Opts) -> (Box<dyn Workload>, u64) {
    let total = o.total_mb << 20;
    match o.pattern.as_str() {
        "mpiio" => {
            let w = MpiIoTest::sized(o.dir, FILE_A, o.procs, o.size_kb << 10, total)
                .with_shift(o.offset_kb << 10);
            let span = w.span_bytes();
            (Box::new(w), span)
        }
        "ior" => {
            let w = IorMpiIo::sized(o.dir, FILE_A, o.procs, o.size_kb << 10, total);
            let span = w.span_bytes();
            (Box::new(w), span)
        }
        "btio" => {
            let w = Btio::new(
                FILE_A,
                o.procs,
                total,
                16,
                ibridge_des::SimDuration::from_millis(100),
            );
            let span = w.span_bytes();
            (Box::new(w), span)
        }
        other => die(&format!("unknown pattern {other:?}")),
    }
}

fn report(o: &Opts, stats: &RunStats) {
    println!(
        "{:9} {} {:?} procs={} size={}KB offset={}KB servers={}",
        o.system.label(),
        o.pattern,
        o.dir,
        o.procs,
        o.size_kb,
        o.offset_kb,
        o.servers
    );
    println!(
        "  throughput : {:8.1} MB/s   (client phase {:.1} MB/s)",
        stats.throughput_mbps(),
        stats.client_throughput_mbps()
    );
    println!(
        "  latency    : mean {:.2} ms, p50 {} ms, p99 {} ms",
        stats.latency_ms.mean().unwrap_or(0.0),
        stats.latency_hist_ms.quantile(0.5).unwrap_or(0),
        stats.latency_hist_ms.quantile(0.99).unwrap_or(0),
    );
    println!(
        "  elapsed    : {:.2} s virtual ({} requests, {:.1} MB)",
        stats.elapsed.as_secs_f64(),
        stats.requests,
        stats.bytes as f64 / 1e6
    );
    if o.system == System::IBridge {
        let hits: u64 = stats.servers.iter().map(|s| s.policy.read_hits).sum();
        let redirected: u64 = stats
            .servers
            .iter()
            .map(|s| s.policy.redirected_writes)
            .sum();
        println!(
            "  ssd        : {:.1}% of bytes, {} hits, {} redirected writes",
            stats.ssd_served_fraction() * 100.0,
            hits,
            redirected
        );
    }
    if o.hist {
        let h = if o.dir.is_read() {
            stats.combined_read_hist()
        } else {
            stats.combined_write_hist()
        };
        println!("  dispatch sizes (top 6):");
        for (sectors, count) in h.top_k(6) {
            println!(
                "    {:>4} sectors ({:>6.1} KB): {:>5.1}%",
                sectors,
                sectors as f64 / 2.0,
                count as f64 * 100.0 / h.total() as f64
            );
        }
    }
}

fn main() {
    let o = parse();
    let scale = Scale {
        seed: o.seed,
        ..Scale::quick()
    };
    let mut cluster = build(o.system, scale.cluster(o.servers));
    let (mut w, span) = make_workload(&o);
    let mut stats = cold_run(&mut cluster, span, w.as_mut());
    if o.warm {
        stats = cluster.run(make_workload(&o).0.as_mut());
    }
    report(&o, &stats);
}

fn die(msg: &str) -> ! {
    eprintln!("ibsim: {msg}");
    std::process::exit(2);
}
