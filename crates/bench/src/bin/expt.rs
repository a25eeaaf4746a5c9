//! Experiment runner.
//!
//! ```text
//! expt all                 # every table and figure, paper order
//! expt fig4 fig5           # specific experiments
//! expt --full all          # paper-scale data sizes (slow)
//! expt --seed 7 table3     # different seed
//! expt --jobs 4 all        # worker-pool size (output is identical)
//! expt --bench-report B.json all   # also write a ledger of the work done
//! expt --metrics summary   # phase/class/server latency tables
//! expt --trace-out T.json summary  # Chrome trace-event JSON
//! expt --list              # what exists
//! ```
//!
//! Experiments run concurrently on the [`ibridge_bench::runpar`] pool
//! (individual data points parallelise too, against the same budget) and
//! their rendered blocks print in catalogue order, so stdout is
//! byte-identical at any `--jobs` level.
//!
//! `--bench-report` runs at `--jobs 1` in a `count-allocs` build and
//! writes a ledger of deterministic work: per experiment and for the
//! suite, simulator events, heap allocations, bytes allocated, peak live
//! heap and allocations per event. It holds no wall-clock figure, so two
//! runs of the same build write the same bytes.

use ibridge_bench::experiments::{self, Experiment};
use ibridge_bench::{alloc_count, runpar, Scale};
use std::time::Instant;

/// With `--features count-allocs`, every heap operation in this binary is
/// counted per thread; `--bench-report` turns the counters into a ledger
/// (see `BENCH_baseline.json`).
#[cfg(feature = "count-allocs")]
#[global_allocator]
static COUNTING_ALLOC: alloc_count::CountingAlloc = alloc_count::CountingAlloc;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale::quick();
    let mut selected: Vec<String> = Vec::new();
    let mut bench_report: Option<String> = None;
    let mut jobs: Option<usize> = None;
    let mut trace_out: Option<String> = None;
    let mut show_metrics = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--full" => {
                // Only the data-size knobs change; seed/fault flags
                // given earlier on the command line survive.
                let full = Scale::full();
                scale = Scale {
                    stream_bytes: full.stream_bytes,
                    btio_bytes: full.btio_bytes,
                    trace_requests: full.trace_requests,
                    page_cache: full.page_cache,
                    ..scale
                };
            }
            "--seed" => {
                let v = it.next().unwrap_or_else(|| die("--seed needs a value"));
                scale.seed = v.parse().unwrap_or_else(|_| die("--seed needs an integer"));
            }
            "--jobs" => {
                let v = it.next().unwrap_or_else(|| die("--jobs needs a value"));
                let n: usize = v.parse().unwrap_or_else(|_| die("--jobs needs an integer"));
                if n == 0 {
                    die("--jobs must be at least 1");
                }
                jobs = Some(n);
            }
            "--bench-report" => {
                let v = it
                    .next()
                    .unwrap_or_else(|| die("--bench-report needs a path"));
                bench_report = Some(v.clone());
            }
            "--trace-out" => {
                let v = it.next().unwrap_or_else(|| die("--trace-out needs a path"));
                trace_out = Some(v.clone());
                ibridge_obs::set_tracing(true);
            }
            "--metrics" => {
                show_metrics = true;
                ibridge_obs::set_metrics(true);
            }
            "--fault-plan" => {
                let v = it
                    .next()
                    .unwrap_or_else(|| die("--fault-plan needs a builtin name or a file path"));
                scale.fault_plan = Some(load_fault_plan(v));
            }
            "--audit" => {
                // The auditor is read-only, so output is byte-identical
                // with or without this flag; CI runs the fault matrix
                // with it on to catch invariant violations for free.
                scale.audit_interval = Some(ibridge_des::SimDuration::from_millis(5));
            }
            "--list-fault-plans" => {
                for p in ibridge_faults::BUILTIN_PLANS {
                    println!("{:10} {}", p.name, p.what);
                }
                return;
            }
            "--list" => {
                for e in experiments::all() {
                    println!("{:8} {}", e.name, e.what);
                }
                return;
            }
            "--help" | "-h" => {
                println!(
                    "usage: expt [--full] [--seed N] [--jobs N] \
                     [--bench-report PATH] [--metrics] [--trace-out PATH] \
                     [--fault-plan NAME|FILE] \
                     [--audit] [--list] [--list-fault-plans] \
                     <experiment|all>...\n\
                     fault plans: builtin names are {}; anything else is \
                     read as a plan file (see crates/faults). \
                     --bench-report writes a JSON ledger of events and \
                     heap allocations per experiment; it runs at jobs 1 \
                     and needs a build with --features count-allocs. \
                     --audit runs the online invariant auditor every 5ms \
                     of virtual time (read-only; output is unchanged). \
                     --metrics prints virtual-time latency tables after the \
                     experiment blocks; --trace-out writes a Chrome \
                     trace-event JSON of every request's span tree (load \
                     in chrome://tracing or Perfetto). Both are \
                     deterministic: byte-identical at any --jobs level",
                    builtin_names()
                );
                return;
            }
            other if other.starts_with('-') => {
                die(&format!("unknown flag {other}"));
            }
            name => selected.push(name.to_string()),
        }
    }
    if selected.is_empty() {
        die("no experiment named; try `expt --list` or `expt all`");
    }
    let catalogue = experiments::all();
    let unknown: Vec<&str> = selected
        .iter()
        .filter(|s| *s != "all" && !catalogue.iter().any(|e| e.name == s.as_str()))
        .map(|s| s.as_str())
        .collect();
    if !unknown.is_empty() {
        die(&format!(
            "unknown experiment(s): {}; try `expt --list`",
            unknown.join(", ")
        ));
    }
    let run_all = selected.iter().any(|s| s == "all");
    let chosen: Vec<&Experiment> = catalogue
        .iter()
        .filter(|e| run_all || selected.iter().any(|s| s == e.name))
        .collect();
    if chosen.is_empty() {
        die("no experiment matched; try `expt --list`");
    }

    if bench_report.is_some() {
        // Allocation counters are thread-local, so only a pass that runs
        // every experiment on this thread attributes them exactly.
        if !alloc_count::enabled() {
            die("--bench-report needs a build with --features count-allocs");
        }
        if jobs.is_some_and(|n| n > 1) {
            die("--bench-report runs at --jobs 1 only");
        }
        jobs = Some(1);
    }
    if let Some(n) = jobs {
        runpar::set_jobs(n);
    }

    let start = Instant::now();
    let events_before = ibridge_pvfs::total_events_dispatched();
    let results: Vec<(String, Work)> =
        runpar::par_map(chosen.clone(), |e| measure(|| (e.run)(&scale)));
    let wall = start.elapsed().as_secs_f64();
    let events = ibridge_pvfs::total_events_dispatched() - events_before;
    for (e, (out, _)) in chosen.iter().zip(&results) {
        print!("### {} — {}\n\n{out}", e.name, e.what);
    }
    if show_metrics {
        let rendered = ibridge_bench::obs_report::render(&ibridge_obs::metrics::snapshot());
        if rendered.is_empty() {
            println!("(metrics: nothing recorded — obs feature compiled out)\n");
        } else {
            print!("{rendered}");
        }
    }
    eprintln!(
        "[{} experiment(s) in {wall:.1}s wall, {events} sim events, jobs={}]",
        chosen.len(),
        runpar::jobs(),
    );

    if let Some(path) = &trace_out {
        ibridge_obs::set_tracing(false);
        let trace = ibridge_obs::trace::take_chunks();
        let json = trace.to_chrome_json();
        if let Err(e) = std::fs::write(path, &json) {
            die(&format!("cannot write {path}: {e}"));
        }
        eprintln!("[trace: {} span(s) -> {path}]", trace.span_count());
    }

    if let Some(path) = &bench_report {
        write_ledger(path, scale.seed, &chosen, &results);
    }
}

/// Deterministic work: simulator events and heap activity.
#[derive(Default)]
struct Work {
    events: u64,
    allocs: u64,
    alloc_bytes: u64,
    /// How far the live heap rose above its level at the start.
    peak_bytes: u64,
}

/// Runs `f` and counts the work it did on the calling thread. Exact only
/// at `--jobs 1`: at higher levels the event counter also counts other
/// workers' runs, and nested tasks allocate on other threads.
fn measure<R>(f: impl FnOnce() -> R) -> (R, Work) {
    alloc_count::reset_peak();
    let ev0 = ibridge_pvfs::total_events_dispatched();
    let a0 = alloc_count::snapshot();
    let r = f();
    let a1 = alloc_count::snapshot();
    let work = Work {
        events: ibridge_pvfs::total_events_dispatched() - ev0,
        allocs: a1.allocs - a0.allocs,
        alloc_bytes: a1.bytes - a0.bytes,
        peak_bytes: a1.peak - a0.current,
    };
    (r, work)
}

impl Work {
    /// The ledger fields. `allocs_per_event` is `null` where no simulator
    /// event ran (the pure table renders).
    fn json(&self) -> String {
        let per_event = match self.events {
            0 => "null".to_string(),
            ev => format!("{:.6}", self.allocs as f64 / ev as f64),
        };
        format!(
            "\"events\": {}, \"allocs\": {}, \"alloc_bytes\": {}, \"peak_bytes\": {}, \
             \"allocs_per_event\": {per_event}",
            self.events, self.allocs, self.alloc_bytes, self.peak_bytes
        )
    }
}

/// Writes the `--bench-report` ledger: one entry per experiment, then the
/// suite's totals (its peak is the highest experiment peak).
fn write_ledger(path: &str, seed: u64, chosen: &[&Experiment], results: &[(String, Work)]) {
    let mut suite = Work::default();
    let mut rows = Vec::new();
    for (e, (_, w)) in chosen.iter().zip(results) {
        suite.events += w.events;
        suite.allocs += w.allocs;
        suite.alloc_bytes += w.alloc_bytes;
        suite.peak_bytes = suite.peak_bytes.max(w.peak_bytes);
        rows.push(format!("    {{\"name\": \"{}\", {}}}", e.name, w.json()));
    }
    let json = format!(
        "{{\n  \"seed\": {seed},\n  \"experiments\": [\n{}\n  ],\n  \"suite\": {{{}}}\n}}\n",
        rows.join(",\n"),
        suite.json()
    );
    if let Err(e) = std::fs::write(path, json) {
        die(&format!("cannot write {path}: {e}"));
    }
    eprintln!("[bench-report: {path}]");
}

/// Resolves `--fault-plan`: a builtin name, else a plan file. Parse
/// errors quote the offending line; the process exits non-zero.
fn load_fault_plan(value: &str) -> &'static ibridge_faults::FaultPlan {
    let text = match ibridge_faults::builtin(value) {
        Some(src) => src.to_string(),
        None => std::fs::read_to_string(value).unwrap_or_else(|e| {
            die(&format!(
                "--fault-plan '{value}' is not a builtin plan ({}) and \
                 cannot be read as a file: {e}",
                builtin_names()
            ))
        }),
    };
    match ibridge_faults::FaultPlan::parse(&text) {
        // One plan per process: leaking keeps `Scale` Copy.
        Ok(plan) => Box::leak(Box::new(plan)),
        Err(e) => die(&format!("--fault-plan {value}: {e}")),
    }
}

/// The builtin fault-plan names, comma-separated, for messages.
fn builtin_names() -> String {
    let names: Vec<&str> = ibridge_faults::BUILTIN_PLANS
        .iter()
        .map(|p| p.name)
        .collect();
    names.join(", ")
}

fn die(msg: &str) -> ! {
    eprintln!("expt: {msg}");
    std::process::exit(2);
}
