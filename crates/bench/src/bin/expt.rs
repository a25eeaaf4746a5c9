//! Experiment runner.
//!
//! ```text
//! expt all                 # every table and figure, paper order
//! expt fig4 fig5           # specific experiments
//! expt --full all          # paper-scale data sizes (slow)
//! expt --seed 7 table3     # different seed
//! expt --jobs 4 all        # worker-pool size (output is identical)
//! expt --bench-report B.json all   # also write a self-benchmark report
//! expt --metrics summary   # phase/class/server latency tables
//! expt --trace-out T.json summary  # Chrome trace-event JSON
//! expt --list              # what exists
//! ```
//!
//! Experiments run concurrently on the [`ibridge_bench::runpar`] pool
//! (individual data points parallelise too, against the same budget) and
//! their rendered blocks print in catalogue order, so stdout is
//! byte-identical at any `--jobs` level.

use ibridge_bench::experiments::{self, Experiment};
use ibridge_bench::{alloc_count, runpar, Scale};
use std::time::Instant;

/// With `--features count-allocs`, every heap operation in this binary is
/// counted per thread; `--bench-report` turns the counters into
/// allocations-per-event figures (see `BENCH_pr2.json`).
#[cfg(feature = "count-allocs")]
#[global_allocator]
static COUNTING_ALLOC: alloc_count::CountingAlloc = alloc_count::CountingAlloc;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale::quick();
    let mut selected: Vec<String> = Vec::new();
    let mut bench_report: Option<String> = None;
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
                    ssd_capacity: full.ssd_capacity,
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
                runpar::set_jobs(n);
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
            "--mds-replicas" => {
                let v = it
                    .next()
                    .unwrap_or_else(|| die("--mds-replicas needs a value"));
                let n: usize = v
                    .parse()
                    .unwrap_or_else(|_| die("--mds-replicas needs an integer"));
                if n == 0 {
                    die("--mds-replicas must be at least 1");
                }
                scale.mds_replicas = n;
            }
            "--audit" => {
                // The auditor is read-only, so output is byte-identical
                // with or without this flag; CI runs the fault matrix
                // with it on to catch invariant violations for free.
                scale.audit_interval = Some(ibridge_des::SimDuration::from_millis(5));
            }
            "--list-fault-plans" => {
                for (name, what) in ibridge_faults::BUILTIN_PLANS {
                    println!("{name:10} {what}");
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
                     [--mds-replicas N] \
                     [--bench-report PATH] [--metrics] [--trace-out PATH] \
                     [--fault-plan NAME|FILE] \
                     [--audit] [--list] [--list-fault-plans] \
                     <experiment|all>...\n\
                     fault plans: builtin names are {}; anything else is \
                     read as a plan file (see crates/faults). \
                     --mds-replicas runs the metadata service as a \
                     raft-style replicated group of N (default 1, the \
                     single MDS); elections and failover are simulated \
                     in virtual time and output stays byte-identical at \
                     any jobs level. \
                     --audit runs the online invariant auditor every 5ms \
                     of virtual time (read-only; output is unchanged). \
                     --metrics prints virtual-time latency tables after the \
                     experiment blocks; --trace-out writes a Chrome \
                     trace-event JSON of every request's span tree (load \
                     in chrome://tracing or Perfetto). Both are \
                     deterministic: byte-identical at any --jobs level",
                    ibridge_faults::BUILTIN_NAMES.join(", ")
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

    let jobs = runpar::jobs();
    let start = Instant::now();
    let events_before = ibridge_pvfs::total_events_dispatched();
    let results: Vec<(String, f64)> = runpar::par_map(chosen.clone(), |e| {
        let t0 = Instant::now();
        let out = (e.run)(&scale);
        (out, t0.elapsed().as_secs_f64())
    });
    let wall = start.elapsed().as_secs_f64();
    let events = ibridge_pvfs::total_events_dispatched() - events_before;
    for (e, (out, _)) in chosen.iter().zip(&results) {
        print!("### {} — {}\n\n{out}", e.name, e.what);
    }
    // Observability flags go off before any `--bench-report` rerun so the
    // `--jobs 1` baseline runs the same configuration as the parallel
    // pass and does not double-count samples into the snapshot.
    let metrics_snap = if show_metrics {
        ibridge_obs::set_metrics(false);
        Some(ibridge_obs::metrics::snapshot())
    } else {
        None
    };
    if let Some(reg) = &metrics_snap {
        let rendered = ibridge_bench::obs_report::render(reg);
        if rendered.is_empty() {
            println!("(metrics: nothing recorded — obs feature compiled out)\n");
        } else {
            print!("{rendered}");
        }
    }
    eprintln!(
        "[{} experiment(s) in {:.1}s wall, {} sim events, {:.0} events/s, jobs={}]",
        chosen.len(),
        wall,
        events,
        events as f64 / wall.max(1e-9),
        jobs,
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

    if let Some(path) = bench_report {
        write_bench_report(
            &path,
            &scale,
            jobs,
            &chosen,
            &results,
            wall,
            events,
            metrics_snap.as_ref(),
        );
    }
}

/// Reruns the chosen experiments at `--jobs 1`, checks byte-identity of
/// the rendered output, and writes a JSON self-benchmark report.
#[allow(clippy::too_many_arguments)]
fn write_bench_report(
    path: &str,
    scale: &Scale,
    jobs: usize,
    chosen: &[&Experiment],
    par_results: &[(String, f64)],
    par_wall: f64,
    events: u64,
    obs_metrics: Option<&ibridge_obs::metrics::Registry>,
) {
    eprintln!("[bench-report: rerunning at --jobs 1 for the baseline]");
    runpar::set_jobs(1);
    // At `--jobs 1` the runpar pool degenerates to a sequential map on
    // this thread, so thread-local allocation counters and the global
    // event counter attribute exactly to the experiment between the two
    // snapshots.
    struct SeqRun {
        out: String,
        wall: f64,
        events: u64,
        allocs: u64,
        alloc_bytes: u64,
        peak_bytes: u64,
    }
    let seq_start = Instant::now();
    let seq: Vec<SeqRun> = chosen
        .iter()
        .map(|e| {
            let t0 = Instant::now();
            let ev0 = ibridge_pvfs::total_events_dispatched();
            let a0 = alloc_count::snapshot();
            alloc_count::reset_peak();
            let out = (e.run)(scale);
            let a1 = alloc_count::snapshot();
            SeqRun {
                out,
                wall: t0.elapsed().as_secs_f64(),
                events: ibridge_pvfs::total_events_dispatched() - ev0,
                allocs: a1.allocs - a0.allocs,
                alloc_bytes: a1.bytes - a0.bytes,
                peak_bytes: a1.peak,
            }
        })
        .collect();
    let seq_wall = seq_start.elapsed().as_secs_f64();

    let identical = par_results.iter().zip(&seq).all(|((a, _), b)| *a == b.out);

    let mut per = String::new();
    for (i, e) in chosen.iter().enumerate() {
        if i > 0 {
            per.push(',');
        }
        let s = &seq[i];
        // Event counts are deterministic, so the jobs-1 rerun's count also
        // describes the parallel pass and events/sec is meaningful at both
        // jobs levels. `table1`/`table2` dispatch no simulator events at
        // all; rate and per-event figures are `null` there rather than a
        // fiction divided by 1.
        per.push_str(&format!(
            "\n    {{\"name\": \"{}\", \"wall_s\": {:.3}, \"wall_s_jobs1\": {:.3}, \
             \"events\": {}, \"events_per_sec\": {}, \"events_per_sec_jobs1\": {}",
            e.name,
            par_results[i].1,
            s.wall,
            s.events,
            per_event_rate(s.events, par_results[i].1),
            per_event_rate(s.events, s.wall),
        ));
        if alloc_count::enabled() {
            let per_event = if s.events == 0 {
                "null".to_string()
            } else {
                format!("{:.3}", s.allocs as f64 / s.events as f64)
            };
            per.push_str(&format!(
                ", \"allocs\": {}, \"alloc_bytes\": {}, \"peak_bytes\": {}, \
                 \"allocs_per_event\": {per_event}",
                s.allocs, s.alloc_bytes, s.peak_bytes,
            ));
        }
        per.push('}');
    }
    let host_cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let note = if jobs > host_cpus {
        format!(
            ",\n  \"note\": \"requested {jobs} jobs but the host exposes only \
             {host_cpus} CPU(s); the jobs speedup is bounded by available \
             parallelism\""
        )
    } else {
        String::new()
    };
    let alloc_summary = if alloc_count::enabled() {
        let allocs: u64 = seq.iter().map(|s| s.allocs).sum();
        let ev: u64 = seq.iter().map(|s| s.events).sum();
        let per_event = if ev == 0 {
            "null".to_string()
        } else {
            format!("{:.3}", allocs as f64 / ev as f64)
        };
        format!(
            ",\n  \"counting_allocator\": true,\n  \"allocs_jobs1\": {allocs},\n  \
             \"allocs_per_event_jobs1\": {per_event}"
        )
    } else {
        ",\n  \"counting_allocator\": false".to_string()
    };
    let fc = ibridge_pvfs::total_fault_counters();
    let fault_counters = format!(
        ",\n  \"fault_counters\": {{\"retries\": {}, \"timeouts\": {}, \
         \"dropped_messages\": {}, \"dirty_bytes_lost\": {}, \
         \"degraded_s\": {:.3}, \"fsck_scanned\": {}, \
         \"fsck_quarantined\": {}, \"stale_t_decisions\": {}, \
         \"mds_elections\": {}, \"mds_leader_changes\": {}, \
         \"mds_failover_recovery_ticks\": {}, \"audits\": {}}}",
        fc.retries,
        fc.timeouts,
        fc.dropped_messages,
        fc.dirty_bytes_lost,
        fc.degraded_ns as f64 / 1e9,
        fc.fsck_records_scanned,
        fc.fsck_records_quarantined,
        fc.stale_t_decisions,
        fc.mds_elections,
        fc.mds_leader_changes,
        fc.mds_failover_recovery_ticks,
        fc.audits,
    );
    // Backup-log maintenance totals (segmented log, checkpoints,
    // compaction, scrub). All zero unless an iBridge run performed
    // maintenance; gauges stay out (they are per-run, not monotone).
    let mc = ibridge_pvfs::total_maint_counters();
    let maint_counters = format!(
        ",\n  \"maint_counters\": {{\"ticks\": {}, \"busy_skips\": {}, \
         \"records_appended\": {}, \"tombstones\": {}, \"supersedes\": {}, \
         \"backup_bytes\": {}, \"segments_sealed\": {}, \
         \"segments_compacted\": {}, \"segments_reclaimed\": {}, \
         \"records_rewritten\": {}, \"rewrite_bytes\": {}, \
         \"checkpoints\": {}, \"checkpoint_records\": {}, \
         \"checkpoint_bytes\": {}, \"scrub_segments\": {}, \
         \"scrub_records\": {}, \"scrub_repairs\": {}}}",
        mc.ticks,
        mc.busy_skips,
        mc.records_appended,
        mc.tombstones,
        mc.supersedes,
        mc.backup_bytes,
        mc.segments_sealed,
        mc.segments_compacted,
        mc.segments_reclaimed,
        mc.records_rewritten,
        mc.rewrite_bytes,
        mc.checkpoints,
        mc.checkpoint_records,
        mc.checkpoint_bytes,
        mc.scrub_segments,
        mc.scrub_records,
        mc.scrub_repairs,
    );
    let obs_fragment = match obs_metrics {
        Some(reg) => format!(",\n{}", ibridge_bench::obs_report::json_fragment(reg)),
        None => String::new(),
    };
    let json = format!(
        "{{\n  \"jobs\": {jobs},\n  \"host_cpus\": {host_cpus},\n  \
         \"seed\": {},\n  \
         \"experiments\": [{per}\n  ],\n  \
         \"wall_s\": {par_wall:.3},\n  \"wall_s_jobs1\": {seq_wall:.3},\n  \
         \"speedup_vs_jobs1\": {:.3},\n  \
         \"events_dispatched\": {events},\n  \
         \"events_per_sec\": {:.0},\n  \
         \"output_identical_to_jobs1\": {identical}{alloc_summary}\
         {fault_counters}{maint_counters}{obs_fragment}{note}\n}}\n",
        scale.seed,
        seq_wall / par_wall.max(1e-9),
        events as f64 / par_wall.max(1e-9),
    );
    if let Err(e) = std::fs::write(path, &json) {
        die(&format!("cannot write {path}: {e}"));
    }
    eprintln!(
        "[bench-report: {path} — speedup {:.2}x vs --jobs 1, identical={identical}]",
        seq_wall / par_wall.max(1e-9)
    );
    if !identical {
        die("output at --jobs N differs from --jobs 1 (determinism bug)");
    }
}

/// Events/sec as a JSON value: `null` for experiments that dispatch no
/// simulator events (pure table renders), a rounded rate otherwise.
fn per_event_rate(events: u64, wall_s: f64) -> String {
    if events == 0 {
        "null".to_string()
    } else {
        format!("{:.0}", events as f64 / wall_s.max(1e-9))
    }
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
                ibridge_faults::BUILTIN_NAMES.join(", ")
            ))
        }),
    };
    match ibridge_faults::FaultPlan::parse(&text) {
        // One plan per process: leaking keeps `Scale` Copy.
        Ok(plan) => Box::leak(Box::new(plan)),
        Err(e) => die(&format!("--fault-plan {value}: {e}")),
    }
}

fn die(msg: &str) -> ! {
    eprintln!("expt: {msg}");
    std::process::exit(2);
}
