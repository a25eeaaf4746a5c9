//! The measurement protocol of one workload, run in a child process.
//!
//! *Setup* is `Cluster::new`, `preallocate` and one warm-up pass, which
//! lets the caches fill and first-touch costs finish. *Timed passes*
//! then run the same generator on the same cluster until the time budget
//! is spent. Every pass, warm-up included, is checked for correctness.
//!
//! `run` gives the end-to-end metrics with nothing wrapped. Its host
//! times are normalized by the reference kernel (see `reference.rs`),
//! which runs after every set-up and after every block of passes. `trace`
//! builds a second, decorated cluster next to a plain one and alternates
//! passes between them: the plain passes are the untraced reference for
//! `obs.trace_overhead`, and their `RunStats` must equal the decorated
//! cluster's bit for bit, which checks that the decorators are
//! transparent.

use crate::alloc;
use crate::metrics::{median, ratio, Outcome};
use crate::reference::{Reference, REFERENCE_S};
use crate::timing::{Decorator, PolicyTotals, Recorder, TimedWorkload};
use crate::workloads::{Spec, SERVERS};
use ibridge_des::stats::Histogram;
use ibridge_obs::metrics::{Phase, Registry};
use ibridge_pvfs::{CachePolicy, Cluster, RunStats};
use std::sync::Arc;
use std::time::Instant;

/// Set-up runs at least this many times, and for at least
/// `SETUP_SECONDS`; `setup_s` is the median. The repeats run after
/// `peak_rss_mb` is read, so their number, which depends on the host's
/// speed, cannot change it.
const SETUPS: usize = 5;
const SETUP_SECONDS: f64 = 2.0;

/// Host seconds of passes after which the reference kernel runs again.
/// Each pass is normalized by the unit that closes its block, so the two
/// see the same state of the host; the kernel takes about a sixth of the
/// timed phase.
const BLOCK_SECONDS: f64 = 0.2;

/// What the generator issues in one pass.
#[derive(Debug, Clone, Copy, Default)]
struct Expected {
    requests: u64,
    bytes: u64,
}

fn expected(spec: &Spec) -> Expected {
    let mut g = spec.generator();
    let mut e = Expected::default();
    for proc in 0..g.procs() {
        let mut iter = 0;
        while let Some(item) = g.next(proc, iter) {
            e.requests += 1;
            e.bytes += item.req.len;
            iter += 1;
        }
    }
    e
}

/// Cumulative server-side counters summed over servers; a pass's share
/// is the difference of two snapshots.
#[derive(Debug, Clone, Copy, Default)]
struct Counters {
    bytes_ssd: u64,
    bytes_disk: u64,
    read_hits: u64,
    read_misses: u64,
    admissions: u64,
    redirected: u64,
    admit_fail: u64,
    evictions: u64,
    maint_ticks: u64,
    maint_busy: u64,
    backup_bytes: u64,
    rewrite_bytes: u64,
    records_rewritten: u64,
    hdd_busy_ns: u64,
    hdd_bytes_read: u64,
    hdd_bytes: u64,
    hdd_reqs: u64,
    ssd_busy_ns: u64,
    ssd_reqs: u64,
    idle_probes: u64,
    idle_grants: u64,
}

impl Counters {
    fn of(c: &Cluster) -> Self {
        let mut t = Counters::default();
        for i in 0..SERVERS {
            let s = c.server(i);
            let p = s.policy().stats();
            let m = s.policy().maint_stats();
            let hdd = s.primary().stats();
            t.bytes_ssd += p.bytes_ssd;
            t.bytes_disk += p.bytes_disk;
            t.read_hits += p.read_hits;
            t.read_misses += p.read_misses;
            t.admissions += p.admissions;
            t.redirected += p.redirected_writes;
            t.admit_fail += p.admission_failures;
            t.evictions += p.evictions;
            t.maint_ticks += m.ticks;
            t.maint_busy += m.busy_skips;
            t.backup_bytes += m.backup_bytes;
            t.rewrite_bytes += m.rewrite_bytes;
            t.records_rewritten += m.records_rewritten;
            t.hdd_busy_ns += hdd.busy.as_nanos();
            t.hdd_bytes_read += hdd.bytes_read;
            t.hdd_bytes += hdd.bytes_read + hdd.bytes_written;
            t.hdd_reqs += hdd.requests;
            t.idle_probes += hdd.idle_probes;
            t.idle_grants += hdd.idle_grants;
            if let Some(ssd) = s.cache().map(|d| d.stats()) {
                t.ssd_busy_ns += ssd.busy.as_nanos();
                t.ssd_reqs += ssd.requests;
                t.idle_probes += ssd.idle_probes;
                t.idle_grants += ssd.idle_grants;
            }
        }
        t
    }

    fn minus(&self, b: &Self) -> Self {
        Counters {
            bytes_ssd: self.bytes_ssd - b.bytes_ssd,
            bytes_disk: self.bytes_disk - b.bytes_disk,
            read_hits: self.read_hits - b.read_hits,
            read_misses: self.read_misses - b.read_misses,
            admissions: self.admissions - b.admissions,
            redirected: self.redirected - b.redirected,
            admit_fail: self.admit_fail - b.admit_fail,
            evictions: self.evictions - b.evictions,
            maint_ticks: self.maint_ticks - b.maint_ticks,
            maint_busy: self.maint_busy - b.maint_busy,
            backup_bytes: self.backup_bytes - b.backup_bytes,
            rewrite_bytes: self.rewrite_bytes - b.rewrite_bytes,
            records_rewritten: self.records_rewritten - b.records_rewritten,
            hdd_busy_ns: self.hdd_busy_ns - b.hdd_busy_ns,
            hdd_bytes_read: self.hdd_bytes_read - b.hdd_bytes_read,
            hdd_bytes: self.hdd_bytes - b.hdd_bytes,
            hdd_reqs: self.hdd_reqs - b.hdd_reqs,
            ssd_busy_ns: self.ssd_busy_ns - b.ssd_busy_ns,
            ssd_reqs: self.ssd_reqs - b.ssd_reqs,
            idle_probes: self.idle_probes - b.idle_probes,
            idle_grants: self.idle_grants - b.idle_grants,
        }
    }
}

/// One pass on one cluster: the simulator's result, what the servers
/// did during it and its host time.
struct Pass {
    stats: RunStats,
    delta: Counters,
    host_ns: u64,
}

/// Runs one pass; `run` wraps the call so the traced side can put it in
/// a span.
fn pass(cluster: &mut Cluster, run: impl FnOnce(&mut Cluster) -> RunStats) -> Pass {
    let before = Counters::of(cluster);
    let start = Instant::now();
    let stats = run(cluster);
    let host_ns = start.elapsed().as_nanos() as u64;
    Pass {
        delta: Counters::of(cluster).minus(&before),
        stats,
        host_ns,
    }
}

/// Requests of this pass that did not complete correctly: missing
/// completions, or all of them when the byte accounting disagrees.
fn failures(exp: &Expected, p: &Pass) -> u64 {
    let s = &p.stats;
    let served =
        p.delta.bytes_ssd + p.delta.bytes_disk + s.servers.iter().map(|x| x.ra_bytes).sum::<u64>();
    let bytes_ok = s.bytes == exp.bytes
        && s.latency_hist_ms.total() == s.requests
        && s.proc_bytes.iter().sum::<u64>() == s.bytes
        && served == s.bytes
        && s.servers.iter().all(|x| x.policy.dirty_bytes == 0);
    let failed = if bytes_ok {
        exp.requests.saturating_sub(s.requests)
    } else {
        exp.requests
    };
    if failed > 0 {
        eprintln!(
            "ibench: pass failed its checks: {} of {} requests, {} of {} bytes, \
             {} latencies, {served} bytes served",
            s.requests,
            exp.requests,
            s.bytes,
            exp.bytes,
            s.latency_hist_ms.total()
        );
    }
    failed
}

/// Order-preserving digest of everything a run reports.
pub fn digest(s: &RunStats) -> u64 {
    format!("{s:?}")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
}

/// Quantile of a whole-millisecond latency histogram, interpolated
/// within the bucket: key `k` holds latencies in `[k - 0.5, k + 0.5)`.
fn quantile_ms(h: &Histogram, q: f64) -> f64 {
    let target = q * h.total() as f64;
    let mut acc = 0.0;
    let mut last = 0.0;
    for (k, c) in h.iter() {
        let (k, c) = (k as f64, c as f64);
        if acc + c >= target {
            let lo = (k - 0.5).max(0.0);
            return lo + (k + 0.5 - lo) * (target - acc) / c;
        }
        acc += c;
        last = k;
    }
    last
}

/// A memory field of `/proc/self/status` (`VmRSS`, `VmHWM`) in MB.
fn status_mb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or_else(|| panic!("{field} in /proc/self/status"));
    kb / 1024.0
}

fn plain(_: usize, p: Box<dyn CachePolicy>) -> Box<dyn CachePolicy> {
    p
}

/// Builds, preallocates and warms a cluster. Returns the cluster, the
/// warm-up pass and the host seconds of the whole set-up.
fn setup(spec: &Spec) -> (Cluster, Pass, f64) {
    let start = Instant::now();
    let mut c = spec.build(&plain);
    spec.preallocate(&mut c);
    let warm = pass(&mut c, |c| c.run(spec.generator().as_mut()));
    (c, warm, start.elapsed().as_secs_f64())
}

/// Raw host seconds of one `run`: every set-up, every timed pass and
/// every unit of the reference kernel.
#[derive(Debug, Default)]
pub struct Timings {
    pub setups: Vec<f64>,
    pub passes: Vec<f64>,
    pub reference: Vec<f64>,
}

/// The untraced run: end-to-end metrics.
pub fn run(spec: &Spec, seconds: f64) -> (Outcome, Timings) {
    let exp = expected(spec);
    let mut attempted = 0;
    let mut failed = 0;
    let mut t = Timings::default();
    // The kernel's memory is not the simulator's: `peak_rss_mb` leaves it out.
    let rss_before = status_mb("VmRSS");
    let mut reference = Reference::default();
    reference.measure();
    let reference_mb = status_mb("VmRSS") - rss_before;
    // Set-up and pass times divided by the reference unit that follows.
    let (mut setup_norm, mut pass_norm) = (Vec::new(), Vec::new());
    let mut timed_setup = |t: &mut Timings, reference: &mut Reference| {
        let (cluster, warm, secs) = setup(spec);
        let unit = reference.measure();
        t.setups.push(secs);
        t.reference.push(unit);
        setup_norm.push(secs / unit);
        (cluster, warm)
    };
    let (mut cluster, warm) = timed_setup(&mut t, &mut reference);
    attempted += exp.requests;
    failed += failures(&exp, &warm);
    let sim_passes = spec.kind.sim_passes();
    let (mut bytes, mut elapsed, mut lat) = (0, 0.0, Histogram::new());
    let mut first_pass = 0;
    let mut block = 0;
    let timed = Instant::now();
    loop {
        let mut g = spec.generator();
        let p = pass(&mut cluster, |c| c.run(g.as_mut()));
        attempted += exp.requests;
        failed += failures(&exp, &p);
        if t.passes.is_empty() {
            first_pass = digest(&p.stats);
        }
        if t.passes.len() < sim_passes {
            bytes += p.stats.bytes;
            elapsed += p.stats.elapsed.as_secs_f64();
            lat.merge(&p.stats.latency_hist_ms);
        }
        t.passes.push(p.host_ns as f64 / 1e9);
        block += 1;
        let done = t.passes.len() >= sim_passes && timed.elapsed().as_secs_f64() >= seconds;
        let open = &t.passes[t.passes.len() - block..];
        if done || open.iter().sum::<f64>() >= BLOCK_SECONDS {
            let unit = reference.measure();
            t.reference.push(unit);
            pass_norm.extend(open.iter().map(|s| s / unit));
            block = 0;
        }
        if done {
            break;
        }
    }
    let peak_rss_mb = status_mb("VmHWM") - reference_mb;
    drop(cluster);
    while t.setups.len() < SETUPS || t.setups.iter().sum::<f64>() < SETUP_SECONDS {
        let (_, warm) = timed_setup(&mut t, &mut reference);
        attempted += exp.requests;
        failed += failures(&exp, &warm);
    }
    let outcome = Outcome {
        correct: failed == 0,
        attempted,
        failed,
        values: vec![
            ("host_pass_s", median(&pass_norm) * REFERENCE_S),
            ("setup_s", median(&setup_norm) * REFERENCE_S),
            ("peak_rss_mb", peak_rss_mb),
            ("sim_mbps", bytes as f64 / elapsed / 1e6),
            ("sim_lat_p50_ms", quantile_ms(&lat, 0.50)),
            ("sim_lat_p99_ms", quantile_ms(&lat, 0.99)),
            ("ok_frac", 1.0 - ratio(failed as f64, attempted as f64)),
        ],
        first_pass,
    };
    (outcome, t)
}

/// Traced passes the per-layer numbers are averaged over. They always
/// run, so the counts repeat exactly whatever the budget; passes after
/// them only add samples to the host-time medians.
const TRACE_PASSES: usize = 8;

/// Totals over the first `TRACE_PASSES` traced passes.
#[derive(Debug, Default)]
struct Sums {
    run_ns: u64,
    next_calls: u64,
    next_ns: u64,
    policy: PolicyTotals,
    events: u64,
    requests: u64,
    elapsed_ns: u64,
    ra_bytes: u64,
    windows: u64,
    barriers: u64,
}

/// What the servers, the allocator and the metrics registry saw over the
/// first `TRACE_PASSES` traced passes.
struct Window {
    servers: Counters,
    allocs: (u64, u64),
    registry: Registry,
}

/// The traced run: per-layer metrics, with the spans it recorded.
pub fn trace(spec: &Spec, seconds: f64, rec: &Arc<Recorder>) -> Outcome {
    let exp = expected(spec);
    let mut attempted = 0;
    let mut failed = 0;
    let mut identical = true;

    let (mut reference, warm_ref, _) = setup(spec);
    attempted += exp.requests;
    failed += failures(&exp, &warm_ref);

    let deco = Decorator::new(SERVERS, rec);
    let ((mut traced, new_ns, prealloc_ns), _) = rec.span("setup", 0, |setup| {
        let (mut c, new_ns) =
            rec.span("pvfs.new", setup, |_| spec.build(&|id, p| deco.wrap(id, p)));
        let (_, prealloc_ns) = rec.span("pvfs.preallocate", setup, |_| spec.preallocate(&mut c));
        let warm = pass(&mut c, |c| {
            rec.span("pvfs.run", setup, |run| {
                rec.enter(run, 0);
                let mut g = spec.generator();
                c.run(&mut TimedWorkload::new(g.as_mut(), rec))
            })
            .0
        });
        attempted += exp.requests;
        failed += failures(&exp, &warm);
        identical &= digest(&warm.stats) == digest(&warm_ref.stats);
        (c, new_ns, prealloc_ns)
    });

    // (host seconds, events) of each untraced pass.
    let mut untraced: Vec<(f64, u64)> = Vec::new();
    let mut traced_s: Vec<f64> = Vec::new();
    let mut sums = Sums::default();
    let servers_before = Counters::of(&traced);
    let allocs_before = alloc::totals();
    let mut window = None;
    let mut first_pass = 0;
    let mut timed = 0.0;
    while traced_s.len() < TRACE_PASSES || timed < seconds {
        let mut g = spec.generator();
        let u = pass(&mut reference, |c| c.run(g.as_mut()));
        attempted += exp.requests;
        failed += failures(&exp, &u);

        let index = traced_s.len() as u32 + 1;
        let mut g = spec.generator();
        let windows_before = ibridge_pvfs::total_window_counters();
        ibridge_obs::set_metrics(true);
        alloc::set_counting(true);
        let mut next = (0, 0);
        let mut policy = PolicyTotals::default();
        let (p, _) = rec.span("pass", 0, |pass_id| {
            pass(&mut traced, |c| {
                rec.span("pvfs.run", pass_id, |run| {
                    rec.enter(run, index);
                    let mut w = TimedWorkload::new(g.as_mut(), rec);
                    let before = deco.totals();
                    let stats = c.run(&mut w);
                    policy = deco.totals().minus(&before);
                    next = (w.calls, w.ns);
                    stats
                })
                .0
            })
        });
        alloc::set_counting(false);
        ibridge_obs::set_metrics(false);
        let windows_after = ibridge_pvfs::total_window_counters();

        attempted += exp.requests;
        failed += failures(&exp, &p);
        identical &= digest(&p.stats) == digest(&u.stats);
        if traced_s.is_empty() {
            first_pass = digest(&p.stats);
        }
        timed += (u.host_ns + p.host_ns) as f64 / 1e9;
        untraced.push((u.host_ns as f64 / 1e9, u.stats.events_dispatched));
        traced_s.push(p.host_ns as f64 / 1e9);
        if traced_s.len() <= TRACE_PASSES {
            let s = &p.stats;
            sums.run_ns += p.host_ns;
            sums.next_calls += next.0;
            sums.next_ns += next.1;
            sums.policy = sums.policy.plus(&policy);
            sums.events += s.events_dispatched;
            sums.requests += s.requests;
            sums.elapsed_ns += s.elapsed.as_nanos();
            sums.ra_bytes += s.servers.iter().map(|x| x.ra_bytes).sum::<u64>();
            sums.windows += windows_after.0 - windows_before.0;
            sums.barriers += windows_after.1 - windows_before.1;
        }
        if traced_s.len() == TRACE_PASSES {
            let allocs = alloc::totals();
            window = Some(Window {
                servers: Counters::of(&traced).minus(&servers_before),
                allocs: (allocs.0 - allocs_before.0, allocs.1 - allocs_before.1),
                registry: ibridge_obs::metrics::snapshot(),
            });
        }
    }
    if !identical {
        eprintln!("ibench: the decorated cluster's RunStats differ from the plain cluster's");
    }

    let window = window.expect("the traced passes ran");
    let values = layer_values(&sums, &window, &traced_s, &untraced, new_ns, prealloc_ns);
    Outcome {
        correct: failed == 0 && identical,
        attempted,
        failed,
        values,
        first_pass,
    }
}

/// Per-pass means over the first `TRACE_PASSES` traced passes, except
/// the host-time medians and ratios over every pass of the run. The
/// host times of core, workloads and `pvfs.self` add up to `pvfs.run`.
fn layer_values(
    sums: &Sums,
    window: &Window,
    traced_s: &[f64],
    untraced: &[(f64, u64)],
    new_ns: u64,
    prealloc_ns: u64,
) -> Vec<(&'static str, f64)> {
    let k = TRACE_PASSES as f64;
    let d = &window.servers;
    let reg = &window.registry;
    let requests = sums.requests as f64;
    let events = sums.events as f64;
    let server_ns = sums.elapsed_ns as f64 * SERVERS as f64;
    let phase = |p: Phase| &reg.phases[p.idx()];
    let mean = |p: Phase| phase(p).mean().unwrap_or(0.0);
    let (pred, meas) = reg.servers.values().fold((0.0, 0.0), |(p, m), a| {
        (p + a.ti_pred_ns as f64, m + a.ti_meas_ns as f64)
    });
    let self_ns = sums.run_ns as f64 - sums.policy.total_ns() as f64 - sums.next_ns as f64;
    let untraced_s: Vec<f64> = untraced.iter().map(|&(secs, _)| secs).collect();
    let events_per_s: Vec<f64> = untraced
        .iter()
        .map(|&(secs, events)| events as f64 / secs)
        .collect();
    // LP 0 is the coordinator (clients and MDS); the rest are shards.
    let lp = &reg.pdes.lp_wall_ns;
    let lp_coord_ms = lp.first().copied().unwrap_or(0) as f64 / 1e6 / k;
    let lp_shards_ms = lp.iter().skip(1).sum::<u64>() as f64 / 1e6 / k;
    let calls = |i: usize| sums.policy.calls[i] as f64 / k;
    let ns = |i: usize| sums.policy.ns[i] as f64 / k;
    let per_pass = |x: u64| x as f64 / k;
    vec![
        ("workloads.next.calls", per_pass(sums.next_calls)),
        ("workloads.next.ns", per_pass(sums.next_ns)),
        ("core.place.calls", calls(0)),
        ("core.place.ns", ns(0)),
        ("core.read_admission.calls", calls(1)),
        ("core.read_admission.ns", ns(1)),
        ("core.flush_batch.calls", calls(2)),
        ("core.flush_batch.ns", ns(2)),
        ("core.log_maintenance.calls", calls(3)),
        ("core.log_maintenance.ns", ns(3)),
        ("core.other.ns", ns(4)),
        ("core.flush_ops", per_pass(sums.policy.flush_ops)),
        (
            "core.read_hit_ratio",
            ratio(d.read_hits as f64, (d.read_hits + d.read_misses) as f64),
        ),
        (
            "core.ssd_byte_frac",
            ratio(d.bytes_ssd as f64, (d.bytes_ssd + d.bytes_disk) as f64),
        ),
        (
            "core.admit_fail_ratio",
            ratio(
                d.admit_fail as f64,
                (d.admissions + d.redirected + d.admit_fail) as f64,
            ),
        ),
        ("core.evictions", per_pass(d.evictions)),
        ("core.ti_resid_pct", ratio(pred - meas, meas) * 100.0),
        (
            "core.seglog.write_amp",
            ratio(
                (d.backup_bytes + d.rewrite_bytes) as f64,
                d.backup_bytes as f64,
            ),
        ),
        (
            "core.seglog.busy_skip_ratio",
            ratio(d.maint_busy as f64, d.maint_ticks as f64),
        ),
        (
            "core.seglog.records_rewritten",
            per_pass(d.records_rewritten),
        ),
        ("pvfs.new.ns", new_ns as f64),
        ("pvfs.preallocate.ns", prealloc_ns as f64),
        ("pvfs.run.ns", per_pass(sums.run_ns)),
        ("pvfs.self.ns", self_ns / k),
        ("pvfs.self_ns_per_event", ratio(self_ns, events)),
        (
            "pvfs.pass_drift",
            ratio(
                untraced_s.last().copied().unwrap_or(0.0),
                untraced_s.first().copied().unwrap_or(0.0),
            ),
        ),
        ("pvfs.srv_queue_us_mean", mean(Phase::SrvQueue) / 1e3),
        ("des.events", events / k),
        ("des.events_per_request", ratio(events, requests)),
        ("des.events_per_host_s", median(&events_per_s)),
        (
            "des.allocs_per_event",
            ratio(window.allocs.0 as f64, events),
        ),
        (
            "des.alloc_bytes_per_event",
            ratio(window.allocs.1 as f64, events),
        ),
        ("des.windows", per_pass(sums.windows)),
        (
            "des.barriers_per_window",
            ratio(sums.barriers as f64, sums.windows as f64),
        ),
        ("des.lp_busy_ms.coord", lp_coord_ms),
        ("des.lp_busy_ms.shards", lp_shards_ms),
        (
            "net.msgs_per_request",
            ratio(phase(Phase::NetTx).count() as f64, requests),
        ),
        ("net.tx_us_mean", mean(Phase::NetTx) / 1e3),
        (
            "iosched.hdd.queue_ms_mean",
            mean(Phase::SchedQueueHdd) / 1e6,
        ),
        (
            "iosched.ssd.queue_ms_mean",
            mean(Phase::SchedQueueSsd) / 1e6,
        ),
        (
            "iosched.idle_grant_ratio",
            ratio(d.idle_grants as f64, d.idle_probes as f64),
        ),
        (
            "device.hdd.busy_frac",
            ratio(d.hdd_busy_ns as f64, server_ns),
        ),
        (
            "device.ssd.busy_frac",
            ratio(d.ssd_busy_ns as f64, server_ns),
        ),
        ("device.hdd.requests", per_pass(d.hdd_reqs)),
        ("device.ssd.requests", per_pass(d.ssd_reqs)),
        (
            "device.hdd.kb_per_dispatch",
            ratio(d.hdd_bytes as f64 / 1024.0, d.hdd_reqs as f64),
        ),
        (
            "device.hdd.seek_share",
            ratio(
                phase(Phase::DevSeekHdd).sum() as f64,
                phase(Phase::DevServiceHdd).sum() as f64,
            ),
        ),
        (
            "localfs.ra_hit_frac",
            ratio(
                sums.ra_bytes as f64,
                (sums.ra_bytes + d.hdd_bytes_read) as f64,
            ),
        ),
        ("mds.proposals", per_pass(reg.mds.proposals)),
        ("mds.commits", per_pass(reg.mds.commits)),
        ("mds.elections", per_pass(reg.mds.elections)),
        ("mds.stale_t_decisions", per_pass(reg.mds.stale_t_decisions)),
        (
            "obs.trace_overhead",
            ratio(median(traced_s), median(&untraced_s)),
        ),
    ]
}
