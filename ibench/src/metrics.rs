//! Metric declarations, the result line and the order statistics every
//! report uses.
//!
//! `BENCHMARK.json` at the repository root declares the same metrics;
//! a test keeps the two in step.

use std::fmt::Write as _;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One declared metric. `bound` is the share of the baseline median by
/// which an end-to-end metric may worsen before it is a regression;
/// per-layer metrics carry none.
#[derive(Debug, Clone, Copy)]
pub struct Decl {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Decl {
    Decl {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Decl {
    Decl {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// What a user of the simulator sees: host cost of producing a result
/// and the simulated cluster's behaviour (the paper's metrics).
pub const END_TO_END: [Decl; 7] = [
    e2e("host_pass_s", "s", Lower, 0.15),
    e2e("setup_s", "s", Lower, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.20),
    e2e("sim_mbps", "MB/s", Higher, 0.05),
    e2e("sim_lat_p50_ms", "ms", Lower, 0.15),
    e2e("sim_lat_p99_ms", "ms", Lower, 0.20),
    e2e("ok_frac", "ratio", Higher, 0.000001),
];

/// Per-layer numbers of the traced run, named `<layer>.<what>`.
pub const PER_LAYER: [Decl; 53] = [
    layer("workloads.next.calls", "count", Lower),
    layer("workloads.next.ns", "ns", Lower),
    layer("core.place.calls", "count", Lower),
    layer("core.place.ns", "ns", Lower),
    layer("core.read_admission.calls", "count", Lower),
    layer("core.read_admission.ns", "ns", Lower),
    layer("core.flush_batch.calls", "count", Lower),
    layer("core.flush_batch.ns", "ns", Lower),
    layer("core.log_maintenance.calls", "count", Lower),
    layer("core.log_maintenance.ns", "ns", Lower),
    layer("core.other.ns", "ns", Lower),
    layer("core.flush_ops", "count", Lower),
    layer("core.read_hit_ratio", "ratio", Higher),
    layer("core.ssd_byte_frac", "ratio", Higher),
    layer("core.admit_fail_ratio", "ratio", Lower),
    layer("core.evictions", "count", Lower),
    layer("core.ti_resid_pct", "%", Lower),
    layer("core.seglog.write_amp", "ratio", Lower),
    layer("core.seglog.busy_skip_ratio", "ratio", Lower),
    layer("core.seglog.records_rewritten", "count", Lower),
    layer("pvfs.new.ns", "ns", Lower),
    layer("pvfs.preallocate.ns", "ns", Lower),
    layer("pvfs.run.ns", "ns", Lower),
    layer("pvfs.self.ns", "ns", Lower),
    layer("pvfs.self_ns_per_event", "ns", Lower),
    layer("pvfs.pass_drift", "ratio", Lower),
    layer("pvfs.srv_queue_us_mean", "us", Lower),
    layer("des.events", "count", Lower),
    layer("des.events_per_request", "count", Lower),
    layer("des.events_per_host_s", "1/s", Higher),
    layer("des.allocs_per_event", "count", Lower),
    layer("des.alloc_bytes_per_event", "B", Lower),
    layer("des.windows", "count", Lower),
    layer("des.barriers_per_window", "ratio", Lower),
    layer("des.lp_busy_ms.coord", "ms", Lower),
    layer("des.lp_busy_ms.shards", "ms", Lower),
    layer("net.msgs_per_request", "count", Lower),
    layer("net.tx_us_mean", "us", Lower),
    layer("iosched.hdd.queue_ms_mean", "ms", Lower),
    layer("iosched.ssd.queue_ms_mean", "ms", Lower),
    layer("iosched.idle_grant_ratio", "ratio", Higher),
    layer("device.hdd.busy_frac", "ratio", Lower),
    layer("device.ssd.busy_frac", "ratio", Lower),
    layer("device.hdd.requests", "count", Lower),
    layer("device.ssd.requests", "count", Lower),
    layer("device.hdd.kb_per_dispatch", "KB", Higher),
    layer("device.hdd.seek_share", "ratio", Lower),
    layer("localfs.ra_hit_frac", "ratio", Higher),
    layer("mds.proposals", "count", Lower),
    layer("mds.commits", "count", Lower),
    layer("mds.elections", "count", Lower),
    layer("mds.stale_t_decisions", "count", Lower),
    layer("obs.trace_overhead", "ratio", Lower),
];

pub fn find(name: &str) -> Option<&'static Decl> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|d| d.name == name)
}

/// The benchmark's result: pass/fail accounting plus named values.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub values: Vec<(&'static str, f64)>,
    /// Digest of the first timed pass's `RunStats`: `run` and `trace` of
    /// one seed must print the same one.
    pub first_pass: u64,
}

impl Outcome {
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    /// Human-readable lines: every metric with its unit.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for &(name, value) in &self.values {
            let (unit, better) = find(name).map_or(("", ""), |d| (d.unit, d.better.as_str()));
            let _ = writeln!(
                out,
                "  {name:<30} {value:>18.6} {unit:<6} ({better} is better)"
            );
        }
        out
    }

    /// The one-line JSON result. Values print in Rust's shortest
    /// round-trip form, i.e. with every digit measured.
    pub fn json(&self) -> String {
        let mut m = String::new();
        for (i, &(name, value)) in self.values.iter().enumerate() {
            let unit = find(name).map_or("", |d| d.unit);
            let value = if value.is_finite() { value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                m,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
            self.correct, self.attempted, self.failed
        )
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile by the "exclusive" method, as Python's
/// `statistics.quantiles(values, n=4)` computes them.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let q = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        v[j - 1] + delta * (v[j] - v[j - 1]) / 4.0
    };
    (q(1), q(3))
}

/// Interquartile range as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    ratio(q3 - q1, median(values).abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn names_are_well_formed_and_unique() {
        let all: Vec<&Decl> = END_TO_END.iter().chain(PER_LAYER.iter()).collect();
        for d in &all {
            assert!(
                !d.name.is_empty()
                    && d.name.len() <= 64
                    && d.name
                        .chars()
                        .next()
                        .is_some_and(|c| c.is_ascii_alphanumeric())
                    && d.name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "bad metric name {}",
                d.name
            );
            assert!(
                d.unit.len() <= 16
                    && d.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit {}",
                d.unit
            );
            assert_eq!(
                all.iter().filter(|o| o.name == d.name).count(),
                1,
                "{}",
                d.name
            );
        }
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s" && d.better == Lower));
    }
}
