//! Fault injection & recovery (beyond the paper).
//!
//! The paper's Sec. III-D writeback daemon and mapping-table backup
//! exist exactly so the SSD log survives failures; this experiment
//! measures what each fault class costs. Every builtin plan from
//! `ibridge-faults` runs the checkpoint workload on an iBridge cluster
//! and reports the throughput/latency deltas against the faultless
//! baseline plus the recovery counters (retries, timeouts, message
//! drops) and the durability cost (dirty bytes lost when an SSD dies,
//! seconds of degraded service).
//!
//! Fault schedules and all impairment draws derive from the experiment
//! seed, so the table is byte-identical at any `--jobs` level.

use crate::runpar::par_map;
use crate::{checkpoint_probe, Scale, Table};
use ibridge_core::IBridgeConfig;
use ibridge_faults::{builtin, FaultPlan};

/// The plans this table covers. A fixed list, not `BUILTIN_PLANS`: the
/// corruption plans (torn-write, bit-rot, mds-crash) report through the
/// `recovery` experiment instead, and the fault-matrix golden pins these
/// six rows byte-for-byte.
const SMOKE_PLANS: &[&str] = &["none", "crash", "ssd-loss", "fail-slow", "net", "chaos"];

/// The `faults` experiment: one row per builtin plan (plus the
/// `--fault-plan` one when given).
pub fn run(scale: &Scale) -> String {
    let mut plans: Vec<(String, FaultPlan)> = SMOKE_PLANS
        .iter()
        .map(|&name| {
            let text = builtin(name).expect("builtin listed");
            let plan = FaultPlan::parse(text).expect("builtin parses");
            (name.to_string(), plan)
        })
        .collect();
    if let Some(plan) = scale.fault_plan {
        plans.push(("custom".to_string(), plan.clone()));
    }
    // The probe's workload is the same at any scale; its cluster
    // follows `scale` (seed, page cache, audit cadence).
    let results = par_map(plans.clone(), |(_, plan)| {
        checkpoint_probe(scale, &plan, IBridgeConfig::paper_defaults)
    });

    let mut t = Table::new(
        "Faults — checkpoint workload under injected faults (iBridge, 4 servers)",
        &[
            "plan",
            "MB/s",
            "vs-none",
            "p99-ms",
            "retries",
            "timeouts",
            "dropped",
            "failed",
            "dirty-lost-KB",
            "degraded-s",
            "stalled-bcasts",
        ],
    );
    let baseline = results[0].throughput_mbps();
    for ((name, _), stats) in plans.iter().zip(&results) {
        let f = &stats.faults;
        let p99 = stats.latency_hist_ms.quantile(0.99).unwrap_or(0);
        t.row(&[
            name.clone(),
            format!("{:.1}", stats.throughput_mbps()),
            format!(
                "{:+.1}%",
                (stats.throughput_mbps() / baseline - 1.0) * 100.0
            ),
            p99.to_string(),
            f.retries.to_string(),
            f.timeouts.to_string(),
            f.dropped_messages.to_string(),
            f.failed_subs.to_string(),
            format!("{:.1}", f.dirty_bytes_lost as f64 / 1024.0),
            format!("{:.2}", f.degraded_secs()),
            f.stalled_broadcasts.to_string(),
        ]);
    }
    format!(
        "{}All schedules and impairment draws derive from the seed; the \
         table is identical at any --jobs level. 'dirty-lost-KB' is the \
         durability cost of losing the SSD log before the Sec. III-D \
         writeback daemon flushed it; 'degraded-s' sums per-server time \
         crashed, slowed or running without a cache device; \
         'stalled-bcasts' counts T reports the metadata server could not \
         broadcast while it was down.\n\n",
        t.block()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The builtin MDS outage (80–200 ms) holds the probe's 20 ms T
    /// reports, so its row counts stalled broadcasts.
    #[test]
    fn builtin_mds_crash_stalls_broadcasts() {
        let plan = FaultPlan::parse(builtin("mds-crash").expect("builtin")).expect("parses");
        let scale = Scale {
            fault_plan: Some(Box::leak(Box::new(plan))),
            ..Scale::quick()
        };
        let out = run(&scale);
        let row = out
            .lines()
            .find(|l| l.starts_with("custom"))
            .expect("custom row");
        let stalled: u64 = row
            .split_whitespace()
            .last()
            .and_then(|c| c.parse().ok())
            .expect("stalled-bcasts cell");
        assert!(stalled > 0, "{row}");
    }
}
