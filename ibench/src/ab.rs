//! `ibench ab OLD_BIN NEW_BIN`: the A/B protocol for claiming a gain or
//! ruling out a regression.
//!
//! Two `ibench` binaries, built from the two commits, run the same
//! workload with the same seed and budget in at least ten pairs; the
//! side that goes first alternates from pair to pair so drift in the
//! host hits both sides alike. For every end-to-end metric the report
//! gives each side's median and quartiles, how many pairs each side won
//! and a verdict:
//!
//! * `unresolved`: a side's spread (interquartile range over median) is
//!   wider than the metric's bound, unless every new run beat every old
//!   run;
//! * `REGRESSION`: the new median is worse than the old one by more than
//!   the bound;
//! * `gain`: the new side won at least nine tenths of the pairs and the
//!   medians differ by more than the old side's interquartile range;
//! * `same` otherwise.

use crate::json::Json;
use crate::metrics::{median, quartiles, spread, Better, END_TO_END};
use crate::{die, result_line, Opts};
use std::process::{Command, Stdio};

/// One side's result of one run: failures and metric values by name.
struct Run {
    failed: f64,
    values: Json,
}

impl Run {
    fn value(&self, name: &str) -> Option<f64> {
        self.values.get(name)?.get("value")?.num()
    }
}

fn run_once(bin: &str, workload: &str, o: &Opts) -> Run {
    let out = Command::new(bin)
        .args(["--workload", workload])
        .args(["--seed", &o.seed.to_string()])
        .args(["--seconds", &o.seconds.to_string()])
        .args(["--trace", "0"])
        .stderr(Stdio::inherit())
        .output()
        .unwrap_or_else(|e| die(&format!("cannot run {bin}: {e}")));
    let text = String::from_utf8_lossy(&out.stdout);
    let line = text.lines().last().unwrap_or_default();
    match (out.status.success(), result_line(line)) {
        (true, Ok(j)) => Run {
            failed: j.get("failed").and_then(Json::num).unwrap_or(0.0),
            values: j.get("metrics").cloned().unwrap_or(Json::Null),
        },
        (_, Err(e)) => die(&format!("{bin} --workload {workload}: no result ({e})")),
        (false, _) => die(&format!(
            "{bin} --workload {workload} failed ({})",
            out.status
        )),
    }
}

pub fn main(o: &Opts) {
    let [old, new] = &o.bins[..] else {
        die("ab needs two binaries: ibench ab OLD_BIN NEW_BIN");
    };
    if o.pairs < 10 {
        die("ab needs at least 10 pairs");
    }
    for kind in &o.kinds {
        let name = kind.name();
        let mut sides: [Vec<Run>; 2] = [Vec::new(), Vec::new()];
        for pair in 0..o.pairs {
            let order = if pair % 2 == 0 { [0, 1] } else { [1, 0] };
            for side in order {
                let bin = if side == 0 { old } else { new };
                sides[side].push(run_once(bin, name, o));
            }
            eprintln!("ab {name}: pair {}/{} done", pair + 1, o.pairs);
        }
        report(name, &sides, o);
    }
}

fn report(workload: &str, sides: &[Vec<Run>; 2], o: &Opts) {
    let failed: Vec<f64> = sides
        .iter()
        .map(|s| s.iter().map(|r| r.failed).sum())
        .collect();
    println!(
        "ab {workload}: {} pairs, seed {}, {} s per run; failed requests old {} new {}",
        o.pairs, o.seed, o.seconds, failed[0], failed[1]
    );
    println!(
        "  {:<16} {:>37} {:>37} {:>9} {:>13}  verdict",
        "metric", "old median [q1, q3]", "new median [q1, q3]", "change", "wins old/new"
    );
    for d in &END_TO_END {
        let vals: Vec<Vec<f64>> = sides
            .iter()
            .map(|s| s.iter().filter_map(|r| r.value(d.name)).collect())
            .collect();
        if vals.iter().any(|v| v.len() != o.pairs) {
            println!("  {:<16} missing on one side", d.name);
            continue;
        }
        let (old, new) = (&vals[0], &vals[1]);
        let better = |a: f64, b: f64| match d.better {
            Better::Lower => a < b,
            Better::Higher => a > b,
        };
        let new_wins = old
            .iter()
            .zip(new)
            .filter(|(a, b)| better(**b, **a))
            .count();
        let old_wins = old
            .iter()
            .zip(new)
            .filter(|(a, b)| better(**a, **b))
            .count();
        let (mo, mn) = (median(old), median(new));
        let (oq1, oq3) = quartiles(old);
        let (nq1, nq3) = quartiles(new);
        let bound = d.bound.unwrap_or(0.0);
        // Worsening of the new median, as a share of the old one.
        let worse = match d.better {
            Better::Lower => (mn - mo) / mo.abs(),
            Better::Higher => (mo - mn) / mo.abs(),
        };
        let all_better = new.iter().all(|b| old.iter().all(|a| better(*b, *a)));
        let verdict = if (spread(old) > bound || spread(new) > bound) && !all_better {
            "unresolved"
        } else if worse > bound {
            "REGRESSION"
        } else if new_wins * 10 >= o.pairs * 9 && (mn - mo).abs() > oq3 - oq1 {
            "gain"
        } else {
            "same"
        };
        println!(
            "  {:<16} {:>12.6} [{:>10.6}, {:>10.6}] {:>12.6} [{:>10.6}, {:>10.6}] {:>+8.2}% {:>6}/{:<6}  {verdict}",
            d.name,
            mo,
            oq1,
            oq3,
            mn,
            nq1,
            nq3,
            (mn - mo) / mo.abs() * 100.0,
            old_wins,
            new_wins
        );
    }
}
