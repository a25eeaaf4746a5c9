//! `ibench check`: a few seconds of self-checks on shrunken versions of
//! the four workloads. The same checks run as unit tests
//! (`cargo test --manifest-path ibench/Cargo.toml`).
//!
//! * the timing decorators are transparent: wrapped and unwrapped
//!   clusters give identical `RunStats` digests;
//! * hetero-pdes gives the same digests at one and at two threads;
//! * every run passes the online invariant auditor (every 5 ms of
//!   virtual time); a violation panics inside the simulator;
//! * every declared metric is emitted, in declared order, for every
//!   workload, and the shrunken runs are correct.

use crate::measure;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::timing::{Decorator, Recorder, TimedWorkload};
use crate::workloads::{Kind, Spec, SERVERS};
use ibridge_des::SimDuration;
use ibridge_pvfs::CachePolicy;
use std::sync::Arc;

/// Data sizes of the quick versions are the benchmark's divided by this.
const SHRINK: u64 = 16;

fn tiny(kind: Kind) -> Spec {
    Spec {
        shrink: SHRINK,
        audit: Some(SimDuration::from_millis(5)),
        ..Spec::new(kind, 42)
    }
}

/// Digests of the warm-up pass and one timed pass, with or without the
/// decorators; also returns the auditor passes the runs made.
fn digests(spec: &Spec, wrapped: bool) -> (Vec<u64>, u64) {
    let rec = Arc::new(Recorder::default());
    let deco = Decorator::new(SERVERS, &rec);
    let wrap = |id: usize, p: Box<dyn CachePolicy>| -> Box<dyn CachePolicy> {
        if wrapped {
            deco.wrap(id, p)
        } else {
            p
        }
    };
    let audits = ibridge_pvfs::total_fault_counters().audits;
    let mut c = spec.build(&wrap);
    spec.preallocate(&mut c);
    let d = (0..2)
        .map(|_| {
            let mut g = spec.generator();
            let stats = if wrapped {
                c.run(&mut TimedWorkload::new(g.as_mut(), &rec))
            } else {
                c.run(g.as_mut())
            };
            measure::digest(&stats)
        })
        .collect();
    (d, ibridge_pvfs::total_fault_counters().audits - audits)
}

pub fn transparent_and_audited(kind: Kind) -> Result<(), String> {
    let spec = tiny(kind);
    let (plain, audits) = digests(&spec, false);
    let (wrapped, _) = digests(&spec, true);
    if plain != wrapped {
        return Err(format!(
            "{}: decorated run differs from plain run",
            kind.name()
        ));
    }
    if audits == 0 {
        return Err(format!("{}: the invariant auditor never ran", kind.name()));
    }
    Ok(())
}

pub fn threads_agree() -> Result<(), String> {
    let one = Spec {
        threads: 1,
        ..tiny(Kind::HeteroPdes)
    };
    let two = Spec { threads: 2, ..one };
    if digests(&one, false).0 != digests(&two, false).0 {
        return Err("hetero-pdes: --threads 1 and --threads 2 differ".into());
    }
    Ok(())
}

pub fn metrics_emitted(kind: Kind) -> Result<(), String> {
    let spec = tiny(kind);
    let (run, _) = measure::run(&spec, 0.0);
    let rec = Arc::new(Recorder::default());
    let trace = measure::trace(&spec, 0.0, &rec);
    for (what, outcome, decls) in [
        ("run", &run, &END_TO_END[..]),
        ("trace", &trace, &PER_LAYER[..]),
    ] {
        let got: Vec<&str> = outcome.values.iter().map(|(n, _)| *n).collect();
        let want: Vec<&str> = decls.iter().map(|d| d.name).collect();
        if got != want {
            return Err(format!(
                "{} {what}: emitted {got:?}, declared {want:?}",
                kind.name()
            ));
        }
        if !outcome.correct || outcome.failed > 0 {
            return Err(format!(
                "{} {what}: outputs failed their checks",
                kind.name()
            ));
        }
        if let Some((n, v)) = outcome.values.iter().find(|(_, v)| !v.is_finite()) {
            return Err(format!("{} {what}: {n} = {v}", kind.name()));
        }
    }
    if let Some((n, _)) = run.values.iter().find(|(_, v)| *v <= 0.0) {
        return Err(format!(
            "{}: end-to-end metric {n} is not positive",
            kind.name()
        ));
    }
    Ok(())
}

type Check = fn(Kind) -> Result<(), String>;

pub fn main() {
    let mut checks: Vec<(String, Check, Kind)> = Vec::new();
    for kind in Kind::ALL {
        checks.push((
            format!("transparent+audited {}", kind.name()),
            transparent_and_audited,
            kind,
        ));
        checks.push((
            format!("metrics emitted {}", kind.name()),
            metrics_emitted,
            kind,
        ));
    }
    checks.push((
        "threads 1 = 2 hetero-pdes".into(),
        |_| threads_agree(),
        Kind::HeteroPdes,
    ));
    let mut bad = 0;
    for (name, f, kind) in checks {
        let start = std::time::Instant::now();
        match f(kind) {
            Ok(()) => println!("ok    {name} ({:.2}s)", start.elapsed().as_secs_f64()),
            Err(e) => {
                bad += 1;
                println!("FAIL  {name}: {e}");
            }
        }
    }
    if bad > 0 {
        crate::die(&format!("{bad} check(s) failed"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// The auditor count, the metrics switch and the allocation counter
    /// are process-wide, so these tests take turns.
    static SERIAL: Mutex<()> = Mutex::new(());

    fn serial() -> std::sync::MutexGuard<'static, ()> {
        SERIAL.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn decorators_are_transparent_and_runs_pass_the_auditor() {
        let _g = serial();
        for kind in Kind::ALL {
            transparent_and_audited(kind).unwrap();
        }
    }

    #[test]
    fn hetero_pdes_is_identical_at_one_and_two_threads() {
        let _g = serial();
        threads_agree().unwrap();
    }

    #[test]
    fn every_declared_metric_is_emitted_for_every_workload() {
        let _g = serial();
        for kind in Kind::ALL {
            metrics_emitted(kind).unwrap();
        }
    }

    #[test]
    fn benchmark_json_declares_the_same_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).unwrap();
        let j = crate::json::Json::parse(&text).unwrap();
        for (key, decls) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed = j.get(key).unwrap().arr();
            assert_eq!(listed.len(), decls.len(), "{key}");
            for (l, d) in listed.iter().zip(decls) {
                assert_eq!(l.get("name").and_then(|v| v.str()), Some(d.name));
                assert_eq!(l.get("unit").and_then(|v| v.str()), Some(d.unit));
                assert_eq!(
                    l.get("better").and_then(|v| v.str()),
                    Some(d.better.as_str())
                );
                assert_eq!(l.get("bound").and_then(|v| v.num()), d.bound, "{}", d.name);
            }
        }
        let names: Vec<&str> = j
            .get("workloads")
            .unwrap()
            .arr()
            .iter()
            .filter_map(|w| w.get("name").and_then(|v| v.str()))
            .collect();
        let want: Vec<&str> = Kind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(names, want);
    }
}
