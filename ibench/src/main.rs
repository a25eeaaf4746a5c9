//! `ibench`: the benchmark of the iBridge simulator.
//!
//! ```text
//! ibench run   [--workload NAME|all] [--seed N] [--seconds S]   # end-to-end metrics
//! ibench trace [--workload NAME|all] [--seed N] [--seconds S] [--trace-out FILE]
//!                                                               # per-layer metrics
//! ibench check                                                  # quick self-checks
//! ibench ab OLD_BIN NEW_BIN [--pairs N] [--workload NAME|all] [--seed N] [--seconds S]
//! ibench --workload NAME --seed N --seconds S --trace 0|1       # run (0) or trace (1)
//! ```
//!
//! Each workload runs in a fresh child process of this binary; the
//! parent only relays the child's report and checks that its last line
//! is a well-formed result. The last line of standard output is always
//! one JSON object: `{"correct", "attempted", "failed", "metrics"}`.

mod ab;
mod alloc;
mod check;
mod json;
mod measure;
mod metrics;
mod reference;
mod timing;
mod workloads;

use json::Json;
use std::process::{Command, Stdio};
use std::sync::Arc;
use workloads::{Kind, Spec};

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

const USAGE: &str = "usage: ibench [run|trace] [--workload NAME|all] [--seed N] [--seconds S] \
                     [--trace 0|1] [--trace-out FILE]\n       ibench check\n       \
                     ibench ab OLD_BIN NEW_BIN [--pairs N] [--workload NAME|all] [--seed N] \
                     [--seconds S]";

/// Options shared by `run`, `trace`, `ab` and the child.
#[derive(Debug)]
pub struct Opts {
    pub kinds: Vec<Kind>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub trace_out: Option<String>,
    pub pairs: usize,
    pub bins: Vec<String>,
}

impl Default for Opts {
    fn default() -> Self {
        Opts {
            kinds: Kind::ALL.to_vec(),
            seed: 42,
            seconds: 20.0,
            trace: false,
            trace_out: None,
            pairs: 10,
            bins: Vec::new(),
        }
    }
}

fn value<'a>(it: &mut impl Iterator<Item = &'a String>, flag: &str) -> &'a str {
    it.next()
        .unwrap_or_else(|| die(&format!("{flag} needs a value")))
}

fn number<T: std::str::FromStr>(text: &str, flag: &str) -> T {
    text.parse()
        .unwrap_or_else(|_| die(&format!("{flag}: '{text}' is not a valid number")))
}

pub fn parse(args: &[String], trace: bool) -> Opts {
    let mut o = Opts {
        trace,
        ..Opts::default()
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--workload" => {
                let v = value(&mut it, a);
                o.kinds = if v == "all" {
                    Kind::ALL.to_vec()
                } else {
                    vec![Kind::parse(v).unwrap_or_else(|| {
                        let names: Vec<&str> = Kind::ALL.iter().map(|k| k.name()).collect();
                        die(&format!(
                            "unknown workload '{v}'; one of {}",
                            names.join(", ")
                        ))
                    })]
                };
            }
            "--seed" => o.seed = number(value(&mut it, a), a),
            "--seconds" => {
                o.seconds = number(value(&mut it, a), a);
                if !(o.seconds >= 0.0 && o.seconds.is_finite()) {
                    die("--seconds must be a non-negative number");
                }
            }
            "--trace" => {
                o.trace = match value(&mut it, a) {
                    "0" => false,
                    "1" => true,
                    v => die(&format!("--trace takes 0 or 1, not '{v}'")),
                }
            }
            "--trace-out" => o.trace_out = Some(value(&mut it, a).to_string()),
            "--pairs" => {
                o.pairs = number(value(&mut it, a), a);
                if o.pairs == 0 {
                    die("--pairs must be at least 1");
                }
            }
            flag if flag.starts_with('-') => die(&format!("unknown flag {flag}\n{USAGE}")),
            bin => o.bins.push(bin.to_string()),
        }
    }
    if o.trace_out.is_some() && o.kinds.len() != 1 {
        die("--trace-out needs a single --workload");
    }
    o
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let rest = args.get(1..).unwrap_or_default();
    match args.first().map(String::as_str) {
        Some("run") => parent(&parse(rest, false)),
        Some("trace") => parent(&parse(rest, true)),
        Some("child") => child(&parse(rest, false)),
        Some("check") => check::main(),
        Some("ab") => ab::main(&parse(rest, false)),
        Some("--help" | "-h") => println!("{USAGE}"),
        _ => parent(&parse(&args, false)),
    }
}

/// Runs each chosen workload in a fresh child process, one after another.
fn parent(o: &Opts) {
    let exe =
        std::env::current_exe().unwrap_or_else(|e| die(&format!("cannot find own binary: {e}")));
    for kind in &o.kinds {
        let mut cmd = Command::new(&exe);
        cmd.args(["child", "--workload", kind.name()])
            .args(["--seed", &o.seed.to_string()])
            .args(["--seconds", &o.seconds.to_string()])
            .args(["--trace", if o.trace { "1" } else { "0" }]);
        if let Some(path) = &o.trace_out {
            cmd.args(["--trace-out", path]);
        }
        let out = cmd
            .stderr(Stdio::inherit())
            .output()
            .unwrap_or_else(|e| die(&format!("cannot start the {} child: {e}", kind.name())));
        let text = String::from_utf8_lossy(&out.stdout);
        if !out.status.success() {
            eprint!("{text}");
            die(&format!(
                "the {} child failed ({})",
                kind.name(),
                out.status
            ));
        }
        let last = text.lines().last().unwrap_or_default();
        if let Err(e) = result_line(last) {
            eprint!("{text}");
            die(&format!("the {} child printed no result: {e}", kind.name()));
        }
        print!("{text}");
    }
}

/// Checks the shape of a result line and returns it parsed.
pub fn result_line(line: &str) -> Result<Json, String> {
    let j = Json::parse(line)?;
    let keys: Vec<&str> = j.entries().iter().map(|(k, _)| k.as_str()).collect();
    if keys != ["correct", "attempted", "failed", "metrics"] {
        return Err(format!("unexpected keys {keys:?}"));
    }
    Ok(j)
}

/// Measures one workload in this process and prints its report.
fn child(o: &Opts) {
    let [kind] = o.kinds[..] else {
        die("the child runs exactly one --workload");
    };
    let spec = Spec::new(kind, o.seed);
    let mode = if o.trace { "trace" } else { "run" };
    println!(
        "ibench {mode} {} seed {} seconds {} (host CPUs: {})",
        kind.name(),
        o.seed,
        o.seconds,
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let outcome = if o.trace {
        let rec = Arc::new(timing::Recorder::default());
        let outcome = measure::trace(&spec, o.seconds, &rec);
        let get = |n: &str| outcome.get(n).unwrap_or(0.0);
        let run = get("pvfs.run.ns");
        let core: f64 = [
            "place",
            "read_admission",
            "flush_batch",
            "log_maintenance",
            "other",
        ]
        .iter()
        .map(|op| get(&format!("core.{op}.ns")))
        .sum();
        let share = |ns: f64| ns / run * 100.0;
        println!(
            "  mean traced pass: pvfs.run {:.1} ms = core {:.1}% + workloads {:.1}% + pvfs.self {:.1}%",
            run / 1e6,
            share(core),
            share(get("workloads.next.ns")),
            share(get("pvfs.self.ns"))
        );
        if let Some(path) = &o.trace_out {
            let spans = rec.spans();
            std::fs::write(path, timing::chrome_json(&spans, kind.name()))
                .unwrap_or_else(|e| die(&format!("cannot write {path}: {e}")));
            println!("  trace: {} spans -> {path}", spans.len());
        }
        outcome
    } else {
        let (outcome, t) = measure::run(&spec, o.seconds);
        let passes: Vec<String> = t.passes.iter().map(|s| format!("{s:.3}")).collect();
        println!(
            "  {} timed passes, host s: {} (last/first {:.3})",
            t.passes.len(),
            passes.join(" "),
            t.passes.last().unwrap_or(&0.0) / t.passes.first().unwrap_or(&1.0)
        );
        println!(
            "  raw medians: pass {:.6} s, set-up {:.6} s over {} set-ups; reference unit \
             {:.6} s over {} units ({:.6} s on the reference host)",
            metrics::median(&t.passes),
            metrics::median(&t.setups),
            t.setups.len(),
            metrics::median(&t.reference),
            t.reference.len(),
            reference::REFERENCE_S
        );
        outcome
    };
    println!(
        "  first timed pass RunStats digest {:016x}",
        outcome.first_pass
    );
    print!("{}", outcome.render());
    println!("{}", outcome.json());
}

pub fn die(msg: &str) -> ! {
    eprintln!("ibench: {msg}");
    std::process::exit(2);
}
