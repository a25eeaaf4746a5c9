//! The fault-plan DSL.
//!
//! A [`FaultPlan`] is a small line-oriented schedule of faults to inject
//! into a simulated cluster, written in virtual time relative to the
//! start of the run it is armed for:
//!
//! ```text
//! # Lose server 1 mid-run, bring it back 60 ms later.
//! retry timeout=400ms backoff=2 max=8
//! crash server=1 at=120ms restart=60ms
//! ssd-loss server=0 at=100ms
//! fail-slow server=2 dev=primary from=80ms until=300ms factor=6
//! net from=50ms until=350ms drop=0.03 delay=0.05 delay-by=2ms dup=0.02
//! torn-write server=1 at=150ms restart=60ms records=2
//! bit-rot server=0 at=100ms sectors=3
//! mds-crash at=80ms restart=120ms
//! ```
//!
//! Each directive is `name key=value ...`; blank lines and `#` comments
//! are ignored. Durations require an explicit unit (`ns`, `us`, `ms`,
//! `s`) and may not exceed `MAX_DURATION` (10^9 s); counts must fit their
//! field. Parse failures carry the line number and the offending line so
//! tooling can quote them back verbatim.

use ibridge_des::SimDuration;
use ibridge_net::Impairment;
use std::fmt;

/// The longest duration a plan may give (10^9 s, about 31.7 years of
/// virtual time). It keeps every instant a plan yields in range: the
/// injector adds two durations (`at + restart`), the cluster adds the
/// result to the run's start, and the client's longest retry wait,
/// `timeout * backoff^max`, must not exceed it either.
const MAX_DURATION: SimDuration = SimDuration::from_secs(1_000_000_000);

/// Which of a data server's block devices: the one a fail-slow window
/// degrades, and the one a server action or completion belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DevKind {
    /// The device holding the datafiles (disk, or SSD in SSD-only mode).
    Primary,
    /// The iBridge SSD cache.
    Cache,
}

/// A discrete fault the cluster executes at a scheduled instant. The
/// parser emits the closing events (`Restart`, `SlowEnd`, `MdsRestart`)
/// next to the directive that opens them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TimedFault {
    /// Kill the server process; in-flight work on the node dies.
    Crash {
        /// Victim server.
        server: usize,
    },
    /// Bring a crashed server back and replay its mapping-table backup.
    Restart {
        /// Recovering server.
        server: usize,
    },
    /// The SSD cache device fails permanently: the log and every cached
    /// byte (dirty data included) are gone, and the server degrades to
    /// the HDD-only path for the rest of the run.
    SsdLoss {
        /// Victim server.
        server: usize,
    },
    /// Begin a fail-slow window: the device serves requests `factor`
    /// times slower until the matching `SlowEnd`.
    SlowStart {
        /// Victim server.
        server: usize,
        /// Which device degrades.
        dev: DevKind,
        /// Service-time multiplier (> 1 slows the device down).
        factor: f64,
    },
    /// End a fail-slow window (restore the healthy service time).
    SlowEnd {
        /// Recovering server.
        server: usize,
        /// Which device recovers.
        dev: DevKind,
    },
    /// Tear the newest mapping-table backup records mid-write. Emitted
    /// immediately before the `Crash` it accompanies, so the records are
    /// truncated on media before the restart's recovery fsck runs.
    TornWrite {
        /// Victim server.
        server: usize,
        /// How many of the newest backup records are torn.
        records: u32,
    },
    /// Silently flip bits in resident backup-log records. Surfaces at
    /// the next restart's recovery fsck — unless the background
    /// scrubber repairs it first.
    BitRot {
        /// Victim server.
        server: usize,
        /// Number of corrupting hits (one bit flip each).
        sectors: u32,
        /// Placement seed: 0 in a parsed plan, drawn by the injector.
        seed: u64,
        /// Which backup-media region the hits land in.
        target: RotTarget,
    },
    /// The metadata server crashes: T-value reports and broadcasts
    /// stall, and data servers keep serving with last-known T values.
    MdsCrash,
    /// The metadata server restarts with the T table it had, and
    /// reporting resumes.
    MdsRestart,
}

impl TimedFault {
    /// The data server this fault targets, or `None` for an MDS fault.
    /// Mutable so a cluster can fold a plan's server ids into its range.
    pub fn server_mut(&mut self) -> Option<&mut usize> {
        match self {
            TimedFault::Crash { server }
            | TimedFault::Restart { server }
            | TimedFault::SsdLoss { server }
            | TimedFault::SlowStart { server, .. }
            | TimedFault::SlowEnd { server, .. }
            | TimedFault::TornWrite { server, .. }
            | TimedFault::BitRot { server, .. } => Some(server),
            TimedFault::MdsCrash | TimedFault::MdsRestart => None,
        }
    }
}

/// Which backup-media region a `bit-rot` directive aims at. The segmented
/// backup keeps two kinds of media: log-tail segments and the indexed
/// checkpoint image; plans can rot either specifically.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum RotTarget {
    /// Any resident backup record, tail and checkpoint alike (the
    /// default).
    #[default]
    Any,
    /// Log-tail records only (seqs newer than the checkpoint covers).
    Tail,
    /// Checkpoint-image records only.
    Checkpoint,
}

/// Client-side timeout/retry policy used while a plan is armed.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryConfig {
    /// Initial per-sub-request timeout.
    pub timeout: SimDuration,
    /// Timeout multiplier per attempt (exponential backoff).
    pub backoff: f64,
    /// Maximum number of retries before the sub-request is abandoned
    /// and reported as failed.
    pub max_retries: u32,
}

impl Default for RetryConfig {
    fn default() -> Self {
        RetryConfig {
            timeout: SimDuration::from_millis(1000),
            backoff: 2.0,
            max_retries: 10,
        }
    }
}

impl RetryConfig {
    /// The timeout to wait before declaring attempt number `attempt`
    /// (0-based) failed: `timeout * backoff^attempt`. The last attempt
    /// the client makes is number `max_retries`.
    pub fn backoff_delay(&self, attempt: u32) -> SimDuration {
        self.timeout.mul_f64(self.backoff.powi(attempt as i32))
    }
}

/// A parsed fault schedule plus the retry policy to recover from it.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Timed faults as offsets from the armed run's start, in directive
    /// order (a directive's closing event right after its opening one).
    pub faults: Vec<(SimDuration, TimedFault)>,
    /// Network impairment windows `[from, until)`, in directive order:
    /// data-plane messages (requests and replies) sent inside one are
    /// dropped / delayed / duplicated with its probabilities. Control
    /// traffic (T-value reports and broadcasts) is assumed reliable.
    pub windows: Vec<(SimDuration, SimDuration, Impairment)>,
    /// Client retry policy (DSL `retry` directive, or the default).
    pub retry: RetryConfig,
}

/// A parse failure, carrying the offending line verbatim.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanError {
    /// 1-based line number within the plan text.
    pub line_no: usize,
    /// The offending line, trimmed.
    pub line: String,
    /// What was wrong with it.
    pub why: String,
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: `{}`: {}", self.line_no, self.line, self.why)
    }
}

impl std::error::Error for PlanError {}

impl FaultPlan {
    /// True when the plan schedules nothing — arming it must be
    /// byte-identical to not arming any plan at all.
    pub fn is_faultless(&self) -> bool {
        self.faults.is_empty() && self.windows.is_empty()
    }

    /// Parses the DSL text. See the module docs for the grammar.
    pub fn parse(text: &str) -> Result<FaultPlan, PlanError> {
        let mut plan = FaultPlan::default();
        for (idx, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let err = |why: String| PlanError {
                line_no: idx + 1,
                line: line.to_string(),
                why,
            };
            let mut words = line.split_whitespace();
            let directive = words.next().expect("non-empty line has a first word");
            if !matches!(
                directive,
                "retry"
                    | "crash"
                    | "ssd-loss"
                    | "fail-slow"
                    | "net"
                    | "torn-write"
                    | "bit-rot"
                    | "mds-crash"
            ) {
                return Err(err(format!(
                    "unknown directive '{directive}' (expected one of: retry, crash, \
                     ssd-loss, fail-slow, net, torn-write, bit-rot, mds-crash)"
                )));
            }
            let mut args = Args::new(words.collect(), line, idx + 1)?;
            match directive {
                "retry" => {
                    let defaults = RetryConfig::default();
                    let retry = RetryConfig {
                        timeout: args.duration("timeout")?,
                        backoff: args.float_or("backoff", defaults.backoff, 1.0, 64.0)?,
                        max_retries: args.u32_or("max", defaults.max_retries)?,
                    };
                    // A zero timeout would fire at the send instant, and
                    // make the longest wait below 0 * inf = NaN.
                    if retry.timeout == SimDuration::ZERO {
                        return Err(err("timeout must be > 0".into()));
                    }
                    let longest = retry.timeout.as_secs_f64()
                        * retry.backoff.powf(f64::from(retry.max_retries));
                    if longest > MAX_DURATION.as_secs_f64() {
                        return Err(err(format!(
                            "'max' retries would wait longer than {MAX_DURATION} \
                             (timeout * backoff^max)"
                        )));
                    }
                    plan.retry = retry;
                }
                "crash" => {
                    let server = args.int("server")? as usize;
                    let at = args.duration("at")?;
                    let restart = args.duration("restart")?;
                    if restart == SimDuration::ZERO {
                        return Err(err("restart must be > 0".into()));
                    }
                    plan.faults.push((at, TimedFault::Crash { server }));
                    plan.faults
                        .push((at + restart, TimedFault::Restart { server }));
                }
                "ssd-loss" => {
                    let server = args.int("server")? as usize;
                    let at = args.duration("at")?;
                    plan.faults.push((at, TimedFault::SsdLoss { server }));
                }
                "fail-slow" => {
                    let from = args.duration("from")?;
                    let until = args.duration("until")?;
                    if until <= from {
                        return Err(err(format!("until ({until}) must be after from ({from})")));
                    }
                    let server = args.int("server")? as usize;
                    let dev = args.dev("dev")?;
                    let factor = args.float("factor", 1.0, 1e6)?;
                    plan.faults.push((
                        from,
                        TimedFault::SlowStart {
                            server,
                            dev,
                            factor,
                        },
                    ));
                    plan.faults
                        .push((until, TimedFault::SlowEnd { server, dev }));
                }
                "net" => {
                    let from = args.duration("from")?;
                    let until = args.duration("until")?;
                    if until <= from {
                        return Err(err(format!("until ({until}) must be after from ({from})")));
                    }
                    let imp = Impairment {
                        drop: args.prob("drop")?,
                        delay: args.prob("delay")?,
                        delay_by: args.duration_or("delay-by", SimDuration::ZERO)?,
                        dup: args.prob("dup")?,
                    };
                    if imp.drop + imp.delay + imp.dup > 1.0 {
                        return Err(err("drop + delay + dup must not exceed 1".into()));
                    }
                    if imp.delay > 0.0 && imp.delay_by == SimDuration::ZERO {
                        return Err(err("delay > 0 requires delay-by=<duration>".into()));
                    }
                    plan.windows.push((from, until, imp));
                }
                "torn-write" => {
                    let restart = args.duration("restart")?;
                    if restart == SimDuration::ZERO {
                        return Err(err("restart must be > 0".into()));
                    }
                    let records = args.u32_or("records", 1)?;
                    if records == 0 {
                        return Err(err("records must be > 0".into()));
                    }
                    let server = args.int("server")? as usize;
                    let at = args.duration("at")?;
                    // The tear precedes its crash at the same instant;
                    // the injector's stable sort keeps that order.
                    plan.faults
                        .push((at, TimedFault::TornWrite { server, records }));
                    plan.faults.push((at, TimedFault::Crash { server }));
                    plan.faults
                        .push((at + restart, TimedFault::Restart { server }));
                }
                "bit-rot" => {
                    let sectors = args.u32_or("sectors", 1)?;
                    if sectors == 0 {
                        return Err(err("sectors must be > 0".into()));
                    }
                    let target = match args.take("target") {
                        None | Some("any") => RotTarget::Any,
                        Some("tail") => RotTarget::Tail,
                        Some("checkpoint") => RotTarget::Checkpoint,
                        Some(v) => {
                            return Err(err(format!(
                                "'target' must be any|tail|checkpoint, got '{v}'"
                            )));
                        }
                    };
                    let server = args.int("server")? as usize;
                    let at = args.duration("at")?;
                    plan.faults.push((
                        at,
                        TimedFault::BitRot {
                            server,
                            sectors,
                            seed: 0,
                            target,
                        },
                    ));
                }
                "mds-crash" => {
                    let restart = args.duration("restart")?;
                    if restart == SimDuration::ZERO {
                        return Err(err("restart must be > 0".into()));
                    }
                    let at = args.duration("at")?;
                    plan.faults.push((at, TimedFault::MdsCrash));
                    plan.faults.push((at + restart, TimedFault::MdsRestart));
                }
                _ => unreachable!("directive validated above"),
            }
            args.finish()?;
        }
        Ok(plan)
    }
}

/// `key=value` argument list for one directive line.
struct Args<'a> {
    pairs: Vec<(&'a str, &'a str, bool)>, // key, value, consumed
    line: &'a str,
    line_no: usize,
}

impl<'a> Args<'a> {
    fn new(words: Vec<&'a str>, line: &'a str, line_no: usize) -> Result<Self, PlanError> {
        let mut pairs = Vec::with_capacity(words.len());
        for w in words {
            let Some((k, v)) = w.split_once('=') else {
                return Err(PlanError {
                    line_no,
                    line: line.to_string(),
                    why: format!("expected key=value, got '{w}'"),
                });
            };
            if v.is_empty() {
                return Err(PlanError {
                    line_no,
                    line: line.to_string(),
                    why: format!("empty value for '{k}'"),
                });
            }
            pairs.push((k, v, false));
        }
        Ok(Args {
            pairs,
            line,
            line_no,
        })
    }

    fn err(&self, why: String) -> PlanError {
        PlanError {
            line_no: self.line_no,
            line: self.line.to_string(),
            why,
        }
    }

    fn take(&mut self, key: &str) -> Option<&'a str> {
        for (k, v, used) in self.pairs.iter_mut() {
            if *k == key && !*used {
                *used = true;
                return Some(v);
            }
        }
        None
    }

    fn required(&mut self, key: &str) -> Result<&'a str, PlanError> {
        self.take(key)
            .ok_or_else(|| self.err(format!("missing required key '{key}'")))
    }

    fn int(&mut self, key: &str) -> Result<u64, PlanError> {
        let v = self.required(key)?;
        v.parse::<u64>()
            .map_err(|_| self.err(format!("'{key}' must be a non-negative integer, got '{v}'")))
    }

    fn float(&mut self, key: &str, min: f64, max: f64) -> Result<f64, PlanError> {
        let v = self.required(key)?;
        let f = v
            .parse::<f64>()
            .map_err(|_| self.err(format!("'{key}' must be a number, got '{v}'")))?;
        if !f.is_finite() || f < min || f > max {
            return Err(self.err(format!("'{key}' must be in [{min}, {max}], got '{v}'")));
        }
        Ok(f)
    }

    fn float_or(&mut self, key: &str, default: f64, min: f64, max: f64) -> Result<f64, PlanError> {
        if self.pairs.iter().any(|(k, _, used)| *k == key && !*used) {
            self.float(key, min, max)
        } else {
            Ok(default)
        }
    }

    fn u32_or(&mut self, key: &str, default: u32) -> Result<u32, PlanError> {
        match self.take(key) {
            None => Ok(default),
            Some(v) => v.parse::<u32>().map_err(|_| {
                self.err(format!(
                    "'{key}' must be an integer in [0, {}], got '{v}'",
                    u32::MAX
                ))
            }),
        }
    }

    fn prob(&mut self, key: &str) -> Result<f64, PlanError> {
        match self.take(key) {
            None => Ok(0.0),
            Some(v) => {
                let f = v
                    .parse::<f64>()
                    .map_err(|_| self.err(format!("'{key}' must be a number, got '{v}'")))?;
                if !f.is_finite() || !(0.0..=1.0).contains(&f) {
                    return Err(self.err(format!(
                        "'{key}' must be a probability in [0, 1], got '{v}'"
                    )));
                }
                Ok(f)
            }
        }
    }

    fn duration(&mut self, key: &str) -> Result<SimDuration, PlanError> {
        let v = self.required(key)?;
        self.parse_duration(key, v)
    }

    fn duration_or(&mut self, key: &str, default: SimDuration) -> Result<SimDuration, PlanError> {
        match self.take(key) {
            None => Ok(default),
            Some(v) => self.parse_duration(key, v),
        }
    }

    fn parse_duration(&self, key: &str, v: &str) -> Result<SimDuration, PlanError> {
        // Longest suffix first so "1ms" is not read as "1m" + "s".
        let (scale, digits) = if let Some(d) = v.strip_suffix("ns") {
            (1e-9, d)
        } else if let Some(d) = v.strip_suffix("us") {
            (1e-6, d)
        } else if let Some(d) = v.strip_suffix("ms") {
            (1e-3, d)
        } else if let Some(d) = v.strip_suffix('s') {
            (1.0, d)
        } else {
            return Err(self.err(format!(
                "'{key}' needs a duration with a unit (ns/us/ms/s), got '{v}'"
            )));
        };
        let f = digits
            .parse::<f64>()
            .map_err(|_| self.err(format!("'{key}' must be a duration like 250ms, got '{v}'")))?;
        if !f.is_finite() || f < 0.0 {
            return Err(self.err(format!("'{key}' must be non-negative, got '{v}'")));
        }
        if f * scale > MAX_DURATION.as_secs_f64() {
            return Err(self.err(format!("'{key}' must be at most {MAX_DURATION}, got '{v}'")));
        }
        Ok(SimDuration::from_secs_f64(f * scale))
    }

    fn dev(&mut self, key: &str) -> Result<DevKind, PlanError> {
        let v = self.required(key)?;
        match v {
            "primary" => Ok(DevKind::Primary),
            "cache" => Ok(DevKind::Cache),
            _ => Err(self.err(format!("'{key}' must be 'primary' or 'cache', got '{v}'"))),
        }
    }

    fn finish(&self) -> Result<(), PlanError> {
        for (k, _, used) in &self.pairs {
            if !used {
                return Err(self.err(format!("unknown key '{k}' for this directive")));
            }
        }
        Ok(())
    }
}

/// A named built-in plan.
#[derive(Debug, Clone, Copy)]
pub struct BuiltinPlan {
    /// The name `--fault-plan` accepts.
    pub name: &'static str,
    /// One line for `expt --list-fault-plans`.
    pub what: &'static str,
    /// The plan's DSL source.
    pub source: &'static str,
}

/// Every built-in plan, in listing order. The plans are sized for the
/// `faults` bench experiment's checkpoint workload (runs of a few
/// hundred virtual milliseconds).
pub const BUILTIN_PLANS: &[BuiltinPlan] = &[
    BuiltinPlan {
        name: "none",
        what: "no faults; byte-identical to running without a plan",
        source: "# no faults: must be byte-identical to running without a plan\n",
    },
    BuiltinPlan {
        name: "crash",
        what: "server 1 dies at 120ms and restarts 80ms later",
        source: "retry timeout=60ms backoff=2 max=10\n\
                 crash server=1 at=120ms restart=80ms\n",
    },
    BuiltinPlan {
        name: "ssd-loss",
        what: "server 0 loses its SSD cache device at 100ms",
        source: "retry timeout=60ms backoff=2 max=10\n\
                 ssd-loss server=0 at=100ms\n",
    },
    BuiltinPlan {
        name: "fail-slow",
        what: "server 2's primary device runs 6x slower from 80ms to 320ms",
        source: "retry timeout=250ms backoff=2 max=10\n\
                 fail-slow server=2 dev=primary from=80ms until=320ms factor=6\n",
    },
    BuiltinPlan {
        name: "net",
        what: "data-plane messages dropped/delayed/duplicated from 40ms to 400ms",
        source: "retry timeout=60ms backoff=2 max=10\n\
                 net from=40ms until=400ms drop=0.05 delay=0.10 delay-by=3ms dup=0.03\n",
    },
    BuiltinPlan {
        name: "chaos",
        what: "crash + ssd-loss + fail-slow + net, all in one run",
        source: "retry timeout=80ms backoff=2 max=12\n\
                 crash server=3 at=150ms restart=70ms\n\
                 ssd-loss server=0 at=90ms\n\
                 fail-slow server=2 dev=primary from=60ms until=260ms factor=4\n\
                 net from=30ms until=350ms drop=0.03 delay=0.06 delay-by=2ms dup=0.02\n",
    },
    // The crash lands before the first 100 ms writeback pass, so the
    // torn records are still dirty — the plan demonstrates a real
    // durability cost, not just quarantine.
    BuiltinPlan {
        name: "torn-write",
        what: "server 1 crashes at 90ms tearing its 2 newest backup records",
        source: "retry timeout=60ms backoff=2 max=10\n\
                 torn-write server=1 at=90ms restart=80ms records=2\n",
    },
    BuiltinPlan {
        name: "bit-rot",
        what: "3 bit flips in server 0's backup log at 100ms, surfaced by a crash at 140ms",
        source: "retry timeout=60ms backoff=2 max=10\n\
                 bit-rot server=0 at=100ms sectors=3\n\
                 crash server=0 at=140ms restart=60ms\n",
    },
    BuiltinPlan {
        name: "mds-crash",
        what: "metadata server down from 80ms to 200ms; T-value broadcasts stall",
        source: "mds-crash at=80ms restart=120ms\n",
    },
];

/// Returns the DSL source of a named built-in plan, or `None`.
pub fn builtin(name: &str) -> Option<&'static str> {
    BUILTIN_PLANS
        .iter()
        .find(|p| p.name == name)
        .map(|p| p.source)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(n: u64) -> SimDuration {
        SimDuration::from_millis(n)
    }

    #[test]
    fn parses_full_grammar() {
        let plan = FaultPlan::parse(
            "# comment\n\
             \n\
             retry timeout=400ms backoff=2 max=8\n\
             crash server=1 at=120ms restart=60ms\n\
             ssd-loss server=0 at=100ms\n\
             fail-slow server=2 dev=primary from=80ms until=300ms factor=6\n\
             net from=50ms until=350ms drop=0.03 delay=0.05 delay-by=2ms dup=0.02\n",
        )
        .expect("plan must parse");
        assert_eq!(
            plan.retry,
            RetryConfig {
                timeout: ms(400),
                backoff: 2.0,
                max_retries: 8,
            }
        );
        // Directive order; each closing event right after its opening one.
        let dev = DevKind::Primary;
        assert_eq!(
            plan.faults,
            vec![
                (ms(120), TimedFault::Crash { server: 1 }),
                (ms(180), TimedFault::Restart { server: 1 }),
                (ms(100), TimedFault::SsdLoss { server: 0 }),
                (
                    ms(80),
                    TimedFault::SlowStart {
                        server: 2,
                        dev,
                        factor: 6.0
                    }
                ),
                (ms(300), TimedFault::SlowEnd { server: 2, dev }),
            ]
        );
        assert_eq!(
            plan.windows,
            vec![(
                ms(50),
                ms(350),
                Impairment {
                    drop: 0.03,
                    delay: 0.05,
                    delay_by: ms(2),
                    dup: 0.02,
                }
            )]
        );
        assert!(!plan.is_faultless());
    }

    #[test]
    fn retry_defaults_without_a_retry_directive() {
        let plan = FaultPlan::parse("ssd-loss server=0 at=1ms\n").unwrap();
        assert_eq!(plan.retry, RetryConfig::default());
        // A retry directive alone schedules nothing.
        let retry_only = FaultPlan::parse("retry timeout=5ms\n").unwrap();
        assert!(retry_only.is_faultless());
        assert_eq!(retry_only.retry.timeout, ms(5));
    }

    #[test]
    fn a_net_window_alone_is_not_faultless() {
        let plan = FaultPlan::parse("net from=0ms until=1ms drop=0.5\n").unwrap();
        assert!(plan.faults.is_empty());
        assert!(!plan.is_faultless());
    }

    #[test]
    fn empty_and_comment_only_plans_are_faultless() {
        assert!(FaultPlan::parse("").unwrap().is_faultless());
        assert!(FaultPlan::parse("# nothing\n\n").unwrap().is_faultless());
    }

    #[test]
    fn errors_quote_the_offending_line() {
        let e = FaultPlan::parse("crash server=1 at=120ms restart=60ms\nboom now\n").unwrap_err();
        assert_eq!(e.line_no, 2);
        assert_eq!(e.line, "boom now");
        let msg = e.to_string();
        assert!(msg.contains("`boom now`"), "message must quote line: {msg}");
        assert!(msg.contains("unknown directive"));
    }

    #[test]
    fn missing_unit_is_rejected() {
        let e = FaultPlan::parse("ssd-loss server=0 at=100\n").unwrap_err();
        assert!(e.why.contains("unit"), "{e}");
        assert_eq!(e.line_no, 1);
    }

    #[test]
    fn unknown_key_is_rejected() {
        let e = FaultPlan::parse("ssd-loss server=0 at=1ms color=red\n").unwrap_err();
        assert!(e.why.contains("unknown key 'color'"), "{e}");
    }

    #[test]
    fn missing_required_key_is_rejected() {
        let e = FaultPlan::parse("crash server=1 at=120ms\n").unwrap_err();
        assert!(e.why.contains("missing required key 'restart'"), "{e}");
    }

    #[test]
    fn probability_sum_capped() {
        let e = FaultPlan::parse("net from=0ms until=1ms drop=0.6 delay=0.5 delay-by=1ms\n")
            .unwrap_err();
        assert!(e.why.contains("must not exceed 1"), "{e}");
    }

    #[test]
    fn inverted_window_is_rejected() {
        let e = FaultPlan::parse("fail-slow server=0 dev=cache from=5ms until=5ms factor=2\n")
            .unwrap_err();
        assert!(e.why.contains("must be after"), "{e}");
    }

    #[test]
    fn builtins_all_parse() {
        for p in BUILTIN_PLANS {
            let text = builtin(p.name).expect("listed builtin exists");
            let plan = FaultPlan::parse(text)
                .unwrap_or_else(|e| panic!("builtin '{}' failed to parse: {e}", p.name));
            assert_eq!(plan.is_faultless(), p.name == "none");
        }
        assert!(builtin("nope").is_none());
    }

    #[test]
    fn parses_corruption_and_mds_directives() {
        let plan = FaultPlan::parse(
            "torn-write server=1 at=150ms restart=60ms records=2\n\
             bit-rot server=0 at=100ms\n\
             mds-crash at=80ms restart=120ms\n",
        )
        .expect("plan must parse");
        assert_eq!(
            plan.faults,
            vec![
                // The tear comes before its crash at the same instant.
                (
                    ms(150),
                    TimedFault::TornWrite {
                        server: 1,
                        records: 2
                    }
                ),
                (ms(150), TimedFault::Crash { server: 1 }),
                (ms(210), TimedFault::Restart { server: 1 }),
                // `records`/`sectors` default to 1 when omitted.
                (
                    ms(100),
                    TimedFault::BitRot {
                        server: 0,
                        sectors: 1,
                        seed: 0,
                        target: RotTarget::Any,
                    }
                ),
                (ms(80), TimedFault::MdsCrash),
                (ms(200), TimedFault::MdsRestart),
            ]
        );
    }

    #[test]
    fn backoff_delay_sequence_is_exact() {
        let retry = RetryConfig {
            timeout: SimDuration::from_millis(50),
            backoff: 2.0,
            max_retries: 4,
        };
        // timeout * 2^attempt: 50, 100, 200, 400, 800 ms — and the run
        // stops at attempt == max_retries, so the largest delay any
        // sub-request ever waits is backoff_delay(max_retries).
        let expect = [50u64, 100, 200, 400, 800];
        for (attempt, ms) in expect.iter().enumerate() {
            assert_eq!(
                retry.backoff_delay(attempt as u32),
                SimDuration::from_millis(*ms),
                "attempt {attempt}"
            );
        }
        assert_eq!(
            retry.backoff_delay(retry.max_retries),
            SimDuration::from_millis(800)
        );
    }

    #[test]
    fn backoff_delay_handles_fractional_factors_and_defaults() {
        let retry = RetryConfig {
            timeout: SimDuration::from_millis(100),
            backoff: 1.5,
            max_retries: 3,
        };
        assert_eq!(retry.backoff_delay(0), SimDuration::from_millis(100));
        assert_eq!(retry.backoff_delay(1), SimDuration::from_millis(150));
        assert_eq!(retry.backoff_delay(2), SimDuration::from_millis(225));
        // backoff=1 never grows.
        let flat = RetryConfig {
            backoff: 1.0,
            ..RetryConfig::default()
        };
        for attempt in 0..8 {
            assert_eq!(flat.backoff_delay(attempt), flat.timeout);
        }
        // The default config's sequence doubles from 1 s.
        let d = RetryConfig::default();
        assert_eq!(d.backoff_delay(0), SimDuration::from_millis(1000));
        assert_eq!(d.backoff_delay(3), SimDuration::from_millis(8000));
    }

    #[test]
    fn every_malformed_line_class_yields_a_quoted_error() {
        // One representative per malformed-line class. Each must produce
        // a PlanError (never a panic) whose Display quotes the offending
        // line and carries its 1-based number.
        let cases: &[(&str, &str)] = &[
            ("boom now", "unknown directive"),
            ("crash server=1 at=120ms", "missing required key"),
            ("crash server at=1ms restart=1ms", "expected key=value"),
            ("crash server= at=1ms restart=1ms", "empty value"),
            ("crash server=x at=1ms restart=1ms", "non-negative integer"),
            ("crash server=1 at=120 restart=60ms", "unit"),
            ("crash server=1 at=-5ms restart=60ms", "non-negative"),
            ("crash server=1 at=1ms restart=0ms", "restart must be > 0"),
            ("ssd-loss server=0 at=1ms color=red", "unknown key 'color'"),
            (
                "fail-slow server=0 dev=tape from=1ms until=2ms factor=2",
                "'primary' or 'cache'",
            ),
            (
                "fail-slow server=0 dev=cache from=5ms until=5ms factor=2",
                "must be after",
            ),
            (
                "fail-slow server=0 dev=cache from=1ms until=2ms factor=0.5",
                "must be in",
            ),
            ("net from=1ms until=2ms drop=1.5", "probability"),
            (
                "net from=1ms until=2ms drop=0.6 delay=0.5 delay-by=1ms",
                "must not exceed 1",
            ),
            ("net from=1ms until=2ms delay=0.5", "requires delay-by"),
            ("retry timeout=abc", "unit"),
            ("retry timeout=xxms", "duration like"),
            ("retry timeout=100ms backoff=0.5", "must be in"),
            ("retry timeout=0s backoff=64 max=200", "timeout must be > 0"),
            (
                "torn-write server=1 at=1ms restart=0ms",
                "restart must be > 0",
            ),
            (
                "torn-write server=1 at=1ms restart=5ms records=0",
                "records must be > 0",
            ),
            ("bit-rot server=0 at=1ms sectors=0", "sectors must be > 0"),
            ("mds-crash at=1ms restart=0ms", "restart must be > 0"),
            ("mds-crash at=1ms", "missing required key 'restart'"),
            ("mds-failover at=1ms restart=1ms", "unknown directive"),
            // Out-of-range values: each names its key.
            (
                "crash server=0 at=1e300s restart=1s",
                "'at' must be at most",
            ),
            (
                "mds-crash at=1ms restart=1e12s",
                "'restart' must be at most",
            ),
            (
                "crash server=0 at=1e10s restart=1e10s",
                "'at' must be at most",
            ),
            (
                "retry timeout=1s max=4294967297",
                "'max' must be an integer in",
            ),
            (
                "retry timeout=1s backoff=2 max=64",
                "'max' retries would wait",
            ),
            (
                "torn-write server=0 at=1ms restart=1ms records=4294967297",
                "'records' must be an integer in",
            ),
            (
                "bit-rot server=0 at=1ms sectors=4294967296",
                "'sectors' must be an integer in",
            ),
        ];
        for (line, want) in cases {
            let text = format!("# leading comment\n{line}\n");
            let e = FaultPlan::parse(&text).expect_err(&format!("`{line}` must fail to parse"));
            assert_eq!(e.line_no, 2, "`{line}`");
            assert_eq!(e.line, *line);
            let msg = e.to_string();
            assert!(msg.contains(want), "`{line}`: expected '{want}' in '{msg}'");
            assert!(
                msg.contains(&format!("`{line}`")),
                "error must quote the line verbatim: {msg}"
            );
        }
    }

    #[test]
    fn duration_suffixes() {
        let plan = FaultPlan::parse(
            "ssd-loss server=0 at=1500us\nssd-loss server=1 at=2s\nssd-loss server=2 at=250ns\n",
        )
        .unwrap();
        assert_eq!(
            plan.faults,
            vec![
                (
                    SimDuration::from_micros(1500),
                    TimedFault::SsdLoss { server: 0 }
                ),
                (SimDuration::from_secs(2), TimedFault::SsdLoss { server: 1 }),
                (
                    SimDuration::from_nanos(250),
                    TimedFault::SsdLoss { server: 2 }
                ),
            ]
        );
    }
}
