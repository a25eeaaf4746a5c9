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
//! mds-failover at=80ms restart=120ms
//! mds-partition at=80ms heal=120ms
//! ```
//!
//! Each directive is `name key=value ...`; blank lines and `#` comments
//! are ignored. Durations require an explicit unit (`ns`, `us`, `ms`,
//! `s`). Parse failures carry the line number and the offending line so
//! tooling can quote them back verbatim.

use ibridge_des::SimDuration;
use ibridge_net::Impairment;
use std::fmt;

/// Which device of a data server a fail-slow window degrades.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultDev {
    /// The primary device (HDD, or SSD in ssd-only setups).
    Primary,
    /// The iBridge SSD cache device.
    Cache,
}

impl fmt::Display for FaultDev {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultDev::Primary => write!(f, "primary"),
            FaultDev::Cache => write!(f, "cache"),
        }
    }
}

/// One scheduled fault. All times are virtual-time offsets from the
/// start of the run the plan is armed for.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultSpec {
    /// The data-server process dies at `at` — all in-flight work on the
    /// node is lost — and restarts `restart_after` later, replaying its
    /// SSD mapping-table backup.
    ServerCrash {
        /// Victim server index.
        server: usize,
        /// Crash instant.
        at: SimDuration,
        /// Downtime before the process restarts.
        restart_after: SimDuration,
    },
    /// The SSD cache device of `server` fails at `at`: the log and every
    /// cached byte (dirty data included) are gone, and the server
    /// degrades to the HDD-only path for the rest of the run.
    SsdLoss {
        /// Victim server index.
        server: usize,
        /// Failure instant.
        at: SimDuration,
    },
    /// A device serves requests `factor` times slower inside the window
    /// `[from, until)` — the classic fail-slow (gray failure) mode.
    FailSlow {
        /// Victim server index.
        server: usize,
        /// Which device slows down.
        dev: FaultDev,
        /// Window start.
        from: SimDuration,
        /// Window end.
        until: SimDuration,
        /// Service-time multiplier (> 1 slows the device down).
        factor: f64,
    },
    /// Data-plane messages (requests and replies) sent inside
    /// `[from, until)` are dropped / delayed / duplicated with the given
    /// probabilities. Control-plane traffic (T-value reports and
    /// broadcasts) is assumed reliable.
    NetFault {
        /// Window start.
        from: SimDuration,
        /// Window end.
        until: SimDuration,
        /// Per-message impairment probabilities.
        imp: Impairment,
    },
    /// Like `crash`, but the crash tears the most recent `records`
    /// mapping-table backup records mid-write (they are truncated on
    /// media), so the restart's recovery fsck must quarantine them.
    TornWrite {
        /// Victim server index.
        server: usize,
        /// Crash instant.
        at: SimDuration,
        /// Downtime before the process restarts.
        restart_after: SimDuration,
        /// How many of the newest backup records are torn.
        records: u32,
    },
    /// Silent bit corruption of `sectors` resident backup records at
    /// `at`. The damage surfaces only when a later restart's recovery
    /// fsck scans the log — pair with a `crash` to observe it, or let
    /// the background scrubber catch it first.
    BitRot {
        /// Victim server index.
        server: usize,
        /// Corruption instant.
        at: SimDuration,
        /// Number of corrupting hits (one bit flip each).
        sectors: u32,
        /// Which backup-media region the hits land in
        /// (`target=any|tail|checkpoint`, default `any`).
        target: RotTarget,
    },
    /// The MDS leader crashes at `at` and rejoins `restart_after` later,
    /// replaying its replicated log (`mds-crash`, or its alias
    /// `mds-failover`). A single MDS is down in between: data servers
    /// keep serving, but T-value broadcasts stall and clients degrade to
    /// last-known T values. With `--mds-replicas > 1` the surviving
    /// replicas elect a new leader and metadata service continues.
    MdsCrash {
        /// Crash instant.
        at: SimDuration,
        /// Downtime before the crashed replica rejoins.
        restart_after: SimDuration,
    },
    /// A network partition isolates the MDS leader from its peers at
    /// `at` and heals `heal_after` later. The majority side fences the
    /// stale leader (it cannot commit without a quorum) and elects a
    /// fresh one; a single MDS is unreachable until the heal.
    MdsPartition {
        /// Partition instant.
        at: SimDuration,
        /// Time until the partition heals.
        heal_after: SimDuration,
    },
}

/// Which backup-media region a `bit-rot` spec aims at. The segmented
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
    /// Scheduled faults, in file order.
    pub specs: Vec<FaultSpec>,
    /// Client retry policy (DSL `retry` directive; defaulted otherwise).
    pub retry: Option<RetryConfig>,
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
        self.specs.is_empty()
    }

    /// The retry policy to use: the plan's own, or the default.
    pub fn retry_config(&self) -> RetryConfig {
        self.retry.clone().unwrap_or_default()
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
                    | "mds-failover"
                    | "mds-partition"
            ) {
                return Err(err(format!(
                    "unknown directive '{directive}' (expected one of: retry, crash, \
                     ssd-loss, fail-slow, net, torn-write, bit-rot, mds-crash, \
                     mds-failover, mds-partition)"
                )));
            }
            let mut args = Args::new(words.collect(), line, idx + 1)?;
            match directive {
                "retry" => {
                    let defaults = RetryConfig::default();
                    plan.retry = Some(RetryConfig {
                        timeout: args.duration("timeout")?,
                        backoff: args.float_or("backoff", defaults.backoff, 1.0, 64.0)?,
                        max_retries: args.int_or("max", defaults.max_retries as u64)? as u32,
                    });
                }
                "crash" => {
                    let spec = FaultSpec::ServerCrash {
                        server: args.int("server")? as usize,
                        at: args.duration("at")?,
                        restart_after: args.duration("restart")?,
                    };
                    if let FaultSpec::ServerCrash { restart_after, .. } = &spec {
                        if *restart_after == SimDuration::ZERO {
                            return Err(err("restart must be > 0".into()));
                        }
                    }
                    plan.specs.push(spec);
                }
                "ssd-loss" => {
                    plan.specs.push(FaultSpec::SsdLoss {
                        server: args.int("server")? as usize,
                        at: args.duration("at")?,
                    });
                }
                "fail-slow" => {
                    let from = args.duration("from")?;
                    let until = args.duration("until")?;
                    if until <= from {
                        return Err(err(format!("until ({until}) must be after from ({from})")));
                    }
                    plan.specs.push(FaultSpec::FailSlow {
                        server: args.int("server")? as usize,
                        dev: args.dev("dev")?,
                        from,
                        until,
                        factor: args.float("factor", 1.0, 1e6)?,
                    });
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
                    plan.specs.push(FaultSpec::NetFault { from, until, imp });
                }
                "torn-write" => {
                    let restart_after = args.duration("restart")?;
                    if restart_after == SimDuration::ZERO {
                        return Err(err("restart must be > 0".into()));
                    }
                    let records = args.int_or("records", 1)?;
                    if records == 0 {
                        return Err(err("records must be > 0".into()));
                    }
                    plan.specs.push(FaultSpec::TornWrite {
                        server: args.int("server")? as usize,
                        at: args.duration("at")?,
                        restart_after,
                        records: records as u32,
                    });
                }
                "bit-rot" => {
                    let sectors = args.int_or("sectors", 1)?;
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
                    plan.specs.push(FaultSpec::BitRot {
                        server: args.int("server")? as usize,
                        at: args.duration("at")?,
                        sectors: sectors as u32,
                        target,
                    });
                }
                "mds-crash" | "mds-failover" => {
                    let restart_after = args.duration("restart")?;
                    if restart_after == SimDuration::ZERO {
                        return Err(err("restart must be > 0".into()));
                    }
                    plan.specs.push(FaultSpec::MdsCrash {
                        at: args.duration("at")?,
                        restart_after,
                    });
                }
                "mds-partition" => {
                    let heal_after = args.duration("heal")?;
                    if heal_after == SimDuration::ZERO {
                        return Err(err("heal must be > 0".into()));
                    }
                    plan.specs.push(FaultSpec::MdsPartition {
                        at: args.duration("at")?,
                        heal_after,
                    });
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

    fn int_or(&mut self, key: &str, default: u64) -> Result<u64, PlanError> {
        match self.take(key) {
            None => Ok(default),
            Some(v) => v.parse::<u64>().map_err(|_| {
                self.err(format!("'{key}' must be a non-negative integer, got '{v}'"))
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
        Ok(SimDuration::from_secs_f64(f * scale))
    }

    fn dev(&mut self, key: &str) -> Result<FaultDev, PlanError> {
        let v = self.required(key)?;
        match v {
            "primary" => Ok(FaultDev::Primary),
            "cache" => Ok(FaultDev::Cache),
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

/// Returns the DSL source of a named built-in plan, or `None`. The
/// built-ins are sized for the `faults` bench experiment's checkpoint
/// workload (runs of a few hundred virtual milliseconds).
pub fn builtin(name: &str) -> Option<&'static str> {
    Some(match name {
        "none" => "# no faults: must be byte-identical to running without a plan\n",
        "crash" => {
            "retry timeout=60ms backoff=2 max=10\n\
             crash server=1 at=120ms restart=80ms\n"
        }
        "ssd-loss" => {
            "retry timeout=60ms backoff=2 max=10\n\
             ssd-loss server=0 at=100ms\n"
        }
        "fail-slow" => {
            "retry timeout=250ms backoff=2 max=10\n\
             fail-slow server=2 dev=primary from=80ms until=320ms factor=6\n"
        }
        "net" => {
            "retry timeout=60ms backoff=2 max=10\n\
             net from=40ms until=400ms drop=0.05 delay=0.10 delay-by=3ms dup=0.03\n"
        }
        "chaos" => {
            "retry timeout=80ms backoff=2 max=12\n\
             crash server=3 at=150ms restart=70ms\n\
             ssd-loss server=0 at=90ms\n\
             fail-slow server=2 dev=primary from=60ms until=260ms factor=4\n\
             net from=30ms until=350ms drop=0.03 delay=0.06 delay-by=2ms dup=0.02\n"
        }
        "torn-write" => {
            // The crash lands before the first 100 ms writeback pass,
            // so the torn records are still dirty — the plan
            // demonstrates a real durability cost, not just quarantine.
            "retry timeout=60ms backoff=2 max=10\n\
             torn-write server=1 at=90ms restart=80ms records=2\n"
        }
        "bit-rot" => {
            "retry timeout=60ms backoff=2 max=10\n\
             bit-rot server=0 at=100ms sectors=3\n\
             crash server=0 at=140ms restart=60ms\n"
        }
        "mds-crash" => "mds-crash at=80ms restart=120ms\n",
        "mds-failover" => {
            // Kill the elected leader mid-run; with a replicated MDS the
            // survivors re-elect within a few election timeouts and the
            // crashed replica later rejoins by replaying the log.
            "mds-failover at=80ms restart=120ms\n"
        }
        "mds-partition" => {
            // Isolate the leader instead of killing it: the majority
            // side fences it (no quorum, no commits) and elects afresh;
            // the healed ex-leader steps down on the higher term.
            "mds-partition at=80ms heal=120ms\n"
        }
        _ => return None,
    })
}

/// Names accepted by [`builtin`], for error messages.
pub const BUILTIN_NAMES: &[&str] = &[
    "none",
    "crash",
    "ssd-loss",
    "fail-slow",
    "net",
    "chaos",
    "torn-write",
    "bit-rot",
    "mds-crash",
    "mds-failover",
    "mds-partition",
];

/// Built-in plan names with one-line descriptions, in [`BUILTIN_NAMES`]
/// order — the table behind `expt --list-fault-plans`.
pub const BUILTIN_PLANS: &[(&str, &str)] = &[
    (
        "none",
        "no faults; byte-identical to running without a plan",
    ),
    ("crash", "server 1 dies at 120ms and restarts 80ms later"),
    ("ssd-loss", "server 0 loses its SSD cache device at 100ms"),
    (
        "fail-slow",
        "server 2's primary device runs 6x slower from 80ms to 320ms",
    ),
    (
        "net",
        "data-plane messages dropped/delayed/duplicated from 40ms to 400ms",
    ),
    (
        "chaos",
        "crash + ssd-loss + fail-slow + net, all in one run",
    ),
    (
        "torn-write",
        "server 1 crashes at 90ms tearing its 2 newest backup records",
    ),
    (
        "bit-rot",
        "3 bit flips in server 0's backup log at 100ms, surfaced by a crash at 140ms",
    ),
    (
        "mds-crash",
        "metadata server down from 80ms to 200ms; T-value broadcasts stall",
    ),
    (
        "mds-failover",
        "MDS leader crashes at 80ms, rejoins at 200ms; replicas elect a new leader",
    ),
    (
        "mds-partition",
        "MDS leader partitioned from 80ms to 200ms; fenced, majority re-elects",
    ),
];

#[cfg(test)]
mod tests {
    use super::*;

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
        assert_eq!(plan.specs.len(), 4);
        let retry = plan.retry_config();
        assert_eq!(retry.timeout, SimDuration::from_millis(400));
        assert_eq!(retry.max_retries, 8);
        assert_eq!(
            plan.specs[0],
            FaultSpec::ServerCrash {
                server: 1,
                at: SimDuration::from_millis(120),
                restart_after: SimDuration::from_millis(60),
            }
        );
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
        for name in BUILTIN_NAMES {
            let text = builtin(name).expect("listed builtin exists");
            let plan = FaultPlan::parse(text)
                .unwrap_or_else(|e| panic!("builtin '{name}' failed to parse: {e}"));
            assert_eq!(plan.is_faultless(), *name == "none");
        }
        assert!(builtin("nope").is_none());
    }

    #[test]
    fn builtin_plans_table_matches_builtin_names() {
        assert_eq!(BUILTIN_PLANS.len(), BUILTIN_NAMES.len());
        for ((listed, desc), name) in BUILTIN_PLANS.iter().zip(BUILTIN_NAMES) {
            assert_eq!(listed, name, "BUILTIN_PLANS order must match BUILTIN_NAMES");
            assert!(!desc.is_empty());
        }
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
            plan.specs[0],
            FaultSpec::TornWrite {
                server: 1,
                at: SimDuration::from_millis(150),
                restart_after: SimDuration::from_millis(60),
                records: 2,
            }
        );
        // `records`/`sectors` default to 1 when omitted.
        assert_eq!(
            plan.specs[1],
            FaultSpec::BitRot {
                server: 0,
                at: SimDuration::from_millis(100),
                sectors: 1,
                target: RotTarget::Any,
            }
        );
        assert_eq!(
            plan.specs[2],
            FaultSpec::MdsCrash {
                at: SimDuration::from_millis(80),
                restart_after: SimDuration::from_millis(120),
            }
        );
    }

    #[test]
    fn parses_replicated_mds_directives() {
        let plan = FaultPlan::parse(
            "mds-failover at=80ms restart=120ms\n\
             mds-partition at=90ms heal=60ms\n",
        )
        .expect("plan must parse");
        // `mds-failover` is an alias: a leader crash is one fault at any
        // replica count.
        assert_eq!(
            plan.specs[0],
            FaultSpec::MdsCrash {
                at: SimDuration::from_millis(80),
                restart_after: SimDuration::from_millis(120),
            }
        );
        assert_eq!(
            plan.specs[1],
            FaultSpec::MdsPartition {
                at: SimDuration::from_millis(90),
                heal_after: SimDuration::from_millis(60),
            }
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
            ("mds-failover at=1ms restart=0ms", "restart must be > 0"),
            ("mds-failover at=1ms", "missing required key 'restart'"),
            ("mds-partition at=1ms heal=0ms", "heal must be > 0"),
            ("mds-partition at=1ms", "missing required key 'heal'"),
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
            plan.specs[0],
            FaultSpec::SsdLoss {
                server: 0,
                at: SimDuration::from_micros(1500)
            }
        );
        assert_eq!(
            plan.specs[1],
            FaultSpec::SsdLoss {
                server: 1,
                at: SimDuration::from_secs(2)
            }
        );
        assert_eq!(
            plan.specs[2],
            FaultSpec::SsdLoss {
                server: 2,
                at: SimDuration::from_nanos(250)
            }
        );
    }
}
