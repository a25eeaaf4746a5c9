//! Deterministic, schedule-driven fault injection for the iBridge
//! simulator.
//!
//! The paper (Zhang et al., IPDPS '13) evaluates iBridge on a healthy
//! cluster, but its central mechanism — buffering dirty fragments in a
//! per-server SSD log and writing them back during idle periods
//! (Sec. III-D) — is precisely the part whose behaviour under failure
//! matters in production. This crate makes failures first-class and
//! *reproducible*:
//!
//! * a [`FaultPlan`] DSL describes faults in virtual time — server
//!   crash/restart, SSD cache-device loss, fail-slow device windows,
//!   and probabilistic network drop/delay/duplication;
//! * a [`FaultInjector`] seeds a plan's schedule with an experiment
//!   seed; all probabilistic outcomes draw from the
//!   dedicated `streams::FAULTS` RNG stream, so the same (seed, plan)
//!   pair replays the same failure history at any `--jobs` count;
//! * [`FaultStats`] accounts recovery work (retries, timeouts, drops)
//!   and durability cost (dirty bytes lost with a dead SSD), reported
//!   next to the cache statistics.
//!
//! The recovery machinery itself — client timeout/retry with
//! exponential backoff, restart replay of the SSD mapping table, and
//! HDD-only degradation — lives with the components it protects
//! (`ibridge-pvfs`, `ibridge-core`); this crate defines the schedule,
//! the knobs ([`RetryConfig`]) and the accounting they share.
//!
//! A plan that schedules nothing is *inert by construction*: arming it
//! changes no event calendar entries, consumes no randomness and sends
//! no messages, so its output is byte-identical to running without a
//! plan at all.

mod injector;
mod plan;

pub use injector::{FaultInjector, FaultStats, NetDecider};
pub use plan::{
    builtin, BuiltinPlan, DevKind, FaultPlan, PlanError, RetryConfig, RotTarget, TimedFault,
    BUILTIN_PLANS,
};
