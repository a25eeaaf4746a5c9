//! Seeded fault injector and recovery counters.
//!
//! A [`FaultInjector`] compiles a [`FaultPlan`] into (a) a sorted
//! timeline of discrete faults the cluster schedules as ordinary
//! calendar events at run start, and (b) a set of network impairment
//! windows consulted per data-plane message. All randomness comes from
//! one dedicated RNG stream (`streams::FAULTS`) seeded from the
//! experiment seed, so a (seed, plan) pair replays the exact same
//! failure history — including across `--jobs` worker counts, because
//! each run owns its injector and draws in event order.

use crate::plan::{FaultDev, FaultPlan, FaultSpec, RetryConfig, RotTarget};
use ibridge_des::rng::{derive_seed, stream_rng, streams};
use ibridge_des::SimDuration;
use ibridge_net::{Impairment, NetDecision};
use rand::rngs::StdRng;
use rand::Rng;
use std::sync::Arc;

/// A discrete fault the cluster executes at a scheduled instant.
/// `Restart` and `SlowEnd` are derived from their opening events when
/// the timeline is compiled.
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
    /// The SSD cache device fails permanently.
    SsdLoss {
        /// Victim server.
        server: usize,
    },
    /// Begin a fail-slow window on one device.
    SlowStart {
        /// Victim server.
        server: usize,
        /// Which device degrades.
        dev: FaultDev,
        /// Service-time multiplier.
        factor: f64,
    },
    /// End a fail-slow window (restore the healthy service time).
    SlowEnd {
        /// Recovering server.
        server: usize,
        /// Which device recovers.
        dev: FaultDev,
    },
    /// Tear the newest mapping-table backup records mid-write. Compiled
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
        /// Number of corrupting hits.
        sectors: u32,
        /// Placement seed, drawn from the injector RNG at compile time.
        seed: u64,
        /// Which backup-media region the hits land in.
        target: RotTarget,
    },
    /// The MDS leader replica crashes. A single MDS is then down: T-value
    /// reports and broadcasts stall, and data servers keep serving with
    /// last-known T values. A replicated group elects a new leader.
    MdsCrash,
    /// Every crashed MDS replica restarts, replaying the replicated log;
    /// a single MDS leads again and reporting resumes.
    MdsRestart,
    /// A partition isolates the MDS leader from its peers; the majority
    /// side fences it and elects a new leader.
    MdsPartitionStart,
    /// The MDS partition heals; the stale ex-leader steps down on the
    /// higher term it observes.
    MdsPartitionHeal,
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
            TimedFault::MdsCrash
            | TimedFault::MdsRestart
            | TimedFault::MdsPartitionStart
            | TimedFault::MdsPartitionHeal => None,
        }
    }
}

/// Fault-injection and recovery counters for one run, reported next to
/// the cache statistics. `degraded` is the union of per-server degraded
/// intervals (down, fail-slow, or running without its SSD) summed over
/// servers — "degraded-server seconds".
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FaultStats {
    /// Server crashes executed.
    pub crashes: u64,
    /// Server restarts executed.
    pub restarts: u64,
    /// SSD cache devices lost.
    pub ssd_losses: u64,
    /// Fail-slow windows opened.
    pub slow_windows: u64,
    /// Data-plane messages lost (network drops + sends to down servers).
    pub dropped_messages: u64,
    /// Data-plane messages delivered late.
    pub delayed_messages: u64,
    /// Data-plane messages delivered twice.
    pub duplicated_messages: u64,
    /// Client-side sub-request timeouts fired.
    pub timeouts: u64,
    /// Sub-request retries sent.
    pub retries: u64,
    /// Sub-requests abandoned after exhausting their retry budget.
    pub failed_subs: u64,
    /// Late or duplicate replies ignored by the in-flight table.
    pub duplicate_replies: u64,
    /// Device completions discarded because the device was rebuilt
    /// (crash) or removed (SSD loss) while the I/O was in flight.
    pub stale_completions: u64,
    /// Dirty bytes in the SSD log destroyed by device loss — the
    /// durability cost of buffering writes in the cache.
    pub dirty_bytes_lost: u64,
    /// Clean mapping-table entries invalidated during restart replay.
    pub clean_entries_dropped: u64,
    /// Pending (not yet durable) entries discarded during restart.
    pub pending_entries_dropped: u64,
    /// Torn-write corruptions executed against backup logs.
    pub torn_writes: u64,
    /// Backup records hit by bit-rot corruption.
    pub rotted_records: u64,
    /// Metadata-server crashes executed.
    pub mds_crashes: u64,
    /// Metadata-server restarts executed.
    pub mds_restarts: u64,
    /// Metadata updates (T reports, steer-offs) dropped because no MDS
    /// quorum was reachable.
    pub stalled_broadcasts: u64,
    /// Client scheduling decisions (request issues) taken while the MDS
    /// was unreachable — i.e. taken on possibly-stale T values. This is
    /// the observable cost of `mds-crash`-style degradation.
    pub stale_t_decisions: u64,
    /// MDS leader elections started (a single MDS never holds one).
    pub mds_elections: u64,
    /// Times a replica other than the previous MDS leader took the lead.
    pub mds_leader_changes: u64,
    /// Virtual-time nanoseconds the MDS spent without a client-visible
    /// leader after losing one while a quorum could elect another — the
    /// failover recovery window (always 0 for a single MDS).
    pub mds_recovery_ticks: u64,
    /// Backup records scanned by restart recovery fscks.
    pub fsck_records_scanned: u64,
    /// Backup records quarantined (torn, checksum-failed, or
    /// sequence-broken) by restart recovery fscks.
    pub fsck_records_quarantined: u64,
    /// Total time servers spent degraded (summed across servers).
    pub degraded: SimDuration,
}

impl FaultStats {
    /// Degraded-server seconds, for reports.
    pub fn degraded_secs(&self) -> f64 {
        self.degraded.as_secs_f64()
    }

    /// True when no fault machinery left any trace — what a faultless
    /// plan (or no plan) must produce.
    pub fn is_zero(&self) -> bool {
        *self == FaultStats::default()
    }
}

/// Compiled, seeded fault schedule for one cluster.
#[derive(Debug)]
pub struct FaultInjector {
    timeline: Vec<(SimDuration, TimedFault)>,
    armed: bool,
    windows: Arc<[(SimDuration, SimDuration, Impairment)]>,
    rng: StdRng,
    retry: RetryConfig,
}

/// A per-node network-impairment decider: the same impairment windows
/// as the owning [`FaultInjector`], but drawing outcomes from a stream
/// seeded by `(experiment seed, node)`. Each simulated node owns one,
/// so the outcome sequence for a node's traffic depends only on the
/// order *that node* sends messages, not on any other node's traffic.
#[derive(Debug)]
pub struct NetDecider {
    windows: Arc<[(SimDuration, SimDuration, Impairment)]>,
    rng: StdRng,
}

impl NetDecider {
    /// Decides the fate of a data-plane message this node sends at
    /// `since_start` after the armed run began. Draws only inside an
    /// impairment window; overlapping windows resolve in plan order.
    pub fn decide(&mut self, since_start: SimDuration) -> NetDecision {
        for (from, until, imp) in self.windows.iter() {
            if since_start >= *from && since_start < *until {
                let u: f64 = self.rng.gen();
                return imp.decide(u);
            }
        }
        NetDecision::Deliver
    }
}

impl FaultInjector {
    /// Compiles `plan` for an experiment `seed`. The RNG stream is
    /// independent of every other simulator stream, so arming a plan
    /// with no probabilistic faults perturbs nothing.
    pub fn new(plan: &FaultPlan, seed: u64) -> Self {
        let mut timeline = Vec::new();
        let mut windows = Vec::new();
        // Constructed before compiling so bit-rot specs can draw their
        // placement seeds in plan order. Plans without bit-rot draw
        // nothing here, preserving every existing plan's history.
        let mut rng = stream_rng(seed, streams::FAULTS);
        for spec in &plan.specs {
            match spec.clone() {
                FaultSpec::ServerCrash {
                    server,
                    at,
                    restart_after,
                } => {
                    timeline.push((at, TimedFault::Crash { server }));
                    timeline.push((at + restart_after, TimedFault::Restart { server }));
                }
                FaultSpec::SsdLoss { server, at } => {
                    timeline.push((at, TimedFault::SsdLoss { server }));
                }
                FaultSpec::FailSlow {
                    server,
                    dev,
                    from,
                    until,
                    factor,
                } => {
                    timeline.push((
                        from,
                        TimedFault::SlowStart {
                            server,
                            dev,
                            factor,
                        },
                    ));
                    timeline.push((until, TimedFault::SlowEnd { server, dev }));
                }
                FaultSpec::NetFault { from, until, imp } => {
                    windows.push((from, until, imp.clone()));
                }
                FaultSpec::TornWrite {
                    server,
                    at,
                    restart_after,
                    records,
                } => {
                    // TornWrite precedes Crash at the same instant; the
                    // stable sort below keeps that push order.
                    timeline.push((at, TimedFault::TornWrite { server, records }));
                    timeline.push((at, TimedFault::Crash { server }));
                    timeline.push((at + restart_after, TimedFault::Restart { server }));
                }
                FaultSpec::BitRot {
                    server,
                    at,
                    sectors,
                    target,
                } => {
                    let rot_seed: u64 = rng.gen();
                    timeline.push((
                        at,
                        TimedFault::BitRot {
                            server,
                            sectors,
                            seed: rot_seed,
                            target,
                        },
                    ));
                }
                FaultSpec::MdsCrash { at, restart_after } => {
                    timeline.push((at, TimedFault::MdsCrash));
                    timeline.push((at + restart_after, TimedFault::MdsRestart));
                }
                FaultSpec::MdsPartition { at, heal_after } => {
                    timeline.push((at, TimedFault::MdsPartitionStart));
                    timeline.push((at + heal_after, TimedFault::MdsPartitionHeal));
                }
            }
        }
        // Stable by time: simultaneous faults fire in plan order.
        timeline.sort_by_key(|(t, _)| *t);
        FaultInjector {
            timeline,
            armed: false,
            windows: windows.into(),
            rng,
            retry: plan.retry_config(),
        }
    }

    /// Builds the network decider for one node, or `None` when the plan
    /// has no impairment windows (so faultless runs carry no decider
    /// state at all).
    pub fn net_decider(&self, seed: u64, node: u16) -> Option<NetDecider> {
        if self.windows.is_empty() {
            return None;
        }
        Some(NetDecider {
            windows: Arc::clone(&self.windows),
            rng: stream_rng(derive_seed(seed, streams::FAULTS_NET), node as u64),
        })
    }

    /// The retry policy the cluster should run while this injector is
    /// armed.
    pub fn retry(&self) -> &RetryConfig {
        &self.retry
    }

    /// Hands the timed-fault schedule to the cluster exactly once (the
    /// run that arms it); later runs on the same cluster see an empty
    /// timeline rather than a re-injection.
    pub fn arm(&mut self) -> &[(SimDuration, TimedFault)] {
        if self.armed {
            return &[];
        }
        self.armed = true;
        &self.timeline
    }

    /// Decides the fate of a data-plane message sent at `since_start`
    /// after the armed run began. Draws from the fault RNG only inside
    /// an impairment window, so runs without network faults consume no
    /// randomness here. Overlapping windows: the first (plan order)
    /// containing window wins.
    pub fn decide(&mut self, since_start: SimDuration) -> NetDecision {
        for (from, until, imp) in self.windows.iter() {
            if since_start >= *from && since_start < *until {
                let u: f64 = self.rng.gen();
                return imp.decide(u);
            }
        }
        NetDecision::Deliver
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::FaultPlan;

    fn plan(text: &str) -> FaultPlan {
        FaultPlan::parse(text).expect("test plan parses")
    }

    #[test]
    fn timeline_is_sorted_and_derives_closing_events() {
        let p = plan(
            "fail-slow server=1 dev=primary from=50ms until=90ms factor=3\n\
             crash server=0 at=10ms restart=30ms\n",
        );
        let mut inj = FaultInjector::new(&p, 7);
        let tl: Vec<_> = inj.arm().to_vec();
        assert_eq!(
            tl,
            vec![
                (
                    SimDuration::from_millis(10),
                    TimedFault::Crash { server: 0 }
                ),
                (
                    SimDuration::from_millis(40),
                    TimedFault::Restart { server: 0 }
                ),
                (
                    SimDuration::from_millis(50),
                    TimedFault::SlowStart {
                        server: 1,
                        dev: FaultDev::Primary,
                        factor: 3.0
                    }
                ),
                (
                    SimDuration::from_millis(90),
                    TimedFault::SlowEnd {
                        server: 1,
                        dev: FaultDev::Primary
                    }
                ),
            ]
        );
        assert!(inj.arm().is_empty(), "second arm must hand out nothing");
    }

    #[test]
    fn torn_write_compiles_to_tear_then_crash_then_restart() {
        let p = plan(
            "torn-write server=1 at=120ms restart=60ms records=2\n\
             mds-crash at=80ms restart=100ms\n",
        );
        let mut inj = FaultInjector::new(&p, 7);
        let tl: Vec<_> = inj.arm().to_vec();
        assert_eq!(
            tl,
            vec![
                (SimDuration::from_millis(80), TimedFault::MdsCrash),
                (
                    SimDuration::from_millis(120),
                    TimedFault::TornWrite {
                        server: 1,
                        records: 2
                    }
                ),
                (
                    SimDuration::from_millis(120),
                    TimedFault::Crash { server: 1 }
                ),
                // Both recover at 180ms; the torn-write spec comes first
                // in the plan, so the stable sort keeps its Restart first.
                (
                    SimDuration::from_millis(180),
                    TimedFault::Restart { server: 1 }
                ),
                (SimDuration::from_millis(180), TimedFault::MdsRestart),
            ]
        );
    }

    #[test]
    fn bit_rot_seed_is_deterministic_per_experiment_seed() {
        let p = plan("bit-rot server=0 at=100ms sectors=3\n");
        let tl_a: Vec<_> = FaultInjector::new(&p, 42).arm().to_vec();
        let tl_b: Vec<_> = FaultInjector::new(&p, 42).arm().to_vec();
        assert_eq!(tl_a, tl_b, "same seed must place the rot identically");
        let tl_c: Vec<_> = FaultInjector::new(&p, 43).arm().to_vec();
        assert_ne!(tl_a, tl_c, "different seed must draw a different rot seed");
        match tl_a[0].1 {
            TimedFault::BitRot {
                server, sectors, ..
            } => {
                assert_eq!(server, 0);
                assert_eq!(sectors, 3);
            }
            ref other => panic!("expected BitRot, got {other:?}"),
        }
    }

    #[test]
    fn decide_is_deterministic_per_seed() {
        let p = plan("net from=0ms until=100ms drop=0.3 delay=0.3 delay-by=1ms dup=0.2\n");
        let mut a = FaultInjector::new(&p, 42);
        let mut b = FaultInjector::new(&p, 42);
        let da: Vec<_> = (0..64)
            .map(|i| a.decide(SimDuration::from_millis(i)))
            .collect();
        let db: Vec<_> = (0..64)
            .map(|i| b.decide(SimDuration::from_millis(i)))
            .collect();
        assert_eq!(da, db);
        // With these probabilities 64 draws hit every branch w.h.p.
        assert!(da.contains(&NetDecision::Drop));
        assert!(da.contains(&NetDecision::Deliver));
    }

    #[test]
    fn no_draws_outside_windows() {
        let p = plan("net from=10ms until=20ms drop=1\n");
        let mut inj = FaultInjector::new(&p, 1);
        assert_eq!(
            inj.decide(SimDuration::from_millis(5)),
            NetDecision::Deliver
        );
        assert_eq!(
            inj.decide(SimDuration::from_millis(25)),
            NetDecision::Deliver
        );
        assert_eq!(
            inj.decide(SimDuration::from_millis(20)),
            NetDecision::Deliver
        );
        assert_eq!(inj.decide(SimDuration::from_millis(10)), NetDecision::Drop);
        assert_eq!(inj.decide(SimDuration::from_millis(19)), NetDecision::Drop);
    }

    #[test]
    fn net_deciders_are_per_node_deterministic_streams() {
        let p = plan("net from=0ms until=100ms drop=0.5\n");
        let inj = FaultInjector::new(&p, 42);
        let decisions = |d: &mut NetDecider| -> Vec<NetDecision> {
            (0..32)
                .map(|i| d.decide(SimDuration::from_millis(i)))
                .collect()
        };
        let mut a = inj.net_decider(42, 3).expect("windows present");
        let mut b = inj.net_decider(42, 3).expect("windows present");
        assert_eq!(
            decisions(&mut a),
            decisions(&mut b),
            "same node, same stream"
        );
        let mut c = inj.net_decider(42, 4).expect("windows present");
        assert_ne!(
            decisions(&mut a),
            decisions(&mut c),
            "nodes must not share draws"
        );
        let faultless = plan("crash server=0 at=10ms restart=30ms\n");
        assert!(
            FaultInjector::new(&faultless, 42)
                .net_decider(42, 0)
                .is_none(),
            "no impairment windows, no decider"
        );
    }

    #[test]
    fn server_mut_targets_the_server_of_every_server_fault() {
        let dev = FaultDev::Primary;
        let server_faults = [
            TimedFault::Crash { server: 9 },
            TimedFault::Restart { server: 9 },
            TimedFault::SsdLoss { server: 9 },
            TimedFault::SlowStart {
                server: 9,
                dev,
                factor: 2.0,
            },
            TimedFault::SlowEnd { server: 9, dev },
            TimedFault::TornWrite {
                server: 9,
                records: 1,
            },
            TimedFault::BitRot {
                server: 9,
                sectors: 1,
                seed: 3,
                target: RotTarget::Any,
            },
        ];
        for mut f in server_faults {
            let name = format!("{f:?}");
            let s = f.server_mut().expect("a server fault has a target");
            assert_eq!(*s, 9, "{name}");
            *s %= 4;
            assert_eq!(f.server_mut().copied(), Some(1), "{name}");
        }
        for mut f in [
            TimedFault::MdsCrash,
            TimedFault::MdsRestart,
            TimedFault::MdsPartitionStart,
            TimedFault::MdsPartitionHeal,
        ] {
            assert!(f.server_mut().is_none(), "{f:?}");
        }
    }

    #[test]
    fn fault_stats_zero_roundtrip() {
        let s = FaultStats::default();
        assert!(s.is_zero());
        let mut s2 = s;
        s2.retries = 1;
        assert!(!s2.is_zero());
        assert_eq!(s.degraded_secs(), 0.0);
    }
}
