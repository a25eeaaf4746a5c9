//! The cluster: clients, network, metadata server and data servers wired
//! onto one discrete-event calendar.
//!
//! [`Cluster::run`] executes a [`Workload`] to completion — including the
//! end-of-run writeback drain, which the paper deliberately counts in
//! program execution time — and returns a [`RunStats`] with everything
//! the experiment harness needs (throughput, request latencies, per-
//! server device statistics and blktrace-style dispatch histograms).
//!
//! A cluster can be run multiple times without rebuilding: file-system
//! allocations and cache contents persist, which is how the harness
//! warms the iBridge cache before read experiments (the paper relies on
//! the same effect across repeated production runs).
//!
//! # Nodes and the job table
//!
//! The calendar has one node for the clients and the metadata service
//! (node 0, the coordinator) and one per data server. A run keeps all of
//! its state in one place and handles every event with one `match`, but
//! an effect on another node happens only through a posted event: a
//! sub-request, a reply, a T report, a broadcast, a steer-off or the
//! drain kick. [`ibridge_des::Simulation`] asserts on every post between
//! two nodes that it lands at least one network floor in the future.
//!
//! The job table holds the payload of every sub-request message in
//! flight, so a message carries only its job id. The client inserts one
//! record per copy the fabric delivers (a dropped message gets none).
//! The server takes the record's sub-request when its CPU admits the job
//! and removes the record when it replies. A message that reaches a dead
//! server, a job queued by a process that has since crashed, and a job
//! in the custody of a crashed server or a lost SSD lose their records
//! too. Probabilistic network impairments draw from per-node RNG streams
//! ([`ibridge_faults::NetDecider`]). Event keys are intrinsic `(time,
//! source node, per-node sequence)`, so every stat, trace and golden is
//! byte-identical at any `--jobs` level.
//!
//! This file holds the configuration, the event type, the cluster and its
//! event loop. The handlers live by domain in `client`, `mds`, `servers`
//! and `faults` (with the auditor), and what a run reports in `stats`.

use crate::layout::Layout;
use crate::policy::CachePolicy;
#[cfg(feature = "obs")]
use crate::policy::MaintStats;
use crate::proto::{FileRequest, SubRequest};
use crate::server::{DataServer, DevKind, JobId, ServerConfig, ServerOut};
use crate::workload::Workload;
use ibridge_des::fxhash::FxHashMap as HashMap;
use ibridge_des::stats::{Histogram, MeanTracker};
use ibridge_des::{EventId, SimDuration, SimTime, Simulation};
use ibridge_faults::{FaultInjector, FaultPlan, FaultStats, NetDecider, RetryConfig, TimedFault};
use ibridge_localfs::FileHandle;
use ibridge_mds::{
    Action as MdsAction, Entry as MdsEntry, MdsConfig, MdsGroup, MdsStats, Msg as MdsMsg,
};
use ibridge_net::{Link, LinkConfig};
use rand::rngs::StdRng;
use std::sync::atomic::Ordering;
use std::sync::Arc;

mod client;
mod faults;
mod mds;
mod servers;
mod stats;

use client::{ParentState, ProcState};
pub use stats::{
    total_events_dispatched, total_fault_counters, total_window_counters, FaultTotals, RunStats,
    ServerRunStats,
};
use stats::{TOTAL_AUDITS, TOTAL_EVENTS};

/// Cluster-wide configuration.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of data servers (the paper's testbed: 8).
    pub n_servers: usize,
    /// Stripe unit in bytes (PVFS2 default: 64 KB).
    pub stripe_unit: u64,
    /// Interconnect parameters.
    pub link: LinkConfig,
    /// Per-server configuration.
    pub server: ServerConfig,
    /// Client-side fragment/random threshold in bytes (paper: 20 KB).
    pub threshold: u64,
    /// Enable iBridge's client-side fragment flagging.
    pub flag_fragments: bool,
    /// Interval of the per-server T-value report to the MDS (paper: 1 s).
    pub report_interval: SimDuration,
    /// Metadata-service replicas. T reports and steering updates always
    /// go through a raft-style group that runs entirely on the
    /// coordinator, in virtual time. `1` (the default) is the paper's
    /// single MDS: a one-replica group that leads without elections and
    /// commits on propose, and a SPOF whose crash degrades clients to
    /// stale T values. `> 1` commits at majority and survives leader
    /// crashes and partitions via deterministic seeded elections.
    pub mds_replicas: usize,
    /// Interval of the writeback daemon's idle check.
    pub writeback_interval: SimDuration,
    /// Maximum per-request client-side jitter (OS scheduling noise,
    /// network variance), drawn uniformly. This is what desynchronises
    /// the processes — the paper's "nondeterminism of parallel
    /// execution" that defeats in-kernel prefetching and merging.
    pub client_jitter: SimDuration,
    /// Experiment seed (jitter and any stochastic workload draws).
    pub seed: u64,
    /// Ignored: every run dispatches on one calendar at any value. This
    /// was the number of data-server shards of the removed sharded
    /// calendar; the field stays only because the `ibench` package still
    /// sets it, and goes with ibench's hetero-pdes `shards: 2`.
    pub shards: usize,
    /// Ignored: runs are serial at any value. This was the thread count
    /// of the removed threaded driver; the field stays only because the
    /// `ibench` package still sets it, and goes with ibench's
    /// `Spec::threads`.
    pub threads: usize,
    /// Virtual-time cadence of the online invariant auditor: every
    /// elapsed interval the auditor cross-checks every live server's
    /// policy invariants and the process-epoch monotonicity, aborting
    /// with a structured diagnostic on the first violation. The final
    /// audit at the end of the run also checks that no in-flight record
    /// is left over. `None` disables auditing. The auditor is synchronous
    /// and read-only — it posts no events and draws no randomness, so an
    /// audited run is byte-identical to an unaudited one.
    pub audit_interval: Option<SimDuration>,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            n_servers: 8,
            stripe_unit: 64 * 1024,
            link: LinkConfig::qdr_infiniband(),
            server: ServerConfig::default(),
            threshold: 20 * 1024,
            flag_fragments: false,
            report_interval: SimDuration::from_secs(1),
            mds_replicas: 1,
            writeback_interval: SimDuration::from_millis(100),
            client_jitter: SimDuration::from_millis(10),
            seed: 42,
            shards: 1,
            threads: 1,
            audit_interval: None,
        }
    }
}

/// Node id of the client/MDS coordinator.
const COORD: u16 = 0;

/// Node id of data server `s` (the coordinator is node 0).
fn srv_node(s: usize) -> u16 {
    s as u16 + 1
}

#[derive(Debug)]
enum Ev {
    /// Process is ready to fetch its next work item.
    Wake { proc: usize },
    /// Think time elapsed; issue the request.
    Issue { proc: usize, req: FileRequest },
    /// Sub-request message reached its server; its record waits in the
    /// job table under `job`.
    SubArrive { server: usize, job: JobId },
    /// Server CPU admitted the sub-request. `epoch` is the server's
    /// process epoch at admission: a crash bumps it, so executions queued
    /// by the dead process are discarded instead of acting on the
    /// restarted one.
    SubExec {
        server: usize,
        job: JobId,
        epoch: u32,
    },
    /// A device finished its in-flight request. `epoch` guards against
    /// completions of a device instance that a crash or SSD loss has
    /// since torn down and rebuilt.
    DevComplete {
        server: usize,
        kind: DevKind,
        epoch: u32,
    },
    /// A device anticipation timer fired.
    DevRecheck {
        server: usize,
        kind: DevKind,
        gen: u64,
        epoch: u32,
    },
    /// A sub-reply reached the client. `sub_idx` identifies the
    /// sub-request within its parent so duplicate replies (retries,
    /// network duplication) are detected and dropped.
    Reply {
        proc: usize,
        parent: u64,
        sub_idx: u32,
    },
    /// A scheduled fault fires (only when a plan is armed).
    Fault(TimedFault),
    /// Client-side retransmission timer for one sub-request (only when a
    /// plan is armed; cancelled when the reply arrives).
    SubTimeout { parent: u64, sub_idx: u32 },
    /// Periodic T-value report from a server.
    Report { server: usize },
    /// The report reached the MDS.
    ReportArrive { server: usize, t: f64 },
    /// The MDS broadcast reached a server. The table is shared: one
    /// snapshot per report, not one clone per destination server.
    /// `version` is the metadata version the snapshot reflects (the MDS
    /// group's commit index); servers assert it never regresses.
    Broadcast {
        server: usize,
        version: u64,
        table: Arc<[f64]>,
    },
    /// An intra-MDS-group raft message or timer (a lone replica sends
    /// none). The whole group lives on the coordinator, so these are
    /// coordinator self-posts whose order is intrinsic.
    Mds(MdsMsg),
    /// Re-proposal of a metadata update that found no MDS leader while a
    /// quorum could still elect one: the update waits out the failover
    /// instead of being dropped.
    MdsRetry { entry: MdsEntry },
    /// Periodic writeback-daemon check.
    WritebackTick { server: usize },
    /// End-of-run drain kick, posted by the coordinator to every server
    /// (and locally by a mid-drain restart).
    DrainTick { server: usize },
    /// A server lost its SSD: once the MDS commits the steer-off it
    /// zeroes that server's T slot, so fragments stop being steered at
    /// it. The table lives on the coordinator, one lookahead away from
    /// the failing server.
    SteerOff { server: usize },
}

/// A record of the job table: one sub-request message in flight, from
/// the moment the client sends it until the server replies or the job is
/// lost.
#[derive(Debug, Clone)]
struct PendingJob {
    /// Taken (moved into the server) when the CPU admits the job; the
    /// reply size is precomputed so the reply path never needs it back.
    sub: Option<SubRequest>,
    reply_bytes: u64,
    proc: usize,
    parent: u64,
    server: usize,
    sub_idx: u32,
}

/// Cross-run state of the coordinator: the clients' RNG and id counters,
/// and the metadata server.
struct CoordPersist {
    /// Link the MDS broadcasts the T-table on.
    mds_link: Link,
    /// The T-table as of the last commit: one slot per data server.
    mds_table: Vec<f64>,
    /// The metadata service, `mds_replicas` strong. Every T report and
    /// steer-off is proposed to it, and the table changes only at
    /// commit; its commit index versions each broadcast.
    mds: MdsGroup,
    jitter_rng: StdRng,
    next_job: u64,
    next_parent: u64,
    /// Per-node network-impairment dice for client → server messages
    /// (`None` when no plan with net windows is armed).
    decider: Option<NetDecider>,
}

/// Cross-run state of one data server.
struct ServerCell {
    server: DataServer,
    /// Server → client reply link.
    link: Link,
    /// Process currently crashed.
    down: bool,
    /// Process epoch (bumped on crash).
    srv_epoch: u32,
    /// Device epochs, `[primary, cache]` (crash bumps both, SSD loss
    /// bumps only the cache slot).
    dev_epoch: [u32; 2],
    /// Count of overlapping degradation causes (down, slow window, lost
    /// SSD); time with depth > 0 accrues to [`FaultStats::degraded`].
    degraded_depth: u32,
    degraded_since: SimTime,
    /// Highest metadata version seen in a broadcast — the server-side
    /// T-monotonicity check (versions must never regress).
    bcast_version: u64,
    /// Per-node network-impairment dice for this server's replies.
    decider: Option<NetDecider>,
}

/// The simulated cluster.
pub struct Cluster {
    cfg: ClusterConfig,
    sim: Simulation<Ev>,
    coord: CoordPersist,
    servers: Vec<ServerCell>,
    /// Armed fault schedule; `None` keeps every fault path inert so an
    /// unarmed cluster is byte-identical to one that never saw a plan.
    injector: Option<FaultInjector>,
}

impl Cluster {
    /// Builds a cluster; `make_policy` constructs each server's cache
    /// policy (e.g. `|_| Box::new(StockPolicy::new())`).
    pub fn new(cfg: ClusterConfig, make_policy: impl Fn(usize) -> Box<dyn CachePolicy>) -> Self {
        let shared = cfg.server.clone();
        Self::heterogeneous(cfg, move |_| shared.clone(), make_policy)
    }

    /// Builds a cluster with per-server configurations — e.g. one
    /// degraded disk among healthy ones, the scenario where Eq. (3)'s
    /// bottleneck detection matters.
    pub fn heterogeneous(
        cfg: ClusterConfig,
        make_server: impl Fn(usize) -> ServerConfig,
        make_policy: impl Fn(usize) -> Box<dyn CachePolicy>,
    ) -> Self {
        assert!(cfg.n_servers > 0, "cluster needs at least one server");
        let servers = (0..cfg.n_servers)
            .map(|s| ServerCell {
                server: DataServer::new(s, make_server(s), make_policy(s)),
                link: Link::new(cfg.link.clone()),
                down: false,
                srv_epoch: 0,
                dev_epoch: [0, 0],
                degraded_depth: 0,
                degraded_since: SimTime::ZERO,
                bcast_version: 0,
                decider: None,
            })
            .collect();
        Cluster {
            coord: CoordPersist {
                mds_link: Link::new(cfg.link.clone()),
                mds_table: vec![0.0; cfg.n_servers],
                mds: MdsGroup::new(MdsConfig::new(cfg.mds_replicas, cfg.seed, cfg.link.clone())),
                jitter_rng: ibridge_des::rng::stream_rng(
                    cfg.seed,
                    ibridge_des::rng::streams::CLIENT,
                ),
                next_job: 0,
                next_parent: 0,
                decider: None,
            },
            // Node 0 is the coordinator, nodes 1..=n the servers; the
            // fabric's per-message floor is the fastest any event can
            // cross between them.
            sim: Simulation::new(cfg.n_servers + 1, cfg.link.lookahead()),
            servers,
            injector: None,
            cfg,
        }
    }

    /// Arms `plan` for the next run: its schedule is injected (times
    /// relative to that run's start) and the client switches to the
    /// plan's timeout/retry protocol. A faultless plan arms nothing at
    /// all — the run is byte-identical to one on a cluster that never
    /// saw a plan. Server ids in the plan are taken modulo `n_servers`.
    ///
    /// Each node gets its own impairment-decision RNG stream, so the
    /// dice one node rolls are independent of every other node's
    /// traffic.
    pub fn set_fault_plan(&mut self, plan: &FaultPlan) {
        self.injector = (!plan.is_faultless()).then(|| FaultInjector::new(plan, self.cfg.seed));
        let seed = self.cfg.seed;
        let inj = self.injector.as_ref();
        self.coord.decider = inj.and_then(|inj| inj.net_decider(seed, COORD));
        for (s, cell) in self.servers.iter_mut().enumerate() {
            cell.decider = inj.and_then(|inj| inj.net_decider(seed, srv_node(s)));
        }
    }

    /// The striping layout used for all files.
    pub fn layout(&self) -> Layout {
        Layout::new(self.cfg.stripe_unit, self.cfg.n_servers)
    }

    /// The configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.cfg
    }

    /// Direct server access (inspection in tests/harness).
    pub fn server(&self, i: usize) -> &DataServer {
        &self.servers[i].server
    }

    /// Preallocates a striped file of `logical_bytes` across the servers
    /// (the experiment data sets exist before measurement, as in the
    /// paper's setup).
    pub fn preallocate(&mut self, file: FileHandle, logical_bytes: u64) {
        let layout = Layout::new(self.cfg.stripe_unit, self.cfg.n_servers);
        let su = layout.stripe_unit;
        let units = logical_bytes.div_ceil(su);
        for (s, cell) in self.servers.iter_mut().enumerate() {
            // Units owned by server s among 0..units.
            let owned = units / layout.n_servers as u64
                + u64::from(units % layout.n_servers as u64 > s as u64);
            if owned > 0 {
                cell.server.preallocate(file, owned * su);
            }
        }
    }

    /// Runs `workload` to completion (including writeback drain);
    /// returns the run's statistics.
    ///
    /// State (file allocations, cache contents, device head positions)
    /// persists across calls, enabling warm-cache measurements.
    pub fn run(&mut self, workload: &mut dyn Workload) -> RunStats {
        let n_procs = workload.procs();
        assert!(n_procs > 0, "workload has no processes");
        let n_servers = self.cfg.n_servers;
        let start = self.sim.now();
        let dispatched_before = self.sim.dispatched();
        let layout = self.layout();
        let ibridge = self.cfg.flag_fragments;

        // Fault machinery. Everything below is inert when no plan is
        // armed: no extra events, no RNG draws, identical event order.
        let faults = self.injector.is_some();
        let retry = self
            .injector
            .as_ref()
            .map(|inj| inj.retry().clone())
            .unwrap_or_default();
        let mut fault_ids: Vec<Vec<EventId>> = vec![Vec::new(); n_servers + 1];
        if let Some(inj) = self.injector.as_mut() {
            // `arm` hands the timeline out exactly once, so a cluster
            // re-run without re-arming does not re-inject old faults.
            for &(off, mut f) in inj.arm() {
                // Each fault is posted by and onto the node it targets.
                // Server ids fold into the cluster's range so one plan
                // file works across cluster sizes. Cancellable: the run
                // drains the calendar to empty, so faults pending past
                // their target's quiescence are unscheduled.
                let node = match f.server_mut() {
                    Some(s) => {
                        *s %= n_servers;
                        srv_node(*s)
                    }
                    None => COORD,
                };
                let id = self.sim.schedule_at(node, node, start + off, Ev::Fault(f));
                fault_ids[usize::from(node)].push(id);
            }
        }
        for cell in &mut self.servers {
            // Degradation persisting from an earlier run (e.g. a lost
            // SSD) accrues from this run's start.
            if cell.degraded_depth > 0 {
                cell.degraded_since = start;
            }
            cell.server.prepare_run();
        }

        // Observability. Recording is read-only with respect to the
        // simulation — it posts no events and draws no randomness — so a
        // traced run is byte-identical to an untraced one. The device
        // snapshot anchors this run's measured-vs-predicted T_i deltas.
        #[cfg(feature = "obs")]
        ibridge_obs::trace::run_begin();
        #[cfg(feature = "obs")]
        let obs_dev0: Vec<ibridge_iosched::DevStats> = if ibridge_obs::metrics_on() {
            self.servers
                .iter()
                .map(|c| c.server.primary().stats())
                .collect()
        } else {
            Vec::new()
        };

        let client_links: Vec<Link> = (0..n_procs)
            .map(|_| Link::new(self.cfg.link.clone()))
            .collect();
        let use_barrier = workload.barrier();
        let barrier_mask: Vec<bool> = (0..n_procs).map(|p| workload.in_barrier(p)).collect();

        for proc in 0..n_procs {
            self.sim.post_now(COORD, COORD, Ev::Wake { proc });
        }
        // Re-arm the MDS group's timers for this run (the drain
        // cancelled them at the end of the previous run). All raft
        // traffic is coordinator-local, so these self-posts have no
        // lookahead constraint.
        let mds_before = self.coord.mds.stats();
        let mut acts = Vec::new();
        self.coord.mds.resume(start, &mut acts);
        for a in acts {
            if let MdsAction::Deliver { at, msg } = a {
                self.sim.post_at(COORD, COORD, at, Ev::Mds(msg));
            }
        }
        if ibridge {
            for server in 0..n_servers {
                let node = srv_node(server);
                self.sim
                    .post_in(node, node, self.cfg.report_interval, Ev::Report { server });
                self.sim.post_in(
                    node,
                    node,
                    self.cfg.writeback_interval,
                    Ev::WritebackTick { server },
                );
            }
        }

        let Cluster {
            cfg,
            sim,
            coord,
            servers,
            ..
        } = self;
        let cfg: &ClusterConfig = cfg;
        let mut run = Run {
            cfg,
            layout,
            ibridge,
            faults,
            start,
            coord,
            workload,
            retry,
            client_links,
            proc_state: vec![ProcState::Running; n_procs],
            proc_iter: vec![0u64; n_procs],
            active: n_procs,
            parents: HashMap::default(),
            jobs: HashMap::default(),
            latency_ms: MeanTracker::new(),
            latency_hist_ms: Histogram::new(),
            io_time: SimDuration::ZERO,
            think_time: SimDuration::ZERO,
            bytes: 0,
            requests: 0,
            client_done_at: start,
            proc_bytes: vec![0u64; n_procs],
            proc_done: vec![SimDuration::ZERO; n_procs],
            use_barrier,
            barrier_mask,
            fault_ids,
            fstats: FaultStats::default(),
            draining: false,
            was_quiescent: false,
            quiesced_at: start,
            cell_was_q: vec![false; n_servers],
            next_audit: cfg.audit_interval.map(|iv| start + iv),
            audit_epochs: servers.iter().map(|c| c.srv_epoch).collect(),
            audits: 0,
            pieces_scratch: Vec::new(),
            subs_scratch: Vec::new(),
            out: ServerOut::default(),
            lost_jobs: Vec::new(),
            mds_acts: Vec::new(),
            cells: servers,
        };

        sim.run(|sim, now, ev| run.handle(sim, now, ev));

        // The calendar ran to empty; trailing impaired messages
        // (delayed or duplicated replies) may dispatch after the last
        // meaningful work, so the run's end is bookkept: the last
        // client completion and the servers' drain quiescence.
        let end = run.client_done_at.max(run.quiesced_at);

        // A final audit closes the run: recovered state must be sound
        // at quiescence, not just at the last cadence tick.
        if cfg.audit_interval.is_some() {
            run.audit_end(end);
            TOTAL_AUDITS.fetch_add(1 + run.audits, Ordering::Relaxed);
        }

        let events_dispatched = sim.dispatched() - dispatched_before;
        TOTAL_EVENTS.fetch_add(events_dispatched, Ordering::Relaxed);

        let mut fstats = run.fstats;

        // Close out the MDS group for this run: accrue any still-open
        // leaderless window to `end`, then fold the per-run stats delta
        // (the group persists across runs) into the fault counters.
        run.coord.mds.finish(end);
        let s = run.coord.mds.stats();
        let b = mds_before;
        let mds_run = MdsStats {
            elections: s.elections - b.elections,
            leader_changes: s.leader_changes - b.leader_changes,
            recovery_ticks: s.recovery_ticks - b.recovery_ticks,
            log_replayed: s.log_replayed - b.log_replayed,
            proposals: s.proposals - b.proposals,
            commits: s.commits - b.commits,
        };
        fstats.mds_elections += mds_run.elections;
        fstats.mds_leader_changes += mds_run.leader_changes;
        fstats.mds_recovery_ticks += mds_run.recovery_ticks;
        // The MDS table is recorded for groups with peers, or when a
        // single MDS's outage left clients steering on stale T values.
        #[cfg(feature = "obs")]
        if ibridge_obs::metrics_on() && (run.coord.mds.n() > 1 || fstats.stale_t_decisions > 0) {
            ibridge_obs::metrics::record_mds(&ibridge_obs::metrics::MdsAgg {
                runs: 1,
                elections: mds_run.elections,
                leader_changes: mds_run.leader_changes,
                recovery_ticks: mds_run.recovery_ticks,
                stale_t_decisions: fstats.stale_t_decisions,
                proposals: mds_run.proposals,
                commits: mds_run.commits,
            });
        }
        for cell in run.cells.iter_mut() {
            // Close degradation windows still open at run end (a lost
            // SSD degrades the server for the rest of its life).
            if cell.degraded_depth > 0 {
                fstats.degraded += end - cell.degraded_since;
                cell.degraded_since = end;
            }
        }

        // Measured-vs-predicted T_i: the policy's Eq. 1 model forecasts
        // per-request disk busy time; compare it to this run's actual
        // per-request busy delta on the primary device. Restarted servers
        // get fresh devices mid-run, which would make the delta negative
        // — those runs contribute no sample.
        #[cfg(feature = "obs")]
        if ibridge_obs::metrics_on() {
            for (s_id, (cell, d0)) in run.cells.iter().zip(&obs_dev0).enumerate() {
                let pred_s = cell.server.policy().report_t();
                let st = cell.server.primary().stats();
                if pred_s > 0.0 && st.requests > d0.requests && st.busy >= d0.busy {
                    let meas =
                        (st.busy.as_nanos() - d0.busy.as_nanos()) / (st.requests - d0.requests);
                    let pred = (pred_s * 1e9).round() as u64;
                    ibridge_obs::metrics::record_ti(s_id as u16, pred, meas);
                }
            }
        }

        let servers: Vec<ServerRunStats> = run
            .cells
            .iter()
            .map(|cell| {
                let s = &cell.server;
                let (ra_hits, ra_bytes) = s.readahead_hits();
                ServerRunStats {
                    primary: s.primary().stats(),
                    cache: s.cache().map(|c| c.stats()),
                    policy: s.policy().stats(),
                    maint: s.policy().maint_stats(),
                    primary_reads: s.primary().tracer().reads().clone(),
                    primary_writes: s.primary().tracer().writes().clone(),
                    ra_hits,
                    ra_bytes,
                }
            })
            .collect();
        #[cfg(feature = "obs")]
        if ibridge_obs::metrics_on() {
            // Fold this run's maintenance counters across servers. Gauges
            // are per-run snapshots, not monotone — keep them out of the
            // registry's sums.
            let mut m = MaintStats::default();
            for s in &servers {
                m.absorb(&s.maint);
            }
            m.live_segments = 0;
            m.live_records = 0;
            m.live_backup_bytes = 0;
            if !m.is_zero() {
                ibridge_obs::metrics::record_maint(&ibridge_obs::metrics::MaintAgg {
                    runs: 1,
                    ticks: m.ticks,
                    busy_skips: m.busy_skips,
                    records_appended: m.records_appended,
                    tombstones: m.tombstones,
                    supersedes: m.supersedes,
                    backup_bytes: m.backup_bytes,
                    segments_sealed: m.segments_sealed,
                    segments_compacted: m.segments_compacted,
                    segments_reclaimed: m.segments_reclaimed,
                    records_rewritten: m.records_rewritten,
                    rewrite_bytes: m.rewrite_bytes,
                    checkpoints: m.checkpoints,
                    checkpoint_records: m.checkpoint_records,
                    checkpoint_bytes: m.checkpoint_bytes,
                    scrub_segments: m.scrub_segments,
                    scrub_records: m.scrub_records,
                    scrub_repairs: m.scrub_repairs,
                });
            }
        }
        RunStats {
            elapsed: end - start,
            client_elapsed: run.client_done_at - start,
            bytes: run.bytes,
            requests: run.requests,
            latency_ms: run.latency_ms,
            latency_hist_ms: run.latency_hist_ms,
            io_time: run.io_time,
            think_time: run.think_time,
            events_dispatched,
            proc_bytes: run.proc_bytes,
            proc_done: run.proc_done,
            servers,
            faults: fstats,
        }
    }
}

/// The state of one [`Cluster::run`]: the cluster's cross-run state, on
/// loan for the run, and everything the run adds on top.
struct Run<'r> {
    cfg: &'r ClusterConfig,
    layout: Layout,
    ibridge: bool,
    /// A plan is armed: track sub-requests for timeout/retry/dedup.
    faults: bool,
    /// This run's start time (net-impairment windows are relative to it).
    start: SimTime,
    coord: &'r mut CoordPersist,
    cells: &'r mut [ServerCell],
    workload: &'r mut dyn Workload,
    retry: RetryConfig,
    client_links: Vec<Link>,
    proc_state: Vec<ProcState>,
    proc_iter: Vec<u64>,
    /// Processes not yet done. When the last one finishes the client
    /// kicks the end-of-run drain.
    active: usize,
    parents: HashMap<u64, ParentState>,
    /// The job table: every sub-request message in flight, by job id.
    jobs: HashMap<JobId, PendingJob>,
    latency_ms: MeanTracker,
    latency_hist_ms: Histogram,
    io_time: SimDuration,
    think_time: SimDuration,
    bytes: u64,
    requests: u64,
    client_done_at: SimTime,
    proc_bytes: Vec<u64>,
    proc_done: Vec<SimDuration>,
    use_barrier: bool,
    barrier_mask: Vec<bool>,
    /// Pending scheduled faults per node: the MDS's (node 0) are
    /// cancelled at the drain kick, a server's when it reaches
    /// quiescence during the drain, so the calendar can run to empty.
    fault_ids: Vec<Vec<EventId>>,
    fstats: FaultStats,
    /// The end-of-run drain reached the servers.
    draining: bool,
    /// All cells quiescent at the last server event (transition detector
    /// for `quiesced_at`).
    was_quiescent: bool,
    /// When the servers last became quiescent during the drain.
    quiesced_at: SimTime,
    cell_was_q: Vec<bool>,
    next_audit: Option<SimTime>,
    audit_epochs: Vec<u32>,
    audits: u64,
    /// Scratch reused across events: after warm-up the event loop
    /// performs no allocation for request decomposition, server output
    /// or MDS actions.
    pieces_scratch: Vec<(usize, u64, u64)>,
    subs_scratch: Vec<SubRequest>,
    out: ServerOut,
    lost_jobs: Vec<JobId>,
    mds_acts: Vec<MdsAction>,
}

impl Run<'_> {
    /// Handles one event. Client and MDS events return from the `match`;
    /// server events fall through to the servers' post-event tail.
    fn handle(&mut self, sim: &mut Simulation<Ev>, now: SimTime, ev: Ev) {
        match ev {
            Ev::Wake { proc } => return self.wake(sim, now, proc),
            Ev::Issue { proc, req } => return self.issue(sim, now, proc, req),
            Ev::Reply {
                proc,
                parent,
                sub_idx,
            } => return self.reply(sim, now, proc, parent, sub_idx),
            Ev::SubTimeout { parent, sub_idx } => {
                return self.sub_timeout(sim, now, parent, sub_idx)
            }
            Ev::ReportArrive { server, t } => {
                // The report becomes a log entry; the table mutates (and
                // broadcasts) only at commit.
                return self.mds_propose(sim, now, MdsEntry::TReport { server, t });
            }
            Ev::SteerOff { server } => {
                // The MDS stops steering fragments at a server that lost
                // its SSD.
                return self.mds_propose(sim, now, MdsEntry::SteerOff { server });
            }
            Ev::Mds(msg) => {
                // A raft message (timer or RPC delivery) inside the group.
                // After the drain kick the group is frozen: dropping the
                // message re-arms nothing, so the calendar runs to empty.
                if self.active > 0 {
                    self.mds_call(sim, now, |g, acts| g.handle(now, msg, acts));
                }
                return;
            }
            Ev::MdsRetry { entry } => {
                if self.active > 0 {
                    self.mds_propose(sim, now, entry);
                }
                return;
            }
            Ev::Fault(mut fault) => {
                // An MDS fault runs on the coordinator and skips the
                // servers' tail.
                let mds = fault.server_mut().is_none();
                self.fault(sim, now, fault);
                if mds {
                    return;
                }
            }
            Ev::SubArrive { server, job } => self.sub_arrive(sim, now, server, job),
            Ev::SubExec { server, job, epoch } => self.sub_exec(sim, now, server, job, epoch),
            Ev::DevComplete {
                server,
                kind,
                epoch,
            } => self.dev_complete(sim, now, server, kind, epoch),
            Ev::DevRecheck {
                server,
                kind,
                gen,
                epoch,
            } => self.dev_recheck(sim, now, server, kind, gen, epoch),
            Ev::Report { server } => self.report(sim, now, server),
            Ev::Broadcast {
                server,
                version,
                table,
            } => self.broadcast(server, version, &table),
            Ev::WritebackTick { server } => self.writeback_tick(sim, now, server),
            Ev::DrainTick { server } => self.drain_tick(sim, now, server),
        }
        self.server_tail(sim, now);
    }
}

#[cfg(test)]
mod tests;
