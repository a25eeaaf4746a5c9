//! Fault glue (scheduled faults, network impairments, degraded time)
//! and the online invariant auditor.

use super::{Ev, Run, ServerCell};
use crate::policy::LogCorruption;
use ibridge_des::{SimDuration, SimTime, Simulation};
use ibridge_faults::{FaultStats, NetDecider, TimedFault};
use ibridge_net::NetDecision;
use ibridge_obs::trace::{server_node, CLIENT_NODE};

impl Run<'_> {
    /// Applies one scheduled fault on the node it targets.
    pub(super) fn fault(&mut self, sim: &mut Simulation<Ev>, now: SimTime, fault: TimedFault) {
        match fault {
            TimedFault::Crash { server } => {
                let cell = &mut self.cells[server];
                if !cell.down {
                    cell.down = true;
                    self.fstats.crashes += 1;
                    cell.srv_epoch = cell.srv_epoch.wrapping_add(1);
                    cell.dev_epoch[0] = cell.dev_epoch[0].wrapping_add(1);
                    cell.dev_epoch[1] = cell.dev_epoch[1].wrapping_add(1);
                    cell.server.crash(now);
                    degrade_start(cell, now);
                    // Sub-requests in the dead process's custody vanish
                    // with it; the clients' timeouts recover them. Queued
                    // ones die at their stale-epoch `SubExec`, and those
                    // still on the wire at their `SubArrive`.
                    self.jobs
                        .retain(|_, pj| !(pj.server == server && pj.sub.is_none()));
                }
            }
            TimedFault::Restart { server } => {
                let cell = &mut self.cells[server];
                if cell.down {
                    cell.down = false;
                    self.fstats.restarts += 1;
                    let report = cell.server.restart(now);
                    self.fstats.clean_entries_dropped += report.clean_entries_dropped;
                    self.fstats.pending_entries_dropped += report.pending_entries_dropped;
                    self.fstats.fsck_records_scanned += report.records_scanned;
                    self.fstats.fsck_records_quarantined += report.records_quarantined;
                    self.fstats.dirty_bytes_lost += report.dirty_bytes_lost;
                    degrade_end(&mut self.fstats, cell, now);
                    if self.draining {
                        // Replayed dirty entries must still be written
                        // back for the run to quiesce. The restart runs
                        // on the server's own node, so the kick is local.
                        let node = server_node(server);
                        sim.post_now(node, node, Ev::DrainTick { server });
                    }
                }
            }
            TimedFault::SsdLoss { server } => {
                let cell = &mut self.cells[server];
                if cell.server.cache().is_some() {
                    self.fstats.ssd_losses += 1;
                    cell.dev_epoch[1] = cell.dev_epoch[1].wrapping_add(1);
                    let mut lost_jobs = std::mem::take(&mut self.lost_jobs);
                    lost_jobs.clear();
                    self.fstats.dirty_bytes_lost += cell.server.lose_cache_dev(now, &mut lost_jobs);
                    for job in lost_jobs.drain(..) {
                        self.jobs.remove(&job);
                    }
                    self.lost_jobs = lost_jobs;
                    // Tell the MDS to stop steering fragments at this
                    // server; its table lives on the coordinator, one
                    // lookahead away.
                    let node = server_node(server);
                    sim.post_at(
                        node,
                        CLIENT_NODE,
                        now + sim.lookahead(),
                        Ev::SteerOff { server },
                    );
                    degrade_start(cell, now);
                }
            }
            TimedFault::SlowStart {
                server,
                dev,
                factor,
            } => {
                self.fstats.slow_windows += 1;
                let cell = &mut self.cells[server];
                cell.server.set_slow_factor(dev, factor);
                degrade_start(cell, now);
            }
            TimedFault::SlowEnd { server, dev } => {
                let cell = &mut self.cells[server];
                cell.server.set_slow_factor(dev, 1.0);
                degrade_end(&mut self.fstats, cell, now);
            }
            TimedFault::TornWrite { server, records } => {
                // Fires immediately before its Crash (same instant, plan
                // order): the records are torn on media before the
                // restart's recovery fsck ever sees them.
                let cell = &mut self.cells[server];
                if !cell.down {
                    cell.server
                        .corrupt_cache(now, LogCorruption::TornWrite { records });
                    self.fstats.torn_writes += 1;
                }
            }
            TimedFault::BitRot {
                server,
                sectors,
                seed,
                target,
            } => {
                let cell = &mut self.cells[server];
                if !cell.down {
                    self.fstats.rotted_records += cell.server.corrupt_cache(
                        now,
                        LogCorruption::BitRot {
                            sectors,
                            seed,
                            target,
                        },
                    );
                }
            }
            TimedFault::MdsCrash => self.mds_set_down(now, true),
            TimedFault::MdsRestart => self.mds_set_down(now, false),
        }
    }

    /// One pass of the online invariant auditor over the servers:
    /// cross-checks every live server's policy invariants (partition
    /// accounting, mapping-table index/LRU agreement, log residency — see
    /// `CachePolicy::audit`) and the monotonicity of process epochs since
    /// the previous pass. Aborts the simulation with a structured
    /// diagnostic on the first violation; a passing audit leaves no trace.
    pub(super) fn audit(&mut self, now: SimTime) {
        for (i, cell) in self.cells.iter().enumerate() {
            if cell.down {
                continue;
            }
            if let Err(why) = cell.server.policy().audit() {
                panic!(
                    "invariant audit failed: time={:?} server={} down={} epoch={}: {}",
                    now, i, cell.down, cell.srv_epoch, why
                );
            }
        }
        for (i, prev) in self.audit_epochs.iter_mut().enumerate() {
            let cur = self.cells[i].srv_epoch;
            assert!(
                cur >= *prev,
                "invariant audit failed: time={:?} server={}: process epoch moved \
                 backwards ({} -> {})",
                now,
                i,
                *prev,
                cur,
            );
            *prev = cur;
        }
    }

    /// The audit that closes a run: one more pass at quiescence, and no
    /// in-flight record left over — the calendar ran empty, so every job
    /// record and every client request must have been retired.
    pub(super) fn audit_end(&mut self, end: SimTime) {
        self.audit(end);
        assert!(
            self.jobs.is_empty() && self.parents.is_empty(),
            "invariant audit failed: time={:?}: {} job records and {} client requests \
             still in flight at the end of the run",
            end,
            self.jobs.len(),
            self.parents.len(),
        );
    }
}

pub(super) fn net_decision(
    decider: &mut Option<NetDecider>,
    since_start: SimDuration,
) -> NetDecision {
    match decider.as_mut() {
        Some(d) => d.decide(since_start),
        None => NetDecision::Deliver,
    }
}

fn degrade_start(cell: &mut ServerCell, now: SimTime) {
    if cell.degraded_depth == 0 {
        cell.degraded_since = now;
    }
    cell.degraded_depth += 1;
}

fn degrade_end(fstats: &mut FaultStats, cell: &mut ServerCell, now: SimTime) {
    // Depth 0 means the matching start fired in a run that was never
    // armed (leftover calendar event) — nothing to close.
    if cell.degraded_depth == 0 {
        return;
    }
    cell.degraded_depth -= 1;
    if cell.degraded_depth == 0 {
        fstats.degraded += now - cell.degraded_since;
    }
}
