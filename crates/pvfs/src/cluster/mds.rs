//! Glue to the metadata service: proposals to the MDS group, and the
//! T-table updates and broadcasts that its commits produce.

use super::{srv_node, Ev, Run, COORD};
use ibridge_des::{SimDuration, SimTime, Simulation};
use ibridge_mds::{Action as MdsAction, Entry as MdsEntry, MdsGroup};
use std::sync::Arc;

/// Trace lane for replicated-MDS spans on the client node — far above
/// any real process lane, so MDS activity sorts into its own swimlane.
#[cfg(feature = "obs")]
const MDS_TRACE_LANE: u16 = u16::MAX;

/// One replicated log entry, proposal → majority commit:
/// `mds:replicate` span (id = commit index).
#[cfg(feature = "obs")]
fn obs_mds_replicate(proposed_at: SimTime, committed_at: SimTime, index: u64) {
    use ibridge_obs::trace;
    if ibridge_obs::tracing_on() {
        trace::record(trace::Span {
            ts_ns: proposed_at.as_nanos(),
            dur_ns: (committed_at - proposed_at).as_nanos(),
            node: trace::CLIENT_NODE,
            lane: MDS_TRACE_LANE,
            name: "mds:replicate",
            id: index,
            aux: 0,
        });
    }
}

/// A leadership change in the MDS group: `mds:leader` span (id = term,
/// aux = elected replica, or `u64::MAX` for "leaderless").
#[cfg(feature = "obs")]
fn obs_mds_leader(now: SimTime, leader: Option<usize>, term: u64) {
    use ibridge_obs::trace;
    if ibridge_obs::tracing_on() {
        trace::record(trace::Span {
            ts_ns: now.as_nanos(),
            dur_ns: 0,
            node: trace::CLIENT_NODE,
            lane: MDS_TRACE_LANE,
            name: "mds:leader",
            id: term,
            aux: leader.map_or(u64::MAX, |l| l as u64),
        });
    }
}

impl Run<'_> {
    /// Proposes `entry` to the MDS group. A refused proposal is retried on
    /// a fixed coordinator-local backoff while a quorum could still elect a
    /// leader (a failover in progress). Otherwise the group is down until a
    /// restart or heal, and the update counts as a stalled broadcast at once.
    pub(super) fn mds_propose(&mut self, sim: &mut Simulation<Ev>, now: SimTime, entry: MdsEntry) {
        const MDS_RETRY_BACKOFF: SimDuration = SimDuration::from_micros(500);
        if self.mds_call(sim, now, |g, acts| g.propose(now, entry, acts)) {
            return;
        }
        if self.coord.mds.quorum_reachable() {
            sim.post_at(
                COORD,
                COORD,
                now + MDS_RETRY_BACKOFF,
                Ev::MdsRetry { entry },
            );
        } else {
            self.fstats.stalled_broadcasts += 1;
        }
    }

    /// Runs one call into the MDS group and applies the actions it emits.
    pub(super) fn mds_call<R>(
        &mut self,
        sim: &mut Simulation<Ev>,
        now: SimTime,
        call: impl FnOnce(&mut MdsGroup, &mut Vec<MdsAction>) -> R,
    ) -> R {
        let mut acts = std::mem::take(&mut self.mds_acts);
        let r = call(&mut self.coord.mds, &mut acts);
        self.mds_apply(sim, now, &mut acts);
        self.mds_acts = acts;
        r
    }

    /// Applies a batch of group actions on the coordinator: schedules
    /// message deliveries, applies committed entries to the T-table (and
    /// broadcasts the new version), and traces leadership changes.
    fn mds_apply(&mut self, sim: &mut Simulation<Ev>, now: SimTime, acts: &mut Vec<MdsAction>) {
        for a in acts.drain(..) {
            match a {
                MdsAction::Deliver { at, msg } => {
                    sim.post_at(COORD, COORD, at, Ev::Mds(msg));
                }
                MdsAction::Commit {
                    index,
                    proposed_at,
                    entry,
                } => {
                    // A lone replica commits on propose: nothing replicates.
                    #[cfg(feature = "obs")]
                    if self.coord.mds.n() > 1 {
                        obs_mds_replicate(proposed_at, now, index);
                    }
                    #[cfg(not(feature = "obs"))]
                    let _ = proposed_at;
                    match entry {
                        MdsEntry::TReport { server, t } => {
                            self.coord.mds_table[server] = t;
                            self.mds_broadcast(sim, now, index);
                        }
                        MdsEntry::SteerOff { server } => self.coord.mds_table[server] = 0.0,
                    }
                }
                MdsAction::LeaderChanged { leader, term } => {
                    #[cfg(feature = "obs")]
                    obs_mds_leader(now, leader, term);
                    #[cfg(not(feature = "obs"))]
                    let _ = (leader, term);
                }
            }
        }
    }

    /// Fans the current T-table snapshot out to every server, stamped with
    /// the metadata `version` that produced it.
    fn mds_broadcast(&mut self, sim: &mut Simulation<Ev>, now: SimTime, version: u64) {
        // One shared snapshot for the whole broadcast fan-out.
        let table: Arc<[f64]> = Arc::from(self.coord.mds_table.as_slice());
        for dest in 0..self.cfg.n_servers {
            let arrive = self
                .coord
                .mds_link
                .send(now, 64 * self.cfg.n_servers as u64);
            sim.post_at(
                COORD,
                srv_node(dest),
                arrive,
                Ev::Broadcast {
                    server: dest,
                    version,
                    table: Arc::clone(&table),
                },
            );
        }
    }
}
