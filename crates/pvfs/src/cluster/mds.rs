//! The metadata server: the T-table it collects from the data servers'
//! reports (Eq. 1), the broadcasts Eq. 3 reads, and its outages.
//!
//! The MDS lives on the coordinator. While it is up, a T report updates
//! the table and the new table is broadcast to every server; a steer-off
//! zeroes the lost cache's slot. While it is down, both are lost and
//! count as stalled broadcasts, so clients keep steering on the last
//! table they were sent. Every applied update bumps the table's version,
//! which stamps the broadcasts.

use super::{Ev, Run};
use ibridge_des::{SimTime, Simulation};
use ibridge_obs::trace::{server_node, CLIENT_NODE};
use std::sync::Arc;

/// An MDS outage edge: an `mds:leader` span on the client node's MDS
/// lane (id 0; aux 0 when the MDS comes up, `u64::MAX` when it goes
/// down).
#[cfg(feature = "obs")]
fn obs_mds_leader(now: SimTime, up: bool) {
    use ibridge_obs::trace;
    if ibridge_obs::tracing_on() {
        trace::record(trace::Span {
            ts_ns: now.as_nanos(),
            dur_ns: 0,
            node: trace::CLIENT_NODE,
            // Far above any real process lane, so MDS activity sorts
            // into its own swimlane.
            lane: u16::MAX,
            name: "mds:leader",
            id: 0,
            aux: if up { 0 } else { u64::MAX },
        });
    }
}

impl Run<'_> {
    /// A T report reached the MDS.
    pub(super) fn mds_report(
        &mut self,
        sim: &mut Simulation<Ev>,
        now: SimTime,
        server: usize,
        t: f64,
    ) {
        if self.mds_update(server, t) {
            self.mds_broadcast(sim, now);
        }
    }

    /// A server lost its SSD: the MDS stops steering fragments at it.
    pub(super) fn mds_steer_off(&mut self, server: usize) {
        self.mds_update(server, 0.0);
    }

    /// Sets `server`'s T slot to `t` and returns `true`, or counts a
    /// stalled broadcast and returns `false` while the MDS is down.
    fn mds_update(&mut self, server: usize, t: f64) -> bool {
        let c = &mut *self.coord;
        if c.mds_down {
            self.fstats.stalled_broadcasts += 1;
            return false;
        }
        c.mds_table[server] = t;
        c.mds_version += 1;
        true
    }

    /// The MDS crashes (`down`) or restarts with the table it had. A
    /// crash of a dead MDS or a restart of a live one changes nothing.
    pub(super) fn mds_set_down(&mut self, now: SimTime, down: bool) {
        if self.coord.mds_down == down {
            return;
        }
        self.coord.mds_down = down;
        if down {
            self.fstats.mds_crashes += 1;
        } else {
            self.fstats.mds_restarts += 1;
        }
        #[cfg(feature = "obs")]
        obs_mds_leader(now, !down);
        #[cfg(not(feature = "obs"))]
        let _ = now;
    }

    /// Fans the current T-table snapshot out to every server, stamped with
    /// the version that produced it.
    fn mds_broadcast(&mut self, sim: &mut Simulation<Ev>, now: SimTime) {
        // One shared snapshot for the whole broadcast fan-out.
        let table: Arc<[f64]> = Arc::from(self.coord.mds_table.as_slice());
        let version = self.coord.mds_version;
        for dest in 0..self.cfg.n_servers {
            let arrive = self
                .coord
                .mds_link
                .send(now, 64 * self.cfg.n_servers as u64);
            sim.post_at(
                CLIENT_NODE,
                server_node(dest),
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
