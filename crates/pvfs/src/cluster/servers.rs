//! Data-server events, the posting of what a server emits, and the
//! post-event tail that follows every server event.

use super::faults::net_decision;
use super::{Ev, Run, WRITEBACK_INTERVAL};
use crate::server::{DataServer, DevKind, JobId, ServerOut};
use ibridge_des::{SimTime, Simulation};
use ibridge_iosched::Action;
use ibridge_net::NetDecision;
use ibridge_obs::trace::{server_node, CLIENT_NODE};

/// Server CPU admission queue: `SrvQueue` metric + `srv:queue` span.
#[cfg(feature = "obs")]
fn obs_srv_queue(now: SimTime, exec_at: SimTime, server: usize, job: JobId) {
    use ibridge_obs::{metrics, trace};
    let d = (exec_at - now).as_nanos();
    metrics::record_phase(metrics::Phase::SrvQueue, d);
    if ibridge_obs::tracing_on() {
        trace::record(trace::Span {
            ts_ns: now.as_nanos(),
            dur_ns: d,
            node: trace::server_node(server),
            lane: 0,
            name: "srv:queue",
            id: job,
            aux: 0,
        });
    }
}

/// Server → client reply hop: `NetReply` metric + `net:reply` span.
#[cfg(feature = "obs")]
fn obs_net_reply(
    now: SimTime,
    arrive: SimTime,
    server: usize,
    parent: u64,
    sub_idx: u32,
    reply_bytes: u64,
) {
    use ibridge_obs::{metrics, trace};
    let d = (arrive - now).as_nanos();
    metrics::record_phase(metrics::Phase::NetReply, d);
    if ibridge_obs::tracing_on() {
        trace::record(trace::Span {
            ts_ns: now.as_nanos(),
            dur_ns: d,
            node: trace::server_node(server),
            lane: 0,
            name: "net:reply",
            id: trace::span_id(parent, sub_idx),
            aux: reply_bytes,
        });
    }
}

fn dev_idx(kind: DevKind) -> usize {
    match kind {
        DevKind::Primary => 0,
        DevKind::Cache => 1,
    }
}

impl Run<'_> {
    pub(super) fn sub_arrive(
        &mut self,
        sim: &mut Simulation<Ev>,
        now: SimTime,
        server: usize,
        job: JobId,
    ) {
        if self.cells[server].down {
            // The message reached a dead endpoint and its record dies
            // with it; the client's timeout recovers it.
            self.jobs.remove(&job);
            self.fstats.dropped_messages += 1;
            return;
        }
        let exec_at = self.cells[server].server.cpu_admit(now);
        #[cfg(feature = "obs")]
        obs_srv_queue(now, exec_at, server, job);
        let epoch = self.cells[server].srv_epoch;
        let node = server_node(server);
        sim.post_at(node, node, exec_at, Ev::SubExec { server, job, epoch });
    }

    pub(super) fn sub_exec(
        &mut self,
        sim: &mut Simulation<Ev>,
        now: SimTime,
        server: usize,
        job: JobId,
        epoch: u32,
    ) {
        if epoch != self.cells[server].srv_epoch {
            // Admitted by a process instance that has since crashed.
            self.jobs.remove(&job);
            self.fstats.stale_completions += 1;
            return;
        }
        let pj = self.jobs.get_mut(&job).expect("executing unknown job");
        let (sub, proc) = (pj.sub.take().expect("job executed twice"), pj.proc);
        self.server_call(sim, now, server, |s, out| {
            s.exec_subreq(now, job, proc as u64, sub, out)
        });
    }

    pub(super) fn dev_complete(
        &mut self,
        sim: &mut Simulation<Ev>,
        now: SimTime,
        server: usize,
        kind: DevKind,
        epoch: u32,
    ) {
        if epoch != self.cells[server].dev_epoch[dev_idx(kind)] {
            self.fstats.stale_completions += 1;
            return;
        }
        let draining = self.draining;
        self.server_call(sim, now, server, |s, out| {
            s.on_dev_complete(now, kind, out);
            if draining && !s.quiescent() {
                // Appends into the same output; ordering matches the
                // completion actions followed by the flush's.
                s.writeback_tick(now, true, out);
            }
        });
    }

    pub(super) fn dev_recheck(
        &mut self,
        sim: &mut Simulation<Ev>,
        now: SimTime,
        server: usize,
        kind: DevKind,
        gen: u64,
        epoch: u32,
    ) {
        if epoch != self.cells[server].dev_epoch[dev_idx(kind)] {
            self.fstats.stale_completions += 1;
            return;
        }
        self.server_call(sim, now, server, |s, out| {
            s.on_dev_recheck(now, kind, gen, out)
        });
    }

    pub(super) fn report(&mut self, sim: &mut Simulation<Ev>, now: SimTime, server: usize) {
        // A crashed server cannot report; a degraded one (lost SSD) stays
        // silent so the MDS keeps its slot zeroed and fragments stop being
        // steered at it.
        let node = server_node(server);
        let cell = &mut self.cells[server];
        if !cell.down && !cell.server.policy().is_degraded() {
            let t = cell.server.policy().report_t();
            let arrive = cell.link.send(now, 128);
            sim.post_at(node, CLIENT_NODE, arrive, Ev::ReportArrive { server, t });
        }
        if !self.draining {
            sim.post_in(node, node, self.cfg.report_interval, Ev::Report { server });
        }
    }

    pub(super) fn broadcast(&mut self, server: usize, version: u64, table: &[f64]) {
        let cell = &mut self.cells[server];
        // Metadata versions are monotone: the MDS applies updates in
        // order and the fan-out crosses one FIFO link.
        assert!(
            version >= cell.bcast_version,
            "MDS broadcast version moved backwards at server {server}"
        );
        cell.bcast_version = version;
        if !cell.down {
            cell.server.policy_mut().receive_broadcast(table);
        }
    }

    pub(super) fn writeback_tick(&mut self, sim: &mut Simulation<Ev>, now: SimTime, server: usize) {
        if !self.cells[server].down {
            self.server_call(sim, now, server, |s, out| {
                s.writeback_tick(now, false, out);
                debug_assert!(out.done_jobs.is_empty());
            });
        }
        if !self.draining {
            let node = server_node(server);
            sim.post_in(node, node, WRITEBACK_INTERVAL, Ev::WritebackTick { server });
        }
    }

    pub(super) fn drain_tick(&mut self, sim: &mut Simulation<Ev>, now: SimTime, server: usize) {
        self.draining = true;
        if !self.cells[server].down {
            self.server_call(sim, now, server, |s, out| {
                s.writeback_tick(now, true, out);
                debug_assert!(out.done_jobs.is_empty());
            });
        }
    }

    /// Runs one call into data server `server` and posts the output it
    /// emits. One `ServerOut` is reused across every call, so after
    /// warm-up server output handling performs no allocation.
    fn server_call(
        &mut self,
        sim: &mut Simulation<Ev>,
        now: SimTime,
        server: usize,
        call: impl FnOnce(&mut DataServer, &mut ServerOut),
    ) {
        let mut out = std::mem::take(&mut self.out);
        out.clear();
        call(&mut self.cells[server].server, &mut out);
        self.post_server_out(sim, now, server, &mut out);
        self.out = out;
    }

    /// Posts a server's accumulated output onto the calendar, draining
    /// `out` in place so the caller can reuse its capacity. Event order
    /// (device actions first, then replies in completion order) is part
    /// of the determinism contract: ties on the calendar break by the
    /// poster's sequence numbers.
    fn post_server_out(
        &mut self,
        sim: &mut Simulation<Ev>,
        now: SimTime,
        server: usize,
        out: &mut ServerOut,
    ) {
        let node = server_node(server);
        for (kind, action) in out.dev_actions.drain(..) {
            let epoch = self.cells[server].dev_epoch[dev_idx(kind)];
            match action {
                Action::CompleteAt(t) => {
                    sim.post_at(
                        node,
                        node,
                        t,
                        Ev::DevComplete {
                            server,
                            kind,
                            epoch,
                        },
                    );
                }
                Action::RecheckAt(t, gen) => {
                    sim.post_at(
                        node,
                        node,
                        t,
                        Ev::DevRecheck {
                            server,
                            kind,
                            gen,
                            epoch,
                        },
                    );
                }
            }
        }
        for job in out.done_jobs.drain(..) {
            let pj = self.jobs.remove(&job).expect("done job unknown to cluster");
            let arrive = self.cells[server].link.send(now, pj.reply_bytes);
            let (proc, parent, sub_idx) = (pj.proc, pj.parent, pj.sub_idx);
            #[cfg(feature = "obs")]
            obs_net_reply(now, arrive, server, parent, sub_idx, pj.reply_bytes);
            let reply = Ev::Reply {
                proc,
                parent,
                sub_idx,
            };
            match net_decision(&mut self.cells[server].decider, now - self.start) {
                NetDecision::Deliver => sim.post_at(node, CLIENT_NODE, arrive, reply),
                NetDecision::Drop => {
                    // The client's timeout retransmits; the server will
                    // serve the retry again.
                    self.fstats.dropped_messages += 1;
                }
                NetDecision::Delay(d) => {
                    self.fstats.delayed_messages += 1;
                    sim.post_at(node, CLIENT_NODE, arrive + d, reply);
                }
                NetDecision::Duplicate => {
                    self.fstats.duplicated_messages += 1;
                    sim.post_at(
                        node,
                        CLIENT_NODE,
                        arrive,
                        Ev::Reply {
                            proc,
                            parent,
                            sub_idx,
                        },
                    );
                    sim.post_at(node, CLIENT_NODE, arrive, reply);
                }
            }
        }
    }

    /// Post-event bookkeeping of the servers: the audit cadence and the
    /// drain quiescence detector. Runs after every server event, so a
    /// state change is observed at the event that caused it.
    pub(super) fn server_tail(&mut self, sim: &mut Simulation<Ev>, now: SimTime) {
        // Online invariant auditor: piggybacked synchronously on event
        // dispatch (never posts events, never draws randomness), so the
        // calendar — and therefore every observable output — is
        // byte-identical with auditing on or off.
        if let Some(due) = self.next_audit {
            if now >= due {
                self.audit(now);
                self.audits += 1;
                let iv = self
                    .cfg
                    .audit_interval
                    .expect("auditor armed with interval");
                self.next_audit = Some(now + iv);
            }
        }
        if self.draining {
            let mut all_q = true;
            for s in 0..self.cells.len() {
                let q = self.cells[s].server.quiescent();
                if q && !self.cell_was_q[s] {
                    // This server just went quiescent: faults still
                    // scheduled against it can no longer affect the run;
                    // unschedule them so the calendar drains to empty.
                    for id in self.fault_ids[usize::from(server_node(s))].drain(..) {
                        sim.cancel(id);
                    }
                }
                self.cell_was_q[s] = q;
                all_q &= q;
            }
            if all_q && !self.was_quiescent {
                self.quiesced_at = now;
            }
            self.was_quiescent = all_q;
        }
    }
}
