//! The clients: each process issues its requests as sub-requests,
//! collects the replies, retransmits on timeout and waits at barriers.

use super::faults::net_decision;
use super::{Ev, PendingJob, Run};
use crate::proto::{FileRequest, SubRequest};
use ibridge_des::{EventId, SimDuration, SimTime, Simulation};
use ibridge_net::NetDecision;
use ibridge_obs::trace::{server_node, CLIENT_NODE};
use rand::Rng;

/// Maximum per-request client-side jitter (OS scheduling noise, network
/// variance), drawn uniformly. This is what desynchronises the processes
/// — the paper's "nondeterminism of parallel execution" that defeats
/// in-kernel prefetching and merging.
const CLIENT_JITTER: SimDuration = SimDuration::from_millis(10);

/// Client-side in-flight record of one sub-request, kept only while a
/// fault plan is armed: the original message for retransmission, the
/// attempt count, and the pending timeout timer.
#[derive(Debug)]
struct SubTrack {
    sub: SubRequest,
    attempt: u32,
    done: bool,
    timeout: Option<EventId>,
}

#[derive(Debug)]
pub(super) struct ParentState {
    proc: usize,
    pending: usize,
    issued_at: SimTime,
    /// In-flight table for retry/dedup; empty when no plan is armed.
    subs: Vec<SubTrack>,
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub(super) enum ProcState {
    Running,
    AtBarrier,
    Done,
}

// Observability hooks. Each is one relaxed atomic load when the
// corresponding collector is off; none touches the calendar or the RNG.

/// Client → server request hop: `NetRequest` metric + `net:req` span.
#[cfg(feature = "obs")]
fn obs_net_req(
    now: SimTime,
    arrive: SimTime,
    proc: usize,
    parent: u64,
    sub_idx: u32,
    server: usize,
) {
    use ibridge_obs::{metrics, trace};
    let d = (arrive - now).as_nanos();
    metrics::record_phase(metrics::Phase::NetRequest, d);
    if ibridge_obs::tracing_on() {
        trace::record(trace::Span {
            ts_ns: now.as_nanos(),
            dur_ns: d,
            node: trace::CLIENT_NODE,
            lane: proc as u16,
            name: "net:req",
            id: trace::span_id(parent, sub_idx),
            aux: server as u64,
        });
    }
}

/// Whole client request, issue → last sub-reply: `Request` metric +
/// `request` span.
#[cfg(feature = "obs")]
fn obs_request_done(issued_at: SimTime, wait: SimDuration, proc: usize, parent: u64) {
    use ibridge_obs::{metrics, trace};
    let d = wait.as_nanos();
    metrics::record_phase(metrics::Phase::Request, d);
    if ibridge_obs::tracing_on() {
        trace::record(trace::Span {
            ts_ns: issued_at.as_nanos(),
            dur_ns: d,
            node: trace::CLIENT_NODE,
            lane: proc as u16,
            name: "request",
            id: parent,
            aux: 0,
        });
    }
}

impl Run<'_> {
    pub(super) fn wake(&mut self, sim: &mut Simulation<Ev>, now: SimTime, proc: usize) {
        debug_assert_eq!(self.proc_state[proc], ProcState::Running);
        let Some(item) = self.workload.next(proc, self.proc_iter[proc]) else {
            self.proc_state[proc] = ProcState::Done;
            self.proc_done[proc] = now - self.start;
            self.active -= 1;
            if self.active == 0 {
                self.client_done_at = now;
                // Kick the end-of-run drain. The kick crosses the fabric
                // like any other message, one lookahead ahead. Scheduled
                // MDS faults can no longer matter; cancel them so the
                // calendar drains to empty.
                let l = sim.lookahead();
                for server in 0..self.cfg.n_servers {
                    sim.post_at(
                        CLIENT_NODE,
                        server_node(server),
                        now + l,
                        Ev::DrainTick { server },
                    );
                }
                for id in self.fault_ids[usize::from(CLIENT_NODE)].drain(..) {
                    sim.cancel(id);
                }
            } else if self.use_barrier {
                // A departing process may release the barrier.
                self.maybe_release_barrier(sim);
            }
            return;
        };
        self.proc_iter[proc] += 1;
        self.think_time += item.think;
        let jitter =
            SimDuration::from_nanos(self.coord.jitter_rng.gen_range(0..CLIENT_JITTER.as_nanos()));
        sim.post_in(
            CLIENT_NODE,
            CLIENT_NODE,
            item.think + jitter,
            Ev::Issue {
                proc,
                req: item.req,
            },
        );
    }

    pub(super) fn issue(
        &mut self,
        sim: &mut Simulation<Ev>,
        now: SimTime,
        proc: usize,
        req: FileRequest,
    ) {
        assert!(req.len > 0, "zero-length file request");
        let mut pieces = std::mem::take(&mut self.pieces_scratch);
        let mut subs = std::mem::take(&mut self.subs_scratch);
        self.layout.sub_requests_into(
            req.dir,
            req.file,
            req.offset,
            req.len,
            self.cfg.threshold,
            self.ibridge,
            &mut pieces,
            &mut subs,
        );
        let parent = self.coord.next_parent;
        self.coord.next_parent += 1;
        self.requests += 1;
        self.bytes += req.len;
        self.proc_bytes[proc] += req.len;
        // With iBridge steering on, a request decomposed while the MDS
        // is down ran on a stale T-table: the degradation `mds-crash`
        // plans exist to surface.
        if self.ibridge && self.coord.mds_down {
            self.fstats.stale_t_decisions += 1;
        }
        let pending = subs.len();
        let mut tracks: Vec<SubTrack> = Vec::new();
        if self.faults {
            tracks.reserve(pending);
        }
        for (idx, sub) in subs.drain(..).enumerate() {
            let sub_idx = idx as u32;
            if self.faults {
                let tid = sim.schedule_at(
                    CLIENT_NODE,
                    CLIENT_NODE,
                    now + self.retry.timeout,
                    Ev::SubTimeout { parent, sub_idx },
                );
                tracks.push(SubTrack {
                    sub: sub.clone(),
                    attempt: 0,
                    done: false,
                    timeout: Some(tid),
                });
            }
            self.send_sub(sim, now, proc, parent, sub_idx, sub);
        }
        self.pieces_scratch = pieces;
        self.subs_scratch = subs;
        self.parents.insert(
            parent,
            ParentState {
                proc,
                pending,
                issued_at: now,
                subs: tracks,
            },
        );
    }

    pub(super) fn reply(
        &mut self,
        sim: &mut Simulation<Ev>,
        now: SimTime,
        proc: usize,
        parent: u64,
        sub_idx: u32,
    ) {
        if self.faults {
            let duplicate = match self.parents.get_mut(&parent) {
                None => true,
                Some(p) => {
                    let st = &mut p.subs[sub_idx as usize];
                    let seen = st.done;
                    if !seen {
                        st.done = true;
                        if let Some(id) = st.timeout.take() {
                            sim.cancel(id);
                        }
                    }
                    seen
                }
            };
            if duplicate {
                self.fstats.duplicate_replies += 1;
                return;
            }
        }
        let p = self
            .parents
            .get_mut(&parent)
            .expect("reply for unknown parent");
        p.pending -= 1;
        if p.pending > 0 {
            return;
        }
        let p = self.parents.remove(&parent).expect("checked above");
        let wait = now - p.issued_at;
        #[cfg(feature = "obs")]
        obs_request_done(p.issued_at, wait, proc, parent);
        self.io_time += wait;
        self.latency_ms.record(wait.as_millis_f64());
        self.latency_hist_ms
            .record(wait.as_millis_f64().round() as u64);
        debug_assert_eq!(p.proc, proc);
        if self.use_barrier && self.barrier_mask[proc] {
            self.proc_state[proc] = ProcState::AtBarrier;
            self.maybe_release_barrier(sim);
        } else {
            sim.post_now(CLIENT_NODE, CLIENT_NODE, Ev::Wake { proc });
        }
    }

    pub(super) fn sub_timeout(
        &mut self,
        sim: &mut Simulation<Ev>,
        now: SimTime,
        parent: u64,
        sub_idx: u32,
    ) {
        // A fired timer whose sub completed in the same instant was
        // already cancelled; the defensive check keeps leftover timers
        // from a previous run harmless.
        let Some(p) = self.parents.get_mut(&parent) else {
            return;
        };
        let proc = p.proc;
        let st = &mut p.subs[sub_idx as usize];
        if st.done {
            return;
        }
        st.timeout = None;
        self.fstats.timeouts += 1;
        if st.attempt >= self.retry.max_retries {
            // Give up: surface an error completion so the application
            // makes progress.
            self.fstats.failed_subs += 1;
            sim.post_now(
                CLIENT_NODE,
                CLIENT_NODE,
                Ev::Reply {
                    proc,
                    parent,
                    sub_idx,
                },
            );
            return;
        }
        st.attempt += 1;
        self.fstats.retries += 1;
        let wait = self.retry.backoff_delay(st.attempt);
        st.timeout = Some(sim.schedule_at(
            CLIENT_NODE,
            CLIENT_NODE,
            now + wait,
            Ev::SubTimeout { parent, sub_idx },
        ));
        let sub = st.sub.clone();
        self.send_sub(sim, now, proc, parent, sub_idx, sub);
    }

    /// Sends one sub-request from `proc` to its server through the armed
    /// network impairments (a straight delivery when no plan is armed).
    /// Every transmission takes a fresh job id, a duplicated message the
    /// next one too, and each copy the fabric delivers gets a record in
    /// the job table.
    fn send_sub(
        &mut self,
        sim: &mut Simulation<Ev>,
        now: SimTime,
        proc: usize,
        parent: u64,
        sub_idx: u32,
        sub: SubRequest,
    ) {
        let arrive = self.client_links[proc].send(now, sub.request_bytes());
        let server = sub.server;
        #[cfg(feature = "obs")]
        obs_net_req(now, arrive, proc, parent, sub_idx, server);
        let node = server_node(server);
        let mut job = self.coord.next_job;
        self.coord.next_job += 1;
        let pj = PendingJob {
            reply_bytes: sub.reply_bytes(),
            sub: Some(sub),
            proc,
            parent,
            server,
            sub_idx,
        };
        let at = match net_decision(&mut self.coord.decider, now - self.start) {
            NetDecision::Deliver => arrive,
            NetDecision::Drop => {
                // The client's timeout retransmits; the server never
                // learns the job id.
                self.fstats.dropped_messages += 1;
                return;
            }
            NetDecision::Delay(d) => {
                self.fstats.delayed_messages += 1;
                arrive + d
            }
            NetDecision::Duplicate => {
                self.fstats.duplicated_messages += 1;
                // The copy travels as its own job so the server can hold
                // both at once; the client deduplicates on reply.
                self.jobs.insert(job, pj.clone());
                sim.post_at(CLIENT_NODE, node, arrive, Ev::SubArrive { server, job });
                job = self.coord.next_job;
                self.coord.next_job += 1;
                arrive
            }
        };
        self.jobs.insert(job, pj);
        sim.post_at(CLIENT_NODE, node, at, Ev::SubArrive { server, job });
    }

    fn maybe_release_barrier(&mut self, sim: &mut Simulation<Ev>) {
        // Release when no barrier participant is still running.
        let blocked = self
            .proc_state
            .iter()
            .zip(&self.barrier_mask)
            .any(|(&s, &m)| m && s == ProcState::Running);
        if blocked {
            return;
        }
        for (proc, st) in self.proc_state.iter_mut().enumerate() {
            if *st == ProcState::AtBarrier {
                *st = ProcState::Running;
                sim.post_now(CLIENT_NODE, CLIENT_NODE, Ev::Wake { proc });
            }
        }
    }
}
