//! Replicated metadata service: a raft-style state machine in virtual
//! time.
//!
//! Every T-value report and steering update of the cluster goes through
//! one [`MdsGroup`]. The paper's testbed runs a single metadata server,
//! which is a group of one replica: it is its own majority, so it leads
//! from birth without an election and commits each proposal at once.
//! When it dies, T-value broadcasts stall and every client silently
//! degrades to stale steering decisions. A larger (3- or 5-node) group
//! removes that SPOF: leader election with term numbers, a replicated
//! log of metadata updates committed at majority, and failover that the
//! fault injector can exercise (leader crash with restart replay, a
//! partition isolating the leader with term-based fencing).
//!
//! # Host-driven, zero-clock design
//!
//! The group owns **no clock and no event queue**. Every protocol step
//! is a pure transition: the host (the cluster coordinator) calls
//! [`MdsGroup::handle`] with the current virtual time and a message,
//! and the group appends [`Action`]s to a caller-supplied buffer —
//! `Deliver { at, msg }` actions the host must schedule back into
//! itself, `Commit` actions carrying newly committed log entries, and
//! `LeaderChanged` notifications. Because all calls happen in the
//! coordinator's deterministic event order, and election timeouts are
//! drawn from per-replica RNG streams (`streams::MDS`, keyed on
//! `(seed, replica)` alone), the entire protocol — elections, message
//! interleavings, commit points — is byte-identical at any `--jobs`
//! level.
//!
//! Replica-to-replica messages pay realistic network cost: each replica
//! owns an [`ibridge_net::Link`] whose serialise+transmit+propagate
//! time stamps the `Deliver` actions.
//!
//! # Safety argument (why fencing works)
//!
//! The implementation keeps the three raft invariants that matter for
//! the cluster's T-value monotonicity:
//!
//! 1. **Election safety** — one leader per term (majority vote, one
//!    vote per replica per term, persisted in `voted_for`).
//! 2. **Leader completeness** — a candidate must have a log at least
//!    as up-to-date as each voter's, so committed entries survive
//!    elections.
//! 3. **Commit restriction** — a leader only commits entries of its
//!    own term (earlier entries commit transitively), so a stale
//!    leader isolated by a partition can never advance the commit
//!    index: it lacks a majority, and after healing it steps down on
//!    first contact with the higher term. Terms are the epoch guard.
//!
//! Consequently the externally visible commit index never regresses,
//! and the cluster stamps each T-broadcast with it as a fencing
//! version.

use ibridge_des::rng::{derive_seed, stream_rng, streams};
use ibridge_des::{SimDuration, SimTime};
use ibridge_net::{Link, LinkConfig};
use rand::rngs::StdRng;
use rand::Rng;

/// Index of a replica within the group.
pub type ReplicaId = usize;

/// Wire size of a vote request/response or append acknowledgement.
const CTRL_BYTES: u64 = 64;
/// Additional wire bytes per replicated log entry.
const ENTRY_BYTES: u64 = 32;

/// One metadata update carried by the replicated log.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Entry {
    /// Periodic T-value report from data server `server`.
    TReport {
        /// Reporting server index.
        server: usize,
        /// Measured per-request disk busy time, seconds.
        t: f64,
    },
    /// Steering-metadata update: `server` left the steering set (its
    /// SSD cache died), so clients must stop shifting fragments to it.
    SteerOff {
        /// Affected server index.
        server: usize,
    },
}

/// A protocol message the host schedules back into [`MdsGroup::handle`].
///
/// Timer expiries (`ElectionTimeout`, `HeartbeatTick`) are replica-local
/// and carry a generation/term guard so stale ones are ignored;
/// everything else travels between replicas and is dropped when either
/// end is crashed or the pair straddles the active partition.
#[derive(Debug, Clone)]
pub enum Msg {
    /// Election timer expiry at `to`; stale unless `gen` is current.
    ElectionTimeout {
        /// Replica whose timer fired.
        to: ReplicaId,
        /// Timer generation at arming time.
        gen: u64,
    },
    /// Heartbeat cadence tick at leader `to` for `term`.
    HeartbeatTick {
        /// The leader that armed the tick.
        to: ReplicaId,
        /// Term the tick belongs to.
        term: u64,
    },
    /// Candidate `from` solicits a vote.
    RequestVote {
        /// Receiving replica.
        to: ReplicaId,
        /// Soliciting candidate.
        from: ReplicaId,
        /// Candidate's term.
        term: u64,
        /// Index of the candidate's last log entry.
        last_index: u64,
        /// Term of the candidate's last log entry.
        last_term: u64,
    },
    /// Vote response.
    Vote {
        /// Receiving candidate.
        to: ReplicaId,
        /// Voting replica.
        from: ReplicaId,
        /// Voter's term.
        term: u64,
        /// Whether the vote was granted.
        granted: bool,
    },
    /// Log replication / heartbeat from leader `from`.
    Append {
        /// Receiving replica.
        to: ReplicaId,
        /// Sending leader.
        from: ReplicaId,
        /// Leader's term.
        term: u64,
        /// Index of the entry preceding `entries`.
        prev_index: u64,
        /// Term of the entry at `prev_index`.
        prev_term: u64,
        /// Entries to append (empty for a pure heartbeat).
        entries: Vec<LogEntry>,
        /// Leader's commit index.
        commit: u64,
    },
    /// Response to an `Append`.
    AppendAck {
        /// Receiving leader.
        to: ReplicaId,
        /// Responding follower.
        from: ReplicaId,
        /// Follower's term.
        term: u64,
        /// Whether the consistency check passed.
        ok: bool,
        /// Highest log index known replicated at `from` when `ok`.
        match_index: u64,
    },
}

/// One replicated log record.
#[derive(Debug, Clone, PartialEq)]
pub struct LogEntry {
    /// Term under which the entry was appended at the leader.
    pub term: u64,
    /// Virtual time the leader accepted the proposal (for replication-
    /// latency observability; not part of the consensus state).
    pub at: SimTime,
    /// The metadata update itself.
    pub entry: Entry,
}

/// What the host must do after a group transition.
#[derive(Debug, Clone)]
pub enum Action {
    /// Schedule `msg` back into [`MdsGroup::handle`] at `at`.
    Deliver {
        /// Virtual delivery time.
        at: SimTime,
        /// The message to deliver.
        msg: Msg,
    },
    /// Log entry `index` just committed (majority-replicated) at the
    /// acting leader; apply it to the cluster-facing state machine.
    /// Indexes are emitted exactly once, in order.
    Commit {
        /// 1-based log index; monotonically increasing across leaders.
        index: u64,
        /// Virtual time the proposal was accepted (see [`LogEntry::at`]).
        proposed_at: SimTime,
        /// The committed update.
        entry: Entry,
    },
    /// The client-visible leader changed (`None` while an election or
    /// failover is in progress).
    LeaderChanged {
        /// New leader, if any.
        leader: Option<ReplicaId>,
        /// Term of the change.
        term: u64,
    },
}

/// Group-level counters, all deterministic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MdsStats {
    /// Elections started (candidacies, including the initial one).
    pub elections: u64,
    /// Accessions of a replica that was not the previous incumbent.
    pub leader_changes: u64,
    /// Virtual-time nanoseconds spent without a client-visible leader
    /// after losing one while a quorum could elect another (the
    /// failover/recovery window), and before a larger group's first
    /// election.
    pub recovery_ticks: u64,
    /// Log entries replayed from durable state across restarts.
    pub log_replayed: u64,
    /// Proposals accepted by a leader.
    pub proposals: u64,
    /// Entries committed (== highest emitted commit index).
    pub commits: u64,
}

/// Static group parameters.
#[derive(Debug, Clone)]
pub struct MdsConfig {
    /// Number of replicas (3 or 5 in a real deployment; any n ≥ 1 works).
    pub replicas: usize,
    /// Leader heartbeat cadence.
    pub heartbeat: SimDuration,
    /// Lower bound of the randomized election timeout.
    pub election_min: SimDuration,
    /// Upper bound of the randomized election timeout.
    pub election_max: SimDuration,
    /// Per-replica transmit link parameters.
    pub link: LinkConfig,
    /// Experiment seed; election timeouts derive from
    /// `stream_rng(derive_seed(seed, streams::MDS), replica)`.
    pub seed: u64,
}

impl MdsConfig {
    /// Defaults tuned so failover completes well inside one report
    /// interval of the cluster (heartbeat 500 µs, election 2–4 ms).
    pub fn new(replicas: usize, seed: u64, link: LinkConfig) -> Self {
        MdsConfig {
            replicas,
            heartbeat: SimDuration::from_micros(500),
            election_min: SimDuration::from_millis(2),
            election_max: SimDuration::from_millis(4),
            link,
            seed,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    Follower,
    Candidate,
    Leader,
    Down,
}

#[derive(Debug)]
struct Replica {
    // Durable state: survives a crash, replayed on restart.
    term: u64,
    voted_for: Option<ReplicaId>,
    log: Vec<LogEntry>,
    // Volatile state: lost on crash.
    role: Role,
    commit: u64,
    votes: u64, // bitmask of granted votes this candidacy
    timeout_gen: u64,
    next_index: Vec<u64>,
    match_index: Vec<u64>,
    rng: StdRng,
}

impl Replica {
    fn last_index(&self) -> u64 {
        self.log.len() as u64
    }

    fn last_term(&self) -> u64 {
        self.log.last().map_or(0, |e| e.term)
    }
}

/// The replica group plus the modeled intra-group network.
///
/// See the crate docs for the host-driven calling convention.
#[derive(Debug)]
pub struct MdsGroup {
    cfg: MdsConfig,
    replicas: Vec<Replica>,
    links: Vec<Link>,
    /// The leader clients currently resolve to (`None` mid-failover).
    visible: Option<ReplicaId>,
    /// Last distinct incumbent, for `leader_changes` accounting.
    last_leader: Option<ReplicaId>,
    /// Replica currently cut off from everyone else, if any.
    isolated: Option<ReplicaId>,
    /// Highest commit index already emitted as [`Action::Commit`].
    emitted: u64,
    /// Open leaderless window start, if a leader has been lost while a
    /// quorum could elect another.
    leaderless_since: Option<SimTime>,
    stats: MdsStats,
}

impl MdsGroup {
    /// Builds a group of `cfg.replicas` followers; no timers armed yet.
    /// A lone replica is its own majority: it leads from here on, with
    /// no election and no timers at all.
    pub fn new(cfg: MdsConfig) -> Self {
        assert!(cfg.replicas >= 1, "MDS group needs at least one replica");
        assert!(
            cfg.election_max > cfg.election_min,
            "election timeout range must be non-empty"
        );
        let n = cfg.replicas;
        let lone = n == 1;
        let mds_seed = derive_seed(cfg.seed, streams::MDS);
        let replicas = (0..n)
            .map(|id| Replica {
                term: 0,
                voted_for: None,
                log: Vec::new(),
                role: if lone { Role::Leader } else { Role::Follower },
                commit: 0,
                votes: 0,
                timeout_gen: 0,
                next_index: vec![1; n],
                match_index: vec![0; n],
                rng: stream_rng(mds_seed, id as u64),
            })
            .collect();
        let links = (0..n).map(|_| Link::new(cfg.link.clone())).collect();
        MdsGroup {
            cfg,
            replicas,
            links,
            visible: lone.then_some(0),
            last_leader: lone.then_some(0),
            isolated: None,
            emitted: 0,
            // A larger group is born leaderless: the window until the
            // first election closes counts toward recovery time.
            leaderless_since: (!lone).then_some(SimTime::ZERO),
            stats: MdsStats::default(),
        }
    }

    /// Number of replicas.
    pub fn n(&self) -> usize {
        self.replicas.len()
    }

    /// The leader clients currently resolve to.
    pub fn leader(&self) -> Option<ReplicaId> {
        self.visible
    }

    /// Number of currently crashed replicas.
    pub fn down_replicas(&self) -> usize {
        self.replicas
            .iter()
            .filter(|r| r.role == Role::Down)
            .count()
    }

    /// Group counters so far; call [`MdsGroup::finish`] first at end of
    /// run to close an open leaderless window.
    pub fn stats(&self) -> MdsStats {
        self.stats
    }

    /// True when a majority of replicas is up and outside the partition,
    /// i.e. when the group can elect a leader and commit. A lost leader
    /// opens a recovery window only while this holds; with no quorum the
    /// group is down until a restart or heal, not failing over.
    pub fn quorum_reachable(&self) -> bool {
        let reachable = (0..self.n())
            .filter(|&i| self.replicas[i].role != Role::Down && self.isolated != Some(i))
            .count();
        reachable > self.n() / 2
    }

    /// Arms the group's timers at the start of a host run: every
    /// replica's first election timeout on a fresh group. The host stops
    /// delivering MDS messages once a run drains (so the calendar can
    /// empty), which drops the pending heartbeat/election timers; this
    /// rebuilds them from the persistent roles. A lone replica has no
    /// timers to arm.
    pub fn resume(&mut self, now: SimTime, out: &mut Vec<Action>) {
        for id in 0..self.n() {
            match self.replicas[id].role {
                Role::Down => {}
                Role::Leader if self.n() > 1 => self.arm_heartbeat(now, id, out),
                Role::Leader => {}
                Role::Follower | Role::Candidate => self.arm_timeout(now, id, out),
            }
        }
    }

    /// Closes an open leaderless window at end of run. If the group is
    /// still leaderless the window re-opens at `now`, so a failover
    /// spanning two host runs only counts virtual time inside runs.
    pub fn finish(&mut self, now: SimTime) {
        if let Some(since) = self.leaderless_since {
            self.stats.recovery_ticks += (now - since).as_nanos();
            self.leaderless_since = Some(now);
        }
    }

    // -- client interface -------------------------------------------------

    /// Proposes a metadata update. Returns `false` when no leader is
    /// reachable (election in progress, leader crashed or isolated) —
    /// the caller should back off and retry while
    /// [`MdsGroup::quorum_reachable`] holds. On `true` the entry is
    /// appended at the leader and replication starts immediately; a
    /// matching [`Action::Commit`] arrives once a majority has it. A lone
    /// replica is that majority: it emits the commit at once and keeps no
    /// log entry, since nothing would ever read one back.
    pub fn propose(&mut self, now: SimTime, entry: Entry, out: &mut Vec<Action>) -> bool {
        let Some(l) = self.visible else { return false };
        if self.replicas[l].role != Role::Leader {
            return false;
        }
        self.stats.proposals += 1;
        if self.n() == 1 {
            self.emitted += 1;
            self.stats.commits += 1;
            out.push(Action::Commit {
                index: self.emitted,
                proposed_at: now,
                entry,
            });
            return true;
        }
        let term = self.replicas[l].term;
        self.replicas[l].log.push(LogEntry {
            term,
            at: now,
            entry,
        });
        let last = self.replicas[l].last_index();
        self.replicas[l].match_index[l] = last;
        self.broadcast_append(now, l, out);
        true
    }

    // -- fault-injection interface ----------------------------------------

    /// Crashes the current leader (or the lowest-id live replica when
    /// leaderless). Volatile state is lost; the durable log, term and
    /// vote survive for restart replay. Returns the victim.
    pub fn crash_leader(&mut self, now: SimTime, out: &mut Vec<Action>) -> Option<ReplicaId> {
        let victim = self
            .visible
            .filter(|&l| self.replicas[l].role != Role::Down)
            .or_else(|| (0..self.n()).find(|&i| self.replicas[i].role != Role::Down))?;
        let r = &mut self.replicas[victim];
        r.role = Role::Down;
        r.commit = 0;
        r.votes = 0;
        r.timeout_gen += 1; // invalidate in-flight timers
        if self.visible == Some(victim) {
            self.lose_leader(now, out);
        }
        Some(victim)
    }

    /// Restarts every crashed replica as a follower, replaying its
    /// durable log. A lone replica goes straight back to the lead. Returns
    /// the number of log entries replayed.
    pub fn restart_crashed(&mut self, now: SimTime, out: &mut Vec<Action>) -> u64 {
        let mut replayed = 0;
        for id in 0..self.n() {
            if self.replicas[id].role == Role::Down {
                replayed += self.replicas[id].last_index();
                if self.n() == 1 {
                    self.replicas[id].role = Role::Leader;
                    if self.isolated != Some(id) {
                        self.gain_leader(now, id, out);
                    }
                } else {
                    self.replicas[id].role = Role::Follower;
                    self.arm_timeout(now, id, out);
                }
            }
        }
        self.stats.log_replayed += replayed;
        replayed
    }

    /// Partitions the current leader (or replica 0) away from every
    /// other replica *and* from clients. The stale leader keeps its
    /// role but can never reach a majority, so it commits nothing —
    /// that is the fencing guarantee. Returns the isolated replica.
    pub fn partition_leader(&mut self, now: SimTime, out: &mut Vec<Action>) -> ReplicaId {
        let iso = self.visible.unwrap_or(0);
        self.isolated = Some(iso);
        if self.visible == Some(iso) {
            self.lose_leader(now, out);
        }
        iso
    }

    /// Heals the partition. If a live leader exists (old or newly
    /// elected) it becomes client-visible again; a stale leader steps
    /// down on first contact with a higher term.
    pub fn heal(&mut self, now: SimTime, out: &mut Vec<Action>) {
        self.isolated = None;
        if self.visible.is_none() {
            // Highest-term live leader wins the client's attention.
            if let Some(l) = (0..self.n())
                .filter(|&i| self.replicas[i].role == Role::Leader)
                .max_by_key(|&i| self.replicas[i].term)
            {
                self.gain_leader(now, l, out);
            }
        }
    }

    // -- protocol ----------------------------------------------------------

    /// Advances the group by one delivered message.
    pub fn handle(&mut self, now: SimTime, msg: Msg, out: &mut Vec<Action>) {
        match msg {
            Msg::ElectionTimeout { to, gen } => {
                let r = &self.replicas[to];
                if r.role == Role::Down || r.role == Role::Leader || gen != r.timeout_gen {
                    return;
                }
                self.start_election(now, to, out);
            }
            Msg::HeartbeatTick { to, term } => {
                let r = &self.replicas[to];
                if r.role != Role::Leader || term != r.term {
                    return;
                }
                self.broadcast_append(now, to, out);
                self.arm_heartbeat(now, to, out);
            }
            Msg::RequestVote {
                to,
                from,
                term,
                last_index,
                last_term,
            } => {
                if self.dropped(from, to) {
                    return;
                }
                self.observe_term(now, to, term, out);
                let r = &mut self.replicas[to];
                let up_to_date = (last_term, last_index) >= (r.last_term(), r.last_index());
                let granted = term == r.term
                    && r.role == Role::Follower
                    && up_to_date
                    && (r.voted_for.is_none() || r.voted_for == Some(from));
                let my_term = r.term;
                if granted {
                    r.voted_for = Some(from);
                    self.arm_timeout(now, to, out);
                }
                self.send(
                    now,
                    to,
                    CTRL_BYTES,
                    Msg::Vote {
                        to: from,
                        from: to,
                        term: my_term,
                        granted,
                    },
                    out,
                );
            }
            Msg::Vote {
                to,
                from,
                term,
                granted,
            } => {
                if self.dropped(from, to) {
                    return;
                }
                self.observe_term(now, to, term, out);
                let r = &mut self.replicas[to];
                if r.role != Role::Candidate || term != r.term || !granted {
                    return;
                }
                r.votes |= 1 << from;
                if (r.votes.count_ones() as usize) > self.n() / 2 {
                    self.become_leader(now, to, out);
                }
            }
            Msg::Append {
                to,
                from,
                term,
                prev_index,
                prev_term,
                entries,
                commit,
            } => {
                if self.dropped(from, to) {
                    return;
                }
                self.observe_term(now, to, term, out);
                let stale = term < self.replicas[to].term;
                if !stale {
                    // A current-term append re-asserts the leader.
                    let r = &mut self.replicas[to];
                    if r.role == Role::Candidate {
                        r.role = Role::Follower;
                    }
                    self.arm_timeout(now, to, out);
                }
                let r = &mut self.replicas[to];
                let my_term = r.term;
                let consistent = !stale
                    && prev_index <= r.last_index()
                    && (prev_index == 0 || r.log[prev_index as usize - 1].term == prev_term);
                let n_entries = entries.len() as u64;
                let match_index = if consistent {
                    for (i, e) in entries.into_iter().enumerate() {
                        let idx = prev_index + i as u64 + 1;
                        if idx <= r.last_index() {
                            if r.log[idx as usize - 1].term == e.term {
                                continue; // already have it
                            }
                            r.log.truncate(idx as usize - 1); // conflict
                        }
                        r.log.push(e);
                    }
                    r.commit = r.commit.max(commit.min(r.last_index()));
                    prev_index + n_entries
                } else {
                    0
                };
                self.send(
                    now,
                    to,
                    CTRL_BYTES,
                    Msg::AppendAck {
                        to: from,
                        from: to,
                        term: my_term,
                        ok: consistent,
                        match_index,
                    },
                    out,
                );
            }
            Msg::AppendAck {
                to,
                from,
                term,
                ok,
                match_index,
            } => {
                if self.dropped(from, to) {
                    return;
                }
                self.observe_term(now, to, term, out);
                let r = &mut self.replicas[to];
                if r.role != Role::Leader || term != r.term {
                    return;
                }
                if ok {
                    r.match_index[from] = r.match_index[from].max(match_index);
                    r.next_index[from] = r.match_index[from] + 1;
                    self.advance_commit(to, out);
                } else {
                    // Back next_index off by one; the next heartbeat
                    // retries from there.
                    r.next_index[from] = r.next_index[from].saturating_sub(1).max(1);
                }
            }
        }
    }

    // -- internals ---------------------------------------------------------

    /// True when a replica-to-replica message must be dropped: either
    /// end crashed, or the pair straddles the partition. Checked at
    /// delivery time, so in-flight messages honour a partition that
    /// started after they were sent.
    fn dropped(&self, from: ReplicaId, to: ReplicaId) -> bool {
        self.replicas[from].role == Role::Down
            || self.replicas[to].role == Role::Down
            || self.cut(from, to)
    }

    fn cut(&self, a: ReplicaId, b: ReplicaId) -> bool {
        self.isolated.is_some_and(|i| (a == i) != (b == i))
    }

    /// Adopts a higher observed term: step down to follower and clear
    /// the vote. The raft "term as epoch" rule.
    fn observe_term(&mut self, now: SimTime, id: ReplicaId, term: u64, out: &mut Vec<Action>) {
        if term <= self.replicas[id].term {
            return;
        }
        let was_leader = self.replicas[id].role == Role::Leader;
        let r = &mut self.replicas[id];
        r.term = term;
        r.voted_for = None;
        r.role = Role::Follower;
        r.votes = 0;
        if was_leader && self.visible == Some(id) {
            self.lose_leader(now, out);
        }
        self.arm_timeout(now, id, out);
    }

    fn arm_timeout(&mut self, now: SimTime, id: ReplicaId, out: &mut Vec<Action>) {
        let span = (self.cfg.election_max - self.cfg.election_min).as_nanos();
        let jitter = self.replicas[id].rng.gen_range(0..span);
        let r = &mut self.replicas[id];
        r.timeout_gen += 1;
        out.push(Action::Deliver {
            at: now + self.cfg.election_min + SimDuration::from_nanos(jitter),
            msg: Msg::ElectionTimeout {
                to: id,
                gen: r.timeout_gen,
            },
        });
    }

    fn arm_heartbeat(&self, now: SimTime, id: ReplicaId, out: &mut Vec<Action>) {
        out.push(Action::Deliver {
            at: now + self.cfg.heartbeat,
            msg: Msg::HeartbeatTick {
                to: id,
                term: self.replicas[id].term,
            },
        });
    }

    /// Sends one inter-replica message over `from`'s link. Messages to
    /// a crashed or partitioned peer are still transmitted (the sender
    /// cannot know) and dropped at delivery.
    fn send(&mut self, now: SimTime, from: ReplicaId, bytes: u64, msg: Msg, out: &mut Vec<Action>) {
        let at = self.links[from].send(now, bytes);
        out.push(Action::Deliver { at, msg });
    }

    fn start_election(&mut self, now: SimTime, id: ReplicaId, out: &mut Vec<Action>) {
        self.stats.elections += 1;
        let r = &mut self.replicas[id];
        r.term += 1;
        r.role = Role::Candidate;
        r.voted_for = Some(id);
        r.votes = 1 << id;
        let (term, last_index, last_term) = (r.term, r.last_index(), r.last_term());
        // Re-arm for the split-vote case.
        self.arm_timeout(now, id, out);
        for peer in 0..self.n() {
            if peer != id {
                self.send(
                    now,
                    id,
                    CTRL_BYTES,
                    Msg::RequestVote {
                        to: peer,
                        from: id,
                        term,
                        last_index,
                        last_term,
                    },
                    out,
                );
            }
        }
    }

    fn become_leader(&mut self, now: SimTime, id: ReplicaId, out: &mut Vec<Action>) {
        let n = self.n();
        let r = &mut self.replicas[id];
        r.role = Role::Leader;
        let last = r.last_index();
        r.next_index = vec![last + 1; n];
        r.match_index = vec![0; n];
        r.match_index[id] = last;
        r.timeout_gen += 1; // no election timer while leading
                            // A client cannot resolve to a leader it cannot reach.
        if self.isolated != Some(id) {
            self.gain_leader(now, id, out);
        }
        self.broadcast_append(now, id, out);
        self.arm_heartbeat(now, id, out);
    }

    fn gain_leader(&mut self, now: SimTime, id: ReplicaId, out: &mut Vec<Action>) {
        self.visible = Some(id);
        if self.last_leader != Some(id) {
            self.stats.leader_changes += 1;
            self.last_leader = Some(id);
        }
        if let Some(since) = self.leaderless_since.take() {
            self.stats.recovery_ticks += (now - since).as_nanos();
        }
        out.push(Action::LeaderChanged {
            leader: Some(id),
            term: self.replicas[id].term,
        });
    }

    fn lose_leader(&mut self, now: SimTime, out: &mut Vec<Action>) {
        let term = self.visible.map_or(0, |l| self.replicas[l].term);
        self.visible = None;
        // Without a quorum (a crashed lone replica, a majority down) the
        // group is down until a restart or heal, not failing over.
        if self.leaderless_since.is_none() && self.quorum_reachable() {
            self.leaderless_since = Some(now);
        }
        out.push(Action::LeaderChanged { leader: None, term });
    }

    fn broadcast_append(&mut self, now: SimTime, id: ReplicaId, out: &mut Vec<Action>) {
        for peer in 0..self.n() {
            if peer == id {
                continue;
            }
            let r = &self.replicas[id];
            let next = r.next_index[peer];
            let prev_index = next - 1;
            let prev_term = if prev_index == 0 {
                0
            } else {
                r.log[prev_index as usize - 1].term
            };
            let entries: Vec<LogEntry> = r.log[prev_index as usize..].to_vec();
            let bytes = CTRL_BYTES + ENTRY_BYTES * entries.len() as u64;
            let msg = Msg::Append {
                to: peer,
                from: id,
                term: r.term,
                prev_index,
                prev_term,
                entries,
                commit: r.commit,
            };
            self.send(now, id, bytes, msg, out);
        }
    }

    /// Advances the leader's commit index (majority match, current-term
    /// restriction) and emits each newly committed entry exactly once.
    fn advance_commit(&mut self, id: ReplicaId, out: &mut Vec<Action>) {
        let majority = self.n() / 2 + 1;
        let r = &mut self.replicas[id];
        let mut commit = r.commit;
        for idx in (r.commit + 1)..=r.last_index() {
            let replicated = r.match_index.iter().filter(|&&m| m >= idx).count();
            if replicated >= majority && r.log[idx as usize - 1].term == r.term {
                commit = idx;
            }
        }
        r.commit = commit;
        while self.emitted < commit {
            self.emitted += 1;
            let e = &self.replicas[id].log[self.emitted as usize - 1];
            self.stats.commits += 1;
            out.push(Action::Commit {
                index: self.emitted,
                proposed_at: e.at,
                entry: e.entry,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BinaryHeap;

    /// A tiny host: drains `Deliver` actions through a priority queue in
    /// `(at, seq)` order, collecting commits and leader changes.
    struct Host {
        group: MdsGroup,
        queue: BinaryHeap<std::cmp::Reverse<(SimTime, u64)>>,
        pending: Vec<(SimTime, u64, Msg)>,
        seq: u64,
        now: SimTime,
        commits: Vec<(u64, Entry)>,
        leaders: Vec<Option<ReplicaId>>,
    }

    impl Host {
        fn new(replicas: usize, seed: u64) -> Self {
            let cfg = MdsConfig::new(replicas, seed, LinkConfig::qdr_infiniband());
            let mut h = Host {
                group: MdsGroup::new(cfg),
                queue: BinaryHeap::new(),
                pending: Vec::new(),
                seq: 0,
                now: SimTime::ZERO,
                commits: Vec::new(),
                leaders: Vec::new(),
            };
            let mut out = Vec::new();
            h.group.resume(h.now, &mut out);
            h.absorb(out);
            h
        }

        fn absorb(&mut self, out: Vec<Action>) {
            for a in out {
                match a {
                    Action::Deliver { at, msg } => {
                        self.seq += 1;
                        self.queue.push(std::cmp::Reverse((at, self.seq)));
                        self.pending.push((at, self.seq, msg));
                    }
                    Action::Commit { index, entry, .. } => self.commits.push((index, entry)),
                    Action::LeaderChanged { leader, .. } => self.leaders.push(leader),
                }
            }
        }

        /// Runs until `until`, delivering messages in time order.
        fn run_until(&mut self, until: SimTime) {
            while let Some(&std::cmp::Reverse((at, seq))) = self.queue.peek() {
                if at > until {
                    break;
                }
                self.queue.pop();
                let pos = self
                    .pending
                    .iter()
                    .position(|&(_, s, _)| s == seq)
                    .expect("queued message exists");
                let (_, _, msg) = self.pending.swap_remove(pos);
                self.now = at;
                let mut out = Vec::new();
                self.group.handle(at, msg, &mut out);
                self.absorb(out);
            }
            self.now = until;
        }

        fn propose(&mut self, entry: Entry) -> bool {
            let mut out = Vec::new();
            let ok = self.group.propose(self.now, entry, &mut out);
            self.absorb(out);
            ok
        }
    }

    fn ms(v: u64) -> SimTime {
        SimTime::from_millis(v)
    }

    #[test]
    fn initial_election_elects_exactly_one_leader() {
        let mut h = Host::new(3, 42);
        h.run_until(ms(20));
        let leaders: Vec<_> = (0..3)
            .filter(|&i| h.group.replicas[i].role == Role::Leader)
            .collect();
        assert_eq!(leaders.len(), 1, "exactly one leader: {leaders:?}");
        assert_eq!(h.group.leader(), Some(leaders[0]));
        assert!(h.group.stats().elections >= 1);
        assert_eq!(h.group.stats().leader_changes, 1);
    }

    #[test]
    fn elections_are_deterministic_per_seed() {
        let run = |seed| {
            let mut h = Host::new(5, seed);
            h.run_until(ms(30));
            (h.group.leader(), h.group.stats())
        };
        assert_eq!(run(7), run(7));
        // Different seeds draw different timeouts; over a few seeds at
        // least one must elect a different first leader.
        let first = run(1).0;
        assert!(
            (2..20).any(|s| run(s).0 != first),
            "election outcome never varies with the seed"
        );
    }

    #[test]
    fn proposals_commit_at_majority_in_order() {
        let mut h = Host::new(3, 42);
        h.run_until(ms(20));
        for s in 0..4 {
            assert!(h.propose(Entry::TReport {
                server: s,
                t: s as f64
            }));
            h.run_until(h.now + SimDuration::from_millis(2));
        }
        assert_eq!(h.commits.len(), 4);
        let idxs: Vec<u64> = h.commits.iter().map(|&(i, _)| i).collect();
        assert_eq!(idxs, vec![1, 2, 3, 4], "commit indexes in order");
    }

    #[test]
    fn leader_crash_fails_over_and_restart_rejoins() {
        let mut h = Host::new(3, 42);
        h.run_until(ms(20));
        let old = h.group.leader().unwrap();
        assert!(h.propose(Entry::TReport { server: 0, t: 1.0 }));
        h.run_until(h.now + SimDuration::from_millis(2));
        assert_eq!(h.commits.len(), 1);

        let mut out = Vec::new();
        let victim = h.group.crash_leader(h.now, &mut out).unwrap();
        h.absorb(out);
        assert_eq!(victim, old);
        assert_eq!(h.group.leader(), None);
        h.run_until(h.now + SimDuration::from_millis(15));
        let new = h.group.leader().expect("new leader elected");
        assert_ne!(new, old);
        assert!(h.group.stats().recovery_ticks > 0);

        // Committed entry survived the failover (leader completeness).
        assert!(h.propose(Entry::TReport { server: 1, t: 2.0 }));
        h.run_until(h.now + SimDuration::from_millis(5));
        assert_eq!(h.commits.len(), 2);
        assert_eq!(h.commits[1].0, 2, "commit index never regresses");

        // Restart the old leader: it replays its log and rejoins as a
        // follower without disturbing the new leader.
        let mut out = Vec::new();
        let replayed = h.group.restart_crashed(h.now, &mut out);
        h.absorb(out);
        assert!(replayed >= 1);
        h.run_until(h.now + SimDuration::from_millis(10));
        assert_eq!(h.group.leader(), Some(new));
        assert_eq!(h.group.replicas[old].role, Role::Follower);
    }

    #[test]
    fn partitioned_leader_is_fenced_and_steps_down_on_heal() {
        let mut h = Host::new(3, 42);
        h.run_until(ms(20));
        let old = h.group.leader().unwrap();

        let mut out = Vec::new();
        let iso = h.group.partition_leader(h.now, &mut out);
        h.absorb(out);
        assert_eq!(iso, old);
        assert_eq!(h.group.leader(), None, "client fenced off the stale leader");

        // The stale leader keeps its role but can commit nothing.
        h.run_until(h.now + SimDuration::from_millis(15));
        let new = h.group.leader().expect("majority side elected a leader");
        assert_ne!(new, old);
        assert_eq!(h.group.replicas[old].role, Role::Leader, "stale leader");
        let commits_before = h.commits.len();
        assert!(h.propose(Entry::TReport { server: 2, t: 3.0 }));
        h.run_until(h.now + SimDuration::from_millis(5));
        assert!(h.commits.len() > commits_before, "new leader commits");

        // Heal: higher term wins, the stale leader steps down.
        let mut out = Vec::new();
        h.group.heal(h.now, &mut out);
        h.absorb(out);
        h.run_until(h.now + SimDuration::from_millis(10));
        assert_eq!(h.group.replicas[old].role, Role::Follower);
        assert_eq!(h.group.leader(), Some(new));
    }

    #[test]
    fn lone_replica_leads_without_elections_and_keeps_no_log() {
        let mut g = MdsGroup::new(MdsConfig::new(1, 42, LinkConfig::qdr_infiniband()));
        assert_eq!(g.leader(), Some(0), "leads before any message");
        assert!(g.quorum_reachable());
        let mut out = Vec::new();
        g.resume(SimTime::ZERO, &mut out);
        assert!(out.is_empty(), "no election timer, no heartbeat: {out:?}");

        assert!(g.propose(ms(1), Entry::SteerOff { server: 3 }, &mut out));
        assert!(
            matches!(
                out.as_slice(),
                [Action::Commit {
                    index: 1,
                    entry: Entry::SteerOff { server: 3 },
                    ..
                }]
            ),
            "commits on propose: {out:?}"
        );
        assert!(g.replicas[0].log.is_empty(), "a lone replica keeps no log");

        // Crash, then restart: refused while down, leading again after.
        g.crash_leader(ms(2), &mut out);
        assert_eq!(g.leader(), None);
        assert!(!g.quorum_reachable());
        assert!(!g.propose(ms(3), Entry::TReport { server: 0, t: 1.0 }, &mut out));
        assert_eq!(g.restart_crashed(ms(10), &mut out), 0, "no log to replay");
        assert_eq!(g.leader(), Some(0));

        // Partition, then heal: the same, with the replica still up.
        g.partition_leader(ms(11), &mut out);
        assert_eq!(g.leader(), None);
        assert!(!g.quorum_reachable());
        assert!(!g.propose(ms(12), Entry::TReport { server: 0, t: 1.0 }, &mut out));
        g.heal(ms(20), &mut out);
        assert_eq!(g.leader(), Some(0));
        assert!(g.propose(ms(21), Entry::TReport { server: 1, t: 2.0 }, &mut out));

        g.finish(ms(30));
        let s = g.stats();
        assert_eq!((s.elections, s.leader_changes, s.recovery_ticks), (0, 0, 0));
        assert_eq!((s.proposals, s.commits), (2, 2));
        assert!(
            !out.iter().any(|a| matches!(a, Action::Deliver { .. })),
            "a lone replica sends and arms nothing: {out:?}"
        );
    }

    #[test]
    fn commit_index_is_monotonic_across_random_fault_schedules() {
        for seed in 0..30u64 {
            let mut h = Host::new(3, seed);
            h.run_until(ms(15));
            let mut last_commit = 0;
            for step in 0..12 {
                h.propose(Entry::TReport {
                    server: step,
                    t: step as f64,
                });
                let mut out = Vec::new();
                match (seed + step as u64) % 4 {
                    0 => {
                        h.group.crash_leader(h.now, &mut out);
                    }
                    1 => {
                        h.group.restart_crashed(h.now, &mut out);
                    }
                    2 => {
                        h.group.partition_leader(h.now, &mut out);
                    }
                    _ => h.group.heal(h.now, &mut out),
                }
                h.absorb(out);
                h.run_until(h.now + SimDuration::from_millis(8));
                if let Some(&(idx, _)) = h.commits.last() {
                    assert!(idx >= last_commit, "commit index regressed");
                    last_commit = idx;
                }
            }
            // Emitted commit indexes are exactly 1..=k with no gaps or
            // duplicates — the exactly-once emission contract.
            let idxs: Vec<u64> = h.commits.iter().map(|&(i, _)| i).collect();
            let expect: Vec<u64> = (1..=idxs.len() as u64).collect();
            assert_eq!(idxs, expect, "seed {seed}");
        }
    }
}
