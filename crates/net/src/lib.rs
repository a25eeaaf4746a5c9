//! Cluster interconnect model.
//!
//! The paper's testbed uses dual-rail 4X QDR InfiniBand — fast enough
//! that the network is never the bottleneck (aggregate disk bandwidth is
//! two orders of magnitude lower). The model therefore only needs to be
//! *plausible*, not detailed: each node owns a serialised transmit link
//! with finite bandwidth, per-message overhead, and a propagation delay.
//! A message's arrival time is `serialise-after-the-previous-send +
//! transmission + latency`; receive sides are unconstrained.
//!
//! # Example
//!
//! ```
//! use ibridge_net::{Link, LinkConfig};
//! use ibridge_des::SimTime;
//!
//! let mut link = Link::new(LinkConfig::qdr_infiniband());
//! let t0 = SimTime::ZERO;
//! let a1 = link.send(t0, 65536);
//! let a2 = link.send(t0, 65536); // queues behind the first
//! assert!(a2 > a1);
//! ```

use ibridge_des::{SimDuration, SimTime};

/// Static link parameters.
#[derive(Debug, Clone)]
pub struct LinkConfig {
    /// Transmit bandwidth in bytes per second.
    pub bandwidth: f64,
    /// Propagation + remote handling latency per message.
    pub latency: SimDuration,
    /// Fixed per-message serialisation overhead (headers, doorbells).
    pub overhead: SimDuration,
}

impl LinkConfig {
    /// Effective PVFS2-over-InfiniBand numbers for the paper's QDR
    /// fabric: ~1.5 GB/s per node, ~15 µs end-to-end.
    pub fn qdr_infiniband() -> Self {
        LinkConfig {
            bandwidth: 1.5e9,
            latency: SimDuration::from_micros(15),
            overhead: SimDuration::from_micros(2),
        }
    }

    /// Gigabit-Ethernet-class link for slow-network ablations.
    pub fn gige() -> Self {
        LinkConfig {
            bandwidth: 110e6,
            latency: SimDuration::from_micros(80),
            overhead: SimDuration::from_micros(10),
        }
    }

    /// Time to push `bytes` onto the wire.
    pub fn tx_time(&self, bytes: u64) -> SimDuration {
        self.overhead + SimDuration::from_secs_f64(bytes as f64 / self.bandwidth)
    }

    /// Lower bound on any message's send-to-arrival latency: even a
    /// zero-byte message on an idle link pays the per-message overhead
    /// plus propagation. This is the *lookahead* of the event calendar
    /// (`ibridge_des::Simulation`), which asserts that no event crosses
    /// between nodes faster than the fabric can carry a message.
    pub fn lookahead(&self) -> SimDuration {
        self.overhead + self.latency
    }
}

/// What the network did to one message under fault injection.
///
/// Produced by [`Impairment::decide`]; consumed by whoever posts the
/// arrival event. `Deliver` is the healthy outcome and the only one a
/// fault-free link ever produces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetDecision {
    /// The message arrives normally.
    Deliver,
    /// The message is lost after transmission; no arrival happens.
    Drop,
    /// The message arrives late by the attached extra delay.
    Delay(SimDuration),
    /// The message is delivered twice (original plus a copy).
    Duplicate,
}

/// A lossy-network model: independent per-message probabilities of
/// dropping, delaying, or duplicating a message. The sender still pays
/// the serialisation cost — impairment happens *after* the NIC, in the
/// fabric — so link state (and therefore later arrival times) is
/// unchanged by the decision itself.
#[derive(Debug, Clone, PartialEq)]
pub struct Impairment {
    /// Probability the message is silently dropped.
    pub drop: f64,
    /// Probability the message is delayed by `delay_by`.
    pub delay: f64,
    /// Extra one-way delay applied to delayed messages.
    pub delay_by: SimDuration,
    /// Probability the message is delivered twice.
    pub dup: f64,
}

impl Impairment {
    /// Maps one uniform draw `u ∈ [0, 1)` to a decision. The unit
    /// interval is partitioned `[drop | delay | dup | deliver]`, so a
    /// single draw per message keeps fault schedules reproducible.
    /// Probabilities must be non-negative and sum to at most 1.
    pub fn decide(&self, u: f64) -> NetDecision {
        debug_assert!(
            self.drop >= 0.0
                && self.delay >= 0.0
                && self.dup >= 0.0
                && self.drop + self.delay + self.dup <= 1.0,
            "invalid impairment probabilities: {self:?}"
        );
        if u < self.drop {
            NetDecision::Drop
        } else if u < self.drop + self.delay {
            NetDecision::Delay(self.delay_by)
        } else if u < self.drop + self.delay + self.dup {
            NetDecision::Duplicate
        } else {
            NetDecision::Deliver
        }
    }
}

/// A serialised transmit link owned by one node.
#[derive(Debug, Clone)]
pub struct Link {
    cfg: LinkConfig,
    busy_until: SimTime,
    bytes_sent: u64,
    messages: u64,
}

impl Link {
    /// Creates an idle link.
    pub fn new(cfg: LinkConfig) -> Self {
        Link {
            cfg,
            busy_until: SimTime::ZERO,
            bytes_sent: 0,
            messages: 0,
        }
    }

    /// The link configuration.
    pub fn config(&self) -> &LinkConfig {
        &self.cfg
    }

    /// Sends `bytes` at `now`; returns the time the message arrives at
    /// the destination. Messages serialise on the transmit side in call
    /// order.
    pub fn send(&mut self, now: SimTime, bytes: u64) -> SimTime {
        let start = self.busy_until.max(now);
        let done = start + self.cfg.tx_time(bytes);
        self.busy_until = done;
        self.bytes_sent += bytes;
        self.messages += 1;
        let arrival = done + self.cfg.latency;
        // Queue-for-NIC + transmit + propagation, per message.
        #[cfg(feature = "obs")]
        ibridge_obs::metrics::record_phase(
            ibridge_obs::metrics::Phase::NetTx,
            (arrival - now).as_nanos(),
        );
        arrival
    }

    /// Total bytes pushed through the link.
    pub fn bytes_sent(&self) -> u64 {
        self.bytes_sent
    }

    /// Total messages sent.
    pub fn messages(&self) -> u64 {
        self.messages
    }

    /// When the transmitter frees up.
    pub fn busy_until(&self) -> SimTime {
        self.busy_until
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrival_includes_tx_and_latency() {
        let cfg = LinkConfig {
            bandwidth: 1e9,
            latency: SimDuration::from_micros(10),
            overhead: SimDuration::from_micros(1),
        };
        let mut l = Link::new(cfg);
        let t = l.send(SimTime::ZERO, 1_000_000); // 1 ms transmission
        let expect = SimTime::ZERO
            + SimDuration::from_micros(1)
            + SimDuration::from_millis(1)
            + SimDuration::from_micros(10);
        assert_eq!(t, expect);
    }

    #[test]
    fn messages_serialise() {
        let mut l = Link::new(LinkConfig::qdr_infiniband());
        let a = l.send(SimTime::ZERO, 1 << 20);
        let b = l.send(SimTime::ZERO, 1 << 20);
        let tx = l.config().tx_time(1 << 20);
        assert_eq!(b - a, tx, "second message waits for the first");
    }

    #[test]
    fn idle_gap_is_not_charged() {
        let mut l = Link::new(LinkConfig::qdr_infiniband());
        let _ = l.send(SimTime::ZERO, 1024);
        let later = SimTime::from_secs(1);
        let arrive = l.send(later, 1024);
        let expect = later + l.config().tx_time(1024) + l.config().latency;
        assert_eq!(arrive, expect);
    }

    #[test]
    fn counters_accumulate() {
        let mut l = Link::new(LinkConfig::gige());
        l.send(SimTime::ZERO, 100);
        l.send(SimTime::ZERO, 200);
        assert_eq!(l.bytes_sent(), 300);
        assert_eq!(l.messages(), 2);
    }

    #[test]
    fn ib_much_faster_than_gige_for_bulk() {
        let ib = LinkConfig::qdr_infiniband().tx_time(1 << 20);
        let ge = LinkConfig::gige().tx_time(1 << 20);
        assert!(ge.as_nanos() > 10 * ib.as_nanos());
    }

    #[test]
    fn impairment_partitions_unit_interval() {
        let imp = Impairment {
            drop: 0.1,
            delay: 0.2,
            delay_by: SimDuration::from_millis(5),
            dup: 0.3,
        };
        assert_eq!(imp.decide(0.0), NetDecision::Drop);
        assert_eq!(imp.decide(0.09), NetDecision::Drop);
        assert_eq!(
            imp.decide(0.1),
            NetDecision::Delay(SimDuration::from_millis(5))
        );
        assert_eq!(
            imp.decide(0.29), // just inside the delay band
            NetDecision::Delay(SimDuration::from_millis(5))
        );
        assert_eq!(imp.decide(0.31), NetDecision::Duplicate);
        assert_eq!(imp.decide(0.59), NetDecision::Duplicate);
        assert_eq!(imp.decide(0.61), NetDecision::Deliver);
        assert_eq!(imp.decide(0.999), NetDecision::Deliver);
    }

    #[test]
    fn zero_impairment_always_delivers() {
        let imp = Impairment {
            drop: 0.0,
            delay: 0.0,
            delay_by: SimDuration::ZERO,
            dup: 0.0,
        };
        for i in 0..10 {
            assert_eq!(imp.decide(i as f64 / 10.0), NetDecision::Deliver);
        }
    }
}
