//! Property-based tests of the DES kernel.

use ibridge_des::stats::{Ewma, Histogram, MeanTracker};
use ibridge_des::{EventId, SimDuration, SimTime, Simulation};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// The reference histogram: one ordered map of non-empty bins. Its
/// derived `Debug` text is the one run digests hash.
mod reference {
    use std::collections::BTreeMap;

    #[derive(Debug, Default)]
    pub struct Histogram {
        pub bins: BTreeMap<u64, u64>,
        pub total: u64,
    }

    impl Histogram {
        pub fn record_n(&mut self, key: u64, n: u64) {
            if n > 0 {
                *self.bins.entry(key).or_insert(0) += n;
                self.total += n;
            }
        }

        pub fn quantile(&self, q: f64) -> Option<u64> {
            let target = (q * self.total as f64).ceil().max(1.0) as u64;
            let mut acc = 0;
            for (&k, &c) in &self.bins {
                acc += c;
                if acc >= target {
                    return Some(k);
                }
            }
            self.bins.keys().next_back().copied()
        }
    }
}

/// Calendar nodes and network floor of the reference-model test.
const NODES: u16 = 4;
const FLOOR: SimDuration = SimDuration::from_nanos(10);

/// Pops the calendar and its reference model, which must agree, and
/// moves the model's clock to the popped instant.
fn pop_both(
    sim: &mut Simulation<u64>,
    model: &mut BTreeMap<(SimTime, u64), u64>,
    now: &mut SimTime,
) {
    let want = model.pop_first().map(|((at, _), ev)| (at, ev));
    assert_eq!(sim.pop(), want);
    if let Some((at, _)) = want {
        *now = at;
    }
}

/// Draws a histogram key below, at or above the dense bound (4096), or
/// `u64::MAX`.
fn hist_key(class: u8, raw: u64) -> u64 {
    match class % 4 {
        0 => raw % 64,
        1 => 4092 + raw % 8,
        2 => raw,
        _ => u64::MAX,
    }
}

/// A one-node calendar: FIFO among same-instant events.
fn calendar() -> Simulation<usize> {
    Simulation::new(1, SimDuration::from_nanos(1))
}

proptest! {
    /// Events always pop in non-decreasing time order, with FIFO order
    /// among equal timestamps, regardless of insertion order.
    #[test]
    fn calendar_orders_any_schedule(times in prop::collection::vec(0u64..1_000, 1..200)) {
        let mut sim = calendar();
        for (i, &t) in times.iter().enumerate() {
            sim.schedule_at(0, 0, SimTime::from_nanos(t), i);
        }
        let mut last: Option<(SimTime, usize)> = None;
        let mut popped = 0;
        while let Some((t, idx)) = sim.pop() {
            popped += 1;
            prop_assert_eq!(SimTime::from_nanos(times[idx]), t);
            if let Some((lt, lidx)) = last {
                prop_assert!(t >= lt);
                if t == lt {
                    prop_assert!(idx > lidx, "FIFO tie-break violated");
                }
            }
            last = Some((t, idx));
        }
        prop_assert_eq!(popped, times.len());
    }

    /// Cancelling an arbitrary subset removes exactly that subset.
    #[test]
    fn cancellation_is_exact(
        times in prop::collection::vec(0u64..1_000, 1..100),
        cancel_mask in prop::collection::vec(any::<bool>(), 100),
    ) {
        let mut sim = calendar();
        let ids: Vec<_> = times
            .iter()
            .enumerate()
            .map(|(i, &t)| sim.schedule_at(0, 0, SimTime::from_nanos(t), i))
            .collect();
        let mut expect: Vec<usize> = Vec::new();
        for (i, id) in ids.iter().enumerate() {
            if cancel_mask[i % cancel_mask.len()] {
                sim.cancel(*id);
            } else {
                expect.push(i);
            }
        }
        let mut got: Vec<usize> = Vec::new();
        while let Some((_, idx)) = sim.pop() {
            got.push(idx);
        }
        got.sort_unstable();
        expect.sort_unstable();
        prop_assert_eq!(got, expect);
    }

    /// Time arithmetic: (t + d1 + d2) - t == d1 + d2 for any values that
    /// do not overflow.
    #[test]
    fn time_arithmetic_is_consistent(t in 0u64..(1 << 50), d1 in 0u64..(1 << 40), d2 in 0u64..(1 << 40)) {
        let t0 = SimTime::from_nanos(t);
        let a = SimDuration::from_nanos(d1);
        let b = SimDuration::from_nanos(d2);
        prop_assert_eq!((t0 + a + b) - t0, a + b);
        prop_assert_eq!((t0 + a) - a, t0);
    }

    /// EWMA stays within the min/max envelope of its inputs.
    #[test]
    fn ewma_bounded_by_inputs(
        keep in 0.0f64..0.99,
        xs in prop::collection::vec(0.0f64..1e6, 1..100),
    ) {
        let mut e = Ewma::new(keep);
        let mut tracker = MeanTracker::new();
        for &x in &xs {
            e.record(x);
            tracker.record(x);
        }
        let v = e.value().unwrap();
        prop_assert!(v >= tracker.min().unwrap() - 1e-9);
        prop_assert!(v <= tracker.max().unwrap() + 1e-9);
    }

    /// fraction_below is a monotone CDF reaching 1 past the maximum.
    #[test]
    fn histogram_cdf_is_monotone(keys in prop::collection::vec(0u64..1_000, 1..100)) {
        let mut h = Histogram::new();
        for &k in &keys {
            h.record(k);
        }
        let mut prev = 0.0;
        for bound in (0..=1_001).step_by(37) {
            let f = h.fraction_below(bound as u64);
            prop_assert!(f >= prev - 1e-12);
            prev = f;
        }
        prop_assert!((h.fraction_below(1_001) - 1.0).abs() < 1e-12);
    }

    /// The calendar against a reference model: a `BTreeMap` keyed by
    /// `(at, src << 48 | seq)`. Random posts between nodes that respect
    /// the network floor, cancellable schedules, cancels of live and
    /// stale handles (fired events whose slot a later schedule reused
    /// included) and pops; the pop sequence, `now()` and `pending()`
    /// must match after every step.
    #[test]
    fn calendar_matches_an_ordered_map(
        ops in prop::collection::vec((0u8..10, 0u16..NODES, 0u16..NODES, 0u64..40, any::<usize>()), 1..400),
    ) {
        let mut sim: Simulation<u64> = Simulation::new(NODES as usize, FLOOR);
        let mut model: BTreeMap<(SimTime, u64), u64> = BTreeMap::new();
        let mut seq = [0u64; NODES as usize];
        let mut handles: Vec<(EventId, (SimTime, u64))> = Vec::new();
        let mut now = SimTime::ZERO;
        for (payload, &(op, src, dst, delay, pick)) in ops.iter().enumerate() {
            let payload = payload as u64;
            match op {
                0..=5 => {
                    // Same-node posts may land now; cross-node ones one
                    // floor later at the earliest.
                    let floor = if src == dst { SimDuration::ZERO } else { FLOOR };
                    let at = now + floor + SimDuration::from_nanos(delay);
                    let key = ((src as u64) << 48) | seq[src as usize];
                    seq[src as usize] += 1;
                    model.insert((at, key), payload);
                    if op < 3 {
                        sim.post_at(src, dst, at, payload);
                    } else {
                        handles.push((sim.schedule_at(src, dst, at, payload), (at, key)));
                    }
                }
                6 if !handles.is_empty() => {
                    // Live or stale: the model drops the event only if
                    // it has neither fired nor been cancelled.
                    let (id, key) = handles[pick % handles.len()];
                    sim.cancel(id);
                    model.remove(&key);
                }
                _ => pop_both(&mut sim, &mut model, &mut now),
            }
            prop_assert_eq!(sim.now(), now);
            prop_assert_eq!(sim.pending(), model.len());
        }
        while !model.is_empty() {
            pop_both(&mut sim, &mut model, &mut now);
            prop_assert_eq!(sim.now(), now);
            prop_assert_eq!(sim.pending(), model.len());
        }
        prop_assert_eq!(sim.pop(), None);
    }

    /// The histogram against the one-map reference, with keys below, at
    /// and above the dense bound and `u64::MAX`: bins, counts, totals,
    /// quantiles, mean, CDF, top-k, merge and the `Debug` text.
    #[test]
    fn histogram_matches_an_ordered_map(
        samples in prop::collection::vec((any::<u8>(), any::<u64>(), 0u64..4), 0..120),
        split in any::<usize>(),
    ) {
        let mut h = Histogram::new();
        let mut r = reference::Histogram::default();
        let (mut left, mut right) = (Histogram::new(), Histogram::new());
        let split = split % (samples.len() + 1);
        for (i, &(class, raw, n)) in samples.iter().enumerate() {
            let key = hist_key(class, raw);
            if n == 1 {
                h.record(key);
            } else {
                h.record_n(key, n);
            }
            r.record_n(key, n);
            if i < split { left.record_n(key, n) } else { right.record_n(key, n) }
        }
        let bins: Vec<(u64, u64)> = r.bins.iter().map(|(&k, &c)| (k, c)).collect();
        prop_assert_eq!(h.iter().collect::<Vec<_>>(), bins.clone());
        prop_assert_eq!(h.total(), r.total);
        for &(k, c) in &bins {
            prop_assert_eq!(h.count(k), c);
            prop_assert_eq!(h.count(k.wrapping_add(1)), r.bins.get(&k.wrapping_add(1)).copied().unwrap_or(0));
        }
        prop_assert_eq!(h.count(4096), r.bins.get(&4096).copied().unwrap_or(0));
        for q in [0.0, 0.01, 0.25, 0.5, 0.9, 0.99, 1.0] {
            let want = if r.total == 0 { None } else { r.quantile(q) };
            prop_assert_eq!(h.quantile(q), want);
        }
        let sum: u128 = bins.iter().map(|&(k, c)| k as u128 * c as u128).sum();
        let mean = if r.total == 0 { 0.0 } else { sum as f64 / r.total as f64 };
        prop_assert_eq!(h.mean().to_bits(), mean.to_bits());
        let mut bounds = vec![0, 1, 63, 64, 4095, 4096, 4097, u64::MAX];
        bounds.extend(bins.iter().map(|&(k, _)| k));
        for b in bounds {
            let below: u64 = r.bins.range(..b).map(|(_, &c)| c).sum();
            let want = if r.total == 0 { 0.0 } else { below as f64 / r.total as f64 };
            prop_assert_eq!(h.fraction_below(b).to_bits(), want.to_bits());
        }
        for k in 0..5 {
            let mut want = bins.clone();
            want.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
            want.truncate(k);
            prop_assert_eq!(h.top_k(k), want);
        }
        left.merge(&right);
        prop_assert_eq!(left.iter().collect::<Vec<_>>(), bins);
        prop_assert_eq!(left.total(), r.total);
        prop_assert_eq!(format!("{h:?}"), format!("{r:?}"));
        prop_assert_eq!(format!("{h:#?}"), format!("{r:#?}"));
        prop_assert_eq!(format!("{left:?}"), format!("{r:?}"));
    }
}

/// The `Debug` text is the one a derived `Debug` on a single map gave,
/// whichever store a bin sits in: run digests hash it.
#[test]
fn histogram_debug_text_is_pinned() {
    let mut h = Histogram::new();
    h.record(5000);
    h.record_n(3, 2);
    assert_eq!(
        format!("{h:?}"),
        "Histogram { bins: {3: 2, 5000: 1}, total: 3 }"
    );
    assert_eq!(
        format!("{:?}", Histogram::new()),
        "Histogram { bins: {}, total: 0 }"
    );
}
