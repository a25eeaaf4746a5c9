//! Property-based tests of the DES kernel.

use ibridge_des::stats::{Ewma, Histogram, MeanTracker};
use ibridge_des::{SimDuration, SimTime, Simulation};
use proptest::prelude::*;

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
}
