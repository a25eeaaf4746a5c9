//! Property-based tests of the device models.

use ibridge_des::{SimDuration, SimTime};
use ibridge_device::{DevOp, DiskModel, DiskProfile, IoDir, SsdModel, SsdProfile};
use proptest::prelude::*;

proptest! {
    /// Seek time is monotone in distance and bounded by [0, max_seek].
    #[test]
    fn seek_curve_is_monotone(d1 in 0u64..(2u64 << 30), d2 in 0u64..(2u64 << 30)) {
        let p = DiskProfile::hp_mm0500();
        let (lo, hi) = if d1 <= d2 { (d1, d2) } else { (d2, d1) };
        prop_assert!(p.seek_time(lo) <= p.seek_time(hi));
        prop_assert!(p.seek_time(hi) <= p.max_seek);
    }

    /// Service time is always at least the transfer time, and any op
    /// completes within seek + rotation + RMW + settle + transfer.
    #[test]
    fn disk_service_is_bounded(
        ops in prop::collection::vec((0u64..(1u64 << 30), 1u64..2048, any::<bool>(), any::<bool>(), 0u8..3), 1..50),
        start_ns in 0u64..10_000_000,
    ) {
        let p = DiskProfile::hp_mm0500();
        let mut disk = DiskModel::new(p.clone());
        let mut t = SimTime::from_nanos(start_ns);
        for &(lbn, sectors, write, fua, rmw) in &ops {
            let mut op = if write {
                DevOp::write(lbn, sectors)
            } else {
                DevOp::read(lbn, sectors)
            };
            if fua {
                op = op.with_fua();
            }
            op = op.with_rmw_edges(rmw);
            let dur = disk.service(t, &op);
            prop_assert!(dur >= p.transfer_time(sectors).saturating_sub(SimDuration::from_nanos(1)));
            let bound = p.max_seek
                + p.revolution * (2 + rmw as u64)
                + p.write_settle
                + p.transfer_time(sectors + p.write_gap);
            prop_assert!(dur <= bound, "dur {dur} exceeds bound {bound}");
            prop_assert_eq!(disk.head(), lbn + sectors);
            t += dur;
        }
    }

    /// positional_cost is a pure function: it never mutates the model.
    #[test]
    fn positional_cost_is_pure(lbn in 0u64..(1u64 << 30), sectors in 1u64..1024) {
        let mut disk = DiskModel::new(DiskProfile::hp_mm0500());
        disk.service(SimTime::ZERO, &DevOp::read(500_000, 64));
        let op = DevOp::read(lbn, sectors);
        let t = SimTime::from_millis(10);
        let a = disk.positional_cost(t, &op);
        let b = disk.positional_cost(t, &op);
        prop_assert_eq!(a, b);
        prop_assert_eq!(disk.head(), 500_064);
    }

    /// SSD service time equals latency + bytes/bandwidth for the mode
    /// the detector picked, and estimates match services.
    #[test]
    fn ssd_service_matches_bandwidth_model(
        ops in prop::collection::vec((0u64..(1u64 << 25), 1u64..512, any::<bool>()), 1..50),
    ) {
        let p = SsdProfile::hp_mk0120();
        let mut ssd = SsdModel::new(p.clone());
        for &(lbn, sectors, write) in &ops {
            let op = if write {
                DevOp::write(lbn, sectors)
            } else {
                DevOp::read(lbn, sectors)
            };
            let sequential = ssd.is_sequential(&op);
            let est = ssd.estimate(&op);
            let served = ssd.service(&op);
            prop_assert_eq!(est, served);
            let dir = if write { IoDir::Write } else { IoDir::Read };
            let expect = p.latency
                + SimDuration::from_secs_f64(
                    (sectors * 512) as f64 / p.bandwidth(dir, sequential),
                );
            prop_assert_eq!(served, expect);
        }
    }

    /// The SSD never charges rotational-scale latencies: every op is
    /// far cheaper than a disk revolution for small transfers.
    #[test]
    fn ssd_small_ops_beat_a_disk_revolution(lbn in 0u64..(1u64 << 25), sectors in 1u64..64) {
        let mut ssd = SsdModel::new(SsdProfile::hp_mk0120());
        let dur = ssd.service(&DevOp::write(lbn, sectors));
        let rev = DiskProfile::hp_mm0500().revolution;
        prop_assert!(dur < rev / 2, "{dur} vs {rev}");
    }
}
