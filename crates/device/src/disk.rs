//! Positional hard-disk model.
//!
//! The model tracks the head position (as an LBN) and charges each
//! operation:
//!
//! * **seek** — a concave distance→time curve, the `D_to_T` function that
//!   Eq. (1) of the paper obtains by offline profiling (Huang et al., FS2);
//! * **rotational latency** — derived deterministically from the angular
//!   position implied by the current virtual time, so a workload that
//!   streams sequentially pays (almost) none while random access pays
//!   about half a revolution on average;
//! * **transfer** — at platter speed (`sectors_per_track` per revolution);
//! * **write settle** — an extra head-settle delay for non-contiguous
//!   writes, which reproduces the read/write asymmetry of Table II
//!   (random reads 15 MB/s vs random writes 5 MB/s).
//!
//! Operations that start at (or within a small forward gap of) the head's
//! current position are treated as streaming: no seek, no rotation — this
//! stands in for the drive's track buffer and write cache, and is what
//! makes merged/sequential dispatch an order of magnitude cheaper than
//! fragmented dispatch.

use crate::{sectors_to_bytes, DevOp, Lbn};
use ibridge_des::{SimDuration, SimTime};

/// Static description of a disk: geometry and timing parameters.
#[derive(Debug, Clone)]
pub struct DiskProfile {
    /// Total capacity in sectors.
    pub capacity_sectors: u64,
    /// Time of one platter revolution (8.33 ms at 7200 RPM).
    pub revolution: SimDuration,
    /// Sectors passing under the head per revolution; fixes the media
    /// transfer rate at `sectors_per_track * 512 / revolution`.
    pub sectors_per_track: u64,
    /// Track-to-track (minimum non-zero) seek time.
    pub min_seek: SimDuration,
    /// Full-stroke (maximum) seek time.
    pub max_seek: SimDuration,
    /// Extra settle time charged to non-contiguous writes.
    pub write_settle: SimDuration,
    /// Read ops starting within this many sectors *ahead of* the head
    /// are served from the streaming path (track buffer).
    pub contig_gap: u64,
    /// Non-barrier (write-cached) writes within this many sectors ahead
    /// of the head stream too: the drive's volatile write cache absorbs
    /// a sorted writeback sweep, lazily writing as the band passes under
    /// the head. Much larger than the read gap. Barrier (FUA) writes
    /// bypass the cache and never stream: client writes on the data
    /// servers are barriers, the reason the paper's stock write
    /// throughput trails its reads.
    pub write_gap: u64,
}

impl DiskProfile {
    /// The paper's data-server drive: HP MM0500FAMYT-class 7200-RPM 1 TB
    /// SAS disk (Table II: 85 MB/s sequential read).
    ///
    /// `sectors_per_track` is chosen so the media rate matches the
    /// measured 85 MB/s sequential-read bandwidth.
    pub fn hp_mm0500() -> Self {
        let revolution = SimDuration::from_micros(8333);
        // 85 MB/s * 8.333 ms / 512 B = ~1383 sectors per revolution.
        let sectors_per_track = 1383;
        DiskProfile {
            capacity_sectors: 1_000_000_000_000 / 512,
            revolution,
            sectors_per_track,
            min_seek: SimDuration::from_micros(800),
            max_seek: SimDuration::from_micros(16_000),
            write_settle: SimDuration::from_micros(2_500),
            contig_gap: 64,
            write_gap: 1024,
        }
    }

    /// Seek time for a head movement of `distance` sectors — the paper's
    /// `D_to_T` function.
    ///
    /// Zero distance is free; otherwise a concave
    /// `min + (max-min) * sqrt(d / capacity)` curve, the standard
    /// Ruemmler–Wilkes shape.
    pub fn seek_time(&self, distance: u64) -> SimDuration {
        if distance == 0 {
            return SimDuration::ZERO;
        }
        let frac =
            (distance.min(self.capacity_sectors) as f64 / self.capacity_sectors as f64).sqrt();
        self.min_seek + (self.max_seek - self.min_seek).mul_f64(frac)
    }

    /// Average rotational latency (half a revolution) — the `R` of Eq. (1).
    pub fn avg_rotation(&self) -> SimDuration {
        self.revolution / 2
    }

    /// Peak media transfer rate in bytes per second — the `B` of Eq. (1).
    pub fn peak_bw(&self) -> f64 {
        sectors_to_bytes(self.sectors_per_track) as f64 / self.revolution.as_secs_f64()
    }

    /// Time to transfer `sectors` at media rate.
    pub fn transfer_time(&self, sectors: u64) -> SimDuration {
        // sectors / sectors_per_track revolutions.
        self.revolution
            .mul_f64(sectors as f64 / self.sectors_per_track as f64)
    }

    fn angle_of_lbn(&self, lbn: Lbn) -> f64 {
        (lbn % self.sectors_per_track) as f64 / self.sectors_per_track as f64
    }

    fn angle_at(&self, t: SimTime) -> f64 {
        (t.as_nanos() % self.revolution.as_nanos()) as f64 / self.revolution.as_nanos() as f64
    }
}

/// Mutable disk state: where the head is.
///
/// ```
/// use ibridge_device::{DevOp, DiskModel, DiskProfile};
/// use ibridge_des::SimTime;
///
/// let mut disk = DiskModel::new(DiskProfile::hp_mm0500());
/// let first = disk.service(SimTime::ZERO, &DevOp::read(1000, 128));
/// // A contiguous follow-up streams from the track buffer:
/// let second = disk.service(SimTime::ZERO + first, &DevOp::read(1128, 128));
/// assert!(second < first);
/// ```
#[derive(Debug, Clone)]
pub struct DiskModel {
    profile: DiskProfile,
    head: Lbn,
    slow_factor: f64,
}

impl DiskModel {
    /// Creates a disk with the head parked at LBN 0.
    pub fn new(profile: DiskProfile) -> Self {
        DiskModel {
            profile,
            head: 0,
            slow_factor: 1.0,
        }
    }

    /// Service-time multiplier for fail-slow fault injection. `1.0` is
    /// healthy; larger values stretch every service proportionally
    /// (mechanics — head movement, streaming detection — unchanged).
    pub fn slow_factor(&self) -> f64 {
        self.slow_factor
    }

    /// Sets the fail-slow multiplier. Must be finite and >= 1.
    pub fn set_slow_factor(&mut self, f: f64) {
        assert!(f.is_finite() && f >= 1.0, "bad slow factor: {f}");
        self.slow_factor = f;
    }

    /// The static profile.
    pub fn profile(&self) -> &DiskProfile {
        &self.profile
    }

    /// Current head position (end of the last transfer).
    pub fn head(&self) -> Lbn {
        self.head
    }

    /// Seek distance from the head to `lbn`, in sectors.
    pub fn distance_to(&self, lbn: Lbn) -> u64 {
        self.head.abs_diff(lbn)
    }

    fn is_streaming(&self, op: &DevOp) -> bool {
        if op.lbn < self.head {
            return false;
        }
        let gap = op.lbn - self.head;
        if op.dir.is_read() {
            gap <= self.profile.contig_gap
        } else {
            // Barrier writes never stream; cached writes stream within
            // the (large) write-cache absorption window. RMW edges of
            // cached writes are absorbed by the same sweep (the flusher
            // reads the edge blocks as the band passes).
            !op.fua && gap <= self.profile.write_gap
        }
    }

    /// Estimated positional cost (seek + rotation, no transfer) of
    /// starting `op` at time `start`, without mutating state.
    ///
    /// Used by NCQ-style dispatch to pick the cheapest pending request,
    /// and by iBridge's Eq. (1) bookkeeping.
    pub fn positional_cost(&self, start: SimTime, op: &DevOp) -> SimDuration {
        if self.is_streaming(op) {
            return SimDuration::ZERO;
        }
        let seek = self.profile.seek_time(self.distance_to(op.lbn));
        let mut settle = if op.dir.is_write() {
            self.profile.write_settle
        } else {
            SimDuration::ZERO
        };
        if op.dir.is_write() && op.fua {
            // Each cold partial edge reads its block and waits a full
            // revolution before the in-place barrier write can land.
            // Cache-backed writes absorb RMW in the writeback sweep.
            settle += self.profile.revolution * op.rmw_edges as u64;
        }
        // A flush-barrier write loses rotational continuity entirely
        // (the cache flush drains before completion): charge the average
        // latency instead of tracking the angle.
        if op.fua && op.dir.is_write() {
            return seek + self.profile.avg_rotation() + settle;
        }
        let arrive = start + seek;
        let target = self.profile.angle_of_lbn(op.lbn);
        let current = self.profile.angle_at(arrive);
        let mut wait = target - current;
        if wait < 0.0 {
            wait += 1.0;
        }
        let rot = self.profile.revolution.mul_f64(wait);
        seek + rot + settle
    }

    /// Services `op` starting at time `start`; returns its duration and
    /// moves the head to the end of the transfer.
    ///
    /// # Panics
    ///
    /// Panics if the op extends past the end of the disk.
    pub fn service(&mut self, start: SimTime, op: &DevOp) -> SimDuration {
        assert!(
            op.end() <= self.profile.capacity_sectors,
            "op beyond disk capacity: end={} cap={}",
            op.end(),
            self.profile.capacity_sectors
        );
        let total = if self.is_streaming(op) {
            // Streaming: media keeps rotating; pay transfer for the skipped
            // gap plus the payload.
            let span = op.end() - self.head;
            self.profile.transfer_time(span)
        } else {
            self.positional_cost(start, op) + self.profile.transfer_time(op.sectors)
        };
        self.head = op.end();
        // Healthy path multiplies by nothing at all, so fault-free runs
        // cannot pick up float rounding from the fail-slow hook.
        if self.slow_factor != 1.0 {
            total.mul_f64(self.slow_factor)
        } else {
            total
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::IoDir;

    fn disk() -> DiskModel {
        DiskModel::new(DiskProfile::hp_mm0500())
    }

    #[test]
    fn seek_curve_is_monotone_and_concave_bounded() {
        let p = DiskProfile::hp_mm0500();
        assert_eq!(p.seek_time(0), SimDuration::ZERO);
        let mut last = SimDuration::ZERO;
        for d in [1, 100, 10_000, 1_000_000, 100_000_000, p.capacity_sectors] {
            let t = p.seek_time(d);
            assert!(t >= last, "seek time must be monotone in distance");
            assert!(t >= p.min_seek && t <= p.max_seek);
            last = t;
        }
        assert_eq!(p.seek_time(p.capacity_sectors), p.max_seek);
    }

    #[test]
    fn peak_bw_matches_table_ii_sequential_read() {
        let p = DiskProfile::hp_mm0500();
        let mbps = p.peak_bw() / 1e6;
        assert!((mbps - 85.0).abs() < 1.0, "peak bw {mbps} MB/s");
    }

    #[test]
    fn sequential_stream_pays_transfer_only() {
        let mut d = disk();
        // Position the head first.
        let t0 = SimTime::ZERO;
        let first = d.service(t0, &DevOp::read(1000, 128));
        let t1 = t0 + first;
        // Contiguous follow-up: pure transfer.
        let second = d.service(t1, &DevOp::read(1128, 128));
        assert_eq!(second, d.profile().transfer_time(128));
        assert!(
            second < first,
            "streaming should be cheaper than first access"
        );
    }

    #[test]
    fn small_forward_gap_still_streams() {
        let mut d = disk();
        d.service(SimTime::ZERO, &DevOp::read(1000, 128));
        let gap = d.profile().contig_gap;
        let dur = d.service(SimTime::from_millis(10), &DevOp::read(1128 + gap, 8));
        assert_eq!(dur, d.profile().transfer_time(gap + 8));
    }

    #[test]
    fn backward_jump_is_not_streaming() {
        let mut d = disk();
        d.service(SimTime::ZERO, &DevOp::read(100_000, 128));
        let dur = d.service(SimTime::from_millis(5), &DevOp::read(50_000, 8));
        assert!(dur >= d.profile().min_seek);
    }

    #[test]
    fn random_access_much_slower_than_sequential() {
        // 4KB ops: random (far jumps) vs sequential streaming.
        let mut d = disk();
        let mut t = SimTime::ZERO;
        d.service(t, &DevOp::read(0, 8));
        let mut seq_total = SimDuration::ZERO;
        let mut lbn = 8;
        for _ in 0..100 {
            let dur = d.service(t, &DevOp::read(lbn, 8));
            t += dur;
            seq_total += dur;
            lbn += 8;
        }

        let mut d = disk();
        let mut t = SimTime::ZERO;
        let mut rnd_total = SimDuration::ZERO;
        let mut lbn = 1;
        for i in 0..100 {
            // Deterministic scattered positions.
            lbn = (lbn * 48271 + i) % (d.profile().capacity_sectors - 8);
            let dur = d.service(t, &DevOp::read(lbn, 8));
            t += dur;
            rnd_total += dur;
        }
        assert!(
            rnd_total.as_nanos() > 20 * seq_total.as_nanos(),
            "random {rnd_total} vs sequential {seq_total}"
        );
    }

    #[test]
    fn writes_pay_settle_on_random_access() {
        let mut dr = disk();
        let mut dw = disk();
        dr.service(SimTime::ZERO, &DevOp::read(0, 8));
        dw.service(SimTime::ZERO, &DevOp::write(0, 8));
        let t = SimTime::from_millis(100);
        let r = dr.service(t, &DevOp::read(10_000_000, 8));
        let w = dw.service(t, &DevOp::write(10_000_000, 8));
        assert_eq!(w, r + dw.profile().write_settle);
    }

    #[test]
    fn head_moves_to_end_of_transfer() {
        let mut d = disk();
        d.service(SimTime::ZERO, &DevOp::new(IoDir::Read, 500, 100));
        assert_eq!(d.head(), 600);
    }

    #[test]
    fn rotation_wait_is_less_than_one_revolution() {
        let d = disk();
        let p = d.profile().clone();
        for i in 0..50 {
            let start = SimTime::from_micros(i * 137);
            let op = DevOp::read(7919 * (i + 1), 8);
            let cost = d.positional_cost(start, &op);
            let seek = p.seek_time(d.distance_to(op.lbn));
            assert!(cost >= seek);
            assert!(cost <= seek + p.revolution, "rotation must be < 1 rev");
        }
    }

    #[test]
    #[should_panic(expected = "beyond disk capacity")]
    fn op_past_capacity_panics() {
        let mut d = disk();
        let cap = d.profile().capacity_sectors;
        d.service(SimTime::ZERO, &DevOp::read(cap - 4, 8));
    }

    #[test]
    fn transfer_time_scales_linearly() {
        let p = DiskProfile::hp_mm0500();
        let t1 = p.transfer_time(100);
        let t2 = p.transfer_time(200);
        let diff = t2.as_nanos() as i128 - 2 * t1.as_nanos() as i128;
        assert!(diff.abs() <= 1, "transfer not linear: {t1} vs {t2}");
    }
}
