//! The NAS BTIO macro-benchmark (MPI-IO "simple" mode).
//!
//! BT solves the 3D compressible Navier–Stokes equations and appends its
//! solution to a shared file every few timesteps. In the paper's runs
//! (class C, 6.8 GB) the per-request size shrinks as the process count
//! grows — 2160 B at 9 processes down to 640 B at 100 — and "the program
//! generates random and very small I/O requests during execution", all
//! below the 20 KB threshold. Computation phases alternate with the
//! write phases, so total execution time mixes compute and I/O (the
//! paper reports I/O at 58 % of stock execution time, 4 % with iBridge).
//!
//! The model: `steps` phases; in each, every process computes for
//! `compute_per_step`, then writes its share of `data_bytes / steps` in
//! `request_size()`-byte records scattered over the file by a bijective
//! permutation (disjoint, deterministic, random-looking — the diagonal
//! BT decomposition). After the last phase every process reads its
//! records back (BTIO's verification step). This is what makes the SSD
//! cache capacity matter in Fig. 11: reads hit the cache only for data
//! still in the log.

use ibridge_des::SimDuration;
use ibridge_device::IoDir;
use ibridge_localfs::FileHandle;
use ibridge_pvfs::{FileRequest, WorkItem, Workload};

/// BTIO workload model.
///
/// ```
/// use ibridge_workloads::Btio;
/// use ibridge_localfs::FileHandle;
/// use ibridge_des::SimDuration;
///
/// let b = Btio::new(FileHandle(1), 9, 1 << 20, 4, SimDuration::ZERO);
/// assert_eq!(b.request_size(), 2160); // the paper's 9-process size
/// assert!(b.span_bytes() <= 1 << 20);
/// ```
#[derive(Debug, Clone)]
pub struct Btio {
    /// Target file.
    pub file: FileHandle,
    /// Process count (BT requires square numbers: 9, 16, 64, 100).
    pub procs: usize,
    /// Total bytes written over the run.
    pub data_bytes: u64,
    /// Number of solution-write phases.
    pub steps: u64,
    /// Per-process compute time before each write phase.
    pub compute_per_step: SimDuration,
    reqs_per_step: u64,
    req_size: u64,
    slots: u64,
    multiplier: u64,
    verify_multiplier: u64,
}

impl Btio {
    /// Builds a BTIO run. `data_bytes` is rounded down so every process
    /// issues the same whole number of requests per step.
    pub fn new(
        file: FileHandle,
        procs: usize,
        data_bytes: u64,
        steps: u64,
        compute_per_step: SimDuration,
    ) -> Self {
        assert!(procs > 0 && steps > 0);
        let req_size = Self::request_size_for(procs);
        let reqs_per_step = (data_bytes / (procs as u64 * steps * req_size)).max(1);
        let slots = reqs_per_step * procs as u64 * steps;
        // Multipliers coprime with `slots` scatter the slot sequence
        // into bijective pseudo-random placements; the verification
        // phase uses a different permutation (BT reads the solution in
        // layout order, uncorrelated with write completion order).
        let mut multiplier = (slots as f64 * 0.618) as u64 | 1;
        while gcd(multiplier, slots) != 1 {
            multiplier += 2;
        }
        let mut verify_multiplier = (slots as f64 * 0.382) as u64 | 1;
        while gcd(verify_multiplier, slots) != 1 || verify_multiplier == multiplier {
            verify_multiplier += 2;
        }
        Btio {
            file,
            procs,
            data_bytes: slots * req_size,
            steps,
            compute_per_step,
            reqs_per_step,
            req_size,
            slots,
            multiplier,
            verify_multiplier,
        }
    }

    /// Per-request size: ≈2160 B at 9 processes, ≈640 B at 100
    /// (`6480 / sqrt(procs)`, rounded up to 16 B).
    pub fn request_size_for(procs: usize) -> u64 {
        let raw = 6480.0 / (procs as f64).sqrt();
        ((raw / 16.0).round() as u64).max(1) * 16
    }

    /// This run's request size in bytes.
    pub fn request_size(&self) -> u64 {
        self.req_size
    }

    /// The logical file span touched (for preallocation).
    pub fn span_bytes(&self) -> u64 {
        self.slots * self.req_size
    }

    fn scatter(&self, linear: u64) -> u64 {
        (linear.wrapping_mul(self.multiplier)) % self.slots
    }
}

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

impl Workload for Btio {
    fn procs(&self) -> usize {
        self.procs
    }

    fn next(&mut self, proc: usize, iter: u64) -> Option<WorkItem> {
        let writes = self.steps * self.reqs_per_step;
        if iter >= 2 * writes {
            return None;
        }
        if iter >= writes {
            // Verification phase: read records back in an order
            // uncorrelated with the write order.
            let k = iter - writes;
            let linear = k * self.procs as u64 + proc as u64;
            let offset = (linear.wrapping_mul(self.verify_multiplier) % self.slots) * self.req_size;
            return Some(WorkItem {
                req: FileRequest {
                    dir: IoDir::Read,
                    file: self.file,
                    offset,
                    len: self.req_size,
                },
                think: SimDuration::ZERO,
            });
        }
        let step = iter / self.reqs_per_step;
        let k = iter % self.reqs_per_step;
        let linear = (step * self.reqs_per_step + k) * self.procs as u64 + proc as u64;
        let offset = self.scatter(linear) * self.req_size;
        Some(WorkItem {
            req: FileRequest {
                dir: IoDir::Write,
                file: self.file,
                offset,
                len: self.req_size,
            },
            // Compute happens before the first write of each phase.
            think: if k == 0 {
                self.compute_per_step
            } else {
                SimDuration::ZERO
            },
        })
    }

    fn barrier(&self) -> bool {
        // BT's solver synchronises the processes each timestep.
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn request_sizes_match_the_paper() {
        assert_eq!(Btio::request_size_for(9), 2160);
        let s100 = Btio::request_size_for(100);
        assert!((640..=656).contains(&s100), "{s100}");
        // Size shrinks monotonically with procs.
        assert!(Btio::request_size_for(16) > Btio::request_size_for(64));
    }

    #[test]
    fn all_requests_below_the_random_threshold() {
        for procs in [9, 16, 64, 100] {
            assert!(Btio::request_size_for(procs) < 20 * 1024);
        }
    }

    #[test]
    fn offsets_are_disjoint_and_cover_the_span() {
        let mut b = Btio::new(FileHandle(1), 9, 1 << 20, 4, SimDuration::ZERO);
        let mut seen = HashSet::new();
        let total_iters = b.steps * b.reqs_per_step;
        for proc in 0..9 {
            for iter in 0..total_iters {
                let item = b.next(proc, iter).expect("in range");
                assert_eq!(item.req.len, b.request_size());
                assert!(item.req.offset + item.req.len <= b.span_bytes());
                assert!(
                    seen.insert(item.req.offset),
                    "duplicate offset {}",
                    item.req.offset
                );
            }
        }
        assert_eq!(seen.len() as u64, b.slots);
    }

    #[test]
    fn offsets_are_scattered_not_sequential() {
        let mut b = Btio::new(FileHandle(1), 9, 1 << 20, 4, SimDuration::ZERO);
        let a = b.next(0, 0).unwrap().req.offset;
        let c = b.next(0, 1).unwrap().req.offset;
        let d = a.abs_diff(c);
        assert!(d > 10 * b.request_size(), "consecutive requests too close");
    }

    #[test]
    fn compute_precedes_each_phase() {
        let mut b = Btio::new(FileHandle(1), 9, 1 << 20, 4, SimDuration::from_millis(7));
        assert_eq!(b.next(0, 0).unwrap().think, SimDuration::from_millis(7));
        assert_eq!(b.next(0, 1).unwrap().think, SimDuration::ZERO);
        // First request of the second phase computes again.
        let r = b.reqs_per_step;
        assert_eq!(b.next(0, r).unwrap().think, SimDuration::from_millis(7));
    }

    #[test]
    fn workload_terminates() {
        // Both phases: the writes, then the verification reads.
        let mut b = Btio::new(FileHandle(1), 9, 1 << 18, 2, SimDuration::ZERO);
        let total = 2 * b.steps * b.reqs_per_step;
        assert!(b.next(0, total - 1).is_some());
        assert!(b.next(0, total).is_none());
    }

    #[test]
    fn verification_reads_cover_exactly_the_written_offsets() {
        let mut b = Btio::new(FileHandle(1), 9, 1 << 18, 2, SimDuration::ZERO);
        let writes = b.steps * b.reqs_per_step;
        let mut written = HashSet::new();
        let mut read_back = HashSet::new();
        for proc in 0..9 {
            for iter in 0..writes {
                let w = b.next(proc, iter).unwrap();
                assert!(w.req.dir.is_write());
                written.insert(w.req.offset);
                let r = b.next(proc, writes + iter).unwrap();
                assert!(r.req.dir.is_read());
                read_back.insert(r.req.offset);
            }
            // The workload ends after both phases.
            assert!(b.next(proc, 2 * writes).is_none());
        }
        assert_eq!(written, read_back);
    }
}
