//! The `mpi-io-test` benchmark.
//!
//! "N processes iteratively read data from a 10GB file striped over
//! eight data servers. All read requests are of the same size s. At the
//! kth iteration Process i reads one segment of data at file offset
//! k*N*s + i*s." A configurable request offset shifts every access by a
//! constant (the paper's Pattern III / "+x KB" bars). There is no barrier
//! between iterations, as in §III.B.

use ibridge_des::SimDuration;
use ibridge_device::IoDir;
use ibridge_localfs::FileHandle;
use ibridge_pvfs::{FileRequest, WorkItem, Workload};

/// The benchmark configuration.
#[derive(Debug, Clone)]
pub struct MpiIoTest {
    /// Read or write run.
    pub dir: IoDir,
    /// Target file.
    pub file: FileHandle,
    /// Process count N.
    pub procs: usize,
    /// Request size s in bytes.
    pub size: u64,
    /// Iterations per process.
    pub iters: u64,
    /// Constant request offset in bytes (the "+x KB" patterns).
    pub shift: u64,
}

impl MpiIoTest {
    /// A run moving `total_bytes` in requests of `size` with `procs`
    /// processes (iterations derived; at least one).
    pub fn sized(dir: IoDir, file: FileHandle, procs: usize, size: u64, total_bytes: u64) -> Self {
        assert!(size > 0 && procs > 0);
        let iters = (total_bytes / (size * procs as u64)).max(1);
        MpiIoTest {
            dir,
            file,
            procs,
            size,
            iters,
            shift: 0,
        }
    }

    /// Adds a constant request offset (Pattern III).
    pub fn with_shift(mut self, shift: u64) -> Self {
        self.shift = shift;
        self
    }

    /// The logical file span touched (for preallocation).
    pub fn span_bytes(&self) -> u64 {
        self.iters * self.procs as u64 * self.size + self.shift
    }
}

impl Workload for MpiIoTest {
    fn procs(&self) -> usize {
        self.procs
    }

    fn next(&mut self, proc: usize, iter: u64) -> Option<WorkItem> {
        if iter >= self.iters {
            return None;
        }
        let offset = (iter * self.procs as u64 + proc as u64) * self.size + self.shift;
        Some(WorkItem {
            req: FileRequest {
                dir: self.dir,
                file: self.file,
                offset,
                len: self.size,
            },
            think: SimDuration::ZERO,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn offsets_follow_the_paper_formula() {
        let mut w = MpiIoTest::sized(IoDir::Read, FileHandle(1), 4, 65536, 16 * 65536);
        assert_eq!(w.iters, 4);
        // Process 2, iteration 3: (3*4 + 2) * 64 KB.
        let item = w.next(2, 3).unwrap();
        assert_eq!(item.req.offset, 14 * 65536);
        assert!(w.next(0, 4).is_none());
    }

    #[test]
    fn shift_produces_pattern_iii() {
        let mut w =
            MpiIoTest::sized(IoDir::Read, FileHandle(1), 2, 65536, 4 * 65536).with_shift(10 * 1024);
        assert_eq!(w.next(0, 0).unwrap().req.offset, 10 * 1024);
        assert_eq!(w.next(1, 0).unwrap().req.offset, 65536 + 10 * 1024);
    }

    #[test]
    fn span_covers_all_accesses() {
        let w =
            MpiIoTest::sized(IoDir::Write, FileHandle(1), 8, 65 * 1024, 1 << 24).with_shift(1024);
        let mut max_end = 0;
        let mut w2 = w.clone();
        for proc in 0..w.procs {
            for iter in 0..w.iters {
                if let Some(item) = w2.next(proc, iter) {
                    max_end = max_end.max(item.req.offset + item.req.len);
                }
            }
        }
        assert!(w.span_bytes() >= max_end);
    }

    #[test]
    fn at_least_one_iteration() {
        let w = MpiIoTest::sized(IoDir::Read, FileHandle(1), 64, 65536, 1);
        assert_eq!(w.iters, 1);
    }
}
