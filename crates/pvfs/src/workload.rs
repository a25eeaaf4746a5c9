//! Workload abstraction: the MPI-IO program analogue.
//!
//! A [`Workload`] models a set of synchronous processes, each issuing one
//! file request at a time. The cluster asks a process for its next work
//! item when its previous request (and, with barriers, everyone's
//! request of that iteration) has completed. Concrete benchmarks
//! (`mpi-io-test`, `ior-mpi-io`, `BTIO`, trace replay) live in
//! `ibridge-workloads`.

use crate::proto::FileRequest;
use ibridge_des::SimDuration;
use ibridge_device::IoDir;
use ibridge_localfs::FileHandle;

/// One unit of work for a process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkItem {
    /// The file request to issue.
    pub req: FileRequest,
    /// Compute ("think") time before issuing it.
    pub think: SimDuration,
}

impl WorkItem {
    /// A request with no think time.
    pub fn immediate(req: FileRequest) -> Self {
        WorkItem {
            req,
            think: SimDuration::ZERO,
        }
    }
}

/// A multi-process I/O program.
///
/// `Send` keeps workloads movable between threads (for example into a
/// `--jobs` worker); implementations are plain data plus seeded RNG
/// state.
pub trait Workload: Send {
    /// Number of processes.
    fn procs(&self) -> usize;

    /// The next work item of `proc` at iteration `iter` (0-based), or
    /// `None` when the process has finished.
    fn next(&mut self, proc: usize, iter: u64) -> Option<WorkItem>;

    /// Whether a barrier synchronises processes between iterations.
    fn barrier(&self) -> bool {
        false
    }

    /// Whether `proc` participates in the barrier (all do by default).
    /// Heterogeneous workloads exempt their independent programs.
    fn in_barrier(&self, proc: usize) -> bool {
        let _ = proc;
        true
    }
}

/// A simple fixed-size sequential workload in the style of
/// `mpi-io-test`: process `i` at iteration `k` accesses
/// `offset = (k*N + i) * size + shift` — exactly the access formula of
/// the paper's §I.A. Used for tests; the full benchmark (with offsets,
/// patterns and barriers) lives in `ibridge-workloads`.
#[derive(Debug, Clone)]
pub struct SequentialWorkload {
    /// Read or write.
    pub dir: IoDir,
    /// Target file.
    pub file: FileHandle,
    /// Number of processes.
    pub procs: usize,
    /// Request size in bytes.
    pub size: u64,
    /// Iterations per process.
    pub iters: u64,
    /// Constant shift added to all offsets (the paper's Pattern III).
    pub shift: u64,
    /// Barrier between iterations.
    pub use_barrier: bool,
}

impl Workload for SequentialWorkload {
    fn procs(&self) -> usize {
        self.procs
    }

    fn next(&mut self, proc: usize, iter: u64) -> Option<WorkItem> {
        if iter >= self.iters {
            return None;
        }
        let offset = (iter * self.procs as u64 + proc as u64) * self.size + self.shift;
        Some(WorkItem::immediate(FileRequest {
            dir: self.dir,
            file: self.file,
            offset,
            len: self.size,
        }))
    }

    fn barrier(&self) -> bool {
        self.use_barrier
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_offsets_follow_the_paper_formula() {
        let mut w = SequentialWorkload {
            dir: IoDir::Read,
            file: FileHandle(1),
            procs: 4,
            size: 1000,
            iters: 2,
            shift: 0,
            use_barrier: false,
        };
        // Process 2, iteration 1: offset = (1*4 + 2) * 1000.
        let item = w.next(2, 1).unwrap();
        assert_eq!(item.req.offset, 6000);
        assert_eq!(item.req.len, 1000);
        assert!(w.next(0, 2).is_none());
    }

    #[test]
    fn shift_applies_to_every_request() {
        let mut w = SequentialWorkload {
            dir: IoDir::Read,
            file: FileHandle(1),
            procs: 2,
            size: 65536,
            iters: 1,
            shift: 10240,
            use_barrier: false,
        };
        assert_eq!(w.next(0, 0).unwrap().req.offset, 10240);
        assert_eq!(w.next(1, 0).unwrap().req.offset, 65536 + 10240);
    }
}
