//! Scientific-application I/O traces: ALEGRA, CTH and S3D.
//!
//! The paper replays traces from Sandia's Scalable I/O project. The
//! public trace archive is no longer available, so we synthesise traces
//! whose *statistics match what the paper reports*: the Table I
//! unaligned/random percentages (with a 64 KB striping unit and a 20 KB
//! random threshold), and S3D's markedly larger average request size
//! (its replayed service time is about twice the others', §III.E).
//!
//! Traces can be saved to / loaded from a simple line-oriented text
//! format (`R|W <offset> <len>`), and replayed by a single synchronous
//! process, exactly like the paper's replayer.

use ibridge_des::rng::{stream_rng, streams};
use ibridge_des::SimDuration;
use ibridge_device::IoDir;
use ibridge_localfs::FileHandle;
use ibridge_pvfs::{FileRequest, WorkItem, Workload};
use rand::Rng;
use std::io::{self, BufRead, BufWriter, Write};
use std::path::Path;

/// One trace record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// Read or write.
    pub dir: IoDir,
    /// File offset in bytes.
    pub offset: u64,
    /// Length in bytes.
    pub len: u64,
}

/// Statistical profile of an application's I/O, tuned to Table I.
#[derive(Debug, Clone)]
pub struct AppProfile {
    /// Application name.
    pub name: &'static str,
    /// Fraction of requests that are large but unaligned.
    pub unaligned_frac: f64,
    /// Fraction of requests smaller than 20 KB ("random").
    pub random_frac: f64,
    /// Mean size of large (aligned or unaligned) requests, bytes.
    pub mean_large: u64,
    /// Fraction of write requests.
    pub write_frac: f64,
    /// Probability that a request continues where the previous ended.
    pub sequential_bias: f64,
}

impl AppProfile {
    /// ALEGRA shock/multiphysics run, 2744-cell mesh (Table I row 1).
    pub fn alegra_2744() -> Self {
        AppProfile {
            name: "ALEGRA-2744",
            unaligned_frac: 0.352,
            random_frac: 0.073,
            mean_large: 128 << 10,
            write_frac: 0.7,
            sequential_bias: 0.8,
        }
    }

    /// ALEGRA, 5832-cell mesh (Table I row 2).
    pub fn alegra_5832() -> Self {
        AppProfile {
            name: "ALEGRA-5832",
            unaligned_frac: 0.357,
            random_frac: 0.069,
            mean_large: 128 << 10,
            write_frac: 0.7,
            sequential_bias: 0.8,
        }
    }

    /// CTH shock physics (Table I row 3; random-heavy).
    pub fn cth() -> Self {
        AppProfile {
            name: "CTH",
            unaligned_frac: 0.243,
            random_frac: 0.301,
            mean_large: 96 << 10,
            write_frac: 0.6,
            sequential_bias: 0.7,
        }
    }

    /// S3D combustion simulation (Table I row 4; most unaligned, and
    /// the largest average request size).
    pub fn s3d() -> Self {
        AppProfile {
            name: "S3D",
            unaligned_frac: 0.628,
            random_frac: 0.058,
            mean_large: 256 << 10,
            write_frac: 0.8,
            sequential_bias: 0.85,
        }
    }

    /// The four Table I applications, in table order.
    pub fn table1() -> Vec<AppProfile> {
        vec![
            Self::alegra_2744(),
            Self::alegra_5832(),
            Self::cth(),
            Self::s3d(),
        ]
    }
}

/// A trace: an ordered list of requests.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trace {
    /// The records, in replay order.
    pub records: Vec<TraceRecord>,
}

const SU: u64 = 64 << 10;

impl Trace {
    /// Synthesises `n` requests matching `profile`, confined to
    /// `[0, span)` (the paper restricts replay to 10 GB).
    pub fn synthesize(profile: &AppProfile, n: usize, span: u64, seed: u64) -> Trace {
        assert!(span >= 4 * (SU + profile.mean_large));
        let mut rng = stream_rng(seed, streams::TRACE);
        let mut records = Vec::with_capacity(n);
        let mut cursor: u64 = 0;
        for _ in 0..n {
            let dir = if rng.gen_bool(profile.write_frac) {
                IoDir::Write
            } else {
                IoDir::Read
            };
            let u: f64 = rng.gen();
            let (offset, len) = if u < profile.random_frac {
                // Random: < 20 KB, anywhere.
                let len = rng.gen_range(512..20 * 1024 - 512);
                let offset = rng.gen_range(0..span - len);
                (offset, len)
            } else if u < profile.random_frac + profile.unaligned_frac {
                // Unaligned: > one striping unit, edges off the grid.
                let spread = profile.mean_large / 2;
                let mut len = rng.gen_range(
                    (SU + 1024).max(profile.mean_large - spread)..profile.mean_large + spread,
                );
                if len % SU == 0 {
                    len += 1024;
                }
                let base = if rng.gen_bool(profile.sequential_bias) {
                    cursor
                } else {
                    rng.gen_range(0..span / SU) * SU
                };
                let shift = rng.gen_range(1..SU / 1024) * 1024;
                let offset = (base + shift) % (span - len);
                (offset, len)
            } else {
                // Aligned: multiple of the unit on a unit boundary.
                let units = (profile.mean_large / SU).max(1);
                let len = rng.gen_range(1..=units * 2) * SU;
                let base = if rng.gen_bool(profile.sequential_bias) {
                    cursor / SU * SU
                } else {
                    rng.gen_range(0..span / SU) * SU
                };
                let offset = base % (span - len) / SU * SU;
                (offset, len)
            };
            cursor = (offset + len) % (span / 2);
            records.push(TraceRecord { dir, offset, len });
        }
        Trace { records }
    }

    /// Total bytes moved by the trace.
    pub fn bytes(&self) -> u64 {
        self.records.iter().map(|r| r.len).sum()
    }

    /// Largest offset+len touched (for preallocation).
    pub fn span(&self) -> u64 {
        self.records
            .iter()
            .map(|r| r.offset + r.len)
            .max()
            .unwrap_or(0)
    }

    /// Writes the trace in the text format (`R|W <offset> <len>`).
    pub fn save<W: Write>(&self, out: W) -> io::Result<()> {
        let mut w = BufWriter::new(out);
        for r in &self.records {
            let d = if r.dir.is_read() { 'R' } else { 'W' };
            writeln!(w, "{d} {} {}", r.offset, r.len)?;
        }
        w.flush()
    }

    /// Saves to a file path.
    pub fn save_path<P: AsRef<Path>>(&self, path: P) -> io::Result<()> {
        self.save(std::fs::File::create(path)?)
    }

    /// Parses the text format.
    pub fn load<R: BufRead>(input: R) -> io::Result<Trace> {
        let mut records = Vec::new();
        for (no, line) in input.lines().enumerate() {
            let line = line?;
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut it = line.split_whitespace();
            let err = || {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("bad trace line {}: {line:?}", no + 1),
                )
            };
            let dir = match it.next().ok_or_else(err)? {
                "R" | "r" => IoDir::Read,
                "W" | "w" => IoDir::Write,
                _ => return Err(err()),
            };
            let offset = it.next().ok_or_else(err)?.parse().map_err(|_| err())?;
            let len = it.next().ok_or_else(err)?.parse().map_err(|_| err())?;
            if len == 0 {
                return Err(err());
            }
            records.push(TraceRecord { dir, offset, len });
        }
        Ok(Trace { records })
    }

    /// Loads from a file path.
    pub fn load_path<P: AsRef<Path>>(path: P) -> io::Result<Trace> {
        Self::load(io::BufReader::new(std::fs::File::open(path)?))
    }
}

/// Replays a trace with a single synchronous process, as the paper does
/// (§III.E: the traces record offset and size but not the issuing
/// process).
#[derive(Debug, Clone)]
pub struct TraceReplay {
    /// The trace to replay.
    pub trace: Trace,
    /// Target file.
    pub file: FileHandle,
}

impl TraceReplay {
    /// Creates the replayer.
    pub fn new(trace: Trace, file: FileHandle) -> Self {
        TraceReplay { trace, file }
    }
}

impl Workload for TraceReplay {
    fn procs(&self) -> usize {
        1
    }

    fn next(&mut self, _proc: usize, iter: u64) -> Option<WorkItem> {
        let r = self.trace.records.get(iter as usize)?;
        Some(WorkItem {
            req: FileRequest {
                dir: r.dir,
                file: self.file,
                offset: r.offset,
                len: r.len,
            },
            think: SimDuration::ZERO,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::classify;

    #[test]
    fn synthesized_traces_match_table1_percentages() {
        for profile in AppProfile::table1() {
            let t = Trace::synthesize(&profile, 20_000, 1 << 30, 7);
            let c = classify(&t.records, SU, 20 * 1024);
            assert!(
                (c.random_pct - profile.random_frac * 100.0).abs() < 1.5,
                "{}: random {:.1} vs {:.1}",
                profile.name,
                c.random_pct,
                profile.random_frac * 100.0
            );
            assert!(
                (c.unaligned_pct - profile.unaligned_frac * 100.0).abs() < 1.5,
                "{}: unaligned {:.1} vs {:.1}",
                profile.name,
                c.unaligned_pct,
                profile.unaligned_frac * 100.0
            );
        }
    }

    #[test]
    fn s3d_requests_are_larger_on_average() {
        let s3d = Trace::synthesize(&AppProfile::s3d(), 5000, 1 << 30, 7);
        let alegra = Trace::synthesize(&AppProfile::alegra_2744(), 5000, 1 << 30, 7);
        let mean = |t: &Trace| t.bytes() as f64 / t.records.len() as f64;
        assert!(mean(&s3d) > 1.5 * mean(&alegra));
    }

    #[test]
    fn traces_stay_within_span() {
        let t = Trace::synthesize(&AppProfile::cth(), 5000, 1 << 28, 3);
        assert!(t.span() <= 1 << 28);
    }

    #[test]
    fn save_load_roundtrip() {
        let t = Trace::synthesize(&AppProfile::s3d(), 100, 1 << 28, 5);
        let mut buf = Vec::new();
        t.save(&mut buf).unwrap();
        let back = Trace::load(io::Cursor::new(buf)).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn load_rejects_garbage() {
        for bad in ["X 0 10", "R ten 10", "R 0", "R 0 0"] {
            assert!(
                Trace::load(io::Cursor::new(bad.as_bytes())).is_err(),
                "{bad}"
            );
        }
        // Comments and blank lines are fine.
        let ok = "# header\n\nR 0 512\n";
        assert_eq!(
            Trace::load(io::Cursor::new(ok.as_bytes()))
                .unwrap()
                .records
                .len(),
            1
        );
    }

    #[test]
    fn replay_walks_records_in_order() {
        let t = Trace {
            records: vec![
                TraceRecord {
                    dir: IoDir::Read,
                    offset: 0,
                    len: 512,
                },
                TraceRecord {
                    dir: IoDir::Write,
                    offset: 1024,
                    len: 256,
                },
            ],
        };
        let mut w = TraceReplay::new(t, FileHandle(9));
        assert_eq!(w.procs(), 1);
        assert_eq!(w.next(0, 0).unwrap().req.offset, 0);
        let second = w.next(0, 1).unwrap();
        assert_eq!(second.req.offset, 1024);
        assert!(second.req.dir.is_write());
        assert!(w.next(0, 2).is_none());
    }

    #[test]
    fn synthesis_is_deterministic_per_seed() {
        let a = Trace::synthesize(&AppProfile::cth(), 500, 1 << 28, 11);
        let b = Trace::synthesize(&AppProfile::cth(), 500, 1 << 28, 11);
        let c = Trace::synthesize(&AppProfile::cth(), 500, 1 << 28, 12);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
