//! Criterion microbenchmarks of the simulator's hot components, plus a
//! small end-to-end cluster run. These measure the *implementation*
//! (wall time), unlike the `expt` binary which measures the *simulated
//! system* (virtual time).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use ibridge_core::{CircularLog, DiskTimeModel, EntryType, MappingTable};
use ibridge_des::{SimDuration, SimTime, Simulation};
use ibridge_device::{DevOp, DiskModel, DiskProfile};
use ibridge_iosched::{BlockRequest, Cfq, CfqConfig, Decision, Scheduler};
use ibridge_localfs::{Extent, FileHandle};
use ibridge_pvfs::Layout;
use ibridge_workloads::{AppProfile, Trace};
use std::hint::black_box;

fn des_kernel(c: &mut Criterion) {
    c.bench_function("des/schedule+pop 10k events", |b| {
        b.iter(|| {
            let mut sim: Simulation<u64> = Simulation::new();
            for i in 0..10_000u64 {
                sim.schedule_at(SimTime::from_nanos((i * 7919) % 1_000_000), i);
            }
            let mut acc = 0u64;
            while let Some((_, e)) = sim.pop() {
                acc = acc.wrapping_add(e);
            }
            black_box(acc)
        })
    });
    // The calendar hot path at event-loop scale: a rolling horizon of
    // timers where a third are cancelled before they fire — the pvfs
    // cluster's actual mix (I/O completions plus cancelled anticipation
    // deadlines).
    c.bench_function("des/schedule+cancel+pop 1M events", |b| {
        b.iter(|| {
            let mut sim: Simulation<u64> = Simulation::new();
            let mut pending = std::collections::VecDeque::with_capacity(64);
            let mut acc = 0u64;
            let mut fired = 0u64;
            let mut i = 0u64;
            while fired < 1_000_000 {
                let at = sim.now() + SimDuration::from_nanos((i * 7919) % 10_000 + 1);
                pending.push_back(sim.schedule_at(at, i));
                if pending.len() > 64 {
                    // Cancel the oldest still-tracked handle (may already
                    // have fired — cancellation must absorb both cases).
                    let id = pending.pop_front().unwrap();
                    sim.cancel(id);
                }
                if i.is_multiple_of(2) {
                    if let Some((_, e)) = sim.pop() {
                        acc = acc.wrapping_add(e);
                        fired += 1;
                    }
                }
                i += 1;
            }
            black_box((acc, sim.pending()))
        })
    });
    // Fire-and-forget fast path: no cancellation handles at all.
    c.bench_function("des/post+pop 1M events", |b| {
        b.iter(|| {
            let mut sim: Simulation<u64> = Simulation::new();
            let mut acc = 0u64;
            for i in 0..1_000_000u64 {
                sim.post_in(SimDuration::from_nanos((i * 7919) % 10_000 + 1), i);
                if i % 2 == 1 {
                    let (_, a) = sim.pop().expect("queue non-empty");
                    let (_, b) = sim.pop().expect("queue non-empty");
                    acc = acc.wrapping_add(a).wrapping_add(b);
                }
            }
            black_box(acc)
        })
    });
}

fn disk_model(c: &mut Criterion) {
    c.bench_function("device/disk service 1k scattered ops", |b| {
        b.iter_batched(
            || DiskModel::new(DiskProfile::hp_mm0500()),
            |mut disk| {
                let mut t = SimTime::ZERO;
                let mut lbn = 1u64;
                for i in 0..1_000u64 {
                    lbn = (lbn * 48_271 + i) % 1_900_000_000;
                    let d = disk.service(t, &DevOp::read(lbn, 128));
                    t += d;
                }
                black_box(t)
            },
            BatchSize::SmallInput,
        )
    });
}

fn cfq_sched(c: &mut Criterion) {
    c.bench_function("iosched/cfq add+dispatch 1k requests, 16 streams", |b| {
        b.iter(|| {
            let mut s = Cfq::new(CfqConfig::default());
            let t = SimTime::ZERO;
            for i in 0..1_000u64 {
                s.add(
                    t,
                    BlockRequest::new(
                        ibridge_device::IoDir::Read,
                        (i * 977) % 1_000_000,
                        8,
                        i % 16,
                        t,
                        i,
                    ),
                );
            }
            let mut head = 0;
            let mut n = 0;
            loop {
                match s.dispatch(t + SimDuration::from_secs(1), head) {
                    Decision::Request(r) => {
                        head = r.end();
                        n += 1;
                    }
                    Decision::WaitUntil(_) => break,
                    Decision::Empty => break,
                }
            }
            black_box(n)
        })
    });
}

fn layout_decompose(c: &mut Criterion) {
    let layout = Layout::default_with_servers(8);
    c.bench_function("pvfs/decompose 10k unaligned requests", |b| {
        b.iter(|| {
            let mut total = 0u64;
            for i in 0..10_000u64 {
                let d = layout.decompose(i * 66_560, 65 * 1024);
                total += d.len() as u64;
            }
            black_box(total)
        })
    });
}

fn cache_structures(c: &mut Criterion) {
    c.bench_function("core/mapping-table insert+lookup+evict 1k", |b| {
        b.iter(|| {
            let mut t = MappingTable::new();
            for i in 0..1_000u64 {
                let id = t.next_id();
                t.insert(
                    id,
                    FileHandle(1),
                    i * 8192,
                    4096,
                    vec![Extent {
                        lbn: i * 8,
                        sectors: 8,
                    }]
                    .into(),
                    EntryType::Fragment,
                    0.001,
                    false,
                    false,
                    i,
                );
            }
            let mut hits = 0;
            for i in 0..1_000u64 {
                if t.lookup_covering(FileHandle(1), i * 8192, 4096).is_some() {
                    hits += 1;
                }
            }
            while let Some(v) = t.lru_victim(EntryType::Fragment) {
                t.remove(v);
            }
            black_box(hits)
        })
    });
    c.bench_function("core/circular-log append 1k", |b| {
        b.iter(|| {
            let mut log = CircularLog::new(1 << 20);
            let mut casualties = Vec::new();
            for i in 0..1_000u64 {
                let _ = log.append(64, i, &mut casualties);
            }
            black_box(log.resident_sectors())
        })
    });
    // The wrapping regime of a small cache: the log holds ~48 entries,
    // so every append overwrites clean residents, and every fourth entry
    // stays pinned (dirty) for 64 appends — sometimes long enough for
    // the head to come round and be blocked by it.
    c.bench_function("core/circular-log append 1k, wrapping with pins", |b| {
        b.iter(|| {
            let mut log = CircularLog::new(48 * 41);
            let mut casualties = Vec::new();
            let (mut overwritten, mut blocked) = (0usize, 0u64);
            for i in 0..1_000u64 {
                match log.append_with_header(40, 1, i, &mut casualties) {
                    Ok(_) => overwritten += casualties.len(),
                    Err(_) => blocked += 1,
                }
                if i % 4 == 0 {
                    log.protect(i);
                }
                if i >= 64 && (i - 64) % 4 == 0 {
                    log.unprotect(i - 64);
                }
            }
            black_box((overwritten, blocked))
        })
    });
    c.bench_function("core/eq1 model update 10k", |b| {
        b.iter_batched(
            || DiskTimeModel::new(DiskProfile::hp_mm0500()),
            |mut m| {
                for i in 0..10_000u64 {
                    m.serve_disk((i * 31_337) % 1_000_000_000, 4096);
                }
                black_box(m.value())
            },
            BatchSize::SmallInput,
        )
    });
}

fn trace_synthesis(c: &mut Criterion) {
    c.bench_function("workloads/synthesize 10k-request S3D trace", |b| {
        b.iter(|| {
            let t = Trace::synthesize(&AppProfile::s3d(), 10_000, 1 << 30, 7);
            black_box(t.records.len())
        })
    });
}

fn end_to_end(c: &mut Criterion) {
    use ibridge_bench::{run_once, Scale, System, FILE_A};
    use ibridge_workloads::MpiIoTest;
    let scale = Scale {
        stream_bytes: 8 << 20,
        ..Scale::quick()
    };
    c.bench_function("cluster/e2e 8MB unaligned write, 8 servers", |b| {
        b.iter(|| {
            let mut w = MpiIoTest::sized(
                ibridge_device::IoDir::Write,
                FILE_A,
                16,
                65 * 1024,
                scale.stream_bytes,
            );
            let span = w.span_bytes();
            let stats = run_once(System::IBridge, 8, &scale, span, &mut w);
            black_box(stats.bytes)
        })
    });
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = des_kernel, disk_model, cfq_sched, layout_decompose,
              cache_structures, trace_synthesis, end_to_end
);
criterion_main!(benches);
