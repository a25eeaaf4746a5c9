#!/usr/bin/env bash
# Local mirror of .github/workflows/ci.yml — run before pushing.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check"
cargo fmt --check

echo "== cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo doc -D warnings"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

# The root build covers only the facade library; the expt and calbench
# binaries the steps below run come from the ibridge-bench package.
echo "== cargo build --release"
cargo build --release
cargo build --release -p ibridge-bench

echo "== cargo test -q --workspace"
cargo test -q --workspace

# The benchmark package's own checks: decorator transparency and every
# workload under the 5 ms invariant auditor (which reaches the policy,
# backup and data-log audits). Its "threads 1 = 2" check holds
# trivially now: runs are serial and `ClusterConfig::threads` is ignored.
echo "== ibench checks"
cargo test --locked --offline --manifest-path ibench/Cargo.toml

echo "== expt --jobs parallel output identity"
./target/release/expt all >/tmp/ibridge_ci_j1.txt 2>/dev/null
./target/release/expt --jobs 4 all >/tmp/ibridge_ci_j4.txt 2>/dev/null
cmp /tmp/ibridge_ci_j1.txt /tmp/ibridge_ci_j4.txt

echo "== goldens (calbench, fault/recovery/perf smokes, obs metrics)"
./scripts/check-goldens.sh

# The goldens step just regenerated the jobs-1 fault/recovery/perf
# smokes and diffed them against goldens/, so the committed files ARE
# the jobs-1 baseline — the jobs-8 reruns compare straight against
# them instead of regenerating their own.
echo "== fault-matrix jobs identity (fixed seed; auditor armed)"
./target/release/expt --seed 7 --jobs 8 --audit --fault-plan chaos faults \
  >/tmp/ibridge_ci_faults_j8.txt 2>/dev/null
cmp goldens/faults_smoke.txt /tmp/ibridge_ci_faults_j8.txt

echo "== corruption-matrix jobs identity (torn-write/bit-rot recovery)"
./target/release/expt --seed 7 --jobs 8 --audit recovery \
  >/tmp/ibridge_ci_recovery_j8.txt 2>/dev/null
cmp goldens/recovery_smoke.txt /tmp/ibridge_ci_recovery_j8.txt

# Recovery matrix: the segmented-log maintenance experiment (compaction,
# indexed checkpoints, idle-window scheduling, O(dirty) restart) and the
# corruption matrix must reproduce their goldens under parallel jobs —
# maintenance runs inside the simulation, so a single reordered tick
# would show up as byte drift.
echo "== recovery-matrix: logmaint jobs identity (segmented log, O(dirty) restart)"
./target/release/expt --seed 7 --jobs 8 --audit logmaint \
  >/tmp/ibridge_ci_logmaint_j8.txt 2>/dev/null
cmp goldens/logmaint_smoke.txt /tmp/ibridge_ci_logmaint_j8.txt

echo "== mds-ha jobs identity (replicated metadata failover)"
./target/release/expt --seed 7 --jobs 8 --audit mds-ha \
  >/tmp/ibridge_ci_mds_j8.txt 2>/dev/null
cmp goldens/mds_smoke.txt /tmp/ibridge_ci_mds_j8.txt

echo "== trace-export determinism (fork-path merge, any --jobs)"
./target/release/expt --seed 7 --jobs 1 --trace-out /tmp/ibridge_ci_trace_j1.json fig3 \
  >/dev/null 2>&1
./target/release/expt --seed 7 --jobs 8 --trace-out /tmp/ibridge_ci_trace_j8.json fig3 \
  >/dev/null 2>&1
cmp /tmp/ibridge_ci_trace_j1.json /tmp/ibridge_ci_trace_j8.json
python3 -c "import json; d = json.load(open('/tmp/ibridge_ci_trace_j1.json')); assert d['traceEvents'], 'empty trace'"

echo "== alloc parity (obs feature on vs compiled out; counting allocator)"
# Absolute counts jitter by a few allocations per process, so the gate
# is extra allocations per simulated event < 0.001 — a real hot-path
# leak costs at least one allocation per event. Reports land in /tmp so
# the working tree stays clean.
cargo build --release -p ibridge-bench --features count-allocs
./target/release/expt --bench-report /tmp/ibridge_ci_bench_obs_on.json summary \
  >/dev/null 2>&1

echo "== bench-diff vs BENCH_pr7.json (rates annotate, allocs/event gates)"
# Fresh full-suite self-benchmark under the counting allocator, at the
# committed baseline's seed and jobs.
./target/release/expt --seed 42 --jobs 8 \
  --bench-report /tmp/ibridge_ci_bench_fresh.json all >/dev/null 2>&1
# Wall-clock rates are host-noisy (same-binary reruns drift by tens of
# percent on shared runners): print the comparison for review, never
# fail on it.
./scripts/bench-diff.sh BENCH_pr7.json /tmp/ibridge_ci_bench_fresh.json \
  || echo "bench-diff: rate drift is informational only (host noise)"
# allocs/event is deterministic, so it gates hard: +10% per experiment.
# --threshold 101 disables the rate gate (a rate regression is bounded
# at -100%), leaving allocs/event as the only failure condition.
./scripts/bench-diff.sh BENCH_pr7.json /tmp/ibridge_ci_bench_fresh.json \
  --threshold 101 --alloc-threshold 10 >/dev/null

cargo build --release -p ibridge-bench --no-default-features --features count-allocs
./target/release/expt --bench-report /tmp/ibridge_ci_bench_obs_off.json summary \
  >/dev/null 2>&1
on=$(sed -n 's/.*"allocs_jobs1": \([0-9]*\).*/\1/p' /tmp/ibridge_ci_bench_obs_on.json)
off=$(sed -n 's/.*"allocs_jobs1": \([0-9]*\).*/\1/p' /tmp/ibridge_ci_bench_obs_off.json)
ev=$(sed -n 's/.*"events_dispatched": \([0-9]*\).*/\1/p' /tmp/ibridge_ci_bench_obs_on.json)
echo "allocs: obs feature on = $on, compiled out = $off, events = $ev"
awk -v a="$on" -v b="$off" -v e="$ev" 'BEGIN {
  d = (a > b ? a - b : b - a) / e
  printf "extra allocations per event: %.6f\n", d
  exit (d < 0.001) ? 0 : 1
}'

# Restore the default build so a following `expt` run has obs available.
cargo build --release -p ibridge-bench
echo "CI OK"
