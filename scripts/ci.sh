#!/usr/bin/env bash
# Local mirror of .github/workflows/ci.yml — run before pushing.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check"
cargo fmt --check

echo "== cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# The root package asks for obs on the crates below it, so the obs-off
# lint leaves it out.
echo "== cargo clippy -D warnings, obs compiled out"
cargo clippy --workspace --exclude ibridge-repro --all-targets --no-default-features -- -D warnings

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

# The benchmark workloads' simulated behaviour, pinned: each workload's
# first-timed-pass RunStats digest at seed 42 (a release ibench build).
# A host-only change that moves a policy decision fails here, before the
# benchmark runs.
echo "== ibench digests vs goldens/ibench_digests.txt"
./scripts/ibench-digests.sh >/tmp/ibridge_ci_ibench_digests.txt
cmp goldens/ibench_digests.txt /tmp/ibridge_ci_ibench_digests.txt

# The goldens step below regenerates goldens/expt_all.txt at the default
# jobs level, and the ledger step runs `all` again at --jobs 1.
echo "== expt --jobs 4 all vs goldens/expt_all.txt"
./target/release/expt --jobs 4 all >/tmp/ibridge_ci_j4.txt 2>/dev/null
cmp goldens/expt_all.txt /tmp/ibridge_ci_j4.txt

echo "== goldens (expt all, calbench, fault/recovery/logmaint smokes, obs metrics)"
./scripts/check-goldens.sh

# The goldens step just regenerated the jobs-1 fault/recovery/logmaint
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

echo "== trace-export determinism (fork-path merge, any --jobs)"
./target/release/expt --seed 7 --jobs 1 --trace-out /tmp/ibridge_ci_trace_j1.json fig3 \
  >/dev/null 2>&1
./target/release/expt --seed 7 --jobs 8 --trace-out /tmp/ibridge_ci_trace_j8.json fig3 \
  >/dev/null 2>&1
cmp /tmp/ibridge_ci_trace_j1.json /tmp/ibridge_ci_trace_j8.json
python3 -c "import json; d = json.load(open('/tmp/ibridge_ci_trace_j1.json')); assert d['traceEvents'], 'empty trace'"

# `--bench-report` writes a ledger of deterministic work (events and heap
# allocations per experiment) from one --jobs 1 pass of a count-allocs
# build, so two runs must write the same bytes.
echo "== bench ledger determinism"
cargo build --release -p ibridge-bench --features count-allocs
./target/release/expt --bench-report /tmp/ibridge_ci_bench_a.json summary >/dev/null 2>&1
./target/release/expt --bench-report /tmp/ibridge_ci_bench_b.json summary >/dev/null 2>&1
cmp /tmp/ibridge_ci_bench_a.json /tmp/ibridge_ci_bench_b.json

# allocs/event is deterministic, so it gates at +2 % per experiment
# against the committed full-suite baseline. This pass's stdout is
# `expt all` at --jobs 1, so it must match the golden too.
echo "== bench-diff allocs/event gate vs BENCH_baseline.json"
./target/release/expt --bench-report /tmp/ibridge_ci_bench_fresh.json all \
  >/tmp/ibridge_ci_j1.txt 2>/dev/null
cmp goldens/expt_all.txt /tmp/ibridge_ci_j1.txt
./scripts/bench-diff.sh BENCH_baseline.json /tmp/ibridge_ci_bench_fresh.json

echo "== bench-diff gate self-test (+3 % in one experiment; not a ledger)"
python3 - BENCH_baseline.json /tmp/ibridge_ci_bench_raised.json <<'PY'
import json, sys
r = json.load(open(sys.argv[1]))
e = next(e for e in r["experiments"] if e["name"] == "fig11")
e["allocs_per_event"] *= 1.03
json.dump(r, open(sys.argv[2], "w"))
PY
rc=0
./scripts/bench-diff.sh BENCH_baseline.json /tmp/ibridge_ci_bench_raised.json \
  >/dev/null 2>&1 || rc=$?
[ "$rc" -eq 1 ] || { echo "bench-diff missed a 3 % rise (exit $rc)" >&2; exit 1; }
echo '{"seed": 42}' >/tmp/ibridge_ci_bench_not_a_ledger.json
rc=0
./scripts/bench-diff.sh BENCH_baseline.json /tmp/ibridge_ci_bench_not_a_ledger.json \
  >/dev/null 2>&1 || rc=$?
[ "$rc" -eq 2 ] || { echo "bench-diff accepted a non-ledger (exit $rc)" >&2; exit 1; }

echo "== alloc parity (obs feature on vs compiled out; counting allocator)"
cargo build --release -p ibridge-bench --no-default-features --features count-allocs
./target/release/expt --bench-report /tmp/ibridge_ci_bench_obs_off.json summary \
  >/dev/null 2>&1
./scripts/alloc-parity.sh /tmp/ibridge_ci_bench_a.json /tmp/ibridge_ci_bench_obs_off.json

# Restore the default build so a following `expt` run has obs available.
cargo build --release -p ibridge-bench
echo "CI OK"
