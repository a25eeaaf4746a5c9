#!/usr/bin/env bash
# Compares two `expt --bench-report` JSON files (e.g. BENCH_pr2.json vs
# BENCH_pr6.json) and prints per-experiment events/sec and allocs/event
# deltas, so perf changes are reviewable numbers instead of two opaque
# blobs.
#
#   scripts/bench-diff.sh OLD.json NEW.json [--threshold PCT] [--alloc-threshold PCT]
#
# Exits non-zero if any experiment's jobs-1 events/sec regresses by more
# than PCT percent (default 10), or its allocs/event grows by more than
# the alloc threshold (defaults to the rate threshold). Experiments that
# dispatch no events (pure table renders, rate = null) are listed but
# never gate, as are null alloc/rate fields on either side. Wall-clock
# rates are host-noisy — on a shared 1-CPU box same-binary reruns drift
# by tens of percent — so pick a rate threshold that matches measured
# host drift; allocs/event is deterministic and can stay tight.
#
# Missing or unparsable reports, an empty comparable-experiment
# intersection, and an explicit --alloc-threshold against a report with
# no alloc data all fail loudly (exit 2) instead of passing vacuously.
set -euo pipefail

threshold=10
alloc_threshold=""
files=()
while [ $# -gt 0 ]; do
  case "$1" in
    --threshold)
      shift
      [ $# -gt 0 ] || { echo "bench-diff: --threshold needs a value" >&2; exit 2; }
      threshold="$1"
      ;;
    --alloc-threshold)
      shift
      [ $# -gt 0 ] || { echo "bench-diff: --alloc-threshold needs a value" >&2; exit 2; }
      alloc_threshold="$1"
      ;;
    -h|--help)
      sed -n '2,21p' "$0" | sed 's/^# \{0,1\}//'
      exit 0
      ;;
    -*)
      echo "bench-diff: unknown flag $1" >&2
      exit 2
      ;;
    *)
      files+=("$1")
      ;;
  esac
  shift
done
[ "${#files[@]}" -eq 2 ] || {
  echo "usage: bench-diff.sh OLD.json NEW.json [--threshold PCT] [--alloc-threshold PCT]" >&2
  exit 2
}

OLD="${files[0]}" NEW="${files[1]}" THRESHOLD="$threshold" \
ALLOC_THRESHOLD="${alloc_threshold:-$threshold}" \
ALLOC_GATE="${alloc_threshold:+1}" python3 - <<'PY'
import json, os, sys

old_path, new_path = os.environ["OLD"], os.environ["NEW"]
threshold = float(os.environ["THRESHOLD"])
alloc_threshold = float(os.environ["ALLOC_THRESHOLD"])
# Set when --alloc-threshold was passed explicitly: the caller asked for
# an alloc gate, so a report that cannot be gated is an error, not a
# silent pass.
alloc_gate = os.environ.get("ALLOC_GATE") == "1"

def die(msg):
    print(f"bench-diff: {msg}", file=sys.stderr)
    sys.exit(2)

def load(path):
    # A comparison against a missing or garbage report must fail
    # loudly: CI once piped a bad path here and shipped on the green.
    try:
        with open(path) as f:
            report = json.load(f)
    except OSError as e:
        die(f"cannot read {path}: {e}")
    except json.JSONDecodeError as e:
        die(f"{path} is not valid JSON: {e}")
    exps = report.get("experiments")
    if not isinstance(exps, list) or not all(
        isinstance(e, dict) and "name" in e for e in exps
    ):
        die(f"{path} is not a bench report: missing 'experiments' list")
    return {e["name"]: e for e in exps}, report

old, old_rep = load(old_path)
new, new_rep = load(new_path)

def rate(e):
    # Older reports only carry the jobs-1 rate; either way the jobs-1
    # figure is the comparable one (same parallelism on both sides).
    # Zero-event experiments (pure table renders) carry an explicit
    # null, and pre-PR2 reports omit the key entirely — both read as
    # None and are listed without gating.
    r = e.get("events_per_sec_jobs1")
    return r if r is not None else e.get("events_per_sec")

def allocs(e):
    return e.get("allocs_per_event")

def fmt(x, unit=""):
    if x is None:
        return "-"
    return f"{x:,.0f}{unit}" if x >= 100 else f"{x:.3f}{unit}"

def delta(a, b):
    if a is None or b is None or a == 0:
        return None
    return (b / a - 1.0) * 100.0

names = [n for n in old if n in new]
missing = [n for n in old if n not in new] + [n for n in new if n not in old]
if not names:
    die(f"no experiment appears in both reports "
        f"({old_path}: {len(old)}, {new_path}: {len(new)}) — nothing to gate")
if alloc_gate and all(new[n].get("allocs_per_event") is None for n in names):
    die(f"--alloc-threshold given but {new_path} carries no allocs_per_event "
        f"(build the new report with --features count-allocs)")

w = max((len(n) for n in names), default=4)
print(f"{old_path} -> {new_path}  "
      f"(gate: rate ±{threshold:g}%, allocs +{alloc_threshold:g}%)")
print(f"{'name':{w}}  {'ev/s old':>12} {'ev/s new':>12} {'Δ':>8}   "
      f"{'alloc/ev old':>12} {'alloc/ev new':>12} {'Δ':>8}")
failures = []
for n in names:
    r0, r1 = rate(old[n]), rate(new[n])
    a0, a1 = allocs(old[n]), allocs(new[n])
    dr, da = delta(r0, r1), delta(a0, a1)
    mark = ""
    if dr is not None and dr < -threshold:
        failures.append(f"{n}: events/sec regressed {dr:+.1f}%")
        mark = "  << rate"
    if da is not None and da > alloc_threshold:
        failures.append(f"{n}: allocs/event grew {da:+.1f}%")
        mark += "  << allocs"
    print(f"{n:{w}}  {fmt(r0):>12} {fmt(r1):>12} "
          f"{('%+.1f%%' % dr) if dr is not None else '-':>8}   "
          f"{fmt(a0):>12} {fmt(a1):>12} "
          f"{('%+.1f%%' % da) if da is not None else '-':>8}{mark}")
for n in missing:
    print(f"{n:{w}}  (only in one report)")

t0, t1 = old_rep.get("events_per_sec"), new_rep.get("events_per_sec")
dt = delta(t0, t1)
if dt is not None:
    print(f"\nsuite: {fmt(t0)} -> {fmt(t1)} ev/s ({dt:+.1f}%), "
          f"events {old_rep.get('events_dispatched')} -> {new_rep.get('events_dispatched')}")

if failures:
    print(f"\n{len(failures)} regression(s) beyond the gate:", file=sys.stderr)
    for f in failures:
        print(f"  {f}", file=sys.stderr)
    sys.exit(1)
print("\nbench-diff OK")
PY
