#!/usr/bin/env bash
# Gates allocations per simulated event: compares a fresh
# `expt --bench-report` ledger against a baseline ledger (normally the
# committed BENCH_baseline.json), experiment by experiment.
#
#   scripts/bench-diff.sh BASELINE.json NEW.json
#
# Exits 1 if any experiment's allocs/event in NEW exceeds the baseline's
# by more than 2 %, or if NEW has an experiment the baseline lacks
# (regenerate the baseline to gate it). The ledgers count deterministic
# work, so two runs of one build agree exactly and the bound can be
# tight. Experiments that dispatch no events (allocs_per_event null) are
# listed but never gate; experiments only in the baseline (a run of a
# subset) are listed too.
#
# Exits 2 on a missing or unparsable file, a file with no `experiments`
# list, ledgers of different seeds, or no gated experiment in common.
set -euo pipefail

[ $# -eq 2 ] || {
  echo "usage: bench-diff.sh BASELINE.json NEW.json" >&2
  exit 2
}

OLD="$1" NEW="$2" python3 - <<'PY'
import json, os, sys

BOUND_PCT = 2.0
old_path, new_path = os.environ["OLD"], os.environ["NEW"]

def die(msg):
    print(f"bench-diff: {msg}", file=sys.stderr)
    sys.exit(2)

def load(path):
    try:
        with open(path) as f:
            report = json.load(f)
    except OSError as e:
        die(f"cannot read {path}: {e}")
    except json.JSONDecodeError as e:
        die(f"{path} is not valid JSON: {e}")
    exps = report.get("experiments") if isinstance(report, dict) else None
    if not isinstance(exps, list) or not all(
        isinstance(e, dict) and "name" in e for e in exps
    ):
        die(f"{path} is not a bench ledger: missing 'experiments' list")
    return report.get("seed"), {e["name"]: e for e in exps}

old_seed, old = load(old_path)
new_seed, new = load(new_path)
if old_seed != new_seed:
    die(f"seeds differ ({old_path}: {old_seed}, {new_path}: {new_seed})")
names = [n for n in new if n in old]
if not any(old[n].get("allocs_per_event") is not None
           and new[n].get("allocs_per_event") is not None for n in names):
    die(f"no experiment with allocs/event appears in both ledgers "
        f"({old_path}: {len(old)}, {new_path}: {len(new)}) — nothing to gate")

def fmt(x):
    return "-" if x is None else f"{x:.6f}"

w = max(len(n) for n in list(old) + list(new))
print(f"{old_path} -> {new_path}  (seed {new_seed}; gate: allocs/event +{BOUND_PCT:g}%)")
print(f"{'name':{w}}  {'alloc/ev old':>12} {'alloc/ev new':>12} {'Δ':>8}")
failures = []
for n in names:
    a0, a1 = old[n].get("allocs_per_event"), new[n].get("allocs_per_event")
    d = None if a0 is None or a1 is None or a0 == 0 else (a1 / a0 - 1.0) * 100.0
    mark = ""
    if d is not None and d > BOUND_PCT:
        failures.append(f"{n}: allocs/event {fmt(a0)} -> {fmt(a1)}")
        mark = "  << allocs"
    print(f"{n:{w}}  {fmt(a0):>12} {fmt(a1):>12} "
          f"{'-' if d is None else f'{d:+.1f}%':>8}{mark}")
for n in old:
    if n not in new:
        print(f"{n:{w}}  (only in the baseline)")
for n in new:
    if n not in old:
        print(f"{n:{w}}  (not in the baseline)")
        failures.append(f"{n}: not in the baseline, so nothing gates it")

if failures:
    print(f"\n{len(failures)} failure(s):", file=sys.stderr)
    for f in failures:
        print(f"  {f}", file=sys.stderr)
    sys.exit(1)
print("\nbench-diff OK")
PY
