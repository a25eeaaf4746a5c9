#!/usr/bin/env bash
# Observability must cost nothing when it is off. Compares two
# `expt --bench-report` ledgers of the same experiments: ON from a
# count-allocs build with the obs feature compiled in (its flags off),
# OFF from one built with --no-default-features, which compiles every
# instrumentation site out.
#
#   scripts/alloc-parity.sh ON.json OFF.json
#
# Passes when both ran the same simulator events and their suite
# allocation counts differ by less than 0.001 per event: a leak in the
# hot path costs at least one allocation per event. Exits 1 otherwise,
# and 2 on a file that is not a ledger.
set -euo pipefail

[ $# -eq 2 ] || {
  echo "usage: alloc-parity.sh ON.json OFF.json" >&2
  exit 2
}

ON="$1" OFF="$2" python3 - <<'PY'
import json, os, sys

def suite(path):
    try:
        with open(path) as f:
            s = json.load(f)["suite"]
        return s["allocs"], s["events"]
    except (OSError, ValueError, KeyError, TypeError) as e:
        print(f"alloc-parity: {path} is not a bench ledger: {e!r}", file=sys.stderr)
        sys.exit(2)

on, ev = suite(os.environ["ON"])
off, ev_off = suite(os.environ["OFF"])
print(f"allocs: obs feature on = {on}, compiled out = {off}, events = {ev}")
if ev != ev_off or ev == 0:
    print(f"alloc-parity: event counts differ or are zero ({ev} vs {ev_off})",
          file=sys.stderr)
    sys.exit(1)
d = abs(on - off) / ev
print(f"extra allocations per event: {d:.6f}")
sys.exit(0 if d < 0.001 else 1)
PY
