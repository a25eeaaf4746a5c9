#!/usr/bin/env bash
# Regenerates every golden under goldens/ from a release build.
#
# Goldens are byte-exact determinism gates: the simulation is virtual-time
# only, so their content cannot depend on the host, worker count or wall
# clock. Regenerate them only when an intended behaviour change shifts
# simulated output, and review the diff before committing.
#
# Set OUT to write elsewhere (scripts/check-goldens.sh uses a temp dir).
set -euo pipefail
cd "$(dirname "$0")/.."
OUT="${OUT:-goldens}"
mkdir -p "$OUT"

cargo build --release -q -p ibridge-bench

./target/release/calbench > "$OUT/calbench.txt"
./target/release/expt all > "$OUT/expt_all.txt" 2>/dev/null
./target/release/expt --seed 7 --audit --fault-plan chaos faults \
  > "$OUT/faults_smoke.txt" 2>/dev/null
./target/release/expt --seed 7 --audit recovery \
  > "$OUT/recovery_smoke.txt" 2>/dev/null
./target/release/expt --seed 7 --audit logmaint \
  > "$OUT/logmaint_smoke.txt" 2>/dev/null
./target/release/expt --seed 7 --jobs 8 --metrics summary \
  > "$OUT/obs_smoke.txt" 2>/dev/null
./scripts/ibench-digests.sh > "$OUT/ibench_digests.txt"

echo "goldens written to $OUT/"
