#!/usr/bin/env bash
# Prints each benchmark workload's simulated-behaviour digest at seed 42.
#
#   scripts/ibench-digests.sh
#
# Builds the benchmark package (ibench/, release, offline, locked) and
# runs every workload for 1 s with tracing off, printing one line per
# workload: its name and the "first timed pass RunStats digest" line
# ibench prints. The digest hashes the whole RunStats Debug text
# (CacheStats and MaintStats included), and the first sim_passes passes
# always run, so the time budget never moves it. goldens/ibench_digests.txt
# pins the output: a host-only change that moves a policy decision shows
# here before the benchmark runs.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --quiet --locked --offline --manifest-path ibench/Cargo.toml

for w in btio-small-ssd stock-stream ibridge-warm-read hetero-pdes; do
  line="$(./ibench/target/release/ibench --workload "$w" --seed 42 --seconds 1 --trace 0 \
    2>/dev/null | sed -n 's/^ *\(first timed pass RunStats digest .*\)$/\1/p')"
  if [ -z "$line" ]; then
    echo "ibench-digests: no digest line for $w" >&2
    exit 1
  fi
  echo "$w $line"
done
