#!/usr/bin/env bash
# A/B host-time comparison of a git revision against the working tree.
#
#   scripts/ibench-ab.sh REV [SEED...]
#
# Extracts REV with `git archive` into a temp dir, builds REV's ibench
# and the working tree's (release, offline, each into its own target
# dir under the temp dir) and runs `ibench ab OLD NEW --pairs 10` on
# every workload at each seed: 42 and the held-out 7 by default, at
# ibench's default 20 s per run. Prints ab's tables on stdout and its
# progress on stderr, and removes the temp dir on exit. Leaves ibench/,
# its target dir and BENCHMARK.json untouched.
#
# Four workloads x 10 pairs x 2 sides x 20 s is about half an hour per
# seed. Run it on an otherwise idle host: ab alternates which side goes
# first, but a busy host widens both sides' spreads.
set -euo pipefail

if [ "$#" -lt 1 ] || [ "${1#-}" != "$1" ]; then
  echo "usage: scripts/ibench-ab.sh REV [SEED...]" >&2
  exit 2
fi
rev="$1"
shift
seeds=("$@")
[ "${#seeds[@]}" -gt 0 ] || seeds=(42 7)

root="$(cd "$(dirname "$0")/.." && pwd)"
git -C "$root" rev-parse --verify --quiet "$rev^{commit}" >/dev/null || {
  echo "ibench-ab: unknown revision '$rev'" >&2
  exit 2
}

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/src"
git -C "$root" archive "$rev" | tar -x -C "$tmp/src"

build() { # SRC_DIR TARGET_DIR
  echo "ibench-ab: building $1" >&2
  CARGO_TARGET_DIR="$2" cargo build --release --quiet --locked --offline \
    --manifest-path "$1/ibench/Cargo.toml"
}
build "$tmp/src" "$tmp/target-old"
build "$root" "$tmp/target-new"
old="$tmp/target-old/release/ibench"
new="$tmp/target-new/release/ibench"

echo "# ibench ab: old = $rev ($(git -C "$root" rev-parse --short "$rev")), new = working tree"
for seed in "${seeds[@]}"; do
  "$old" ab "$old" "$new" --pairs 10 --workload all --seed "$seed"
done
