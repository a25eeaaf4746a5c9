#!/usr/bin/env bash
# Prints the repository's Rust line counts, split into non-test and test
# lines, so a change's net line count is one run on each of two
# checkouts:
#
#   scripts/loc.sh [DIR]        # DIR defaults to the repository root
#
# Counts every `.rs` file under DIR except those under `target/` or
# `ibench/` (the benchmark package is pinned separately). Test lines are
# files under a `tests/` directory, `reference.rs` oracles, out-of-line
# `#[cfg(test)] mod tests;` files (`tests.rs`), and each file's
# `#[cfg(test)] mod tests { ... }` tail, from its attribute line to the
# end of the file. Everything else is non-test. Informational, not a gate.
set -euo pipefail

dir="${1:-$(dirname "$0")/..}"
cd "$dir"

mapfile -t files < <(find . \( -path ./ibench -o -name target \) -prune -o \
  -name '*.rs' -type f -print | LC_ALL=C sort)
awk '
  FNR == 1 {
    test_file = (FILENAME ~ /\/tests\// || FILENAME ~ /\/reference\.rs$/ \
                 || FILENAME ~ /\/tests\.rs$/)
    tail = 0
    pending = 0
  }
  {
    if (!test_file && !tail) {
      # A `#[cfg(test)]` line followed by `mod tests {` opens the tail.
      if (pending && $0 ~ /^mod tests \{/) {
        tail = 1
        nontest--
        tst++
      }
      pending = ($0 ~ /^#\[cfg\(test\)\]$/)
    }
    if (test_file || tail) tst++; else nontest++
  }
  END {
    printf "non-test Rust: %d\n", nontest
    printf "test Rust:     %d\n", tst
    printf "all Rust:      %d\n", nontest + tst
  }' "${files[@]}"
