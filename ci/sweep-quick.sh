#!/usr/bin/env bash
# The sweep-quick CI job: builds the experiments driver, regenerates the
# quick-scale experiment tables at --jobs 2 and --jobs 1 and requires them
# byte-identical, then checks that --only writes exactly its suites'
# files with the same bytes. Run it from the repository root; it writes
# results_j1/, results_j2/, results_only/ and only_files.txt there and
# leaves results/ untouched.
set -euo pipefail

cargo build --release -p armbar-experiments --bin all_experiments

# Quick-scale regeneration, parallel vs serial.
./target/release/all_experiments --quick --jobs 2 --out results_j2
./target/release/all_experiments --quick --jobs 1 --out results_j1

# Output must be byte-identical at any worker count.
diff -r results_j1 results_j2
ls results_j2/*.csv | head

# --only must write exactly its suites' files, byte for byte.
./target/release/all_experiments --quick --only fig05,churn \
  --out results_only
ls results_only > only_files.txt
ls results_j1 | grep -E '^(fig05|churn)_[0-9]+\.csv$' | diff - only_files.txt
for f in results_only/*.csv; do
  diff "$f" "results_j1/$(basename "$f")"
done
