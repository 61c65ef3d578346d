#!/usr/bin/env bash
# The crossover-smoke CI job: builds the CLI and the experiments driver,
# regenerates the quick crossover tables at --jobs 1 and 2 (byte-identical),
# checks that the model's crossover lands within one sweep step of the
# simulator's on all three ARM platforms, and explores the contender
# barriers' schedules. Run it from the repository root; it writes
# crossover_j1/ and crossover_j2/ there and leaves results/ untouched.
set -euo pipefail

cargo build --release -p armbar-cli
cargo build --release -p armbar-experiments --bin all_experiments

# Every sweep point is a pure function of (topology, seed, program), so
# the curve CSVs and the model-vs-sim summary must not depend on how the
# sweep pool is sharded.
./target/release/all_experiments --quick --only crossover \
  --jobs 1 --out crossover_j1
./target/release/all_experiments --quick --only crossover \
  --jobs 2 --out crossover_j2
diff -r crossover_j1 crossover_j2

# The summary table's last column is the per-platform verdict; all three
# ARM platforms must read "yes" (DESIGN.md §17). (`! grep` would not trip
# `set -e`.)
cat crossover_j1/crossover_3.csv
if grep ',no$' crossover_j1/crossover_3.csv; then
  echo "a model crossover missed the simulator's by more than one step" >&2
  exit 1
fi
test "$(grep -c ',yes$' crossover_j1/crossover_3.csv)" = 3

# Conformance smoke over the contender barriers: SHY-CTR reuse safety
# (round_up exit) and SHY-PROXY slot accounting under 1200 distinct
# schedules per cell.
./target/release/armbar conform --quick --algos SHY-CTR,SHY-PROXY
