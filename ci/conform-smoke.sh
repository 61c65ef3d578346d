#!/usr/bin/env bash
# The conform-smoke CI job: builds the CLI, then explores schedules of
# every default algorithm (quick seed budget) twice, at the ambient worker
# count and at --jobs 1, and requires byte-identical tables. A violation
# makes `armbar conform` exit nonzero; the CSV it leaves behind carries
# the shrunk minimal-schedule reproducer (seed + budget + episodes). Run
# it from the repository root; it writes conform_a.csv and conform_b.csv
# there.
set -euo pipefail

cargo build --release -p armbar-cli

./target/release/armbar conform --seeds 200 \
  --schedule-seed 0xC0F0 --out conform_a.csv
cat conform_a.csv

# Exploration must be deterministic at any worker count.
./target/release/armbar conform --seeds 200 \
  --schedule-seed 0xC0F0 --jobs 1 --out conform_b.csv
diff conform_a.csv conform_b.csv
