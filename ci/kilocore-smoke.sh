#!/usr/bin/env bash
# The kilocore-smoke CI job: builds the CLI and the experiments driver,
# then runs the MemPool presets end to end. Run it from the repository
# root; it writes kilocore_j{1,2}.txt, kc_full/ and kc_quick/ there and
# leaves results/ untouched.
set -euo pipefail

cargo build --release -p armbar-cli
cargo build --release -p armbar-experiments --bin all_experiments

# Every default algorithm at P in {256, 1024} on the hierarchical
# MemPool-1024 preset. Cells above an algorithm's simulability bound read
# as skipped; the table (stdout) must be byte-identical at any worker count.
./target/release/armbar sweep mempool1024 --threads 256,1024 \
  --jobs 2 | tee kilocore_j2.txt
./target/release/armbar sweep mempool1024 --threads 256,1024 \
  --jobs 1 > kilocore_j1.txt
diff kilocore_j1.txt kilocore_j2.txt

# The full-scale kilocore tables must match the committed ones. The
# contender storms are largest at full scale (SHY-CTR and SHY-PROXY at
# P = 256), so this pins the stall-run batching there.
./target/release/all_experiments --only kilocore --jobs 2 --out kc_full
diff results/kilocore_0.csv kc_full/kilocore_0.csv
diff results/kilocore_1.csv kc_full/kilocore_1.csv

# Quick regeneration of both MemPool presets' tables.
./target/release/all_experiments --quick --only kilocore --out kc_quick
ls kc_quick/kilocore_*.csv
