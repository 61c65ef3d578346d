#!/usr/bin/env bash
# The kilocore-smoke CI job: builds the CLI and the experiments driver,
# then runs the MemPool presets end to end and checks every full-scale
# suite against the committed results. Run it from the repository root;
# it writes kilocore_j{1,2}.txt, kc_full.txt, kc_full/ and kc_quick/ there
# and leaves results/ untouched.
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

# Every full-scale suite must reproduce the committed results: the
# report and each committed CSV (serve_s1.csv belongs to serve-smoke). The
# contender storms are largest at full scale (SHY-CTR and SHY-PROXY at
# P = 256 in the kilocore tables), so this also pins the stall-run
# batching there.
./target/release/all_experiments --jobs 2 --out kc_full > kc_full.txt
diff results/all_experiments.txt kc_full.txt
for committed in results/*.csv; do
  name=$(basename "$committed")
  if [ "$name" = serve_s1.csv ]; then
    continue
  fi
  diff "$committed" "kc_full/$name"
done

# Quick regeneration of both MemPool presets' tables.
./target/release/all_experiments --quick --only kilocore --out kc_quick
ls kc_quick/kilocore_*.csv
