#!/usr/bin/env bash
# The weak-smoke CI job: builds the CLI, runs the bounded weak-memory
# reordering search over all 14 algorithms and both phasers twice (at
# --jobs 2 and --jobs 1, byte-identical), checks that reorder budget 0 is
# byte-identical to the SC engine, and regenerates the fence reports. A
# violation makes `armbar conform` exit nonzero; the CSV it leaves behind
# carries the shrunk reproducer (seed + budget + rbudget + episodes). Run
# it from the repository root; it writes weak_{a,b}.csv, sc_{a,b}.csv,
# fence_probe.csv, fence_full_probe.csv, fences_ci.md and fences_full.md
# there and leaves results/ untouched.
set -euo pipefail

cargo build --release -p armbar-cli

# Bounded reordering search, all 14 algorithms + both phasers: --weak
# turns on the store-buffer model (reorder budget 64, p=0.8) and appends
# the phaser membership matrix.
./target/release/armbar conform --weak --seeds 300 \
  --schedule-seed 0xC0F1 --jobs 2 --out weak_a.csv
cat weak_a.csv

# The weak search must be deterministic at any worker count.
./target/release/armbar conform --weak --seeds 300 \
  --schedule-seed 0xC0F1 --jobs 1 --out weak_b.csv
diff weak_a.csv weak_b.csv

# Budget 0 must be byte-identical to the SC engine. Two legs: the
# committed golden-master fixtures pin engine event bytes with the weak
# machinery present but idle, and an explicit --reorder-budget 0 run must
# not perturb the SC conformance CSV.
cargo test -q --test golden_master
./target/release/armbar conform --seeds 200 \
  --schedule-seed 0xC0F0 --out sc_a.csv
./target/release/armbar conform --seeds 200 \
  --schedule-seed 0xC0F0 --reorder-budget 0 --out sc_b.csv
diff sc_a.csv sc_b.csv

# Fence placements must stay minimal under demotion probes: regenerates
# the fence-minimization table at a quick seed budget; every as-shipped
# cell must pass (nonzero exit otherwise).
./target/release/armbar conform --seeds 1 --fence-seeds 30 \
  --fence-report fences_ci.md --out fence_probe.csv
cat fences_ci.md

# The committed fence report must regenerate byte for byte.
./target/release/armbar conform --seeds 1 \
  --platforms phytium,thunderx2,kunpeng920 \
  --fence-report fences_full.md --out fence_full_probe.csv
diff results/FENCES.md fences_full.md
