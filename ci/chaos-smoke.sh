#!/usr/bin/env bash
# The chaos-smoke CI job: builds the CLI, then runs the fault-injection
# survival matrix on the simulator (twice, byte-identical) and on host
# atomics under a deadline. Run it from the repository root; it writes
# chaos_a.csv and chaos_b.csv there.
set -euo pipefail

cargo build --release -p armbar-cli

# Survival matrix on the simulator: deterministic, so two runs must match.
./target/release/armbar chaos --backend sim --threads 8 \
  --seed 0xC1 --out chaos_a.csv
./target/release/armbar chaos --backend sim --threads 8 \
  --seed 0xC1 --out chaos_b.csv
diff chaos_a.csv chaos_b.csv
cat chaos_a.csv

# Survivable scenarios must survive. (`! grep` would not trip `set -e`.)
if grep -E ',(straggler|latency|baseline),(detected|timed-out),' chaos_a.csv; then
  echo "a survivable scenario did not survive" >&2
  exit 1
fi

# Survival matrix on host atomics, deadline-guarded.
./target/release/armbar chaos --backend host --threads 4 \
  --platforms kunpeng --algos SENSE,DIS,MCS,TOUR,OPT \
  --deadline-ms 2000 --seed 0xC1
