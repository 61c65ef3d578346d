#!/usr/bin/env bash
# The churn-smoke CI job: builds the CLI, runs the membership-churn matrix
# on the simulator (byte-identical at --jobs 2 and 1) and on host atomics
# under a deadline — a crash-evict scenario must degrade its team, never
# poison it — then explores register/deregister interleavings of both
# phasers. A violation makes `armbar conform` exit nonzero; the CSV it
# leaves behind carries the shrunk reproducer. Run it from the repository
# root; it writes churn_{a,b,host}.csv and conform_phasers.csv there.
set -euo pipefail

cargo build --release -p armbar-cli

# Churn matrix (sim): deterministic at any worker count.
./target/release/armbar chaos --churn --threads 16 --seed 0xC2 \
  --jobs 2 --out churn_a.csv
./target/release/armbar chaos --churn --threads 16 --seed 0xC2 \
  --jobs 1 --out churn_b.csv
diff churn_a.csv churn_b.csv
cat churn_a.csv

# Crash-evict must degrade, never poison. (`! grep` would not trip
# `set -e`.)
grep -E ',crash-evict,degraded,' churn_a.csv
if grep -E ',poisoned,' churn_a.csv; then
  echo "a churn scenario poisoned its team" >&2
  exit 1
fi

# Churn matrix (host): deadline-guarded, eviction must not hang.
./target/release/armbar chaos --churn --backend host --threads 16 \
  --seed 0xC2 --out churn_host.csv
cat churn_host.csv
grep -E ',crash-evict,degraded,' churn_host.csv
if grep -E ',poisoned,' churn_host.csv; then
  echo "a host churn scenario poisoned its team" >&2
  exit 1
fi

# Membership conformance: 800 explored schedules per (phaser, scenario)
# cell.
./target/release/armbar conform --phasers --seeds 800 \
  --out conform_phasers.csv
cat conform_phasers.csv
