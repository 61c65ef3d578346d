#!/usr/bin/env bash
# The serve-smoke CI job: builds the CLI and the load bench, serves the
# same seeded tenant load at one and four shards (the outcome tables must
# be byte-identical and match the committed results/serve_s1.csv), checks
# the wake-up accounting and that dropped connections degrade their team
# without poisoning it, then runs the informational load driver. Run it
# from the repository root; it writes serve_s{1,4}.{csv,txt} and
# serve_bench.json there and leaves the committed files untouched.
set -euo pipefail

cargo build --release -p armbar-cli
cargo build --release -p armbar-bench --bin bench_serve

# Tenant outcomes must be byte-identical at any shard count: the table has
# no shard or timing columns.
./target/release/armbar serve --teams 2000 --episodes 200000 \
  --seed 0xBA5E --shards 1 --out serve_s1.csv 2> serve_s1.txt
./target/release/armbar serve --teams 2000 --episodes 200000 \
  --seed 0xBA5E --shards 4 --jobs 2 --out serve_s4.csv 2> serve_s4.txt
diff serve_s1.csv serve_s4.csv
head -5 serve_s1.csv

# Every commit is one broadcast, elision or coalesced flush. `elided` is
# derived (a shard's commits minus its counted flushes), so a derivation
# that drifts moves this sum: 200000 episodes plus one drain commit for
# each of the 2000 teams.
for log in serve_s1.txt serve_s4.txt; do
  cat "$log"
  sum=$(sed -n 's/^wakeups: \([0-9]*\) broadcast, \([0-9]*\) elided.*, \([0-9]*\) coalesced;.*/\1 + \2 + \3/p' "$log")
  echo "$log: $sum = $(( sum ))"
  test "$(( sum ))" -eq 202000
done

# Tenant outcomes must match the committed full-scale table, so a change
# to the team protocol that moves any team's counts or status fails here.
diff results/serve_s1.csv serve_s1.csv

# Dropped connections must degrade their team, never hang or poison it.
# (`! grep` would not trip `set -e`.)
grep -c ',degraded$' serve_s1.csv
if grep ',poisoned$' serve_s1.csv; then
  echo "a dropped connection poisoned its team" >&2
  exit 1
fi

# Load driver (informational throughput, never gated): a quick seeded run
# whose delta table is taken against a copy of the committed
# BENCH_serve.json, appended to the step summary when there is one.
cp BENCH_serve.json serve_bench.json
./target/release/bench_serve --quick --out serve_bench.json \
  ${GITHUB_STEP_SUMMARY:+--summary "$GITHUB_STEP_SUMMARY"}
