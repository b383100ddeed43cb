#!/usr/bin/env bash
# A/A check: run the whole suite twice on the same commit and compare the two
# result files against the bounds in BENCHMARK.json. Exits non-zero if any
# (workload, end-to-end metric) pair is worse than its bound. The two files
# are the committed baseline.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
reps="${REPS:-5}"
seed="${SEED:-42}"
cd "$root"
for i in 1 2; do
	bash bench/run.sh -seed "$seed" -reps "$reps" -out "bench/baseline/aa-$i.json"
done
bash bench/run.sh -compare bench/baseline/aa-1.json bench/baseline/aa-2.json
