#!/usr/bin/env bash
# runset.sh — one set of runs: every workload, untraced, on COUNT seeds
# starting at FIRST, each run's full result appended to OUT as one JSON line.
# Two sets are what `bash bench/run.sh -check A B` compares.
#
#   bash bench/runset.sh A.ndjson            # seeds 1..10
#   bash bench/runset.sh B.ndjson 42 1       # seed 42 only
#   TRACE=1 bash bench/runset.sh T.ndjson 42 1
set -euo pipefail
out="${1:?usage: runset.sh OUT [FIRST_SEED] [COUNT]}"
first="${2:-1}"
count="${3:-10}"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
for workload in paper_suite wan_trial trial_churn serve_sweep; do
    for ((seed = first; seed < first + count; seed++)); do
        bash "$here/run.sh" --workload "$workload" --seed "$seed" --seconds "${SECONDS_PER_RUN:-20}" \
            --trace "${TRACE:-0}" -out "$out" | tail -n 1
    done
done
