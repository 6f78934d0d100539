#!/usr/bin/env bash
# The blocking benchmark gate: run the traced set of the benchmark in
# e2e/ (four workloads, seed 1996, about a minute on two vCPUs) and
# compare it with the committed reference, results/e2e.traced.json.
#
# Every count-type metric (ids decoded, lists fetched, blocks decoded
# and skipped, candidates, DP cells, store bytes, write amplification,
# segments at end, ...) must repeat exactly: the traced run's work is
# deterministic, so the counts are the same on any machine. A metric
# missing from the new run is a breach too. Per-layer timings are
# printed and never judged. Exit 1 names each breach by workload and
# metric.
#
# A change that alters the work the engine does regenerates the
# reference, so that its diff names the counters that moved:
#
#   e2e/run.sh --traced && cp e2e/out/e2e.traced.json results/e2e.traced.json
set -euo pipefail
cd "$(dirname "$0")/.."

e2e/run.sh --traced
"${CARGO_TARGET_DIR:-e2e/target}/release/e2e" --compare results/e2e.traced.json e2e/out/e2e.traced.json
