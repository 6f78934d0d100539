#!/usr/bin/env bash
# Run the benchmark by hand: build once, then the four workloads one
# after another, each in its own process and never two at a time (the
# host has two processors and the workloads use up to two threads).
#
#   e2e/run.sh              timed set    -> e2e/out/e2e.json
#   e2e/run.sh --traced     traced set   -> e2e/out/e2e.traced.json
#   e2e/run.sh --aa         two timed sets, compared against the bounds
#   e2e/run.sh --aa --traced   two traced sets, counts compared exactly
#   e2e/run.sh --smoke      small corpus, 2 s, timed and traced: does
#                           every metric come out?
#   e2e/run.sh --baseline   timed + traced set -> e2e/baseline.json
#   e2e/run.sh --test       the harness's own unit tests
#
# --seed N and --seconds S override the defaults (1996, and run_seconds
# of BENCHMARK.json). The pipeline does not use this script: it runs the
# `command` of BENCHMARK.json once per workload and run.
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."
workloads=(family_fine screen_coarse serve_sharded live_mixed)
seed=1996
seconds=$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)
mode=set
trace=0
extra=()
while [ $# -gt 0 ]; do
  case "$1" in
    --aa) mode=aa ;;
    --traced) trace=1 ;;
    --smoke) mode=smoke; extra=(--smoke); seconds=2 ;;
    --baseline) mode=baseline ;;
    --test) mode=test ;;
    --seed) seed=$2; shift ;;
    --seconds) seconds=$2; shift ;;
    *) echo "unknown argument $1" >&2; exit 2 ;;
  esac
  shift
done

if [ "$mode" = test ]; then
  exec cargo test --release --offline --manifest-path e2e/Cargo.toml
fi

cargo build --release --offline --manifest-path e2e/Cargo.toml
bin="${CARGO_TARGET_DIR:-e2e/target}/release/e2e"
out=e2e/out
mkdir -p "$out"

# run_set <trace 0|1> <merged document>
run_set() {
  local captured=()
  for w in "${workloads[@]}"; do
    local file="$out/$w.trace$1.txt"
    "$bin" --workload "$w" --seed "$seed" --seconds "$seconds" --trace "$1" \
      "${extra[@]}" | tee "$file" | grep -v -e '^{' -e '^extras '
    captured+=("$file")
  done
  "$bin" --merge "nproc=$(nproc)" "rustc=$(rustc --version)" "seed=$seed" \
    "seconds=$seconds" "trace=$1" "${captured[@]}" > "$2"
  echo "wrote $2"
}

case "$mode" in
  set)
    if [ "$trace" = 1 ]; then run_set 1 "$out/e2e.traced.json"; else run_set 0 "$out/e2e.json"; fi ;;
  smoke)
    run_set 0 "$out/smoke.json"
    run_set 1 "$out/smoke.traced.json" ;;
  aa)
    run_set "$trace" "$out/aa.a.json"
    run_set "$trace" "$out/aa.b.json"
    "$bin" --compare "$out/aa.a.json" "$out/aa.b.json" ;;
  baseline)
    run_set 0 "$out/e2e.json"
    run_set 1 "$out/e2e.traced.json"
    { printf '{"timed":\n'; cat "$out/e2e.json"; printf ',"traced":\n'; cat "$out/e2e.traced.json"; printf '}\n'; } \
      > e2e/baseline.json
    echo "wrote e2e/baseline.json" ;;
esac
