#!/usr/bin/env bash
# Tier-1 verification: format-clean, release build, full test suite,
# lint-clean. CI runs exactly this; run it locally before pushing.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo fmt --all -- --check
cargo build --release
cargo test -q
# The fine stage's lane kernel against its scalar oracle, in release:
# that is the build whose vectorised loop ships.
cargo test -q --release -p nucdb-align --test proptests
# Likewise the sliced CRC-32, the bounded coarse rank and the two-pass
# coarse accumulate against theirs.
cargo test -q --release -p nucdb-index -p nucdb --lib -- durable:: coarse::
# The durability suite in release too: overflow-class bugs panic in
# debug and wrap silently in release, and a hostile header must be a
# typed error in both.
cargo test -q --release -p nucdb --test durability
cargo clippy --workspace --all-targets -- -D warnings
# Rustdoc warning-free: a doc link to a renamed or deleted item fails here.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps
# The benchmark harness (e2e/, its own workspace, so not in `cargo test`)
# compiles against a frozen slice of the public API and gates every
# timed section on answer identity against a joint build. Build it, run
# its unit tests and a small run of all four workloads here, so a break
# of either fails in tier-1 and not in the pipeline's 92 runs.
# --smoke's own 2 s window is marginal for `live_mixed` (one complete
# round is 256 searches, ~130/s on two loaded vCPUs); 4 s is not.
e2e/run.sh --test
e2e/run.sh --smoke --seconds 4
# Index health end to end on a real corpus: build a block-codec
# database, fsck it (clean files must exit 0 — any other exit code
# fails the run via set -e), and write the stat report; CI uploads
# results/STAT.json as an artifact so index-shape drift is reviewable.
# Then the capture pipeline through the same binary: bench with the
# log, its stride, tail sampling and the ring on, and profile the log,
# all inside the temporary directory. Last, `serve` through the release
# binary: one search over HTTP, then SIGTERM must drain and exit 0.
health_dir=$(mktemp -d)
serve_pid=""
trap '[ -n "$serve_pid" ] && kill "$serve_pid" 2>/dev/null; rm -rf "$health_dir"' EXIT
NUCDB=(cargo run --quiet --release -p nucdb-cli --)
"${NUCDB[@]}" generate --bases 200000 --out "$health_dir/coll.fasta" --seed 7 \
  --queries-out "$health_dir/q.fasta"
"${NUCDB[@]}" build --collection "$health_dir/coll.fasta" --db "$health_dir/db" --codec block
"${NUCDB[@]}" fsck --db "$health_dir/db"
"${NUCDB[@]}" stat --db "$health_dir/db" --out results
"${NUCDB[@]}" bench --db "$health_dir/db" --query "$health_dir/q.fasta" \
  --trace "$health_dir/t.jsonl" --trace-sample 4 --slow-ms 0.001 --flight-recorder 16
"${NUCDB[@]}" profile --input "$health_dir/t.jsonl" --out "$health_dir"
# Launched directly, not through `cargo run`, so that $! is the server.
target/release/nucdb serve --db "$health_dir/db" --addr 127.0.0.1:0 \
  --scrub-bytes-per-sec 0 >"$health_dir/serve.log" 2>&1 &
serve_pid=$!
port=""
for _ in $(seq 300); do
  port=$(sed -n 's|^serving on http://127\.0\.0\.1:\([0-9]*\) .*|\1|p' "$health_dir/serve.log")
  [ -n "$port" ] && break
  kill -0 "$serve_pid" 2>/dev/null || break
  sleep 0.1
done
if [ -z "$port" ]; then
  echo "serve printed no address within 30 s:" >&2
  cat "$health_dir/serve.log" >&2
  exit 1
fi
code=$(curl -sf -o "$health_dir/search.json" -w '%{http_code}' \
  --data-binary @"$health_dir/q.fasta" "http://127.0.0.1:$port/search" || true)
if [ "$code" != 200 ] || ! grep -q '"results":\[{' "$health_dir/search.json"; then
  echo "serve /search answered $code without results" >&2
  exit 1
fi
kill -TERM "$serve_pid"
serve_status=0
wait "$serve_pid" || serve_status=$?
serve_pid=""
if [ "$serve_status" != 0 ] || ! grep -q 'drained cleanly' "$health_dir/serve.log"; then
  echo "serve exited with status $serve_status without a clean drain:" >&2
  cat "$health_dir/serve.log" >&2
  exit 1
fi
# The benchmark gate: the traced run's work counts must equal the
# committed reference exactly; timings are report-only (see the
# script's header).
./scripts/bench_compare.sh
