#!/usr/bin/env bash
# Tier-1 verification: format-clean, release build, full test suite,
# lint-clean. CI runs exactly this; run it locally before pushing.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo fmt --all -- --check
cargo build --release
# E8's table has no timing column, so it must repeat byte for byte.
target/release/e8_ranking | diff results/e8_ranking.txt -
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
# database and a 2-shard root, fsck both (clean files must exit 0 — any
# other exit code fails the run via set -e), explain a search over the
# shards (one plan row per shard) in full and piped to `head`, and
# write the stat report; CI uploads results/STAT.json as an artifact so
# index-shape drift is reviewable.
# Then the capture pipeline through the same binary: bench with the
# log, its stride, tail sampling and the ring on, and profile the log,
# all inside the temporary directory. Then `serve` through the release
# binary, over the plain database and over a 2-shard root of the same
# collection: one search over HTTP each, then SIGTERM must drain and
# exit 0. Last, one flipped blob byte: fsck must exit 1, and search
# must refuse the database at open with an error naming the corruption.
health_dir=$(mktemp -d)
serve_pid=""
trap '[ -n "$serve_pid" ] && kill "$serve_pid" 2>/dev/null; rm -rf "$health_dir"' EXIT
NUCDB=(cargo run --quiet --release -p nucdb-cli --)
"${NUCDB[@]}" generate --bases 200000 --out "$health_dir/coll.fasta" --seed 7 \
  --queries-out "$health_dir/q.fasta"
"${NUCDB[@]}" build --collection "$health_dir/coll.fasta" --db "$health_dir/db" --codec block
"${NUCDB[@]}" build --collection "$health_dir/coll.fasta" --db "$health_dir/shards" --shards 2
"${NUCDB[@]}" fsck --db "$health_dir/db"
"${NUCDB[@]}" fsck --db "$health_dir/shards"
"${NUCDB[@]}" search --db "$health_dir/shards" --query "$health_dir/q.fasta" --explain \
  >"$health_dir/explain-shards.txt"
for shard in shard-000 shard-001; do
  if ! grep -q "$shard" "$health_dir/explain-shards.txt"; then
    echo "search --explain over the 2-shard root printed no $shard row:" >&2
    cat "$health_dir/explain-shards.txt" >&2
    exit 1
  fi
done
# A reader that stops after one line closes stdout under the search: it
# must end quietly with exit 0 (pipefail is on, so its status counts).
target/release/nucdb search --db "$health_dir/shards" --query "$health_dir/q.fasta" \
  --explain 2>"$health_dir/explain-head.err" | head -n 1 >/dev/null
if grep -q panicked "$health_dir/explain-head.err"; then
  echo "search --explain | head -n 1 panicked:" >&2
  cat "$health_dir/explain-head.err" >&2
  exit 1
fi
"${NUCDB[@]}" stat --db "$health_dir/db" --out results
"${NUCDB[@]}" bench --db "$health_dir/db" --query "$health_dir/q.fasta" \
  --trace "$health_dir/t.jsonl" --trace-sample 4 --slow-ms 0.001 --flight-recorder 16
"${NUCDB[@]}" profile --input "$health_dir/t.jsonl" --out "$health_dir"
# serve_round_trip DB NAME [PATTERN]: serve DB on port 0, POST q.fasta
# once (200, non-empty `results`, and PATTERN in the body if given),
# then SIGTERM must give exit 0 and a clean drain.
serve_round_trip() {
  local db=$1 log="$health_dir/serve-$2.log" body="$health_dir/search-$2.json"
  # Launched directly, not through `cargo run`, so that $! is the server.
  target/release/nucdb serve --db "$db" --addr 127.0.0.1:0 \
    --scrub-bytes-per-sec 0 >"$log" 2>&1 &
  serve_pid=$!
  local port=""
  for _ in $(seq 300); do
    port=$(sed -n 's|^serving on http://127\.0\.0\.1:\([0-9]*\) .*|\1|p' "$log")
    [ -n "$port" ] && break
    kill -0 "$serve_pid" 2>/dev/null || break
    sleep 0.1
  done
  if [ -z "$port" ]; then
    echo "serve ($2) printed no address within 30 s:" >&2
    cat "$log" >&2
    exit 1
  fi
  local code
  code=$(curl -sf -o "$body" -w '%{http_code}' \
    --data-binary @"$health_dir/q.fasta" "http://127.0.0.1:$port/search" || true)
  if [ "$code" != 200 ] || ! grep -q '"results":\[{' "$body" \
    || { [ -n "${3:-}" ] && ! grep -qF "$3" "$body"; }; then
    echo "serve ($2) /search answered $code without results${3:+ or $3}" >&2
    exit 1
  fi
  kill -TERM "$serve_pid"
  local status=0
  wait "$serve_pid" || status=$?
  serve_pid=""
  if [ "$status" != 0 ] || ! grep -q 'drained cleanly' "$log"; then
    echo "serve ($2) exited with status $status without a clean drain:" >&2
    cat "$log" >&2
    exit 1
  fi
}
serve_round_trip "$health_dir/db" plain
serve_round_trip "$health_dir/shards" sharded '"shards_ok":2'
# The index's last byte lies in its last list's last block payload.
index="$health_dir/db/index.nucidx"
last=$(($(stat -c %s "$index") - 1))
byte=$(od -An -tu1 -j "$last" -N1 "$index" | tr -d ' ')
printf "\\x$(printf %02x $((byte ^ 0xFF)))" |
  dd of="$index" bs=1 seek="$last" conv=notrunc status=none
fsck_status=0
target/release/nucdb fsck --db "$health_dir/db" >"$health_dir/fsck-rot.txt" || fsck_status=$?
if [ "$fsck_status" != 1 ]; then
  echo "fsck of a flipped blob byte exited $fsck_status, not 1:" >&2
  cat "$health_dir/fsck-rot.txt" >&2
  exit 1
fi
if target/release/nucdb search --db "$health_dir/db" --query "$health_dir/q.fasta" \
  >"$health_dir/search-rot.txt" 2>&1; then
  echo "search opened a database with a flipped blob byte" >&2
  exit 1
fi
if ! grep -qi corruption "$health_dir/search-rot.txt"; then
  echo "search refused the damaged database without naming the corruption:" >&2
  cat "$health_dir/search-rot.txt" >&2
  exit 1
fi
# The benchmark gate: the traced run's work counts must equal the
# committed reference exactly; timings are report-only (see the
# script's header).
./scripts/bench_compare.sh
