#!/usr/bin/env bash
# The pipeline's entry point, BENCHMARK.json's `command`:
#
#   bash e2e/bench.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Builds the harness when its binary is missing or older than a source,
# then runs it with the arguments given. It does not go through
# `cargo run`: outside a git repository cargo finds `crates/core` dirty
# on every invocation (its build script watches `.git/HEAD`, which is not
# there) and would rebuild three crates, 17 s, before each of the
# pipeline's 92 runs.
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."
bin="${CARGO_TARGET_DIR:-e2e/target}/release/e2e"
sources=(BENCHMARK.json Cargo.toml crates third_party e2e/Cargo.toml e2e/inputs.lock e2e/src)
if [ ! -x "$bin" ] || [ -n "$(find "${sources[@]}" -newer "$bin" -print -quit)" ]; then
  cargo build --release --quiet --offline --manifest-path e2e/Cargo.toml >&2
fi
exec "$bin" "$@"
