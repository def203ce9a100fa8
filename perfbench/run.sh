#!/usr/bin/env bash
# Build ftts-serve (from the repository workspace) and the benchmark
# harness (its own package in this directory), then run the harness.
#
#   bash perfbench/run.sh --workload serve-poll --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Builds go to $CARGO_TARGET_DIR, or
# .bench_build when it is unset. Build output goes to stderr.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"

cargo build --release --offline --quiet --manifest-path Cargo.toml \
    -p ftts-serve --bin ftts-serve >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2

exec "$CARGO_TARGET_DIR/release/perfbench" "$@" \
    --server "$CARGO_TARGET_DIR/release/ftts-serve"
