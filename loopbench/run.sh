#!/usr/bin/env bash
# Builds the loopmem CLI and the benchmark from source, then runs one
# benchmark workload. Arguments pass through:
#   bash loopbench/run.sh --workload sweep --seed 1 --seconds 10 --trace 0
# Run from the repository root. Build output goes to stderr; the last
# line of stdout is the JSON result.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --bin loopmem >&2
cargo build --release --offline --quiet --manifest-path loopbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/loopbench" "$@"
