#!/usr/bin/env bash
# Builds the benchmark and the shipped `msrpctl` binary from this checkout, then runs one
# benchmark workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload wire_lockstep --seed 1 --seconds 10 --trace 0
#
# Every argument is passed through to the benchmark binary (see perfbench/src/main.rs).
# Build output goes to $CARGO_TARGET_DIR (default .bench_build).
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --quiet --offline --manifest-path Cargo.toml --bin msrpctl >&2
cargo build --release --quiet --offline --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" \
    --msrpctl "$CARGO_TARGET_DIR/release/msrpctl" \
    --tmp "$CARGO_TARGET_DIR/perfbench-tmp" \
    "$@"
