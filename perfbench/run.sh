#!/usr/bin/env bash
# Builds the benchmark (and with it the program) from source, then runs
# it; every argument is passed through. Run from the repository root:
#   bash perfbench/run.sh --workload tiny-serve --seed 1 --seconds 20 --trace 0
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --locked --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/sidr-perfbench" "$@"
