#!/usr/bin/env bash
# The command BENCHMARK.json names. Builds `qip` and the harness from source
# into one target directory, then runs the harness with the driver's
# arguments (--workload NAME --seed N --seconds S --trace 0|1). Run it from
# anywhere; it works from the repository root.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet --bin qip
cargo build --release --offline --quiet --manifest-path perf/Cargo.toml
exec "$CARGO_TARGET_DIR/release/qip-perf" --out perf/out "$@"
