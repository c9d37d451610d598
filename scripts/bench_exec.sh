#!/usr/bin/env bash
# Build (Release) and run the executor benchmark, leaving
# BENCH_executor.json in the repository root.
# Usage:
#   scripts/bench_exec.sh [rows]
# rows defaults to 1000000 (the acceptance-criteria scale).
set -euo pipefail
cd "$(dirname "$0")/.."

ROWS="${1:-1000000}"
JOBS="$(nproc 2>/dev/null || echo 2)"

cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release
cmake --build build-release -j "${JOBS}" --target bench_executor

MOSAIC_BENCH_ROWS="${ROWS}" ./build-release/bench_executor

echo "--- BENCH_executor.json ---"
cat BENCH_executor.json
