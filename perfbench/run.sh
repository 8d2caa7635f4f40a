#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the checkout root:
#   bash perfbench/run.sh --workload resume-attr --seed 1 --seconds 50 --trace 0
# The Go build cache and the binary live under .bench_build in the
# checkout, so the benchmark writes nothing outside it.
set -euo pipefail
cd "$(dirname "$0")/.."
root=$PWD
mkdir -p .bench_build
export GOCACHE="$root/.bench_build/gocache" GOWORK=off GOTOOLCHAIN=local GOFLAGS=
(cd perfbench && go build -o "$root/.bench_build/perfbench" .)
exec "$root/.bench_build/perfbench" "$@"
