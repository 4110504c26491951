#!/bin/bash
# Builds the benchmark from source inside the checkout and runs it. The Go
# build cache is kept under .bench_build so that nothing is written outside
# the checkout. Arguments are passed through to the program.
set -euo pipefail
root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOTOOLCHAIN=local
go build -C "$here" -o "$build/lotec-benchmark" .
cd "$root"
exec "$build/lotec-benchmark" "$@"
