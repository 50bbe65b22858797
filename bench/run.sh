#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# given arguments. Everything the build and the run write — the Go build
# cache, the binary, explore_file's page files — stays under .bench_build/
# at the repository root, so a run reads and writes only its own checkout.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOTOOLCHAIN=local

# Build to a private name and rename, so a concurrent run never executes a
# half-written binary. With a warm cache this is a fraction of a second.
go build -C "$root/bench" -o "$build/bench.$$" .
mv "$build/bench.$$" "$build/bench"

cd "$root"
exec "$build/bench" -tmp "$build/tmp" "$@"
