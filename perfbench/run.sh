#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository
# root:  bash perfbench/run.sh --workload city-cold --seed 1 --seconds 30 --trace 0
# Build outputs, the Go build cache and every file a run writes stay
# under .bench_build in the current directory.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" TMPDIR="$build/gotmp" GOMODCACHE="$build/gomodcache"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off
(cd "$root/perfbench" && go build -trimpath -buildvcs=false -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
