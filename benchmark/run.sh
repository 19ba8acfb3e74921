#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. It builds the benchmark (a module of
# its own in this directory) from the tree it is started in and runs it with
# the arguments it was given. Everything the Go toolchain writes — build
# cache, temporary files, its per-user configuration — goes under
# benchmark/out/build, so that a run reads and writes only inside the tree.
# Without the repository around it (no go.mod to replace `repro` with) the
# build fails, and so does this script.
set -euo pipefail
cd "$(dirname "$0")/.."
build=$PWD/benchmark/out/build
mkdir -p "$build/gocache" "$build/tmp" "$build/config"
export GOCACHE=$build/gocache GOTMPDIR=$build/tmp XDG_CONFIG_HOME=$build/config GOFLAGS=-buildvcs=false
go build -C benchmark -o "$build/benchmark" .
exec "$build/benchmark" "$@"
