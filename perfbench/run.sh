#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload office-day --seed 1 --seconds 20 --trace 0
#
# The build output and every Go cache and setting the toolchain would
# otherwise keep under $HOME live in .bench_build/ at the repository root,
# and nothing is fetched over the network.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go build -C perfbench -o "$build/perfbench" .
exec "$build/perfbench" "$@"
