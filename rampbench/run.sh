#!/usr/bin/env bash
# Builds the rampd benchmark driver and runs it from the repository root,
# passing every argument through:
#
#   bash rampbench/run.sh --workload cold-exact --seed 1 --seconds 20 --trace 0
#
# The Go build cache, the binaries and every scratch file stay under
# .bench_build/ in the repository root; nothing is fetched over the network.
set -euo pipefail
cd "$(dirname "$0")/.."
root=$(pwd)
export GOCACHE="$root/.bench_build/gocache"
export GOPATH="$root/.bench_build/gopath"
export GOMODCACHE="$root/.bench_build/gopath/pkg/mod"
export GOTMPDIR="$root/.bench_build/gotmp"
# The go command's local telemetry counters live under the user config
# directory.
export XDG_CONFIG_HOME="$root/.bench_build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOENV=off
mkdir -p "$GOCACHE" "$GOMODCACHE" "$GOTMPDIR" "$XDG_CONFIG_HOME"
go -C rampbench build -o "$root/.bench_build/rampbench" .
exec "$root/.bench_build/rampbench" "$@"
