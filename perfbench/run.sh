#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it.
#
#   bash perfbench/run.sh --workload fig11-voice --seed 1 --seconds 30 --trace 0
#
# Run from the root of the repository. Every build product (binary, Go
# build cache, scratch files) stays under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
src="$root/perfbench"
out="$root/.bench_build"
mkdir -p "$out"

# The go command's config and telemetry directories follow XDG_CONFIG_HOME.
export XDG_CONFIG_HOME="$out/config"
export XDG_CACHE_HOME="$out/cache"
export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOPATH="$out/gopath"
export GOTMPDIR="$out"
export GOFLAGS=
export GOTOOLCHAIN=local
export GOPROXY=off
export GOWORK=off
export CGO_ENABLED=0

(cd "$src" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
