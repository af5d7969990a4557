#!/usr/bin/env bash
# Builds the fleet benchmark from source and runs it with the given
# arguments. Run it from the repository root:
#
#   bash bench/run.sh --workload hot-repeat --seed 1 --seconds 12 --trace 0
#   bash bench/run.sh compare bench/results/seed-a.json bench/results/seed-b.json
#
# Every build artefact, cache and temporary file stays under .bench_build/
# in the current directory; nothing is fetched from the network.
set -euo pipefail

build="$(pwd)/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath"
export TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

go -C bench build -o "$build/siwa-bench" .
exec "$build/siwa-bench" "$@"
