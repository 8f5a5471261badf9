#!/usr/bin/env bash
# Builds the search benchmark from source and runs it with the given flags.
# Run from the repository root:
#
#   bash searchbench/run.sh --workload mirror --seed 1 --seconds 25 --trace 0
#
# Everything the build writes (Go build cache, module cache, binary, traces)
# stays under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" \
	XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

# Build to a private name and rename, so concurrent runs never exec a
# half-written binary.
(cd "$root/searchbench" && go build -o "$build/searchbench.$$" .)
mv -f "$build/searchbench.$$" "$build/searchbench"
exec "$build/searchbench" "$@"
