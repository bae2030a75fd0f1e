#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run it from the root of the
# repository:
#
#   bash perfbench/run.sh --workload fig12 --seed 1 --seconds 30 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the repository.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	XDG_CACHE_HOME="$out/cache" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
