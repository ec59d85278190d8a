#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it:
#
#   bash perfbench/run.sh --workload overlap --seed 1 --seconds 24 --trace 0
#
# Every build and run artifact stays under .bench_build/ at the checkout
# root (Go build cache, binary, span dumps, exactness records). The last
# line of standard output is the JSON result.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="${root}/.bench_build"
mkdir -p "${build}"
export GOCACHE="${build}/gocache" GOMODCACHE="${build}/gomodcache" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS= GOENV=off
(cd "${root}/perfbench" && go build -o "${build}/perfbench" .) >&2
cd "${root}"
exec "${build}/perfbench" -state "${build}" "$@"
