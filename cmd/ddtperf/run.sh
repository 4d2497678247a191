#!/usr/bin/env bash
# Builds ddtperf from the checkout's sources and runs it with the given
# arguments, e.g.
#
#   bash cmd/ddtperf/run.sh --workload a2a-1024 --seed 3 --seconds 15 --trace 0
#
# The Go build cache, temporary files and the binary stay in .bench_build/
# at the root of the checkout, and the build never touches the network.
# The benchmark is its own module (cmd/ddtperf/go.mod) that builds against
# the repository's module two directories up, so outside a full checkout
# the build fails and nothing runs.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
export GOENV=off GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go -C "$root/cmd/ddtperf" build -o "$out/ddtperf" .
exec "$out/ddtperf" "$@"
