#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it. Run it
# from the root of the checkout:
#
#   bash perfbench/run.sh --workload serve_point --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and span dumps all stay under
# .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOTOOLCHAIN=local GOPROXY=off \
	GOFLAGS=-mod=mod CGO_ENABLED=0
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
