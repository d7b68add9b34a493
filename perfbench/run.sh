#!/usr/bin/env bash
# Builds perfbench from the checkout's sources and runs it with the given
# arguments, from the repository root:
#
#   bash perfbench/run.sh --workload paper-month --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout (Go build cache included). Without the repository's sources next to
# perfbench/ the build fails and the script exits non-zero.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
# XDG_CONFIG_HOME keeps the go command's telemetry counters in there too.
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	GOMODCACHE="$build/gopath/pkg/mod" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOPROXY=off GOENV=off GOWORK=off GOFLAGS=
go -C perfbench build -o "$build/perfbench" . >&2
exec "$build/perfbench" --out "$build" "$@"
