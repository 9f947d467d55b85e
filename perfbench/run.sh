#!/usr/bin/env bash
# Builds the benchmark from the checkout it runs in, then runs it. Run from
# the repository root:
#
#   bash perfbench/run.sh --workload churn --seed 1 --seconds 10 --trace 0
#
# The binary and every Go cache stay under .bench_build/ in the checkout.
set -euo pipefail
build="$(pwd)/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath" \
	GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go -C perfbench build -o "$build/perfbench" .
exec "$build/perfbench" "$@"
