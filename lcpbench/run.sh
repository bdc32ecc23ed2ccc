#!/usr/bin/env bash
# Builds lcpbench from the checkout's sources and runs it with the given
# arguments, from the root of the checkout:
#
#   bash lcpbench/run.sh --workload suite --seed 1 --seconds 30 --trace 0
#
# Build outputs and the Go caches stay under .bench_build in the checkout.
set -euo pipefail
build="$PWD/.bench_build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go -C lcpbench build -o "$build/lcpbench" .
exec "$build/lcpbench" "$@"
