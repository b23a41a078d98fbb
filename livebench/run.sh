#!/usr/bin/env bash
# Builds livebench from source and runs it with the given arguments. Run it
# from the repository root:
#
#   bash livebench/run.sh --workload probe-churn --seed 1 --seconds 10 --trace 0
#
# The binary and the Go build cache go under $CARGO_TARGET_DIR (default
# .bench_build) and traced runs write their spans under .bench_build, so
# nothing is written outside the checkout. The first build compiles the
# standard library and takes about half a minute on two cores; later builds
# reuse the cache.
set -euo pipefail
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off
go -C livebench build -o "$out/livebench" .
exec "$out/livebench" "$@"
