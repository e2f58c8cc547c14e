#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload lookup-hot --seed 1 --seconds 10 --trace 0
#
# Run from the root of the checkout. Everything the build and the run leave
# behind (Go build cache, binary, temporary index files, span dumps) goes
# under $CARGO_TARGET_DIR, default .bench_build, inside the checkout.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out"
export GOCACHE=$out/gocache GOMODCACHE=$out/gomodcache GOPATH=$out/gopath
export XDG_CONFIG_HOME=$out/xdg-config XDG_CACHE_HOME=$out/xdg-cache
export GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOENV=off GOPROXY=off GOSUMDB=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
export PERFBENCH_OUT=$out
exec "$out/perfbench" "$@"
