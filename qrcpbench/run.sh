#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments. Run from the repository root:
#
#   bash qrcpbench/run.sh --workload ite-tall --seed 1 --seconds 30 --trace 0
#
# Every build product and Go cache stays under .bench_build/ in the
# checkout, so nothing is written outside it.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off

(cd "$root/qrcpbench" && go build -o "$out/qrcpbench" .) >&2
exec "$out/qrcpbench" "$@"
