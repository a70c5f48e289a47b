#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload udf_query --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Everything the build and the run write
# (Go build cache, binary, trace files, fleet journals) stays under
# .bench_build in the checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -d internal ]]; then
	echo "perfbench: run from the repository root (go.mod and internal/ not found)" >&2
	exit 1
fi

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/home"
unset GOFLAGS
export GOTOOLCHAIN=local GOENV=off GOCACHE="$out/gocache" GOPATH="$out/gopath"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"

go build -C perfbench -o "$out/perfbench" .
exec "$out/perfbench" "$@"
