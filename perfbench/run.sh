#!/usr/bin/env bash
# run.sh builds the benchmark from the checkout's sources and runs it with
# the given arguments, e.g.
#
#   bash perfbench/run.sh --workload analytic-open --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh report .bench_build/perfbench/results/*.json
#
# Run it from the repository root. Everything the go command writes (build
# cache, module cache, telemetry) and everything the benchmark writes
# (result files, traces) stays under .bench_build in the current directory.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/perfbench/go.mod" ] || [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal" ]; then
	echo "run.sh: run from the repository root (needs go.mod, internal/ and perfbench/)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/mod"
export XDG_CONFIG_HOME="$out/config" HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS= GOTELEMETRY=off CGO_ENABLED=0
(cd "$root/perfbench" && go build -o "$out/perfbench.bin" .)
exec "$out/perfbench.bin" "$@"
