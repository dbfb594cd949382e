#!/usr/bin/env bash
# Builds tetrium-serve and the benchmark from the sources of the checkout
# it is run in, then runs one workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload admit --seed 1 --seconds 45 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the
# checkout, Go's build cache included.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d cmd/tetrium-serve ] || [ ! -f perfbench/go.mod ]; then
	echo "perfbench: run from the root of a tetrium checkout" >&2
	exit 2
fi

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/bin" "$out/go/cache" "$out/go/path" "$out/go/tmp"
export GOCACHE="$out/go/cache" GOPATH="$out/go/path" GOTMPDIR="$out/go/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

go build -o "$out/bin/tetrium-serve" ./cmd/tetrium-serve
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -bin "$out/bin" -work "$out/run" "$@"
