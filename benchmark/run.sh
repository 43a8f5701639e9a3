#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in and
# runs it with the given flags. Every build output, the Go build cache
# and the benchmark's scratch files live under .bench_build/ at the root
# of the checkout.
#
#   bash benchmark/run.sh -workload stream-sparse -seed 1 -seconds 15 -trace 0
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
if [[ ! -f "$root/go.mod" || ! -f "$root/cmd/dita-serve/main.go" ]]; then
	echo "benchmark: $root is not a checkout of the repository (no go.mod or cmd/dita-serve)" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
cd "$root"
go -C benchmark build -o "$build/bin/benchmark" .
exec "$build/bin/benchmark" "$@"
