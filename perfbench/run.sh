#!/usr/bin/env bash
# Builds the penelope server and the benchmark runner from this
# checkout's sources, then runs one benchmark pass. Run it from the root
# of the checkout:
#
#   bash perfbench/run.sh --workload sim-miss --seed 1 --seconds 10 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the
# checkout, including the Go build cache.
set -euo pipefail

cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOTOOLCHAIN=local GOENV=off GOFLAGS=

# A binary is replaced only when its build changed: rewriting ~20 MB on
# every run would leave dirty pages for the disk to flush while the next
# run measures fsync-bound work.
place() {
	if ! cmp -s "$out/tmp/$1" "$out/bin/$1"; then
		mv "$out/tmp/$1" "$out/bin/$1"
	else
		rm "$out/tmp/$1"
	fi
}
go build -o "$out/tmp/penelope" ./cmd/penelope >&2
(cd perfbench && go build -o "$out/tmp/perfbench" .) >&2
place penelope
place perfbench
exec "$out/bin/perfbench" -penelope "$out/bin/penelope" -work "$out/runs" "$@"
