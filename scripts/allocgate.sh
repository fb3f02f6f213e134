#!/usr/bin/env bash
# Fails when a hot path pinned at zero allocations reports allocs/op > 0.
#
# allocs/op is the run's total allocation count divided by b.N, rounded
# down, so set-up a benchmark does before its loop vanishes once b.N
# exceeds it. Each benchmark runs at a -benchtime large enough for that:
#
#   BenchmarkCursorReplay    100x   0 allocs/op even at 1x
#   BenchmarkCoreReplay      10x    0 at 1x (the core is warmed first)
#   BenchmarkStressApplyVec  1000x  0 at 1x
#   BenchmarkTsdbSample      1000x  0 at 1x: it fills every tier before
#                                   its loop and asserts 0 inside
#   BenchmarkObsOverhead     1000x  its subs build a registry before the
#                                   loop: up to 11 allocs, 0 from 12x up
#
# Only BenchmarkObsOverhead's CounterInc, HistogramObserve,
# HistogramVecResolved and NilInstruments are gated; TracePhases
# allocates its spans by design, and TracerRecord allocates only its
# caller's attributes once its ring is full.
#
# Usage: scripts/allocgate.sh (from anywhere in the checkout)
set -euo pipefail

cd "$(dirname "$0")/.."

out="$(mktemp)"
trap 'rm -f "$out"' EXIT

gate() {
	go test -run '^$' -bench "$1" -benchmem -benchtime "$2" . | tee -a "$out"
}
gate '^BenchmarkCursorReplay$' 100x
gate '^BenchmarkCoreReplay$' 10x
gate '^BenchmarkStressApplyVec$' 1000x
gate '^BenchmarkTsdbSample$' 1000x
gate '^BenchmarkObsOverhead$/^(CounterInc|HistogramObserve|HistogramVecResolved|NilInstruments)$' 1000x

awk '
/^Benchmark/ {
	seen++
	for (i = 2; i <= NF; i++) {
		if ($i == "allocs/op" && $(i-1) + 0 > 0) {
			print "allocates on a zero-alloc path: " $0
			bad = 1
		}
	}
}
END {
	if (seen != 8) {
		print "expected 8 gated benchmarks, saw " seen
		bad = 1
	}
	exit bad
}' "$out"
