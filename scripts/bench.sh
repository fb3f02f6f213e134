#!/usr/bin/env bash
# Runs the benchmark suite and archives the results as BENCH_<date>.json
# so successive PRs accumulate a performance trajectory.
#
# The suite covers every paper figure/table plus the raw-throughput
# benchmarks: pipeline (BenchmarkPipelineThroughput with the generator in
# the loop, BenchmarkPipelineReplayThroughput over a packed recording,
# BenchmarkCoreReplay on one reused zero-allocation core,
# BenchmarkRunBatch), the trace record/replay subsystem
# (BenchmarkTraceRecord one-time synthesis+pack uops/s,
# BenchmarkCursorReplay zero-alloc replay uops/s), the bit-parallel
# circuit stack (BenchmarkAdderEvalBatch adds/s, BenchmarkStressApplyVec
# lane-applies/s), the fleet lifetime engine (BenchmarkFleetEpoch
# chip-epochs/s over a 100k-chip fleet, BenchmarkLifetimeTrajectory full
# 7-year runs) and the continuous-operations event bus
# (BenchmarkBusPublish events/s fanned out to saturated subscribers,
# i.e. the worst-case drop-and-count path of the streaming tier) and the
# observability layer (BenchmarkObsOverhead: ns per counter inc,
# histogram observe, trace record and nil-instrument call — the budget
# every instrumented hot path pays; BenchmarkTsdbSample: ns per full
# registry sample into the metric-history store, asserted 0 allocs at
# steady state so the sampler can never become a GC tax).
#
# Usage: scripts/bench.sh [extra go test args...]
#   e.g. scripts/bench.sh -benchtime 2s -count 3
set -euo pipefail

cd "$(dirname "$0")/.."

date="$(date -u +%Y-%m-%d)"
out="BENCH_${date}.json"
tmp="$(mktemp)"
trap 'rm -f "$tmp"' EXIT

go test -run '^$' -bench . -benchmem "$@" . | tee "$tmp"

# Convert `go test -bench` output lines into a JSON array of records.
awk -v date="$date" '
BEGIN { print "[" }
/^Benchmark/ {
    if (n++) printf ",\n"
    printf "  {\"date\": \"%s\", \"name\": \"%s\", \"iterations\": %s", date, $1, $2
    for (i = 3; i < NF; i += 2) {
        unit = $(i + 1)
        gsub(/"/, "", unit)
        printf ", \"%s\": %s", unit, $i
    }
    printf "}"
}
END { print "\n]" }
' "$tmp" > "$out"

echo "wrote $out"
