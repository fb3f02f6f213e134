#!/usr/bin/env bash
# Runs the benchmark suite and archives the results as BENCH_<date>.json
# so successive PRs accumulate a performance trajectory. An archive is
# never overwritten: a second run on the same date writes
# BENCH_<date>-2.json, a third BENCH_<date>-3.json, and so on. Every
# record carries the host it ran on (nproc, Go version, and the
# filesystem type of the checkout), since the same code reads very
# differently on different hosts.
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
n=1
while [ -e "$out" ]; do
    n=$((n + 1))
    out="BENCH_${date}-${n}.json"
done
nproc="$(nproc)"
gover="$(go env GOVERSION)"
fstype="$(df --output=fstype . 2>/dev/null | tail -n 1 || stat -f -c %T .)"
tmp="$(mktemp)"
trap 'rm -f "$tmp"' EXIT

go test -run '^$' -bench . -benchmem "$@" . | tee "$tmp"

# Convert `go test -bench` output lines into a JSON array of records.
awk -v date="$date" -v nproc="$nproc" -v gover="$gover" -v fstype="$fstype" '
BEGIN { print "[" }
/^Benchmark/ {
    if (n++) printf ",\n"
    printf "  {\"date\": \"%s\", \"nproc\": %s, \"go\": \"%s\", \"fs\": \"%s\", \"name\": \"%s\", \"iterations\": %s", date, nproc, gover, fstype, $1, $2
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
