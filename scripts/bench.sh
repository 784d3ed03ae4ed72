#!/usr/bin/env bash
# bench.sh — run the structural-similarity and metrics-registry
# benchmarks and write the BENCH_simstruct.json trajectory (ns/op,
# allocs/op, parallel speedup, EMD allocation ratio, and the metrics
# hot-path allocation guard: the disabled registry and cached-handle
# paths must stay at 0 allocs/op or benchjson fails the run), then the
# twin batch engine benchmarks into BENCH_twin.json (the lockstep step's
# twins/op, derived single-core twin-step throughput and zero-allocs/step
# guard, plus a whole served-size 512-twin TTE cohort's ns/op and
# twin-steps/s), then
# the telemetry store scrape benchmark, the unsampled request-trace path
# and the sim step's instrumentation cost into BENCH_obs.json (ns per full
# registry sample, two zero-alloc hard gates: benchjson fails the run if
# BenchmarkStoreSample or BenchmarkTraceUnsampled ever allocates, and
# ns/step of a dual run bare, traced, and served the way capmand runs a
# sim job), then the serving hot-path
# benchmarks plus a capman-loadgen run against an in-process capmand
# into BENCH_serve.json (cache-hit admission latency with the hard
# 0 allocs/op gate, a cache hit through the whole HTTP handler,
# sharded-cache read cost and contended speedup, and the loadgen report:
# throughput, p50/p95/p99, hit rate, shed rate).
#
# Environment:
#   BENCHTIME  go test -benchtime value (default 2s; use 1x for a smoke run)
#   OUT        simstruct output path (default BENCH_simstruct.json at the repo root)
#   OUT_TWIN   twin output path (default BENCH_twin.json at the repo root)
#   OUT_OBS    telemetry output path (default BENCH_obs.json at the repo root)
#   OUT_SERVE  serving output path (default BENCH_serve.json at the repo root)
set -euo pipefail
cd "$(dirname "$0")/.."

BENCHTIME="${BENCHTIME:-2s}"
OUT="${OUT:-BENCH_simstruct.json}"
OUT_TWIN="${OUT_TWIN:-BENCH_twin.json}"
OUT_OBS="${OUT_OBS:-BENCH_obs.json}"
OUT_SERVE="${OUT_SERVE:-BENCH_serve.json}"

raw="$(mktemp)"
lg_report="$(mktemp)"
trap 'rm -f "$raw" "$lg_report"' EXIT

go test -run '^$' -bench 'BenchmarkSimilarityIndexSized|BenchmarkEMD' \
    -benchmem -benchtime "$BENCHTIME" . | tee "$raw"
go test -run '^$' -bench 'BenchmarkRegistryDisabled|BenchmarkCounterVec' \
    -benchmem -benchtime "$BENCHTIME" ./internal/obs/metrics | tee -a "$raw"
go run ./scripts/benchjson < "$raw" > "$OUT"
echo "bench.sh: wrote $OUT"

: > "$raw"
go test -run '^$' -bench 'BenchmarkBatchedStep|BenchmarkTTECohort' \
    -benchmem -benchtime "$BENCHTIME" ./internal/twin | tee "$raw"
go run ./scripts/benchjson < "$raw" > "$OUT_TWIN"
echo "bench.sh: wrote $OUT_TWIN"

: > "$raw"
go test -run '^$' -bench 'BenchmarkStoreSample' \
    -benchmem -benchtime "$BENCHTIME" ./internal/obs/tsdb | tee "$raw"
go test -run '^$' -bench 'BenchmarkTraceUnsampled' \
    -benchmem -benchtime "$BENCHTIME" ./internal/obs | tee -a "$raw"
go test -run '^$' -bench 'BenchmarkInstrumentedStep' \
    -benchmem -benchtime "$BENCHTIME" ./internal/sim | tee -a "$raw"
go run ./scripts/benchjson < "$raw" > "$OUT_OBS"
echo "bench.sh: wrote $OUT_OBS"

: > "$raw"
go test -run '^$' -bench 'BenchmarkAdmissionPath|BenchmarkHTTPHit|BenchmarkShardedCache' \
    -benchmem -benchtime "$BENCHTIME" ./internal/server | tee "$raw"
if [ "$BENCHTIME" = "1x" ]; then
    # Smoke run: a short closed-loop burst against the in-process daemon.
    go run ./cmd/capman-loadgen -inprocess -requests 200 -concurrency 4 \
        -keyspace 16 -tte-frac 0.25 -report "$lg_report" -expect-no-errors
else
    go run ./cmd/capman-loadgen -inprocess -duration 5s -concurrency 8 \
        -keyspace 32 -tte-frac 0.2 -report "$lg_report" -expect-no-errors
fi
go run ./scripts/benchjson -loadgen "$lg_report" < "$raw" > "$OUT_SERVE"
echo "bench.sh: wrote $OUT_SERVE"
