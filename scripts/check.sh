#!/usr/bin/env bash
# Local CI gate: formatting, vet, build, and the race-enabled test suite.
# Run from anywhere; it operates on the repository root.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet =="
go vet ./...

# Metric naming: every literal registration site must follow the
# snake_case + unit/_total suffix rules (internal/obs/metrics.CheckName).
echo "== metric naming lint =="
go run ./scripts/metriclint

# staticcheck is optional tooling: run it when installed, say so when not,
# never fail the gate over its absence.
echo "== staticcheck =="
if command -v staticcheck >/dev/null 2>&1; then
    staticcheck ./...
else
    echo "staticcheck not installed; skipping"
fi

echo "== go build =="
go build ./...

# Safety-invariant smoke: the whole fault-plan library must run clean of
# fatal violations under the runtime checker (faults perturb sensors and
# actuators, never physics), the seeded-bug and thermal-breach detection
# paths must fire, and the disabled-checker path must stay bit-identical.
echo "== invariant smoke: fault library + seeded violations =="
go test ./internal/sim -count=1 -run \
    'TestFaultPlanLibraryNoFatalViolations|TestSeededSoCBugTripsCheckerAndGuard|TestTECDropoutBreachesThermalCeiling|TestRunInvariantsBitIdentical'

# Fast-fail on the robustness layer (fault injection + capmand) before the
# full suite: these packages carry the concurrency-heavy code paths.
echo "== robustness focus: vet + race on fault/server =="
go vet ./internal/fault ./internal/server
go test -race ./internal/fault ./internal/server

# Telemetry-plane smoke: a live capmand's /v1/stream must deliver
# telemetry samples and the submitted job's completion event to a
# subscriber within 5 seconds, end to end over real HTTP.
echo "== telemetry smoke: /v1/stream samples + job-done =="
go test ./cmd/capman-serve -count=1 -run 'TestServeStreamSmoke'

# Request-tracing smoke: a live daemon must retain a traced submission,
# serve its waterfall (queue + attempt + engine-phase spans) from
# /v1/traces/{id}, and carry the trace's exemplar on /metrics.
echo "== trace smoke: submit -> /v1/traces waterfall + exemplar =="
go test ./cmd/capman-serve -count=1 -run 'TestServeTraceSmoke'

# Serving-hot-path smoke: capman-loadgen boots an in-process capmand and
# drives >= 100 mixed sim/tte requests through the real HTTP admission
# path. Zero errors and a nonzero cache-hit rate are hard requirements —
# a hit-path regression or a shedding bug fails the gate here before the
# full benchmark run would.
echo "== loadgen smoke: 120 mixed requests, no errors, hits required =="
go run ./cmd/capman-loadgen -inprocess -requests 120 -concurrency 4 \
    -keyspace 12 -tte-frac 0.25 -expect-no-errors -min-hit-rate 0.5 > /dev/null

echo "== go test -race =="
go test -race ./...

# perfbench/ is a module of its own (it replaces repro with ../), so the
# root ./... patterns above never build it; vet it and run its short tests
# so the benchmark harness keeps compiling against the current API.
echo "== perfbench module: vet + short tests =="
(cd perfbench && go vet ./... && go test -short ./...)

# One iteration of every benchmark: catches benchmarks that no longer
# compile or crash without paying for stable timings.
echo "== benchmark smoke (1 iteration each) =="
go test -run='^$' -bench=. -benchtime=1x ./... > /dev/null

# The benchmark trajectories: one-iteration run through bench.sh so every
# go test | benchjson pipeline (simstruct + twin + obs + serve, loadgen
# included) stays executable end to end, including the twin
# zero-allocs/step hard gate.
echo "== bench trajectory smoke (bench.sh) =="
smoke_out="$(mktemp)"
smoke_twin="$(mktemp)"
smoke_obs="$(mktemp)"
smoke_serve="$(mktemp)"
BENCHTIME=1x OUT="$smoke_out" OUT_TWIN="$smoke_twin" OUT_OBS="$smoke_obs" \
    OUT_SERVE="$smoke_serve" ./scripts/bench.sh > /dev/null
rm -f "$smoke_out" "$smoke_twin" "$smoke_obs" "$smoke_serve"

echo "all checks passed"
