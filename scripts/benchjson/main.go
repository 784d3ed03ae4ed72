// Command benchjson converts `go test -bench` output on stdin into the
// BENCH_simstruct.json trajectory format: one record per benchmark plus
// derived metrics (parallel speedup per graph size, EMD allocation ratio).
//
// Usage:
//
//	go test -run '^$' -bench 'BenchmarkSimilarityIndexSized|BenchmarkEMD' \
//	    -benchmem -benchtime 2s . | go run ./scripts/benchjson > BENCH_simstruct.json
//
// With -loadgen <path>, the capman-loadgen JSON report at that path is
// embedded verbatim under "loadgen" — bench.sh uses this to fold the
// live-daemon load test into BENCH_serve.json next to the micro
// benchmarks.
//
// With -compare <committed BENCH_*.json>, no document is written: the
// benchmarks on stdin are compared with the same-named results in the
// committed file, one line each with the ns/op delta (reported, never
// gated, since timings do not carry across hosts or runs) and allocs/op
// on both sides. Any allocs/op increase fails the run:
//
//	go test -run '^$' -bench 'BenchmarkAdmissionPath|BenchmarkHTTPHit' \
//	    -benchmem ./internal/server | go run ./scripts/benchjson -compare BENCH_serve.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"text/tabwriter"
)

// result is one parsed benchmark line.
type result struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	NsPerOp    float64            `json:"ns_per_op"`
	BytesPerOp float64            `json:"bytes_per_op,omitempty"`
	AllocsOp   float64            `json:"allocs_per_op"`
	Metrics    map[string]float64 `json:"metrics,omitempty"`
}

// output is the whole trajectory document.
type output struct {
	CPUs    int             `json:"cpus"`
	CPUNote string          `json:"cpu_note,omitempty"`
	Results []result        `json:"results"`
	Derived derived         `json:"derived"`
	Loadgen json.RawMessage `json:"loadgen,omitempty"`
}

type derived struct {
	// SpeedupWorkers4 maps graph size ("n64") to serial ns/op divided by
	// 4-worker ns/op for BenchmarkSimilarityIndexSized.
	SpeedupWorkers4 map[string]float64 `json:"speedup_workers4,omitempty"`
	// EMDAllocsChecked/Solver are allocs/op of the checked EMD wrapper and
	// the reusable EMDSolver; Ratio is checked / max(solver, 1).
	EMDAllocsChecked float64 `json:"emd_allocs_checked"`
	EMDAllocsSolver  float64 `json:"emd_allocs_solver"`
	EMDAllocsRatio   float64 `json:"emd_allocs_ratio"`
	// MetricsDisabledAllocs/MetricsHotAllocs are allocs/op of the
	// nil-registry off path (BenchmarkRegistryDisabled) and the live
	// cached-handle path (BenchmarkCounterVecHot). Both are contractually
	// zero; run() fails the whole conversion when either regresses.
	MetricsDisabledAllocs *float64 `json:"metrics_disabled_allocs,omitempty"`
	MetricsHotAllocs      *float64 `json:"metrics_hot_allocs,omitempty"`
	// MetricsLookupNs is ns/op of the uncached WithLabelValues lookup
	// (BenchmarkCounterVecLookup), tracked so map-path regressions show
	// up in the trajectory.
	MetricsLookupNs *float64 `json:"metrics_lookup_ns,omitempty"`
	// Twin batch engine (BenchmarkBatchedStep): cohort size per op, the
	// derived single-core throughput twins·steps/sec (one op advances the
	// whole cohort one step, so twins/op ÷ ns/op · 1e9), and allocs per
	// lockstep tick — contractually zero; run() fails on a regression.
	TwinTwinsPerOp         *float64 `json:"twin_twins_per_op,omitempty"`
	TwinStepsPerSecPerCore *float64 `json:"twin_steps_per_sec_per_core,omitempty"`
	TwinAllocsPerStep      *float64 `json:"twin_allocs_per_step,omitempty"`
	// Telemetry store scrape tick (BenchmarkStoreSample): ns per full
	// registry sample and allocs per tick — contractually zero
	// (TestSamplePathAllocFree pins it in-package); run() fails on a
	// regression.
	TsdbSampleNs     *float64 `json:"tsdb_sample_ns,omitempty"`
	TsdbSampleAllocs *float64 `json:"tsdb_sample_allocs,omitempty"`
	// Unsampled request-trace path (BenchmarkTraceUnsampled): ns and
	// allocs to tail-drop a healthy trace — contractually zero allocs, it
	// runs for every untraced-or-dropped request; run() fails on a
	// regression.
	TraceUnsampledNs     *float64 `json:"trace_unsampled_ns,omitempty"`
	TraceUnsampledAllocs *float64 `json:"trace_unsampled_allocs,omitempty"`
	// Serving hot path (BenchmarkAdmissionPath): ns and allocs for a
	// cache-hit submission — contractually zero allocs at steady state
	// (TestCacheHitSubmitAllocFree pins it in-package); run() hard-fails
	// the trajectory on a regression. Key is the canonicalize+hash cost
	// every request pays.
	ServeHitNs         *float64 `json:"serve_hit_ns,omitempty"`
	ServeHitAllocs     *float64 `json:"serve_hit_allocs,omitempty"`
	ServeHitParallelNs *float64 `json:"serve_hit_parallel_ns,omitempty"`
	ServeKeyNs         *float64 `json:"serve_key_ns,omitempty"`
	// Result cache (BenchmarkCache): uncontended get cost, gated at 0
	// allocs/op like the hit path.
	CacheGetNs     *float64 `json:"cache_get_ns,omitempty"`
	CacheGetAllocs *float64 `json:"cache_get_allocs,omitempty"`
}

// benchLine matches "BenchmarkName[-P]  <iters>  <value> <unit> ...".
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+(.*)$`)

func main() {
	loadgen := flag.String("loadgen", "", "path to a capman-loadgen JSON report to embed under \"loadgen\"")
	compare := flag.String("compare", "", "path to a committed BENCH_*.json: report ns/op deltas against it and fail on any allocs/op increase")
	flag.Parse()
	var err error
	if *compare != "" {
		err = runCompare(os.Stdin, os.Stdout, *compare)
	} else {
		err = run(os.Stdin, os.Stdout, *loadgen)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// run converts the benchmark output read from in into the trajectory
// document written to w, failing on any broken zero-alloc gate.
func run(in io.Reader, w io.Writer, loadgenPath string) error {
	var out output
	out.CPUs = runtime.NumCPU()
	if out.CPUs < 4 {
		out.CPUNote = fmt.Sprintf("only %d CPU(s) available: parallel speedup is bounded by the core count, not the engine", out.CPUs)
	}
	var err error
	if out.Results, err = parseBench(in); err != nil {
		return err
	}
	out.Derived = deriveMetrics(out.Results)
	// The metrics hot paths are allocation-free by contract (also enforced
	// by TestDisabledPathAllocFree / TestCachedHandleAllocFree); fail the
	// trajectory rather than quietly recording a regression.
	if a := out.Derived.MetricsDisabledAllocs; a != nil && *a != 0 {
		return fmt.Errorf("BenchmarkRegistryDisabled allocates %g/op, want 0", *a)
	}
	if a := out.Derived.MetricsHotAllocs; a != nil && *a != 0 {
		return fmt.Errorf("BenchmarkCounterVecHot allocates %g/op, want 0", *a)
	}
	// The twin lockstep kernel is likewise allocation-free by contract
	// (TestBatchedStepAllocFree pins it in-package).
	if a := out.Derived.TwinAllocsPerStep; a != nil && *a != 0 {
		return fmt.Errorf("BenchmarkBatchedStep allocates %g/op, want 0", *a)
	}
	// The telemetry store's sample path must never allocate: it runs every
	// scrape tick for the lifetime of the daemon.
	if a := out.Derived.TsdbSampleAllocs; a != nil && *a != 0 {
		return fmt.Errorf("BenchmarkStoreSample allocates %g/op, want 0", *a)
	}
	// The serving hot path is the tentpole contract: a cache-hit
	// submission and an uncontended cache read are allocation-free at
	// steady state. Single-iteration (-benchtime 1x) smoke runs are
	// exempt — at N=1 the testing framework's own bookkeeping pollutes
	// allocs/op — so the gate binds whenever the benchmark actually
	// iterated.
	iters := map[string]int64{}
	for _, r := range out.Results {
		iters[r.Name] = r.Iterations
	}
	if a := out.Derived.ServeHitAllocs; a != nil && *a != 0 && iters["BenchmarkAdmissionPath/hit"] > 1 {
		return fmt.Errorf("BenchmarkAdmissionPath/hit allocates %g/op, want 0 (cache-hit serving path regressed)", *a)
	}
	if a := out.Derived.CacheGetAllocs; a != nil && *a != 0 && iters["BenchmarkCache/get"] > 1 {
		return fmt.Errorf("BenchmarkCache/get allocates %g/op, want 0", *a)
	}
	// The unsampled trace path rides the same hot path as admission: a
	// tail-drop decision must never touch the heap.
	if a := out.Derived.TraceUnsampledAllocs; a != nil && *a != 0 && iters["BenchmarkTraceUnsampled"] > 1 {
		return fmt.Errorf("BenchmarkTraceUnsampled allocates %g/op, want 0 (unsampled trace path regressed)", *a)
	}

	if loadgenPath != "" {
		raw, err := os.ReadFile(loadgenPath)
		if err != nil {
			return fmt.Errorf("loadgen report: %w", err)
		}
		if !json.Valid(raw) {
			return fmt.Errorf("loadgen report %s is not valid JSON", loadgenPath)
		}
		out.Loadgen = json.RawMessage(raw)
	}

	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// parseBench reads the benchmark result lines of `go test -bench`
// output; at least one is required.
func parseBench(in io.Reader) ([]result, error) {
	var results []result
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		r := result{Name: m[1], Metrics: map[string]float64{}}
		var err error
		if r.Iterations, err = strconv.ParseInt(m[2], 10, 64); err != nil {
			return nil, fmt.Errorf("line %q: %w", sc.Text(), err)
		}
		fields := strings.Fields(m[3])
		for i := 0; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("line %q: field %q: %w", sc.Text(), fields[i], err)
			}
			switch fields[i+1] {
			case "ns/op":
				r.NsPerOp = v
			case "B/op":
				r.BytesPerOp = v
			case "allocs/op":
				r.AllocsOp = v
			default:
				r.Metrics[fields[i+1]] = v
			}
		}
		if len(r.Metrics) == 0 {
			r.Metrics = nil
		}
		results = append(results, r)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(results) == 0 {
		return nil, fmt.Errorf("no benchmark lines on stdin")
	}
	return results, nil
}

// runCompare reports the benchmarks read from in against the same-named
// results of the committed trajectory at basePath: ns/op old, new and
// delta, allocs/op old and new. Benchmarks the committed file lacks are
// listed as new. It fails when any benchmark allocates more per op than
// its committed result, unless either side ran a single iteration (a
// -benchtime 1x smoke line, whose allocs/op the testing framework's own
// bookkeeping pollutes).
func runCompare(in io.Reader, w io.Writer, basePath string) error {
	results, err := parseBench(in)
	if err != nil {
		return err
	}
	raw, err := os.ReadFile(basePath)
	if err != nil {
		return err
	}
	var base output
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("%s: %w", basePath, err)
	}
	old := map[string]result{}
	for _, r := range base.Results {
		old[r.Name] = r
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "benchmark\told ns/op\tnew ns/op\tdelta\told allocs/op\tnew allocs/op\t")
	var regressed []string
	for _, r := range results {
		o, ok := old[r.Name]
		if !ok {
			fmt.Fprintf(tw, "%s\t-\t%.4g\tnew\t-\t%g\t\n", r.Name, r.NsPerOp, r.AllocsOp)
			continue
		}
		delta := "-"
		if o.NsPerOp > 0 {
			delta = fmt.Sprintf("%+.1f%%", (r.NsPerOp/o.NsPerOp-1)*100)
		}
		fmt.Fprintf(tw, "%s\t%.4g\t%.4g\t%s\t%g\t%g\t\n", r.Name, o.NsPerOp, r.NsPerOp, delta, o.AllocsOp, r.AllocsOp)
		if r.AllocsOp > o.AllocsOp && r.Iterations > 1 && o.Iterations > 1 {
			regressed = append(regressed, fmt.Sprintf("%s %g -> %g allocs/op", r.Name, o.AllocsOp, r.AllocsOp))
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if len(regressed) > 0 {
		return fmt.Errorf("allocs/op increased against %s: %s", basePath, strings.Join(regressed, "; "))
	}
	return nil
}

func deriveMetrics(results []result) derived {
	var d derived
	byName := map[string]result{}
	for _, r := range results {
		byName[r.Name] = r
	}
	for name, r := range byName {
		const prefix = "BenchmarkSimilarityIndexSized/"
		if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, "/workers1") {
			continue
		}
		size := strings.TrimSuffix(strings.TrimPrefix(name, prefix), "/workers1")
		par, ok := byName[prefix+size+"/workers4"]
		if !ok || par.NsPerOp == 0 {
			continue
		}
		if d.SpeedupWorkers4 == nil {
			d.SpeedupWorkers4 = map[string]float64{}
		}
		d.SpeedupWorkers4[size] = r.NsPerOp / par.NsPerOp
	}
	if r, ok := byName["BenchmarkRegistryDisabled"]; ok {
		v := r.AllocsOp
		d.MetricsDisabledAllocs = &v
	}
	if r, ok := byName["BenchmarkCounterVecHot"]; ok {
		v := r.AllocsOp
		d.MetricsHotAllocs = &v
	}
	if r, ok := byName["BenchmarkCounterVecLookup"]; ok {
		v := r.NsPerOp
		d.MetricsLookupNs = &v
	}
	if r, ok := byName["BenchmarkBatchedStep"]; ok {
		twins := r.Metrics["twins/op"]
		d.TwinTwinsPerOp = &twins
		allocs := r.AllocsOp
		d.TwinAllocsPerStep = &allocs
		if r.NsPerOp > 0 {
			throughput := twins / r.NsPerOp * 1e9
			d.TwinStepsPerSecPerCore = &throughput
		}
	}
	if r, ok := byName["BenchmarkStoreSample"]; ok {
		ns, allocs := r.NsPerOp, r.AllocsOp
		d.TsdbSampleNs = &ns
		d.TsdbSampleAllocs = &allocs
	}
	if r, ok := byName["BenchmarkTraceUnsampled"]; ok {
		ns, allocs := r.NsPerOp, r.AllocsOp
		d.TraceUnsampledNs = &ns
		d.TraceUnsampledAllocs = &allocs
	}
	if r, ok := byName["BenchmarkAdmissionPath/hit"]; ok {
		ns, allocs := r.NsPerOp, r.AllocsOp
		d.ServeHitNs = &ns
		d.ServeHitAllocs = &allocs
	}
	if r, ok := byName["BenchmarkAdmissionPath/hit-parallel"]; ok {
		ns := r.NsPerOp
		d.ServeHitParallelNs = &ns
	}
	if r, ok := byName["BenchmarkAdmissionPath/key"]; ok {
		ns := r.NsPerOp
		d.ServeKeyNs = &ns
	}
	if r, ok := byName["BenchmarkCache/get"]; ok {
		ns, allocs := r.NsPerOp, r.AllocsOp
		d.CacheGetNs = &ns
		d.CacheGetAllocs = &allocs
	}
	if emd, ok := byName["BenchmarkEMD"]; ok {
		d.EMDAllocsChecked = emd.AllocsOp
		if solver, ok := byName["BenchmarkEMDSolver"]; ok {
			d.EMDAllocsSolver = solver.AllocsOp
			div := solver.AllocsOp
			if div < 1 {
				div = 1
			}
			d.EMDAllocsRatio = emd.AllocsOp / div
		}
	}
	return d
}
