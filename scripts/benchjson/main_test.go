package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// convert runs the tool over canned `go test -bench` output and decodes
// the trajectory document it writes.
func convert(t *testing.T, bench, loadgenPath string) (output, []byte, error) {
	t.Helper()
	var buf bytes.Buffer
	if err := run(strings.NewReader(bench), &buf, loadgenPath); err != nil {
		return output{}, nil, err
	}
	var doc output
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("tool wrote invalid JSON: %v\n%s", err, buf.Bytes())
	}
	return doc, buf.Bytes(), nil
}

const cannedBench = `goos: linux
goarch: amd64
pkg: repro/internal/simstruct
BenchmarkEMD-2                                    	   10000	    123456 ns/op	    4096 B/op	      42 allocs/op
BenchmarkEMDSolver-2                              	   20000	     60000 ns/op	       0 B/op	       0 allocs/op
BenchmarkSimilarityIndexSized/n64/workers1-2      	     100	   2000000 ns/op	    1024 B/op	      10 allocs/op
BenchmarkSimilarityIndexSized/n64/workers4-2      	     400	    500000 ns/op	    1024 B/op	      10 allocs/op
BenchmarkBatchedStep-2                            	    1000	     51200 ns/op	       512.0 twins/op	       0 B/op	       0 allocs/op
BenchmarkRegistryDisabled-2                       	 5000000	         2.5 ns/op	       0 B/op	       0 allocs/op
BenchmarkCounterVecHot-2                          	 5000000	         9.0 ns/op	       0 B/op	       0 allocs/op
PASS
ok  	repro/internal/simstruct	12.3s
`

func TestParsesBenchLines(t *testing.T) {
	doc, _, err := convert(t, cannedBench, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Results) != 7 {
		t.Fatalf("parsed %d results, want 7 (non-benchmark lines skipped): %+v", len(doc.Results), doc.Results)
	}
	emd := doc.Results[0]
	if emd.Name != "BenchmarkEMD" || emd.Iterations != 10000 || emd.NsPerOp != 123456 ||
		emd.BytesPerOp != 4096 || emd.AllocsOp != 42 || emd.Metrics != nil {
		t.Errorf("BenchmarkEMD = %+v", emd)
	}
	if got := doc.Results[2].Name; got != "BenchmarkSimilarityIndexSized/n64/workers1" {
		t.Errorf("sub-benchmark name = %q, GOMAXPROCS suffix not stripped", got)
	}
	twin := doc.Results[4]
	if twin.Name != "BenchmarkBatchedStep" || twin.NsPerOp != 51200 || twin.Metrics["twins/op"] != 512 {
		t.Errorf("custom metric not parsed: %+v", twin)
	}
}

func TestDerivedMetrics(t *testing.T) {
	doc, _, err := convert(t, cannedBench, "")
	if err != nil {
		t.Fatal(err)
	}
	d := doc.Derived
	if got := d.SpeedupWorkers4["n64"]; got != 4 {
		t.Errorf("speedup_workers4[n64] = %g, want 4 (serial ns / 4-worker ns)", got)
	}
	// A zero-alloc solver divides by 1, not 0.
	if d.EMDAllocsChecked != 42 || d.EMDAllocsSolver != 0 || d.EMDAllocsRatio != 42 {
		t.Errorf("EMD allocs checked/solver/ratio = %g/%g/%g, want 42/0/42",
			d.EMDAllocsChecked, d.EMDAllocsSolver, d.EMDAllocsRatio)
	}
	if d.TwinStepsPerSecPerCore == nil || *d.TwinStepsPerSecPerCore != 1e7 {
		t.Errorf("twin steps/s/core = %v, want 1e7 (512 twins / 51200 ns)", d.TwinStepsPerSecPerCore)
	}
	if d.MetricsDisabledAllocs == nil || *d.MetricsDisabledAllocs != 0 ||
		d.MetricsHotAllocs == nil || *d.MetricsHotAllocs != 0 {
		t.Errorf("metrics alloc gates not recorded: disabled=%v hot=%v", d.MetricsDisabledAllocs, d.MetricsHotAllocs)
	}
}

func TestZeroAllocGatesFailConversion(t *testing.T) {
	for _, bench := range []string{"BenchmarkRegistryDisabled", "BenchmarkCounterVecHot"} {
		var regressed []string
		for _, line := range strings.Split(cannedBench, "\n") {
			if strings.HasPrefix(line, bench+"-") {
				line = strings.Replace(line, "0 allocs/op", "1 allocs/op", 1)
			}
			regressed = append(regressed, line)
		}
		_, _, err := convert(t, strings.Join(regressed, "\n"), "")
		if err == nil || !strings.Contains(err.Error(), bench) {
			t.Errorf("%s at 1 allocs/op: err = %v, want a gate failure naming it", bench, err)
		}
	}
	// The serving hit-path gate binds only when the benchmark iterated:
	// a -benchtime 1x smoke line is exempt, a real run is not.
	smoke := "BenchmarkAdmissionPath/hit-2 \t 1 \t 900 ns/op \t 64 B/op \t 3 allocs/op\n"
	if _, _, err := convert(t, smoke, ""); err != nil {
		t.Errorf("single-iteration smoke run failed the hit gate: %v", err)
	}
	iterated := "BenchmarkAdmissionPath/hit-2 \t 100000 \t 900 ns/op \t 64 B/op \t 3 allocs/op\n"
	if _, _, err := convert(t, iterated, ""); err == nil {
		t.Error("allocating hit path passed the gate")
	}
	if _, _, err := convert(t, "PASS\nok repro 0.1s\n", ""); err == nil {
		t.Error("input without benchmark lines converted")
	}
}

// TestCacheGetGate: BenchmarkCache/get is recorded as cache_get_ns and
// cache_get_allocs, and an iterated run that allocates fails conversion.
func TestCacheGetGate(t *testing.T) {
	clean := "BenchmarkCache/get-2 \t 1000000 \t 35.5 ns/op \t 0 B/op \t 0 allocs/op\n"
	doc, _, err := convert(t, clean, "")
	if err != nil {
		t.Fatal(err)
	}
	d := doc.Derived
	if d.CacheGetNs == nil || *d.CacheGetNs != 35.5 || d.CacheGetAllocs == nil || *d.CacheGetAllocs != 0 {
		t.Errorf("cache get ns/allocs = %v/%v, want 35.5/0", d.CacheGetNs, d.CacheGetAllocs)
	}
	regressed := strings.Replace(clean, "0 allocs/op", "1 allocs/op", 1)
	if _, _, err := convert(t, regressed, ""); err == nil || !strings.Contains(err.Error(), "BenchmarkCache/get") {
		t.Errorf("allocating cache get: err = %v, want a gate failure naming it", err)
	}
	smoke := strings.Replace(regressed, "1000000", "1", 1)
	if _, _, err := convert(t, smoke, ""); err != nil {
		t.Errorf("single-iteration smoke run failed the cache gate: %v", err)
	}
}

func TestLoadgenEmbeddedVerbatim(t *testing.T) {
	dir := t.TempDir()
	report := []byte(`{"zeta": 1.50, "alpha": {"rps": 12345.0, "errors": 0}, "list": [3, 1, 2]}`)
	path := filepath.Join(dir, "loadgen.json")
	if err := os.WriteFile(path, report, 0o644); err != nil {
		t.Fatal(err)
	}
	_, raw, err := convert(t, cannedBench, path)
	if err != nil {
		t.Fatal(err)
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(raw, &top); err != nil {
		t.Fatal(err)
	}
	// Key order and number spelling survive: only whitespace may differ.
	var want, got bytes.Buffer
	if err := json.Compact(&want, report); err != nil {
		t.Fatal(err)
	}
	if err := json.Compact(&got, top["loadgen"]); err != nil {
		t.Fatal(err)
	}
	if want.String() != got.String() {
		t.Errorf("loadgen embedded as %s, want %s", got.String(), want.String())
	}

	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"rps":`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := convert(t, cannedBench, bad); err == nil {
		t.Error("invalid loadgen JSON embedded")
	}
	if _, _, err := convert(t, cannedBench, filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing loadgen report accepted")
	}
}

// compareRun writes committed bench output as a trajectory document, then
// runs -compare against it with bench on stdin. rows maps each reported
// benchmark to its fields: name, old ns/op, new ns/op, delta, old and new
// allocs/op.
func compareRun(t *testing.T, committed, bench string) (map[string][]string, error) {
	t.Helper()
	_, raw, err := convert(t, committed, "")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "BENCH_committed.json")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	err = runCompare(strings.NewReader(bench), &buf, path)
	rows := map[string][]string{}
	for _, line := range strings.Split(buf.String(), "\n") {
		if f := strings.Fields(line); len(f) > 0 && strings.HasPrefix(f[0], "Benchmark") {
			rows[f[0]] = f
		}
	}
	return rows, err
}

func TestCompareAgainstCommitted(t *testing.T) {
	// A matching file: every benchmark reported, no change, no failure.
	rows, err := compareRun(t, cannedBench, cannedBench)
	if err != nil {
		t.Fatalf("identical runs failed the comparison: %v", err)
	}
	if len(rows) != 7 {
		t.Errorf("reported %d benchmarks, want 7: %v", len(rows), rows)
	}
	if got := rows["BenchmarkEMD"]; len(got) != 6 || got[3] != "+0.0%" {
		t.Errorf("BenchmarkEMD row = %q, want a +0.0%% delta", got)
	}

	// An ns/op change is reported, never gated: twice as slow still passes.
	slower := strings.Replace(cannedBench, "123456 ns/op", "246912 ns/op", 1)
	rows, err = compareRun(t, cannedBench, slower)
	if err != nil {
		t.Fatalf("an ns/op change failed the comparison: %v", err)
	}
	if got := rows["BenchmarkEMD"]; len(got) != 6 || got[3] != "+100.0%" {
		t.Errorf("BenchmarkEMD row = %q, want a +100.0%% delta", got)
	}

	// Any allocs/op increase fails and names the benchmark; a decrease passes.
	more := strings.Replace(cannedBench, "42 allocs/op", "43 allocs/op", 1)
	if _, err := compareRun(t, cannedBench, more); err == nil || !strings.Contains(err.Error(), "BenchmarkEMD 42 -> 43") {
		t.Errorf("allocs regression: err = %v, want a failure naming BenchmarkEMD 42 -> 43", err)
	}
	if _, err := compareRun(t, more, cannedBench); err != nil {
		t.Errorf("allocs decrease failed the comparison: %v", err)
	}

	// A benchmark the committed file lacks is listed as new; a
	// single-iteration smoke line is exempt from the allocs gate.
	extra := "BenchmarkHTTPHit-2 \t 1000 \t 9000 ns/op \t 7000 B/op \t 23 allocs/op\n" +
		"BenchmarkEMDSolver-2 \t 1 \t 60000 ns/op \t 64 B/op \t 3 allocs/op\n"
	rows, err = compareRun(t, cannedBench, extra)
	if err != nil {
		t.Errorf("new benchmark or smoke line failed the comparison: %v", err)
	}
	if got := rows["BenchmarkHTTPHit"]; len(got) < 4 || got[3] != "new" {
		t.Errorf("BenchmarkHTTPHit row = %q, want it listed as new", got)
	}

	if err := runCompare(strings.NewReader(cannedBench), io.Discard, filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing committed file accepted")
	}
}
