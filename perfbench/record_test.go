package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// benchmarkFile is the repository's BENCHMARK.json, whose metric lists
// the program must report exactly.
type benchmarkFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

func TestRecordMatchesWorkloadTable(t *testing.T) {
	rec, err := loadRecord()
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Workloads) != len(workloadDefs) {
		t.Fatalf("record.json has %d workloads, gen.go %d", len(rec.Workloads), len(workloadDefs))
	}
	var gated []string
	for i, w := range rec.Workloads {
		d := workloadDefs[i]
		if w.Name != d.name || w.Loop != d.loop || w.Clients != d.clients ||
			w.RatePerS != d.rate || w.LatencyLimitMs != d.limitMs {
			t.Errorf("record.json workload %d = %+v, gen.go %+v", i, w, d)
		}
		if w.Gated {
			gated = append(gated, w.Name)
		}
	}
	var listed []string
	for _, w := range loadBenchmarkFile(t).Workloads {
		listed = append(listed, w.Name)
	}
	if strings.Join(gated, ",") != strings.Join(listed, ",") {
		t.Errorf("BENCHMARK.json lists %v, record.json gates %v", listed, gated)
	}
}

func TestRecordLayersMatchBenchmarkFile(t *testing.T) {
	rec, err := loadRecord()
	if err != nil {
		t.Fatal(err)
	}
	bf := loadBenchmarkFile(t)
	var inRecord, inFile []string
	for _, l := range rec.Layers {
		inRecord = append(inRecord, l.Metrics...)
	}
	for _, m := range bf.PerLayer {
		inFile = append(inFile, m.Name)
	}
	sort.Strings(inRecord)
	sort.Strings(inFile)
	if strings.Join(inRecord, ",") != strings.Join(inFile, ",") {
		t.Fatalf("record.json layers list\n%v\nBENCHMARK.json per_layer lists\n%v", inRecord, inFile)
	}
	var e2e []string
	for _, m := range rec.EndToEnd {
		e2e = append(e2e, m.Name+" "+m.Unit)
	}
	var fileE2E []string
	for _, m := range bf.EndToEnd {
		fileE2E = append(fileE2E, m.Name+" "+m.Unit)
	}
	sort.Strings(e2e)
	sort.Strings(fileE2E)
	if strings.Join(e2e, ",") != strings.Join(fileE2E, ",") {
		t.Fatalf("record.json end_to_end %v, BENCHMARK.json %v", e2e, fileE2E)
	}
}

// runOnce runs the benchmark in-process and decodes its last line.
func runOnce(t *testing.T, args ...string) (result, string) {
	t.Helper()
	var out, errOut bytes.Buffer
	if code := run(args, &out, &errOut); code != 0 {
		t.Fatalf("exit %d\n%s\n%s", code, out.String(), errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result: %v", err)
	}
	return res, out.String()
}

func assertMetrics(t *testing.T, got map[string]metric, want []struct{ Name, Unit string }) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("reported %d metrics, BENCHMARK.json lists %d", len(got), len(want))
	}
	for _, w := range want {
		m, ok := got[w.Name]
		if !ok {
			t.Errorf("metric %s missing", w.Name)
			continue
		}
		if m.Unit != w.Unit {
			t.Errorf("metric %s: unit %q, BENCHMARK.json says %q", w.Name, m.Unit, w.Unit)
		}
	}
}

func TestRunsReportEveryListedMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the daemon and the direct-call layers")
	}
	bf := loadBenchmarkFile(t)
	res, out := runOnce(t, "--workload", "tte-miss", "--seed", "3", "--seconds", "1", "--trace", "0")
	if !res.Correct || res.Attempted != 2 || res.Failed != 0 {
		t.Fatalf("tte-miss: %+v", res)
	}
	if !strings.Contains(out, "digest tte-miss ") {
		t.Fatal("no outcome digest printed")
	}
	assertMetrics(t, res.Metrics, bf.EndToEnd)

	spans := filepath.Join(t.TempDir(), "spans.json")
	res, out = runOnce(t, "--workload", "hit-heavy", "--seed", "3", "--seconds", "1", "--trace", "1", "--spans", spans)
	if !res.Correct || res.Failed != 0 {
		t.Fatalf("hit-heavy traced: %+v", res)
	}
	assertMetrics(t, res.Metrics, bf.PerLayer)
	if strings.Contains(out, "missing") || strings.Contains(out, "not in record.json") {
		t.Fatalf("layer listing incomplete:\n%s", out)
	}
	raw, err := os.ReadFile(spans)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Spans []span `json:"spans"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil || len(doc.Spans) == 0 {
		t.Fatalf("span file: %v, %d spans", err, len(doc.Spans))
	}
}
