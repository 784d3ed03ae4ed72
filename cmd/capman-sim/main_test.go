package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/obs"
)

func TestRunQuickCycle(t *testing.T) {
	if err := run([]string{"-workload", "video", "-policy", "dual", "-mah", "300"}); err != nil {
		t.Fatalf("dual cycle: %v", err)
	}
}

func TestRunPractice(t *testing.T) {
	if err := run([]string{"-workload", "pcmark", "-policy", "practice", "-mah", "300"}); err != nil {
		t.Fatalf("practice cycle: %v", err)
	}
}

func TestRunThresholdWithSamples(t *testing.T) {
	out := filepath.Join(t.TempDir(), "samples.json")
	err := run([]string{"-workload", "eta:0.5", "-policy", "threshold:1.6",
		"-mah", "300", "-samples", out, "-no-tec"})
	if err != nil {
		t.Fatalf("threshold cycle: %v", err)
	}
	if fi, err := os.Stat(out); err != nil || fi.Size() == 0 {
		t.Errorf("samples file missing or empty: %v", err)
	}
}

func TestRunRejectsBadInput(t *testing.T) {
	cases := [][]string{
		{"-workload", "nope"},
		{"-policy", "nope"},
		{"-phone", "Pixel"},
		{"-workload", "eta:bad"},
		{"-workload", "eta:7"},
		{"-workload", "onoff:bad"},
		{"-workload", "onoff:-2"},
		{"-policy", "threshold:xx"},
	}
	for _, args := range cases {
		if err := run(args); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

func TestRunOnOffWorkload(t *testing.T) {
	if err := run([]string{"-workload", "onoff:30", "-policy", "heuristic",
		"-mah", "200", "-max-time", "3000"}); err != nil {
		t.Fatalf("onoff cycle: %v", err)
	}
}

// TestRunFlightBox: -flight alone writes a black box whose spans carry
// the run's notes and (with -faults) degradation breadcrumbs on the
// sim.run span, under the root span that takes the teed log records.
func TestRunFlightBox(t *testing.T) {
	out := filepath.Join(t.TempDir(), "box.json")
	err := run([]string{"-workload", "video", "-policy", "heuristic",
		"-mah", "600", "-max-time", "20000", "-faults", "stuck-switch",
		"-flight", out, "-log-level", "error"})
	if err != nil {
		t.Fatalf("flight cycle: %v", err)
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var box obs.FlightBox
	if err := json.Unmarshal(raw, &box); err != nil {
		t.Fatalf("flight box is not valid JSON: %v", err)
	}
	if box.Reason == "" || len(box.Spans) != 1 || box.Spans[0].Name != "capman-sim" {
		t.Fatalf("flight box = reason %q, spans %+v; want one capman-sim root", box.Reason, box.Spans)
	}
	var runSpan *obs.SpanNode
	for i, c := range box.Spans[0].Children {
		if c.Name == "sim.run" {
			runSpan = &box.Spans[0].Children[i]
		}
	}
	if runSpan == nil {
		t.Fatal("box carries no sim.run span")
	}
	var degrades, notes int
	for _, ev := range runSpan.Events {
		switch ev.Kind {
		case obs.EventDegrade:
			degrades++
		case obs.EventNote:
			notes++
		}
	}
	if degrades == 0 || notes < 2 {
		t.Errorf("box has %d degrade events and %d notes, want >=1 and >=2", degrades, notes)
	}
	var logs int
	for _, ev := range box.Spans[0].Events {
		if ev.Kind == obs.EventLog {
			logs++
		}
	}
	if logs == 0 {
		t.Error("root span holds no teed log records (the tee sees debug lines below -log-level)")
	}
}
