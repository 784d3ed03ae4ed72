package main

import (
	"testing"

	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/twin"
)

func TestCanonicalOutcomeIgnoresTiming(t *testing.T) {
	bare := &server.Outcome{Run: &sim.Result{Policy: "CAPMAN", Steps: 8000, ServiceTimeS: 1234.5}}
	timed := &server.Outcome{Run: &sim.Result{Policy: "CAPMAN", Steps: 8000, ServiceTimeS: 1234.5,
		Timing: &sim.Timing{PolicyS: 0.25, BatteryS: 0.5}}}
	a, err := outcomeHash(bare)
	if err != nil {
		t.Fatal(err)
	}
	b, err := outcomeHash(timed)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("Timing changed the outcome hash")
	}
	if timed.Run.Timing == nil {
		t.Fatal("canonicalOutcome cleared Timing on the caller's outcome")
	}
	other := &server.Outcome{Run: &sim.Result{Policy: "CAPMAN", Steps: 8001, ServiceTimeS: 1234.5}}
	if c, _ := outcomeHash(other); c == a {
		t.Fatal("different results hash alike")
	}
	tte := &server.Outcome{TTE: &twin.Summary{Twins: 512, TTEP50S: 600}}
	if c, _ := outcomeHash(tte); c == a {
		t.Fatal("a tte outcome hashed like a sim outcome")
	}
}

func TestDigestIgnoresOrder(t *testing.T) {
	var d1, d2, d3 digest
	d1.add("s1", "o1")
	d1.add("s2", "o2")
	d1.add("s3", "o3")
	d2.add("s3", "o3")
	d2.add("s1", "o1")
	d2.add("s2", "o2")
	if d1.sum() != d2.sum() {
		t.Fatal("digest depends on completion order")
	}
	d3.add("s1", "o1")
	d3.add("s2", "o3")
	d3.add("s3", "o2")
	if d1.sum() == d3.sum() {
		t.Fatal("digest missed swapped outcomes")
	}
	if d1.pairs[0] != "s1:o1" {
		t.Fatal("sum reordered the recorded pairs")
	}
}

func TestOutcomeHashRejectsNil(t *testing.T) {
	if _, err := outcomeHash(nil); err == nil {
		t.Fatal("nil outcome hashed")
	}
}
