package main

import (
	"testing"
	"time"
)

func TestCoveredMergesOverlaps(t *testing.T) {
	ivs := [][2]int64{{10, 20}, {15, 30}, {40, 50}, {45, 120}}
	if got := covered(0, 100, ivs); got != 20+60 {
		t.Fatalf("covered = %d, want 80", got)
	}
	if got := covered(0, 100, nil); got != 0 {
		t.Fatalf("covered of nothing = %d", got)
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	tr := newTracer()
	t0 := tr.epoch
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	op := tr.newOp()
	root := tr.add(op, 0, "op.job", at(0), at(100), 0)
	tr.add(op, root, "post", at(0), at(10), 0)
	tr.add(op, root, "queue", at(5), at(20), 0)
	run := tr.add(op, root, "run", at(20), at(90), 0)
	tr.aggregate(op, run, at(20), []layerTotal{{"policy.decide", 30 * time.Millisecond, 7}, {"workload.next", 10 * time.Millisecond, 7}})
	self := selfTimes(tr.spans)
	want := map[string]int64{"op.job": 10e6, "post": 10e6, "queue": 15e6, "run": 30e6, "policy.decide": 30e6, "workload.next": 10e6}
	for i, s := range tr.spans {
		if self[i] != want[s.Name] {
			t.Errorf("%s self %d ns, want %d", s.Name, self[i], want[s.Name])
		}
		if s.Op != op {
			t.Errorf("%s carries op %d, want %d", s.Name, s.Op, op)
		}
	}
	var nilTracer *tracer
	if nilTracer.add(1, 0, "x", t0, t0, 0) != 0 || nilTracer.newOp() != 0 {
		t.Fatal("nil tracer recorded")
	}
}
