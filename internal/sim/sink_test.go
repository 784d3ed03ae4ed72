package sim

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/sched"
)

// TestMetricsSinkBitIdentical: a run streaming into a MetricsSink must
// produce the same Result as a bare run — the sink observes, it never
// perturbs, and unlike tracing it must not even populate Timing.
func TestMetricsSinkBitIdentical(t *testing.T) {
	plain, err := Run(tracedConfig(t, sched.NewDual()))
	if err != nil {
		t.Fatal(err)
	}
	cfg := tracedConfig(t, sched.NewDual())
	cfg.Metrics = &MetricsSink{
		DecisionLatency: obs.MustHistogram(obs.LatencyBuckets()...),
		PhaseSeconds:    func(string, float64) {},
		OnDegrade:       func(sched.DegradeEvent) {},
	}
	sunk, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sunk.Timing != nil {
		t.Fatal("MetricsSink populated Result.Timing; only tracing may")
	}
	if !reflect.DeepEqual(plain, sunk) {
		t.Errorf("sink run diverged from bare run:\nplain: %+v\nsunk:  %+v", plain, sunk)
	}
}

// TestMetricsSinkCaptures: the sink receives one decision latency per
// step and the full per-phase wall-clock breakdown at run end.
func TestMetricsSinkCaptures(t *testing.T) {
	lat := obs.MustHistogram(obs.LatencyBuckets()...)
	phases := map[string]float64{}
	cfg := tracedConfig(t, sched.NewDual())
	cfg.Metrics = &MetricsSink{
		DecisionLatency: lat,
		PhaseSeconds:    func(phase string, s float64) { phases[phase] = s },
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// One decision per loop iteration; the final iteration decides and
	// then exhausts the battery before Steps increments, so allow +1.
	if got := lat.Count(); got != uint64(res.Steps) && got != uint64(res.Steps)+1 {
		t.Errorf("decision latencies = %d, want %d or %d", got, res.Steps, res.Steps+1)
	}
	for _, phase := range []string{"workload", "policy", "battery", "thermal", "tec"} {
		if v, ok := phases[phase]; !ok || v < 0 {
			t.Errorf("phase %q: got %v, %v", phase, v, ok)
		}
	}
	if len(phases) != 5 {
		t.Errorf("got %d phases, want 5: %v", len(phases), phases)
	}
}

// cancelAfter wraps a policy and cancels the run's context from inside
// its nth Decide call, so the run aborts at the next step boundary with
// exactly n decisions made.
type cancelAfter struct {
	sched.Policy
	n, decided int
	cancel     context.CancelFunc
}

func (p *cancelAfter) Decide(c sched.Context) sched.Decision {
	p.decided++
	if p.decided == p.n {
		p.cancel()
	}
	return p.Policy.Decide(c)
}

// TestMetricsSinkFlushedOnCancel: a run collects decision latencies in its
// own histogram and folds them into the sink's when it ends, so a run
// cancelled mid-way must still hand over every decision it made.
func TestMetricsSinkFlushedOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	p := &cancelAfter{Policy: sched.NewDual(), n: 1000, cancel: cancel}
	lat := obs.MustHistogram(obs.LatencyBuckets()...)
	cfg := tracedConfig(t, p)
	cfg.Metrics = &MetricsSink{DecisionLatency: lat}
	if _, err := RunContext(ctx, cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("run error = %v, want context.Canceled", err)
	}
	if p.decided != p.n {
		t.Fatalf("run made %d decisions, want %d", p.decided, p.n)
	}
	if got := lat.Count(); got != uint64(p.decided) {
		t.Errorf("sink histogram holds %d decisions, want %d", got, p.decided)
	}
}

// runSpanEvents returns the events on a recorder's sim.run span.
func runSpanEvents(t *testing.T, rec *obs.Recorder) []obs.SpanEvent {
	t.Helper()
	tree := rec.Tree()
	if len(tree) != 1 || tree[0].Name != "sim.run" {
		t.Fatalf("span tree = %+v, want one sim.run root", tree)
	}
	return tree[0].Events
}

// TestSinkAndFlightCaptureDegrades: a stuck-switch run with a sink and an
// ambient span recorder streams degradation transitions into the sink and
// onto the sim.run span, matching what the Result records after the fact.
func TestSinkAndFlightCaptureDegrades(t *testing.T) {
	var streamed []sched.DegradeEvent
	rec := obs.NewRecorder(0)
	cfg := smallConfig(sched.NewDual())
	cfg.Faults = &fault.Plan{
		Name:   "stuck-from-start",
		Switch: []fault.SwitchFault{{StuckAt: true}},
	}
	cfg.Metrics = &MetricsSink{
		OnDegrade: func(ev sched.DegradeEvent) { streamed = append(streamed, ev) },
	}
	res, err := RunContext(obs.WithRecorder(context.Background(), rec), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Degradations) == 0 {
		t.Fatal("run did not degrade; test premise broken")
	}
	if !reflect.DeepEqual(streamed, res.Degradations) {
		t.Errorf("streamed events != recorded events:\nstreamed: %+v\nresult:   %+v",
			streamed, res.Degradations)
	}
	var degrades, notes int
	for _, ev := range runSpanEvents(t, rec) {
		switch ev.Kind {
		case obs.EventDegrade:
			degrades++
			if ev.Name != sched.DegradeStuckSwitch {
				t.Errorf("degrade event mode = %q", ev.Name)
			}
			if ev.Attrs["recovered"] == "" || ev.Attrs["at"] == "" {
				t.Errorf("degrade event attrs incomplete: %v", ev.Attrs)
			}
		case obs.EventNote:
			notes++
		}
	}
	if degrades != len(res.Degradations) {
		t.Errorf("run span holds %d degrade events, want %d", degrades, len(res.Degradations))
	}
	if notes < 2 {
		t.Errorf("run span holds %d run notes, want start+end", notes)
	}
}
