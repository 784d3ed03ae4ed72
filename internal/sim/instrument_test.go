package sim

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/battery"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/obs"
	"repro/internal/obs/metrics"
	"repro/internal/sched"
	"repro/internal/tec"
	"repro/internal/workload"
)

// tracedConfig is a short, fully featured cycle (TEC on, sampling on).
func tracedConfig(t testing.TB, p sched.Policy) Config {
	t.Helper()
	dev := tec.ATE31()
	pack := battery.DefaultPackConfig()
	pack.Big = battery.MustParams(battery.NCA, 250)
	pack.Little = battery.MustParams(battery.LMO, 250)
	return Config{
		Profile:      device.Nexus(),
		Workload:     func() workload.Generator { return workload.NewVideo(7) },
		Policy:       p,
		Pack:         pack,
		TEC:          &dev,
		DT:           0.25,
		MaxTimeS:     4000,
		SampleEveryS: 50,
	}
}

func capmanPolicy(t testing.TB) *core.Scheduler {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.Seed = 11
	p, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestRunTracedBitIdentical is the acceptance gate for "instrumentation
// never perturbs the physics": the same seeded config produces the same
// Result with and without a recorder, apart from the Timing field.
func TestRunTracedBitIdentical(t *testing.T) {
	plain, err := Run(tracedConfig(t, capmanPolicy(t)))
	if err != nil {
		t.Fatal(err)
	}
	if plain.Timing != nil {
		t.Fatal("untraced run populated Timing")
	}

	cfg := tracedConfig(t, capmanPolicy(t))
	cfg.Recorder = obs.NewRecorder(0)
	traced, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if traced.Timing == nil {
		t.Fatal("traced run did not populate Timing")
	}
	stripped := *traced
	stripped.Timing = nil
	if !reflect.DeepEqual(plain, &stripped) {
		t.Errorf("traced result diverged from untraced run:\nplain:  %+v\ntraced: %+v", plain, &stripped)
	}
}

func TestRunRecordsTimingAndSpanTree(t *testing.T) {
	rec := obs.NewRecorder(0)
	cfg := tracedConfig(t, sched.NewDual())
	cfg.Recorder = rec
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tm := res.Timing
	if tm == nil {
		t.Fatal("no Timing on traced run")
	}
	// One decision per loop iteration: the final iteration can decide and
	// then break on exhaustion before its step is counted, so the
	// histogram holds Steps or Steps+1 observations.
	if got := tm.DecisionLatency.Count; got != uint64(res.Steps) && got != uint64(res.Steps)+1 {
		t.Errorf("decision latency count = %d, want %d or %d", got, res.Steps, res.Steps+1)
	}
	if tm.PolicyS < 0 || tm.WorkloadS < 0 || tm.BatteryS < 0 || tm.ThermalS < 0 || tm.TECS < 0 {
		t.Errorf("negative phase total: %+v", tm)
	}
	if tm.DecisionLatency.Sum > tm.PolicyS+1e-9 {
		t.Errorf("decision time %v exceeds the whole policy phase %v", tm.DecisionLatency.Sum, tm.PolicyS)
	}

	tree := rec.Tree()
	if len(tree) != 1 || tree[0].Name != "sim.run" {
		t.Fatalf("span tree roots = %+v, want one sim.run", tree)
	}
	root := tree[0]
	if root.InProgress {
		t.Error("run span left open")
	}
	if root.Attrs["policy"] != "Dual" || root.Attrs["steps"] != res.Steps {
		t.Errorf("run span attrs = %v", root.Attrs)
	}
	phases := map[string]bool{}
	for _, c := range root.Children {
		phases[c.Name] = true
	}
	for _, want := range []string{"phase:workload", "phase:policy", "phase:battery", "phase:thermal", "phase:tec"} {
		if !phases[want] {
			t.Errorf("span tree missing %s (got %v)", want, phases)
		}
	}
}

// TestPhaseEstimateSampling drives a stepTimer through the run loop's
// begin/lap sequence on a fake clock that charges fixed per-phase costs,
// untimed work between phases, and a 24 µs spike inside Decide every 240
// steps: CAPMAN re-solves its MDP from Decide once a minute, which is
// every 240 steps at dt 0.25. 240 is a multiple of the stride, so each
// start offset either times every spike or none of them; both must leave
// the policy estimate on the true total, because Decide is timed on every
// step and only the policy phase's non-Decide rest is scaled. The
// workload phase also carries a synthetic random jitter of up to 200 ns
// per step, which the 1500 sampled steps must average to within the 2%
// tolerance (about five standard errors); the other phases cost the same
// on every step, so their estimates are exact.
func TestPhaseEstimateSampling(t *testing.T) {
	cost := [numPhases]time.Duration{
		phaseWorkload: 300, phasePolicy: 200, phaseBattery: 150, phaseThermal: 100, phaseTEC: 50,
	}
	const (
		steps  = 240 * 100
		decide = 80 * time.Nanosecond
		spike  = 24 * time.Microsecond // CAPMAN's refresh, 100 ns per step on average
		gap    = 40 * time.Nanosecond  // untimed work between phases
		tol    = 0.02
	)
	for offset := 0; offset < phaseSampleEvery; offset++ {
		var clock time.Duration
		tm := newStepTimer(nil)
		tm.now = func() time.Duration { return clock }
		tm.offset = offset
		jitter := rand.New(rand.NewSource(int64(offset)))

		var truth [numPhases]time.Duration
		var decideTruth time.Duration
		charge := func(p stepPhase, d time.Duration) {
			t0 := tm.begin()
			clock += d
			truth[p] += d
			tm.lap(p, t0)
			clock += gap
		}
		for k := 0; k < steps; k++ {
			tm.step()
			charge(phaseWorkload, cost[phaseWorkload]+time.Duration(jitter.Intn(200)))
			charge(phaseThermal, cost[phaseThermal])
			charge(phaseTEC, cost[phaseTEC])
			charge(phaseBattery, cost[phaseBattery])

			d := decide
			if k%240 == 0 {
				d += spike
			}
			t0 := tm.begin()
			clock += cost[phasePolicy]
			d0 := tm.beginDecision()
			clock += d
			tm.lapDecision(d0)
			tm.lap(phasePolicy, t0)
			truth[phasePolicy] += cost[phasePolicy] + d
			decideTruth += d
			clock += gap
		}

		tg := tm.timing()
		if tg.DecisionLatency.Count != steps {
			t.Errorf("offset %d: decision count = %d, want every one of %d steps", offset, tg.DecisionLatency.Count, steps)
		}
		if want := decideTruth.Seconds(); math.Abs(tg.DecisionLatency.Sum-want) > 1e-9*want {
			t.Errorf("offset %d: decision sum = %v, want exactly %v", offset, tg.DecisionLatency.Sum, want)
		}
		if tg.DecisionLatency.Sum > tg.PolicyS {
			t.Errorf("offset %d: decision sum %v exceeds the policy phase %v", offset, tg.DecisionLatency.Sum, tg.PolicyS)
		}
		if tg.PhaseSampledSteps != steps/phaseSampleEvery {
			t.Errorf("offset %d: sampled %d steps, want %d", offset, tg.PhaseSampledSteps, steps/phaseSampleEvery)
		}
		got := [numPhases]float64{tg.WorkloadS, tg.PolicyS, tg.BatteryS, tg.ThermalS, tg.TECS}
		for p, est := range got {
			want := truth[p].Seconds()
			if math.Abs(est-want) > tol*want {
				t.Errorf("offset %d, phase %s: estimate %.6fs, true %.6fs (off %.2f%%, tolerance %.0f%%)",
					offset, phaseNames[p], est, want, 100*(est-want)/want, 100*tol)
			}
		}
	}
}

// TestStepTimerKeepsForeignBounds: a sink histogram whose bounds are not
// obs.LatencyBuckets still gets every decision, while Timing keeps the
// latency buckets its doc promises.
func TestStepTimerKeepsForeignBounds(t *testing.T) {
	ext := obs.MustHistogram(1e-3, 1)
	tm := newStepTimer(ext)
	for k := 0; k < 10; k++ {
		tm.step()
		tm.lapDecision(tm.beginDecision())
	}
	tm.flush()
	if got := ext.Count(); got != 10 {
		t.Errorf("sink histogram holds %d decisions, want 10", got)
	}
	if got, want := tm.timing().DecisionLatency.Bounds, obs.LatencyBuckets(); !reflect.DeepEqual(got, want) {
		t.Errorf("Timing bounds = %v, want obs.LatencyBuckets %v", got, want)
	}
}

// TestRunRecorderFromContext checks the ambient path: a recorder attached
// with obs.WithRecorder is honoured without touching the Config.
func TestRunRecorderFromContext(t *testing.T) {
	rec := obs.NewRecorder(0)
	ctx := obs.WithRecorder(context.Background(), rec)
	res, err := RunContext(ctx, tracedConfig(t, sched.NewDual()))
	if err != nil {
		t.Fatal(err)
	}
	if res.Timing == nil {
		t.Error("context recorder did not enable tracing")
	}
	if len(rec.Tree()) == 0 {
		t.Error("context recorder captured no spans")
	}
}

// BenchmarkInstrumentedStep guards the nil-recorder fast path: the
// per-step cost with tracing disabled must stay within noise of the
// pre-instrumentation baseline. Compare against
// BenchmarkInstrumentedStepTraced for the tracing-on overhead.
func BenchmarkInstrumentedStep(b *testing.B) {
	cfg := tracedConfig(b, sched.NewDual())
	cfg.SampleEveryS = 0
	b.ResetTimer()
	steps := 0
	for i := 0; i < b.N; i++ {
		res, err := Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		steps += res.Steps
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(steps), "ns/step")
}

func BenchmarkInstrumentedStepTraced(b *testing.B) {
	cfg := tracedConfig(b, sched.NewDual())
	cfg.SampleEveryS = 0
	b.ResetTimer()
	steps := 0
	for i := 0; i < b.N; i++ {
		cfg.Recorder = obs.NewRecorder(0)
		res, err := Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		steps += res.Steps
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(steps), "ns/step")
}

// BenchmarkInstrumentedStepServed is the step cost of a capmand sim job:
// a MetricsSink over registry-backed instruments, built the way
// Executor.sink builds it, plus a span recorder on the context.
func BenchmarkInstrumentedStepServed(b *testing.B) {
	reg := metrics.NewRegistry()
	lat := reg.Histogram("capman_decision_latency_seconds", "decision latency", obs.LatencyBuckets())
	phases := reg.CounterFloatVec("capman_sim_phase_seconds_total", "phase seconds", "phase")
	zone := reg.GaugeFloatVec("capman_zone_temp_celsius", "zone temperatures", "zone")
	cpu, body := zone.WithLabelValues("cpu"), zone.WithLabelValues("body")
	batt, spreader := zone.WithLabelValues("battery"), zone.WithLabelValues("spreader")
	cfg := tracedConfig(b, sched.NewDual())
	cfg.SampleEveryS = 0
	cfg.Metrics = &MetricsSink{
		DecisionLatency: lat.Base(),
		PhaseSeconds:    func(phase string, s float64) { phases.WithLabelValues(phase).Add(s) },
		ZoneTemps: func(c, bo, ba, sp float64) {
			cpu.Set(c)
			body.Set(bo)
			batt.Set(ba)
			spreader.Set(sp)
		},
		OnDegrade: func(sched.DegradeEvent) {},
	}
	b.ResetTimer()
	steps := 0
	for i := 0; i < b.N; i++ {
		ctx := obs.WithRecorder(context.Background(), obs.NewRecorder(0))
		res, err := RunContext(ctx, cfg)
		if err != nil {
			b.Fatal(err)
		}
		steps += res.Steps
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(steps), "ns/step")
}
