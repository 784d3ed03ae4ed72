package sim

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/battery"
	"repro/internal/fault"
	"repro/internal/invariant"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/thermal"
	"repro/internal/workload"
)

// cleanSmallConfig is smallConfig without the checker, for comparing the
// checked and unchecked paths.
func cleanSmallConfig(p sched.Policy) Config {
	cfg := smallConfig(p)
	cfg.Invariants = nil
	return cfg
}

// TestRunInvariantsBitIdentical is the acceptance gate for "the checker
// never perturbs the physics": a clean run produces the same Result with
// and without the monitor, field for field.
func TestRunInvariantsBitIdentical(t *testing.T) {
	plain, err := Run(cleanSmallConfig(sched.NewDual()))
	if err != nil {
		t.Fatal(err)
	}
	checked, err := Run(smallConfig(sched.NewDual()))
	if err != nil {
		t.Fatal(err)
	}
	if checked.Invariants != nil {
		t.Fatalf("clean run reported violations: %+v", checked.Invariants)
	}
	// A clean run's report is nil, so no stripping is needed: the structs
	// must already be deep-equal.
	if !reflect.DeepEqual(plain, checked) {
		t.Errorf("checked result diverged from unchecked run:\nplain:   %+v\nchecked: %+v", plain, checked)
	}
}

// socBugSource wraps a real pack and corrupts its *reported* big-cell SoC
// upward after a number of steps — the kind of accounting bug the
// soc-monotone contract exists to catch. The underlying physics stays
// intact; only the observational surface lies.
type socBugSource struct {
	battery.Source
	steps    int
	bugAfter int
}

func (s *socBugSource) Step(powerW, tempC, dt float64) (battery.PackStep, error) {
	s.steps++
	return s.Source.Step(powerW, tempC, dt)
}

func (s *socBugSource) CellState(sel battery.Selection) battery.CellState {
	st := s.Source.CellState(sel)
	if sel == battery.SelectBig && s.steps >= s.bugAfter {
		st.SoC += 0.03 // jumps up once, then declines from the lifted level
	}
	return st
}

// TestSeededSoCBugTripsCheckerAndGuard injects an SoC-increase bug through
// a wrapper source and asserts the full fatal pathway: the soc-monotone
// contract fires, the violation streams through the metrics sink and onto
// the sim.run span, and the degradation guard latches into invariant mode
// for the rest of the run.
func TestSeededSoCBugTripsCheckerAndGuard(t *testing.T) {
	pack := battery.DefaultPackConfig()
	pack.Big = battery.MustParams(battery.NCA, 300)
	pack.Little = battery.MustParams(battery.LMO, 300)
	src, err := battery.NewPack(pack)
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallConfig(sched.NewDual())
	cfg.Source = &socBugSource{Source: src, bugAfter: 400}

	var streamed []invariant.Violation
	cfg.Metrics = &MetricsSink{OnViolation: func(v invariant.Violation) {
		streamed = append(streamed, v)
	}}
	rec := obs.NewRecorder(0)
	ctx := obs.WithRecorder(context.Background(), rec)

	res, err := RunContext(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Invariants
	if rep == nil || !rep.Fatal {
		t.Fatalf("seeded SoC bug not detected as fatal: %+v", rep)
	}
	if rep.Counts["soc-monotone"] == 0 {
		t.Fatalf("no soc-monotone violation: counts %v", rep.Counts)
	}
	if len(streamed) != rep.Total {
		t.Errorf("sink streamed %d violations, report has %d", len(streamed), rep.Total)
	}

	var tripped bool
	for _, ev := range res.Degradations {
		if ev.Mode == sched.DegradeInvariant && !ev.Recovered {
			tripped = true
		}
	}
	if !tripped {
		t.Fatalf("fatal violation did not trip the guard: %+v", res.Degradations)
	}
	if res.DegradedTimeS <= 0 {
		t.Error("no degraded time accumulated after the invariant trip")
	}

	var breadcrumb bool
	for _, ev := range runSpanEvents(t, rec) {
		if ev.Kind == obs.EventInvariant && ev.Name == "soc-monotone" {
			breadcrumb = true
			if ev.Attrs["severity"] != "fatal" {
				t.Errorf("run span breadcrumb severity = %q, want fatal", ev.Attrs["severity"])
			}
		}
	}
	if !breadcrumb {
		t.Error("no soc-monotone breadcrumb on the sim.run span")
	}
}

// hotConfig puts the phone in a 30C room with a 48.5C CPU ceiling: with the
// TEC working the ceiling holds (max ~47.5C), and a tec-dropout fault
// pushes the hot spot through it (~49.7C). Calibrated against the video
// workload on the Nexus profile.
func hotConfig(planName string, t *testing.T) Config {
	cfg := smallConfig(sched.NewDual())
	cfg.Thermal = thermal.DefaultPhoneConfig()
	cfg.Thermal.AmbientC = 30
	cfg.Invariants = &invariant.Config{MaxCPUTempC: 48.5}
	if planName != "" {
		plan, err := fault.ByName(planName, 3)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Faults = plan
	}
	return cfg
}

// TestTECDropoutBreachesThermalCeiling: losing the cooler in a hot room is
// an envelope excursion the checker must flag — as a warning, because the
// environment (not a bug) caused it.
func TestTECDropoutBreachesThermalCeiling(t *testing.T) {
	clean, err := Run(hotConfig("", t))
	if err != nil {
		t.Fatal(err)
	}
	if clean.Invariants != nil && clean.Invariants.Counts["thermal-ceiling-cpu"] > 0 {
		t.Fatalf("ceiling breached with the TEC working: %+v", clean.Invariants)
	}

	dropped, err := Run(hotConfig("tec-dropout", t))
	if err != nil {
		t.Fatal(err)
	}
	rep := dropped.Invariants
	if rep == nil || rep.Counts["thermal-ceiling-cpu"] == 0 {
		t.Fatalf("tec-dropout did not breach the 48.5C ceiling (max CPU %.2fC): %+v",
			dropped.MaxCPUTempC, rep)
	}
	if rep.Fatal {
		t.Errorf("environmental ceiling breach latched fatal: %+v", rep.Violations)
	}
	for _, v := range rep.Violations {
		if v.Invariant == "thermal-ceiling-cpu" && v.Severity != invariant.SeverityWarn {
			t.Errorf("ceiling violation severity = %s, want warn", v.Severity)
		}
	}
}

// BenchmarkInvariantStep guards the disabled-checker fast path: per-step
// cost with Invariants nil must stay within noise of the pre-monitor
// baseline, and the hot loop must stay allocation-free. Compare against
// BenchmarkInvariantStepChecked for the checker-on overhead.
func BenchmarkInvariantStep(b *testing.B) {
	cfg := cleanSmallConfig(sched.NewDual())
	cfg.Workload = func() workload.Generator { return workload.NewVideo(42) }
	cfg.MaxTimeS = 4000
	b.ReportAllocs()
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

func BenchmarkInvariantStepChecked(b *testing.B) {
	cfg := smallConfig(sched.NewDual())
	cfg.MaxTimeS = 4000
	b.ReportAllocs()
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
