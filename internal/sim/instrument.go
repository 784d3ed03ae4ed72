package sim

import (
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/invariant"
	"repro/internal/obs"
	"repro/internal/sched"
)

// MetricsSink streams a run's instrumentation into external metrics
// (capmand's unified registry, or anything else that holds histograms)
// without turning span tracing on and without touching the Result: a run
// with a sink attached stays bit-identical to a bare run. Set it on
// Config.Metrics; every field is optional.
type MetricsSink struct {
	// DecisionLatency, when non-nil, receives every Policy.Decide host
	// latency in seconds. If its bounds are obs.LatencyBuckets, the run
	// collects them in its own histogram and merges it in once when it
	// ends, on every exit path, cancellation and failure included; a
	// histogram with other bounds receives each one as it is made.
	DecisionLatency *obs.Histogram
	// PhaseSeconds, when non-nil, is called once at the end of a run that
	// completes, per step phase ("workload", "policy", "battery",
	// "thermal", "tec"), with the wall-clock seconds that phase consumed,
	// estimated from a sample of steps as Timing's phase totals are.
	PhaseSeconds func(phase string, seconds float64)
	// ZoneTemps, when non-nil, receives every step's true zone
	// temperatures in °C (cpu, body, battery, spreader), so a live
	// telemetry plane can expose thermal state while the run is still in
	// flight. Callbacks must be cheap: the hot loop calls this once per
	// simulated step.
	ZoneTemps func(cpu, body, battery, spreader float64)
	// OnDegrade, when non-nil, is invoked synchronously for every guard
	// degradation transition (entries and recoveries).
	OnDegrade func(sched.DegradeEvent)
	// OnViolation, when non-nil, is invoked synchronously for every safety
	// invariant violation the run's checker observes (Config.Invariants).
	OnViolation func(invariant.Violation)
}

// Timing is a run's self-measured host-side cost breakdown, populated in
// Result.Timing only when tracing is on (Config.Recorder set, or a
// recorder attached to the context with obs.WithRecorder). The per-phase
// totals answer "where does a simulated step spend its wall-clock", and
// DecisionLatency is the distribution the paper's microsecond claim is
// about: the host time of one Policy.Decide call, measured every step.
type Timing struct {
	// Estimated wall-clock seconds per step phase across the whole run:
	// the phases are timed on one step in 16 (PhaseSampledSteps of them)
	// and scaled to every step. PolicyS is the exact Decide total
	// (DecisionLatency.Sum) plus the estimated rest, so it never falls
	// below DecisionLatency.Sum.
	WorkloadS float64 `json:"workloadS"` // demand generation + device power model
	PolicyS   float64 `json:"policyS"`   // Observe + Decide + guard review
	BatteryS  float64 `json:"batteryS"`  // cell state reads, switch, pack step
	ThermalS  float64 `json:"thermalS"`  // RC network reads + integration
	TECS      float64 `json:"tecS"`      // active-cooling controller
	// PhaseSampledSteps is how many steps the phase estimates rest on.
	PhaseSampledSteps int `json:"phaseSampledSteps"`

	// DecisionLatency is the per-step Policy.Decide latency histogram in
	// seconds (microsecond-scale buckets; see obs.LatencyBuckets).
	DecisionLatency obs.HistogramSnapshot `json:"decisionLatency"`
}

// phaseSampleEvery is the stride, in steps, between the steps whose
// phases are timed.
const phaseSampleEvery = 16

// phaseSampleRuns staggers where each run's stride starts, so runs that
// are summed into one counter do not all time the same step indices.
var phaseSampleRuns atomic.Uint64

// stepPhase indexes the phases a simulated step is split into.
type stepPhase int

const (
	phaseWorkload stepPhase = iota
	phasePolicy
	phaseBattery
	phaseThermal
	phaseTEC
	numPhases
)

// phaseNames are the phases' metric labels, in stepPhase order.
var phaseNames = [numPhases]string{"workload", "policy", "battery", "thermal", "tec"}

// stepTimer measures the hot loop's host cost. Every Policy.Decide call
// is timed, into the run's own histogram. The phases are timed only on
// one step in phaseSampleEvery, so an unsampled step reads the clock
// twice instead of eighteen times. A fixed stride is safe for CAPMAN's
// periodic MDP refresh: it runs inside Decide, which is timed exactly on
// every step, and seconds() counts only the non-Decide rest of the
// policy phase from the sample. All methods are nil-safe no-ops, so the
// untraced run pays one nil check per instrumentation point and stays
// bit-identical and benchmark-neutral.
type stepTimer struct {
	// now reads a monotonic clock. Outside tests it is time.Since the
	// timer's creation, which reads only the monotonic clock and costs
	// about 60% of a time.Now, which reads the wall clock too.
	now func() time.Duration

	// phases sums each phase over the sampled steps; decideSampled is the
	// part of phases[phasePolicy] spent in Decide.
	phases        [numPhases]time.Duration
	decideSampled time.Duration

	steps, sampled int
	offset         int  // the stride samples steps k with (k+offset)%phaseSampleEvery == 0
	on             bool // the current step is sampled

	// decisions holds the run's decision latencies, in obs.LatencyBuckets.
	decisions *obs.Histogram
	// ext is the MetricsSink histogram the decisions fold into at run
	// end (the registry-backed capman_decision_latency_seconds); nil when
	// no sink wants them or its bounds differ, in which case direct gets
	// every decision as it is made instead.
	ext, direct *obs.Histogram
}

func newStepTimer(ext *obs.Histogram) *stepTimer {
	start := time.Now()
	t := &stepTimer{
		now:       func() time.Duration { return time.Since(start) },
		offset:    int(phaseSampleRuns.Add(1) % phaseSampleEvery),
		decisions: obs.MustHistogram(obs.LatencyBuckets()...),
		ext:       ext,
	}
	if ext != nil && !slices.Equal(ext.Bounds(), t.decisions.Bounds()) {
		t.ext, t.direct = nil, ext
	}
	return t
}

// step opens a loop iteration and decides whether its phases are timed.
func (t *stepTimer) step() {
	if t == nil {
		return
	}
	t.on = (t.steps+t.offset)%phaseSampleEvery == 0
	t.steps++
	if t.on {
		t.sampled++
	}
}

// begin returns the phase start on a sampled step; zero otherwise.
func (t *stepTimer) begin() time.Duration {
	if t == nil || !t.on {
		return 0
	}
	return t.now()
}

// lap charges the time since t0 to phase p on a sampled step.
func (t *stepTimer) lap(p stepPhase, t0 time.Duration) {
	if t != nil && t.on {
		t.phases[p] += t.now() - t0
	}
}

// beginDecision returns the start of a Decide call, on every step.
func (t *stepTimer) beginDecision() time.Duration {
	if t == nil {
		return 0
	}
	return t.now()
}

// lapDecision records one Policy.Decide call into the latency histogram.
// Decide time also counts toward the policy phase at the caller.
func (t *stepTimer) lapDecision(t0 time.Duration) {
	if t == nil {
		return
	}
	d := t.now() - t0
	t.decisions.Observe(d.Seconds())
	t.direct.Observe(d.Seconds()) // nil-safe
	if t.on {
		t.decideSampled += d
	}
}

// flush folds the run's decision latencies into the sink's histogram.
// Observing into a private histogram keeps concurrent runs off the shared
// one at every step; RunContext defers flush, so a cancelled or failed
// run still reports every decision it made.
func (t *stepTimer) flush() {
	if t != nil {
		_ = t.ext.Merge(t.decisions) // cannot fail: newStepTimer checked the bounds
	}
}

// seconds estimates each phase's wall clock over the whole run: the
// sampled sums scaled by steps/sampled, except that the policy phase is
// the exact Decide total plus the scaled rest.
func (t *stepTimer) seconds() (s [numPhases]float64) {
	if t.sampled > 0 {
		scale := float64(t.steps) / float64(t.sampled)
		for p, d := range t.phases {
			s[p] = d.Seconds() * scale
		}
		s[phasePolicy] = (t.phases[phasePolicy] - t.decideSampled).Seconds() * scale
	}
	s[phasePolicy] += t.decisions.Sum()
	return s
}

// reportPhases streams the estimated per-phase totals into a
// MetricsSink.PhaseSeconds callback.
func (t *stepTimer) reportPhases(report func(phase string, seconds float64)) {
	for p, v := range t.seconds() {
		report(phaseNames[p], v)
	}
}

// timing exports the estimated breakdown and the exact decision latencies.
func (t *stepTimer) timing() *Timing {
	s := t.seconds()
	return &Timing{
		WorkloadS:         s[phaseWorkload],
		PolicyS:           s[phasePolicy],
		BatteryS:          s[phaseBattery],
		ThermalS:          s[phaseThermal],
		TECS:              s[phaseTEC],
		PhaseSampledSteps: t.sampled,
		DecisionLatency:   t.decisions.Snapshot(),
	}
}

// annotate attaches the phase totals to the run span as aggregate
// children, so the JSON span tree shows the same breakdown as Timing.
func (t *stepTimer) annotate(span *obs.Span, steps int) {
	for p, v := range t.seconds() {
		span.Aggregate("phase:"+phaseNames[p], time.Duration(v*float64(time.Second)), steps)
	}
}
