package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// faultySpec runs long enough simulated time for the stuck-switch fault
// plan (which engages at t=600s) to trip the degradation guard, while
// staying fast in wall clock. The heuristic policy flips batteries often
// enough to rack up the eight consecutive unacked switches the guard
// needs; dual barely switches on this workload and never notices.
func faultySpec() JobSpec {
	return JobSpec{
		Workload: "video", Policy: "heuristic", Seed: 42,
		BigMAh: 600, LittleMAh: 600, MaxTimeS: 20_000,
		FaultPlan: "stuck-switch",
	}
}

// alwaysFail wraps the real runner: the simulation executes in full (so
// spans, degradations, and sink metrics are real) but the job still fails
// with a retryable error, exhausting the retry budget.
func alwaysFail(ctx context.Context, spec JobSpec, cfg resolved) (*Outcome, error) {
	if _, err := runJob(ctx, spec, cfg); err != nil {
		return nil, err
	}
	return nil, fmt.Errorf("%w: injected post-run failure", ErrRetryable)
}

// boxEvents flattens the events of a span forest, depth first.
func boxEvents(spans []obs.SpanNode) []obs.SpanEvent {
	var out []obs.SpanEvent
	for _, n := range spans {
		out = append(out, n.Events...)
		out = append(out, boxEvents(n.Children)...)
	}
	return out
}

// TestFailedJobFlightBox: a fault-injected job whose retries exhaust gets
// a black box whose spans carry the lifecycle events (retries included),
// degrade breadcrumbs, and teed log records, plus the registry metric
// deltas — whether or not request tracing is enabled. With tracing on the
// box links a trace that resolves.
func TestFailedJobFlightBox(t *testing.T) {
	for _, disable := range []bool{false, true} {
		t.Run(fmt.Sprintf("trace-disable=%t", disable), func(t *testing.T) {
			testFailedJobFlightBox(t, disable)
		})
	}
}

func testFailedJobFlightBox(t *testing.T, traceDisable bool) {
	m := NewMetrics()
	e := newTestExecutor(t, ExecutorConfig{
		Workers: 1, Metrics: m, MaxRetries: 1, RetryBaseDelay: time.Millisecond,
		Trace: TraceConfig{Disable: traceDisable, SampleRate: -1},
	})
	e.runFn = alwaysFail

	v, err := e.Submit(faultySpec())
	if err != nil {
		t.Fatal(err)
	}
	done := awaitExec(t, e, v.ID, func(v View) bool { return v.State.Terminal() }, "terminal")
	if done.State != StateFailed {
		t.Fatalf("job ended %q, want failed", done.State)
	}

	// The box is cut before the terminal state is published: a job that
	// reads failed already has it.
	fl, err := e.Flight(v.ID)
	if err != nil {
		t.Fatalf("Flight(%s): %v", v.ID, err)
	}
	if fl.State != StateFailed || fl.Error == "" || fl.Attempts != 2 {
		t.Errorf("flight header = %+v, want failed state, error, 2 attempts", fl)
	}
	if fl.Box.Reason == "" || len(fl.Box.Spans) == 0 {
		t.Fatalf("flight box empty: reason=%q spans=%d", fl.Box.Reason, len(fl.Box.Spans))
	}

	kinds := map[string]int{}
	lifecycle := map[string]int{}
	for _, ev := range boxEvents(fl.Box.Spans) {
		kinds[ev.Kind]++
		if ev.Kind == obs.EventLifecycle {
			lifecycle[ev.Name]++
		}
	}
	for _, want := range []string{EventSubmitted, EventRunning, EventRetrying, EventFailed} {
		if lifecycle[want] == 0 {
			t.Errorf("flight box missing %s lifecycle event (have %v)", want, lifecycle)
		}
	}
	if kinds[obs.EventDegrade] == 0 {
		t.Errorf("flight box has no degrade breadcrumbs (kinds %v)", kinds)
	}
	if kinds[obs.EventLog] == 0 {
		t.Errorf("flight box has no teed log records (kinds %v)", kinds)
	}
	if len(fl.MetricDeltas) == 0 {
		t.Fatal("flight box has no metric deltas")
	}
	deltas := map[string]float64{}
	for _, d := range fl.MetricDeltas {
		deltas[d.Name] += d.After - d.Before
	}
	if deltas["capmand_jobs_failed_total"] < 1 {
		t.Errorf("deltas missing the job's own failure: %v", deltas)
	}
	if deltas["capman_decision_latency_seconds_count"] <= 0 {
		t.Errorf("deltas missing streamed decision latencies: %v", deltas)
	}

	if traceDisable {
		if fl.TraceID != "" || fl.TraceURL != "" || fl.Box.TraceID != "" {
			t.Errorf("tracing disabled but box links trace %q (%q)", fl.TraceID, fl.TraceURL)
		}
	} else {
		if fl.TraceID == "" || fl.TraceURL != "/v1/traces/"+fl.TraceID || fl.Box.TraceID != fl.TraceID {
			t.Errorf("box trace link = %q / %q / %q", fl.TraceID, fl.TraceURL, fl.Box.TraceID)
		}
		if _, ok := e.Traces().Get(fl.TraceID); !ok {
			t.Error("flight box links a trace the sampler did not retain")
		}
	}

	// The black box JSON (what the HTTP endpoint serves) is non-empty and
	// round-trips.
	var buf bytes.Buffer
	if err := fl.Box.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back obs.FlightBox
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("box JSON does not round-trip: %v", err)
	}
	if got, want := len(boxEvents(back.Spans)), len(boxEvents(fl.Box.Spans)); got != want {
		t.Errorf("round-trip lost events: %d != %d", got, want)
	}
}

// TestFlightDisabledAndMissing: a job that did not fail has no box
// (ErrNoFlight) — with request tracing disabled too — and unknown jobs
// stay ErrNotFound.
func TestFlightDisabledAndMissing(t *testing.T) {
	e := newTestExecutor(t, ExecutorConfig{Workers: 1, Trace: TraceConfig{Disable: true}})
	v, err := e.Submit(fastSpec())
	if err != nil {
		t.Fatal(err)
	}
	awaitExec(t, e, v.ID, func(v View) bool { return v.State == StateDone }, "done")
	if _, err := e.Flight(v.ID); !errors.Is(err, ErrNoFlight) {
		t.Errorf("Flight of a successful job: %v, want ErrNoFlight", err)
	}
	if _, err := e.Flight("j99999999"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Flight(unknown): %v, want ErrNotFound", err)
	}
}

// TestFlightHTTPEndpoint drives the whole path over HTTP: submit a job
// that fails, poll it terminal, fetch its black box, and check the 404s.
func TestFlightHTTPEndpoint(t *testing.T) {
	srv, ts := newTestServer(t, ExecutorConfig{
		Workers: 1, MaxRetries: -1, RetryBaseDelay: time.Millisecond,
	})
	srv.Executor().runFn = alwaysFail

	v, status := submit(t, ts, faultySpec())
	if status != http.StatusAccepted {
		t.Fatalf("submit status %d, want 202", status)
	}
	awaitJob(t, ts, v.ID, func(v View) bool { return v.State.Terminal() }, "terminal")

	resp, err := http.Get(ts.URL + "/v1/jobs/" + v.ID + "/flight")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET flight = %d, want 200", resp.StatusCode)
	}
	var fl JobFlight
	if err := json.NewDecoder(resp.Body).Decode(&fl); err != nil {
		t.Fatal(err)
	}
	if n := len(boxEvents(fl.Box.Spans)); fl.ID != v.ID || n == 0 || len(fl.MetricDeltas) == 0 {
		t.Errorf("flight over HTTP incomplete: id=%q events=%d deltas=%d",
			fl.ID, n, len(fl.MetricDeltas))
	}

	for _, path := range []string{"/v1/jobs/nope/flight"} {
		r, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s = %d, want 404", path, r.StatusCode)
		}
	}
}

// TestStuckSwitchJobStreamsPanelMetrics: a successful fault-injected job
// streams its instrumentation into the shared panel while running — the
// degradation counter by reason, per-phase wall clock, and per-decision
// latency all move, and /metrics exposes them.
func TestStuckSwitchJobStreamsPanelMetrics(t *testing.T) {
	m := NewMetrics()
	e := newTestExecutor(t, ExecutorConfig{Workers: 1, Metrics: m})

	v, err := e.Submit(faultySpec())
	if err != nil {
		t.Fatal(err)
	}
	done := awaitExec(t, e, v.ID, func(v View) bool { return v.State.Terminal() }, "terminal")
	if done.State != StateDone {
		t.Fatalf("job ended %q (err %q), want done", done.State, done.Error)
	}
	if done.Outcome == nil || done.Outcome.Run == nil || len(done.Outcome.Run.Degradations) == 0 {
		t.Fatal("run did not degrade; test premise broken")
	}

	if got := m.Degrades.WithLabelValues("stuck-switch").Value(); got == 0 {
		t.Error("capman_degrade_total{reason=\"stuck-switch\"} = 0, want > 0")
	}
	if got := m.DecisionLatency.Count(); got == 0 {
		t.Error("capman_decision_latency_seconds saw no observations")
	}
	if got := m.PhaseSeconds.WithLabelValues("policy").Value(); got <= 0 {
		t.Errorf("capman_sim_phase_seconds_total{phase=\"policy\"} = %g, want > 0", got)
	}

	var sb strings.Builder
	if err := m.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `capman_degrade_total{reason="stuck-switch"}`) {
		t.Error("/metrics missing capman_degrade_total{reason=\"stuck-switch\"}")
	}
}

// TestServerSLOWatchdogBreach arms the queue-wait SLO with an impossible
// threshold, floods the histogram with slow observations, and waits for
// the live watchdog to convict and bump capmand_slo_breach_total.
func TestServerSLOWatchdogBreach(t *testing.T) {
	m := NewMetrics()
	s := New(Config{
		Executor: ExecutorConfig{Workers: 1, Metrics: m},
		SLO: SLOConfig{
			QueueWaitP95: time.Microsecond, // everything observed is "bad"
			Window:       50 * time.Millisecond,
			Interval:     5 * time.Millisecond,
		},
	})
	t.Cleanup(func() {
		ctx, cancel := contextWithTimeout(2 * time.Second)
		defer cancel()
		_ = s.Drain(ctx)
	})
	if s.Watchdog() == nil {
		t.Fatal("SLO configured but no watchdog armed")
	}

	time.Sleep(15 * time.Millisecond) // let the watchdog establish a baseline
	for i := 0; i < 200; i++ {
		m.QueueWaitSeconds.Observe(1.0)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if m.SLOBreaches.WithLabelValues("queue-wait-p95").Value() > 0 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("watchdog never convicted a blatant SLO breach")
}
