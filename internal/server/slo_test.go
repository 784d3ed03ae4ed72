package server

import (
	"errors"
	"testing"
	"time"
)

// TestSLOBurnRateBreach drives the one SLO evaluator by hand: the store is
// sampled and the anomaly engine evaluated at synthetic instants, with the
// background tickers parked an hour out. A queue-wait burn must count one
// breach for its own objective only, close the admission gate to fresh
// work (cache hits still pass), stay quiet inside the engine's cooldown,
// and count again once a sustained burn re-fires after it.
func TestSLOBurnRateBreach(t *testing.T) {
	m := NewMetrics()
	s := New(Config{
		Executor: ExecutorConfig{Workers: 1, Metrics: m},
		SLO: SLOConfig{
			QueueWaitP95: time.Second, // a WallBuckets bound: exact accounting
			DecisionP99:  100 * time.Millisecond,
			ShedOnBurn:   true,
		},
		Telemetry: TelemetryConfig{
			Interval:        time.Hour,
			AnomalyInterval: time.Hour,
			AnomalyCooldown: time.Minute,
		},
	})
	t.Cleanup(func() {
		ctx, cancel := contextWithTimeout(2 * time.Second)
		defer cancel()
		_ = s.Drain(ctx)
	})

	// Prime the cache before the incident so a hit is on hand later.
	primed, err := s.Executor().Submit(seededSpec(30))
	if err != nil {
		t.Fatal(err)
	}
	awaitExec(t, s.Executor(), primed.ID, func(v View) bool { return v.State.Terminal() }, "terminal")

	t0 := time.Unix(1_700_000_000, 0)
	s.store.Sample(t0)
	// Every queue wait in the incident is over its 1 s objective; every
	// decision is well under its 100 ms one.
	incident := func() {
		for i := 0; i < 20; i++ {
			m.QueueWaitSeconds.Observe(5)
			m.DecisionLatency.Observe(1e-6)
		}
	}
	incident()
	at := t0.Add(30 * time.Second)
	s.store.Sample(at)

	fired := s.engine.Evaluate(at)
	if len(fired) != 1 || fired[0].Detector != "burn-rate" || fired[0].Metric != "capmand_queue_wait_seconds" {
		t.Fatalf("fired = %+v, want one queue-wait burn-rate alert", fired)
	}
	if got := m.SLOBreaches.WithLabelValues("queue-wait-p95").Value(); got != 1 {
		t.Errorf(`capmand_slo_breach_total{slo="queue-wait-p95"} = %d, want 1`, got)
	}
	if got := m.Anomalies.WithLabelValues("burn-rate").Value(); got != 1 {
		t.Errorf(`capman_anomaly_total{detector="burn-rate"} = %d, want 1`, got)
	}
	if got := m.SLOBreaches.WithLabelValues("decision-latency-p99").Value(); got != 0 {
		t.Errorf(`capmand_slo_breach_total{slo="decision-latency-p99"} = %d, want 0`, got)
	}

	// The breach closed the admission gate to fresh work only.
	_, err = s.Executor().Submit(seededSpec(31))
	var sh *ShedError
	if !errors.As(err, &sh) || sh.Reason != "burn-rate" {
		t.Fatalf("fresh submission after breach = %v, want *ShedError{burn-rate}", err)
	}
	if v, err := s.Executor().Submit(seededSpec(30)); err != nil || !v.CacheHit {
		t.Errorf("cache hit under burn: view=%+v err=%v", v, err)
	}

	// Inside the cooldown the still-burning objective fires nothing.
	incident()
	at = at.Add(15 * time.Second)
	s.store.Sample(at)
	if fired := s.engine.Evaluate(at); len(fired) != 0 {
		t.Errorf("re-fired inside the cooldown: %+v", fired)
	}
	if got := m.SLOBreaches.WithLabelValues("queue-wait-p95").Value(); got != 1 {
		t.Errorf("breaches inside the cooldown = %d, want 1", got)
	}

	// A burn that outlasts the cooldown counts once more.
	incident()
	at = t0.Add(30*time.Second + time.Minute)
	s.store.Sample(at)
	if fired := s.engine.Evaluate(at); len(fired) != 1 {
		t.Errorf("sustained burn after the cooldown fired %+v, want one alert", fired)
	}
	if got := m.SLOBreaches.WithLabelValues("queue-wait-p95").Value(); got != 2 {
		t.Errorf("breaches after the cooldown = %d, want 2", got)
	}
}
