package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs/tsdb"
)

// TelemetryConfig tunes the server's live telemetry plane: the in-process
// time-series store behind GET /v1/query, the /v1/stream event bus, and
// the anomaly engine behind /v1/alerts. The zero value enables everything
// with defaults; set Disable to run without the plane (queries and
// streams then answer 503).
type TelemetryConfig struct {
	// Disable turns the whole plane off: no sampler, no stream, no
	// anomaly engine.
	Disable bool
	// Interval is the store's scrape period (default 1s).
	Interval time.Duration
	// Retention is how many points each series ring keeps (default 600,
	// i.e. 10 minutes at the default interval).
	Retention int
	// MaxSeries bounds store cardinality (default 1024).
	MaxSeries int
	// AnomalyInterval is the detector evaluation cadence (default 15s).
	AnomalyInterval time.Duration
	// AnomalyCooldown suppresses repeat alerts per alert stream
	// (default 1m).
	AnomalyCooldown time.Duration
}

// StreamSample is the payload of "sample" events on /v1/stream: the
// curated live numbers capman-top renders. Windowed quantiles come from
// the time-series store over the trailing minute; gauges and counters are
// instantaneous panel reads.
type StreamSample struct {
	QueueDepth    int64 `json:"queueDepth"`
	WorkersBusy   int64 `json:"workersBusy"`
	JobsSubmitted int64 `json:"jobsSubmitted"`
	JobsCompleted int64 `json:"jobsCompleted"`
	JobsFailed    int64 `json:"jobsFailed"`
	BreakerTrips  int64 `json:"breakerTrips"`
	Degrades      int64 `json:"degrades"`
	Violations    int64 `json:"violations"`
	Anomalies     int64 `json:"anomalies"`

	// Trailing-minute latency quantiles, in seconds; zero when the window
	// holds no observations.
	DecisionP99S  float64 `json:"decisionP99S"`
	QueueWaitP95S float64 `json:"queueWaitP95S"`
	TTEP99S       float64 `json:"tteP99S"`

	// ZoneTempC is the latest per-zone temperature streamed from running
	// simulations; empty before any sim job has run.
	ZoneTempC map[string]float64 `json:"zoneTempC,omitempty"`
}

// initTelemetry builds the store, bus, and anomaly engine. Called by New
// before the executor is constructed (the executor publishes job events
// onto the bus).
func (s *Server) initTelemetry(cfg Config, ecfg ExecutorConfig) error {
	tcfg := cfg.Telemetry
	st, err := tsdb.New(tsdb.Config{
		Registry:  ecfg.Metrics.Registry(),
		Interval:  tcfg.Interval,
		Capacity:  tcfg.Retention,
		MaxSeries: tcfg.MaxSeries,
		Logger:    ecfg.Logger,
	})
	if err != nil {
		return err
	}
	s.store = st
	s.bus = tsdb.NewBus()

	detectors := []tsdb.Detector{
		// A wedged worker pool: submissions climb, completions do not.
		tsdb.StuckMetric{
			Metric:   "capmand_jobs_completed_total",
			Activity: "capmand_jobs_submitted_total",
			Window:   2 * time.Minute,
		},
		// A degradation storm — the shape a TEC dropout produces when the
		// guard starts shedding.
		tsdb.RateSpike{
			Metric: "capman_degrade_total",
			Short:  30 * time.Second, Long: 10 * time.Minute,
			Factor: 3, MinCount: 3,
		},
		// A failure storm across the job engine.
		tsdb.RateSpike{
			Metric: "capmand_jobs_failed_total",
			Short:  30 * time.Second, Long: 10 * time.Minute,
			Factor: 3, MinCount: 3,
		},
		// Safety-invariant violations accelerating — e.g. served jobs
		// breaching thermal ceilings after a TEC fault.
		tsdb.RateSpike{
			Metric: "capman_invariant_violations_total",
			Short:  30 * time.Second, Long: 10 * time.Minute,
			Factor: 3, MinCount: 3,
		},
	}
	// Each armed SLO also becomes a multi-window burn-rate detector over
	// the stored histogram rings — the watchdog's rule, generalized.
	if cfg.SLO.DecisionP99 > 0 {
		detectors = append(detectors, tsdb.BurnRate{
			Metric: "capman_decision_latency_seconds", Quantile: 0.99,
			Threshold: cfg.SLO.DecisionP99.Seconds(),
			Short:     time.Minute, Long: 10 * time.Minute,
		})
	}
	if cfg.SLO.QueueWaitP95 > 0 {
		detectors = append(detectors, tsdb.BurnRate{
			Metric: "capmand_queue_wait_seconds", Quantile: 0.95,
			Threshold: cfg.SLO.QueueWaitP95.Seconds(),
			Short:     time.Minute, Long: 10 * time.Minute,
		})
	}
	if cfg.SLO.TTEP99 > 0 {
		detectors = append(detectors, tsdb.BurnRate{
			Metric: "capmand_tte_latency_seconds", Quantile: 0.99,
			Threshold: cfg.SLO.TTEP99.Seconds(),
			Short:     time.Minute, Long: 10 * time.Minute,
		})
	}
	eng, err := tsdb.NewEngine(tsdb.EngineConfig{
		Store:     st,
		Detectors: detectors,
		Interval:  tcfg.AnomalyInterval,
		Cooldown:  tcfg.AnomalyCooldown,
		Anomalies: ecfg.Metrics.Anomalies,
		Logger:    ecfg.Logger,
		OnAlert:   s.onAlert,
	})
	if err != nil {
		return err
	}
	s.engine = eng
	return nil
}

// onAlert fans one anomaly alert out to the live stream (the registry
// counter, the recent ring behind /v1/alerts, and the log line are the
// engine's own job).
func (s *Server) onAlert(a tsdb.Alert) {
	s.bus.Publish(tsdb.EventAlert, a.At, a)
}

// startTelemetry launches the sampler, the anomaly engine, and the pump
// that feeds "sample" events to stream subscribers.
func (s *Server) startTelemetry() {
	s.store.Start()
	s.engine.Start()
	go func() {
		defer close(s.pumpDone)
		t := time.NewTicker(s.store.Interval())
		defer t.Stop()
		for {
			select {
			case <-s.pumpStop:
				return
			case now := <-t.C:
				// Building the payload costs windowed reductions; skip the
				// work entirely when nobody is listening.
				if s.bus.Subscribers() == 0 {
					continue
				}
				s.bus.Publish(tsdb.EventSample, now, s.sampleNow(now))
			}
		}
	}()
}

// stopTelemetry halts the plane; idempotent via Drain's single call site.
func (s *Server) stopTelemetry() {
	if s.store == nil {
		return
	}
	close(s.pumpStop)
	<-s.pumpDone
	s.engine.Stop()
	s.store.Stop()
	// Closing the bus unblocks every attached /v1/stream handler, so the
	// HTTP server's graceful shutdown is not held open by dashboards.
	s.bus.Close()
}

// sampleNow builds one StreamSample from the panel and the store.
func (s *Server) sampleNow(now time.Time) StreamSample {
	m := s.metrics
	sm := StreamSample{
		QueueDepth:    m.QueueDepth.Value(),
		WorkersBusy:   m.WorkersBusy.Value(),
		JobsSubmitted: int64(m.JobsSubmitted.Value()),
		JobsCompleted: int64(m.JobsCompleted.Value()),
		JobsFailed:    int64(m.JobsFailed.Value()),
		BreakerTrips:  int64(m.BreakerTrips.Value()),
	}
	from := now.Add(-time.Minute)
	sm.DecisionP99S = windowQuantile(s.store, "capman_decision_latency_seconds", 0.99, from, now)
	sm.QueueWaitP95S = windowQuantile(s.store, "capmand_queue_wait_seconds", 0.95, from, now)
	sm.TTEP99S = windowQuantile(s.store, "capmand_tte_latency_seconds", 0.99, from, now)
	for _, ws := range s.store.Window("capman_degrade_total", nil, from, now) {
		sm.Degrades += int64(ws.Last)
	}
	for _, ws := range s.store.Window("capman_invariant_violations_total", nil, from, now) {
		sm.Violations += int64(ws.Last)
	}
	for _, ws := range s.store.Window("capman_anomaly_total", nil, from, now) {
		sm.Anomalies += int64(ws.Last)
	}
	for _, zone := range []string{"cpu", "body", "battery", "spreader"} {
		ws := s.store.Window("capman_zone_temp_celsius",
			map[string]string{"zone": zone}, from, now)
		if len(ws) == 0 {
			continue
		}
		if sm.ZoneTempC == nil {
			sm.ZoneTempC = make(map[string]float64, 4)
		}
		sm.ZoneTempC[zone] = ws[0].Last
	}
	return sm
}

// windowQuantile reads one histogram family's windowed quantile from the
// store; 0 when the window holds no observations.
func windowQuantile(st *tsdb.Store, metric string, q float64, from, to time.Time) float64 {
	for _, ws := range st.Window(metric, nil, from, to) {
		if v, ok := ws.Quantile(q); ok {
			return v
		}
	}
	return 0
}

// handleQuery serves GET /v1/query: aligned range vectors out of the
// in-process store. Without a metric parameter it answers with the
// discovery payload (tracked families). Parameters:
//
//	metric  family name (omit to list tracked metrics)
//	window  how far back to query (Go duration, default 5m)
//	step    grid spacing (Go duration, default: the store interval)
//	op      value | rate | increase | quantile (default value)
//	q       quantile for op=quantile, in (0, 1)
//	match   label filter, repeatable, as name=value
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if s.store == nil {
		writeError(w, http.StatusServiceUnavailable, errTelemetryOff)
		return
	}
	p := r.URL.Query()
	metric := p.Get("metric")
	if metric == "" {
		writeJSON(w, http.StatusOK, map[string]any{"metrics": s.store.Metrics()})
		return
	}
	window := 5 * time.Minute
	if v := p.Get("window"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d <= 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad window %q", v))
			return
		}
		window = d
	}
	var step time.Duration
	if v := p.Get("step"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d <= 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad step %q", v))
			return
		}
		step = d
	}
	var q float64
	if v := p.Get("q"); v != "" {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad q %q", v))
			return
		}
		q = f
	}
	var match map[string]string
	for _, mv := range p["match"] {
		name, value, ok := strings.Cut(mv, "=")
		if !ok {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad match %q (want name=value)", mv))
			return
		}
		if match == nil {
			match = make(map[string]string)
		}
		match[name] = value
	}
	now := time.Now()
	res, err := s.store.Query(tsdb.Query{
		Metric: metric,
		Match:  match,
		Start:  now.Add(-window),
		End:    now,
		Step:   step,
		Op:     p.Get("op"),
		Q:      q,
	})
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

// handleAlerts serves GET /v1/alerts: the anomaly engine's retained
// alerts (newest first) and the active detectors.
func (s *Server) handleAlerts(w http.ResponseWriter, r *http.Request) {
	if s.engine == nil {
		writeError(w, http.StatusServiceUnavailable, errTelemetryOff)
		return
	}
	alerts := s.engine.Recent()
	if alerts == nil {
		alerts = []tsdb.Alert{}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"alerts":    alerts,
		"detectors": s.engine.Detectors(),
	})
}

// handleStream serves GET /v1/stream: a Server-Sent Events feed of live
// telemetry snapshots ("sample"), job lifecycle transitions ("job"),
// degradations, invariant violations, and anomaly alerts. Each SSE
// message's event field is the type and its data field the JSON-encoded
// tsdb.Event. Comment heartbeats keep idle connections alive.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	if s.bus == nil {
		writeError(w, http.StatusServiceUnavailable, errTelemetryOff)
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError,
			fmt.Errorf("streaming unsupported by this connection"))
		return
	}
	// The daemon's http.Server carries Read/WriteTimeouts sized for job
	// requests; this stream is deliberately long-lived, so lift both
	// deadlines for this connection only.
	rc := http.NewResponseController(w)
	_ = rc.SetWriteDeadline(time.Time{})
	_ = rc.SetReadDeadline(time.Time{})
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)

	sub := s.bus.Subscribe(0)
	defer s.bus.Unsubscribe(sub)

	// Greet with the stream's shape so clients can size their charts.
	hello, _ := json.Marshal(map[string]any{
		"intervalMs": s.store.Interval().Milliseconds(),
		"detectors":  s.engine.Detectors(),
	})
	fmt.Fprintf(w, "event: hello\ndata: %s\n\n", hello)
	flusher.Flush()

	heartbeat := time.NewTicker(15 * time.Second)
	defer heartbeat.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-heartbeat.C:
			fmt.Fprint(w, ": ping\n\n")
			flusher.Flush()
		case ev, ok := <-sub.C():
			if !ok {
				return
			}
			data, err := json.Marshal(ev)
			if err != nil {
				continue
			}
			fmt.Fprintf(w, "event: %s\nid: %d\ndata: %s\n\n", ev.Type, ev.Seq, data)
			flusher.Flush()
		}
	}
}

var errTelemetryOff = fmt.Errorf("telemetry plane disabled")
