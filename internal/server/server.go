package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"time"

	"repro/internal/obs/metrics"
	"repro/internal/obs/tsdb"
)

// Config assembles a Server; zero values defer to ExecutorConfig defaults.
type Config struct {
	Executor ExecutorConfig

	// Logger, when set and Executor.Logger is nil, becomes the executor's
	// lifecycle logger too.
	Logger *slog.Logger

	// EnablePprof mounts net/http/pprof under /debug/pprof/. Off by
	// default: profiling endpoints expose heap contents and should only be
	// reachable on operator-trusted listeners.
	EnablePprof bool

	// Version is the build identifier reported by /debug/buildinfo; when
	// empty the binary's embedded module version is used.
	Version string

	// SLO arms the burn-rate watchdog over the metrics panel's latency
	// histograms; the zero value runs no watchdog.
	SLO SLOConfig

	// Telemetry tunes the live telemetry plane — the in-process
	// time-series store (GET /v1/query), the ops event stream
	// (GET /v1/stream), and the anomaly engine (GET /v1/alerts). The zero
	// value enables it with defaults.
	Telemetry TelemetryConfig
}

// SLOConfig configures the server's SLO watchdog. Each non-zero threshold
// becomes one objective evaluated over a sliding window: the watchdog
// compares the fraction of observations above the threshold against the
// objective's error budget and, when the budget burns too fast, logs a
// structured warning and increments capmand_slo_breach_total{slo=...}.
type SLOConfig struct {
	// DecisionP99 is the p99 target for capman_decision_latency_seconds
	// (objective "decision-latency-p99"); zero disables it.
	DecisionP99 time.Duration
	// QueueWaitP95 is the p95 target for capmand_queue_wait_seconds
	// (objective "queue-wait-p95"); zero disables it.
	QueueWaitP95 time.Duration
	// TTEP99 is the p99 target for capmand_tte_latency_seconds
	// (objective "tte-latency-p99"); zero disables it.
	TTEP99 time.Duration
	// Window is the sliding evaluation window (default 5m).
	Window time.Duration
	// Interval is the evaluation cadence (default 15s).
	Interval time.Duration
	// MaxBurn is the burn rate above which a breach fires (default 1.0,
	// i.e. burning the error budget exactly as fast as it accrues).
	MaxBurn float64
	// ShedOnBurn additionally arms the executor's admission gate on every
	// breach: new submissions are shed with 429 (reason "burn-rate") for
	// one evaluation interval, long enough to reach the next verdict.
	ShedOnBurn bool
}

// Server is capmand's HTTP surface:
//
//	POST   /v1/jobs              submit a JobSpec, returns the job view (202; 200 on cache hit)
//	POST   /v1/tte               submit a Monte Carlo time-to-empty job (JobSpec kind "tte")
//	GET    /v1/jobs              list known jobs, newest first
//	GET    /v1/jobs/{id}         poll a job's status and, once done, its outcome
//	GET    /v1/jobs/{id}/events  the job's lifecycle events (its request span's)
//	GET    /v1/jobs/{id}/flight  a failed job's black box (its span recorder, cut)
//	DELETE /v1/jobs/{id}         cancel a queued or running job
//	GET    /v1/registry          enumerate registered workloads and policies
//	GET    /v1/query             range-query the in-process time-series store
//	GET    /v1/stream            live ops event feed (Server-Sent Events)
//	GET    /v1/alerts            recent anomaly-engine alerts
//	GET    /healthz              liveness probe
//	GET    /metrics              Prometheus text-format metrics
//	GET    /debug/buildinfo      version, Go runtime, and uptime
//	GET    /debug/pprof/         runtime profiles (only with EnablePprof)
type Server struct {
	exec     *Executor
	metrics  *Metrics
	mux      *http.ServeMux
	version  string
	started  time.Time
	watchdog *metrics.Watchdog

	// Telemetry plane; all nil when Config.Telemetry.Disable is set.
	store    *tsdb.Store
	bus      *tsdb.Bus
	engine   *tsdb.Engine
	pumpStop chan struct{}
	pumpDone chan struct{}
}

// New builds the service and starts its worker pool.
func New(cfg Config) *Server {
	if cfg.Executor.Logger == nil {
		cfg.Executor.Logger = cfg.Logger
	}
	ecfg := cfg.Executor.withDefaults()
	s := &Server{
		metrics:  ecfg.Metrics,
		mux:      http.NewServeMux(),
		version:  cfg.Version,
		started:  time.Now(),
		pumpStop: make(chan struct{}),
		pumpDone: make(chan struct{}),
	}
	// The telemetry plane comes up before the executor so job lifecycle
	// events have a bus to land on from the first submission.
	if !cfg.Telemetry.Disable {
		if err := s.initTelemetry(cfg, ecfg); err != nil {
			// Only a nil registry can fail construction, and ecfg always
			// carries one; treat a failure as a programming error.
			panic(err)
		}
		ecfg.Stream = s.bus
	}
	s.exec = NewExecutor(ecfg)
	// Per-request SLO thresholds double as tail-sampling signals: a
	// breaching trace is always retained. Armed before any submission
	// can reach the executor.
	s.exec.armTraceSLO(cfg.SLO.QueueWaitP95, cfg.SLO.TTEP99)
	s.metrics.Registry().SetExemplars(cfg.Executor.Trace.Exemplars)
	if s.version == "" {
		s.version = buildVersion()
	}
	s.metrics.RegisterRuntime(s.version)

	var objectives []metrics.Objective
	if cfg.SLO.DecisionP99 > 0 {
		objectives = append(objectives, metrics.Objective{
			Name:      "decision-latency-p99",
			Source:    s.metrics.DecisionLatency.Base(),
			Quantile:  0.99,
			Threshold: cfg.SLO.DecisionP99.Seconds(),
		})
	}
	if cfg.SLO.QueueWaitP95 > 0 {
		objectives = append(objectives, metrics.Objective{
			Name:      "queue-wait-p95",
			Source:    s.metrics.QueueWaitSeconds.Base(),
			Quantile:  0.95,
			Threshold: cfg.SLO.QueueWaitP95.Seconds(),
		})
	}
	if cfg.SLO.TTEP99 > 0 {
		objectives = append(objectives, metrics.Objective{
			Name:      "tte-latency-p99",
			Source:    s.metrics.TTELatency.Base(),
			Quantile:  0.99,
			Threshold: cfg.SLO.TTEP99.Seconds(),
		})
	}
	if len(objectives) > 0 {
		shedFor := time.Duration(0)
		if cfg.SLO.ShedOnBurn {
			shedFor = cfg.SLO.Interval
			if shedFor <= 0 {
				shedFor = 15 * time.Second // the watchdog's default cadence
			}
		}
		s.watchdog = metrics.NewWatchdog(metrics.WatchdogConfig{
			Interval: cfg.SLO.Interval,
			Window:   cfg.SLO.Window,
			MaxBurn:  cfg.SLO.MaxBurn,
			Logger:   ecfg.Logger,
			OnBreach: func(b metrics.Breach) {
				s.metrics.SLOBreaches.WithLabelValues(b.SLO).Inc()
				if shedFor > 0 {
					s.exec.ShedFor(shedFor)
				}
			},
		}, objectives...)
		s.watchdog.Start()
	}

	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("POST /v1/tte", s.handleTTE)
	s.mux.HandleFunc("GET /v1/jobs", s.handleList)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleGet)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	s.mux.HandleFunc("GET /v1/jobs/{id}/flight", s.handleFlight)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /v1/registry", s.handleRegistry)
	s.mux.HandleFunc("GET /v1/traces", s.handleTraces)
	s.mux.HandleFunc("GET /v1/traces/{id}", s.handleTraceGet)
	s.mux.HandleFunc("GET /v1/query", s.handleQuery)
	s.mux.HandleFunc("GET /v1/stream", s.handleStream)
	s.mux.HandleFunc("GET /v1/alerts", s.handleAlerts)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /debug/buildinfo", s.handleBuildInfo)
	if cfg.EnablePprof {
		s.mux.HandleFunc("/debug/pprof/", pprof.Index)
		s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	if s.store != nil {
		s.startTelemetry()
	}
	return s
}

// Handler returns the HTTP handler tree.
func (s *Server) Handler() http.Handler { return s.mux }

// Executor exposes the job engine (tests and embedders).
func (s *Server) Executor() *Executor { return s.exec }

// Watchdog exposes the SLO watchdog, nil when no SLO is configured.
func (s *Server) Watchdog() *metrics.Watchdog { return s.watchdog }

// Drain stops the SLO watchdog and the telemetry plane, then gracefully
// stops the job engine; see Executor.Drain.
func (s *Server) Drain(ctx context.Context) error {
	if s.watchdog != nil {
		s.watchdog.Stop()
	}
	s.stopTelemetry()
	return s.exec.Drain(ctx)
}

// Store exposes the in-process time-series store; nil when telemetry is
// disabled.
func (s *Server) Store() *tsdb.Store { return s.store }

// Bus exposes the live event bus; nil when telemetry is disabled.
func (s *Server) Bus() *tsdb.Bus { return s.bus }

// AnomalyEngine exposes the anomaly engine; nil when telemetry is
// disabled.
func (s *Server) AnomalyEngine() *tsdb.Engine { return s.engine }

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decode job spec: %w", err))
		return
	}
	view, err := s.exec.SubmitWith(spec, submitOptsFrom(r))
	if err != nil {
		writeSubmitError(w, err)
		return
	}
	status := http.StatusAccepted
	if view.State.Terminal() {
		status = http.StatusOK // served from cache
	}
	writeJSON(w, status, view)
}

// handleTTE submits a Monte Carlo time-to-empty job. The body is a plain
// JobSpec; the route implies kind "tte" (an explicit other kind is a 400).
// The job then flows through the same queue, cache, and breakers as
// POST /v1/jobs and is polled at GET /v1/jobs/{id}.
func (s *Server) handleTTE(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decode tte spec: %w", err))
		return
	}
	if spec.Kind != "" && spec.Kind != "tte" {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("%w: kind %q submitted to /v1/tte", ErrBadSpec, spec.Kind))
		return
	}
	spec.Kind = "tte"
	view, err := s.exec.SubmitWith(spec, submitOptsFrom(r))
	if err != nil {
		writeSubmitError(w, err)
		return
	}
	status := http.StatusAccepted
	if view.State.Terminal() {
		status = http.StatusOK // served from cache
	}
	writeJSON(w, status, view)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"jobs": s.exec.List()})
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	view, err := s.exec.Get(r.PathValue("id"))
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, view)
}

// handleEvents serves a job's lifecycle timeline. The contract is
// two-valued and regression-tested: an unknown job ID is a 404, while a
// known job with an empty timeline is a 200 with a JSON `[]` (never
// null), so clients can tell "no such job" from "no events yet".
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	tl, err := s.exec.Events(r.PathValue("id"))
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	if tl.Events == nil {
		tl.Events = []Event{}
	}
	writeJSON(w, http.StatusOK, tl)
}

func (s *Server) handleFlight(w http.ResponseWriter, r *http.Request) {
	flight, err := s.exec.Flight(r.PathValue("id"))
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, flight)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	view, err := s.exec.Cancel(r.PathValue("id"))
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, view)
}

func (s *Server) handleRegistry(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"workloads": s.exec.registry.Workloads(),
		"policies":  s.exec.registry.Policies(),
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":     "ok",
		"queueDepth": s.exec.QueueDepth(),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", metrics.ContentType)
	if err := s.metrics.WritePrometheus(w); err != nil {
		// Headers are gone; nothing useful left to do.
		return
	}
}

func (s *Server) handleBuildInfo(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"version":    s.version,
		"goVersion":  runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"goroutines": runtime.NumGoroutine(),
		"uptimeS":    time.Since(s.started).Seconds(),
	})
}

// buildVersion reads the module version stamped into the binary; "devel"
// when built from a working tree without version metadata.
func buildVersion() string {
	if bi, ok := debug.ReadBuildInfo(); ok && bi.Main.Version != "" && bi.Main.Version != "(devel)" {
		return bi.Main.Version
	}
	return "devel"
}

// statusFor maps executor errors onto HTTP statuses.
func statusFor(err error) int {
	switch {
	case errors.Is(err, ErrNotFound), errors.Is(err, ErrNoFlight):
		return http.StatusNotFound
	case errors.Is(err, ErrBadSpec):
		return http.StatusBadRequest
	case errors.Is(err, ErrShed):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrQueueFull), errors.Is(err, ErrDraining), errors.Is(err, ErrBreakerOpen):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

// writeSubmitError is writeError plus the Retry-After header that shed
// (429) responses carry, telling well-behaved clients when to come back.
func writeSubmitError(w http.ResponseWriter, err error) {
	var sh *ShedError
	if errors.As(err, &sh) {
		secs := int(sh.RetryAfter.Seconds())
		if secs < 1 {
			secs = 1 // Retry-After is integer seconds; round sub-second hints up
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
	}
	writeError(w, statusFor(err), err)
}

// respBuf is a pooled response-encoding buffer: writeJSON encodes into it
// and copies once to the wire, so the per-request encoder allocation and
// its growth churn disappear at high RPS.
type respBuf struct {
	buf bytes.Buffer
	enc *json.Encoder
}

var respPool = sync.Pool{
	New: func() any {
		b := &respBuf{}
		b.enc = json.NewEncoder(&b.buf)
		return b
	},
}

// maxPooledResponse caps what writeJSON returns to the pool; a giant
// outcome body shouldn't pin its buffer forever.
const maxPooledResponse = 1 << 20

func writeJSON(w http.ResponseWriter, status int, v any) {
	b := respPool.Get().(*respBuf)
	b.buf.Reset()
	if err := b.enc.Encode(v); err != nil {
		respPool.Put(b)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusInternalServerError)
		fmt.Fprintf(w, `{"error":%q}`+"\n", "encode response: "+err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(b.buf.Bytes())
	if b.buf.Cap() <= maxPooledResponse {
		respPool.Put(b)
	}
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}
