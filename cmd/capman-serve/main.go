// Command capman-serve runs capmand, the simulation-as-a-service daemon:
// the CAPMAN simulator behind an HTTP JSON job API with a bounded worker
// pool, a content-addressed result cache, and Prometheus metrics.
//
// Usage:
//
//	capman-serve -addr :8080 -workers 8 -queue 128 -job-timeout 5m
//	capman-serve -log-format json -log-level debug -pprof
//	capman-serve -slo-decision-p99 50us -slo-queue-wait-p95 5s -slo-tte-p99 30s
//
// Submit work with POST /v1/jobs, poll GET /v1/jobs/{id}, cancel with
// DELETE /v1/jobs/{id}; see /metrics, /healthz, /v1/jobs/{id}/events, and
// /debug/buildinfo for observability (-pprof adds /debug/pprof/). The
// telemetry plane — GET /v1/query range queries over the in-process
// time-series store, the GET /v1/stream live event feed that capman-top
// renders, and GET /v1/alerts — is on by default; tune it with
// -telemetry-interval / -telemetry-retention / -anomaly-interval or turn
// it off with -no-telemetry. Request tracing — trace IDs minted (or
// adopted from an inbound W3C traceparent) at admission, tail-sampled
// waterfalls at GET /v1/traces and /v1/traces/{id}, trace-ID exemplars
// on the /metrics latency histograms — is on by default; tune it with
// -trace-sample / -trace-seed / -trace-store / -exemplars or turn it
// off with -no-trace. On
// SIGTERM or SIGINT the server stops accepting work, drains in-flight
// jobs (up to -drain-timeout), and exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/invariant"
	"repro/internal/obs"
	"repro/internal/server"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "capman-serve:", err)
		os.Exit(1)
	}
}

// run parses flags, binds the listener, and serves until ctx is cancelled
// (SIGTERM/SIGINT in production; the tests cancel it directly).
func run(ctx context.Context, args []string, out *os.File) error {
	fs := flag.NewFlagSet("capman-serve", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "listen address")
	workers := fs.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
	queue := fs.Int("queue", 64, "job queue depth")
	cache := fs.Int("cache", 256, "result cache capacity (-1 disables)")
	jobTimeout := fs.Duration("job-timeout", 0, "per-job wall-clock timeout, starting at dequeue (0 = none)")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "graceful drain budget on shutdown")
	retries := fs.Int("retries", 0, "max retries for retryable job failures (0 = default 2, -1 disables)")
	breakerThreshold := fs.Int("breaker-threshold", 0, "consecutive failures that open an entry's circuit breaker (0 = default 5, -1 disables)")
	breakerCooldown := fs.Duration("breaker-cooldown", 0, "how long an open breaker sheds load before probing (0 = default 30s)")
	queueWaitWarn := fs.Duration("queue-wait-warn", 0, "warn when a job's queue wait exceeds this (0 = default 30s, -1ns disables)")
	sloDecisionP99 := fs.Duration("slo-decision-p99", 0, "SLO: p99 target for policy decision latency; arms the burn-rate watchdog (0 disables)")
	sloQueueWaitP95 := fs.Duration("slo-queue-wait-p95", 0, "SLO: p95 target for job queue wait; arms the burn-rate watchdog (0 disables)")
	sloTTEP99 := fs.Duration("slo-tte-p99", 0, "SLO: p99 target for Monte Carlo time-to-empty job wall time; arms the burn-rate watchdog (0 disables)")
	sloWindow := fs.Duration("slo-window", 0, "SLO burn-rate evaluation window (0 = default 5m)")
	sloInterval := fs.Duration("slo-interval", 0, "SLO evaluation cadence (0 = default 15s)")
	noTelemetry := fs.Bool("no-telemetry", false, "disable the telemetry plane (/v1/query, /v1/stream, /v1/alerts answer 503)")
	telemetryInterval := fs.Duration("telemetry-interval", 0, "time-series store scrape period (0 = default 1s)")
	telemetryRetention := fs.Int("telemetry-retention", 0, "points retained per series in the time-series store (0 = default 600)")
	anomalyInterval := fs.Duration("anomaly-interval", 0, "anomaly detector evaluation cadence (0 = default 15s)")
	shedWatermark := fs.Int("shed-watermark", 0, "queue depth at which the admission gate sheds new work with 429 (0 disables)")
	shedRetryAfter := fs.Duration("shed-retry-after", 0, "Retry-After hint attached to shed responses (0 = default 1s)")
	shedOnBurn := fs.Bool("shed-on-burn", false, "let SLO burn-rate breaches arm the load-shedding gate for one evaluation interval")
	readHeaderTimeout := fs.Duration("read-header-timeout", 5*time.Second, "http server limit for reading request headers (0 = none)")
	readTimeout := fs.Duration("read-timeout", time.Minute, "http server limit for reading a full request (0 = none; streams exempt themselves)")
	writeTimeout := fs.Duration("write-timeout", time.Minute, "http server limit for writing a response (0 = none; streams exempt themselves)")
	maxHeaderBytes := fs.Int("max-header-bytes", 1<<20, "http server cap on request header size")
	noTrace := fs.Bool("no-trace", false, "disable request tracing (/v1/traces answers 503; no trace IDs minted)")
	traceSample := fs.Float64("trace-sample", 0, "tail-sampling keep probability for healthy traces (0 = default 0.1; signal traces are always kept)")
	traceSeed := fs.Uint64("trace-seed", 0, "seed for the deterministic tail sampler (0 = unseeded)")
	traceStore := fs.Int("trace-store", 0, "retained-trace ring capacity (0 = default 512)")
	exemplars := fs.Bool("exemplars", true, "attach OpenMetrics trace-ID exemplars to latency histograms on /metrics")
	noInvariants := fs.Bool("no-invariants", false, "disable the runtime safety-invariant checker on served jobs")
	invariantCPUCeiling := fs.Float64("invariant-cpu-ceiling", 0, "override the checker's CPU thermal ceiling in degC (0 = calibrated default)")
	logLevel := fs.String("log-level", "info", "log level: debug|info|warn|error")
	logFormat := fs.String("log-format", obs.FormatText, "log format: text|json")
	enablePprof := fs.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	if err := fs.Parse(args); err != nil {
		return err
	}

	level, err := obs.ParseLevel(*logLevel)
	if err != nil {
		return err
	}
	logger, err := obs.NewLogger(out, level, *logFormat)
	if err != nil {
		return err
	}

	var invOverride *invariant.Config
	if *invariantCPUCeiling > 0 {
		invOverride = &invariant.Config{MaxCPUTempC: *invariantCPUCeiling}
	}
	srv := server.New(server.Config{
		Logger:      logger,
		EnablePprof: *enablePprof,
		Executor: server.ExecutorConfig{
			Workers:            *workers,
			QueueDepth:         *queue,
			CacheSize:          *cache,
			JobTimeout:         *jobTimeout,
			MaxRetries:         *retries,
			QueueWaitWarn:      *queueWaitWarn,
			ShedQueueWatermark: *shedWatermark,
			ShedRetryAfter:     *shedRetryAfter,
			DisableInvariants:  *noInvariants,
			Invariants:         invOverride,
			Breaker: server.BreakerConfig{
				Threshold: *breakerThreshold,
				Cooldown:  *breakerCooldown,
			},
			Trace: server.TraceConfig{
				Disable:    *noTrace,
				SampleRate: *traceSample,
				Seed:       *traceSeed,
				StoreSize:  *traceStore,
				Exemplars:  *exemplars && !*noTrace,
			},
		},
		SLO: server.SLOConfig{
			DecisionP99:  *sloDecisionP99,
			QueueWaitP95: *sloQueueWaitP95,
			TTEP99:       *sloTTEP99,
			Window:       *sloWindow,
			Interval:     *sloInterval,
			ShedOnBurn:   *shedOnBurn,
		},
		Telemetry: server.TelemetryConfig{
			Disable:         *noTelemetry,
			Interval:        *telemetryInterval,
			Retention:       *telemetryRetention,
			AnomalyInterval: *anomalyInterval,
		},
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	logger.Info("capmand listening",
		"addr", ln.Addr().String(),
		"workers", *workers,
		"queue", *queue,
		"cache", *cache,
		"job_timeout", jobTimeout.String(),
		"drain_timeout", drainTimeout.String(),
		"queue_wait_warn", queueWaitWarn.String(),
		"slo_decision_p99", sloDecisionP99.String(),
		"slo_queue_wait_p95", sloQueueWaitP95.String(),
		"slo_tte_p99", sloTTEP99.String(),
		"shed_watermark", *shedWatermark,
		"shed_on_burn", *shedOnBurn,
		"invariants", !*noInvariants,
		"telemetry", !*noTelemetry,
		"trace", !*noTrace,
		"trace_sample", *traceSample,
		"exemplars", *exemplars && !*noTrace,
		"pprof", *enablePprof,
		"log_level", level.String(),
		"log_format", *logFormat)
	fmt.Fprintf(out, "capmand listening on %s\n", ln.Addr())
	httpSrv := hardenedServer(srv.Handler(), *readHeaderTimeout, *readTimeout, *writeTimeout, *maxHeaderBytes)
	return serve(ctx, ln, srv, httpSrv, *drainTimeout, out, logger)
}

// hardenedServer builds the http.Server with slow-client limits: header
// and request read deadlines, a response write deadline, and a header
// size cap. Long-lived SSE streams opt out per connection — handleStream
// clears its read and write deadlines via http.ResponseController — so
// the daemon-wide timeouts only police request/response endpoints.
func hardenedServer(h http.Handler, readHeader, read, write time.Duration, maxHeader int) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: readHeader,
		ReadTimeout:       read,
		WriteTimeout:      write,
		MaxHeaderBytes:    maxHeader,
	}
}

// serve runs the HTTP server on ln until ctx is cancelled, then performs
// the graceful drain: stop accepting connections, let in-flight jobs
// finish within the drain budget, cancel whatever remains.
func serve(ctx context.Context, ln net.Listener, srv *server.Server, httpSrv *http.Server, drainTimeout time.Duration, out *os.File, logger *slog.Logger) error {
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}

	fmt.Fprintln(out, "capmand draining...")
	logger.Info("shutdown signal received; draining", "budget", drainTimeout.String())
	start := time.Now()
	drainCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	drainErr := srv.Drain(drainCtx)
	if err := httpSrv.Shutdown(drainCtx); err != nil && drainErr == nil {
		drainErr = err
	}
	<-errc // Serve has returned http.ErrServerClosed
	if drainErr != nil && !errors.Is(drainErr, context.DeadlineExceeded) {
		logger.Error("drain failed", "err", drainErr, "elapsed", time.Since(start).String())
		return drainErr
	}
	if errors.Is(drainErr, context.DeadlineExceeded) {
		logger.Warn("drain budget exhausted; remaining jobs were cancelled",
			"elapsed", time.Since(start).String())
	} else {
		logger.Info("drain complete", "elapsed", time.Since(start).String())
	}
	fmt.Fprintln(out, "capmand stopped")
	return nil
}
