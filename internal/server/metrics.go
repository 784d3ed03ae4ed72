package server

import (
	"io"
	"sync"

	"repro/internal/obs"
	"repro/internal/obs/metrics"
)

// Metrics is capmand's instrument panel, built on the unified registry in
// internal/obs/metrics. All instruments are safe for concurrent use;
// WritePrometheus renders the whole registry — executor counters, the
// simulation-streamed panel, runtime gauges, everything — through the one
// strict exposition writer, so /metrics has a single consistent format.
type Metrics struct {
	reg *metrics.Registry

	JobsSubmitted *metrics.Counter
	JobsCompleted *metrics.Counter
	JobsFailed    *metrics.Counter
	JobsCancelled *metrics.Counter
	CacheHits     *metrics.Counter
	CacheMisses   *metrics.Counter

	// Robustness instrumentation: worker panics turned into job errors,
	// retry attempts, circuit-breaker trips, and the fault-injection /
	// degradation totals reported by finished simulations.
	JobPanics      *metrics.Counter
	JobRetries     *metrics.Counter
	BreakerTrips   *metrics.Counter
	FaultsInjected *metrics.Counter
	Degradations   *metrics.Counter

	// QueueWaitWarnings counts jobs whose queue wait exceeded the
	// executor's QueueWaitWarn threshold.
	QueueWaitWarnings *metrics.Counter

	QueueDepth  *metrics.Gauge
	WorkersBusy *metrics.Gauge
	Workers     *metrics.Gauge

	// JobWallSeconds and QueueWaitSeconds are fixed-bucket histograms
	// (Prometheus histogram type with a +Inf bucket), so dashboards can
	// read tail latencies instead of just a mean.
	JobWallSeconds   *metrics.Histogram
	QueueWaitSeconds *metrics.Histogram

	// TTELatency observes the wall clock of tte-kind jobs only — the
	// Monte Carlo batches behind POST /v1/tte — so their p99 can carry its
	// own SLO without the sim jobs diluting the distribution.
	TTELatency *metrics.Histogram

	// Simulation-streamed panel: running jobs feed these through a
	// sim.MetricsSink, rather than the server scraping finished Results.
	DecisionLatency *metrics.Histogram       // per-step Policy.Decide host latency, merged at run end
	EMDLatency      *metrics.Histogram       // structural-similarity EMD computations
	PhaseSeconds    *metrics.CounterFloatVec // cumulative step-phase wall clock, by phase
	Degrades        *metrics.CounterVec      // guard transitions, by reason

	// ZoneTemp holds the latest zone temperatures streamed live from
	// running simulations, by thermal node (cpu, body, battery, spreader).
	ZoneTemp *metrics.GaugeFloatVec

	// InvariantViolations counts safety-invariant breaches reported by
	// running simulations and finished twin batches, by contract and
	// severity.
	InvariantViolations *metrics.CounterVec

	// Anomalies counts anomaly-engine alerts, by detector.
	Anomalies *metrics.CounterVec

	// SLOBreaches counts SLO burn-rate alerts, labeled by objective.
	SLOBreaches *metrics.CounterVec

	// Shed counts submissions rejected by the admission gate before any
	// work was queued, by reason (queue-depth, burn-rate).
	Shed *metrics.CounterVec

	// TracesTotal counts tail-sampling decisions, by decision: "signal"
	// (shed/error/retry-exhausted/slo-breach/fatal-invariant, always
	// kept), "sampled" (healthy, won the hash draw), "dropped".
	TracesTotal *metrics.CounterVec

	// BreakerStates, when set (the executor installs it), enumerates the
	// per-registry-entry circuit breakers for the labeled breaker_state
	// gauge: 0 closed, 1 half-open, 2 open.
	BreakerStates func() map[string]string

	runtimeOnce sync.Once
}

// NewMetrics returns a fresh instrument panel backed by its own registry.
func NewMetrics() *Metrics {
	reg := metrics.NewRegistry()
	m := &Metrics{
		reg: reg,

		JobsSubmitted: reg.Counter("capmand_jobs_submitted_total",
			"Jobs accepted by POST /v1/jobs."),
		JobsCompleted: reg.Counter("capmand_jobs_completed_total",
			"Jobs that finished successfully."),
		JobsFailed: reg.Counter("capmand_jobs_failed_total",
			"Jobs that ended in an error."),
		JobsCancelled: reg.Counter("capmand_jobs_cancelled_total",
			"Jobs cancelled before completion."),
		CacheHits: reg.Counter("capmand_cache_hits_total",
			"Submissions served from the result cache or coalesced onto an in-flight job."),
		CacheMisses: reg.Counter("capmand_cache_misses_total",
			"Submissions that had to run the simulator."),
		JobPanics: reg.Counter("capmand_job_panics_total",
			"Worker panics recovered into job failures."),
		JobRetries: reg.Counter("capmand_job_retries_total",
			"Retry attempts for jobs that failed with retryable errors."),
		BreakerTrips: reg.Counter("capmand_breaker_trips_total",
			"Circuit breakers tripped open by consecutive failures."),
		FaultsInjected: reg.Counter("capmand_faults_injected_total",
			"Fault events injected by finished simulations."),
		Degradations: reg.Counter("capmand_degradations_total",
			"Graceful-degradation transitions reported by finished simulations."),
		QueueWaitWarnings: reg.Counter("capmand_queue_wait_warnings_total",
			"Jobs whose queue wait exceeded the warning threshold."),

		QueueDepth: reg.Gauge("capmand_queue_depth",
			"Jobs waiting in the FIFO queue."),
		WorkersBusy: reg.Gauge("capmand_workers_busy",
			"Workers currently executing a job."),
		Workers: reg.Gauge("capmand_workers",
			"Size of the worker pool."),

		JobWallSeconds: reg.Histogram("capmand_job_wall_seconds",
			"Wall-clock time spent executing jobs.", obs.WallBuckets()),
		QueueWaitSeconds: reg.Histogram("capmand_queue_wait_seconds",
			"Time jobs spent queued between submit and dequeue; the per-job timeout starts at dequeue, after this wait.",
			obs.WallBuckets()),
		TTELatency: reg.Histogram("capmand_tte_latency_seconds",
			"Wall-clock time spent executing Monte Carlo time-to-empty jobs.",
			obs.WallBuckets()),

		DecisionLatency: reg.Histogram("capman_decision_latency_seconds",
			"Per-step Policy.Decide host latency, merged in from each simulation when it ends.",
			obs.LatencyBuckets()),
		EMDLatency: reg.Histogram("capman_emd_latency_seconds",
			"Host latency of structural-similarity EMD computations inside the CAPMAN policy.",
			obs.LatencyBuckets()),
		PhaseSeconds: reg.CounterFloatVec("capman_sim_phase_seconds_total",
			"Cumulative wall-clock seconds simulations spent per step phase, estimated from a sample of steps.", "phase"),
		Degrades: reg.CounterVec("capman_degrade_total",
			"Graceful-degradation transitions streamed live from running simulations, by guard mode.",
			"reason"),

		ZoneTemp: reg.GaugeFloatVec("capman_zone_temp_celsius",
			"Latest zone temperatures streamed live from running simulations, by thermal node.",
			"zone"),

		InvariantViolations: reg.CounterVec("capman_invariant_violations_total",
			"Safety-invariant violations observed by the runtime checker, by contract and severity.",
			"invariant", "severity"),

		Anomalies: reg.CounterVec("capman_anomaly_total",
			"Anomaly-engine alerts fired over the in-process time-series store, by detector.",
			"detector"),

		SLOBreaches: reg.CounterVec("capmand_slo_breach_total",
			"SLO burn-rate breaches fired by the anomaly engine, by objective.", "slo"),

		Shed: reg.CounterVec("capmand_shed_total",
			"Submissions shed by the admission gate, by reason.", "reason"),

		TracesTotal: reg.CounterVec("capmand_traces_total",
			"Tail-sampling decisions over finished request traces, by decision.",
			"decision"),
	}
	reg.LabeledGaugeFunc("capmand_breaker_state",
		"Per-registry-entry circuit breaker state (0 closed, 1 half-open, 2 open).",
		"entry", func() map[string]float64 {
			if m.BreakerStates == nil {
				return nil
			}
			states := m.BreakerStates()
			out := make(map[string]float64, len(states))
			for entry, state := range states {
				v := 0.0
				switch state {
				case "half-open":
					v = 1
				case "open":
					v = 2
				}
				out[entry] = v
			}
			return out
		})
	return m
}

// Registry exposes the panel's underlying registry, for Gather snapshots
// (the flight box's metric deltas) and the telemetry store.
func (m *Metrics) Registry() *metrics.Registry { return m.reg }

// RegisterRuntime adds the Go runtime / process gauges and the build-info
// series to the panel's registry. Idempotent: the daemon calls it once at
// startup, and a shared panel won't double-register.
func (m *Metrics) RegisterRuntime(version string) {
	m.runtimeOnce.Do(func() { metrics.RegisterRuntime(m.reg, version) })
}

// WritePrometheus renders every metric in the text exposition format.
func (m *Metrics) WritePrometheus(w io.Writer) error {
	return m.reg.WritePrometheus(w)
}
