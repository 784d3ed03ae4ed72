// Package capman is the public API of the CAPMAN reproduction: a cooling
// and active power management framework for big.LITTLE battery supported
// devices (Zhou, Xu, Zheng, Wang — ICDCS 2020), rebuilt on a calibrated
// simulation substrate.
//
// The package re-exports the stable surface of the internal packages:
//
//   - New / DefaultSchedulerConfig build the CAPMAN scheduler (the MDP +
//     structural-similarity battery manager of the paper's Section III).
//   - Run executes one simulated discharge cycle: a workload drives the
//     phone power models, a policy schedules the big.LITTLE pack, and the
//     thermal network with TEC active cooling closes the loop.
//   - The Workloads, Policies, Pack and Profile helpers assemble the
//     standard evaluation setups.
//
// A minimal session:
//
//	sched, err := capman.New(capman.DefaultSchedulerConfig())
//	if err != nil { ... }
//	res, err := capman.Run(capman.SimConfig{
//		Profile:  capman.NexusProfile(),
//		Workload: capman.VideoWorkload(42),
//		Policy:   sched,
//		Pack:     capman.DefaultPack(),
//		TEC:      capman.DefaultTEC(),
//	})
//	fmt.Printf("service time: %.1fh\n", res.ServiceTimeS/3600)
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-versus-measured record of every table and figure.
package capman

import (
	"context"

	"repro/internal/battery"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/obs/metrics"
	"repro/internal/sched"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/tec"
	"repro/internal/thermal"
	"repro/internal/workload"
)

// Aliases re-exporting the core types.
type (
	// Scheduler is the CAPMAN battery scheduler.
	Scheduler = core.Scheduler
	// SchedulerConfig parameterises the scheduler.
	SchedulerConfig = core.Config
	// SchedulerStats exposes the scheduler's counters.
	SchedulerStats = core.Stats

	// SimConfig describes one simulated discharge cycle.
	SimConfig = sim.Config
	// Result is a discharge cycle's outcome.
	Result = sim.Result
	// CyclesConfig describes a multi-cycle (discharge + recharge) run.
	CyclesConfig = sim.CyclesConfig
	// CyclesResult aggregates a multi-cycle run.
	CyclesResult = sim.CyclesResult

	// Policy schedules the big.LITTLE pack.
	Policy = sched.Policy
	// Decision is a policy's per-step output.
	Decision = sched.Decision
	// Context is the information a policy may inspect.
	Context = sched.Context

	// PackConfig assembles a big.LITTLE battery pack.
	PackConfig = battery.PackConfig
	// CellParams describes one simulated cell.
	CellParams = battery.Params
	// Chemistry enumerates the surveyed lithium chemistries.
	Chemistry = battery.Chemistry
	// Selection identifies the big or LITTLE cell.
	Selection = battery.Selection

	// Profile is a phone power profile.
	Profile = device.Profile
	// Generator produces software demand.
	Generator = workload.Generator

	// TECDevice is a thermoelectric cooler model.
	TECDevice = tec.Device
	// ThermalConfig sizes the phone's thermal network.
	ThermalConfig = thermal.PhoneConfig

	// FaultPlan composes failure modes for injection into a run (set
	// SimConfig.Faults); same seed, same plan → identical Results.
	FaultPlan = fault.Plan
	// FaultCounts tallies the fault events a run injected.
	FaultCounts = fault.Counts
	// Health tells a policy how trustworthy its readings are.
	Health = sched.Health
	// GuardConfig tunes the graceful-degradation guard thresholds.
	GuardConfig = sched.GuardConfig
	// DegradeEvent records one degraded-mode transition in a Result.
	DegradeEvent = sched.DegradeEvent

	// JobSpec is the declarative simulation job accepted by capmand's
	// POST /v1/jobs (and by Server.Executor().Submit in process).
	JobSpec = server.JobSpec
	// JobView is the API's snapshot of a submitted job.
	JobView = server.View
	// JobOutcome is a finished job's result payload.
	JobOutcome = server.Outcome
	// JobState enumerates the job lifecycle.
	JobState = server.State
	// JobRegistry maps spec names onto workload/policy factories.
	JobRegistry = server.Registry
	// Server is capmand, the simulation-as-a-service HTTP subsystem.
	Server = server.Server
	// ServeConfig assembles a Server.
	ServeConfig = server.Config
	// ExecutorConfig sizes the server's worker pool, queue and cache.
	ExecutorConfig = server.ExecutorConfig
	// JobTimeline is a job's lifecycle events (from its request span),
	// served by the API at GET /v1/jobs/{id}/events.
	JobTimeline = server.Timeline
	// JobEvent is one entry in a JobTimeline.
	JobEvent = server.Event

	// Recorder collects span trees when attached to a run (set
	// SimConfig.Recorder or use WithRecorder on the run's context).
	Recorder = obs.Recorder
	// Span is one timed region in a Recorder's tree.
	Span = obs.Span
	// Histogram is the lock-free fixed-bucket histogram behind the
	// latency metrics.
	Histogram = obs.Histogram
	// HistogramSnapshot is a Histogram's point-in-time copy, with
	// Mean/Quantile helpers.
	HistogramSnapshot = obs.HistogramSnapshot
	// Timing is the per-phase step-cost breakdown a traced Run attaches
	// to its Result.
	Timing = sim.Timing

	// MetricsSink streams a run's instrumentation (decision latency,
	// per-phase wall clock, degradations) into external metrics without
	// enabling tracing; set SimConfig.Metrics.
	MetricsSink = sim.MetricsSink
	// MetricsRegistry is the unified label-aware metrics registry behind
	// capmand's /metrics endpoint.
	MetricsRegistry = metrics.Registry
	// MetricSample is one gathered (name, labels, value) triple.
	MetricSample = metrics.Sample
	// MetricDelta is a series' movement between two Gather snapshots.
	MetricDelta = metrics.Delta
	// SLOObjective is one quantile-threshold objective for the watchdog.
	SLOObjective = metrics.Objective
	// SLOWatchdog evaluates burn rates over latency histograms.
	SLOWatchdog = metrics.Watchdog
	// SLOBreach is one watchdog conviction.
	SLOBreach = metrics.Breach
	// SLOConfig arms capmand's built-in watchdog via ServeConfig.SLO.
	SLOConfig = server.SLOConfig

	// FlightBox is a Recorder's snapshot — the "black box" cut when a run
	// or job fails: the span forest with each span's events.
	FlightBox = obs.FlightBox
	// JobFlight is a failed capmand job's black box, served by the API at
	// GET /v1/jobs/{id}/flight.
	JobFlight = server.JobFlight

	// TraceConfig tunes capmand's request-tracing pipeline (tail-sampling
	// rate and seed, trace-store size, /metrics exemplars) via
	// ExecutorConfig.Trace.
	TraceConfig = server.TraceConfig
	// TraceSummary is one retained request trace, as listed by
	// GET /v1/traces.
	TraceSummary = server.TraceSummary
	// TraceID is the 128-bit request trace identity, compatible with the
	// W3C traceparent header.
	TraceID = obs.TraceID
	// StoredTrace is a retained trace's full span tree, served by
	// GET /v1/traces/{id}.
	StoredTrace = obs.StoredTrace
	// TraceStoreStats is the tail-sampling trace store's retention
	// accounting (kept signal/sampled, dropped, evicted, live length).
	TraceStoreStats = obs.TraceStoreStats
)

// Re-exported chemistry constants.
const (
	LCO = battery.LCO
	NCA = battery.NCA
	LMO = battery.LMO
	NMC = battery.NMC
	LFP = battery.LFP
	LTO = battery.LTO

	// SelectBig and SelectLittle name the pack's cells.
	SelectBig    = battery.SelectBig
	SelectLittle = battery.SelectLittle
)

// New builds the CAPMAN scheduler.
func New(cfg SchedulerConfig) (*Scheduler, error) { return core.New(cfg) }

// DefaultSchedulerConfig returns the evaluation's scheduler configuration.
func DefaultSchedulerConfig() SchedulerConfig { return core.DefaultConfig() }

// Run executes one simulated discharge cycle.
func Run(cfg SimConfig) (*Result, error) { return sim.Run(cfg) }

// RunContext executes one simulated discharge cycle under a context;
// cancellation is observed at step granularity.
func RunContext(ctx context.Context, cfg SimConfig) (*Result, error) {
	return sim.RunContext(ctx, cfg)
}

// RunCycles executes repeated discharge cycles with CC-CV recharges of the
// same pack in between.
func RunCycles(cfg CyclesConfig) (*CyclesResult, error) { return sim.RunCycles(cfg) }

// RunCyclesContext is RunCycles under a context.
func RunCyclesContext(ctx context.Context, cfg CyclesConfig) (*CyclesResult, error) {
	return sim.RunCyclesContext(ctx, cfg)
}

// RunMany executes independent configurations on a bounded worker pool,
// aggregating every per-run failure with errors.Join.
func RunMany(cfgs []SimConfig, workers int) ([]*Result, error) {
	return sim.RunMany(cfgs, workers)
}

// RunManyContext is RunMany under a context; see sim.RunManyContext for
// the cancellation and error-aggregation contract.
func RunManyContext(ctx context.Context, cfgs []SimConfig, workers int) ([]*Result, error) {
	return sim.RunManyContext(ctx, cfgs, workers)
}

// NewServer builds capmand (the simulation service) and starts its worker
// pool; mount NewServer(cfg).Handler() or use cmd/capman-serve.
func NewServer(cfg ServeConfig) *Server { return server.New(cfg) }

// DefaultJobRegistry returns the registry of named workloads and policies
// that job specs resolve against — the same vocabulary cmd/capman-sim
// accepts. Extend it with RegisterWorkload/RegisterPolicy before passing
// it in ExecutorConfig.Registry.
func DefaultJobRegistry() *JobRegistry { return server.DefaultRegistry() }

// NewRecorder builds a span recorder; limit ≤ 0 uses the default bound.
func NewRecorder(limit int) *Recorder { return obs.NewRecorder(limit) }

// WithRecorder attaches a span recorder to a context, enabling tracing in
// RunContext without touching the SimConfig.
func WithRecorder(ctx context.Context, rec *Recorder) context.Context {
	return obs.WithRecorder(ctx, rec)
}

// NewMetricsRegistry builds an empty unified metrics registry. A nil
// *MetricsRegistry is valid and disables every instrument created from it
// at zero cost.
func NewMetricsRegistry() *MetricsRegistry { return metrics.NewRegistry() }

// NewLogger builds a structured slog logger in "text" or "json" format;
// parse the level with ParseLogLevel.
var NewLogger = obs.NewLogger

// ParseLogLevel parses debug|info|warn|error ("" means info).
var ParseLogLevel = obs.ParseLevel

// FaultPlans lists the named fault-injection plans, sorted.
func FaultPlans() []string { return fault.Plans() }

// FaultPlanByName builds a library fault plan seeded for a run; "" and
// "none" return (nil, nil), meaning fault-free.
func FaultPlanByName(name string, seed int64) (*FaultPlan, error) {
	return fault.ByName(name, seed)
}

// TuneOracle performs the offline threshold search behind the Oracle
// baseline and returns the best threshold with its run.
func TuneOracle(cfg SimConfig, thresholds []float64) (float64, *Result, error) {
	return sim.TuneOracle(cfg, thresholds)
}

// DefaultPack returns the paper's pack: 2500 mAh NCA (big) + 2500 mAh LMO
// (LITTLE) behind the switch facility with a supercapacitor filter.
func DefaultPack() PackConfig { return battery.DefaultPackConfig() }

// CellParamsFor returns calibrated parameters for a chemistry at the given
// capacity in mAh.
func CellParamsFor(c Chemistry, mah float64) (CellParams, error) {
	return battery.ParamsFor(c, mah)
}

// DefaultTEC returns the prototype's ATE-31-2.2A cooler.
func DefaultTEC() *TECDevice {
	d := tec.ATE31()
	return &d
}

// DefaultThermal returns the calibrated phone thermal network.
func DefaultThermal() ThermalConfig { return thermal.DefaultPhoneConfig() }

// Phone profiles of the prototype.
func NexusProfile() Profile  { return device.Nexus() }
func HonorProfile() Profile  { return device.Honor() }
func LenovoProfile() Profile { return device.Lenovo() }

// Baseline policies of the evaluation.
func PracticePolicy() Policy  { return sched.NewSingle() }
func DualPolicy() Policy      { return sched.NewDual() }
func HeuristicPolicy() Policy { return sched.NewHeuristic() }

// OraclePolicy wraps an offline-tuned threshold.
func OraclePolicy(wattThreshold float64) Policy { return sched.NewOracle(wattThreshold) }

// Workload factories of the evaluation. Each call returns a function that
// builds a fresh deterministic generator, as SimConfig.Workload expects.
func IdleWorkload(seed int64) func() Generator {
	return func() Generator { return workload.NewIdle(seed) }
}

// GeekbenchWorkload is the fully utilised benchmark.
func GeekbenchWorkload(seed int64) func() Generator {
	return func() Generator { return workload.NewGeekbench(seed) }
}

// PCMarkWorkload is the bursty CPU benchmark with user interactions.
func PCMarkWorkload(seed int64) func() Generator {
	return func() Generator { return workload.NewPCMark(seed) }
}

// VideoWorkload streams short videos with periodic fetches and seek spikes.
func VideoWorkload(seed int64) func() Generator {
	return func() Generator { return workload.NewVideo(seed) }
}

// EtaStaticWorkload mixes PCMark and Video; eta is the PCMark fraction.
func EtaStaticWorkload(eta float64, seed int64) (func() Generator, error) {
	if _, err := workload.NewEtaStatic(eta, seed); err != nil {
		return nil, err
	}
	return func() Generator {
		g, err := workload.NewEtaStatic(eta, seed)
		if err != nil {
			panic(err) // validated above
		}
		return g
	}, nil
}

// OnOffWorkload cycles the phone on and off with the given full period.
func OnOffWorkload(periodS float64, seed int64) (func() Generator, error) {
	if _, err := workload.NewOnOff(periodS, seed); err != nil {
		return nil, err
	}
	return func() Generator {
		g, err := workload.NewOnOff(periodS, seed)
		if err != nil {
			panic(err) // validated above
		}
		return g
	}, nil
}
