package server

import (
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"log/slog"
	"runtime"
	"runtime/pprof"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/invariant"
	"repro/internal/obs"
	"repro/internal/obs/metrics"
	"repro/internal/obs/tsdb"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/twin"
)

// resolved is a job's executable form: exactly one field is set, chosen by
// the spec's Kind. Resolution happens once, at submission, so workers never
// touch the registry.
type resolved struct {
	sim  sim.Config
	twin *twin.Config
}

// Executor errors, mapped onto HTTP statuses by the handler layer.
var (
	ErrNotFound = errors.New("server: no such job")
	ErrDraining = errors.New("server: draining, not accepting jobs")
	// ErrShed matches (via errors.Is) submissions rejected by the admission
	// gate; the concrete error is always a *ShedError carrying the reason
	// and the suggested Retry-After.
	ErrShed = errors.New("server: shedding load")
)

// ShedError is an admission-gate rejection: the daemon is overloaded
// (the queue is full, or an SLO burn-rate breach armed the gate) and the
// client should retry after RetryAfter, a whole number of seconds. Mapped
// to HTTP 429.
type ShedError struct {
	Reason     string // "queue-depth" or "burn-rate", the capmand_shed_total label
	RetryAfter time.Duration
}

func (e *ShedError) Error() string {
	return fmt.Sprintf("server: shedding load (%s); retry in %s", e.Reason, e.RetryAfter)
}

func (e *ShedError) Is(target error) bool { return target == ErrShed }

// ExecutorConfig sizes the worker pool.
type ExecutorConfig struct {
	// Workers is the pool size (default GOMAXPROCS).
	Workers int
	// QueueDepth bounds the FIFO backlog (default 64); a full queue sheds
	// submissions with a *ShedError (reason "queue-depth", HTTP 429)
	// rather than blocking.
	QueueDepth int
	// JobTimeout caps each job's wall-clock execution; zero means no
	// timeout. A timed-out job fails with context.DeadlineExceeded. The
	// clock starts when a worker dequeues the job, not at submission —
	// time spent queued is reported separately as queue_wait_seconds.
	JobTimeout time.Duration
	// Breaker tunes the per-registry-entry circuit breakers that shed
	// load after consecutive failures (see BreakerConfig for defaults).
	Breaker BreakerConfig
	// CacheSize bounds the content-addressed result cache (default 256;
	// negative disables caching).
	CacheSize int
	// QueueWaitWarn is the queue-wait threshold above which a dequeued
	// job logs a warning (with its request ID) and increments
	// capmand_queue_wait_warnings_total (default 30s; negative disables).
	QueueWaitWarn time.Duration
	// DisableInvariants turns off the runtime safety-invariant checker.
	// The default (zero value) runs every sim job and twin batch under the
	// checker: violations stream into
	// capman_invariant_violations_total{invariant,severity} and the job's
	// engine span, and a fatal violation trips the sim's degradation
	// guard. The checker observes without perturbing physics, so cached
	// outcomes of clean runs are byte-identical either way.
	DisableInvariants bool
	// Invariants overrides the checker's envelopes (nil = calibrated
	// defaults). Ignored when DisableInvariants is set.
	Invariants *invariant.Config
	// Registry resolves job specs (default DefaultRegistry()).
	Registry *Registry
	// Metrics receives the executor's instrumentation (default a fresh
	// panel; share one with the Server to expose it over /metrics).
	Metrics *Metrics
	// Stream, when set, receives live ops events: every job lifecycle
	// transition (tsdb.EventJob carrying a JobStreamEvent), plus degrade
	// and invariant events streamed out of running simulations. The
	// Server wires its /v1/stream bus here.
	Stream *tsdb.Bus
	// Trace tunes the request-tracing subsystem (trace IDs, tail-based
	// sampling, the /v1/traces store). The zero value traces every job;
	// see TraceConfig.
	Trace TraceConfig
	// Logger receives job lifecycle logs, each line tagged with the
	// submission's request ID (default: discard).
	Logger *slog.Logger
}

func (c ExecutorConfig) withDefaults() ExecutorConfig {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.CacheSize == 0 {
		c.CacheSize = 256
	}
	if c.QueueWaitWarn == 0 {
		c.QueueWaitWarn = 30 * time.Second
	}
	if c.QueueWaitWarn < 0 {
		c.QueueWaitWarn = 0 // any negative value means "never warn"
	}
	if c.Registry == nil {
		c.Registry = DefaultRegistry()
	}
	if c.Metrics == nil {
		c.Metrics = NewMetrics()
	}
	if c.Logger == nil {
		c.Logger = obs.Nop()
	}
	return c
}

// Executor owns the job table and the bounded worker pool that drains the
// FIFO queue. Concurrent identical submissions coalesce onto one in-flight
// job (single flight, tracked in the cache), and finished outcomes are
// served from the content-addressed cache — the hot path touches only the
// cache lock and allocates nothing.
//
// Lock order: e.mu before the cache lock and the breaker lock; both are
// leaves.
// Every single-flight mutation (setFlight/clearFlight and the coalesce
// check) happens with e.mu held, so the flight table and the job table
// can never disagree; the Submit fast path takes only the cache lock.
type Executor struct {
	registry   *Registry
	metrics    *Metrics
	cache      *Cache
	workers    int
	timeout    time.Duration
	queueWarn  time.Duration
	breakers   *breakerSet
	logger     *slog.Logger
	invariants *invariant.Config                                          // nil when DisableInvariants
	stream     *tsdb.Bus                                                  // nil: no live event stream
	runFn      func(context.Context, JobSpec, resolved) (*Outcome, error) // test seam

	// Request tracing (trace.go). traces is nil when TraceConfig.Disable
	// was set; the capmand_traces_total handles are cached so the
	// per-trace decision path never takes the vector's series lock.
	traces       *obs.TraceStore
	traceSignal  *metrics.Counter
	traceSampled *metrics.Counter
	traceDropped *metrics.Counter
	// sloQueueWait / sloTTE are the per-request SLO thresholds the tail
	// sampler flags against; set once via armTraceSLO before any Submit.
	sloQueueWait time.Duration
	sloTTE       time.Duration

	// draining is read lock-free on the Submit fast path; it is only ever
	// set under e.mu (Drain), which also serializes the queue close.
	draining atomic.Bool
	// shedUntil is the burn-rate gate: a unix-nano deadline until which
	// new work is shed. Written by ShedFor (CAS max), read lock-free.
	shedUntil atomic.Int64

	mu   sync.Mutex
	jobs map[string]*Job
	seq  int

	queue chan *Job
	wg    sync.WaitGroup
}

// NewExecutor builds the executor and starts its workers.
func NewExecutor(cfg ExecutorConfig) *Executor {
	cfg = cfg.withDefaults()
	e := &Executor{
		registry:   cfg.Registry,
		metrics:    cfg.Metrics,
		cache:      NewCache(cfg.CacheSize),
		workers:    cfg.Workers,
		timeout:    cfg.JobTimeout,
		queueWarn:  cfg.QueueWaitWarn,
		breakers:   newBreakerSet(cfg.Breaker),
		logger:     cfg.Logger,
		invariants: cfg.Invariants,
		stream:     cfg.Stream,
		runFn:      runJob,
		jobs:       make(map[string]*Job),
		queue:      make(chan *Job, cfg.QueueDepth),
	}
	if cfg.DisableInvariants {
		e.invariants = nil
	} else if e.invariants == nil {
		def := invariant.DefaultConfig()
		e.invariants = &def
	}
	if !cfg.Trace.Disable {
		e.traces = obs.NewTraceStore(cfg.Trace.StoreSize, cfg.Trace.tailSampleRate(), cfg.Trace.Seed)
		e.traceSignal = e.metrics.TracesTotal.WithLabelValues(obs.TraceDecisionSignal)
		e.traceSampled = e.metrics.TracesTotal.WithLabelValues(obs.TraceDecisionSampled)
		e.traceDropped = e.metrics.TracesTotal.WithLabelValues(obs.TraceDecisionDropped)
	}
	e.metrics.Workers.Set(int64(cfg.Workers))
	e.metrics.BreakerStates = e.breakers.States
	for w := 0; w < cfg.Workers; w++ {
		e.wg.Add(1)
		go e.worker()
	}
	return e
}

// transition records one job lifecycle event, once: as a lifecycle event
// on the job's request span (the one per-job record behind /events,
// /flight and /v1/traces) and as a job frame on the live event stream.
// Callers hold e.mu; the bus never blocks (it drops for slow consumers).
func (e *Executor) transition(job *Job, typ, detail string) {
	job.rootSpan.Event(obs.EventLifecycle, typ, detail, nil)
	if e.stream != nil {
		e.stream.Publish(tsdb.EventJob, time.Now(), JobStreamEvent{
			JobID: job.ID, RequestID: job.RequestID, State: job.State,
			Type: typ, Detail: detail,
		})
	}
}

// Submit validates and enqueues one job, returning its snapshot. A spec
// whose outcome is already cached is served straight from the cache — a
// terminal cache-hit View with no job ID, since nothing was minted; the
// steady-state hit path performs zero heap allocations (pooled canonical
// buffer, stack hash, one locked lookup). A spec identical to a queued or
// running job coalesces onto that job instead of enqueueing a duplicate.
// A registry entry whose recent jobs kept failing is shed with
// ErrBreakerOpen, and an overloaded daemon sheds new work with *ShedError
// — but cache hits and coalesced submissions still succeed, since they
// run nothing.
func (e *Executor) Submit(spec JobSpec) (View, error) {
	return e.SubmitWith(spec, SubmitOpts{})
}

// SubmitWith is Submit carrying the request's inbound identity: a parsed
// traceparent and an adopted X-Request-ID. Trace identity never enters
// the cache key — caching stays content-addressed by spec alone — and a
// submission without a valid inbound trace pays nothing on the cache-hit
// fast path (minting happens only for jobs, on the slow path).
func (e *Executor) SubmitWith(spec JobSpec, opts SubmitOpts) (View, error) {
	h, v, err := e.admit(spec, opts)
	if h.ent != nil {
		return h.view(), nil
	}
	return v, err
}

// admit is SubmitWith for callers that can use a cache hit's entry
// directly — the HTTP handler writes its pre-encoded body. A hit comes
// back in h and no View is built; anything else returns the job's View
// or the error.
func (e *Executor) admit(spec JobSpec, opts SubmitOpts) (hit, View, error) {
	if e.draining.Load() {
		return hit{}, View{}, ErrDraining
	}
	key, ok := specKey(spec)
	if !ok {
		// Non-finite floats: surface the oracle's canonicalization error.
		if _, err := spec.Canonical(); err != nil {
			return hit{}, View{}, err
		}
		return hit{}, View{}, fmt.Errorf("%w: spec not canonicalizable", ErrBadSpec)
	}
	if ent, ok := e.cache.lookup(key); ok {
		return e.serveHit(ent, opts), View{}, nil
	}
	return e.submitSlow(spec, key, opts)
}

// hitByAlias serves a submission whose body hash was recorded by
// addAlias, skipping decode and canonicalization: false unless the
// alias is known and its entry is still cached. A draining executor
// answers false too, so the full path returns ErrDraining.
func (e *Executor) hitByAlias(body CacheKey, opts SubmitOpts) (hit, bool) {
	if e.draining.Load() {
		return hit{}, false
	}
	key, ok := e.cache.alias(body)
	if !ok {
		return hit{}, false
	}
	ent, ok := e.cache.lookup(key)
	if !ok {
		return hit{}, false
	}
	return e.serveHit(ent, opts), true
}

// serveHit counts a submission served from a cache entry and, when the
// client asked to be traced, records it as a one-span trace. Untraced
// hits skip the trace branch entirely.
func (e *Executor) serveHit(ent *cacheEntry, opts SubmitOpts) hit {
	e.metrics.JobsSubmitted.Inc()
	e.metrics.CacheHits.Inc()
	h := hit{ent: ent, at: time.Now()}
	if opts.Trace.Valid && e.traces != nil {
		e.recordHitTrace(ent.spec, opts, h.at)
	}
	return h
}

// submitSlow is the cache-miss continuation of Submit: resolve through
// the registry, then under the executor lock re-check the cache (a
// concurrent worker may have just published), coalesce onto an in-flight
// job, pass the admission gates, and enqueue.
func (e *Executor) submitSlow(spec JobSpec, key CacheKey, opts SubmitOpts) (hit, View, error) {
	cfg, err := e.resolve(spec)
	if err != nil {
		return hit{}, View{}, err
	}
	spec = spec.withDefaults()
	hash := hex.EncodeToString(key[:])
	reqID := opts.RequestID
	if reqID == "" {
		reqID = obs.NewRequestID()
	}
	log := e.logger.With("request_id", reqID)

	e.mu.Lock()
	defer e.mu.Unlock()
	if e.draining.Load() {
		return hit{}, View{}, ErrDraining
	}
	e.metrics.JobsSubmitted.Inc()

	if ent, ok := e.cache.lookup(key); ok { // published since the fast path
		e.metrics.CacheHits.Inc()
		log.Info("job served from cache", "hash", short(hash))
		return hit{ent: ent, at: time.Now()}, View{}, nil
	}
	if job, ok := e.cache.flight(key); ok {
		e.metrics.CacheHits.Inc()
		e.transition(job, EventCoalesced, "request "+reqID+" coalesced onto this job")
		log.Info("submission coalesced onto in-flight job",
			"job_id", job.ID, "job_request_id", job.RequestID, "hash", short(hash))
		return hit{}, job.view(), nil
	}
	if sh := e.shed(); sh != nil {
		e.metrics.Shed.WithLabelValues(sh.Reason).Inc()
		e.recordShedTrace(spec, opts, sh.Reason) // 429s are signal: always retained
		log.Warn("submission shed by admission gate",
			"reason", sh.Reason, "queue_depth", len(e.queue), "retry_after", sh.RetryAfter.String())
		return hit{}, View{}, sh
	}
	bkey := breakerKey(spec)
	if err := e.breakers.Admit(bkey); err != nil {
		log.Warn("submission shed by open circuit breaker", "entry", bkey)
		return hit{}, View{}, err
	}
	e.metrics.CacheMisses.Inc()

	e.seq++
	job := &Job{
		ID: fmt.Sprintf("j%08d", e.seq), seq: e.seq, RequestID: reqID, Hash: hash,
		Spec: spec, key: key, State: StateQueued, SubmittedAt: time.Now(), cfg: cfg,
	}
	e.mintTrace(job, opts)
	e.queue <- job // shed() saw a free slot; see its comment
	// The worker cannot touch the job before e.mu is released, so both
	// admission events land ahead of "running".
	e.transition(job, EventSubmitted, specDetail(spec))
	e.transition(job, EventQueued, fmt.Sprintf("position %d", len(e.queue)))
	e.jobs[job.ID] = job
	e.cache.setFlight(key, job)
	e.metrics.QueueDepth.Set(int64(len(e.queue)))
	log.Info("job submitted", "job_id", job.ID, "hash", short(hash),
		"workload", spec.Workload, "policy", spec.Policy,
		"trace_id", job.traceID(), "queue_depth", len(e.queue))
	return hit{}, job.view(), nil
}

// shed evaluates the admission gate; nil means admit. Callers hold e.mu.
// Every queue send and the Drain close happen under e.mu too, and workers
// only take from the queue, so a submission that finds a free slot here
// cannot block on its send. The Retry-After hint is measured, not
// configured: a full queue's is how long the pool needs to reach one
// more job, a burn-rate gate's is the time left until it reopens.
func (e *Executor) shed() *ShedError {
	if backlog := len(e.queue); backlog >= cap(e.queue) {
		return &ShedError{Reason: "queue-depth", RetryAfter: e.backlogWait(backlog)}
	}
	if left := time.Until(time.Unix(0, e.shedUntil.Load())); left > 0 {
		return &ShedError{Reason: "burn-rate", RetryAfter: wholeSeconds(left)}
	}
	return nil
}

// backlogWait estimates when a job submitted behind backlog queued jobs
// would start: ceil((backlog+1)/workers) rounds of the mean job wall time
// (capmand_job_wall_seconds), or 1s before any job has finished.
func (e *Executor) backlogWait(backlog int) time.Duration {
	n := e.metrics.JobWallSeconds.Count()
	if n == 0 {
		return time.Second
	}
	rounds := (backlog + e.workers) / e.workers
	mean := e.metrics.JobWallSeconds.Sum() / float64(n)
	return wholeSeconds(time.Duration(float64(rounds) * mean * float64(time.Second)))
}

// wholeSeconds rounds a Retry-After hint up to whole seconds, at least
// one: the header carries integer seconds.
func wholeSeconds(d time.Duration) time.Duration {
	if d <= time.Second {
		return time.Second
	}
	return (d + time.Second - 1).Truncate(time.Second)
}

// ShedFor arms the burn-rate admission gate for the next d: new work
// (cache hits and coalesced submissions excepted) is rejected with a
// *ShedError until the deadline passes. Deadlines only ratchet forward —
// concurrent callers keep the farthest one. The server calls this on
// every SLO burn-rate breach when SLOConfig.ShedOnBurn is set.
func (e *Executor) ShedFor(d time.Duration) {
	if d <= 0 {
		return
	}
	deadline := time.Now().Add(d).UnixNano()
	for {
		cur := e.shedUntil.Load()
		if cur >= deadline || e.shedUntil.CompareAndSwap(cur, deadline) {
			return
		}
	}
}

// resolve builds a spec's executable form through the registry, branching
// on its kind.
func (e *Executor) resolve(spec JobSpec) (resolved, error) {
	if spec.withDefaults().Kind == "tte" {
		cfg, err := e.registry.ResolveTTE(spec)
		if err != nil {
			return resolved{}, err
		}
		return resolved{twin: &cfg}, nil
	}
	cfg, err := e.registry.Resolve(spec)
	if err != nil {
		return resolved{}, err
	}
	return resolved{sim: cfg}, nil
}

// specDetail names the registry entries a job resolves through, for
// timeline events.
func specDetail(spec JobSpec) string {
	if spec.withDefaults().Kind == "tte" {
		return "tte workload " + spec.Workload
	}
	return "workload " + spec.Workload + " policy " + spec.Policy
}

// short abbreviates a content hash for log lines.
func short(hash string) string {
	if len(hash) > 12 {
		return hash[:12]
	}
	return hash
}

// Get snapshots a job by ID.
func (e *Executor) Get(id string) (View, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	job, ok := e.jobs[id]
	if !ok {
		return View{}, ErrNotFound
	}
	return job.view(), nil
}

// List snapshots every known job, newest first. It orders by admission
// sequence, not by ID: j%08d IDs stop sorting as strings past 10^8 jobs.
func (e *Executor) List() []View {
	e.mu.Lock()
	defer e.mu.Unlock()
	jobs := make([]*Job, 0, len(e.jobs))
	for _, job := range e.jobs {
		jobs = append(jobs, job)
	}
	sort.Slice(jobs, func(i, j int) bool { return jobs[i].seq > jobs[j].seq })
	views := make([]View, len(jobs))
	for i, job := range jobs {
		views[i] = job.view()
	}
	return views
}

// Cancel stops a job: a queued job is dropped before it runs, a running
// job has its context cancelled and reaches the cancelled state as soon as
// the simulator observes it (step granularity). Cancelling a terminal job
// is a no-op. Note that a coalesced submission shares its job with the
// original submitter, so cancellation affects both.
func (e *Executor) Cancel(id string) (View, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	job, ok := e.jobs[id]
	if !ok {
		return View{}, ErrNotFound
	}
	switch job.State {
	case StateQueued:
		e.finish(job, StateCancelled, nil, context.Canceled, "cancelled while queued", nil)
	case StateRunning:
		job.cancel() // worker publishes the terminal state
	}
	return job.view(), nil
}

// Events returns a job's lifecycle timeline, oldest first: the lifecycle
// events on its request span, whose ring bounds them.
func (e *Executor) Events(id string) (Timeline, error) {
	e.mu.Lock()
	job, ok := e.jobs[id]
	if !ok {
		e.mu.Unlock()
		return Timeline{}, ErrNotFound
	}
	tl := Timeline{ID: job.ID, RequestID: job.RequestID, State: job.State}
	evs, dropped := job.rootSpan.Events()
	e.mu.Unlock()
	tl.Dropped = dropped
	for _, ev := range evs {
		if ev.Kind == obs.EventLifecycle {
			tl.Events = append(tl.Events, Event{Seq: ev.Seq, At: ev.At, Type: ev.Name, Detail: ev.Detail})
		}
	}
	return tl, nil
}

// QueueDepth reports the current backlog.
func (e *Executor) QueueDepth() int {
	return len(e.queue)
}

// worker drains the FIFO queue until Drain closes it.
func (e *Executor) worker() {
	defer e.wg.Done()
	for job := range e.queue {
		e.metrics.QueueDepth.Set(int64(len(e.queue)))

		e.mu.Lock()
		if job.State != StateQueued { // cancelled while queued
			e.mu.Unlock()
			continue
		}
		// The job timeout starts here, at dequeue: time spent waiting in
		// the queue never counts against JobTimeout and is recorded
		// separately in the queue_wait_seconds histogram.
		ctx := context.Background()
		var cancel context.CancelFunc
		if e.timeout > 0 {
			ctx, cancel = context.WithTimeout(ctx, e.timeout)
		} else {
			ctx, cancel = context.WithCancel(ctx)
		}
		// The job context carries the request ID and a request-tagged
		// logger, so everything downstream — sim runs, twin batches — logs
		// under the submission's identity.
		ctx = obs.WithRequestID(ctx, job.RequestID)
		ctx = obs.WithLogger(ctx, e.logger.With("request_id", job.RequestID, "job_id", job.ID))
		started := time.Now()
		job.State = StateRunning
		job.StartedAt = started
		job.cancel = cancel
		spec, cfg := job.Spec, job.cfg
		wait := started.Sub(job.SubmittedAt)
		job.queueSpan.SetAttr("wait_s", wait.Seconds())
		job.queueSpan.End() // admission-rooted queue span closes at dequeue
		e.metrics.QueueWaitSeconds.Observe(wait.Seconds())
		e.transition(job, EventRunning, fmt.Sprintf("after %.3fs queued", wait.Seconds()))
		if e.queueWarn > 0 && wait > e.queueWarn {
			e.metrics.QueueWaitWarnings.Inc()
			e.transition(job, EventQueueWaitWarning,
				fmt.Sprintf("queued %.3fs, threshold %s", wait.Seconds(), e.queueWarn))
			e.logger.Warn("pathological queue wait",
				"request_id", job.RequestID, "job_id", job.ID,
				"wait_s", wait.Seconds(), "threshold", e.queueWarn.String())
		}
		e.mu.Unlock()

		// Per-job observability. The metrics sink feeds decision latency,
		// phase timings, and degradations into the shared panel without
		// perturbing the Result. The job's span recorder, rooted at
		// admission, collects the attempt and engine spans and their
		// events; it becomes the black box if the job fails.
		cfg.sim.Metrics = e.sink()
		if e.invariants != nil {
			if cfg.twin != nil {
				// cfg.twin points at the registry-resolved config shared by
				// coalesced submissions; copy before mutating.
				tw := *cfg.twin
				tw.Invariants = e.invariants
				cfg.twin = &tw
			} else {
				cfg.sim.Invariants = e.invariants
			}
		}
		if p, ok := cfg.sim.Policy.(interface{ SetEMDLatency(*obs.Histogram) }); ok {
			p.SetEMDLatency(e.metrics.EMDLatency.Base())
		}
		// Attempt and engine spans opened down the call chain nest under
		// the request's root span.
		ctx = obs.WithSpan(obs.WithRecorder(ctx, job.rec), job.rootSpan)
		before := e.metrics.Registry().Gather()

		// Label the execution for CPU profiles: with -pprof, samples segment
		// by job kind and the request that submitted the work.
		kind := "sim"
		if cfg.twin != nil {
			kind = "tte"
		}
		var (
			out *Outcome
			err error
		)
		e.metrics.WorkersBusy.Add(1)
		pprof.Do(ctx, pprof.Labels("kind", kind, "request_id", job.RequestID),
			func(ctx context.Context) {
				out, err = e.runAttempt(ctx, spec, cfg)
			})
		cancel()
		e.metrics.WorkersBusy.Add(-1)
		state, detail := StateDone, ""
		switch {
		case err == nil:
			// Host timings stay on the sim.run span; the cached bytes must
			// depend on the spec alone. Encode the outcome once, outside
			// the lock, so every future cache hit reuses the bytes.
			out.dropTiming()
			out.primeRaw()
		case errors.Is(err, context.Canceled):
			state, detail = StateCancelled, err.Error()
		default:
			state, detail = StateFailed, err.Error()
		}
		if out != nil && out.Run != nil {
			e.metrics.FaultsInjected.Add(uint64(out.Run.FaultCounts.Total()))
			e.metrics.Degradations.Add(uint64(len(out.Run.Degradations)))
		}
		// Sim jobs stream violations live via the sink; twin batches report
		// deterministic per-contract totals only at summary time.
		if out != nil && out.TTE != nil {
			for name, n := range out.TTE.InvariantViolations {
				e.metrics.InvariantViolations.
					WithLabelValues(name, string(invariant.SeverityOfName(name))).
					Add(uint64(n))
			}
		}
		e.mu.Lock()
		job.Attempts = 1
		e.finish(job, state, out, err, detail, before)
		e.mu.Unlock()
	}
}

// finish moves a job to its terminal state. It is the only code that
// does, for the worker, Cancel and Drain alike, and it runs with e.mu
// held so the job's record is complete before anyone sees it terminal:
// outcome and cache publication, the lifecycle event, exactly one of
// jobs_{completed,failed,cancelled}_total, the breaker feedback, the
// wall-time histograms (for jobs that ran), closed queue and request
// spans, a failed job's flight box, and the tail-sampling decision.
// before is the metrics snapshot taken when the job started; the flight
// box reports what moved since.
func (e *Executor) finish(job *Job, state State, out *Outcome, err error, detail string, before []metrics.Sample) {
	job.State = state
	job.FinishedAt = time.Now()
	// A finished job keeps its outcome and record, not its resolved
	// config (a capman job's scheduler and similarity matrices).
	job.cfg = resolved{}
	e.cache.clearFlight(job.key, job)
	typ := EventDone
	switch state {
	case StateDone:
		job.Outcome = out
		e.cache.putOutcome(job, out)
		e.metrics.JobsCompleted.Inc()
	case StateFailed:
		job.Err = err.Error()
		e.metrics.JobsFailed.Inc()
		typ = EventFailed
	default:
		job.Err = err.Error()
		e.metrics.JobsCancelled.Inc()
		typ = EventCancelled
	}
	// A cancellation says nothing about the registry entry's health: it
	// gives the breaker no verdict, but frees a half-open probe slot.
	if bkey := breakerKey(job.Spec); state == StateCancelled {
		e.breakers.Release(bkey)
	} else if e.breakers.Record(bkey, state == StateFailed) {
		e.metrics.BreakerTrips.Inc()
	}
	e.transition(job, typ, detail)
	wait, wall := job.waitWall()
	if !job.StartedAt.IsZero() {
		e.metrics.JobWallSeconds.Observe(wall.Seconds())
		if job.Spec.Kind == "tte" {
			e.metrics.TTELatency.Observe(wall.Seconds())
		}
	}
	job.queueSpan.End()
	job.rootSpan.SetAttr("state", string(state))
	job.rootSpan.End()
	if state == StateFailed {
		box := job.rec.Box(fmt.Sprintf("job failed: %v", err))
		box.TraceID = job.traceID()
		job.flight = &JobFlight{
			ID: job.ID, RequestID: job.RequestID, State: state,
			Error: job.Err, Attempts: job.Attempts, TraceID: box.TraceID,
			// Every counter the failure moved has moved by now.
			Box: box, MetricDeltas: metrics.DeltaSamples(before, e.metrics.Registry().Gather()),
		}
		if box.TraceID != "" {
			job.flight.TraceURL = "/v1/traces/" + box.TraceID
		}
	}
	e.finalizeTrace(job, state, out, wait, wall)

	log := e.logger.Info
	if state == StateFailed {
		log = e.logger.Warn
	}
	log("job "+string(state), "request_id", job.RequestID, "job_id", job.ID,
		"queue_wait_s", wait.Seconds(), "wall_s", wall.Seconds(), "detail", detail)
}

// sink builds the MetricsSink that feeds a running job's instrumentation
// into the shared panel: per-decision host latency and per-phase wall
// clock at run end, live zone temperatures, and guard degradation entries
// by mode. Degrade and invariant events are additionally mirrored onto
// the live event stream when one is attached.
func (e *Executor) sink() *sim.MetricsSink {
	// Resolve the per-zone gauges once, outside the per-step callback.
	cpu := e.metrics.ZoneTemp.WithLabelValues("cpu")
	body := e.metrics.ZoneTemp.WithLabelValues("body")
	batt := e.metrics.ZoneTemp.WithLabelValues("battery")
	spreader := e.metrics.ZoneTemp.WithLabelValues("spreader")
	return &sim.MetricsSink{
		DecisionLatency: e.metrics.DecisionLatency.Base(),
		PhaseSeconds: func(phase string, s float64) {
			e.metrics.PhaseSeconds.WithLabelValues(phase).Add(s)
		},
		ZoneTemps: func(c, b, ba, sp float64) {
			cpu.Set(c)
			body.Set(b)
			batt.Set(ba)
			spreader.Set(sp)
		},
		OnDegrade: func(ev sched.DegradeEvent) {
			if !ev.Recovered {
				e.metrics.Degrades.WithLabelValues(ev.Mode).Inc()
			}
			if e.stream != nil {
				e.stream.Publish(tsdb.EventDegrade, time.Now(), ev)
			}
		},
		OnViolation: func(v invariant.Violation) {
			e.metrics.InvariantViolations.
				WithLabelValues(v.Invariant, string(v.Severity)).Inc()
			if e.stream != nil {
				e.stream.Publish(tsdb.EventInvariant, time.Now(), v)
			}
		},
	}
}

// runAttempt executes one job under an "attempt" span nested in the
// request's root, so the engine's phase spans sit inside it. A panic in a
// policy or workload becomes this job's error, so the worker goroutine —
// and with it the pool — survives. A failure (not a cancellation) is
// logged through a tee onto the attempt span, so the job's record keeps
// the warning even when the service logger's level discards it.
func (e *Executor) runAttempt(ctx context.Context, spec JobSpec, cfg resolved) (out *Outcome, err error) {
	ctx, span := obs.StartSpan(ctx, "attempt")
	defer func() {
		if r := recover(); r != nil {
			e.metrics.JobPanics.Inc()
			out, err = nil, fmt.Errorf("server: job panicked: %v", r)
		}
		if err != nil {
			span.SetAttr("error", err.Error())
			if !errors.Is(err, context.Canceled) {
				slog.New(span.TeeHandler(obs.Logger(ctx).Handler())).Warn("job attempt failed", "error", err)
			}
		}
		span.End()
	}()
	return e.runFn(ctx, spec, cfg)
}

// runJob executes the resolved configuration: a Monte Carlo time-to-empty
// batch for tte jobs, otherwise one discharge cycle or the multi-cycle loop
// when the spec asked for Cycles > 1.
func runJob(ctx context.Context, spec JobSpec, cfg resolved) (*Outcome, error) {
	if cfg.twin != nil {
		return runTTEJob(ctx, *cfg.twin)
	}
	if spec.Cycles > 1 {
		res, err := sim.RunCyclesContext(ctx, sim.CyclesConfig{Base: cfg.sim, Cycles: spec.Cycles})
		if err != nil {
			return nil, err
		}
		return &Outcome{Cycles: res}, nil
	}
	res, err := sim.RunContext(ctx, cfg.sim)
	if err != nil {
		return nil, err
	}
	return &Outcome{Run: res}, nil
}

// runTTEJob sweeps one twin cohort and summarizes its first-passage
// distribution. The batch parallelizes internally (worker count 0 means
// GOMAXPROCS); results are bit-identical at any width, so the cache stays
// content-addressed by spec alone.
func runTTEJob(ctx context.Context, cfg twin.Config) (*Outcome, error) {
	// The worker bound the submission's identity into the context; carry
	// it into the twin engine's logs so a TTE failure is traceable back
	// to its request.
	log := obs.Logger(ctx)
	b, err := twin.New(cfg)
	if err != nil {
		return nil, err
	}
	// The batch runs under one engine span so a tte trace's waterfall
	// shows cohort execution the way sim traces show phase spans.
	_, runSpan := obs.StartSpan(ctx, "twin.run")
	runSpan.SetAttr("twins", b.Twins())
	runSpan.SetAttr("steps", b.Steps())
	defer runSpan.End()
	log.Debug("tte batch start", "twins", b.Twins(), "steps", b.Steps())
	if err := b.Run(ctx, 0); err != nil {
		log.Warn("tte batch aborted", "error", err)
		return nil, err
	}
	s := b.Summarize()
	if runSpan != nil {
		for name, n := range s.InvariantViolations {
			runSpan.Event(obs.EventInvariant, name,
				fmt.Sprintf("%d violation(s) across the cohort", n),
				map[string]string{"severity": string(invariant.SeverityOfName(name))})
		}
		runSpan.Event(obs.EventNote, "tte.done",
			fmt.Sprintf("%d emptied, %d censored; p50 %.0fs", s.Emptied, s.Censored, s.TTEP50S), nil)
	}
	log.Debug("tte batch done",
		"emptied", s.Emptied, "censored", s.Censored, "tte_p50_s", s.TTEP50S)
	return &Outcome{TTE: s}, nil
}

// Drain stops accepting submissions, lets queued and running jobs finish,
// and returns when the pool is idle. If ctx expires first, every in-flight
// job is cancelled and Drain still waits for the workers to observe the
// cancellation before returning the context's error.
func (e *Executor) Drain(ctx context.Context) error {
	e.mu.Lock()
	var queued, running int
	for _, job := range e.jobs {
		switch job.State {
		case StateQueued:
			queued++
		case StateRunning:
			running++
		}
	}
	if !e.draining.Swap(true) {
		close(e.queue) // e.mu serializes the close against queue sends
	}
	e.mu.Unlock()
	e.logger.Info("drain started", "queued", queued, "running", running)

	done := make(chan struct{})
	go func() {
		e.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		e.logger.Info("drain complete: all jobs finished")
		return nil
	case <-ctx.Done():
		e.mu.Lock()
		var cancelled int
		for _, job := range e.jobs {
			if job.State == StateRunning {
				job.cancel()
				cancelled++
			} else if job.State == StateQueued {
				e.finish(job, StateCancelled, nil, context.Canceled, "drain budget exhausted", nil)
				cancelled++
			}
		}
		e.mu.Unlock()
		e.logger.Warn("drain budget exhausted; cancelling in-flight jobs",
			"cancelled", cancelled)
		<-done
		return ctx.Err()
	}
}
