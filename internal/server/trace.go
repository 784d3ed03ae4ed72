package server

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/invariant"
	"repro/internal/obs"
	"repro/internal/obs/tsdb"
)

// errTracingOff answers /v1/traces requests on a daemon built with
// TraceConfig.Disable.
var errTracingOff = errors.New("server: request tracing is disabled")

// Request tracing: every job minted by the executor carries a span
// recorder rooted at admission — its one record, whose span events hold
// the lifecycle, retries, teed logs and engine breadcrumbs — and a 128-bit
// trace ID (taken from the submission's W3C traceparent header when one
// was sent, minted otherwise), so one trace covers queue wait, every retry
// attempt, and the engine's per-phase spans. The keep/drop decision is tail-based — made at
// completion by obs.TraceStore — so sheds, errors, exhausted retries,
// SLO breaches, and fatal invariant violations are always retained while
// healthy traces thin to a deterministic sample. Retained traces are
// served at GET /v1/traces (search) and GET /v1/traces/{id} (waterfall),
// streamed as `trace` frames on /v1/stream, and linked from the latency
// histograms as OpenMetrics exemplars.

// TraceConfig tunes the request-tracing subsystem. The zero value traces
// every job and retains healthy traces at the default sample rate.
type TraceConfig struct {
	// Disable turns request tracing off: no trace IDs are minted, nothing
	// is sampled, and /v1/traces answers 503. Jobs still record their
	// spans and events, so /events and /flight keep working.
	Disable bool
	// SampleRate is the fraction of healthy (non-signal) traces retained
	// (0 = default obs.DefaultTraceSampleRate; negative retains none;
	// >= 1 retains all). Signal traces are always retained.
	SampleRate float64
	// Seed drives the deterministic tail sampler: the same trace IDs and
	// seed yield the same keep set across runs and replicas.
	Seed uint64
	// StoreSize bounds the retained-trace buffer (0 = default
	// obs.DefaultTraceStoreLimit); the oldest retained trace is evicted
	// first.
	StoreSize int
	// Exemplars attaches OpenMetrics `# {trace_id="..."}` exemplar
	// suffixes to the latency histograms on /metrics. Off by default —
	// plain Prometheus text-format parsers do not accept the suffix.
	Exemplars bool
}

// tailSampleRate maps the config's SampleRate onto the store's rate:
// zero means default, negative means "sample no healthy traces".
func (c TraceConfig) tailSampleRate() float64 {
	switch {
	case c.SampleRate == 0:
		return obs.DefaultTraceSampleRate
	case c.SampleRate < 0:
		return 0
	default:
		return c.SampleRate
	}
}

// SubmitOpts carries a submission's inbound identity. The zero value
// mints everything server-side.
type SubmitOpts struct {
	// Trace is the parsed inbound traceparent; an invalid (zero) context
	// makes the executor mint a fresh trace ID for minted jobs.
	Trace obs.TraceContext
	// RequestID adopts the client's X-Request-ID (sanitized) instead of
	// minting one, so client logs and daemon logs share a join key.
	RequestID string
}

// TraceSummary is the compact form of a retained trace: what /v1/traces
// lists and what `trace` frames on /v1/stream carry (full span trees stay
// behind /v1/traces/{id}).
type TraceSummary struct {
	TraceID   string    `json:"trace_id"`
	RequestID string    `json:"request_id,omitempty"`
	JobID     string    `json:"job_id,omitempty"`
	Kind      string    `json:"kind,omitempty"`
	Outcome   string    `json:"outcome"`
	Flags     []string  `json:"flags,omitempty"`
	Start     time.Time `json:"start"`
	DurationS float64   `json:"duration_s"`
	Spans     int       `json:"spans"`
}

// summarize compacts a stored trace for list responses and SSE frames.
func summarize(t *obs.StoredTrace) TraceSummary {
	return TraceSummary{
		TraceID:   t.TraceID,
		RequestID: t.RequestID,
		JobID:     t.JobID,
		Kind:      t.Kind,
		Outcome:   t.Outcome,
		Flags:     t.Flags,
		Start:     t.Start,
		DurationS: t.DurationS,
		Spans:     countSpans(t.Spans),
	}
}

func countSpans(nodes []obs.SpanNode) int {
	n := len(nodes)
	for i := range nodes {
		n += countSpans(nodes[i].Children)
	}
	return n
}

// sanitizeRequestID bounds and cleans an inbound X-Request-ID so hostile
// clients cannot inject log structure or unbounded strings; anything left
// empty after cleaning makes the executor mint its own.
func sanitizeRequestID(id string) string {
	if len(id) > 64 {
		id = id[:64]
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		if !(c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' ||
			c == '-' || c == '_' || c == '.') {
			return ""
		}
	}
	return id
}

// submitOptsFrom extracts the inbound trace identity from request
// headers.
func submitOptsFrom(r *http.Request) SubmitOpts {
	return SubmitOpts{
		Trace:     obs.ParseTraceparent(r.Header.Get("traceparent")),
		RequestID: sanitizeRequestID(r.Header.Get("X-Request-ID")),
	}
}

// traceKind names a spec's job kind for trace records. An empty
// Spec.Kind means a discharge simulation ("sim"); only "tte" is spelled
// out by clients.
func traceKind(spec JobSpec) string {
	if spec.Kind == "tte" {
		return "tte"
	}
	return "sim"
}

// traceDecisionCounter returns the cached capmand_traces_total handle for
// a retention decision.
func (e *Executor) traceDecisionCounter(decision string) {
	switch decision {
	case obs.TraceDecisionSignal:
		e.traceSignal.Inc()
	case obs.TraceDecisionSampled:
		e.traceSampled.Inc()
	default:
		e.traceDropped.Inc()
	}
}

// armTraceSLO installs the per-request SLO thresholds the tail sampler
// flags against: a job whose queue wait exceeds queueWait, or a tte job
// whose wall clock exceeds tte, is retained as "slo-breach". The Server
// calls this once at construction, before any submission.
func (e *Executor) armTraceSLO(queueWait, tte time.Duration) {
	e.sloQueueWait = queueWait
	e.sloTTE = tte
}

// Traces exposes the retained-trace store; nil when tracing is disabled.
func (e *Executor) Traces() *obs.TraceStore { return e.traces }

// mintTrace roots a minted job's span recorder at admission — the job's
// one record, kept whether or not tracing is enabled — and, unless
// tracing is disabled, assigns its trace identity. Called on the submit
// slow path under e.mu, after the job ID is known.
func (e *Executor) mintTrace(job *Job, opts SubmitOpts) {
	job.rec = obs.NewRecorder(0)
	job.rootSpan = job.rec.StartChild(nil, "request")
	job.rootSpan.SetAttr("job_id", job.ID)
	job.rootSpan.SetAttr("request_id", job.RequestID)
	job.rootSpan.SetAttr("kind", traceKind(job.Spec))
	job.queueSpan = job.rec.StartChild(job.rootSpan, "queue")
	if e.traces == nil {
		return
	}
	tr := opts.Trace
	if !tr.Valid {
		tr = obs.NewTraceContext()
	}
	// The span ID becomes our root ("request") span; the client's span ID,
	// if any, was its parent and is not re-exported.
	tr.SpanID = obs.NewSpanID()
	job.trace = tr
}

// recordShedTrace retains a one-span trace for a submission refused by
// the admission gate. Sheds are signal traces — the tail sampler always
// keeps them — so a 429 storm is fully reconstructible after the fact.
// Called on the submit slow path; allocation is fine here.
func (e *Executor) recordShedTrace(spec JobSpec, opts SubmitOpts, reason string) {
	if e.traces == nil {
		return
	}
	tr := opts.Trace
	if !tr.Valid {
		tr = obs.NewTraceContext()
	}
	keep, decision := e.traces.Decide(tr.TraceID, true)
	e.traceDecisionCounter(decision)
	if !keep {
		return
	}
	now := time.Now()
	root := obs.NewSpanID()
	st := &obs.StoredTrace{
		TraceID:   tr.TraceID.String(),
		RequestID: opts.RequestID,
		Kind:      traceKind(spec),
		Outcome:   "shed",
		Flags:     []string{"shed"},
		Start:     now,
		Spans: []obs.SpanNode{{
			Name:   "request",
			SpanID: root.String(),
			Start:  now,
			Attrs:  map[string]any{"shed_reason": reason},
		}},
	}
	e.traces.Keep(st)
	e.publishTrace(st)
}

// recordHitTrace retains a cache-hit trace when the client asked to be
// traced (sent a valid traceparent). Untraced hits skip this entirely,
// which keeps the zero-allocation admission fast path intact.
func (e *Executor) recordHitTrace(spec JobSpec, opts SubmitOpts, now time.Time) {
	keep, decision := e.traces.Decide(opts.Trace.TraceID, false)
	e.traceDecisionCounter(decision)
	if !keep {
		return
	}
	root := obs.NewSpanID()
	st := &obs.StoredTrace{
		TraceID:   opts.Trace.TraceID.String(),
		RequestID: opts.RequestID,
		Kind:      traceKind(spec),
		Outcome:   "done",
		Start:     now,
		Spans: []obs.SpanNode{{
			Name:   "request",
			SpanID: root.String(),
			Start:  now,
			Attrs:  map[string]any{"cache": "hit"},
		}},
	}
	e.traces.Keep(st)
	e.publishTrace(st)
}

// finalizeTrace makes the tail-sampling decision for a finished job and,
// when the trace is retained, stores its span waterfall, pins exemplars
// on the latency histograms, and emits a `trace` frame on the live
// stream. Runs on the worker under e.mu, as the terminal state is
// published, so a job that reads terminal has its trace decided.
func (e *Executor) finalizeTrace(job *Job, state State, out *Outcome, isTTE bool, wait, wall time.Duration, attempts int) {
	if e.traces == nil || !job.trace.Valid {
		return
	}
	flags := e.traceFlags(state, out, wait, wall, attempts, isTTE)
	keep, decision := e.traces.Decide(job.trace.TraceID, len(flags) > 0)
	e.traceDecisionCounter(decision)
	if !keep {
		return
	}
	id := job.trace.TraceID.String()
	st := &obs.StoredTrace{
		TraceID:      id,
		RequestID:    job.RequestID,
		JobID:        job.ID,
		Kind:         traceKind(job.Spec),
		Outcome:      string(state),
		Flags:        flags,
		Start:        job.SubmittedAt,
		DurationS:    job.FinishedAt.Sub(job.SubmittedAt).Seconds(),
		Spans:        job.rec.TraceTree(job.trace.SpanID),
		DroppedSpans: job.rec.Dropped(),
	}
	e.traces.Keep(st)
	// Exemplars are pinned only for retained traces, so a p99 bucket's
	// trace_id link always resolves at /v1/traces/{id}.
	e.metrics.JobWallSeconds.SetExemplar(wall.Seconds(), id)
	e.metrics.QueueWaitSeconds.SetExemplar(wait.Seconds(), id)
	if isTTE {
		e.metrics.TTELatency.SetExemplar(wall.Seconds(), id)
	}
	e.publishTrace(st)
}

// publishTrace mirrors a retained trace onto the live event stream.
func (e *Executor) publishTrace(st *obs.StoredTrace) {
	if e.stream != nil {
		e.stream.Publish(tsdb.EventTrace, time.Now(), summarize(st))
	}
}

// traceFlags derives the signal flags that force retention. An empty
// result marks the trace healthy (retained only by the sample draw).
func (e *Executor) traceFlags(state State, out *Outcome, wait, wall time.Duration, attempts int, isTTE bool) []string {
	var flags []string
	if state == StateFailed {
		flags = append(flags, "error")
		if e.maxRetries > 0 && attempts > e.maxRetries {
			flags = append(flags, "retry-exhausted")
		}
	}
	if e.sloQueueWait > 0 && wait > e.sloQueueWait {
		flags = append(flags, "slo-breach")
	} else if isTTE && e.sloTTE > 0 && wall > e.sloTTE {
		flags = append(flags, "slo-breach")
	}
	if hasFatalInvariant(out) {
		flags = append(flags, "fatal-invariant")
	}
	return flags
}

// handleTraces serves GET /v1/traces: search over the retained traces.
//
//	min_dur  minimum end-to-end duration, as a Go duration ("250ms")
//	outcome  exact outcome match: done|failed|cancelled|shed
//	kind     exact job-kind match: sim|tte
//	limit    result cap (default 50)
//
// Results are compact summaries, newest first; the full span waterfall
// is one GET /v1/traces/{id} away. The response carries the store's
// retention stats so a searcher can tell "nothing matched" from
// "everything healthy was sampled away".
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	store := s.exec.Traces()
	if store == nil {
		writeError(w, http.StatusServiceUnavailable, errTracingOff)
		return
	}
	p := r.URL.Query()
	var q obs.TraceQuery
	if v := p.Get("min_dur"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("min_dur: %w", err))
			return
		}
		q.MinDuration = d
	}
	q.Outcome = p.Get("outcome")
	q.Kind = p.Get("kind")
	if v := p.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("limit: want a positive integer, got %q", v))
			return
		}
		q.Limit = n
	}
	found := store.Search(q)
	sums := make([]TraceSummary, 0, len(found))
	for _, t := range found {
		sums = append(sums, summarize(t))
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"traces": sums,
		"stats":  store.Stats(),
	})
}

// handleTraceGet serves GET /v1/traces/{id}: one retained trace's full
// span waterfall. Unknown IDs — never minted, tail-dropped, or evicted —
// are 404s.
func (s *Server) handleTraceGet(w http.ResponseWriter, r *http.Request) {
	store := s.exec.Traces()
	if store == nil {
		writeError(w, http.StatusServiceUnavailable, errTracingOff)
		return
	}
	id := r.PathValue("id")
	t, ok := store.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound,
			fmt.Errorf("server: no retained trace %q (dropped by the tail sampler, evicted, or never seen)", id))
		return
	}
	writeJSON(w, http.StatusOK, t)
}

// hasFatalInvariant reports whether a finished job's outcome carries a
// fatal-severity safety-contract violation.
func hasFatalInvariant(out *Outcome) bool {
	if out == nil {
		return false
	}
	if out.Run != nil && out.Run.Invariants != nil && out.Run.Invariants.Fatal {
		return true
	}
	if out.TTE != nil {
		for name, n := range out.TTE.InvariantViolations {
			if n > 0 && invariant.SeverityOfName(name) == invariant.SeverityFatal {
				return true
			}
		}
	}
	return false
}
