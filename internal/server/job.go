package server

import (
	"context"
	"encoding/json"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/twin"
)

// State is a job's position in its lifecycle.
type State string

// Job lifecycle. Queued and running jobs are "in flight"; the other three
// states are terminal.
const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Outcome is what a finished job produced: a single discharge cycle's
// Result, a multi-cycle run's CyclesResult when the spec asked for
// Cycles > 1, or a Monte Carlo time-to-empty Summary for tte-kind jobs.
// Exactly one field is set. Outcomes are immutable once published and are
// what the content-addressed cache stores.
type Outcome struct {
	Run    *sim.Result       `json:"run,omitempty"`
	Cycles *sim.CyclesResult `json:"cycles,omitempty"`
	TTE    *twin.Summary     `json:"tte,omitempty"`

	// raw is the outcome's JSON encoding, primed once by the worker that
	// produced it (primeRaw) so every cache hit reuses the bytes instead
	// of re-marshaling a large result. Never written after publication.
	raw []byte
}

// outcomePlain strips Outcome's methods so primeRaw/MarshalJSON can use
// the stock struct encoding without recursing.
type outcomePlain Outcome

// dropTiming clears the host-side cost breakdown a recorded sim run
// attaches (Result.Timing), so an outcome's bytes depend on its spec
// alone. The phase costs stay on the job's sim.run span.
func (o *Outcome) dropTiming() {
	if o != nil && o.Run != nil {
		o.Run.Timing = nil
	}
}

// primeRaw encodes the outcome once and memoizes the bytes. Idempotent;
// called by the worker before the outcome is published, so raw needs no
// lock afterwards.
func (o *Outcome) primeRaw() {
	if o == nil || o.raw != nil {
		return
	}
	if b, err := json.Marshal((*outcomePlain)(o)); err == nil {
		o.raw = b
	}
}

// MarshalJSON serves the primed bytes when present, falling back to stock
// encoding for outcomes that never passed through a worker (tests,
// legacy Put callers).
func (o *Outcome) MarshalJSON() ([]byte, error) {
	if o.raw != nil {
		return o.raw, nil
	}
	return json.Marshal((*outcomePlain)(o))
}

// Job is one submitted simulation. All mutable fields are guarded by the
// owning Executor's lock; handlers read through Executor methods that
// return immutable View snapshots.
type Job struct {
	ID string
	// seq is the admission sequence number behind ID; List orders by it.
	seq int
	// RequestID identifies the submission that created the job (coalesced
	// submissions share the job; their request IDs appear in its
	// lifecycle events). It tags every log line and event for the job.
	RequestID string
	Hash      string
	Spec      JobSpec
	// key is the raw content address (Hash is its hex form); the cache is
	// indexed by it so completion paths never re-decode the hex string.
	key CacheKey

	State    State
	Err      string
	Outcome  *Outcome
	CacheHit bool
	Attempts int // execution attempts, counting retries (0 until dequeued)

	SubmittedAt time.Time
	StartedAt   time.Time
	FinishedAt  time.Time

	// flight is the black box cut when the job fails, served at
	// GET /v1/jobs/{id}/flight; nil for jobs that never failed.
	flight *JobFlight

	// The job's one record (trace.go): the span recorder rooted at
	// admission, with the request/queue spans the worker closes. Lifecycle
	// events live on rootSpan; /events, /flight and /v1/traces are views
	// over rec. trace is the identity minted or adopted at admission, zero
	// when tracing is disabled. Written once at submission; the dequeuing
	// worker owns them afterwards.
	trace     obs.TraceContext
	rec       *obs.Recorder
	rootSpan  *obs.Span
	queueSpan *obs.Span

	// cfg is the resolved executable form, zeroed once the job is
	// terminal so finished jobs do not pin schedulers in the job table.
	cfg    resolved
	cancel context.CancelFunc
}

// traceID is the job's trace identity in hex, "" when untraced.
func (j *Job) traceID() string {
	if !j.trace.Valid {
		return ""
	}
	return j.trace.TraceID.String()
}

// View is the JSON representation of a job returned by the HTTP API.
type View struct {
	ID        string `json:"id"`
	RequestID string `json:"requestId,omitempty"`
	// TraceID joins the job to its request trace at /v1/traces/{id}
	// (when the tail sampler retained it); empty for untraced jobs and
	// cache-hit views, which mint nothing.
	TraceID  string   `json:"traceId,omitempty"`
	Hash     string   `json:"hash"`
	Spec     JobSpec  `json:"spec"`
	State    State    `json:"state"`
	Error    string   `json:"error,omitempty"`
	Outcome  *Outcome `json:"outcome,omitempty"`
	CacheHit bool     `json:"cacheHit"`
	Attempts int      `json:"attempts,omitempty"`

	SubmittedAt time.Time  `json:"submittedAt"`
	StartedAt   *time.Time `json:"startedAt,omitempty"`
	FinishedAt  *time.Time `json:"finishedAt,omitempty"`
	// QueueWaitS is submit→dequeue; WallS is dequeue→finish. The job
	// timeout covers only the latter.
	QueueWaitS float64 `json:"queueWaitS,omitempty"`
	WallS      float64 `json:"wallS,omitempty"`
}

// view snapshots the job; callers must hold the executor lock.
func (j *Job) view() View {
	v := View{
		ID:          j.ID,
		RequestID:   j.RequestID,
		TraceID:     j.traceID(),
		Hash:        j.Hash,
		Spec:        j.Spec,
		State:       j.State,
		Error:       j.Err,
		Outcome:     j.Outcome,
		CacheHit:    j.CacheHit,
		Attempts:    j.Attempts,
		SubmittedAt: j.SubmittedAt,
	}
	if !j.StartedAt.IsZero() {
		t := j.StartedAt
		v.StartedAt = &t
		v.QueueWaitS = j.StartedAt.Sub(j.SubmittedAt).Seconds()
	}
	if !j.FinishedAt.IsZero() {
		t := j.FinishedAt
		v.FinishedAt = &t
		if !j.StartedAt.IsZero() {
			v.WallS = j.FinishedAt.Sub(j.StartedAt).Seconds()
		}
	}
	return v
}
