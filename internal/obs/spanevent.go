package obs

import (
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"time"
)

// maxSpanEvents bounds each span's event ring. When the ring is full the
// oldest event is overwritten (and counted dropped), so a pathologically
// retried job cannot grow memory without bound while its most recent
// history stays inspectable.
const maxSpanEvents = 64

// Span event kinds. Producers are free to add their own; these are the
// ones the repository emits.
const (
	EventLog       = "log"       // a captured slog record (Span.TeeHandler)
	EventLifecycle = "lifecycle" // a job lifecycle transition (capmand request spans)
	EventDegrade   = "degrade"   // a sched.Guard degraded-mode transition
	EventNote      = "note"      // free-form breadcrumbs (run milestones)
	EventInvariant = "invariant" // a safety-invariant violation (first per contract)
)

// SpanEvent is one timestamped breadcrumb on a span. Seq counts from 1
// per span and keeps counting across ring drops, so readers can both order
// events and detect gaps.
type SpanEvent struct {
	Seq    int               `json:"seq"`
	At     time.Time         `json:"at"`
	Kind   string            `json:"kind"`
	Name   string            `json:"name"`
	Detail string            `json:"detail,omitempty"`
	Attrs  map[string]string `json:"attrs,omitempty"`
}

// Event appends a breadcrumb to the span's bounded ring. The ring keeps
// the newest events: like an aircraft flight data recorder, when the tape
// is full the oldest entries are overwritten, because the moments before
// the crash matter most. No-op on a nil span.
func (s *Span) Event(kind, name, detail string, attrs map[string]string) {
	if s == nil {
		return
	}
	ev := SpanEvent{At: time.Now(), Kind: kind, Name: name, Detail: detail, Attrs: attrs}
	s.mu.Lock()
	s.evSeq++
	ev.Seq = s.evSeq
	if len(s.events) < maxSpanEvents {
		s.events = append(s.events, ev)
	} else {
		s.events[s.evHead] = ev
		s.evHead = (s.evHead + 1) % maxSpanEvents
		s.evDropped++
	}
	s.mu.Unlock()
}

// Events returns the span's retained events oldest-first and how many
// older events the ring overwrote.
func (s *Span) Events() ([]SpanEvent, int) {
	if s == nil {
		return nil, 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.eventsLocked(), s.evDropped
}

// eventsLocked copies the ring oldest-first; callers hold s.mu.
func (s *Span) eventsLocked() []SpanEvent {
	if len(s.events) == 0 {
		return nil
	}
	out := make([]SpanEvent, 0, len(s.events))
	out = append(out, s.events[s.evHead:]...)
	return append(out, s.events[:s.evHead]...)
}

// FlightBox is a recorder's "black box", cut when a job or run fails:
// the span forest with every span's events, plus why and when it was cut.
type FlightBox struct {
	CutAt  time.Time `json:"cutAt"`
	Reason string    `json:"reason"`
	// TraceID is the request trace the box belongs to (32 hex chars),
	// empty when the job ran untraced. The cutter sets it so a post-mortem
	// box and its /v1/traces/{id} waterfall are joinable.
	TraceID      string     `json:"trace_id,omitempty"`
	Spans        []SpanNode `json:"spans"`
	DroppedSpans int        `json:"droppedSpans,omitempty"`
}

// Box cuts a black box from the recorder's current spans and events.
// Safe on a nil recorder: the box then carries only the reason and the
// cut time.
func (r *Recorder) Box(reason string) FlightBox {
	return FlightBox{
		CutAt:        time.Now(),
		Reason:       reason,
		Spans:        r.Tree(),
		DroppedSpans: r.Dropped(),
	}
}

// WriteJSON dumps the box as indented JSON (capman-sim -flight).
func (b FlightBox) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(b)
}

// TeeHandler returns a slog handler that records every record as an
// EventLog event on the span and then forwards to next (when next accepts
// the level). It is always Enabled, so debug-level breadcrumbs reach the
// span even when the service logger is at info. A nil span returns next
// unchanged.
func (s *Span) TeeHandler(next slog.Handler) slog.Handler {
	if next == nil {
		next = discardHandler{}
	}
	if s == nil {
		return next
	}
	return &teeHandler{span: s, next: next}
}

type teeHandler struct {
	span  *Span
	attrs []slog.Attr
	next  slog.Handler
}

func (h *teeHandler) Enabled(context.Context, slog.Level) bool { return true }

func (h *teeHandler) Handle(ctx context.Context, rec slog.Record) error {
	var attrs map[string]string
	add := func(a slog.Attr) bool {
		if attrs == nil {
			attrs = make(map[string]string, rec.NumAttrs()+len(h.attrs))
		}
		attrs[a.Key] = a.Value.String()
		return true
	}
	for _, a := range h.attrs {
		add(a)
	}
	rec.Attrs(add)
	h.span.Event(EventLog, rec.Level.String(), rec.Message, attrs)
	if h.next.Enabled(ctx, rec.Level) {
		return h.next.Handle(ctx, rec)
	}
	return nil
}

func (h *teeHandler) WithAttrs(attrs []slog.Attr) slog.Handler {
	merged := make([]slog.Attr, 0, len(h.attrs)+len(attrs))
	merged = append(merged, h.attrs...)
	merged = append(merged, attrs...)
	return &teeHandler{span: h.span, attrs: merged, next: h.next.WithAttrs(attrs)}
}

func (h *teeHandler) WithGroup(name string) slog.Handler {
	return &teeHandler{span: h.span, attrs: h.attrs, next: h.next.WithGroup(name)}
}
