// Package obs is the observability core shared by the simulator and
// capmand: structured logging on log/slog with a context-carried logger
// and request IDs (log.go), in-memory span tracing with monotonic timing
// and a JSON span-tree dump (span.go), and a lock-free fixed-bucket
// histogram for latency distributions (histogram.go).
//
// Everything here is off by default and nil-safe: a nil *Recorder records
// nothing, a nil *Histogram drops observations, and Logger(ctx) returns a
// disabled logger when none was attached, so uninstrumented callers pay
// only a nil check on the hot path and a zero-config sim.Run is
// bit-identical to an instrumented one.
package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"io"
	"log/slog"
	"strings"
	"sync/atomic"
)

// Log output formats accepted by NewLogger.
const (
	FormatText = "text"
	FormatJSON = "json"
)

// ParseLevel maps a flag string onto a slog level. It accepts debug,
// info, warn/warning, and error, case-insensitively.
func ParseLevel(s string) (slog.Level, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "debug":
		return slog.LevelDebug, nil
	case "", "info":
		return slog.LevelInfo, nil
	case "warn", "warning":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	}
	return 0, fmt.Errorf("obs: unknown log level %q (want debug|info|warn|error)", s)
}

// NewLogger builds a structured logger writing to w in the given format
// (FormatText or FormatJSON; "" means text) at the given level.
func NewLogger(w io.Writer, level slog.Level, format string) (*slog.Logger, error) {
	opts := &slog.HandlerOptions{Level: level}
	switch strings.ToLower(strings.TrimSpace(format)) {
	case "", FormatText:
		return slog.New(slog.NewTextHandler(w, opts)), nil
	case FormatJSON:
		return slog.New(slog.NewJSONHandler(w, opts)), nil
	}
	return nil, fmt.Errorf("obs: unknown log format %q (want text|json)", format)
}

// discardHandler is a slog handler that drops everything; Enabled returns
// false so argument formatting is never attempted. (The stdlib grows
// slog.DiscardHandler only in later Go releases.)
type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (discardHandler) WithAttrs([]slog.Attr) slog.Handler        { return discardHandler{} }
func (discardHandler) WithGroup(string) slog.Handler             { return discardHandler{} }

var nopLogger = slog.New(discardHandler{})

// Nop returns a logger that discards every record. Logger(ctx) falls back
// to it, so library code can log unconditionally.
func Nop() *slog.Logger { return nopLogger }

// ctxKey keys the context values this package carries.
type ctxKey int

const (
	loggerKey ctxKey = iota
	requestIDKey
	recorderKey
	spanKey
)

// WithLogger attaches a logger to the context for Logger to find.
func WithLogger(ctx context.Context, l *slog.Logger) context.Context {
	if l == nil {
		return ctx
	}
	return context.WithValue(ctx, loggerKey, l)
}

// Logger returns the context's logger, or a disabled logger when none
// (or a nil context) was attached. It never returns nil.
func Logger(ctx context.Context) *slog.Logger {
	if ctx == nil {
		return nopLogger
	}
	if l, ok := ctx.Value(loggerKey).(*slog.Logger); ok && l != nil {
		return l
	}
	return nopLogger
}

// WithRequestID attaches a request ID to the context; RequestID recovers
// it. An empty id leaves the context unchanged.
func WithRequestID(ctx context.Context, id string) context.Context {
	if id == "" {
		return ctx
	}
	return context.WithValue(ctx, requestIDKey, id)
}

// RequestID returns the context's request ID, or "" when none was set.
func RequestID(ctx context.Context) string {
	if ctx == nil {
		return ""
	}
	id, _ := ctx.Value(requestIDKey).(string)
	return id
}

// reqSeq backs NewRequestID's fallback when the system entropy source
// fails; the sequence keeps IDs unique within the process.
var reqSeq atomic.Uint64

// NewRequestID mints a short unique request identifier (req-<12 hex>).
func NewRequestID() string {
	var b [6]byte
	if _, err := rand.Read(b[:]); err != nil {
		return fmt.Sprintf("req-%012x", reqSeq.Add(1))
	}
	return "req-" + hex.EncodeToString(b[:])
}
