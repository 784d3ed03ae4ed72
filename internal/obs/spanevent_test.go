package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"strings"
	"testing"
)

// TestFlightRecorderRingKeepsNewest drives a span's event ring — the
// flight recorder a FlightBox is cut from — past its cap: events stay
// ordered, the length never exceeds the bound, Seq keeps counting across
// drops, the drops are counted, and the newest events survive — in Events
// and in the span's tree node alike.
func TestFlightRecorderRingKeepsNewest(t *testing.T) {
	rec := NewRecorder(0)
	_, span := rec.StartSpan(context.Background(), "request")
	const n = maxSpanEvents*3 + 5
	for i := 0; i < n; i++ {
		span.Event(EventLifecycle, "retrying", fmt.Sprintf("attempt %d", i), nil)
	}
	evs, dropped := span.Events()
	if len(evs) != maxSpanEvents {
		t.Fatalf("ring holds %d events, want bound %d", len(evs), maxSpanEvents)
	}
	if dropped != n-maxSpanEvents {
		t.Errorf("dropped = %d, want %d", dropped, n-maxSpanEvents)
	}
	for i, ev := range evs {
		if want := n - maxSpanEvents + i + 1; ev.Seq != want {
			t.Errorf("event %d has Seq %d, want %d", i, ev.Seq, want)
		}
		if i > 0 && ev.At.Before(evs[i-1].At) {
			t.Errorf("event %d timestamp went backwards", i)
		}
	}
	if got := evs[len(evs)-1].Detail; got != fmt.Sprintf("attempt %d", n-1) {
		t.Errorf("newest event detail = %q", got)
	}

	node := rec.Tree()[0]
	if len(node.Events) != maxSpanEvents || node.DroppedEvents != dropped ||
		node.Events[0].Seq != evs[0].Seq {
		t.Errorf("tree node events = %d (dropped %d, first seq %d), want the ring",
			len(node.Events), node.DroppedEvents, node.Events[0].Seq)
	}
}

// TestFlightRecorderNilSafety: event recording and box cutting are no-ops
// on a nil span or recorder, so untraced code paths need no guards.
func TestFlightRecorderNilSafety(t *testing.T) {
	var rec *Recorder
	var span *Span
	span.Event(EventNote, "x", "y", map[string]string{"a": "b"})
	if evs, dropped := span.Events(); evs != nil || dropped != 0 {
		t.Error("nil span reported events")
	}
	if box := rec.Box("why"); box.Reason != "why" || box.CutAt.IsZero() || box.Spans != nil {
		t.Errorf("nil recorder box = %+v", box)
	}
	if WithSpan(context.Background(), nil) != context.Background() {
		t.Error("WithSpan(nil) attached something")
	}
}

// TestSpanFromContext: SpanFrom finds the span StartSpan and WithSpan put
// on the context, and nothing on a bare or nil context.
func TestSpanFromContext(t *testing.T) {
	rec := NewRecorder(0)
	ctx, span := rec.StartSpan(context.Background(), "run")
	if SpanFrom(ctx) != span {
		t.Fatal("SpanFrom did not return the started span")
	}
	child := rec.StartChild(span, "attempt")
	if SpanFrom(WithSpan(context.Background(), child)) != child {
		t.Fatal("SpanFrom did not return the WithSpan span")
	}
	if SpanFrom(nil) != nil || SpanFrom(context.Background()) != nil {
		t.Fatal("SpanFrom must be nil without attachment")
	}
}

func TestFlightTeeHandlerCapturesLogs(t *testing.T) {
	rec := NewRecorder(0)
	_, span := rec.StartSpan(context.Background(), "attempt")
	var out bytes.Buffer
	base := slog.NewTextHandler(&out, &slog.HandlerOptions{Level: slog.LevelWarn})
	log := slog.New(span.TeeHandler(base)).With("job", "j1")

	log.Debug("below the sink's level", "k", "v")
	log.Warn("visible", "err", "boom")

	evs, _ := span.Events()
	if len(evs) != 2 {
		t.Fatalf("captured %d events, want 2 (tee sees every level)", len(evs))
	}
	if evs[0].Kind != EventLog || evs[0].Name != "DEBUG" || evs[0].Detail != "below the sink's level" {
		t.Fatalf("first event = %+v", evs[0])
	}
	if evs[0].Attrs["job"] != "j1" || evs[0].Attrs["k"] != "v" {
		t.Fatalf("first event attrs = %v", evs[0].Attrs)
	}
	if evs[1].Attrs["err"] != "boom" {
		t.Fatalf("second event attrs = %v", evs[1].Attrs)
	}
	// The underlying handler still applies its own level gate.
	text := out.String()
	if strings.Contains(text, "below the sink's level") || !strings.Contains(text, "visible") {
		t.Fatalf("forwarded output wrong:\n%s", text)
	}
	// A nil span tees nothing and hands back the underlying handler.
	var none *Span
	if none.TeeHandler(base) != slog.Handler(base) {
		t.Error("nil span wrapped the handler")
	}
}

func TestFlightSnapshotWithSpans(t *testing.T) {
	rec := NewRecorder(0)
	ctx, span := rec.StartSpan(context.Background(), "job")
	_, child := rec.StartSpan(ctx, "attempt")
	child.Event(EventNote, "milestone", "ran", map[string]string{"k": "v"})
	child.End()
	span.End()

	box := rec.Box("job failed")
	if box.Reason != "job failed" || box.CutAt.IsZero() {
		t.Fatalf("box header = %+v", box)
	}
	if len(box.Spans) != 1 || len(box.Spans[0].Children) != 1 {
		t.Fatalf("box spans = %+v", box.Spans)
	}
	if evs := box.Spans[0].Children[0].Events; len(evs) != 1 || evs[0].Name != "milestone" {
		t.Fatalf("attempt span events = %+v", evs)
	}

	var buf bytes.Buffer
	if err := box.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back FlightBox
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("box JSON does not round-trip: %v", err)
	}
	if back.Reason != box.Reason || len(back.Spans) != 1 ||
		len(back.Spans[0].Children[0].Events) != 1 || back.Spans[0].Children[0].Events[0].Attrs["k"] != "v" {
		t.Fatalf("round-tripped box = %+v", back)
	}
}
