package obs

import (
	"context"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// DefaultSpanLimit bounds how many spans a Recorder keeps; spans started
// past the limit are dropped (counted, not recorded) so a runaway loop
// cannot grow memory without bound.
const DefaultSpanLimit = 4096

// Recorder collects spans into an in-memory tree. The zero value is not
// usable; build one with NewRecorder. A nil *Recorder is a valid no-op:
// StartSpan on it returns a nil span whose methods all no-op, which is the
// library-wide "tracing off" fast path.
type Recorder struct {
	mu      sync.Mutex
	roots   []*Span
	n       int
	limit   int
	dropped int
}

// NewRecorder builds a recorder keeping at most limit spans
// (DefaultSpanLimit when limit <= 0).
func NewRecorder(limit int) *Recorder {
	if limit <= 0 {
		limit = DefaultSpanLimit
	}
	return &Recorder{limit: limit}
}

// WithRecorder attaches a recorder to the context so instrumented code
// down the call chain (e.g. sim.RunContext) can find it via RecorderFrom.
func WithRecorder(ctx context.Context, r *Recorder) context.Context {
	if r == nil {
		return ctx
	}
	return context.WithValue(ctx, recorderKey, r)
}

// RecorderFrom returns the context's recorder, or nil when tracing is off.
func RecorderFrom(ctx context.Context) *Recorder {
	if ctx == nil {
		return nil
	}
	r, _ := ctx.Value(recorderKey).(*Recorder)
	return r
}

// Span is one timed operation. Durations use the runtime's monotonic
// clock (time.Time carries a monotonic reading), so wall-clock jumps
// cannot produce negative spans. All methods are nil-safe.
type Span struct {
	mu       sync.Mutex
	name     string
	start    time.Time
	end      time.Time
	attrs    map[string]any
	children []*Span

	// Bounded event ring (spanevent.go): the newest maxSpanEvents events,
	// oldest at evHead once full; evSeq numbers every event ever added.
	events    []SpanEvent
	evHead    int
	evSeq     int
	evDropped int
}

// StartSpan opens a span under the context's current span (or as a root)
// and returns a derived context carrying it as the parent for nested
// spans. On a nil recorder, or once the span limit is hit, it returns the
// context unchanged and a nil span.
func (r *Recorder) StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	if r == nil {
		return ctx, nil
	}
	r.mu.Lock()
	if r.n >= r.limit {
		r.dropped++
		r.mu.Unlock()
		return ctx, nil
	}
	r.n++
	r.mu.Unlock()

	s := &Span{name: name, start: time.Now()}
	if parent := SpanFrom(ctx); parent != nil {
		parent.addChild(s)
	} else {
		r.mu.Lock()
		r.roots = append(r.roots, s)
		r.mu.Unlock()
	}
	if ctx == nil {
		ctx = context.Background()
	}
	return context.WithValue(ctx, spanKey, s), s
}

// StartSpan opens a span on the context's recorder; a context without a
// recorder records nothing and returns a nil span.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	return RecorderFrom(ctx).StartSpan(ctx, name)
}

// StartChild opens a span as an explicit child of parent (or as a root
// when parent is nil) without touching a context — the shape the job
// executor uses, where queue/attempt spans outlive any one call frame.
// Nil recorder and the span limit behave exactly as in StartSpan.
func (r *Recorder) StartChild(parent *Span, name string) *Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	if r.n >= r.limit {
		r.dropped++
		r.mu.Unlock()
		return nil
	}
	r.n++
	r.mu.Unlock()

	s := &Span{name: name, start: time.Now()}
	if parent != nil {
		parent.addChild(s)
	} else {
		r.mu.Lock()
		r.roots = append(r.roots, s)
		r.mu.Unlock()
	}
	return s
}

// WithSpan returns a context carrying s as the current span, so spans
// opened via StartSpan down the call chain nest under it. A nil span
// leaves the context unchanged.
func WithSpan(ctx context.Context, s *Span) context.Context {
	if s == nil {
		return ctx
	}
	if ctx == nil {
		ctx = context.Background()
	}
	return context.WithValue(ctx, spanKey, s)
}

// SpanFrom returns the context's current span, or nil when none.
func SpanFrom(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	s, _ := ctx.Value(spanKey).(*Span)
	return s
}

// Dropped reports how many spans the limit discarded.
func (r *Recorder) Dropped() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

func (s *Span) addChild(c *Span) {
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
}

// End closes the span. Ending twice keeps the first end time.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.end.IsZero() {
		s.end = time.Now()
	}
	s.mu.Unlock()
}

// SetAttr attaches a key/value annotation to the span.
func (s *Span) SetAttr(key string, value any) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.attrs == nil {
		s.attrs = make(map[string]any)
	}
	s.attrs[key] = value
	s.mu.Unlock()
}

// Aggregate attaches a pre-timed child span covering total accumulated
// time across count occurrences — the shape instrumented loops use to
// report per-phase cost without recording one span per iteration. The
// child's interval is synthetic (it starts at the parent's start).
func (s *Span) Aggregate(name string, total time.Duration, count int) {
	if s == nil {
		return
	}
	c := &Span{name: name, start: s.start, end: s.start.Add(total)}
	if count > 0 {
		c.attrs = map[string]any{"count": count}
	}
	s.addChild(c)
}

// Duration returns the span's length: end-start once ended, the running
// elapsed time while open, and 0 on a nil span.
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.end.IsZero() {
		return time.Since(s.start)
	}
	return s.end.Sub(s.start)
}

// SpanNode is the exported form of one span in the JSON dump.
type SpanNode struct {
	Name string `json:"name"`
	// SpanID and ParentSpanID are 16-hex span identifiers, set only when
	// the snapshot was taken via TraceTree (trace exports); plain Tree
	// dumps and flight boxes leave them empty.
	SpanID       string `json:"span_id,omitempty"`
	ParentSpanID string `json:"parent_span_id,omitempty"`
	// Start is the span's wall-clock start.
	Start time.Time `json:"start"`
	// DurationMS is the span's monotonic length in milliseconds; open
	// spans report their elapsed time at dump.
	DurationMS float64        `json:"durationMs"`
	InProgress bool           `json:"inProgress,omitempty"`
	Attrs      map[string]any `json:"attrs,omitempty"`
	// Events are the span's retained breadcrumbs oldest-first;
	// DroppedEvents counts older ones its bounded ring overwrote.
	Events        []SpanEvent `json:"events,omitempty"`
	DroppedEvents int         `json:"droppedEvents,omitempty"`
	Children      []SpanNode  `json:"children,omitempty"`
}

// Tree snapshots the recorded spans as a forest of SpanNodes, roots in
// start order.
func (r *Recorder) Tree() []SpanNode {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	roots := make([]*Span, len(r.roots))
	copy(roots, r.roots)
	r.mu.Unlock()
	sort.SliceStable(roots, func(i, j int) bool { return roots[i].start.Before(roots[j].start) })
	nodes := make([]SpanNode, 0, len(roots))
	for _, s := range roots {
		nodes = append(nodes, s.node())
	}
	return nodes
}

func (s *Span) node() SpanNode {
	s.mu.Lock()
	n := SpanNode{
		Name:       s.name,
		Start:      s.start,
		InProgress: s.end.IsZero(),
	}
	if len(s.attrs) > 0 {
		n.Attrs = make(map[string]any, len(s.attrs))
		for k, v := range s.attrs {
			n.Attrs[k] = v
		}
	}
	n.Events, n.DroppedEvents = s.eventsLocked(), s.evDropped
	children := make([]*Span, len(s.children))
	copy(children, s.children)
	s.mu.Unlock()
	n.DurationMS = float64(s.Duration()) / float64(time.Millisecond)
	for _, c := range children {
		n.Children = append(n.Children, c.node())
	}
	return n
}

// TraceTree snapshots the recorded spans like Tree, additionally
// assigning span IDs: the first root takes the given root span ID (the
// one minted at admission and echoed in traceparent), and every other
// node gets a deterministic ID derived from it by position, so repeated
// snapshots of the same trace agree. Parent links are filled in, which
// lets flat consumers (exporters, the waterfall viewer) rebuild the tree.
func (r *Recorder) TraceTree(root SpanID) []SpanNode {
	nodes := r.Tree()
	ctr := binary.BigEndian.Uint64(root[:])
	next := func() string {
		ctr = splitmix64(ctr)
		var b [8]byte
		binary.BigEndian.PutUint64(b[:], ctr)
		return hex.EncodeToString(b[:])
	}
	var assign func(n *SpanNode, parent string)
	assign = func(n *SpanNode, parent string) {
		if n.SpanID == "" {
			n.SpanID = next()
		}
		n.ParentSpanID = parent
		for i := range n.Children {
			assign(&n.Children[i], n.SpanID)
		}
	}
	for i := range nodes {
		if i == 0 && root.IsValid() {
			nodes[i].SpanID = root.String()
		}
		assign(&nodes[i], "")
	}
	return nodes
}

// WriteJSON dumps the span tree (plus the dropped-span count) as indented
// JSON — the "dump a run as a span tree" output of capman-sim -trace.
func (r *Recorder) WriteJSON(w io.Writer) error {
	payload := struct {
		Spans   []SpanNode `json:"spans"`
		Dropped int        `json:"dropped,omitempty"`
	}{Spans: r.Tree(), Dropped: r.Dropped()}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(payload)
}
