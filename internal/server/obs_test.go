package server

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"
)

// --- Prometheus text exposition parser -----------------------------------
//
// A small parser for the subset of the exposition format capmand emits,
// strict enough to catch the classic mistakes: samples with no preceding
// HELP/TYPE, histogram buckets that are not cumulative, a missing +Inf
// bucket, and broken label quoting.

type promFamily struct {
	name, typ string
	hasHelp   bool
	samples   []promSample
}

type promSample struct {
	name   string
	labels map[string]string
	value  float64
}

func parseProm(t *testing.T, text string) map[string]*promFamily {
	t.Helper()
	fams := map[string]*promFamily{}
	var current *promFamily
	for ln, raw := range strings.Split(text, "\n") {
		line := strings.TrimSpace(raw)
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			parts := strings.SplitN(strings.TrimPrefix(line, "# HELP "), " ", 2)
			if len(parts) != 2 || parts[1] == "" {
				t.Fatalf("line %d: HELP without text: %q", ln+1, line)
			}
			current = &promFamily{name: parts[0], hasHelp: true}
			fams[parts[0]] = current
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.SplitN(strings.TrimPrefix(line, "# TYPE "), " ", 2)
			if len(parts) != 2 {
				t.Fatalf("line %d: malformed TYPE: %q", ln+1, line)
			}
			if current == nil || current.name != parts[0] {
				t.Fatalf("line %d: TYPE %s not immediately after its HELP", ln+1, parts[0])
			}
			current.typ = parts[1]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		s := parsePromSample(t, ln+1, line)
		fam := familyFor(fams, s.name)
		if fam == nil {
			t.Fatalf("line %d: sample %s has no preceding HELP/TYPE family", ln+1, s.name)
		}
		fam.samples = append(fam.samples, s)
	}
	return fams
}

// familyFor maps a sample name onto its family, folding the histogram
// suffixes onto the base name.
func familyFor(fams map[string]*promFamily, name string) *promFamily {
	if f, ok := fams[name]; ok {
		return f
	}
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		base := strings.TrimSuffix(name, suffix)
		if base == name {
			continue
		}
		if f, ok := fams[base]; ok && f.typ == "histogram" {
			return f
		}
	}
	return nil
}

func parsePromSample(t *testing.T, ln int, line string) promSample {
	t.Helper()
	s := promSample{labels: map[string]string{}}
	rest := line
	if i := strings.IndexByte(line, '{'); i >= 0 {
		s.name = line[:i]
		end := strings.LastIndexByte(line, '}')
		if end < i {
			t.Fatalf("line %d: unterminated label set: %q", ln, line)
		}
		for _, pair := range splitLabels(line[i+1 : end]) {
			eq := strings.IndexByte(pair, '=')
			if eq < 0 {
				t.Fatalf("line %d: label without '=': %q", ln, pair)
			}
			val, err := strconv.Unquote(pair[eq+1:])
			if err != nil {
				t.Fatalf("line %d: label value %s not a quoted string: %v", ln, pair[eq+1:], err)
			}
			s.labels[pair[:eq]] = val
		}
		rest = strings.TrimSpace(line[end+1:])
	} else {
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("line %d: want 'name value': %q", ln, line)
		}
		s.name, rest = fields[0], fields[1]
	}
	v, err := strconv.ParseFloat(rest, 64)
	if err != nil {
		t.Fatalf("line %d: bad sample value %q: %v", ln, rest, err)
	}
	s.value = v
	return s
}

// splitLabels splits a,b,c on commas that sit outside quoted values.
func splitLabels(s string) []string {
	var out []string
	var b strings.Builder
	inQuote := false
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '\\' && inQuote && i+1 < len(s):
			b.WriteByte(c)
			i++
			b.WriteByte(s[i])
		case c == '"':
			inQuote = !inQuote
			b.WriteByte(c)
		case c == ',' && !inQuote:
			out = append(out, strings.TrimSpace(b.String()))
			b.Reset()
		default:
			b.WriteByte(c)
		}
	}
	if b.Len() > 0 {
		out = append(out, strings.TrimSpace(b.String()))
	}
	return out
}

// TestPrometheusExpositionWellFormed feeds a populated Metrics through the
// renderer and validates the output with the strict parser: every family
// has a HELP/TYPE pair, histograms have monotone cumulative buckets ending
// in +Inf == _count, and labels (including ones needing escaping) round-
// trip through Go quoting.
func TestPrometheusExpositionWellFormed(t *testing.T) {
	m := NewMetrics()
	m.JobsSubmitted.Add(5)
	m.QueueDepth.Set(2)
	for _, v := range []float64{0.004, 0.02, 0.02, 1.5, 42, 9000} {
		m.JobWallSeconds.Observe(v)
	}
	m.QueueWaitSeconds.Observe(0.3)
	m.DecisionLatency.Observe(3e-6)
	m.PhaseSeconds.WithLabelValues("policy").Add(1.5)
	m.Degrades.WithLabelValues("stuck-switch").Inc()
	m.SLOBreaches.WithLabelValues("decision-latency-p99").Inc()
	m.RegisterRuntime("test")
	m.BreakerStates = func() map[string]string {
		return map[string]string{
			"video|dual":         "open",
			`odd"entry\with|esc`: "half-open",
			"pcmark|capman":      "closed",
		}
	}

	var sb strings.Builder
	if err := m.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	fams := parseProm(t, sb.String())

	for name, typ := range map[string]string{
		"capmand_jobs_submitted_total":      "counter",
		"capmand_queue_wait_warnings_total": "counter",
		"capmand_queue_depth":               "gauge",
		"capmand_job_wall_seconds":          "histogram",
		"capmand_queue_wait_seconds":        "histogram",
		"capmand_breaker_state":             "gauge",
		"capman_decision_latency_seconds":   "histogram",
		"capman_sim_phase_seconds_total":    "counter",
		"capman_degrade_total":              "counter",
		"capmand_slo_breach_total":          "counter",
		"go_goroutines":                     "gauge",
		"capman_build_info":                 "gauge",
	} {
		f := fams[name]
		if f == nil {
			t.Fatalf("family %s missing", name)
		}
		if !f.hasHelp || f.typ != typ {
			t.Errorf("family %s: hasHelp=%v typ=%q, want HELP and %q", name, f.hasHelp, f.typ, typ)
		}
	}

	checkHistogram(t, fams["capmand_job_wall_seconds"], 6)
	checkHistogram(t, fams["capmand_queue_wait_seconds"], 1)
	checkHistogram(t, fams["capman_decision_latency_seconds"], 1)

	// The unified registry renders families sorted by name, each HELP
	// immediately followed by its TYPE (the parser enforces the pairing).
	var names []string
	for _, line := range strings.Split(sb.String(), "\n") {
		if strings.HasPrefix(line, "# HELP ") {
			names = append(names, strings.SplitN(strings.TrimPrefix(line, "# HELP "), " ", 2)[0])
		}
	}
	if !sort.StringsAreSorted(names) {
		t.Errorf("families not sorted by name: %v", names)
	}

	// Label round-trip: the breaker entry with a quote and a backslash in
	// its name must come back verbatim.
	states := map[string]float64{}
	for _, s := range fams["capmand_breaker_state"].samples {
		states[s.labels["entry"]] = s.value
	}
	want := map[string]float64{
		"video|dual":         2,
		`odd"entry\with|esc`: 1,
		"pcmark|capman":      0,
	}
	for entry, v := range want {
		got, ok := states[entry]
		if !ok {
			t.Errorf("breaker entry %q missing from exposition (got %v)", entry, states)
		} else if got != v {
			t.Errorf("breaker entry %q = %g, want %g", entry, got, v)
		}
	}
}

// checkHistogram asserts cumulative monotone buckets, ascending le bounds,
// a +Inf bucket equal to _count, and _count matching the observations fed.
func checkHistogram(t *testing.T, f *promFamily, wantCount float64) {
	t.Helper()
	if f == nil {
		t.Fatal("nil histogram family")
	}
	type bkt struct {
		le  float64
		cum float64
	}
	var buckets []bkt
	var sum, count float64
	var haveInf bool
	for _, s := range f.samples {
		switch s.name {
		case f.name + "_bucket":
			leStr, ok := s.labels["le"]
			if !ok {
				t.Fatalf("%s: bucket without le label", f.name)
			}
			le := math.Inf(1)
			if leStr != "+Inf" {
				v, err := strconv.ParseFloat(leStr, 64)
				if err != nil {
					t.Fatalf("%s: bad le %q: %v", f.name, leStr, err)
				}
				le = v
			} else {
				haveInf = true
			}
			buckets = append(buckets, bkt{le, s.value})
		case f.name + "_sum":
			sum = s.value
		case f.name + "_count":
			count = s.value
		default:
			t.Errorf("%s: unexpected sample %s", f.name, s.name)
		}
	}
	if !haveInf {
		t.Errorf("%s: no +Inf bucket", f.name)
	}
	if !sort.SliceIsSorted(buckets, func(i, j int) bool { return buckets[i].le < buckets[j].le }) {
		t.Errorf("%s: le bounds not ascending: %v", f.name, buckets)
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i].cum < buckets[i-1].cum {
			t.Errorf("%s: bucket counts not cumulative at le=%g: %g < %g",
				f.name, buckets[i].le, buckets[i].cum, buckets[i-1].cum)
		}
	}
	if n := len(buckets); n > 0 && buckets[n-1].cum != count {
		t.Errorf("%s: +Inf bucket %g != _count %g", f.name, buckets[n-1].cum, count)
	}
	if count != wantCount {
		t.Errorf("%s: _count = %g, want %g", f.name, count, wantCount)
	}
	if count > 0 && sum <= 0 {
		t.Errorf("%s: _sum = %g with %g observations", f.name, sum, count)
	}
}

// --- Per-job event timelines ---------------------------------------------

// TestTimelineBounded drives a finished job's timeline past its cap through
// the executor's own transition path: events stay ordered, the length stops
// growing at the request span's bound, Seq keeps counting across drops, the
// drops are counted, and the newest events survive.
func TestTimelineBounded(t *testing.T) {
	e := newTestExecutor(t, ExecutorConfig{Workers: 1})
	v, err := e.Submit(fastSpec())
	if err != nil {
		t.Fatal(err)
	}
	awaitExec(t, e, v.ID, func(v View) bool { return v.State.Terminal() }, "terminal")

	const n = 500
	drive := func(from int) Timeline {
		t.Helper()
		e.mu.Lock()
		job := e.jobs[v.ID]
		for i := from; i < from+n; i++ {
			e.transition(job, EventRetrying, fmt.Sprintf("attempt %d", i))
		}
		e.mu.Unlock()
		tl, err := e.Events(v.ID)
		if err != nil {
			t.Fatal(err)
		}
		return tl
	}
	first := drive(0)
	second := drive(n)
	if len(first.Events) == 0 || len(first.Events) >= n {
		t.Fatalf("timeline length %d after %d events, want a bound below %d", len(first.Events), n, n)
	}
	if len(second.Events) != len(first.Events) {
		t.Fatalf("timeline grew from %d to %d events past its bound", len(first.Events), len(second.Events))
	}
	if second.Dropped != first.Dropped+n {
		t.Errorf("dropped = %d, want %d", second.Dropped, first.Dropped+n)
	}
	evs := second.Events
	for i, ev := range evs {
		if want := second.Dropped + i + 1; ev.Seq != want {
			t.Errorf("event %d has Seq %d, want %d", i, ev.Seq, want)
		}
		if ev.Type != EventRetrying {
			t.Errorf("event %d type %q survived past the newest %d", i, ev.Type, len(evs))
		}
		if i > 0 && ev.At.Before(evs[i-1].At) {
			t.Errorf("event %d timestamp went backwards", i)
		}
	}
	if got := evs[len(evs)-1].Detail; got != fmt.Sprintf("attempt %d", 2*n-1) {
		t.Errorf("newest event detail = %q", got)
	}
}

// eventTypes projects a timeline onto its ordered type sequence.
func eventTypes(evs []Event) []string {
	out := make([]string, len(evs))
	for i, ev := range evs {
		out[i] = ev.Type
	}
	return out
}

// TestExecutorJobTimeline runs a real job end to end and asserts the
// lifecycle events arrive in order with monotone Seq, and that the
// timeline carries the submission's request ID.
func TestExecutorJobTimeline(t *testing.T) {
	e := newTestExecutor(t, ExecutorConfig{Workers: 1})
	v, err := e.Submit(fastSpec())
	if err != nil {
		t.Fatal(err)
	}
	if v.RequestID == "" {
		t.Error("submitted job has no request ID")
	}
	awaitExec(t, e, v.ID, func(v View) bool { return v.State.Terminal() }, "terminal")

	tl, err := e.Events(v.ID)
	if err != nil {
		t.Fatal(err)
	}
	if tl.ID != v.ID || tl.RequestID != v.RequestID || tl.State != StateDone {
		t.Errorf("timeline header = %+v, want id=%s req=%s state=done", tl, v.ID, v.RequestID)
	}
	got := eventTypes(tl.Events)
	want := []string{EventSubmitted, EventQueued, EventRunning, EventDone}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("lifecycle = %v, want %v", got, want)
	}
	for i, ev := range tl.Events {
		if ev.Seq != i+1 {
			t.Errorf("event %d Seq = %d, want %d", i, ev.Seq, i+1)
		}
		if ev.At.IsZero() {
			t.Errorf("event %d has zero timestamp", i)
		}
	}

	if _, err := e.Events("no-such-job"); err == nil {
		t.Error("Events on unknown job did not error")
	}
}

// TestQueueWaitWarning forces a pathological queue wait with a nanosecond
// threshold: the counter moves and the warning lands in the timeline
// between queued and running.
func TestQueueWaitWarning(t *testing.T) {
	metrics := NewMetrics()
	e := newTestExecutor(t, ExecutorConfig{
		Workers: 1, Metrics: metrics, QueueWaitWarn: time.Nanosecond,
	})
	v, err := e.Submit(fastSpec())
	if err != nil {
		t.Fatal(err)
	}
	awaitExec(t, e, v.ID, func(v View) bool { return v.State.Terminal() }, "terminal")
	if got := metrics.QueueWaitWarnings.Value(); got != 1 {
		t.Errorf("queue_wait_warnings_total = %d, want 1", got)
	}
	tl, err := e.Events(v.ID)
	if err != nil {
		t.Fatal(err)
	}
	got := eventTypes(tl.Events)
	want := []string{EventSubmitted, EventQueued, EventRunning, EventQueueWaitWarning, EventDone}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("lifecycle with warning = %v, want %v", got, want)
	}
}

// TestEventsEndpoint exercises GET /v1/jobs/{id}/events over HTTP,
// including the cache-hit path, which mints no job at all: the hit view
// has no ID, and the original job's timeline is untouched by the hit.
func TestEventsEndpoint(t *testing.T) {
	srv := New(Config{Executor: ExecutorConfig{Workers: 1}})
	t.Cleanup(func() {
		ctx, cancel := contextWithTimeout(2 * time.Second)
		defer cancel()
		_ = srv.Drain(ctx)
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	v, err := srv.Executor().Submit(fastSpec())
	if err != nil {
		t.Fatal(err)
	}
	awaitExec(t, srv.Executor(), v.ID, func(v View) bool { return v.State.Terminal() }, "terminal")

	var tl Timeline
	getJSON(t, ts.URL+"/v1/jobs/"+v.ID+"/events", &tl)
	if tl.ID != v.ID || len(tl.Events) == 0 {
		t.Fatalf("events payload = %+v", tl)
	}
	if got := eventTypes(tl.Events); got[0] != EventSubmitted || got[len(got)-1] != EventDone {
		t.Errorf("HTTP lifecycle = %v", got)
	}

	// Resubmit: the cache serves it without minting a job, so the hit view
	// carries no ID and the original timeline stays exactly as it was.
	hit, err := srv.Executor().Submit(fastSpec())
	if err != nil {
		t.Fatal(err)
	}
	if !hit.CacheHit {
		t.Fatal("resubmission was not a cache hit")
	}
	if hit.ID != "" {
		t.Errorf("cache hit minted job %q; hits should not create jobs", hit.ID)
	}
	var afterTL Timeline
	getJSON(t, ts.URL+"/v1/jobs/"+v.ID+"/events", &afterTL)
	if got, want := eventTypes(afterTL.Events), eventTypes(tl.Events); strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("original timeline changed by a cache hit: %v, was %v", got, want)
	}

	resp, err := ts.Client().Get(ts.URL + "/v1/jobs/nope/events")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Errorf("unknown job events status = %d, want 404", resp.StatusCode)
	}
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	r, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, r.StatusCode)
	}
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		t.Fatalf("decode %s: %v", url, err)
	}
}
