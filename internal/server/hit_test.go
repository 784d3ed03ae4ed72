package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// postRaw sends body to path with optional headers and returns the status
// and the response body.
func postRaw(t *testing.T, ts *httptest.Server, path string, body []byte, hdr map[string]string) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, ts.URL+path, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

// postAwait submits body, which must be a miss, and waits for its job.
func postAwait(t *testing.T, ts *httptest.Server, e *Executor, path string, body []byte) View {
	t.Helper()
	code, out := postRaw(t, ts, path, body, nil)
	if code != http.StatusAccepted {
		t.Fatalf("POST %s = %d, want 202 for a miss: %s", path, code, out)
	}
	var v View
	if err := json.Unmarshal(out, &v); err != nil {
		t.Fatal(err)
	}
	return awaitExec(t, e, v.ID, func(v View) bool { return v.State == StateDone }, "done")
}

// bodyAlias is the alias key submit derives for a body sent to a route
// that implies kind ("" for POST /v1/jobs).
func bodyAlias(kind string, body []byte) CacheKey {
	return sha256.Sum256(append(append([]byte(kind), 0), body...))
}

// aliasCount returns how many aliases the cache holds.
func aliasCount(c *Cache) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.aliases)
}

// assertHitBody checks that a hit response is the bytes writeJSON writes
// for the entry's hit view at the response's own timestamp.
func assertHitBody(t *testing.T, e *Executor, got []byte) {
	t.Helper()
	var v View
	if err := json.Unmarshal(got, &v); err != nil {
		t.Fatal(err)
	}
	var key CacheKey
	if _, err := hex.Decode(key[:], []byte(v.Hash)); err != nil {
		t.Fatal(err)
	}
	ent, ok := e.cache.lookup(key)
	if !ok {
		t.Fatalf("hit for %s has no cache entry", v.Hash)
	}
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, ent.hitView(v.SubmittedAt))
	if !bytes.Equal(got, rec.Body.Bytes()) {
		t.Errorf("hit body differs from writeJSON(hitView):\n got %s\nwant %s", got, rec.Body.Bytes())
	}
	if !bytes.Contains(got, []byte(`"hash":"`+v.Hash+`"`)) || !bytes.Contains(got, []byte(`"cacheHit":true`)) {
		t.Errorf("hit body lacks hash or cacheHit: %s", got)
	}
}

// TestWriteHitMatchesWriteJSON pins the pre-encoded hit body to the View
// encoding it replaces: for sim, cycles and tte outcomes (primed and
// unprimed), specs whose strings need HTML and non-ASCII escaping, and
// timestamps with and without nanoseconds in two zones, writeHit writes
// the same status, Content-Type and bytes as writeJSON(w, 200, view).
func TestWriteHitMatchesWriteJSON(t *testing.T) {
	e := newTestExecutor(t, ExecutorConfig{Workers: 2})
	cycles := fastSpec()
	cycles.Cycles = 2
	specs := map[string]JobSpec{
		"sim":    fastSpec(),
		"cycles": cycles,
		"tte": {Kind: "tte", Workload: "video", Seed: 3,
			TTE: &TTEParams{Twins: 4, HorizonS: 60}},
	}
	escapes := JobSpec{Workload: "<video>&", Policy: "dual ☃ é", FaultPlan: "a</b>&c",
		Profile: "line\u2028sep", BigChemistry: `q"uote\`}
	stamps := []time.Time{
		time.Date(2026, 10, 17, 15, 4, 5, 123456789, time.UTC),
		time.Date(2026, 10, 17, 15, 4, 5, 0, time.FixedZone("IST", 5*3600+30*60)),
		time.Date(1999, 1, 2, 3, 4, 5, 100, time.FixedZone("W", -8*3600)),
		time.Now(),
	}
	for name, spec := range specs {
		v, err := e.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		awaitExec(t, e, v.ID, func(v View) bool { return v.State == StateDone }, "done")
		key, _ := specKey(spec)
		ent, ok := e.cache.lookup(key)
		if !ok {
			t.Fatalf("%s: finished job not cached", name)
		}
		if ent.hitHead == nil {
			t.Fatalf("%s: cached entry has no pre-encoded hit body", name)
		}
		unprimed := *ent.outcome
		unprimed.raw = nil
		cases := map[string]*cacheEntry{
			"cached":   ent,
			"escapes":  newCacheEntry(ent.key, ent.hexHash, escapes, ent.outcome),
			"unprimed": newCacheEntry(ent.key, ent.hexHash, ent.spec, &unprimed),
		}
		for cname, c := range cases {
			for _, at := range stamps {
				h := hit{ent: c, at: at}
				got, want := httptest.NewRecorder(), httptest.NewRecorder()
				writeHit(got, h)
				writeJSON(want, http.StatusOK, h.view())
				if got.Code != want.Code || got.Header().Get("Content-Type") != want.Header().Get("Content-Type") {
					t.Errorf("%s/%s: status %d %q, want %d %q", name, cname,
						got.Code, got.Header().Get("Content-Type"), want.Code, want.Header().Get("Content-Type"))
				}
				if !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
					t.Errorf("%s/%s at %v:\n got %s\nwant %s", name, cname, at, got.Body, want.Body)
				}
			}
		}
	}
}

// TestHitPathsServeIdenticalBodies: the first hit of a body decodes it,
// later ones take its alias; both answer with writeJSON's bytes for the
// entry's hit view, and each counts as one submission and one hit.
func TestHitPathsServeIdenticalBodies(t *testing.T) {
	s, ts := newTestServer(t, ExecutorConfig{Workers: 2})
	e := s.Executor()
	sim, _ := json.Marshal(fastSpec())
	tte := []byte(`{"workload":"video","seed":3,"tte":{"twins":4,"horizonS":60}}`)
	for _, c := range []struct {
		path, kind string
		body       []byte
	}{{"/v1/jobs", "", sim}, {"/v1/tte", "tte", tte}} {
		postAwait(t, ts, e, c.path, c.body)
		submitted, hits := e.metrics.JobsSubmitted.Value(), e.metrics.CacheHits.Value()
		for i := 0; i < 3; i++ {
			code, out := postRaw(t, ts, c.path, c.body, nil)
			if code != http.StatusOK {
				t.Fatalf("%s hit %d = %d: %s", c.path, i, code, out)
			}
			assertHitBody(t, e, out)
			if _, ok := e.cache.alias(bodyAlias(c.kind, c.body)); !ok {
				t.Errorf("%s: no alias recorded after a decoded hit", c.path)
			}
		}
		if d := e.metrics.JobsSubmitted.Value() - submitted; d != 3 {
			t.Errorf("%s: submitted moved by %d over 3 hits", c.path, d)
		}
		if d := e.metrics.CacheHits.Value() - hits; d != 3 {
			t.Errorf("%s: cache hits moved by %d over 3 hits", c.path, d)
		}
	}
}

// TestAliasRouteAndBadBodies: the same bytes sent to /v1/jobs and /v1/tte
// answer as each route decodes them, however often either was served,
// and bodies that fail to decode or validate never gain an alias.
func TestAliasRouteAndBadBodies(t *testing.T) {
	s, ts := newTestServer(t, ExecutorConfig{Workers: 2})
	e := s.Executor()
	sim, _ := json.Marshal(fastSpec())
	simKind := []byte(`{"kind":"sim",` + string(sim[1:]))
	tteBody := []byte(`{"workload":"video","seed":4,"tte":{"twins":4,"horizonS":60}}`)
	tteKind := []byte(`{"kind":"tte",` + string(tteBody[1:]))
	postAwait(t, ts, e, "/v1/jobs", sim)
	postAwait(t, ts, e, "/v1/tte", tteBody)

	cases := []struct {
		path string
		body []byte
		want int
	}{
		{"/v1/jobs", sim, http.StatusOK},
		{"/v1/tte", sim, http.StatusBadRequest}, // a tte job needs tte parameters
		{"/v1/jobs", simKind, http.StatusOK},
		{"/v1/tte", simKind, http.StatusBadRequest}, // kind mismatch
		{"/v1/tte", tteBody, http.StatusOK},
		{"/v1/jobs", tteBody, http.StatusBadRequest}, // tte parameters need kind tte
		{"/v1/jobs", tteKind, http.StatusOK},
		{"/v1/tte", tteKind, http.StatusOK},
		{"/v1/jobs", []byte(`{"workload":`), http.StatusBadRequest},
		{"/v1/jobs", []byte(`{"workload":"video","bogus":1}`), http.StatusBadRequest},
		{"/v1/tte", []byte(`{"workload":"video","bogus":1}`), http.StatusBadRequest},
	}
	for round := 0; round < 3; round++ {
		for _, c := range cases {
			code, out := postRaw(t, ts, c.path, c.body, nil)
			if code != c.want {
				t.Fatalf("round %d: POST %s %s = %d, want %d: %s", round, c.path, c.body, code, c.want, out)
			}
			if code == http.StatusOK {
				var v View
				if err := json.Unmarshal(out, &v); err != nil {
					t.Fatal(err)
				}
				if isTTE := v.Outcome.TTE != nil; isTTE != (v.Spec.Kind == "tte") || isTTE == (v.Outcome.Run != nil) {
					t.Errorf("POST %s %s answered a %q view with outcome %+v", c.path, c.body, v.Spec.Kind, v.Outcome)
				}
				wantTTE := bytes.Contains(c.body, []byte(`"tte"`)) || c.path == "/v1/tte"
				if (v.Spec.Kind == "tte") != wantTTE {
					t.Errorf("POST %s %s served kind %q", c.path, c.body, v.Spec.Kind)
				}
			}
		}
	}
	for _, c := range cases {
		kind := strings.TrimPrefix(c.path, "/v1/")
		if kind == "jobs" {
			kind = ""
		}
		_, ok := e.cache.alias(bodyAlias(kind, c.body))
		if ok != (c.want == http.StatusOK) {
			t.Errorf("POST %s %s: alias recorded = %v, want %v", c.path, c.body, ok, c.want == http.StatusOK)
		}
	}
}

// TestAliasesBounded: more distinct bodies than the alias bound, all
// spellings of one cached spec, leave at most aliasesPerSlot per cache
// slot, and every one is still served as a hit.
func TestAliasesBounded(t *testing.T) {
	const capacity = 4
	s, ts := newTestServer(t, ExecutorConfig{Workers: 1, CacheSize: capacity})
	e := s.Executor()
	body, _ := json.Marshal(fastSpec())
	postAwait(t, ts, e, "/v1/jobs", body)
	limit := aliasesPerSlot * capacity
	for i := 0; i < 5*limit; i++ {
		spelled := append(bytes.Repeat([]byte(" "), i), body...)
		for rep := 0; rep < 2; rep++ { // the second send takes the alias, if it survived
			if code, out := postRaw(t, ts, "/v1/jobs", spelled, nil); code != http.StatusOK {
				t.Fatalf("spelling %d: %d %s", i, code, out)
			}
		}
	}
	if n := aliasCount(e.cache); n == 0 || n > limit {
		t.Errorf("%d aliases after %d distinct bodies, want 1..%d", n, 5*limit, limit)
	}
}

// TestAliasOfEvictedEntryResubmits: once an aliased entry is evicted the
// alias no longer answers; the body decodes again, misses, runs as a new
// job, and is then served as a hit with the same outcome.
func TestAliasOfEvictedEntryResubmits(t *testing.T) {
	s, ts := newTestServer(t, ExecutorConfig{Workers: 1, CacheSize: 1})
	e := s.Executor()
	other := fastSpec()
	other.Seed++
	a, _ := json.Marshal(fastSpec())
	b, _ := json.Marshal(other)

	first := postAwait(t, ts, e, "/v1/jobs", a)
	if code, out := postRaw(t, ts, "/v1/jobs", a, nil); code != http.StatusOK {
		t.Fatalf("repeat = %d: %s", code, out)
	}
	key, _ := specKey(fastSpec())
	if got, ok := e.cache.alias(bodyAlias("", a)); !ok || got != key {
		t.Fatalf("alias = %x, %v; want the spec's key", got, ok)
	}
	postAwait(t, ts, e, "/v1/jobs", b) // evicts a's entry
	if _, ok := e.cache.lookup(key); ok {
		t.Fatal("a's entry survived a one-slot cache")
	}
	again := postAwait(t, ts, e, "/v1/jobs", a)
	if again.ID == first.ID || again.CacheHit {
		t.Errorf("resubmission = %+v, want a new job", again)
	}
	code, out := postRaw(t, ts, "/v1/jobs", a, nil)
	if code != http.StatusOK {
		t.Fatalf("hit after resubmission = %d: %s", code, out)
	}
	assertHitBody(t, e, out)
	var hitView View
	if err := json.Unmarshal(out, &hitView); err != nil {
		t.Fatal(err)
	}
	was, _ := json.Marshal(first.Outcome)
	now, _ := json.Marshal(hitView.Outcome)
	if !bytes.Equal(was, now) {
		t.Error("recomputed outcome differs from the evicted one")
	}
	if got := e.metrics.CacheMisses.Value(); got != 3 {
		t.Errorf("cache misses = %d, want 3 (a, b, a again)", got)
	}
}

// TestAliasHitRefreshesRecency: a hit served through an alias refreshes
// its entry's LRU recency like any other hit, so the next insert evicts
// the entry that really was least recently used.
func TestAliasHitRefreshesRecency(t *testing.T) {
	s, ts := newTestServer(t, ExecutorConfig{Workers: 1, CacheSize: 2})
	e := s.Executor()
	specs := make([]JobSpec, 3)
	for i := range specs {
		specs[i] = fastSpec()
		specs[i].Seed = int64(i)
	}
	body := func(i int) []byte { b, _ := json.Marshal(specs[i]); return b }
	key := func(i int) CacheKey { k, _ := specKey(specs[i]); return k }

	postAwait(t, ts, e, "/v1/jobs", body(0))
	if code, _ := postRaw(t, ts, "/v1/jobs", body(0), nil); code != http.StatusOK {
		t.Fatal("decoded hit failed")
	}
	postAwait(t, ts, e, "/v1/jobs", body(1)) // 1 is now the most recent
	if _, ok := e.cache.alias(bodyAlias("", body(0))); !ok {
		t.Fatal("no alias after a decoded hit")
	}
	if code, _ := postRaw(t, ts, "/v1/jobs", body(0), nil); code != http.StatusOK {
		t.Fatal("alias hit failed")
	}
	postAwait(t, ts, e, "/v1/jobs", body(2)) // evicts the least recent
	if _, ok := e.cache.lookup(key(1)); ok {
		t.Error("entry 1 survived: the alias hit did not refresh entry 0")
	}
	if _, ok := e.cache.lookup(key(0)); !ok {
		t.Error("entry 0 was evicted although an alias hit had just used it")
	}
}

// TestTracedAliasHit: a traced request served through its body's alias
// still records the one-span cache-hit trace and its sampling decision.
func TestTracedAliasHit(t *testing.T) {
	s, ts := newTestServer(t, ExecutorConfig{Workers: 1, Trace: TraceConfig{SampleRate: 1}})
	e := s.Executor()
	body, _ := json.Marshal(fastSpec())
	postAwait(t, ts, e, "/v1/jobs", body)
	if code, _ := postRaw(t, ts, "/v1/jobs", body, nil); code != http.StatusOK {
		t.Fatal("decoded hit failed")
	}
	if _, ok := e.cache.alias(bodyAlias("", body)); !ok {
		t.Fatal("no alias after a decoded hit")
	}
	sampled := e.metrics.TracesTotal.WithLabelValues(obs.TraceDecisionSampled).Value()
	code, out := postRaw(t, ts, "/v1/jobs", body,
		map[string]string{"traceparent": testTraceparent, "X-Request-ID": "alias-req"})
	if code != http.StatusOK {
		t.Fatalf("traced alias hit = %d: %s", code, out)
	}
	assertHitBody(t, e, out)
	tr, ok := e.Traces().Get("0af7651916cd43dd8448eb211c80319c")
	if !ok {
		t.Fatal("traced alias hit not retained at rate 1")
	}
	if tr.Outcome != "done" || tr.Kind != "sim" || tr.RequestID != "alias-req" ||
		len(tr.Spans) != 1 || tr.Spans[0].Attrs["cache"] != "hit" {
		t.Errorf("alias-hit trace = %+v, want one request span with cache=hit", tr)
	}
	if d := e.metrics.TracesTotal.WithLabelValues(obs.TraceDecisionSampled).Value() - sampled; d != 1 {
		t.Errorf("sampled decisions moved by %d, want 1", d)
	}
}

// TestSubmitBodyCapped: a submission body over maxSubmitBody is a 413
// with the usual JSON error, padding before or after a valid spec alike,
// and it mints no job and moves no counter. A body of exactly the cap is
// still read.
func TestSubmitBodyCapped(t *testing.T) {
	s, ts := newTestServer(t, ExecutorConfig{Workers: 1})
	e := s.Executor()
	sim, _ := json.Marshal(fastSpec())
	tte := []byte(`{"workload":"video","seed":5,"tte":{"twins":4,"horizonS":60}}`)
	pad := bytes.Repeat([]byte(" "), 2<<20)
	for _, c := range []struct {
		path string
		spec []byte
	}{{"/v1/jobs", sim}, {"/v1/tte", tte}} {
		for where, body := range map[string][]byte{
			"leading":  append(append([]byte{}, pad...), c.spec...),
			"trailing": append(append([]byte{}, c.spec...), pad...),
		} {
			code, out := postRaw(t, ts, c.path, body, nil)
			if code != http.StatusRequestEntityTooLarge {
				t.Errorf("%s, %s padding: status %d, want 413: %.200s", c.path, where, code, out)
				continue
			}
			var msg map[string]string
			if err := json.Unmarshal(out, &msg); err != nil || msg["error"] == "" {
				t.Errorf("%s, %s padding: body %q, want a JSON error", c.path, where, out)
			}
		}
	}
	if n := e.metrics.JobsSubmitted.Value(); n != 0 {
		t.Errorf("oversized bodies counted %d submissions", n)
	}
	if n := e.metrics.CacheMisses.Value() + e.metrics.CacheHits.Value(); n != 0 {
		t.Errorf("oversized bodies moved cache counters by %d", n)
	}
	if jobs := e.List(); len(jobs) != 0 {
		t.Errorf("oversized bodies minted %d jobs", len(jobs))
	}

	exact := append(append([]byte{}, sim...), bytes.Repeat([]byte(" "), maxSubmitBody-len(sim))...)
	if code, out := postRaw(t, ts, "/v1/jobs", exact, nil); code != http.StatusAccepted {
		t.Errorf("body of exactly %d bytes: %d %s", maxSubmitBody, code, out)
	}
}
