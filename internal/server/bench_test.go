package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// BenchmarkAdmissionPath measures Submit's serving hot path. The "hit"
// subbenchmark is the one bench.sh hard-gates at 0 allocs/op: a cached
// spec must be served from the pooled canonicalization buffer and the
// cache lookup without touching the heap. "key" isolates the
// canonicalize+hash step shared by every request.
func BenchmarkAdmissionPath(b *testing.B) {
	spec := JobSpec{Workload: "video", Policy: "dual", Seed: 7,
		BigMAh: 300, LittleMAh: 300, MaxTimeS: 2000}

	b.Run("hit", func(b *testing.B) {
		e := NewExecutor(ExecutorConfig{Workers: 2})
		defer drainBench(b, e)
		v, err := e.Submit(spec)
		if err != nil {
			b.Fatal(err)
		}
		awaitBench(b, e, v.ID)
		if v, err := e.Submit(spec); err != nil || !v.CacheHit {
			b.Fatalf("warmup hit failed: %+v %v", v, err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			v, err := e.Submit(spec)
			if err != nil || !v.CacheHit {
				b.Fatal("hit path missed")
			}
		}
	})

	b.Run("key", func(b *testing.B) {
		specKey(spec) // warm the pool
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, ok := specKey(spec); !ok {
				b.Fatal("specKey bailed")
			}
		}
	})

	b.Run("hit-parallel", func(b *testing.B) {
		e := NewExecutor(ExecutorConfig{Workers: 2, CacheSize: 256})
		defer drainBench(b, e)
		// Prime 64 distinct cached outcomes so parallel readers spread
		// across entries instead of all reading one.
		specs := make([]JobSpec, 64)
		for i := range specs {
			specs[i] = spec
			specs[i].Seed = int64(i)
			v, err := e.Submit(specs[i])
			if err != nil {
				b.Fatal(err)
			}
			awaitBench(b, e, v.ID)
		}
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				v, err := e.Submit(specs[i&63])
				if err != nil || !v.CacheHit {
					b.Fatal("hit path missed")
				}
				i++
			}
		})
	})
}

// BenchmarkHTTPHit measures a cache hit end to end through the handler
// tree: POST /v1/jobs over 32 primed keys, a fifth of them tte jobs, sent
// to Server.Handler() through httptest. It covers what BenchmarkAdmissionPath
// leaves out — reading and decoding the body, and encoding the response —
// plus httptest's own request and recorder.
func BenchmarkHTTPHit(b *testing.B) {
	s := New(Config{Executor: ExecutorConfig{Workers: 2}})
	defer func() {
		ctx, cancel := contextWithTimeout(5 * time.Second)
		defer cancel()
		_ = s.Drain(ctx)
	}()
	bodies := make([][]byte, 32)
	for i := range bodies {
		spec := JobSpec{Workload: "video", Policy: "dual", Seed: int64(i),
			BigMAh: 300, LittleMAh: 300, MaxTimeS: 2000}
		if i%5 == 0 {
			spec = JobSpec{Kind: "tte", Workload: "video", Seed: int64(i),
				TTE: &TTEParams{Twins: 8, HorizonS: 300}}
		}
		var err error
		if bodies[i], err = json.Marshal(spec); err != nil {
			b.Fatal(err)
		}
		v, err := s.Executor().Submit(spec)
		if err != nil {
			b.Fatal(err)
		}
		awaitBench(b, s.Executor(), v.ID)
	}
	h := s.Handler()
	post := func(body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			b.Fatalf("POST /v1/jobs = %d, want a 200 cache hit: %s", rec.Code, rec.Body)
		}
	}
	for _, body := range bodies {
		post(body) // warm the pools
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		post(bodies[i&31])
	}
}

// BenchmarkCache isolates the cache layer: uncontended get/put, then
// parallel reads contending on the one lock.
func BenchmarkCache(b *testing.B) {
	const entries = 256
	build := func() (*Cache, []CacheKey) {
		c := NewCache(entries)
		keys := make([]CacheKey, entries)
		out := &Outcome{}
		for i := range keys {
			keys[i] = traceKey(i)
			c.put(&cacheEntry{key: keys[i], outcome: out})
		}
		return c, keys
	}

	b.Run("get", func(b *testing.B) {
		c, keys := build()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, ok := c.lookup(keys[i&(entries-1)]); !ok {
				b.Fatal("miss")
			}
		}
	})

	b.Run("put", func(b *testing.B) {
		c, keys := build()
		out := &Outcome{}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.put(&cacheEntry{key: keys[i&(entries-1)], outcome: out})
		}
	})

	b.Run("get-parallel", func(b *testing.B) {
		c, keys := build()
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				if _, ok := c.lookup(keys[i&(entries-1)]); !ok {
					b.Fatal("miss")
				}
				i++
			}
		})
	})
}

func drainBench(b *testing.B, e *Executor) {
	b.Helper()
	ctx, cancel := contextWithTimeout(5 * time.Second)
	defer cancel()
	_ = e.Drain(ctx)
}

func awaitBench(b *testing.B, e *Executor, id string) {
	b.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		v, err := e.Get(id)
		if err != nil {
			b.Fatalf("Get(%s): %v", id, err)
		}
		if v.State.Terminal() {
			if v.State != StateDone {
				b.Fatalf("job %s ended %s: %s", id, v.State, v.Error)
			}
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	b.Fatalf("job %s never finished", id)
}
