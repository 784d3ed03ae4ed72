package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"
)

// shedGate installs a runFn that blocks until released, so tests can pin
// jobs in the running state and fill the queue deterministically.
func shedGate(e *Executor) (release func()) {
	ch := make(chan struct{})
	e.runFn = func(ctx context.Context, spec JobSpec, cfg resolved) (*Outcome, error) {
		select {
		case <-ch:
			return &Outcome{}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return func() { close(ch) }
}

func seededSpec(seed int64) JobSpec {
	return JobSpec{Workload: "video", Policy: "dual", Seed: seed,
		BigMAh: 300, LittleMAh: 300, MaxTimeS: 2000}
}

// TestShedHTTP pins the overload wire contract for both admission-gate
// reasons: with one worker pinned, a full queue (QueueDepth 2) or an armed
// burn-rate gate answers the next miss with HTTP 429, an integer
// Retry-After and a *ShedError — never a 503 — without counting a failed
// job, minting a job, or consuming a job ID. Coalescing duplicates and
// cache hits still succeed, since they add no load.
func TestShedHTTP(t *testing.T) {
	cases := []struct {
		reason       string
		arm          func(t *testing.T, e *Executor)
		minRA, maxRA int // accepted Retry-After seconds
	}{
		{
			reason: "queue-depth",
			arm: func(t *testing.T, e *Executor) {
				for seed := int64(2); seed <= 3; seed++ { // fills QueueDepth 2
					if _, err := e.Submit(seededSpec(seed)); err != nil {
						t.Fatalf("seed %d: %v", seed, err)
					}
				}
			},
			minRA: 1, maxRA: 1 << 30,
		},
		{
			reason: "burn-rate",
			arm:    func(t *testing.T, e *Executor) { e.ShedFor(90 * time.Second) },
			minRA:  89, maxRA: 90,
		},
	}
	for _, tc := range cases {
		t.Run(tc.reason, func(t *testing.T) {
			srv, ts := newTestServer(t, ExecutorConfig{Workers: 1, QueueDepth: 2})
			e := srv.Executor()
			warm, err := e.Submit(seededSpec(100)) // a cached outcome to hit later
			if err != nil {
				t.Fatal(err)
			}
			awaitExec(t, e, warm.ID, func(v View) bool { return v.State == StateDone }, "done")
			release := shedGate(e)
			defer release()
			first, err := e.Submit(seededSpec(1))
			if err != nil {
				t.Fatal(err)
			}
			awaitExec(t, e, first.ID, func(v View) bool { return v.State == StateRunning }, "running")
			tc.arm(t, e)

			jobs := len(e.List())
			e.mu.Lock()
			seq := e.seq
			e.mu.Unlock()

			body, err := json.Marshal(seededSpec(4))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			raw, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusTooManyRequests {
				t.Fatalf("overloaded submit status %d, want 429 (body %s)", resp.StatusCode, raw)
			}
			ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
			if err != nil || ra < tc.minRA || ra > tc.maxRA {
				t.Errorf("Retry-After %q, want integer seconds in [%d, %d]",
					resp.Header.Get("Retry-After"), tc.minRA, tc.maxRA)
			}
			if !strings.Contains(string(raw), "shedding load") {
				t.Errorf("shed body %q does not explain itself", raw)
			}

			_, err = e.Submit(seededSpec(5))
			var sh *ShedError
			if !errors.As(err, &sh) || sh.Reason != tc.reason || !errors.Is(err, ErrShed) {
				t.Fatalf("overloaded Submit = %v, want *ShedError{Reason: %q}", err, tc.reason)
			}
			if sh.RetryAfter < time.Second || sh.RetryAfter%time.Second != 0 {
				t.Errorf("ShedError.RetryAfter %v, want whole seconds >= 1s", sh.RetryAfter)
			}
			if got := e.metrics.Shed.WithLabelValues(tc.reason).Value(); got != 2 {
				t.Errorf("capmand_shed_total{reason=%s} = %d, want 2", tc.reason, got)
			}
			if got := e.metrics.JobsFailed.Value(); got != 0 {
				t.Errorf("capmand_jobs_failed_total = %d after sheds, want 0", got)
			}
			if got := len(e.List()); got != jobs {
				t.Errorf("sheds minted jobs: List() has %d, want %d", got, jobs)
			}
			e.mu.Lock()
			if e.seq != seq {
				t.Errorf("sheds advanced the job sequence from %d to %d", seq, e.seq)
			}
			e.mu.Unlock()

			// Work that adds no load is still admitted.
			if v, err := e.Submit(seededSpec(1)); err != nil || v.ID != first.ID {
				t.Errorf("coalescing duplicate: view %s err %v, want job %s", v.ID, err, first.ID)
			}
			if v, status := submit(t, ts, seededSpec(100)); status != http.StatusOK || !v.CacheHit {
				t.Errorf("cache hit: status %d cacheHit %v, want 200 and a hit", status, v.CacheHit)
			}

			mresp, err := http.Get(ts.URL + "/metrics")
			if err != nil {
				t.Fatal(err)
			}
			defer mresp.Body.Close()
			text, _ := io.ReadAll(mresp.Body)
			if want := `capmand_shed_total{reason="` + tc.reason + `"} 2`; !strings.Contains(string(text), want) {
				t.Errorf("/metrics missing %s", want)
			}
		})
	}
}

// TestShedQueueWatermark fills the queue behind a pinned worker and checks
// the queue-depth shed: a *ShedError matched by errors.Is(err, ErrShed),
// counted in capmand_shed_total, and carrying the Retry-After measured
// from the backlog and the mean job wall time. Once the backlog drains
// the same submission is admitted.
func TestShedQueueWatermark(t *testing.T) {
	e := newTestExecutor(t, ExecutorConfig{Workers: 1, QueueDepth: 2})
	e.metrics.JobWallSeconds.Observe(2.5) // mean job wall time 2.5s
	release := shedGate(e)

	first, err := e.Submit(seededSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	awaitExec(t, e, first.ID, func(v View) bool { return v.State == StateRunning }, "running")
	ids := []string{first.ID}
	for seed := int64(2); seed <= 3; seed++ { // backlog reaches QueueDepth
		v, err := e.Submit(seededSpec(seed))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		ids = append(ids, v.ID)
	}

	_, err = e.Submit(seededSpec(4))
	if !errors.Is(err, ErrShed) {
		t.Fatalf("submission into a full queue returned %v, want ErrShed", err)
	}
	var sh *ShedError
	if !errors.As(err, &sh) {
		t.Fatalf("shed error is %T, want *ShedError", err)
	}
	if sh.Reason != "queue-depth" {
		t.Errorf("shed reason %q, want queue-depth", sh.Reason)
	}
	// Backlog 2 on one worker: 3 rounds of 2.5s, rounded up to 8s.
	if sh.RetryAfter != 8*time.Second {
		t.Errorf("Retry-After %v, want 8s", sh.RetryAfter)
	}
	if got := e.metrics.Shed.WithLabelValues("queue-depth").Value(); got != 1 {
		t.Errorf("capmand_shed_total{reason=queue-depth} = %d, want 1", got)
	}

	release()
	for _, id := range ids {
		awaitExec(t, e, id, func(v View) bool { return v.State.Terminal() }, "terminal")
	}
	if got := e.QueueDepth(); got != 0 {
		t.Fatalf("backlog %d after every queued job finished, want 0", got)
	}
	v, err := e.Submit(seededSpec(4))
	if err != nil {
		t.Fatalf("submission after the backlog drained: %v", err)
	}
	awaitExec(t, e, v.ID, func(v View) bool { return v.State.Terminal() }, "terminal")
}

// TestBacklogWait pins the queue-depth Retry-After arithmetic:
// ceil((backlog+1)/workers) rounds of the mean job wall time, rounded up
// to whole seconds, and 1s before any job has finished.
func TestBacklogWait(t *testing.T) {
	e := newTestExecutor(t, ExecutorConfig{Workers: 2})
	if got := e.backlogWait(4); got != time.Second {
		t.Errorf("backlogWait before any job = %v, want 1s", got)
	}
	e.metrics.JobWallSeconds.Observe(2)
	e.metrics.JobWallSeconds.Observe(3) // mean 2.5s
	for backlog, want := range map[int]time.Duration{
		0: 3 * time.Second, // 1 round of 2.5s
		1: 3 * time.Second, // still 1 round: two workers
		2: 5 * time.Second, // 2 rounds
		4: 8 * time.Second, // 3 rounds, 7.5s
	} {
		if got := e.backlogWait(backlog); got != want {
			t.Errorf("backlogWait(%d) = %v, want %v", backlog, got, want)
		}
	}
}

// TestShedBurnRate arms the burn-rate gate via ShedFor (the entry point
// an SLO burn-rate breach uses) and checks fresh work is shed while cache hits
// keep flowing; after the deadline passes the gate reopens.
func TestShedBurnRate(t *testing.T) {
	e := newTestExecutor(t, ExecutorConfig{Workers: 2})

	done, err := e.Submit(seededSpec(10))
	if err != nil {
		t.Fatal(err)
	}
	awaitExec(t, e, done.ID, func(v View) bool { return v.State.Terminal() }, "terminal")

	e.ShedFor(time.Minute)
	_, err = e.Submit(seededSpec(11))
	var sh *ShedError
	if !errors.As(err, &sh) || sh.Reason != "burn-rate" {
		t.Fatalf("submission under burn = %v, want *ShedError{burn-rate}", err)
	}
	if got := e.metrics.Shed.WithLabelValues("burn-rate").Value(); got != 1 {
		t.Errorf("capmand_shed_total{reason=burn-rate} = %d, want 1", got)
	}
	// Cached work is free — the gate never touches hits.
	if v, err := e.Submit(seededSpec(10)); err != nil || !v.CacheHit {
		t.Errorf("cache hit shed under burn: view=%+v err=%v", v, err)
	}

	// Deadlines only ratchet forward: a shorter ShedFor must not shrink
	// the armed window.
	e.ShedFor(time.Millisecond)
	if _, err := e.Submit(seededSpec(12)); !errors.Is(err, ErrShed) {
		t.Errorf("shorter ShedFor shrank the window: %v", err)
	}
}

// TestShedExpires uses a short burn window and waits it out.
func TestShedExpires(t *testing.T) {
	e := newTestExecutor(t, ExecutorConfig{Workers: 2})
	e.ShedFor(30 * time.Millisecond)
	if _, err := e.Submit(seededSpec(20)); !errors.Is(err, ErrShed) {
		t.Fatalf("gate not armed: %v", err)
	}
	time.Sleep(50 * time.Millisecond)
	v, err := e.Submit(seededSpec(20))
	if err != nil {
		t.Fatalf("gate never reopened: %v", err)
	}
	awaitExec(t, e, v.ID, func(v View) bool { return v.State.Terminal() }, "terminal")
}
