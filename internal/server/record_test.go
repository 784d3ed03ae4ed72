package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"testing"
	"time"

	"repro/internal/invariant"
	"repro/internal/obs"
	"repro/internal/sim"
)

// TestServedOutcomeMatchesDirectRun: a served sim outcome carries no host
// timing, so its cached bytes equal a direct sim.RunContext of the same
// resolved config under the default invariants — whichever run produced
// them.
func TestServedOutcomeMatchesDirectRun(t *testing.T) {
	capman := fastSpec()
	capman.Policy = "capman"
	for _, spec := range []JobSpec{fastSpec(), capman} {
		t.Run(spec.Policy, func(t *testing.T) {
			e := newTestExecutor(t, ExecutorConfig{Workers: 1})
			v, err := e.Submit(spec)
			if err != nil {
				t.Fatal(err)
			}
			done := awaitExec(t, e, v.ID, func(v View) bool { return v.State.Terminal() }, "terminal")
			if done.State != StateDone {
				t.Fatalf("job ended %q: %s", done.State, done.Error)
			}
			served, err := json.Marshal(done.Outcome)
			if err != nil {
				t.Fatal(err)
			}

			cfg, err := DefaultRegistry().Resolve(spec)
			if err != nil {
				t.Fatal(err)
			}
			inv := invariant.DefaultConfig()
			cfg.Invariants = &inv
			res, err := sim.RunContext(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			direct, err := json.Marshal(&Outcome{Run: res})
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(served, direct) {
				t.Errorf("served outcome differs from a direct run:\nserved: %.300s\ndirect: %.300s", served, direct)
			}
		})
	}
}

// cfgReleased reports, under the executor lock, whether a job has let go
// of its resolved config.
func cfgReleased(e *Executor, id string) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return reflect.ValueOf(e.jobs[id].cfg).IsZero()
}

// openSpans names a job's request and queue spans that are still in
// progress.
func openSpans(e *Executor, id string) []string {
	e.mu.Lock()
	rec := e.jobs[id].rec
	e.mu.Unlock()
	var open []string
	var walk func([]obs.SpanNode)
	walk = func(nodes []obs.SpanNode) {
		for _, n := range nodes {
			if (n.Name == "request" || n.Name == "queue") && n.InProgress {
				open = append(open, n.Name)
			}
			walk(n.Children)
		}
	}
	walk(rec.Tree())
	return open
}

// checkRecord asserts that every job in ids — all the jobs the executor
// has ended so far, each in state want — completed its record: resolved
// config released, request and queue spans closed, exactly one
// tail-sampling decision (the test executors retain every trace, so each
// job's is stored), and exactly one terminal counter moved per job, the
// one matching want.
func checkRecord(t *testing.T, e *Executor, want State, ids ...string) {
	t.Helper()
	for _, id := range ids {
		v, err := e.Get(id)
		if err != nil || v.State != want {
			t.Fatalf("%s: state %q (err %v), want %q", id, v.State, err, want)
		}
		if !cfgReleased(e, id) {
			t.Errorf("%s %s still holds its resolved config", want, id)
		}
		if open := openSpans(e, id); len(open) != 0 {
			t.Errorf("%s %s left spans %v in progress", want, id, open)
		}
		if _, ok := e.Traces().Get(v.TraceID); !ok {
			t.Errorf("%s %s: trace %q never decided and stored", want, id, v.TraceID)
		}
	}
	var decisions uint64
	for _, d := range []string{obs.TraceDecisionSignal, obs.TraceDecisionSampled, obs.TraceDecisionDropped} {
		decisions += e.metrics.TracesTotal.WithLabelValues(d).Value()
	}
	if decisions != uint64(len(ids)) {
		t.Errorf("capmand_traces_total = %d decisions for %d ended jobs, want one each", decisions, len(ids))
	}
	counters := map[State]uint64{
		StateDone:      e.metrics.JobsCompleted.Value(),
		StateFailed:    e.metrics.JobsFailed.Value(),
		StateCancelled: e.metrics.JobsCancelled.Value(),
	}
	for state, got := range counters {
		var wantN uint64
		if state == want {
			wantN = uint64(len(ids))
		}
		if got != wantN {
			t.Errorf("terminal counter for %s = %d, want %d", state, got, wantN)
		}
	}
}

// TestTerminalJobsReleaseConfig drives all four terminal paths — done,
// failed, cancelled while queued, cancelled by drain — with tracing on
// and checks each completes the job's record (see checkRecord): finished
// jobs do not pin schedulers, leave no span open, decide their trace once
// and move exactly one terminal counter.
func TestTerminalJobsReleaseConfig(t *testing.T) {
	cfg := func(c ExecutorConfig) ExecutorConfig {
		c.Workers = 1
		c.Trace = TraceConfig{SampleRate: 1} // retain every trace
		return c
	}
	t.Run("done", func(t *testing.T) {
		e := newTestExecutor(t, cfg(ExecutorConfig{}))
		v, err := e.Submit(fastSpec())
		if err != nil {
			t.Fatal(err)
		}
		awaitExec(t, e, v.ID, func(v View) bool { return v.State == StateDone }, "done")
		checkRecord(t, e, StateDone, v.ID)
	})
	t.Run("failed", func(t *testing.T) {
		e := newTestExecutor(t, cfg(ExecutorConfig{}))
		e.runFn = func(context.Context, JobSpec, resolved) (*Outcome, error) {
			return nil, errors.New("boom")
		}
		v, err := e.Submit(fastSpec())
		if err != nil {
			t.Fatal(err)
		}
		awaitExec(t, e, v.ID, func(v View) bool { return v.State == StateFailed }, "failed")
		checkRecord(t, e, StateFailed, v.ID)
	})
	t.Run("cancelled-queued", func(t *testing.T) {
		e := newTestExecutor(t, cfg(ExecutorConfig{}))
		running, err := e.Submit(slowSpec(50))
		if err != nil {
			t.Fatal(err)
		}
		awaitExec(t, e, running.ID, func(v View) bool { return v.State == StateRunning }, "running")
		queued, err := e.Submit(slowSpec(51))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Cancel(queued.ID); err != nil {
			t.Fatal(err)
		}
		checkRecord(t, e, StateCancelled, queued.ID)
	})
	t.Run("cancelled-drain", func(t *testing.T) {
		e := NewExecutor(cfg(ExecutorConfig{}))
		running, err := e.Submit(slowSpec(52))
		if err != nil {
			t.Fatal(err)
		}
		awaitExec(t, e, running.ID, func(v View) bool { return v.State == StateRunning }, "running")
		queued, err := e.Submit(slowSpec(53))
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := contextWithTimeout(50 * time.Millisecond)
		defer cancel()
		if err := e.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("drain error %v, want deadline exceeded", err)
		}
		checkRecord(t, e, StateCancelled, running.ID, queued.ID)
	})
}

// TestListNewestFirstPastIDWidth: List orders by admission sequence, so
// newest-first holds where j%08d IDs outgrow eight digits and stop
// sorting as strings.
func TestListNewestFirstPastIDWidth(t *testing.T) {
	e := newTestExecutor(t, ExecutorConfig{Workers: 1})
	e.mu.Lock()
	e.seq = 99_999_998
	e.mu.Unlock()
	for seed := int64(1); seed <= 3; seed++ {
		spec := fastSpec()
		spec.Seed = seed
		if _, err := e.Submit(spec); err != nil {
			t.Fatal(err)
		}
	}
	var got []string
	for _, v := range e.List() {
		got = append(got, v.ID)
	}
	want := []string{"j100000001", "j100000000", "j99999999"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("List order = %v, want %v", got, want)
	}
}
