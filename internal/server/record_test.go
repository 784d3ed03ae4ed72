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

// TestTerminalJobsReleaseConfig: every terminal transition — done,
// failed, cancelled while queued, cancelled by drain — zeroes the job's
// resolved config, so finished jobs do not pin schedulers.
func TestTerminalJobsReleaseConfig(t *testing.T) {
	t.Run("done", func(t *testing.T) {
		e := newTestExecutor(t, ExecutorConfig{Workers: 1})
		v, err := e.Submit(fastSpec())
		if err != nil {
			t.Fatal(err)
		}
		awaitExec(t, e, v.ID, func(v View) bool { return v.State == StateDone }, "done")
		if !cfgReleased(e, v.ID) {
			t.Error("done job still holds its resolved config")
		}
	})
	t.Run("failed", func(t *testing.T) {
		e := newTestExecutor(t, ExecutorConfig{Workers: 1, MaxRetries: -1})
		e.runFn = func(context.Context, JobSpec, resolved) (*Outcome, error) {
			return nil, errors.New("boom")
		}
		v, err := e.Submit(fastSpec())
		if err != nil {
			t.Fatal(err)
		}
		awaitExec(t, e, v.ID, func(v View) bool { return v.State == StateFailed }, "failed")
		if !cfgReleased(e, v.ID) {
			t.Error("failed job still holds its resolved config")
		}
	})
	t.Run("cancelled-queued", func(t *testing.T) {
		e := newTestExecutor(t, ExecutorConfig{Workers: 1})
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
		if !cfgReleased(e, queued.ID) {
			t.Error("job cancelled while queued still holds its resolved config")
		}
	})
	t.Run("cancelled-drain", func(t *testing.T) {
		e := NewExecutor(ExecutorConfig{Workers: 1})
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
		for _, id := range []string{running.ID, queued.ID} {
			if v, _ := e.Get(id); v.State != StateCancelled {
				t.Errorf("%s state %q after drain, want cancelled", id, v.State)
			}
			if !cfgReleased(e, id) {
				t.Errorf("%s still holds its resolved config after drain", id)
			}
		}
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
