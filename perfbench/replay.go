package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/invariant"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/twin"
)

// Replay sample sizes for the miss workloads' correctness gate.
const (
	replaySims = 48
	replayTTEs = 4
)

// checkJobs applies the served-side checks to a miss workload's jobs and
// folds their outcomes into the digest. It returns how many jobs the
// daemon created.
func (b *bench) checkJobs(s *served, hashes []string) int {
	if h := s.Tally[classHit]; h > 0 {
		b.gate.failf("%s: %d submissions hit the cache; every key must be new", b.plan.def.name, h)
	}
	created := 0
	for i := range s.Jobs {
		j := &s.Jobs[i]
		switch j.Class {
		case classDone, classFailed, classCancelled, classPollTimeout:
			created++
		}
		if j.Class != classDone {
			continue
		}
		if j.View.Hash != hashes[i] {
			b.gate.failf("op %d: served hash %s, JobSpec.Hash() %s", i, j.View.Hash, hashes[i])
		}
		if j.View.CacheHit {
			b.gate.failf("op %d: job view marked as a cache hit", i)
		}
		b.digest.add(hashes[i], j.OutHash)
	}
	return created
}

// replayGate re-runs outcomes directly and requires byte equality with
// what the daemon served: every primed key on hit-heavy, a seeded sample
// of completed jobs on the miss workloads. The replays also give
// executor.serve_overhead_ratio: served run time over direct run time of
// the same specs.
func (b *bench) replayGate(ctx context.Context, s *served, keys []primedKey) error {
	reg := server.DefaultRegistry()
	var servedS, directS float64
	check := func(what string, spec server.JobSpec, want string, wallS float64) error {
		t0 := time.Now()
		got, err := replayHash(ctx, reg, spec)
		directS += time.Since(t0).Seconds()
		servedS += wallS
		if err != nil {
			return fmt.Errorf("replay %s: %w", what, err)
		}
		if got != want {
			b.gate.failf("replay %s: outcome differs from the served one", what)
		}
		return nil
	}
	n := 0
	if b.plan.def.primes {
		for i := range keys {
			if err := check(fmt.Sprintf("key %d", i), keys[i].spec, keys[i].OutHash, keys[i].run.View.WallS); err != nil {
				return err
			}
			n++
		}
	} else {
		want := replaySims
		if b.plan.def.name == "tte-miss" {
			want = replayTTEs
		}
		for _, i := range rngFor(b.plan.seed, 4).Perm(len(s.Jobs)) {
			if n == want {
				break
			}
			if s.Jobs[i].Class != classDone {
				continue
			}
			if err := check(fmt.Sprintf("op %d", i), b.plan.specs[i], s.Jobs[i].OutHash, s.Jobs[i].View.WallS); err != nil {
				return err
			}
			n++
		}
	}
	b.layers["executor.serve_overhead_ratio"] = metric{ratio(servedS, directS), "ratio"}
	b.printf("replayed %d outcomes directly; %d gate failures\n", n, b.gate.n)
	return nil
}

// replayHash runs spec the way a capmand worker does — resolved through
// the default registry, the invariant checker mounted with its default
// envelopes — and returns the canonical outcome hash.
func replayHash(ctx context.Context, reg *server.Registry, spec server.JobSpec) (string, error) {
	out, err := replay(ctx, reg, spec)
	if err != nil {
		return "", err
	}
	return outcomeHash(out)
}

func replay(ctx context.Context, reg *server.Registry, spec server.JobSpec) (*server.Outcome, error) {
	inv := invariant.DefaultConfig()
	if spec.Kind == "tte" {
		cfg, err := reg.ResolveTTE(spec)
		if err != nil {
			return nil, err
		}
		cfg.Invariants = &inv
		bt, err := twin.New(cfg)
		if err != nil {
			return nil, err
		}
		if err := bt.Run(ctx, 0); err != nil {
			return nil, err
		}
		return &server.Outcome{TTE: bt.Summarize()}, nil
	}
	cfg, err := reg.Resolve(spec)
	if err != nil {
		return nil, err
	}
	cfg.Invariants = &inv
	res, err := sim.RunContext(ctx, cfg)
	if err != nil {
		return nil, err
	}
	return &server.Outcome{Run: res}, nil
}
