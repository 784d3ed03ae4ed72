package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/invariant"
	"repro/internal/mdp"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/simstruct"
	"repro/internal/twin"
	"repro/internal/workload"
)

// Direct-call sample sizes of the traced pass.
const (
	admissionHTTP    = 4000  // HTTP hits on one connection
	admissionDirect  = 50000 // Executor.Submit calls on the primed keys
	simProbesPerKind = 2     // sim probes per (policy, workload) pair
)

// servedLayers derives the per-layer figures a served pass yields from
// client timestamps and job views.
func (b *bench) servedLayers(s *served, keys []primedKey) {
	runs := s.Jobs
	if b.plan.def.primes {
		runs = make([]jobRun, len(keys))
		for i := range keys {
			runs[i] = keys[i].run
		}
	}
	var post, get, wait, wall, attempts []float64
	for i := range runs {
		j := &runs[i]
		post = append(post, ms(j.PostEnd.Sub(j.SendAt)))
		for _, p := range j.Polls {
			get = append(get, float64(p[1].Sub(p[0]))/1e3)
		}
		if j.Class == classDone {
			wait = append(wait, j.View.QueueWaitS*1e3)
			wall = append(wall, j.View.WallS*1e3)
			attempts = append(attempts, float64(j.View.Attempts))
		}
	}
	wait = sortedCopy(wait)
	L := b.layers
	L["server.post_miss_ms_p50"] = metric{median(post), "ms"}
	L["server.get_us_p50"] = metric{median(get), "us"}
	L["cache.hit_ratio"] = metric{ratio(float64(s.Tally[classHit]), float64(s.Tally.attempted())), "ratio"}
	L["executor.queue_wait_ms_p50"] = metric{percentile(wait, 0.5), "ms"}
	L["executor.queue_wait_ms_p99"] = metric{percentile(wait, 0.99), "ms"}
	L["executor.run_ms_p50"] = metric{median(wall), "ms"}
	L["executor.attempts_mean"] = metric{mean(attempts), "count"}
	L["bench.trace_overhead_ratio"] = metric{ratio(median(s.LatTrMs), median(s.LatMs)), "ratio"}
	b.printf("served-job samples: %d posts, %d polls, %d views (queue-wait p99 over %d)\n",
		len(post), len(get), len(wall), len(wait))
}

// admissionLayers times the cache-hit path twice on a primed daemon:
// over HTTP on one connection, and as direct Executor.Submit calls. The
// difference is the HTTP surface's share of a hit.
func (b *bench) admissionLayers(ctx context.Context, d *daemon, keys []primedKey) error {
	rng := rngFor(b.plan.seed, 5)
	c := newClient(d.base, 1)
	defer c.close()
	var buf bytes.Buffer
	httpUs := make([]float64, 0, admissionHTTP)
	for i := 0; i < admissionHTTP; i++ {
		k := &keys[rng.Intn(len(keys))]
		t0 := time.Now()
		status, err := c.do(ctx, http.MethodPost, jobPath, k.body, &buf)
		if err != nil || status != http.StatusOK {
			return fmt.Errorf("admission probe: status %d, %v", status, err)
		}
		httpUs = append(httpUs, float64(time.Since(t0))/1e3)
	}
	ex := d.srv.Executor()
	directUs := make([]float64, admissionDirect)
	picks := make([]int, admissionDirect)
	for i := range picks {
		picks[i] = rng.Intn(len(keys))
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i, k := range picks {
		t0 := time.Now()
		v, err := ex.Submit(keys[k].spec)
		directUs[i] = float64(time.Since(t0)) / 1e3
		if err != nil || !v.CacheHit {
			return fmt.Errorf("admission probe: direct submit missed the cache (%v)", err)
		}
	}
	runtime.ReadMemStats(&m1)
	hit, direct := median(httpUs), median(directUs)
	b.layers["server.http_overhead_us"] = metric{hit - direct, "us"}
	b.layers["admission.hit_us_p50"] = metric{direct, "us"}
	b.layers["admission.hit_allocs"] = metric{float64(m1.Mallocs-m0.Mallocs) / admissionDirect, "allocs/op"}
	return nil
}

// directLayers replays probe specs straight into each layer's public
// functions. Sim probes are the first simProbesPerKind specs of every
// (policy, workload) pair in this seed's sim-miss plan, twin probes the
// first cohort of every workload in its tte-miss plan, so on the
// workload that uses a layer the probes are specs it served. Workloads
// without primed keys get a primed probe daemon for the admission layer.
func (b *bench) directLayers(ctx context.Context) error {
	if !b.plan.def.primes {
		d, err := startDaemon()
		if err != nil {
			return err
		}
		c := newClient(d.base, 2)
		keys, err := prime(ctx, c, hitSpecs(b.plan.seed))
		c.close()
		if err == nil {
			err = b.admissionLayers(ctx, d, keys)
		}
		if serr := d.stop(); err == nil {
			err = serr
		}
		if err != nil {
			return err
		}
	}
	simDef, _ := workloadByName("sim-miss")
	tteDef, _ := workloadByName("tte-miss")
	reg := server.DefaultRegistry()
	var resolveUs []float64
	if err := b.simLayers(ctx, reg, probeSpecs(makePlan(simDef, b.plan.seed, float64(b.seconds)).specs, simProbesPerKind), &resolveUs); err != nil {
		return err
	}
	if err := b.twinLayers(ctx, reg, probeSpecs(makePlan(tteDef, b.plan.seed, float64(b.seconds)).specs, 1), &resolveUs); err != nil {
		return err
	}
	b.layers["registry.resolve_us_p50"] = metric{median(resolveUs), "us"}
	return nil
}

// probeSpecs keeps the first perKind specs of every (policy, workload)
// pair, in op order.
func probeSpecs(specs []server.JobSpec, perKind int) []server.JobSpec {
	seen := map[string]int{}
	var out []server.JobSpec
	for _, s := range specs {
		k := s.Policy + "/" + s.Workload
		if seen[k] < perKind {
			seen[k]++
			out = append(out, s)
		}
	}
	return out
}

// simVariant is one direct sim run of a probe.
type simVariant int

const (
	simPlain    simVariant = iota // bare config
	simChecked                    // invariant checker mounted
	simRecorded                   // span recorder set: Result.Timing populated
	simWrapped                    // policy and workload generator wrapped with timers
	numSimVariants
)

// simVariantSpans names each variant's run span; the wrapped run is
// plain "sim.run" because its children break it down.
var simVariantSpans = [numSimVariants]string{"sim.run.bare", "sim.run.checked", "sim.run.recorded", "sim.run"}

// simLayers runs every sim probe in each variant and derives the sim,
// step-phase, policy, scheduler, similarity and MDP figures.
func (b *bench) simLayers(ctx context.Context, reg *server.Registry, probes []server.JobSpec, resolveUs *[]float64) error {
	var (
		runNs      [numSimVariants]float64
		plainMs    []float64
		steps      float64
		mallocs    float64
		phase      sim.Timing
		decideCap  []float64
		decide     = map[string][2]float64{} // policy -> {ns, calls}
		observeCap [2]float64
		next       [2]float64
		stats      core.Stats
		capJobs    int
		refreshS   float64
		simMs      []float64
		viMs       []float64
		solves     float64
		skips      float64
	)
	inv := invariant.DefaultConfig()
	for pi, spec := range probes {
		op := b.tr.newOp()
		rootStart := time.Now()
		root := b.tr.add(op, 0, "op.replay", rootStart, rootStart, 0)
		var plainOut, wrappedOut []byte
		for v := simVariant(0); v < numSimVariants; v++ {
			t0 := time.Now()
			cfg, err := reg.Resolve(spec)
			t1 := time.Now()
			if err != nil {
				return fmt.Errorf("resolve probe %d: %w", pi, err)
			}
			*resolveUs = append(*resolveUs, float64(t1.Sub(t0))/1e3)
			sch, _ := cfg.Policy.(*core.Scheduler)
			var (
				tp *timedPolicy
				tg *timedGen
			)
			switch v {
			case simChecked:
				cfg.Invariants = &inv
			case simRecorded:
				cfg.Recorder = obs.NewRecorder(0)
			case simWrapped:
				tp = &timedPolicy{Policy: cfg.Policy}
				cfg.Policy = tp
				inner := cfg.Workload
				cfg.Workload = func() workload.Generator {
					tg = &timedGen{Generator: inner()}
					return tg
				}
			}
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			s0 := time.Now()
			res, err := sim.RunContext(ctx, cfg)
			s1 := time.Now()
			runtime.ReadMemStats(&m1)
			if err != nil {
				return fmt.Errorf("run probe %d: %w", pi, err)
			}
			runNs[v] += float64(s1.Sub(s0))
			b.tr.add(op, root, "resolve", t0, t1, 0)
			runSpan := b.tr.add(op, root, simVariantSpans[v], s0, s1, 0)
			switch v {
			case simPlain:
				plainMs = append(plainMs, ms(s1.Sub(s0)))
				steps += float64(res.Steps)
				mallocs += float64(m1.Mallocs - m0.Mallocs)
				if plainOut, err = canonicalOutcome(&server.Outcome{Run: res}); err != nil {
					return err
				}
				if sch != nil {
					capJobs++
					st := sch.Stats()
					stats.Refreshes += st.Refreshes
					stats.SimilarityRuns += st.SimilarityRuns
					stats.Decisions += st.Decisions
					stats.Explorations += st.Explorations
					stats.Fallbacks += st.Fallbacks
					refreshS += st.TotalRefreshSec / cfg.Profile.DecisionOverheadScale
					if err := b.indexLayers(ctx, sch, &simMs, &viMs, &solves, &skips); err != nil {
						return err
					}
				}
			case simRecorded:
				t := res.Timing
				phase.WorkloadS += t.WorkloadS
				phase.PolicyS += t.PolicyS
				phase.BatteryS += t.BatteryS
				phase.ThermalS += t.ThermalS
				phase.TECS += t.TECS
			case simWrapped:
				if wrappedOut, err = canonicalOutcome(&server.Outcome{Run: res}); err != nil {
					return err
				}
				d := decide[spec.Policy]
				decide[spec.Policy] = [2]float64{d[0] + float64(tp.decide), d[1] + float64(tp.nDecide)}
				if sch != nil {
					decideCap = append(decideCap, tp.decideNs...)
					observeCap[0] += float64(tp.observe)
					observeCap[1] += float64(tp.nObserve)
				}
				next[0] += float64(tg.next)
				next[1] += float64(tg.calls)
				b.tr.aggregate(op, runSpan, s0, []layerTotal{
					{"policy.decide", tp.decide, tp.nDecide},
					{"policy.observe", tp.observe, tp.nObserve},
					{"workload.next", tg.next, tg.calls},
				})
			}
		}
		b.tr.setEnd(root, time.Now())
		if !bytes.Equal(plainOut, wrappedOut) {
			b.gate.failf("sim probe %d: timing wrappers changed the outcome", pi)
		}
	}
	L := b.layers
	plain := runNs[simPlain]
	L["sim.run_ms_p50"] = metric{median(plainMs), "ms"}
	L["sim.ns_per_step"] = metric{plain / steps, "ns"}
	L["sim.allocs_per_step"] = metric{mallocs / steps, "allocs"}
	L["sim.invariant_overhead_ratio"] = metric{runNs[simChecked] / plain, "ratio"}
	L["sim.recorder_overhead_ratio"] = metric{runNs[simRecorded] / plain, "ratio"}
	L["sim.phase.workload_ns"] = metric{phase.WorkloadS * 1e9 / steps, "ns"}
	L["sim.phase.policy_ns"] = metric{phase.PolicyS * 1e9 / steps, "ns"}
	L["sim.phase.battery_ns"] = metric{phase.BatteryS * 1e9 / steps, "ns"}
	L["sim.phase.thermal_ns"] = metric{phase.ThermalS * 1e9 / steps, "ns"}
	L["sim.phase.tec_ns"] = metric{phase.TECS * 1e9 / steps, "ns"}
	L["policy.decide_ns_mean.capman"] = metric{ratio(decide["capman"][0], decide["capman"][1]), "ns"}
	L["policy.decide_ns_p99.capman"] = metric{percentile(sortedCopy(decideCap), 0.99), "ns"}
	L["policy.decide_ns_mean.dual"] = metric{ratio(decide["dual"][0], decide["dual"][1]), "ns"}
	L["policy.observe_ns_mean.capman"] = metric{ratio(observeCap[0], observeCap[1]), "ns"}
	L["workload.next_ns_mean"] = metric{ratio(next[0], next[1]), "ns"}
	L["core.refresh_ms_mean"] = metric{ratio(refreshS*1e3, float64(stats.Refreshes)), "ms"}
	L["core.refreshes_per_job"] = metric{ratio(float64(stats.Refreshes), float64(capJobs)), "count"}
	L["core.similarity_runs_per_job"] = metric{ratio(float64(stats.SimilarityRuns), float64(capJobs)), "count"}
	L["core.explore_share"] = metric{ratio(float64(stats.Explorations), float64(stats.Decisions)), "ratio"}
	L["core.fallback_share"] = metric{ratio(float64(stats.Fallbacks), float64(stats.Decisions)), "ratio"}
	L["simstruct.compute_ms"] = metric{median(simMs), "ms"}
	L["simstruct.emd_skip_ratio"] = metric{ratio(skips, solves+skips), "ratio"}
	L["mdp.value_iteration_ms"] = metric{median(viMs), "ms"}
	b.printf("sim probes: %d specs x %d variants, %.0f steps each variant, %d capman\n",
		len(probes), numSimVariants, steps, capJobs)
	return nil
}

// indexLayers rebuilds the scheduler's last similarity index and value
// function directly from its final model: the input refreshSimilarity
// and refresh use.
func (b *bench) indexLayers(ctx context.Context, sch *core.Scheduler, simMs, viMs *[]float64, solves, skips *float64) error {
	model := sch.Model()
	if model == nil {
		return nil
	}
	g, err := mdp.BuildGraph(model, true, mdp.StateBatteryOf)
	if err != nil {
		return fmt.Errorf("build graph: %w", err)
	}
	cfg := simstruct.DefaultConfig(sch.Rho())
	cfg.Workers = core.DefaultConfig().SimWorkers
	t0 := time.Now()
	res, err := simstruct.ComputeContext(ctx, g, cfg)
	*simMs = append(*simMs, ms(time.Since(t0)))
	if err != nil && err != simstruct.ErrNoConverge {
		return fmt.Errorf("similarity: %w", err)
	}
	if res != nil {
		*solves += float64(res.EMDSolves)
		*skips += float64(res.EMDSkips)
	}
	t0 = time.Now()
	if _, err := model.ValueIteration(sch.Rho(), 1e-6, 10000); err != nil {
		return fmt.Errorf("value iteration: %w", err)
	}
	*viMs = append(*viMs, ms(time.Since(t0)))
	return nil
}

// twinLayers builds, runs and summarizes every twin probe, once across
// all cores and once on one, and requires both runs to agree.
func (b *bench) twinLayers(ctx context.Context, reg *server.Registry, probes []server.JobSpec, resolveUs *[]float64) error {
	inv := invariant.DefaultConfig()
	var newMs, runMs, sumUs, speedup []float64
	var runNs, twinSteps float64
	for pi, spec := range probes {
		op := b.tr.newOp()
		r0 := time.Now()
		cfg, err := reg.ResolveTTE(spec)
		r1 := time.Now()
		if err != nil {
			return fmt.Errorf("resolve twin probe %d: %w", pi, err)
		}
		*resolveUs = append(*resolveUs, float64(r1.Sub(r0))/1e3)
		cfg.Invariants = &inv
		bt, err := twin.New(cfg)
		n1 := time.Now()
		if err != nil {
			return fmt.Errorf("twin probe %d: %w", pi, err)
		}
		if err := bt.Run(ctx, 0); err != nil {
			return fmt.Errorf("twin probe %d: %w", pi, err)
		}
		x1 := time.Now()
		parallel := bt.Summarize()
		s1 := time.Now()
		bt.Reset()
		if err := bt.Run(ctx, 1); err != nil {
			return fmt.Errorf("twin probe %d serial: %w", pi, err)
		}
		x2 := time.Now()
		a, err1 := outcomeHash(&server.Outcome{TTE: parallel})
		c, err2 := outcomeHash(&server.Outcome{TTE: bt.Summarize()})
		if err1 != nil || err2 != nil || a != c {
			b.gate.failf("twin probe %d: serial and parallel runs disagree", pi)
		}
		newMs = append(newMs, ms(n1.Sub(r1)))
		runMs = append(runMs, ms(x1.Sub(n1)))
		sumUs = append(sumUs, float64(s1.Sub(x1))/1e3)
		speedup = append(speedup, float64(x2.Sub(s1))/float64(x1.Sub(n1)))
		runNs += float64(x1.Sub(n1))
		twinSteps += float64(bt.Twins()) * float64(bt.Steps())

		root := b.tr.add(op, 0, "op.replay", r0, x2, 0)
		b.tr.add(op, root, "resolve", r0, r1, 0)
		b.tr.add(op, root, "twin.new", r1, n1, 0)
		b.tr.add(op, root, "twin.run", n1, x1, 0)
		b.tr.add(op, root, "twin.summarize", x1, s1, 0)
		b.tr.add(op, root, "twin.run.serial", s1, x2, 0)
	}
	L := b.layers
	L["twin.new_ms"] = metric{median(newMs), "ms"}
	L["twin.run_ms"] = metric{median(runMs), "ms"}
	L["twin.ns_per_twin_step"] = metric{runNs / twinSteps, "ns"}
	L["twin.parallel_speedup"] = metric{median(speedup), "ratio"}
	L["twin.summarize_us"] = metric{median(sumUs), "us"}
	b.printf("twin probes: %d cohorts\n", len(probes))
	return nil
}
