package main

import (
	"context"
	"time"

	"repro/internal/battery"
	"repro/internal/mdp"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/workload"
)

// timedPolicy times every Decide and Observe of the policy it wraps. It
// forwards the optional hooks the sim engine and capmand look for, so a
// wrapped run takes the same path as a bare one.
type timedPolicy struct {
	sched.Policy
	decide, observe   time.Duration
	nDecide, nObserve int64
	decideNs          []float64 // every Decide, for the tail
}

func (p *timedPolicy) Decide(ctx sched.Context) sched.Decision {
	t0 := time.Now()
	d := p.Policy.Decide(ctx)
	el := time.Since(t0)
	p.decide += el
	p.nDecide++
	p.decideNs = append(p.decideNs, float64(el))
	return d
}

func (p *timedPolicy) Observe(prev sched.Context, applied battery.Selection, next mdp.StateVec, reward float64) {
	t0 := time.Now()
	p.Policy.Observe(prev, applied, next, reward)
	p.observe += time.Since(t0)
	p.nObserve++
}

func (p *timedPolicy) BindContext(ctx context.Context) {
	if b, ok := p.Policy.(interface{ BindContext(context.Context) }); ok {
		b.BindContext(ctx)
	}
}

func (p *timedPolicy) SetEMDLatency(h *obs.Histogram) {
	if s, ok := p.Policy.(interface{ SetEMDLatency(*obs.Histogram) }); ok {
		s.SetEMDLatency(h)
	}
}

// timedGen times every Next of the generator it wraps.
type timedGen struct {
	workload.Generator
	next  time.Duration
	calls int64
}

func (g *timedGen) Next(now, dt float64) workload.Step {
	t0 := time.Now()
	s := g.Generator.Next(now, dt)
	g.next += time.Since(t0)
	g.calls++
	return s
}
