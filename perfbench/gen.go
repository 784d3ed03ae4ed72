package main

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/server"
)

// workloadDef fixes one traffic mix. Its fields are mirrored in
// record.json, which a test keeps in step with this table.
type workloadDef struct {
	name    string
	loop    string  // "closed": a client waits for each op; "open": ops arrive on a schedule
	clients int     // closed loop: concurrent clients; open loop: client connection cap
	rate    float64 // open loop: Poisson arrivals per second
	opsPerS float64 // closed-loop miss workloads: ops per --seconds, so the op count is fixed
	limitMs float64 // per-op latency limit for slo_attainment
	primes  bool    // set-up submits the whole key space and waits for it
}

var workloadDefs = []workloadDef{
	{name: "hit-heavy", loop: "closed", clients: 2, limitMs: 2, primes: true},
	{name: "sim-miss", loop: "open", clients: 2, rate: 30, limitMs: 250},
	{name: "tte-miss", loop: "closed", clients: 1, opsPerS: 2, limitMs: 1000},
}

func workloadByName(name string) (workloadDef, error) {
	for _, w := range workloadDefs {
		if w.name == name {
			return w, nil
		}
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q", name)
}

// Spec-mix constants.
const (
	hitKeys      = 32  // hit-heavy key space, all primed
	hitTTEShare  = 0.2 // share of hit-heavy keys that are tte jobs
	hitTTETwins  = 8
	hitTTEHorizS = 300
	cellMAh      = 300  // sim jobs: big and LITTLE capacity
	simMaxTimeS  = 2000 // sim jobs: 8000 steps at the default 0.25 s
	tteTwins     = 512  // two 256-twin chunks, one per core on a 2-CPU host
	tteHorizonS  = 900
	tteMAh       = 150
	tteLoadNoise = 0.1
	tteAmbNoiseC = 1
)

var (
	missWorkloads = []string{"video", "geekbench", "pcmark"}
	missPolicies  = []string{"capman", "dual"}
)

// plan is everything a run submits, generated from the seed alone.
type plan struct {
	def workloadDef
	// specs: the hit-heavy key space, or one spec per op in op order.
	specs []server.JobSpec
	// dueS: open loop only, each op's arrival offset in seconds from the
	// start of the measured window, ascending.
	dueS []float64
	seed int64
}

// splitmix64 scrambles a seed so nearby seeds give unrelated streams.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// rngFor derives an independent stream for one purpose of one seed.
func rngFor(seed int64, stream uint64) *rand.Rand {
	return rand.New(rand.NewSource(int64(splitmix64(uint64(seed)^splitmix64(stream)) >> 1)))
}

// jobSeed gives op i a simulation seed unique within the run: a 30-bit
// seed-derived base above a 20-bit op index.
func jobSeed(seed int64, i int) int64 {
	return int64(splitmix64(uint64(seed))>>34)<<20 + int64(i)
}

// makePlan generates the run's inputs. The same (workload, seed,
// seconds) always yields the same specs and schedule.
func makePlan(def workloadDef, seed int64, seconds float64) plan {
	p := plan{def: def, seed: seed}
	switch def.name {
	case "hit-heavy":
		p.specs = hitSpecs(seed)
	case "sim-miss":
		n := int(math.Ceil(def.rate * seconds))
		p.specs = simSpecs(seed, n)
		p.dueS = poissonSchedule(rngFor(seed, 2), def.rate, n)
	case "tte-miss":
		p.specs = tteSpecs(seed, int(math.Ceil(def.opsPerS*seconds)))
	}
	return p
}

// hitSpecs is capman-loadgen's default mix: 32 keys, the first 20% Monte
// Carlo tte jobs of 8 twins over 300 s, the rest video/dual discharges.
func hitSpecs(seed int64) []server.JobSpec {
	ttes := int(math.Round(hitTTEShare * hitKeys))
	specs := make([]server.JobSpec, hitKeys)
	for i := range specs {
		if i < ttes {
			specs[i] = server.JobSpec{
				Kind: "tte", Workload: "video", Seed: jobSeed(seed, i),
				TTE: &server.TTEParams{Twins: hitTTETwins, HorizonS: hitTTEHorizS},
			}
			continue
		}
		specs[i] = simSpec("video", "dual", jobSeed(seed, i))
	}
	return specs
}

func simSpec(wl, policy string, seed int64) server.JobSpec {
	return server.JobSpec{
		Workload: wl, Policy: policy, Seed: seed,
		BigMAh: cellMAh, LittleMAh: cellMAh, MaxTimeS: simMaxTimeS,
	}
}

// balanced returns n indices into k categories, each used n/k times
// (±1), in seeded random order: a mix whose proportions do not drift
// with the seed.
func balanced(rng *rand.Rand, n, k int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i % k
	}
	rng.Shuffle(n, func(a, b int) { idx[a], idx[b] = idx[b], idx[a] })
	return idx
}

// simSpecs: n unique discharges, policies 50/50 capman/dual crossed
// with workloads uniform over video/geekbench/pcmark.
func simSpecs(seed int64, n int) []server.JobSpec {
	k := len(missPolicies) * len(missWorkloads)
	specs := make([]server.JobSpec, n)
	for i, c := range balanced(rngFor(seed, 1), n, k) {
		specs[i] = simSpec(missWorkloads[c%len(missWorkloads)], missPolicies[c/len(missWorkloads)], jobSeed(seed, i))
	}
	return specs
}

// tteSpecs: n unique 512-twin cohorts, workloads balanced.
func tteSpecs(seed int64, n int) []server.JobSpec {
	specs := make([]server.JobSpec, n)
	for i, c := range balanced(rngFor(seed, 3), n, len(missWorkloads)) {
		specs[i] = server.JobSpec{
			Kind: "tte", Workload: missWorkloads[c], Seed: jobSeed(seed, i),
			TTE: &server.TTEParams{
				Twins: tteTwins, HorizonS: tteHorizonS, MAh: tteMAh,
				LoadNoiseFrac: tteLoadNoise, AmbientNoiseC: tteAmbNoiseC,
			},
		}
	}
	return specs
}

// poissonSchedule returns n arrival offsets of a Poisson process.
func poissonSchedule(rng *rand.Rand, rate float64, n int) []float64 {
	due := make([]float64, n)
	t := 0.0
	for i := range due {
		t += rng.ExpFloat64() / rate
		due[i] = t
	}
	return due
}
