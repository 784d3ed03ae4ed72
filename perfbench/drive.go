package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/server"
)

// Polling and sampling knobs.
const (
	primePoll     = 5 * time.Millisecond
	jobPoll       = 10 * time.Millisecond
	pollTimeout   = 60 * time.Second
	hitCheckEvery = 512 // every Nth hit per client is decoded and its outcome compared in full
	hitTraceEvery = 16  // trace mode: every Nth hit per client is traced, keeping the span file small
)

var cacheHitTag = []byte(`"cacheHit":true`)

// gate collects correctness failures; any failure fails the run.
type gate struct {
	mu    sync.Mutex
	n     int
	first []string
}

func (g *gate) failf(format string, args ...any) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.n++
	if len(g.first) < 8 {
		g.first = append(g.first, fmt.Sprintf(format, args...))
	}
}

// merge folds in failures counted elsewhere (the client process).
func (g *gate) merge(n int, first []string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.n += n
	for _, msg := range first {
		if len(g.first) < 8 {
			g.first = append(g.first, msg)
		}
	}
}

// served is what one served pass measured. The client process reports
// it to the daemon process as JSON, hence the exported fields.
type served struct {
	Tally   tally     `json:"tally"`
	LatMs   []float64 `json:"latMs"`   // completed ops sent untraced
	LatTrMs []float64 `json:"latTrMs"` // completed ops sent traced (trace mode samples a share of ops)
	LagMs   []float64 `json:"lagMs"`   // generator lateness per op
	Start   time.Time `json:"start"`
	End     time.Time `json:"end"` // the last completion
	// Miss workloads: every op in op order, with its due time.
	Jobs []jobRun    `json:"jobs,omitempty"`
	Due  []time.Time `json:"due,omitempty"`
	// HitTraces: trace mode, the send and response times of the
	// sampled hits.
	HitTraces [][2]time.Time `json:"hitTraces,omitempty"`
	// CPUNs is the client process's CPU time over the pass.
	CPUNs int64 `json:"cpuNs"`
	// GateN and GateFirst carry the client's correctness failures.
	GateN     int      `json:"gateN"`
	GateFirst []string `json:"gateFirst,omitempty"`
}

func (s *served) merge(o *served) {
	s.Tally.add(o.Tally)
	s.LatMs = append(s.LatMs, o.LatMs...)
	s.LatTrMs = append(s.LatTrMs, o.LatTrMs...)
	s.LagMs = append(s.LagMs, o.LagMs...)
	s.HitTraces = append(s.HitTraces, o.HitTraces...)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// primedKey is one hit-heavy key after priming.
type primedKey struct {
	spec    server.JobSpec
	body    []byte
	hash    string // JobSpec.Hash()
	hashTag []byte // `"hash":"<hash>"`, looked for in every hit body
	OutHash string // canonical outcome hash of the priming job
	run     jobRun // the priming job, followed to done
}

// encodeSpecs marshals each spec once, outside any timed window, and
// computes its content address.
func encodeSpecs(specs []server.JobSpec) (bodies [][]byte, hashes []string, err error) {
	bodies = make([][]byte, len(specs))
	hashes = make([]string, len(specs))
	for i := range specs {
		if bodies[i], err = json.Marshal(&specs[i]); err != nil {
			return nil, nil, err
		}
		if hashes[i], err = specs[i].Hash(); err != nil {
			return nil, nil, err
		}
	}
	return bodies, hashes, nil
}

// newKeys encodes the hit-heavy key space; OutHash is filled by priming.
func newKeys(specs []server.JobSpec) ([]primedKey, error) {
	bodies, hashes, err := encodeSpecs(specs)
	if err != nil {
		return nil, err
	}
	keys := make([]primedKey, len(specs))
	for i := range specs {
		keys[i] = primedKey{
			spec: specs[i], body: bodies[i], hash: hashes[i],
			hashTag: []byte(`"hash":"` + hashes[i] + `"`),
		}
	}
	return keys, nil
}

// prime submits every key at once and follows each job to done, so the
// measured window starts against a fully populated cache.
func prime(ctx context.Context, c *client, specs []server.JobSpec) ([]primedKey, error) {
	keys, err := newKeys(specs)
	if err != nil {
		return nil, err
	}
	errs := make([]error, len(specs))
	var wg sync.WaitGroup
	for i := range specs {
		wg.Add(1)
		go func(k *primedKey, err *error) {
			defer wg.Done()
			k.run, *err = c.runJob(ctx, k.body, primePoll, pollTimeout)
		}(&keys[i], &errs[i])
	}
	wg.Wait()
	for i := range keys {
		if errs[i] != nil {
			return nil, fmt.Errorf("prime key %d: %w", i, errs[i])
		}
		if keys[i].run.Class != classDone {
			return nil, fmt.Errorf("prime key %d: ended %s", i, keys[i].run.Class)
		}
		keys[i].OutHash = keys[i].run.OutHash
	}
	return keys, nil
}

// driveHits is hit-heavy's closed loop: def.clients clients, each
// re-submitting uniformly drawn primed keys until dur has passed. Every
// hit's body must carry the key's hash and cacheHit; every
// hitCheckEvery-th is decoded and its outcome compared to the primed one.
func driveHits(ctx context.Context, c *client, def workloadDef, keys []primedKey, seed int64,
	dur time.Duration, trace bool, g *gate) *served {
	s := &served{Start: time.Now()}
	deadline := s.Start.Add(dur)
	var (
		mu sync.Mutex
		wg sync.WaitGroup
	)
	for w := 0; w < def.clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rngFor(seed, uint64(100+w))
			var (
				loc served
				buf bytes.Buffer
			)
			prev := time.Now()
			for n := 0; ; n++ {
				t0 := time.Now()
				if t0.After(deadline) {
					break
				}
				loc.LagMs = append(loc.LagMs, ms(t0.Sub(prev)))
				k := &keys[rng.Intn(len(keys))]
				status, err := c.do(ctx, http.MethodPost, jobPath, k.body, &buf)
				t1 := time.Now()
				prev = t1
				cl, _ := classifySubmit(status, err, true)
				loc.Tally[cl]++
				if cl != classHit {
					continue
				}
				checkHit(buf.Bytes(), k, n%hitCheckEvery == 0, g)
				if trace && n%hitTraceEvery == 0 {
					loc.HitTraces = append(loc.HitTraces, [2]time.Time{t0, t1})
					loc.LatTrMs = append(loc.LatTrMs, ms(t1.Sub(t0)))
				} else {
					loc.LatMs = append(loc.LatMs, ms(t1.Sub(t0)))
				}
			}
			mu.Lock()
			s.merge(&loc)
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	s.End = time.Now()
	return s
}

// checkHit verifies one hit body against its key; full decodes the view
// and compares the outcome too.
func checkHit(body []byte, k *primedKey, full bool, g *gate) {
	if !bytes.Contains(body, k.hashTag) || !bytes.Contains(body, cacheHitTag) {
		g.failf("hit for key %s lacks its hash or cacheHit", k.hash[:12])
		return
	}
	if !full {
		return
	}
	var v server.View
	if err := json.Unmarshal(body, &v); err != nil {
		g.failf("decode hit view: %v", err)
		return
	}
	if h, err := outcomeHash(v.Outcome); err != nil || h != k.OutHash {
		g.failf("hit for key %s served a different outcome (%v)", k.hash[:12], err)
	}
}

// driveJobs submits every spec of a miss workload once and follows each
// job to its terminal state. The open loop sends op i when it falls due
// on the Poisson schedule, whatever is still in flight; the closed loop
// sends the next op once the previous one has finished.
func driveJobs(ctx context.Context, c *client, p plan, bodies [][]byte) (*served, error) {
	n := len(p.specs)
	s := &served{Jobs: make([]jobRun, n), Due: make([]time.Time, n)}
	errs := make([]error, n)
	s.Start = time.Now()
	if p.def.loop == "open" {
		var wg sync.WaitGroup
		for i := range p.specs {
			s.Due[i] = s.Start.Add(time.Duration(p.dueS[i] * float64(time.Second)))
			time.Sleep(time.Until(s.Due[i]))
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				s.Jobs[i], errs[i] = c.runJob(ctx, bodies[i], jobPoll, pollTimeout)
			}(i)
		}
		wg.Wait()
	} else {
		for i := range p.specs {
			s.Due[i] = time.Now()
			s.Jobs[i], errs[i] = c.runJob(ctx, bodies[i], jobPoll, pollTimeout)
		}
	}
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("op %d: %w", i, err)
		}
	}
	s.End = s.Start
	prevEnd := s.Start
	for i := range s.Jobs {
		j := &s.Jobs[i]
		s.Tally[j.Class]++
		if p.def.loop == "open" {
			s.LagMs = append(s.LagMs, ms(j.SendAt.Sub(s.Due[i])))
		} else {
			s.LagMs = append(s.LagMs, ms(j.SendAt.Sub(prevEnd)))
		}
		prevEnd = j.lastResponse()
		if j.Class != classDone {
			continue
		}
		fin := *j.View.FinishedAt
		if fin.After(s.End) {
			s.End = fin
		}
		s.LatMs = append(s.LatMs, ms(fin.Sub(s.Due[i])))
	}
	return s, nil
}

// lastResponse is when the client last heard about the job.
func (j *jobRun) lastResponse() time.Time {
	if len(j.Polls) > 0 {
		return j.Polls[len(j.Polls)-1][1]
	}
	return j.PostEnd
}

// traceHits records a root and a post span for each sampled hit.
func traceHits(s *served, tr *tracer) {
	for _, h := range s.HitTraces {
		op := tr.newOp()
		root := tr.add(op, 0, "op.hit", h[0], h[1], 0)
		tr.add(op, root, "post", h[0], h[1], 0)
	}
}

// traceJobs records each job's spans: a root from due time to the last
// response, the POST and every poll, and queue and run intervals rebuilt
// from the view's timestamps. Every other job is traced, so latencies
// split into traced and untraced sets.
func traceJobs(s *served, tr *tracer) {
	var plain, traced []float64
	for i := range s.Jobs {
		j := &s.Jobs[i]
		if j.Class != classDone {
			continue
		}
		lat := ms(j.View.FinishedAt.Sub(s.Due[i]))
		if i%2 != 0 {
			plain = append(plain, lat)
			continue
		}
		traced = append(traced, lat)
		op := tr.newOp()
		root := tr.add(op, 0, "op.job", s.Due[i], j.lastResponse(), 0)
		tr.add(op, root, "post", j.SendAt, j.PostEnd, 0)
		for _, pl := range j.Polls {
			tr.add(op, root, "poll", pl[0], pl[1], 0)
		}
		if j.View.StartedAt != nil {
			tr.add(op, root, "queue", j.View.SubmittedAt, *j.View.StartedAt, 0)
			tr.add(op, root, "run", *j.View.StartedAt, *j.View.FinishedAt, 0)
		}
	}
	s.LatMs, s.LatTrMs = plain, traced
}
