// Command perfbench is the repository's benchmark. It drives an
// in-process capmand over HTTP loopback with one of three seeded traffic
// mixes, sent by a client process (this binary re-executed with
// --client-of), checks every outcome it can against a direct replay, and prints
// the end-to-end metrics (--trace 0) or the per-layer breakdown
// (--trace 1), ending with one JSON line:
//
//	bash perfbench/run.sh --workload sim-miss --seed 1 --seconds 20 --trace 0
//
// record.json documents the workloads, the layer → end-to-end mapping
// and the known findings.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	wl := fs.String("workload", "", "hit-heavy | sim-miss | tte-miss")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 20, "measured window; sets the op count of the miss workloads")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced per-layer pass")
	spans := fs.String("spans", "", "span file for --trace 1 (default .bench_build/perfbench/spans-<workload>.json)")
	clientOf := fs.String("client-of", "", "internal: run as the client process against this daemon URL")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	def, err := workloadByName(*wl)
	if err != nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: bad arguments (%v)\n", err)
		return 2
	}
	if *clientOf != "" {
		p := makePlan(def, *seed, float64(*seconds))
		if err := runClient(context.Background(), *clientOf, p, *seconds, *trace == 1, os.Stdin, stdout); err != nil {
			fmt.Fprintln(stderr, "perfbench client:", err)
			return 1
		}
		return 0
	}
	if *spans == "" {
		*spans = filepath.Join(".bench_build", "perfbench", "spans-"+def.name+".json")
	}
	b := &bench{
		plan:    makePlan(def, *seed, float64(*seconds)),
		seconds: *seconds,
		out:     stdout,
		errOut:  stderr,
	}
	if *trace == 1 {
		b.tr = newTracer()
	}
	res, err := b.run(context.Background(), *spans)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// bench is one run of one workload.
type bench struct {
	plan    plan
	seconds int
	tr      *tracer // nil unless --trace 1
	out     io.Writer
	errOut  io.Writer
	gate    gate
	digest  digest

	e2e    map[string]metric
	layers map[string]metric
}

func (b *bench) printf(format string, args ...any) { fmt.Fprintf(b.out, format, args...) }

// setupReps is how many times a run sets the daemon up; setup_s is the
// median. A bare daemon comes up in under a millisecond, so the miss
// workloads repeat more to steady the median; priming takes about half a
// second, so hit-heavy repeats fewer times.
func setupReps(def workloadDef) int {
	if def.primes {
		return 5
	}
	return 15
}

// maxLagMs is the generator lateness (p99) past which a run is invalid:
// the open loop did not offer the load it claims. It is a fifth of
// sim-miss's latency limit; the client process runs 3-12 ms late at p99
// on a 2-vCPU host with both CPUs running jobs.
const maxLagMs = 50

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapInuse forces a collection and returns HeapInuse in bytes.
func heapInuse() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapInuse)
}

func (b *bench) run(ctx context.Context, spansPath string) (*result, error) {
	p := b.plan
	def := p.def
	b.e2e, b.layers = map[string]metric{}, map[string]metric{}
	b.printf("workload %s  seed %d  loop %s  clients %d  rate %g/s  limit %g ms  ops %d\n",
		def.name, p.seed, def.loop, def.clients, def.rate, def.limitMs, len(p.specs))

	_, hashes, err := encodeSpecs(p.specs)
	if err != nil {
		return nil, err
	}

	// Set-up: daemon construction, listener, and priming, several times;
	// the last daemon serves the run.
	var (
		d         *daemon
		keys      []primedKey
		setups    []float64
		heapStart float64
	)
	for k := 0; k < setupReps(def); k++ {
		if d != nil {
			if err := d.stop(); err != nil {
				return nil, fmt.Errorf("stop set-up daemon: %w", err)
			}
		}
		heapStart = heapInuse()
		t0 := time.Now()
		if d, err = startDaemon(); err != nil {
			return nil, err
		}
		if def.primes {
			pc := newClient(d.base, def.clients)
			keys, err = prime(ctx, pc, p.specs)
			pc.close()
			if err != nil {
				_ = d.stop()
				return nil, err
			}
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	s, cpu, err := b.driveClient(ctx, d.base, keys)
	if err != nil {
		_ = d.stop()
		return nil, err
	}
	if b.tr != nil {
		if def.primes {
			traceHits(s, b.tr)
		} else {
			traceJobs(s, b.tr)
		}
	}

	// Correctness of what was served, then the end-to-end figures.
	jobsRun := len(keys)
	if def.primes {
		for i := range keys {
			b.digest.add(keys[i].hash, keys[i].OutHash)
		}
	} else {
		jobsRun += b.checkJobs(s, hashes)
	}
	b.endToEnd(s, cpu, median(setups))
	lagP99 := percentile(sortedCopy(s.LagMs), 0.99)
	b.printf("generator lag p99 %.3f ms over %d ops (open-loop limit %d ms)\n", lagP99, len(s.LagMs), maxLagMs)
	b.layers["bench.generator_lag_ms_p99"] = metric{lagP99, "ms"}
	b.servedLayers(s, keys)

	// Memory: the heap the daemon holds after the run, the benchmark's
	// own records released first.
	s.LatMs, s.LatTrMs, s.LagMs = nil, nil, nil
	heapEnd := heapInuse()
	b.e2e["heap_mb"] = metric{heapEnd / (1 << 20), "MB"}
	b.layers["executor.heap_kb_per_job"] = metric{(heapEnd - heapStart) / 1024 / float64(max(jobsRun, 1)), "kB"}

	if b.tr != nil && def.primes {
		if err := b.admissionLayers(ctx, d, keys); err != nil {
			_ = d.stop()
			return nil, err
		}
	}
	if err := d.stop(); err != nil {
		return nil, fmt.Errorf("stop daemon: %w", err)
	}

	if err := b.replayGate(ctx, s, keys); err != nil {
		return nil, err
	}
	if b.tr != nil {
		if err := b.directLayers(ctx); err != nil {
			return nil, err
		}
	}

	b.printE2E()
	b.printf("digest %s %s (%d outcomes)\n", def.name, b.digest.sum(), len(b.digest.pairs))
	res := &result{
		Correct:   b.gate.n == 0,
		Attempted: s.Tally.attempted(),
		Failed:    s.Tally.failed(),
	}
	for _, msg := range b.gate.first {
		b.printf("GATE FAIL %s\n", msg)
	}
	if lagP99 > maxLagMs && def.loop == "open" {
		return nil, fmt.Errorf("run invalid: generator lag p99 %.2f ms exceeds %d ms", lagP99, maxLagMs)
	}
	if b.tr != nil {
		sum, err := b.tr.write(spansPath, def.name, p.seed)
		if err != nil {
			return nil, err
		}
		b.printSpans(sum, spansPath)
		res.Metrics = b.layers
		b.printLayers()
	} else {
		res.Metrics = b.e2e
	}
	return res, nil
}

// endToEnd derives the user-visible metrics from a served pass.
func (b *bench) endToEnd(s *served, cpu time.Duration, setupS float64) {
	def := b.plan.def
	lat := sortedCopy(append(append([]float64(nil), s.LatMs...), s.LatTrMs...))
	n := len(lat)
	att, done := s.Tally.attempted(), s.Tally.completed()
	within := 0
	for _, l := range lat {
		if l <= def.limitMs {
			within++
		}
	}
	tailQ := tailQuantile(n)
	b.e2e["setup_s"] = metric{setupS, "s"}
	b.e2e["throughput_ops_per_s"] = metric{ratio(float64(done), s.End.Sub(s.Start).Seconds()), "ops/s"}
	b.e2e["latency_p50_ms"] = metric{percentile(lat, 0.5), "ms"}
	b.e2e["latency_tail_ms"] = metric{percentile(lat, tailQ), "ms"}
	b.e2e["slo_attainment"] = metric{ratio(float64(within), float64(att)), "ratio"}
	b.e2e["cpu_ms_per_op"] = metric{ratio(ms(cpu), float64(done)), "ms"}

	b.printf("ops attempted %d  completed %d  [%s]\n", att, done, &s.Tally)
	b.printf("fail_share %.6f ratio\n", ratio(float64(s.Tally.failed()), float64(att)))
	b.printf("latency over %d completed ops: p50 %.4f ms", n, percentile(lat, 0.5))
	for _, q := range []float64{0.90, 0.99} {
		if supports(q, n) {
			b.printf("  p%g %.4f ms", q*100, percentile(lat, q))
		} else {
			b.printf("  p%g n/a (fewer than %d samples beyond)", q*100, minBeyond)
		}
	}
	b.printf("  tail = p%g\n", tailQ*100)
}

// printE2E lists the end-to-end metrics in a stable order.
func (b *bench) printE2E() {
	names := make([]string, 0, len(b.e2e))
	for k := range b.e2e {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		b.printf("%-24s %14.6g %s\n", k, b.e2e[k].Value, b.e2e[k].Unit)
	}
}
