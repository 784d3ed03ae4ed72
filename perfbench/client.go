package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"time"
)

// The served pass runs in a client process: this binary re-executed with
// --client-of. Sharing the daemon's Go runtime, the client's goroutines
// waited behind CPU-bound workers for a free P, so on a 2-vCPU host the
// open-loop generator ran 12-20 ms late at p99; in its own process it
// runs 3-12 ms late. The daemon stays in the benchmark's process, so
// heap_mb and the direct calls see exactly the daemon that served the run.

// driveClient runs the served pass in a client process against base and
// returns what the client measured, with the CPU time both processes
// spent on it. keys carries the primed outcome hashes the client checks
// hits against (hit-heavy only).
func (b *bench) driveClient(ctx context.Context, base string, keys []primedKey) (*served, time.Duration, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, 0, err
	}
	outHashes := make([]string, len(keys))
	for i := range keys {
		outHashes[i] = keys[i].OutHash
	}
	in, err := json.Marshal(outHashes)
	if err != nil {
		return nil, 0, err
	}
	trace := "0"
	if b.tr != nil {
		trace = "1"
	}
	cmd := exec.CommandContext(ctx, exe, "--client-of", base,
		"--workload", b.plan.def.name, "--seed", strconv.FormatInt(b.plan.seed, 10),
		"--seconds", strconv.Itoa(b.seconds), "--trace", trace)
	var out bytes.Buffer
	cmd.Stdin = bytes.NewReader(in)
	cmd.Stdout = &out
	cmd.Stderr = b.errOut
	cpu0 := cpuTime()
	err = cmd.Run()
	daemonCPU := cpuTime() - cpu0
	if err != nil {
		return nil, 0, fmt.Errorf("client process: %w", err)
	}
	var s served
	if err := json.Unmarshal(out.Bytes(), &s); err != nil {
		return nil, 0, fmt.Errorf("client report: %w", err)
	}
	b.gate.merge(s.GateN, s.GateFirst)
	return &s, daemonCPU + time.Duration(s.CPUNs), nil
}

// runClient is the client process: it regenerates the plan from the
// seed, drives the daemon at base, and writes its served report to out.
func runClient(ctx context.Context, base string, p plan, seconds int, trace bool, in io.Reader, out io.Writer) error {
	def := p.def
	c := newClient(base, def.clients)
	defer c.close()
	var (
		s   *served
		g   gate
		err error
	)
	cpu0 := cpuTime()
	if def.primes {
		var keys []primedKey
		if keys, err = newKeys(p.specs); err != nil {
			return err
		}
		var outHashes []string
		if err := json.NewDecoder(in).Decode(&outHashes); err != nil {
			return fmt.Errorf("read primed outcome hashes: %w", err)
		}
		if len(outHashes) != len(keys) {
			return fmt.Errorf("got %d primed outcome hashes for %d keys", len(outHashes), len(keys))
		}
		for i := range keys {
			keys[i].OutHash = outHashes[i]
		}
		s = driveHits(ctx, c, def, keys, p.seed, time.Duration(seconds)*time.Second, trace, &g)
	} else {
		bodies, _, err := encodeSpecs(p.specs)
		if err != nil {
			return err
		}
		if s, err = driveJobs(ctx, c, p, bodies); err != nil {
			return err
		}
	}
	s.CPUNs = int64(cpuTime() - cpu0)
	s.GateN, s.GateFirst = g.n, g.first
	return json.NewEncoder(out).Encode(s)
}
