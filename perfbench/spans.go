package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one interval the benchmark recorded around a call into the
// program, or rebuilt from timestamps the program reported. Times are
// nanoseconds from the tracer's epoch. An aggregated span (Calls > 0)
// folds every call of one wrapped layer within its parent into one
// interval whose length is the summed call time.
type span struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent,omitempty"` // 0 for an op's root span
	Op      int64  `json:"op"`               // shared by all spans of one op
	Name    string `json:"name"`
	StartNs int64  `json:"startNs"`
	EndNs   int64  `json:"endNs"`
	Calls   int64  `json:"calls,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced code paths pay one nil check.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	ops   int64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// newOp returns a fresh op ID (0 on a nil tracer).
func (t *tracer) newOp() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ops++
	return t.ops
}

// add records [start, end) under parent and returns the span's ID.
func (t *tracer) add(op, parent int64, name string, start, end time.Time, calls int64) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Op: op, Name: name,
		StartNs: start.Sub(t.epoch).Nanoseconds(), EndNs: end.Sub(t.epoch).Nanoseconds(),
		Calls: calls,
	})
	return id
}

// setEnd moves span id's end, for a root opened before its children.
func (t *tracer) setEnd(id int64, end time.Time) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].EndNs = end.Sub(t.epoch).Nanoseconds()
}

// aggregate records one span per wrapped layer under parent, laid end to
// end from start so their union is their summed time.
func (t *tracer) aggregate(op, parent int64, start time.Time, layers []layerTotal) {
	at := start
	for _, l := range layers {
		if l.calls == 0 {
			continue
		}
		t.add(op, parent, l.name, at, at.Add(l.total), l.calls)
		at = at.Add(l.total)
	}
}

// layerTotal is one wrapped layer's summed time and call count.
type layerTotal struct {
	name  string
	total time.Duration
	calls int64
}

// selfTimes returns each span's duration minus the part of it its
// children cover, indexed like spans.
func selfTimes(spans []span) []int64 {
	kids := make(map[int64][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.StartNs, s.EndNs})
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.EndNs - s.StartNs - covered(s.StartNs, s.EndNs, kids[s.ID])
	}
	return self
}

// covered is the length of the union of ivs clipped to [lo, hi).
func covered(lo, hi int64, ivs [][2]int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	iv := append([][2]int64(nil), ivs...)
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var sum int64
	cur := lo
	for _, v := range iv {
		s, e := max(v[0], cur), min(v[1], hi)
		if e > s {
			sum += e - s
			cur = e
		}
	}
	return sum
}

// nameStat sums spans of one name.
type nameStat struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	Calls   int64   `json:"calls,omitempty"`
	TotalMs float64 `json:"totalMs"`
	SelfMs  float64 `json:"selfMs"`
}

// summarize groups spans by name, largest self time first.
func summarize(spans []span) []nameStat {
	self := selfTimes(spans)
	by := map[string]*nameStat{}
	for i, s := range spans {
		st := by[s.Name]
		if st == nil {
			st = &nameStat{Name: s.Name}
			by[s.Name] = st
		}
		st.Count++
		st.Calls += s.Calls
		st.TotalMs += float64(s.EndNs-s.StartNs) / 1e6
		st.SelfMs += float64(self[i]) / 1e6
	}
	out := make([]nameStat, 0, len(by))
	for _, st := range by {
		out = append(out, *st)
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].SelfMs != out[b].SelfMs {
			return out[a].SelfMs > out[b].SelfMs
		}
		return out[a].Name < out[b].Name
	})
	return out
}

// write stores the spans and the per-name summary as one JSON document.
func (t *tracer) write(path, workload string, seed int64) ([]nameStat, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	sum := summarize(t.spans)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	w := bufio.NewWriter(f)
	err = writeSpanDoc(w, workload, seed, sum, t.spans)
	if ferr := w.Flush(); err == nil {
		err = ferr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("write spans %s: %w", path, err)
	}
	return sum, nil
}

func writeSpanDoc(w io.Writer, workload string, seed int64, sum []nameStat, spans []span) error {
	return json.NewEncoder(w).Encode(struct {
		Workload string     `json:"workload"`
		Seed     int64      `json:"seed"`
		Summary  []nameStat `json:"summary"`
		Spans    []span     `json:"spans"`
	}{workload, seed, sum, spans})
}
