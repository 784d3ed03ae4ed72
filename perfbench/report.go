package main

import (
	_ "embed"
	"encoding/json"
	"sort"
	"strings"
)

//go:embed record.json
var recordJSON []byte

// record is the part of record.json the program reads.
type record struct {
	Workloads []struct {
		Name           string  `json:"name"`
		Gated          bool    `json:"gated"`
		Loop           string  `json:"loop"`
		Clients        int     `json:"clients"`
		RatePerS       float64 `json:"rate_per_s"`
		LatencyLimitMs float64 `json:"latency_limit_ms"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	Layers []struct {
		Layer   string   `json:"layer"`
		Module  string   `json:"module"`
		Metrics []string `json:"metrics"`
		Moves   []string `json:"moves"`
	} `json:"layers"`
}

func loadRecord() (record, error) {
	var r record
	err := json.Unmarshal(recordJSON, &r)
	return r, err
}

// printLayers lists every per-layer metric under its layer, with the
// end-to-end metrics and workloads it should move.
func (b *bench) printLayers() {
	rec, err := loadRecord()
	if err != nil {
		b.printf("record.json: %v\n", err)
		return
	}
	listed := map[string]bool{}
	for _, l := range rec.Layers {
		b.printf("layer %s (%s) -> moves %s\n", l.Layer, l.Module, strings.Join(l.Moves, "; "))
		for _, name := range l.Metrics {
			listed[name] = true
			if m, ok := b.layers[name]; ok {
				b.printf("  %-34s %14.6g %s\n", name, m.Value, m.Unit)
			} else {
				b.printf("  %-34s missing\n", name)
			}
		}
	}
	var extra []string
	for name := range b.layers {
		if !listed[name] {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	for _, name := range extra {
		b.printf("  %-34s %14.6g %s (not in record.json)\n", name, b.layers[name].Value, b.layers[name].Unit)
	}
}

// printSpans shows where the traced run's time went, by span name.
func (b *bench) printSpans(sum []nameStat, path string) {
	b.printf("spans written to %s\n", path)
	b.printf("  %-18s %9s %9s %12s %12s\n", "span", "count", "calls", "total_ms", "self_ms")
	for _, s := range sum {
		b.printf("  %-18s %9d %9d %12.3f %12.3f\n", s.Name, s.Count, s.Calls, s.TotalMs, s.SelfMs)
	}
}
