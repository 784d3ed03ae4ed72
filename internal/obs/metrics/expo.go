package metrics

import (
	"bufio"
	"io"
	"sort"
	"strconv"
	"strings"
)

// ContentType is the Content-Type of WritePrometheus output.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// WritePrometheus renders every registered family in the Prometheus text
// exposition format: families sorted by name, one # HELP and # TYPE pair
// per family, histogram series expanded into cumulative le-labeled
// buckets (ending in +Inf) plus _sum and _count. Safe on a nil registry
// (writes nothing). Function-backed families are sampled here, outside
// the registry lock.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	bw := bufio.NewWriter(w)
	exemplars := r.exemplars.Load()
	for _, f := range r.families() {
		writeHeader(bw, f)
		if f.collect != nil {
			f.collect(func(labelValues []string, v float64) {
				writeSample(bw, f.name, "", f.labels, labelValues, v)
			})
			continue
		}
		for _, s := range f.snapshotSeries() {
			writeSeries(bw, f, s, exemplars)
		}
	}
	return bw.Flush()
}

func writeHeader(w *bufio.Writer, f *family) {
	w.WriteString("# HELP ")
	w.WriteString(f.name)
	w.WriteByte(' ')
	w.WriteString(escapeHelp(f.help))
	w.WriteByte('\n')
	w.WriteString("# TYPE ")
	w.WriteString(f.name)
	w.WriteByte(' ')
	w.WriteString(f.kind)
	w.WriteByte('\n')
}

func writeSeries(w *bufio.Writer, f *family, s *series, exemplars bool) {
	switch inst := s.inst.(type) {
	case *Counter:
		writeSample(w, f.name, "", f.labels, s.labelValues, float64(inst.Value()))
	case *CounterFloat:
		writeSample(w, f.name, "", f.labels, s.labelValues, inst.Value())
	case *Gauge:
		writeSample(w, f.name, "", f.labels, s.labelValues, float64(inst.Value()))
	case *GaugeFloat:
		writeSample(w, f.name, "", f.labels, s.labelValues, inst.Value())
	case *Histogram:
		snap := inst.Snapshot()
		cum := snap.Cumulative()
		for i, b := range snap.Bounds {
			writeBucket(w, f.name, f.labels, s.labelValues, formatValue(b), cum[i])
			if exemplars {
				writeExemplar(w, inst, i)
			}
			w.WriteByte('\n')
		}
		writeBucket(w, f.name, f.labels, s.labelValues, "+Inf", snap.Count)
		if exemplars {
			writeExemplar(w, inst, len(snap.Bounds))
		}
		w.WriteByte('\n')
		writeSample(w, f.name, "_sum", f.labels, s.labelValues, snap.Sum)
		writeSample(w, f.name, "_count", f.labels, s.labelValues, float64(snap.Count))
	}
}

// writeExemplar appends an OpenMetrics exemplar suffix to the current
// bucket line when one was recorded for bucket idx:
//
//	# {trace_id="4bf9...4736"} 0.0042 1712345678.901
//
// (the leading space separates it from the bucket count; the caller owns
// the trailing newline).
func writeExemplar(w *bufio.Writer, h *Histogram, idx int) {
	ex, ok := h.exemplarFor(idx)
	if !ok {
		return
	}
	w.WriteString(` # {trace_id="`)
	w.WriteString(escapeLabel(ex.traceID))
	w.WriteString(`"} `)
	w.WriteString(formatValue(ex.value))
	w.WriteByte(' ')
	w.WriteString(strconv.FormatFloat(ex.ts, 'f', 3, 64))
}

// writeSample emits `name[suffix]{labels...} value`.
func writeSample(w *bufio.Writer, name, suffix string, labels, values []string, v float64) {
	w.WriteString(name)
	w.WriteString(suffix)
	writeLabels(w, labels, values, "", "")
	w.WriteByte(' ')
	w.WriteString(formatValue(v))
	w.WriteByte('\n')
}

// writeBucket emits one cumulative histogram bucket with its le label.
// The caller writes the line's newline (after an optional exemplar).
func writeBucket(w *bufio.Writer, name string, labels, values []string, le string, count uint64) {
	w.WriteString(name)
	w.WriteString("_bucket")
	writeLabels(w, labels, values, "le", le)
	w.WriteByte(' ')
	w.WriteString(strconv.FormatUint(count, 10))
}

// writeLabels renders {k="v",...}, appending an extra pair when
// extraKey != "". Nothing is written for an unlabeled sample.
func writeLabels(w *bufio.Writer, labels, values []string, extraKey, extraVal string) {
	if len(labels) == 0 && extraKey == "" {
		return
	}
	w.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			w.WriteByte(',')
		}
		w.WriteString(l)
		w.WriteString(`="`)
		w.WriteString(escapeLabel(values[i]))
		w.WriteByte('"')
	}
	if extraKey != "" {
		if len(labels) > 0 {
			w.WriteByte(',')
		}
		w.WriteString(extraKey)
		w.WriteString(`="`)
		w.WriteString(escapeLabel(extraVal))
		w.WriteByte('"')
	}
	w.WriteByte('}')
}

// formatValue renders a float the way %g does, matching the output of
// the previous hand-rolled writer (integers stay bare: 5, not 5e+00).
func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// escapeLabel escapes a label value per the exposition format: backslash,
// double quote and newline. The result round-trips through
// strconv.Unquote, which the strict parser test relies on.
func escapeLabel(v string) string { return labelEscaper.Replace(v) }

var helpEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`)

// escapeHelp escapes a HELP string (backslash and newline only).
func escapeHelp(v string) string { return helpEscaper.Replace(v) }

// ---------------------------------------------------------------------------
// Gather: programmatic samples, the substrate of flight-box metric deltas.

// Sample is one scrape-time value of a family's series. Histograms
// contribute two samples, <name>_sum and <name>_count.
type Sample struct {
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels,omitempty"`
	Kind   string            `json:"kind"`
	Value  float64           `json:"value"`
}

// Gather returns every current sample, sorted by name then labels.
// Function-backed families are sampled too, so deltas can show e.g. heap
// growth across a job. Nil registries gather nothing.
func (r *Registry) Gather() []Sample {
	if r == nil {
		return nil
	}
	var out []Sample
	add := func(f *family, suffix string, values []string, v float64, kind string) {
		s := Sample{Name: f.name + suffix, Kind: kind, Value: v}
		if len(f.labels) > 0 {
			s.Labels = make(map[string]string, len(f.labels))
			for i, l := range f.labels {
				s.Labels[l] = values[i]
			}
		}
		out = append(out, s)
	}
	for _, f := range r.families() {
		f := f
		if f.collect != nil {
			f.collect(func(values []string, v float64) { add(f, "", values, v, f.kind) })
			continue
		}
		for _, s := range f.snapshotSeries() {
			switch inst := s.inst.(type) {
			case *Counter:
				add(f, "", s.labelValues, float64(inst.Value()), KindCounter)
			case *CounterFloat:
				add(f, "", s.labelValues, inst.Value(), KindCounter)
			case *Gauge:
				add(f, "", s.labelValues, float64(inst.Value()), KindGauge)
			case *GaugeFloat:
				add(f, "", s.labelValues, inst.Value(), KindGauge)
			case *Histogram:
				add(f, "_sum", s.labelValues, inst.Sum(), KindCounter)
				add(f, "_count", s.labelValues, float64(inst.Count()), KindCounter)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return labelKey(out[i].Labels) < labelKey(out[j].Labels)
	})
	return out
}

// Delta is the change of one series between two Gather calls.
type Delta struct {
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels,omitempty"`
	Kind   string            `json:"kind"`
	Before float64           `json:"before"`
	After  float64           `json:"after"`
}

// DeltaSamples diffs two Gather results, keeping only series whose value
// changed (plus series new in after with a non-zero value). This is what
// a failed job's flight box embeds as "what moved during this job".
func DeltaSamples(before, after []Sample) []Delta {
	prev := make(map[string]Sample, len(before))
	for _, s := range before {
		prev[s.Name+"\x00"+labelKey(s.Labels)] = s
	}
	var out []Delta
	for _, s := range after {
		b, ok := prev[s.Name+"\x00"+labelKey(s.Labels)]
		if ok && b.Value == s.Value {
			continue
		}
		if !ok && s.Value == 0 {
			continue
		}
		out = append(out, Delta{Name: s.Name, Labels: s.Labels, Kind: s.Kind, Before: b.Value, After: s.Value})
	}
	return out
}

func labelKey(labels map[string]string) string {
	if len(labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	for _, k := range keys {
		sb.WriteString(k)
		sb.WriteByte('=')
		sb.WriteString(labels[k])
		sb.WriteByte(';')
	}
	return sb.String()
}
