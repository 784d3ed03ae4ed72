package obs

import (
	"math"
	"reflect"
	"sync"
	"testing"
)

func TestNewHistogramValidation(t *testing.T) {
	bad := [][]float64{
		{},
		{1, 1},
		{2, 1},
		{math.NaN()},
		{math.Inf(1)},
	}
	for _, bounds := range bad {
		if _, err := NewHistogram(bounds); err == nil {
			t.Errorf("bounds %v accepted", bounds)
		}
	}
	if _, err := NewHistogram([]float64{0.1, 1, 10}); err != nil {
		t.Errorf("valid bounds rejected: %v", err)
	}
}

func TestHistogramBucketPlacement(t *testing.T) {
	h := MustHistogram(1, 2, 4)
	// le semantics: v <= bound lands in that bucket.
	for _, v := range []float64{0.5, 1.0} { // both le=1
		h.Observe(v)
	}
	h.Observe(1.5) // le=2
	h.Observe(4.0) // le=4 (boundary inclusive)
	h.Observe(9.0) // +Inf
	h.Observe(math.NaN())

	s := h.Snapshot()
	want := []uint64{2, 1, 1, 1}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Errorf("bucket %d = %d, want %d (%v)", i, s.Counts[i], w, s.Counts)
		}
	}
	if s.Count != 5 {
		t.Errorf("count = %d, want 5", s.Count)
	}
	if got := s.Sum; math.Abs(got-16) > 1e-9 {
		t.Errorf("sum = %v, want 16", got)
	}
	cum := s.Cumulative()
	if cum[len(cum)-1] != s.Count {
		t.Errorf("+Inf cumulative %d != count %d", cum[len(cum)-1], s.Count)
	}
	for i := 1; i < len(cum); i++ {
		if cum[i] < cum[i-1] {
			t.Errorf("cumulative not monotone at %d: %v", i, cum)
		}
	}
}

func TestHistogramQuantileAndMean(t *testing.T) {
	h := MustHistogram(1, 2, 3, 4)
	for i := 0; i < 100; i++ {
		h.Observe(float64(i%4) + 0.5) // uniform over the four buckets
	}
	s := h.Snapshot()
	if got := s.Mean(); math.Abs(got-2.0) > 1e-9 {
		t.Errorf("mean = %v, want 2", got)
	}
	if q := s.Quantile(0.5); q < 1 || q > 3 {
		t.Errorf("p50 = %v, want within the middle buckets", q)
	}
	if q := s.Quantile(1); q != 4 {
		t.Errorf("p100 = %v, want 4", q)
	}
	// Overflow observations clamp to the last finite bound.
	h2 := MustHistogram(1)
	h2.Observe(50)
	if q := h2.Snapshot().Quantile(0.99); q != 1 {
		t.Errorf("overflow quantile = %v, want clamp to 1", q)
	}
	if (HistogramSnapshot{}).Quantile(0.9) != 0 || (HistogramSnapshot{}).Mean() != 0 {
		t.Error("empty snapshot quantile/mean not zero")
	}
}

// TestQuantileOverflowBucketClamped pins the Prometheus
// histogram_quantile convention at the +Inf bucket: any quantile whose
// rank lands in the overflow bucket returns the last finite bound, never
// +Inf.
func TestQuantileOverflowBucketClamped(t *testing.T) {
	h := MustHistogram(0.001, 0.01, 0.1)
	for i := 0; i < 10; i++ {
		h.Observe(0.005) // second bucket
	}
	for i := 0; i < 90; i++ {
		h.Observe(5) // +Inf overflow bucket
	}
	s := h.Snapshot()
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999, 1} {
		got := s.Quantile(q)
		if math.IsInf(got, 0) || math.IsNaN(got) {
			t.Fatalf("Quantile(%v) = %v, must be finite", q, got)
		}
		if got != 0.1 {
			t.Errorf("Quantile(%v) = %v, want clamp to last finite bound 0.1", q, got)
		}
	}
	// Entire mass in the overflow bucket: still clamped, at every q.
	h2 := MustHistogram(1, 2)
	h2.Observe(1e9)
	for _, q := range []float64{0.01, 0.5, 1} {
		if got := h2.Snapshot().Quantile(q); got != 2 {
			t.Errorf("all-overflow Quantile(%v) = %v, want 2", q, got)
		}
	}
}

func TestHistogramNilSafety(t *testing.T) {
	var h *Histogram
	h.Observe(1) // must not panic
	if h.Sum() != 0 || h.Count() != 0 {
		t.Error("nil histogram reported observations")
	}
	s := h.Snapshot()
	if s.Count != 0 || len(s.Bounds) != 0 {
		t.Errorf("nil snapshot = %+v", s)
	}
}

// TestHistogramMerge: merging is the same as observing src's samples into
// the destination directly, and a bounds mismatch changes nothing.
func TestHistogramMerge(t *testing.T) {
	samples := []float64{3e-7, 2e-6, 2e-6, 4e-5, 7e-3, 1} // 1 s lands in +Inf
	direct := MustHistogram(LatencyBuckets()...)
	dst := MustHistogram(LatencyBuckets()...)
	src := MustHistogram(LatencyBuckets()...)
	direct.Observe(5e-6)
	dst.Observe(5e-6)
	for _, v := range samples {
		direct.Observe(v)
		src.Observe(v)
	}
	if err := dst.Merge(src); err != nil {
		t.Fatal(err)
	}
	if got, want := dst.Snapshot(), direct.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Errorf("merged = %+v, want %+v", got, want)
	}
	if src.Count() != uint64(len(samples)) {
		t.Errorf("merge changed its source: count %d", src.Count())
	}

	before := dst.Snapshot()
	if err := dst.Merge(MustHistogram(1, 2)); err == nil {
		t.Error("merge across different bounds succeeded")
	}
	if got := dst.Snapshot(); !reflect.DeepEqual(got, before) {
		t.Errorf("failed merge changed the destination: %+v, was %+v", got, before)
	}
	var nilH *Histogram
	if err := nilH.Merge(src); err != nil || dst.Merge(nil) != nil {
		t.Error("nil merge reported an error")
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := MustHistogram(LatencyBuckets()...)
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(float64(i%10) * 1e-6)
			}
		}(w)
	}
	wg.Wait()
	if got := h.Count(); got != workers*per {
		t.Errorf("count = %d, want %d", got, workers*per)
	}
	s := h.Snapshot()
	if s.Count != workers*per {
		t.Errorf("snapshot count = %d, want %d", s.Count, workers*per)
	}
	wantSum := float64(workers) * per * 4.5 * 1e-6 // mean of 0..9 µs
	if math.Abs(s.Sum-wantSum) > 1e-9 {
		t.Errorf("sum = %v, want %v", s.Sum, wantSum)
	}
}

func TestDefaultBucketSets(t *testing.T) {
	for name, bounds := range map[string][]float64{
		"latency": LatencyBuckets(),
		"wall":    WallBuckets(),
	} {
		if _, err := NewHistogram(bounds); err != nil {
			t.Errorf("%s buckets invalid: %v", name, err)
		}
	}
}
