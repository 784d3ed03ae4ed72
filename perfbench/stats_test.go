package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	cases := []struct {
		n    int
		q    float64
		want float64
	}{
		{1, 0.5, 1},
		{1, 0.99, 1},
		{2, 0.5, 1},
		{4, 0.5, 2},
		{5, 0.5, 3},
		{10, 0.9, 9},
		{100, 0.99, 99},
		{1000, 0.99, 990}, // 0.99·1000 must not round up to rank 991
		{1000, 0.90, 900},
		{7, 1, 7},
		{7, 0.01, 1},
	}
	for _, c := range cases {
		if got := percentile(seq(c.n), c.q); got != c.want {
			t.Errorf("percentile(1..%d, %g) = %g, want %g", c.n, c.q, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of no samples should be NaN")
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{
		{100000, 0.90}, // p99 is never the reported tail
		{100, 0.90},    // rank 90: exactly 10 beyond
		{99, 0.75},
		{40, 0.75},
		{39, 0.50},
		{20, 0.50},
		{19, 0.50}, // nothing qualifies: falls back to the median
		{0, 0.50},
	}
	for _, c := range cases {
		if got := tailQuantile(c.n); got != c.want {
			t.Errorf("tailQuantile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
	if supports(0.99, 999) || !supports(0.99, 1000) {
		t.Error("p99 must need exactly 1000 samples")
	}
}

func TestMedianDoesNotSortInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	if m := median(xs); m != 2 {
		t.Fatalf("median = %g, want 2", m)
	}
	if xs[0] != 3 || xs[1] != 1 {
		t.Fatal("median reordered its input")
	}
}
