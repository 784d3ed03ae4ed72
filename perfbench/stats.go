package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported percentile:
// a tail figure resting on fewer is one or two unlucky requests, not a
// property of the system.
const minBeyond = 10

// tailLadder lists the percentiles a run may report as its tail, highest
// first; tailQuantile picks the first one the sample count supports. It
// stops at p90: on a shared 2-vCPU host the p99 of 80 µs cache hits
// spread 0.61 (IQR over median) across ten runs against 0.13 for their
// p90, beyond any bound the benchmark may set. p99 is still printed
// wherever it has ten samples beyond it.
var tailLadder = []float64{0.90, 0.75, 0.50}

// rank is the 1-based nearest-rank index of quantile q over n samples,
// ceil(q·n) clamped to [1, n]. The epsilon keeps 0.99·1000 at 990 despite
// floating-point error.
func rank(q float64, n int) int {
	r := int(math.Ceil(q*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// percentile returns the nearest-rank q-quantile of sorted (ascending)
// values; NaN for an empty slice.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[rank(q, len(sorted))-1]
}

// supports reports whether n samples leave at least minBeyond of them
// beyond the q-quantile.
func supports(q float64, n int) bool {
	return n > 0 && n-rank(q, n) >= minBeyond
}

// tailQuantile returns the highest percentile of tailLadder that n
// samples support; the median when none does (a run too short to have a
// tail, which the text output flags).
func tailQuantile(n int) float64 {
	for _, q := range tailLadder {
		if supports(q, n) {
			return q
		}
	}
	return 0.5
}

// sortedCopy returns xs sorted ascending without touching the input.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the nearest-rank median of xs (unsorted).
func median(xs []float64) float64 { return percentile(sortedCopy(xs), 0.5) }

// mean is the arithmetic mean; NaN for an empty slice.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ratio is a/b, or 0 when b is 0 (a layer that saw no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
