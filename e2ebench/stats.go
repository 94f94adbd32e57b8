package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count), or 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// quartiles returns the first and third quartiles of xs by the same
// exclusive method as Python's statistics.quantiles(xs, n=4), so the
// spread this program reports matches the one an outside checker computes.
// Fewer than two values give (x, x).
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	switch len(s) {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	// Python's exclusive method, integer arithmetic and clamping included.
	ld, m := len(s), len(s)+1
	at := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// relSpread is the interquartile range of xs as a share of its median.
func relSpread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(m)
}

// tailPercentile returns the highest of the fixed percentiles p50, p75,
// p90, p95, p99 and p99.9 that still has at least ten samples above it,
// with the percentile itself; ok is false when even the median lacks ten
// samples beyond it. It is the nearest-rank value: the smallest sample with
// at least p% of the samples at or below it.
func tailPercentile(xs []float64) (p, v float64, ok bool) {
	s := sorted(xs)
	for _, q := range []float64{99.9, 99, 95, 90, 75, 50} {
		rank := nearestRank(q, len(s))
		if len(s)-rank >= 10 {
			return q, s[rank-1], true
		}
	}
	return 0, 0, false
}

// percentile returns the nearest-rank q-th percentile of xs (0 when empty).
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sorted(xs)[nearestRank(q, len(xs))-1]
}

// nearestRank is the 1-based rank of the q-th percentile of n samples.
// The slack keeps 99.9% of 10000 at rank 9990 despite float rounding.
func nearestRank(q float64, n int) int {
	rank := int(math.Ceil(q*float64(n)/100 - 1e-9))
	if rank < 1 {
		rank = 1
	}
	return rank
}
